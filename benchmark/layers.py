"""Spans and counters around the solver layers, installed from outside.

``traced(tracer)`` swaps the public entry points of each module on the
solver path for thin wrappers and puts the originals back on exit; nothing
inside ``freesolv`` is edited.  A span's self time is its duration minus
the part covered by child spans.  Names follow the package layout:

* ``xdigraph.prefix_tree``   PrefixTree construction
* ``wordproblem.*``          SupportChain: Euler tour, quotient edge
                             numbering and refinement (``labels_at``), whose
                             self time is split by the depth being refined
                             at the child ``numbering_at`` spans
* ``power.*``                power_solve, its depth probes, the commutator
                             check and cyclic membership
* ``conjugacy.*``            Schreier support tracing, coset discovery, the
                             shift scan and witness repair
* ``words.*``                Word multiplication and commutators
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

import numpy as np

from freesolv import conjugacy, power, wordproblem, xdigraph
from freesolv.words import Word
from freesolv.xdigraph import FoldConflict


class _Frame:
    __slots__ = ("name", "also", "total", "start", "resume", "self_s",
                 "bucket", "by_bucket")

    def __init__(self, name, also, total, now):
        self.name, self.also, self.total = name, also, total
        self.start = self.resume = now
        self.self_s = 0.0
        self.bucket: str | None = None  # where self time goes, if split
        self.by_bucket: defaultdict = defaultdict(float)


class Tracer:
    """In-memory spans: calls and self time per name, total time per
    ``total`` name, and plain counters."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.stack: list[_Frame] = []
        self.supports: list = []  # SchreierSupports of the current verdict

    def enter(self, name, also=(), total=None) -> _Frame:
        now = time.process_time()
        if self.stack:
            _pause(self.stack[-1], now)
        frame = _Frame(name, also, total, now)
        self.stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        now = time.process_time()
        _pause(frame, now)
        self.stack.pop()
        for name in (frame.name, *frame.also):
            if name is not None:
                self.calls[name] += 1
                self.self_s[name] += frame.self_s
        for bucket, dt in frame.by_bucket.items():
            self.self_s[f"{frame.name}.{bucket}"] += dt
        if frame.total is not None:
            self.total_s[frame.total] += now - frame.start
        if self.stack:
            self.stack[-1].resume = now

    @contextlib.contextmanager
    def span(self, name, also=(), total=None):
        frame = self.enter(name, also, total)
        try:
            yield frame
        finally:
            self.exit(frame)

    def close_verdict(self) -> None:
        """Count the cosets of the supports the finished verdict built."""
        self.counts["conjugacy.cosets"] += sum(len(s.reps)
                                               for s in self.supports)
        self.supports.clear()

    def wrap(self, fn, name, also=(), total=None):
        def wrapper(*args, **kwargs):
            frame = self.enter(name, also, total)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(frame)
        return wrapper


def _pause(frame: _Frame, now: float) -> None:
    dt = now - frame.resume
    frame.self_s += dt
    if frame.bucket is not None:
        frame.by_bucket[frame.bucket] += dt
    frame.resume = now


@contextlib.contextmanager
def traced(tr: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []

    def patch(obj, attr, new):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    SC = wordproblem.SupportChain
    SS = conjugacy.SchreierSupport
    orig_wp = wordproblem.word_problem
    orig_power = power.power_solve

    # xdigraph -----------------------------------------------------------
    orig_tree = xdigraph.PrefixTree

    def prefix_tree(*args, **kwargs):
        with tr.span("xdigraph.prefix_tree"):
            tree = orig_tree(*args, **kwargs)
        tr.counts["xdigraph.prefix_tree.nodes"] += len(tree)
        return tree

    patch(wordproblem, "PrefixTree", prefix_tree)
    patch(power, "PrefixTree", prefix_tree)

    # wordproblem --------------------------------------------------------
    orig_chain_init = SC.__init__

    def chain_init(self, *args, **kwargs):
        tr.counts["wordproblem.chains"] += 1
        orig_chain_init(self, *args, **kwargs)

    orig_labels = SC.labels_at

    def labels_at(self, depth):
        known = len(self._labels)
        with tr.span("wordproblem.refine"):
            out = orig_labels(self, depth)
        if len(self._labels) > known:
            with tr.span(None):  # counting, kept out of every self time
                for j in range(known, len(self._labels)):
                    tr.counts[f"wordproblem.classes.d{j}"] += int(
                        np.unique(self._labels[j]).size)
        return out

    orig_numbering = SC.numbering_at

    def numbering_at(self, depth):
        fresh = depth not in self._numberings
        caller = tr.stack[-1] if tr.stack else None
        with tr.span("wordproblem.numbering"):
            out = orig_numbering(self, depth)
        if fresh:
            tr.counts[f"wordproblem.quotient_edges.d{depth}"] += out[0]
        if caller is not None and caller.name == "wordproblem.refine":
            # the refine step that asked for depth k now builds depth k+1
            caller.bucket = f"d{depth + 1}"
        return out

    patch(SC, "__init__", chain_init)
    patch(SC, "labels_at", labels_at)
    patch(SC, "numbering_at", numbering_at)
    patch(SC, "_euler_tour", tr.wrap(SC._euler_tour, "wordproblem.euler"))
    patch(wordproblem, "word_problem",
          tr.wrap(orig_wp, "wordproblem.word_problem"))

    # power --------------------------------------------------------------
    patch(power, "power_solve", tr.wrap(orig_power, "power.power_solve"))
    patch(power, "_first_nontrivial_depth",
          tr.wrap(power._first_nontrivial_depth, None,
                  total="power.depth_probe"))
    patch(power, "word_problem",
          tr.wrap(orig_wp, "wordproblem.word_problem",
                  also=("power.commutator_check",)))
    patch(power, "commutator", tr.wrap(power.commutator, "words.commutator"))

    # conjugacy ----------------------------------------------------------
    orig_member = conjugacy.member_of_cyclic

    def member_of_cyclic(g, y, r, d, *args, memo=None, **kwargs):
        if memo is not None and (g.letters, y.letters, r, d) in memo:
            tr.counts["power.memo_hits"] += 1
        with tr.span("power.member_of_cyclic",
                     total="conjugacy.coset_discovery"):
            return orig_member(g, y, r, d, *args, memo=memo, **kwargs)

    orig_support_init = SS.__init__

    def support_init(self, *args, **kwargs):
        tr.supports.append(self)
        with tr.span("conjugacy.support"):
            orig_support_init(self, *args, **kwargs)

    orig_trace = SS.trace

    def support_trace(self, w):
        # a trace made directly by the solve attempt is one scanned shift;
        # the others come from support set-up and from witness repair
        if tr.stack and tr.stack[-1].name == "conjugacy.attempt":
            tr.counts["conjugacy.shifts_scanned"] += 1
        with tr.span("conjugacy.trace"):
            return orig_trace(self, w)

    orig_attempt = conjugacy._conjugacy_attempt

    def attempt(*args, **kwargs):
        try:
            with tr.span("conjugacy.attempt"):
                return orig_attempt(*args, **kwargs)
        except FoldConflict:
            tr.counts["conjugacy.retries"] += 1
            raise

    patch(conjugacy, "member_of_cyclic", member_of_cyclic)
    patch(SS, "__init__", support_init)
    patch(SS, "trace", support_trace)
    patch(conjugacy, "_conjugacy_attempt", attempt)
    patch(conjugacy, "_verified_witness",
          tr.wrap(conjugacy._verified_witness, "conjugacy.repair"))
    patch(conjugacy, "power_solve",
          tr.wrap(power.power_solve, "conjugacy.repair_heights"))
    patch(conjugacy, "word_problem",
          tr.wrap(orig_wp, "wordproblem.word_problem",
                  total="conjugacy.verify_wp"))

    # words --------------------------------------------------------------
    patch(Word, "__mul__", tr.wrap(Word.__mul__, "words.mul"))

    try:
        yield tr
    finally:
        for obj, attr, orig in reversed(saved):
            setattr(obj, attr, orig)


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit)."""
    c, s, t, n = tr.calls, tr.self_s, tr.total_s, tr.counts
    out: dict[str, tuple[float, str]] = {}

    def count(name, value):
        out[name] = (int(value), "count")

    def secs(name, value):
        out[name] = (float(value), "s")

    count("xdigraph.prefix_tree.calls", c["xdigraph.prefix_tree"])
    count("xdigraph.prefix_tree.nodes", n["xdigraph.prefix_tree.nodes"])
    secs("xdigraph.prefix_tree.self_s", s["xdigraph.prefix_tree"])
    count("wordproblem.word_problem.calls", c["wordproblem.word_problem"])
    secs("wordproblem.word_problem.self_s", s["wordproblem.word_problem"])
    count("wordproblem.chains", n["wordproblem.chains"])
    secs("wordproblem.refine.self_s", s["wordproblem.refine"])
    for k in (1, 2, 3):
        secs(f"wordproblem.refine.d{k}.self_s", s[f"wordproblem.refine.d{k}"])
    count("wordproblem.numbering.calls", c["wordproblem.numbering"])
    secs("wordproblem.numbering.self_s", s["wordproblem.numbering"])
    secs("wordproblem.euler.self_s", s["wordproblem.euler"])
    for k in (0, 1, 2):
        count(f"wordproblem.quotient_edges.d{k}",
              n[f"wordproblem.quotient_edges.d{k}"])
    for k in (1, 2, 3):
        count(f"wordproblem.classes.d{k}", n[f"wordproblem.classes.d{k}"])
    count("power.power_solve.calls", c["power.power_solve"])
    secs("power.power_solve.self_s", s["power.power_solve"])
    secs("power.depth_probe_s", t["power.depth_probe"])
    count("power.commutator_check.calls", c["power.commutator_check"])
    secs("power.commutator_check.self_s", s["power.commutator_check"])
    member_calls = c["power.member_of_cyclic"]
    count("power.member_of_cyclic.calls", member_calls)
    count("power.memo_hits", n["power.memo_hits"])
    out["power.memo_hit_ratio"] = (
        n["power.memo_hits"] / member_calls if member_calls else 0.0, "share")
    count("conjugacy.supports", c["conjugacy.support"])
    count("conjugacy.cosets", n["conjugacy.cosets"])
    secs("conjugacy.coset_discovery_s", t["conjugacy.coset_discovery"])
    count("conjugacy.trace.calls", c["conjugacy.trace"])
    secs("conjugacy.trace.self_s", s["conjugacy.trace"])
    count("conjugacy.shifts_scanned", n["conjugacy.shifts_scanned"])
    count("conjugacy.repair.calls", c["conjugacy.repair"])
    secs("conjugacy.repair.self_s", s["conjugacy.repair"])
    count("conjugacy.repair_heights", c["conjugacy.repair_heights"])
    secs("conjugacy.verify_wp_s", t["conjugacy.verify_wp"])
    count("conjugacy.retries", n["conjugacy.retries"])
    count("words.commutator.calls", c["words.commutator"])
    secs("words.commutator.self_s", s["words.commutator"])
    count("words.mul.calls", c["words.mul"])
    secs("words.mul.self_s", s["words.mul"])
    return out
