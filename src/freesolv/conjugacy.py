"""Conjugacy in S_{r,d} through flows on the Schreier graph of <y>.

Two nontrivial words are conjugate exactly when some shift gamma of x
defines the same flow as y on the coset graph of <y> in S_{r,d-1}.  The
solver builds that coset graph lazily, identifying cosets by their image
in Z^r / Z ab(y) (exact for d <= 2) and, for d >= 3, through the
cyclic-membership solver, and scans the |x|+1 shifts gamma = y_i x'^{-1}.

A positive answer also carries a verified witness.  The shift that
certifies conjugacy need not conjugate x to y on the nose: the leftover
is invisible to the Schreier flow (it lives along the <y>-direction).
The repair solves h - h^y = delta for the leftover flow delta, realizes
the solution as a product of based cycle words, and prepends it.  A
prefix's height over its coset is the sum of the support's edge shifts
along its trace.  Every step that can answer Yes is exact; Monte Carlo
mode randomizes only coset membership at d >= 3, so at d <= 2 it gives
the deterministic answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Word, concat_reduced
from .xdigraph import FoldConflict
from .wordproblem import DEFAULT_MAX_LEN, LengthGuardError, word_problem
from .power import member_of_cyclic, power_solve

_MC_RETRIES = 5


@dataclass(frozen=True)
class ConjugacyResult:
    conjugate: bool
    witness: Word | None  # z with z x z^-1 = y whenever conjugate

    def __repr__(self):
        if not self.conjugate:
            return "No"
        return f"Yes(witness={self.witness.serialize()!r})"


NO = ConjugacyResult(False, None)


def _exponent_vector(letters: tuple[int, ...], r: int) -> tuple[int, ...]:
    vec = [0] * r
    for s in letters:
        vec[abs(s) - 1] += 1 if s > 0 else -1
    return tuple(vec)


def _moved(vec: tuple[int, ...], s: int) -> tuple[int, ...]:
    """Exponent vector of a word times x_s, from the word's vector."""
    out = list(vec)
    out[abs(s) - 1] += 1 if s > 0 else -1
    return tuple(out)


def _ab_height(word_ab, rep_ab, ab_y) -> int | None:
    """Exponent j with word = y^j * rep in S_{r,1} = Z^r, or None if none.

    That is ab(word) - ab(rep) = j ab(y).  With ab(y) = 0 it is 1 when the
    difference vanishes and None otherwise, as power_solve reports then.
    """
    diff = [a - b for a, b in zip(word_ab, rep_ab)]
    pivot = next((i for i, c in enumerate(ab_y) if c), None)
    if pivot is None:
        return None if any(diff) else 1
    j, rem = divmod(diff[pivot], ab_y[pivot])
    if rem or any(a != j * c for a, c in zip(diff, ab_y)):
        return None
    return j


class SchreierSupport:
    """Lazily built support of traced words in the coset graph of <y>.

    Vertices are right cosets <y>g in S_{r,d-1}, keyed by their image in
    Z^r / Z ab(y).  Equal keys are necessary for equal cosets at every
    depth and exact at depth d-1 <= 1, where that quotient is S_{r,d-1}/<y>
    itself; deeper, a bucket's candidates q are told apart by membership
    tests g q^-1 in <y>.  Tracing follows existing edges for free and only
    locates cosets on missing ones.

    One coset table holds, per vertex v, its representative rep(v) and
    that word's exponent vector, and, per edge (u, s) to v, the shift j
    with rep(u) x_s = y^j rep(v) in S_{r,d-1}.  The shift is 0 on an edge
    that created its target and is computed once, on first use, for an
    edge that closes onto an existing coset; (v, -s) gets -j.
    """

    def __init__(self, y: Word, r: int, d: int, mode: str = "det", rng=None,
                 cube_bound: int | None = None):
        if d < 1:
            raise ValueError("Schreier supports live at depth d-1 >= 0")
        self.y = y
        self.r = r
        self.depth = d - 1
        self.mode = mode
        self.rng = rng
        self.cube_bound = cube_bound
        self.memo: dict = {}
        self.reps: list[tuple[int, ...]] = [()]
        self.vecs: list[tuple[int, ...]] = [(0,) * r]
        self.out: dict[tuple[int, int], int] = {}
        self.shifts: dict[tuple[int, int], int | None] = {}
        self._ab_y = _exponent_vector(y.letters, r)
        self._pivot = next((i for i, c in enumerate(self._ab_y) if c), None)
        self.buckets: dict[tuple, list[int]] = {self._bucket_key((0,) * r):
                                                [0]}
        self.y_path, self.y_flow = self.trace(y)
        if self.y_path[-1] != 0:
            # <y> y = <y>, so a correct construction closes the cycle
            if mode == "mc":
                raise FoldConflict("membership noise broke the base cycle")
            raise AssertionError("deterministic y-trace failed to close")

    # -- coset bookkeeping -------------------------------------------------

    def _bucket_key(self, vec: tuple[int, ...]) -> tuple:
        """Canonical image of an exponent vector in Z^r / Z ab(y), or ()
        at depth 0; equal keys are necessary for equal cosets at every
        depth and sufficient at depth <= 1."""
        if self.depth == 0:
            return ()
        if self._pivot is not None:
            k = vec[self._pivot] // self._ab_y[self._pivot]
            vec = tuple(a - k * b for a, b in zip(vec, self._ab_y))
        return vec

    def _locate_or_add(self, letters: tuple[int, ...],
                       vec: tuple[int, ...]) -> int:
        """Vertex of the coset <y> * letters, creating it if unseen."""
        bucket = self.buckets.setdefault(self._bucket_key(vec), [])
        if bucket and self.depth <= 1:
            return bucket[0]  # the key is the coset itself
        hits = []
        for q in bucket:
            gq = Word(concat_reduced(letters,
                                     tuple(-s for s in reversed(self.reps[q]))),
                      rank=self.r, _reduced=True)
            if member_of_cyclic(gq, self.y, self.r, self.depth,
                                mode=self.mode, rng=self.rng,
                                cube_bound=self.cube_bound, memo=self.memo):
                hits.append(q)
                if self.mode == "det":
                    # exact membership never matches two cosets
                    return q
        if len(hits) > 1:
            raise FoldConflict("membership noise merged two cosets")
        if hits:
            return hits[0]
        v = len(self.reps)
        self.reps.append(letters)
        self.vecs.append(vec)
        bucket.append(v)
        return v

    def _step(self, u: int, s: int) -> int:
        tgt = self.out.get((u, s))
        if tgt is not None:
            return tgt
        p = self.reps[u]
        nxt = p[:-1] if p and p[-1] == -s else p + (s,)
        created = len(self.reps)
        tgt = self._locate_or_add(nxt, _moved(self.vecs[u], s))
        back = self.out.get((tgt, -s))
        if back is not None and back != u:
            if self.mode == "mc":
                raise FoldConflict("membership noise unfolded the graph")
            raise AssertionError("deterministic support lost foldedness")
        self.out[(u, s)] = tgt
        self.out[(tgt, -s)] = u
        if tgt == created:  # rep(u) x_s reduces to rep(tgt) itself
            self.shifts[(u, s)] = self.shifts[(tgt, -s)] = 0
        return tgt

    def arc(self, u: int, s: int) -> tuple[int, int | None]:
        """Target v of the edge (u, s) and its shift j: rep(u) x_s =
        y^j rep(v) in S_{r,d-1}, or None (only under Monte Carlo noise).

        A closing edge gets j once: at depth 1 from the exponent vectors
        (0 if ab(y) = 0: y = 1 in S_{r,1}, any j will do), deeper from one
        exact power problem."""
        v = self._step(u, s)
        if (u, s) not in self.shifts:
            if self.depth <= 1:
                j = 0 if self._pivot is None else _ab_height(
                    _moved(self.vecs[u], s), self.vecs[v], self._ab_y)
            else:
                g = concat_reduced(concat_reduced(self.reps[u], (s,)),
                                   tuple(-c for c in reversed(self.reps[v])))
                j = power_solve(Word(g, rank=self.r, _reduced=True), self.y,
                                self.r, self.depth, mode="det").k
            self.shifts[(u, s)] = j
            self.shifts[(v, -s)] = None if j is None else -j
        return v, self.shifts[(u, s)]

    # -- tracing -----------------------------------------------------------

    def trace(self, w: Word) -> tuple[list[int], dict[tuple[int, int], int]]:
        """Vertex path and flow of w from the root, extending the support.

        Flow keys are (origin vertex, generator index) in positive-label
        orientation; zero entries are dropped, so flows over different
        extension states compare directly (absent means zero).
        """
        v = 0
        path = [0]
        flow: dict[tuple[int, int], int] = {}
        for s in w.letters:
            nxt = self._step(v, s)
            key = (v, s) if s > 0 else (nxt, -s)
            val = flow.get(key, 0) + (1 if s > 0 else -1)
            if val:
                flow[key] = val
            else:
                flow.pop(key, None)
            v = nxt
            path.append(v)
        return path, flow


# -- witness construction --------------------------------------------------


def _witness_repair(x: Word, y: Word, gamma: Word, sup: SchreierSupport,
                    r: int, d: int) -> Word | None:
    """Turn a flow-equality shift gamma into a genuine conjugator.

    gamma x gamma^-1 agrees with y on the Schreier graph of <y>, so their
    difference flow delta on Cay(S_{r,d-1}) sums to zero along every
    <y>-orbit of edges.  Cayley edges are coordinatized as (coset vertex,
    height, letter) where g = y^height * rep(coset); a prefix's height is
    the running sum of the support's edge shifts along its trace, from 0
    at the root.  Translation by y is height + 1, so h with h - h^y =
    delta comes out of prefix sums along each orbit.  Realizing h as a
    product of based Eulerian cycle words and prepending it to gamma gives
    the conjugator.

    Returns None when the premise fails, which only happens under Monte
    Carlo membership noise; callers treat that as an inconclusive trial.
    """
    if d < 2:
        return None  # depth-0 repairs never arise: gamma already verifies
    w = gamma * x * ~gamma

    def cayley_flow(u: Word) -> dict[tuple[int, int, int], int] | None:
        """Flow of u on Cay(S_{r,d-1}) keyed (coset, height, letter)."""
        flow: dict[tuple[int, int, int], int] = {}
        v = height = 0
        for s in u.letters:
            nxt, j = sup.arc(v, s)
            if j is None:
                return None  # coset bookkeeping was wrong (Monte Carlo noise)
            if s > 0:
                key = (v, height, s)
                val = flow.get(key, 0) + 1
            else:
                key = (nxt, height + j, -s)
                val = flow.get(key, 0) - 1
            if val:
                flow[key] = val
            else:
                del flow[key]
            v, height = nxt, height + j
        return flow

    fy = cayley_flow(y)
    fw = cayley_flow(w)
    if fy is None or fw is None:
        return None
    delta = dict(fy)
    for k, v in fw.items():
        nv = delta.get(k, 0) - v
        if nv:
            delta[k] = nv
        else:
            delta.pop(k, None)

    # h(v, J, c) = sum of delta over (v, j, c) with j <= J; orbit totals
    # vanish exactly when the Schreier flows of y and w agree
    orbits: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (v, j, c), val in delta.items():
        orbits.setdefault((v, c), []).append((j, val))
    h: dict[tuple[int, int, int], int] = {}
    for (v, c), entries in orbits.items():
        entries.sort()
        if sum(val for _, val in entries) != 0:
            return None
        run = 0
        for (j0, val), (j1, _) in zip(entries, entries[1:]):
            run += val
            if run:
                for j in range(j0, j1):
                    h[(v, j, c)] = run

    candidate = gamma
    if h:
        adj: dict[tuple[int, int], list[tuple[tuple[int, int], int]]] = {}
        for (v, j, c), val in h.items():
            vv, dj = sup.arc(v, c)  # every edge of h was traced above
            a, b = (v, j), (vv, j + dj)
            arc = (a, b, c) if val > 0 else (b, a, -c)
            for _ in range(abs(val)):
                adj.setdefault(arc[0], []).append((arc[1], arc[2]))
                adj.setdefault(arc[1], [])
        bal: dict[tuple[int, int], int] = {}
        for a, outs in adj.items():
            bal[a] = bal.get(a, 0) + len(outs)
            for (b, _) in outs:
                bal[b] = bal.get(b, 0) - 1
        if any(bal.values()):
            return None  # h is not a circulation: premise was noise

        z_h = Word((), rank=r, _reduced=True)
        while True:
            base = min((a for a, outs in adj.items() if outs), default=None)
            if base is None:
                break
            node_stack = [base]
            letter_stack: list[int] = []
            circuit: list[int] = []
            while node_stack:
                u = node_stack[-1]
                if adj[u]:
                    vtx, letter = adj[u].pop()
                    node_stack.append(vtx)
                    letter_stack.append(letter)
                else:
                    node_stack.pop()
                    if letter_stack and node_stack:
                        circuit.append(letter_stack.pop())
            circuit.reverse()
            rep = y ** base[1] * Word(sup.reps[base[0]], rank=r,
                                      _reduced=True)
            z_h = z_h * (rep * Word(circuit, rank=r) * ~rep)
        candidate = z_h * gamma

    ok = word_problem(candidate * x * ~candidate * ~y, r, d, mode="det")
    return candidate if ok else None


def _verified_witness(x: Word, y: Word, gamma: Word, sup: SchreierSupport,
                      r: int, d: int) -> Word | None:
    if word_problem(gamma * x * ~gamma * ~y, r, d, mode="det"):
        return gamma
    return _witness_repair(x, y, gamma, sup, r, d)


# -- the solver -------------------------------------------------------------


def conjugacy_solve(x: Word, y: Word, r: int, d: int, mode: str = "det",
                    rng=None, cube_bound: int | None = None,
                    max_len: int = DEFAULT_MAX_LEN) -> ConjugacyResult:
    """Decide whether x and y are conjugate in S_{r,d}.

    Yes answers carry a witness z with z x z^-1 = y, verified
    deterministically; at d <= 2 both modes give the same answer.  Monte
    Carlo trials that trip over inconsistent membership answers are
    retried with fresh randomness a bounded number of times before the
    conflict is surfaced.  Raises LengthGuardError when |x|+|y| >=
    max_len, like word_problem and power_solve.
    """
    if r < 1 or d < 0:
        raise ValueError("need r >= 1 and d >= 0")
    if max(x.rank, y.rank) > r:
        raise ValueError(f"word rank {max(x.rank, y.rank)} exceeds r = {r}")
    n = len(x) + len(y)
    if n >= max_len:
        raise LengthGuardError(f"|x|+|y| = {n} exceeds guard {max_len}")
    if d == 0:
        return ConjugacyResult(True, Word((), rank=r, _reduced=True))
    B = None
    if mode == "mc":
        B = cube_bound if cube_bound is not None else 25 * max(1, n) ** 6
    ab = _exponent_vector(x.letters, r)
    if ab != _exponent_vector(y.letters, r):
        # conjugation-invariant in the abelianization, so never conjugate
        return NO
    if not any(ab):
        # a nonzero abelianization is nontrivial at every depth d >= 1;
        # exact, since a Monte Carlo "trivial" could be wrong twice over
        xt = word_problem(x, r, d, mode="det")
        yt = word_problem(y, r, d, mode="det")
        if xt and yt:
            return ConjugacyResult(True, Word((), rank=r, _reduced=True))
        if xt or yt:
            return NO

    attempts = _MC_RETRIES if mode == "mc" else 1
    last_conflict: Exception | None = None
    for _ in range(attempts):
        try:
            return _conjugacy_attempt(x, y, r, d, mode, rng, B)
        except FoldConflict as exc:
            last_conflict = exc
    raise last_conflict  # surfaced after bounded retries


def _conjugacy_attempt(x: Word, y: Word, r: int, d: int, mode: str, rng,
                       cube_bound: int | None) -> ConjugacyResult:
    sup = SchreierSupport(y, r, d, mode=mode, rng=rng, cube_bound=cube_bound)
    flow_y = sup.y_flow
    if not flow_y:
        # pi_y = 0 on Sch_{d-1}(y) holds only for y = 1 in S_{r,d}
        if mode == "mc":
            raise FoldConflict("flow of y vanished on its own Schreier graph")
        raise AssertionError("trivial flow for a word nontrivial in S_{r,d}")
    pick = None
    for i, s in enumerate(y.letters):
        u, nxt = sup.y_path[i], sup.y_path[i + 1]
        key = (u, s) if s > 0 else (nxt, -s)
        if flow_y.get(key, 0) != 0:
            pick = i
            break
    if pick is None:
        raise AssertionError("nonzero flow without a nonzero edge on the path")
    y_i = y.prefix(pick)

    for cut in range(len(x) + 1):
        gamma = y_i * ~x.prefix(cut)
        _, flow_w = sup.trace(gamma * x * ~gamma)
        if flow_w == flow_y:
            witness = _verified_witness(x, y, gamma, sup, r, d)
            if witness is None:
                if mode == "mc":
                    raise FoldConflict("flow equality was not certifiable")
                raise AssertionError("deterministic witness repair failed")
            return ConjugacyResult(True, witness)
    return NO
