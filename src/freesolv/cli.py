"""Command line front end: wp / pow / conj decision commands, a scaling
benchmark, and an oracle-agreement selftest.

Exit codes: 0 positive answer (trivial / power found / conjugate),
1 negative answer, 2 usage or parse error, 3 internal guard tripped.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import secrets
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import oracle
from .words import (ParseError, Word, commutator, parse, random_reduced_word,
                    random_trivial_word)
from .wordproblem import DEFAULT_MAX_LEN, LengthGuardError, word_problem
from .power import power_solve
from .conjugacy import conjugacy_solve

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


@dataclass
class RunConfig:
    rank: int | None
    degree: int
    mode: str
    seed: int
    cube_exp: int | None
    trials: int
    as_json: bool
    max_len: int

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        if args.rank is not None and args.rank < 1:
            raise ParseError("rank must be >= 1")
        if args.degree < 0:
            raise ParseError("degree must be >= 0")
        if args.trials < 1:
            raise ParseError("trials must be >= 1")
        if args.cube_exp is not None and args.cube_exp < 0:
            raise ParseError("cube exponent must be >= 0")
        seed = args.seed if args.seed is not None else secrets.randbits(64)
        return cls(rank=args.rank, degree=args.degree, mode=args.mode,
                   seed=seed, cube_exp=args.cube_exp, trials=args.trials,
                   as_json=args.json, max_len=args.max_len)

    @property
    def runs(self) -> int:
        """Solves per decision: --trials repeats only Monte Carlo work, as a
        deterministic solve gives the same answer every time."""
        return self.trials if self.mode == "mc" else 1

    def cube_bound(self, n: int) -> int | None:
        if self.mode != "mc":
            return None
        if self.cube_exp is None:
            return None  # solver defaults (|w|^3 and friends)
        return max(1, n) ** self.cube_exp


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(report.items()))
        print(pairs)


def _finish(report: dict, cfg: RunConfig, positive: bool) -> int:
    report.update(mode=cfg.mode, seed=cfg.seed, degree=cfg.degree)
    _emit(report, cfg.as_json)
    return EXIT_YES if positive else EXIT_NO


def cmd_wp(args) -> int:
    cfg = RunConfig.from_args(args)
    w = parse(args.word, cfg.rank, cfg.max_len)
    r = cfg.rank if cfg.rank is not None else w.rank
    rng = Random(cfg.seed)
    t0 = time.perf_counter()
    answers = [word_problem(w, r, cfg.degree, mode=cfg.mode, rng=rng,
                            cube_bound=cfg.cube_bound(len(w)),
                            max_len=cfg.max_len)
               for _ in range(cfg.runs)]
    # false-biased: any single False certifies nontriviality
    ans = all(answers)
    elapsed = (time.perf_counter() - t0) * 1000
    report = {"problem": "wp", "inputs": [w.serialize()], "answer": ans,
              "rank": r, "elapsed_ms": round(elapsed, 3)}
    return _finish(report, cfg, ans)


def cmd_pow(args) -> int:
    cfg = RunConfig.from_args(args)
    u = parse(args.u, cfg.rank, cfg.max_len)
    v = parse(args.v, cfg.rank, cfg.max_len)
    r = cfg.rank if cfg.rank is not None else max(u.rank, v.rank)
    rng = Random(cfg.seed)
    n = len(u) + len(v)
    t0 = time.perf_counter()
    results = [power_solve(u, v, r, cfg.degree, mode=cfg.mode, rng=rng,
                           cube_bound=cfg.cube_bound(n), max_len=cfg.max_len)
               for _ in range(cfg.runs)]
    # majority across trials; a tie goes to the earliest trial
    res = max(results, key=results.count)
    elapsed = (time.perf_counter() - t0) * 1000
    report = {"problem": "pow", "inputs": [u.serialize(), v.serialize()],
              "answer": res.found, "k": res.k, "rank": r,
              "elapsed_ms": round(elapsed, 3)}
    return _finish(report, cfg, res.found)


def cmd_conj(args) -> int:
    cfg = RunConfig.from_args(args)
    x = parse(args.x, cfg.rank, cfg.max_len)
    y = parse(args.y, cfg.rank, cfg.max_len)
    r = cfg.rank if cfg.rank is not None else max(x.rank, y.rank)
    n = len(x) + len(y)
    t0 = time.perf_counter()
    # exact in both modes, so one solve whatever --trials says
    res = conjugacy_solve(x, y, r, cfg.degree, mode=cfg.mode,
                          rng=Random(cfg.seed), cube_bound=cfg.cube_bound(n),
                          max_len=cfg.max_len)
    elapsed = (time.perf_counter() - t0) * 1000
    report = {"problem": "conj", "inputs": [x.serialize(), y.serialize()],
              "answer": res.conjugate,
              "witness": res.witness.serialize() if res.conjugate else None,
              "rank": r, "elapsed_ms": round(elapsed, 3)}
    return _finish(report, cfg, res.conjugate)


# -- benchmark ---------------------------------------------------------------


def bench_instance(problem: str, n: int, r: int, d: int, rng: Random):
    """Seeded instance families used for the scaling table.

    wp: a product of random words of F^(d-1) (of F^(1) for d <= 1), of
      about n letters.  Its abelianization is zero, so for d >= 2 the
      word problem does not stop at depth 1 and runs the refinement up
      to depth d; a uniform random word splits at depth 1 almost surely.
    pow: u = v c v c' with |v| about n/3 and c, c' random words of F^(d),
      so u = v^2 in S_{r,d} while u v^-2 and [u, v] are not freely trivial:
      for d >= 2 the solver must certify k = 2 by a word problem at depth
      d on u v^-2, the shorter of the two, the expensive path.  The word
      problem decides on its cyclic core, c v c' v^-1 less the few letters
      that the start of c may share with v, about 2n/3 letters (for u =
      v^2 c the core would be c alone).
    conj: y = z x z^-1 c with |x| about n/3, |z| about n/6 and c a
      commutator nested k = max(d-1, 1) deep over random leaves of about
      n / (3 4^k) letters, so c lies in F^(k) and has about n/3 letters.
      At d = 2, c is any nonempty commutator: the flows of x and y differ
      in the translation invariant of their hashes, so the solve is one
      pass over each word and traces no shift (the answer never depends
      on the hash constants).  At d >= 3, c is drawn until it is
      nontrivial in S_{r,d}: x and y are conjugate in S_{r,d-1}, so the
      hash invariant cannot answer, and the solve builds the coset graph
      of <y> at depth d-1 and traces on it the cuts the hash lets through
      that also pass the walk on Cay(A), the depth-d path.
    All families need r >= 2: every commutator in rank 1 is trivial.
    """
    if r < 2:
        raise ValueError("bench instances need rank >= 2")
    if problem == "wp":
        # w * factor * ... on one reduction stack, in linear time
        stack: list[int] = []
        while len(stack) < n:
            for s in random_trivial_word(rng, r, max(d - 1, 1)).letters:
                if stack and stack[-1] == -s:
                    stack.pop()
                else:
                    stack.append(s)
        return (Word(tuple(stack), rank=r, _reduced=True),)
    if problem == "pow":
        v = random_reduced_word(rng, max(1, n // 3), r)
        # F^(1) serves d = 0, where every word is trivial
        c, c2 = (random_trivial_word(rng, r, max(d, 1)) for _ in range(2))
        return (v * c * v * c2, v)
    if problem == "conj":
        x = random_reduced_word(rng, max(1, n // 3), r)
        z = random_reduced_word(rng, max(1, n // 6), r)
        k = max(d - 1, 1)
        leaf = max(1, n // (3 * 4 ** k))

        def nested(depth: int) -> Word:
            if depth == 0:
                return random_reduced_word(rng, leaf, r)
            return commutator(nested(depth - 1), nested(depth - 1))

        while True:
            c = nested(k)
            # c is trivial in S_{r,1}; at d = 2 any nonempty c keeps the
            # instances of the committed d = 2 table
            if not word_problem(c, r, d) if d > 2 else len(c) > 0:
                break
        y = (z * x * ~z) * c
        return (x, y)
    raise ValueError(f"unknown bench problem {problem!r}")


def run_bench(problem: str, sizes: list[int], r: int, d: int, mode: str,
              seed: int, trials: int, cube_exp: int | None = None,
              max_len: int = DEFAULT_MAX_LEN) -> dict:
    """Median CPU times, doubling ratios and the fitted exponent.

    CPU time of this process (time.process_time), not wall time, so the
    time a loaded host keeps the process off a core does not count.  The
    instances are about n letters, a few above n for wp, so a table up to
    n = 2^20 needs a max_len above the default guard.  Each solve takes
    its input Words fresh from the public constructor, which packs their
    letters; that build is timed apart from the solve, as build_s, so no
    work leaves the table by moving into construction.  One untimed
    solve of the first instance comes first, so that no row carries the
    one-time costs of the process (imports, first allocations).  Where
    the resource module exists, each row also gives minflt, the median
    number of minor page faults of the process during the timed solve:
    memory the solve took fresh from the kernel.
    """
    def minflt() -> int | None:
        if resource is None:
            return None
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def timed(n: int, t: int) -> tuple[float, float, int | None]:
        rng = Random(seed * 1_000_003 + n * 1009 + t)
        inst = bench_instance(problem, n, r, d, rng)
        total = sum(len(w) for w in inst)
        cube = (max(1, total) ** cube_exp
                if cube_exp is not None and mode == "mc" else None)
        run_rng = Random(seed * 1_000_003 + n * 1009 + t + 500_000_001)
        t0 = time.process_time()
        words = [Word(w.letters, rank=r, _reduced=True) for w in inst]
        faults = minflt()
        t1 = time.process_time()
        if problem == "wp":
            word_problem(words[0], r, d, mode=mode, rng=run_rng,
                         cube_bound=cube, max_len=max_len)
        elif problem == "pow":
            power_solve(words[0], words[1], r, d, mode=mode, rng=run_rng,
                        cube_bound=cube, max_len=max_len)
        else:
            conjugacy_solve(words[0], words[1], r, d, mode=mode,
                            rng=run_rng, cube_bound=cube, max_len=max_len)
        t2 = time.process_time()
        if faults is not None:
            faults = minflt() - faults
        return t1 - t0, t2 - t1, faults

    timed(sizes[0], 0)  # the warm-up
    rows = []
    for n in sizes:
        build, solve, faults = zip(*(timed(n, t) for t in range(trials)))
        rows.append({"n": n, "median_s": statistics.median(solve),
                     "build_s": statistics.median(build)})
        if faults[0] is not None:
            rows[-1]["minflt"] = statistics.median(faults)
    for prev, cur in zip(rows, rows[1:]):
        if cur["n"] == 2 * prev["n"] and prev["median_s"] > 0:
            cur["doubling_ratio"] = cur["median_s"] / prev["median_s"]
    xs = np.log2([row["n"] for row in rows])
    ys = np.log2([max(row["median_s"], 1e-9) for row in rows])
    exponent = float(np.polyfit(xs, ys, 1)[0]) if len(rows) > 1 else float("nan")
    return {"problem": problem, "mode": mode, "rank": r, "degree": d,
            "seed": seed, "rows": rows, "fitted_exponent": round(exponent, 3)}


def _revision() -> str | None:
    """git HEAD of the checkout this module lives in, or None outside one.

    The hash ends in -dirty when tracked files differ from HEAD, so a
    table timed before its commit does not name the parent of its code.
    """
    here = Path(__file__).resolve()
    # look no higher than the checkout root, src/freesolv/../..
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(here.parents[3]))
    # no tag names: --always then gives the full hash of HEAD
    cmd = ["git", "describe", "--always", "--dirty", "--abbrev=40",
           "--exclude=*"]
    try:
        out = subprocess.run(cmd, cwd=here.parent, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cmd_bench(args) -> int:
    cfg = RunConfig.from_args(args)
    sizes = [int(s) for s in args.sizes.split(",")]
    if sizes[0] < 1 or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ParseError("sizes must be positive and strictly ascending")
    r = cfg.rank if cfg.rank is not None else 2
    table = run_bench(args.problem, sizes, r, cfg.degree, cfg.mode,
                      cfg.seed, cfg.trials, cfg.cube_exp, cfg.max_len)
    if cfg.as_json:
        print(json.dumps(dict(table, revision=_revision(),
                              python=platform.python_version(),
                              numpy=np.__version__), sort_keys=True))
    else:
        print(f"# {table['problem']} mode={table['mode']} r={r} "
              f"d={cfg.degree} seed={cfg.seed}")
        print(f"{'n':>8} {'median_s':>12} {'build_s':>12} {'minflt':>8} "
              f"{'doubling':>9}")
        for row in table["rows"]:
            ratio = row.get("doubling_ratio")
            tail = f"{ratio:>9.2f}" if ratio is not None else f"{'-':>9}"
            print(f"{row['n']:>8} {row['median_s']:>12.5f} "
                  f"{row['build_s']:>12.5f} {row.get('minflt', '-'):>8} "
                  f"{tail}")
        print(f"fitted exponent: {table['fitted_exponent']}")
    return EXIT_YES


# -- selftest ----------------------------------------------------------------


def _power_agrees(u: Word, v: Word, res) -> bool:
    """The oracle's verdict on power_solve(u, v, 2, 2).

    A Found(k) must give v^k = u; a Fail must leave no k with |k| <= |u|
    + 1, which bounds every power that can work: |k| |pi_v|_1 =
    |pi_u|_1 <= |u| for the depth-0 or depth-1 flows of v != 1, and k = 0
    works when v = 1 does.
    """
    fu = oracle.magnus_form(u, 2, 2)
    if res.found:
        return oracle.magnus_form(v ** res.k, 2, 2) == fu
    return all(oracle.magnus_form(v ** k, 2, 2) != fu
               for k in range(-len(u) - 1, len(u) + 2))


def run_selftest(max_len: int = 6, verbose: bool = True) -> int:
    """Oracle-agreement sweep; returns the number of mismatches.

    Word problems run exhaustively up to max_len letters.  Power problems
    are checked both ways (_power_agrees), on exact powers and on pairs
    that are mostly no powers, with v generic or in F', so both the
    exponent-vector path and the support path of power_solve are met.
    Every word and power problem at d = 2 is also solved in Monte Carlo
    mode at cube bound 1, where random anchors would merge nearly every
    class: at rank 2 depth 1 is exact, so d = 2 must be, and any
    disagreement with the oracle counts as a mismatch.
    Conjugate pairs z x z^-1 must answer Yes at d = 2 and at d = 3, with
    a witness whose Magnus form conjugates x to y.
    """
    bad = 0
    total = 0
    mc = {"mode": "mc", "rng": Random(1), "cube_bound": 1}
    for w in oracle.reduced_words(2, max_len):
        for d, how in ((1, {}), (2, {}), (2, mc)):
            total += 1
            if word_problem(w, 2, d, **how) != oracle.is_trivial(w, 2, d):
                bad += 1
                if verbose:
                    print(f"wp mismatch: {w.serialize()} d={d} "
                          f"{how.get('mode', 'det')}")
    rng = Random(20240601)
    for i in range(400):
        kind = i % 4
        if kind in (0, 2):  # v generic (0) or in F' (2): u = v^k exactly
            v = random_reduced_word(rng, rng.randrange(1, 6), 2)
            if kind == 2:
                v = commutator(v, random_reduced_word(rng, 2, 2))
            u = v ** rng.randrange(-4, 5)
        elif kind == 1:  # generic u and v: mostly Fail
            u = random_reduced_word(rng, rng.randrange(0, 9), 2)
            v = random_reduced_word(rng, rng.randrange(1, 6), 2)
        else:  # v in F', u in F' or generic: mostly Fail
            v = commutator(random_reduced_word(rng, rng.randrange(1, 3), 2),
                           random_reduced_word(rng, rng.randrange(1, 3), 2))
            u = (random_reduced_word(rng, rng.randrange(0, 7), 2)
                 if i % 8 == 3 else
                 commutator(random_reduced_word(rng, 2, 2),
                            random_reduced_word(rng, 1, 2)))
        for how in ({}, mc):
            total += 1
            if not _power_agrees(u, v, power_solve(u, v, 2, 2, **how)):
                bad += 1
                if verbose:
                    print(f"pow mismatch: {u.serialize()} | {v.serialize()} "
                          f"{how.get('mode', 'det')}")
    for d, pairs, top in ((2, 100, 5), (3, 40, 6)):
        for _ in range(pairs):
            x = random_reduced_word(rng, rng.randrange(1, top), 2)
            z = random_reduced_word(rng, rng.randrange(0, 5), 2)
            y = z * x * ~z
            total += 1
            res = conjugacy_solve(x, y, 2, d)
            if not (res.conjugate and oracle.is_trivial(
                    res.witness * x * ~res.witness * ~y, 2, d)):
                bad += 1
                if verbose:
                    print(f"conj d={d} missed: {x.serialize()} ~ "
                          f"{y.serialize()}")
    if verbose:
        print(f"selftest: {total} checks, {bad} mismatches")
    return bad


def cmd_selftest(args) -> int:
    bad = run_selftest(max_len=args.wp_len)
    return EXIT_YES if bad == 0 else EXIT_NO


# -- argument plumbing -------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rank", type=int, default=None,
                   help="number of generators (default: inferred)")
    p.add_argument("--degree", type=int, default=2,
                   help="solvability class d (default 2, free metabelian)")
    p.add_argument("--mode", choices=("det", "mc"), default="det",
                   help="deterministic (always correct) or Monte Carlo")
    p.add_argument("--seed", type=int, default=None,
                   help="PRNG seed (default: OS entropy, echoed in output)")
    p.add_argument("--cube-exp", type=int, default=None,
                   help="mc mode: anchor bound B = (input letters)^EXP "
                        "instead of the solver default; each depth from 2 "
                        "on draws its anchors once, uniform on "
                        "[0, 2^bits(B)), which holds [0, B], so two "
                        "distinct flows meet with probability at most "
                        "2^-bits(B) <= 1/(B+1); depth 1 takes an exact code "
                        "of the prefix abelianizations wherever it fits in "
                        "62 bits (always at rank <= 2), so d <= 2 is exact")
    p.add_argument("--trials", type=int, default=1,
                   help="Monte Carlo wp and pow: solves per answer, "
                        "combined (any False for wp, the majority for "
                        "pow, a tie to the earliest trial); deterministic "
                        "solves and conj solve once. "
                        "bench: instances per size")
    p.add_argument("--json", action="store_true", help="JSON report")
    p.add_argument("--max-len", type=int, default=1 << 20,
                   help="input length guard")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="freesolv",
        description="word, power and conjugacy problems in free solvable "
                    "groups S_{r,d}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wp", help="decide w = 1 in S_{r,d}")
    p.add_argument("word")
    _add_common(p)
    p.set_defaults(fn=cmd_wp)

    p = sub.add_parser("pow", help="find k with u = v^k in S_{r,d}")
    p.add_argument("u")
    p.add_argument("v")
    _add_common(p)
    p.set_defaults(fn=cmd_pow)

    p = sub.add_parser("conj", help="decide conjugacy of x and y in S_{r,d}")
    p.add_argument("x")
    p.add_argument("y")
    _add_common(p)
    p.set_defaults(fn=cmd_conj)

    p = sub.add_parser("bench", help="scaling table for one problem")
    p.add_argument("problem", choices=("wp", "pow", "conj"))
    p.add_argument("sizes", help="comma-separated instance sizes, positive "
                                 "and strictly ascending")
    _add_common(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("selftest", help="oracle agreement sweep")
    p.add_argument("--wp-len", type=int, default=6,
                   help="exhaustive word-problem length bound")
    p.set_defaults(fn=cmd_selftest)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (LengthGuardError, oracle.OracleLimitError) as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
