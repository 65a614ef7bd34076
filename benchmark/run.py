#!/usr/bin/env python3
"""Known-answer benchmark for the freesolv word, power and conjugacy solvers.

    python3 benchmark/run.py --workload det-wp-pow --seed 1 --seconds 30 --trace 0

One process, one thread, a closed loop: one caller sends the next instance
only after the previous verdict returned.  Instances come from ``--seed``,
each with its answer known by construction (see ``workloads.py``).  The
loop solves whole rounds until ``--seconds`` have passed and at least 100
verdicts are in.  A verdict's time is its CPU time at reference speed:
the measured CPU time divided by how much slower than usual the host ran
a fixed reference kernel, timed after every solve of the same round.
Every verdict is checked after the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` solves a fixed
set of rounds, each instance once plain and once with spans around every
layer (``layers.py``), and prints the per-layer metrics.  The last line of
standard output is one JSON object; a record of the run, with the time of
every verdict, goes to ``benchmark/runs/``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random

# one thread: the clock below counts the CPU time of the whole process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# Solve times are CPU seconds of this process.  The loop is one thread
# with no I/O, so on an idle machine they equal wall time; on a shared
# host they leave out the time the process waited for a core, which
# measures the other tenants rather than the solvers.
clock = time.process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

MIN_VERDICTS = 100  # p90 then has at least ten samples beyond it
SETUP_MARKS = 8     # set-up is timed at the start, at each eighth of the
                    # run and at the end
REF_SECONDS = 0.0025  # CPU time of one reference() at reference speed


def _import_solvers():
    if not (SRC / "freesolv" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'freesolv'}; run from "
                 "the root of a freesolv checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


# -- host speed --------------------------------------------------------------

_REF_KEYS = None


def reference() -> int:
    """A fixed piece of work that does not use freesolv: tuple keys in a
    dict (about four fifths of its time) and one np.unique, like the
    interpreter and numpy work the solvers do.  Its CPU time says how fast
    the host runs such code at the moment."""
    global _REF_KEYS
    import numpy as np

    if _REF_KEYS is None:
        _REF_KEYS = np.random.default_rng(0).integers(0, 1000, 12000)
    gc.disable()  # a collection here would time the heap, not the host
    try:
        d: dict = {}
        for i in range(6000):
            key = ((i * 7919) % 1009, i & 7)
            d[key] = d.get(key, 0) + 1
        np.unique(_REF_KEYS, return_inverse=True)
    finally:
        gc.enable()
    return len(d)


def host_speed(calls: int = 1) -> float:
    """CPU time of ``calls`` reference() calls, as a multiple of
    REF_SECONDS each: 1.0 at reference speed, 1.4 when the host runs
    such code 1.4x slower."""
    t0 = clock()
    for _ in range(calls):
        reference()
    return (clock() - t0) / (calls * REF_SECONDS)


# -- solving -------------------------------------------------------------


def solve(inst, seed: int):
    """(result or raised exception, seconds) for one instance."""
    from freesolv import conjugacy, power, wordproblem
    from workloads import RANK

    words = inst.as_words()
    rng = Random(seed * 1_000_003 + inst.id) if inst.mode == "mc" else None
    if inst.problem == "wp":
        fn = wordproblem.word_problem
    elif inst.problem == "pow":
        fn = power.power_solve
    else:
        fn = conjugacy.conjugacy_solve
    t0 = clock()
    try:
        result = fn(*words, RANK, inst.d, mode=inst.mode, rng=rng)
    except Exception as exc:  # a raised verdict counts as a failed one
        result = exc
    return result, clock() - t0


def timed_loop(pool, seed: int, seconds: float, mark):
    """Whole rounds, cycling the pool, until ``seconds`` of wall time have
    passed and at least MIN_VERDICTS are in.  Every solve is followed by a
    reference() call; a solve's time is divided by the mean host speed over
    its round.  ``mark()`` is called at the start, at each of SETUP_MARKS
    equal steps of ``seconds`` and at the end.

    Returns (instance, result, seconds at reference speed, raw seconds,
    host speed) per solve, and the number of rounds."""
    solves = []
    rounds = 0
    marks = 1
    mark()
    t_start = time.perf_counter()
    while (time.perf_counter() - t_start < seconds
           or len(solves) < MIN_VERDICTS):
        done, speeds = [], []
        for inst in pool[rounds % len(pool)]:
            done.append((inst, *solve(inst, seed)))
            speeds.append(host_speed())
        speed = statistics.fmean(speeds)
        solves += [(inst, res, dt / speed, dt, speed)
                   for inst, res, dt in done]
        rounds += 1
        while (marks < SETUP_MARKS and time.perf_counter() - t_start
               >= seconds * marks / SETUP_MARKS):
            mark()
            marks += 1
    mark()
    return solves, rounds


def check_all(verdicts):
    """Per verdict, None or why it failed; each distinct result checked once."""
    from workloads import check

    seen: dict = {}
    out = []
    for inst, result, _ in verdicts:
        key = (inst.id, repr(result))
        if key not in seen:
            seen[key] = check(inst, result)
        out.append(seen[key])
    return out


def judge(verdicts, whys):
    """(correct, failed): failures are wrong or raised verdicts; a run stays
    correct when every failure is a Monte Carlo error its mode allows."""
    from workloads import allowed_mc_error

    failed = [(inst, why) for (inst, _, _), why in zip(verdicts, whys)
              if why is not None]
    correct = all(allowed_mc_error(inst, why) for inst, why in failed)
    for inst, why in failed:
        print(f"FAILED {inst.family} id={inst.id} size={inst.size}: {why}",
              file=sys.stderr)
    return correct, len(failed)


# -- set-up time -----------------------------------------------------------


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def setup_time() -> tuple[float, float]:
    """(seconds at reference speed, raw seconds): the CPU time (user +
    system) of a fresh interpreter that imports freesolv and returns one
    verdict on a tiny instance of each problem, divided by the host speed
    measured just before and after it."""
    from workloads import probe_instances

    lines = [f"import sys; sys.path.insert(0, {str(SRC)!r})",
             "from freesolv import Word, word_problem, power_solve, "
             "conjugacy_solve",
             "ok = True"]
    for inst in probe_instances():
        args = ", ".join(f"Word({w!r}, rank=2)" for w in inst.words)
        fn = {"wp": "word_problem", "pow": "power_solve",
              "conj": "conjugacy_solve"}[inst.problem]
        got = {"wp": "", "pow": ".k", "conj": ".conjugate"}[inst.problem]
        want = inst.k if inst.problem == "pow" else inst.answer
        lines.append(f"ok = ok and {fn}({args}, 2, {inst.d}){got} == {want!r}")
    lines.append("sys.exit(0 if ok else 1)")
    code = "\n".join(lines)
    speed = host_speed(5)
    t0 = _children_cpu()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          stdout=subprocess.DEVNULL, timeout=120)
    raw = _children_cpu() - t0
    if proc.returncode != 0:
        sys.exit("error: the set-up probe returned a wrong verdict")
    speed = (speed + host_speed(5)) / 2
    return raw / speed, raw


# -- metrics ---------------------------------------------------------------


def _ms(xs):
    return 1000.0 * statistics.median(xs)


def scaling_exponents(verdicts) -> dict[str, float]:
    """Per family, the slope of log median time against log mean input
    length over the size bins."""
    bins: dict = {}
    for inst, _, dt in verdicts:
        bins.setdefault(inst.family, {}).setdefault(inst.bin, []).append(
            (inst.letters, dt))
    out = {}
    for fam, by_bin in bins.items():
        xs, ys = [], []
        for samples in by_bin.values():
            xs.append(math.log(statistics.mean(n for n, _ in samples)))
            ys.append(math.log(statistics.median(dt for _, dt in samples)))
        if len(xs) > 1:
            out[fam] = statistics.linear_regression(xs, ys).slope
    return out


def end_to_end(verdicts, setup_s: float, rss_mb: float):
    times = [dt for _, _, dt in verdicts]
    solve_s = sum(times)
    letters = sum(inst.letters for inst, _, _ in verdicts)
    yes = [dt for inst, _, dt in verdicts if inst.answer]
    no = [dt for inst, _, dt in verdicts if not inst.answer]
    slopes = scaling_exponents(verdicts)
    metrics = {
        "solves_per_s": (len(times) / solve_s, "1/s"),
        "letters_per_s": (letters / solve_s, "1/s"),
        "verdict_ms_p50": (_ms(times), "ms"),
        "verdict_ms_p90": (1000.0 * statistics.quantiles(times, n=10)[8],
                           "ms"),
        "yes_ms_p50": (_ms(yes), "ms"),
        "no_ms_p50": (_ms(no), "ms"),
        "scaling_exponent": (max(slopes.values()), "slope"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, slopes, len(yes), len(no)


# -- the run record ----------------------------------------------------------


def git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def write_record(args, wl, pool, entries, extra: dict) -> Path:
    import numpy

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "families": [{"name": f.name, "mode": f.mode, "sizes": f.sizes}
                     for f in wl.families],
        "pool_instances": sum(map(len, pool)),
        "verdict_count": len(entries),
        "verdicts": entries,
        **extra,
    }
    RUNS.mkdir(exist_ok=True)
    path = RUNS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


# -- main ------------------------------------------------------------------


def _entry(inst, **fields) -> dict:
    return {"id": inst.id, "family": inst.family, "size": inst.size,
            "letters": inst.letters, "answer": inst.answer, **fields}


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        shown = f"{value:>14d}" if unit == "count" else f"{value:>14.6g}"
        print(f"  {name:<36} {shown} {unit}")


def run_untraced(args, wl):
    from workloads import build_pool

    pool = build_pool(wl, args.seed, wl.pool_rounds)
    # the pool's objects stay out of the collections the solvers trigger,
    # as they would in a process that holds only its own inputs
    gc.collect()
    gc.freeze()
    reference()  # warm-up: numpy's first calls
    for inst in pool[0][:3]:
        solve(inst, args.seed)
    setups: list[tuple[float, float]] = []
    solves, rounds = timed_loop(pool, args.seed, args.seconds,
                                lambda: setups.append(setup_time()))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(s for s, _ in setups)
    verdicts = [(inst, res, dt) for inst, res, dt, _, _ in solves]
    whys = check_all(verdicts)
    correct, failed = judge(verdicts, whys)
    metrics, slopes, n_yes, n_no = end_to_end(verdicts, setup_s, rss_mb)
    n = len(verdicts)
    speeds = [speed for *_, speed in solves]
    raw_s = sum(raw for _, _, _, raw, _ in solves)
    print(f"workload {wl.name}  seed {args.seed}  rounds {rounds}  "
          f"verdicts {n} (yes {n_yes}, no {n_no})")
    _print_metrics(metrics)
    print(f"  {'failed_share':<36} {failed / n:>14.6g} share "
          f"({failed} of {n} verdicts)")
    print(f"  samples: verdict_ms_p50/p90 over {n} (p90 has "
          f"{n - int(0.9 * n)} beyond it), yes_ms_p50 over {n_yes}, "
          f"no_ms_p50 over {n_no}")
    print("  scaling slopes: " + ", ".join(f"{k} {v:.3f}"
                                           for k, v in slopes.items()))
    print(f"  host speed {min(speeds):.3f} .. {max(speeds):.3f} "
          f"(median {statistics.median(speeds):.3f}); raw solves_per_s "
          f"{n / raw_s:.6g}, raw setup_s "
          f"{statistics.median(r for _, r in setups):.6g}")
    entries = [_entry(inst, ms=1000.0 * dt, raw_ms=1000.0 * raw,
                      host_speed=speed, failed=why)
               for (inst, _, dt, raw, speed), why in zip(solves, whys)]
    path = write_record(args, wl, pool, entries, {
        "setup_s": [{"s": s, "raw_s": r} for s, r in setups],
        "rounds": rounds, "ref_seconds": REF_SECONDS,
        "slopes": slopes, "failed_share": failed / n,
        "metrics": {k: v for k, (v, _) in metrics.items()}})
    print(f"  record: {path.relative_to(ROOT)}")
    return correct, n, failed, metrics


def run_traced(args, wl):
    from layers import Tracer, layer_metrics, traced
    from workloads import build_pool, probe_instances

    pool = build_pool(wl, args.seed, wl.trace_rounds)
    # the set-up probes enter every layer, so each is timed on every workload
    batch = probe_instances() + [inst for rnd in pool for inst in rnd]

    # each instance is solved once plain and once traced, alternating which
    # goes first, so warm-up and machine phases fall on both sides alike
    tr = Tracer()
    plain, spans, shifts = [], [], []
    for i, inst in enumerate(batch):
        for with_trace in (i % 2 == 0, i % 2 == 1):
            if not with_trace:
                plain.append((inst, *solve(inst, args.seed)))
                continue
            before = tr.counts["conjugacy.shifts_scanned"]
            with traced(tr):
                spans.append((inst, *solve(inst, args.seed)))
            tr.close_verdict()
            shifts.append(tr.counts["conjugacy.shifts_scanned"] - before)
    untraced_s = sum(dt for _, _, dt in plain)
    traced_s = sum(dt for _, _, dt in spans)

    verdicts = plain + spans
    whys = check_all(verdicts)
    correct, failed = judge(verdicts, whys)
    metrics = layer_metrics(tr)
    metrics["trace.overhead_share"] = (
        (traced_s - untraced_s) / untraced_s, "share")
    print(f"workload {wl.name}  seed {args.seed}  {len(batch)} verdicts, "
          f"each solved plain ({untraced_s:.3f} s in all) and traced "
          f"({traced_s:.3f} s)")
    _print_metrics(metrics)
    entries = [_entry(inst, ms=1000.0 * dt, failed=why)
               for (inst, _, dt), why in zip(verdicts, whys)]
    path = write_record(args, wl, pool, entries, {
        "untraced_s": untraced_s, "traced_s": traced_s,
        "shifts_per_verdict": [{"id": inst.id, "x_len": len(inst.words[0]),
                                "answer": inst.answer, "shifts": k}
                               for inst, k in zip(batch, shifts)
                               if inst.problem == "conj"],
        "metrics": {k: v for k, (v, _) in metrics.items()}})
    print(f"  record: {path.relative_to(ROOT)}")
    return correct, len(verdicts), failed, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # one core for this process and the set-up interpreters it starts, so
    # the host speed measured here applies to them
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    _import_solvers()
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(WORKLOADS)}")
    run = run_traced if args.trace else run_untraced
    correct, attempted, failed, metrics = run(args, wl)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
