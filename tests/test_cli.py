import json
import os
import subprocess
from pathlib import Path
from random import Random

import numpy as np
import pytest

from freesolv import cli, wordproblem
from freesolv.cli import (EXIT_GUARD, EXIT_NO, EXIT_USAGE, EXIT_YES,
                          bench_instance, main, run_bench, run_selftest)
from freesolv.conjugacy import SchreierSupport, conjugacy_solve
from freesolv.power import PowerResult, power_solve
from freesolv.words import Word, commutator, random_trivial_word
from freesolv.wordproblem import SupportChain, word_problem


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_wp_nontrivial(capsys):
    code, out, _ = run(capsys, "wp", "--rank", "2", "--degree", "2",
                       "x1 x2 X1 X2")
    assert code == EXIT_NO
    assert "answer=False" in out


def test_wp_trivial_at_depth1(capsys):
    code, out, _ = run(capsys, "wp", "--degree", "1", "x1 x2 X1 X2")
    assert code == EXIT_YES
    assert "answer=True" in out


def test_wp_json_schema(capsys):
    code, out, _ = run(capsys, "wp", "--degree", "2", "--json", "--seed", "4",
                       "x1 x2 X1 X2")
    rep = json.loads(out)
    assert set(rep) == {"problem", "inputs", "answer", "mode", "seed",
                        "elapsed_ms", "degree", "rank"}
    assert rep["problem"] == "wp" and rep["seed"] == 4


def test_seed_determinism_mc(capsys):
    args = ("wp", "--mode", "mc", "--seed", "7", "--degree", "2", "--json",
            "x2 x1 x2 x1 x2 X1 x2^-3 X1")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("elapsed_ms"), r2.pop("elapsed_ms")
    assert r1 == r2


def test_pow_commands(capsys):
    code, out, _ = run(capsys, "pow", "--degree", "1", "x1^6", "x1^2",
                       "--json")
    assert code == EXIT_YES and json.loads(out)["k"] == 3
    code, out, _ = run(capsys, "pow", "--degree", "1", "x1", "x2", "--json")
    assert code == EXIT_NO and json.loads(out)["k"] is None
    code, out, _ = run(capsys, "pow", "--degree", "2",
                       "x1 x2 X1 X2 x1 x2 X1 X2", "x1 x2 X1 X2", "--json")
    assert code == EXIT_YES and json.loads(out)["k"] == 2


def test_conj_commands(capsys):
    code, out, _ = run(capsys, "conj", "--degree", "2", "x1 x2", "x2 x1",
                       "--json")
    rep = json.loads(out)
    assert code == EXIT_YES and rep["answer"] is True
    # soundness replay: feed z x z^-1 y^-1 back through the wp command
    from freesolv.words import parse
    z = parse(rep["witness"])
    w = z * parse("x1 x2") * ~z * ~parse("x2 x1")
    code3, _, _ = run(capsys, "wp", "--degree", "2", "--rank", "2",
                      w.serialize())
    assert code3 == EXIT_YES
    code4, _, _ = run(capsys, "conj", "--degree", "1", "x1", "x2")
    assert code4 == EXIT_NO


def test_usage_errors(capsys):
    code, _, err = run(capsys, "wp", "x0")
    assert code == EXIT_USAGE and "error" in err
    code, _, _ = run(capsys, "wp", "--rank", "1", "x2")
    assert code == EXIT_USAGE


def test_negative_cube_exp_is_a_usage_error(capsys):
    # a negative exponent would make the anchor cube bound a fraction
    code, _, err = run(capsys, "wp", "x1 x2 X1 X2 x1 X2 X1 x2 x2 x1 X2 X1 "
                       "X2 x1 x2 X1", "--mode", "mc", "--cube-exp", "-1")
    assert code == EXIT_USAGE and "cube" in err
    code, _, _ = run(capsys, "wp", "x1 x2 X1 X2", "--mode", "mc",
                     "--cube-exp", "0", "--seed", "1")
    assert code in (EXIT_YES, EXIT_NO)


def test_guard_exit(capsys):
    code, _, err = run(capsys, "wp", "--max-len", "4", "x1 x2 x1 x2 x1")
    assert code == EXIT_GUARD and "guard" in err


def test_parse_guard_exit(capsys):
    # parse counts the letters of a token before expanding it, under
    # --max-len, so a huge exponent trips the guard instead of building
    # the word (or overflowing)
    for argv in (("wp", "x1^" + "1" * 31),
                 ("wp", "x1^3000000", "--max-len", "100"),
                 ("pow", "x1", "x2^3000000", "--max-len", "100"),
                 ("conj", "x1^3000000", "x1", "--max-len", "100")):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_GUARD and err.startswith("guard:"), argv


def test_pow_guard_exit(capsys):
    # power_solve raises the guard error itself; the CLI maps it to exit 3
    code, _, err = run(capsys, "pow", "--max-len", "4", "x1 x2 x1", "x1")
    assert code == EXIT_GUARD and "guard" in err
    code, _, _ = run(capsys, "pow", "--max-len", "5", "x1 x1 x1", "x1")
    assert code == EXIT_YES


def test_conj_guard_exit(capsys):
    # conjugacy_solve raises the guard error itself; the CLI maps it to exit 3
    code, _, err = run(capsys, "conj", "--max-len", "4", "x1 x2", "x2 x1")
    assert code == EXIT_GUARD and "guard" in err
    code, _, _ = run(capsys, "conj", "--max-len", "5", "x1 x2", "x2 x1")
    assert code == EXIT_YES


def test_bench_table_runs(capsys):
    code, out, _ = run(capsys, "bench", "wp", "64,128,256", "--mode", "mc",
                       "--seed", "11", "--json")
    assert code == EXIT_YES
    table = json.loads(out)
    assert [row["n"] for row in table["rows"]] == [64, 128, 256]
    assert all(row["median_s"] >= 0 for row in table["rows"])
    assert "fitted_exponent" in table


def test_bench_json_rows_time_the_build(capsys):
    # each row gives the CPU time to build its input Words with the public
    # constructor, which packs their letters, apart from the solve time
    for problem in ("wp", "pow", "conj"):
        code, out, _ = run(capsys, "bench", problem, "64,128", "--seed", "2",
                           "--json")
        assert code == EXIT_YES
        rows = json.loads(out)["rows"]
        assert all(row["build_s"] > 0 for row in rows), (problem, rows)


def test_bench_rows_count_minor_faults(monkeypatch, capsys):
    # each row gives minflt, the median number of minor page faults in its
    # timed solves, in JSON and as a column of the text table; without
    # the resource module the field is left out
    code, out, _ = run(capsys, "bench", "wp", "64,128", "--seed", "2",
                       "--json")
    assert code == EXIT_YES
    assert all(row["minflt"] >= 0 for row in json.loads(out)["rows"])
    code, out, _ = run(capsys, "bench", "wp", "64,128", "--seed", "2")
    header, *rows = out.splitlines()[1:3]
    assert header.split() == ["n", "median_s", "build_s", "minflt",
                              "doubling"]
    assert rows[0].split()[3].isdigit()
    monkeypatch.setattr(cli, "resource", None)
    code, out, _ = run(capsys, "bench", "wp", "64,128", "--seed", "2",
                       "--json")
    assert all("minflt" not in row for row in json.loads(out)["rows"])
    code, out, _ = run(capsys, "bench", "wp", "64,128", "--seed", "2")
    assert out.splitlines()[2].split()[3] == "-"


def test_bench_json_names_revision_and_versions(capsys):
    # the JSON table carries what produced it: git HEAD, marked -dirty
    # when tracked files differ (None outside a checkout), and the python
    # and numpy versions
    code, out, _ = run(capsys, "bench", "wp", "64,128", "--mode", "mc",
                       "--seed", "3", "--json")
    assert code == EXIT_YES
    table = json.loads(out)
    assert [row["n"] for row in table["rows"]] == [64, 128]
    assert table["seed"] == 3
    assert table["revision"] == cli._revision()
    assert table["python"].count(".") == 2
    assert table["numpy"] == np.__version__


def test_revision_marks_a_dirty_tree():
    # HEAD, plus -dirty exactly when a tracked file differs from it; None
    # outside a git checkout
    root = Path(cli.__file__).resolve().parents[2]
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=root, env=env,
                              capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        assert cli._revision() is None
        return
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout
    assert cli._revision() == \
        head.stdout.strip() + ("-dirty" if dirty.strip() else "")


def test_bench_monotone_when_sizes_spread():
    # sizes 8x apart where per-letter work dominates the fixed cost of a
    # solve, so host noise cannot reorder the medians (at 64 and 512
    # letters they were about 1.5x apart)
    table = run_bench("wp", [512, 4096, 32768], 2, 2, "det", seed=5,
                      trials=3)
    meds = [row["median_s"] for row in table["rows"]]
    assert meds[0] <= meds[1] <= meds[2]


@pytest.mark.parametrize("mode", ["det", "mc"])
def test_trials_repeat_only_randomized_work(monkeypatch, capsys, mode):
    # a deterministic wp or pow solve, and a conj solve in either mode,
    # gives the same answer every time, so --trials 3 solves it once and
    # reports what --trials 1 does; Monte Carlo wp and pow solve 3 times
    calls = []
    for name in ("word_problem", "power_solve", "conjugacy_solve"):
        def spy(*args, _solve=getattr(cli, name), _name=name, **kwargs):
            calls.append(_name)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    runs = 3 if mode == "mc" else 1
    for argv, solver, want in (
            (("wp", "x1 x2 X1 X2 x1 X2 X1 x2 x2 x1 X2 X1 X2 x1 x2 X1"),
             "word_problem", runs),
            (("pow", "x1 x2 X1 X2 x1 x2 X1 X2", "x1 x2 X1 X2"),
             "power_solve", runs),
            (("conj", "x1 x2 x1 X2", "x2 x1 X2 x1"), "conjugacy_solve", 1)):
        reports = []
        for trials in ("3", "1"):
            calls.clear()
            code, out, _ = run(capsys, *argv, "--mode", mode, "--seed", "2",
                               "--trials", trials, "--json")
            assert code == EXIT_YES, argv
            reports.append(json.loads(out))
            reports[-1].pop("elapsed_ms")
            assert calls == [solver] * (want if trials == "3" else 1), argv
        assert reports[0] == reports[1], argv


def test_pow_trials_split_vote_goes_to_the_earliest_trial(monkeypatch,
                                                          capsys):
    # a tie is broken by trial order, not by the order of a set, which for
    # Fail (hash(None)) varies between processes
    answers = iter([PowerResult(5), PowerResult(1)])
    monkeypatch.setattr(cli, "power_solve", lambda *a, **k: next(answers))
    code, out, _ = run(capsys, "pow", "x1 x1 x1 x1 x1", "x1", "--mode",
                       "mc", "--seed", "1", "--trials", "2", "--json")
    assert code == EXIT_YES and json.loads(out)["k"] == 5


def test_bench_pow_reaches_commutator_check():
    # [v^2, v] and v^2 v^-2 reduce freely to 1; the factors c, c' of
    # u = v c v c' keep the timed check alive, on u v^-2 or on [u, v], and
    # keep both copies of v in the cyclic core that word_problem decides
    for n in (6, 48, 300):
        for d in (1, 2, 3):
            for seed in range(3):
                u, v = bench_instance("pow", n, 2, d, Random(seed))
                assert len(commutator(u, v)) > 0, (n, d, seed)
                assert len(u * v ** -2) > 0, (n, d, seed)
                core = wordproblem._cyclic_core(u * v ** -2)
                assert len(core) >= 2 * len(v), (n, d, seed)
                if n <= 48:
                    assert power_solve(u, v, 2, d).k == 2, (n, d, seed)


def test_bench_wp_reaches_depth_d(monkeypatch):
    # words of F^(d-1) have zero flow below depth d-1: the timed solve
    # refines to depth d-1 and runs the depth-d flow test on its numbering
    built = []
    numbering_at = SupportChain.numbering_at

    def spy(self, depth):
        built.append(depth)
        return numbering_at(self, depth)

    monkeypatch.setattr(SupportChain, "numbering_at", spy)
    for n in (64, 500, 3000):
        for d in (2, 3):
            for seed in range(3):
                (w,) = bench_instance("wp", n, 2, d, Random(seed))
                # one factor of F^(2) has at most 108 letters
                assert n <= len(w) < n + 110, (n, d, seed)
                built.clear()
                word_problem(w, 2, d)
                assert max(built) == d - 1, (n, d, seed)


def test_bench_passes_cube_exp_zero(monkeypatch):
    # --cube-exp 0 means the bound n^0 = 1, not the solver default
    bounds = []

    def spy(w, r, d, **kwargs):
        bounds.append(kwargs["cube_bound"])
        return word_problem(w, r, d, **kwargs)

    monkeypatch.setattr(cli, "word_problem", spy)
    run_bench("wp", [64], 2, 2, "mc", seed=1, trials=1, cube_exp=0)
    assert bounds == [1, 1]  # the untimed warm-up solve, then the row


def test_bench_passes_max_len(capsys):
    # instances of about 64 letters trip a guard of 32 in every solver
    for problem in ("wp", "pow", "conj"):
        code, _, err = run(capsys, "bench", problem, "64", "--max-len", "32")
        assert code == EXIT_GUARD and "guard" in err, problem


def test_bench_rejects_rank_one(capsys):
    code, _, err = run(capsys, "bench", "wp", "64", "--rank", "1")
    assert code == EXIT_USAGE and "rank" in err


def test_bench_rejects_unsorted(monkeypatch, capsys):
    # sizes must be positive and strictly ascending, checked before any
    # solve: a size 0 leaves nothing to fit, and a repeated size gives a
    # meaningless slope
    calls = []
    for name in ("word_problem", "power_solve", "conjugacy_solve"):
        monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(a))
    for sizes in ("128,64", "0,4", "8,8"):
        code, _, err = run(capsys, "bench", "wp", sizes)
        assert code == EXIT_USAGE and "ascending" in err, sizes
    assert calls == []


def test_selftest_small():
    assert run_selftest(max_len=4, verbose=False) == 0


def test_selftest_takes_only_its_length_bound(capsys):
    # the sweep is fixed, so an option it would ignore is a usage error
    code, _, err = run(capsys, "selftest", "--seed", "1")
    assert code == EXIT_USAGE and "--seed" in err


def test_bench_conj_no_pairs_need_no_trace(monkeypatch):
    # the perturbed pairs are not conjugate, and at d = 2 their flows
    # already differ in the translation invariant: the solve builds no
    # coset graph and traces nothing
    traces, supports = [], []
    trace, init = SchreierSupport.trace, SchreierSupport.__init__

    def spy_trace(self, w):
        traces.append(w)
        return trace(self, w)

    def spy_init(self, *args, **kwargs):
        supports.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SchreierSupport, "trace", spy_trace)
    monkeypatch.setattr(SchreierSupport, "__init__", spy_init)
    for n in (24, 60, 120):
        for seed in range(5):
            x, y = bench_instance("conj", n, 2, 2, Random(seed))
            assert not conjugacy_solve(x, y, 2, 2).conjugate, (n, seed)
            assert traces == [] and supports == [], (n, seed)


def test_bench_conj_reaches_depth_d(monkeypatch):
    # at d >= 3, c lies in F^(d-1) and is nontrivial in S_{r,d}: x and y
    # are conjugate in S_{r,d-1}, so the flow hash cannot answer, and the
    # solve builds the coset graph of <y> at depth d-1
    supports = []
    init = SchreierSupport.__init__

    def spy_init(self, y, r, d, **kwargs):
        supports.append(d)
        init(self, y, r, d, **kwargs)

    monkeypatch.setattr(SchreierSupport, "__init__", spy_init)
    for d in (3, 4):
        for n in (24, 96):
            for seed in range(3):
                x, y = bench_instance("conj", n, 2, d, Random(seed))
                assert conjugacy_solve(x, y, 2, d - 1).conjugate, (d, n, seed)
                supports.clear()
                conjugacy_solve(x, y, 2, d)
                assert supports == [d], (d, n, seed)


def test_bench_wp_generator_matches_product_loop():
    # one reduction stack gives the word of the old product loop
    for n in (1, 40, 700, 3000):
        for d in (1, 2, 3):
            for seed in range(3):
                rng = Random(seed)
                w = Word((), rank=2, _reduced=True)
                while len(w) < n:
                    w = w * random_trivial_word(rng, 2, max(d - 1, 1))
                got, = bench_instance("wp", n, 2, d, Random(seed))
                assert got == w and got.rank == w.rank
