import importlib
import os
import subprocess
import sys
from pathlib import Path

import freesolv
from freesolv import conjugacy, power, wordproblem
from freesolv.words import commutator, parse

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"

SURFACE = [
    "Word", "ParseError", "parse", "commutator", "random_reduced_word",
    "random_trivial_word", "LengthGuardError", "FoldConflict",
    "word_problem", "power_solve", "PowerResult", "FAIL", "member_of_cyclic",
    "conjugacy_solve", "ConjugacyResult", "__version__",
]


def test_public_surface_is_the_solvers():
    assert sorted(freesolv.__all__) == sorted(SURFACE)
    for name in SURFACE:
        assert getattr(freesolv, name) is not None, name
    # the selftest oracle stays importable beside them
    assert importlib.import_module("freesolv.oracle").magnus_form


def test_import_loads_neither_cli_nor_oracle():
    # a fresh interpreter compiles every module that `import freesolv`
    # loads when no bytecode is cached, so the CLI and the selftest oracle
    # load only when asked for
    src = str(Path(freesolv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = ("import sys, freesolv; print(' '.join(m for m in sys.modules "
            "if m.startswith('freesolv')))")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    loaded = set(out.split())
    assert "freesolv.wordproblem" in loaded
    assert not loaded & {"freesolv.cli", "freesolv.oracle"}


def test_benchmark_tracer_reaches_every_layer(monkeypatch):
    # the benchmark's tracer patches solver internals by name; a renamed
    # or deleted target must fail here, not only under --trace 1
    monkeypatch.syspath_prepend(str(BENCHMARK))
    layers = importlib.import_module("layers")
    C = parse("x1 x2 X1 X2")
    with layers.traced(layers.Tracer()) as tr:
        assert wordproblem.word_problem(
            commutator(C, parse("x1 X2 X1 x2")), 2, 2)
        assert power.power_solve(C * C * C, C, 2, 3).k == 3
        res = conjugacy.conjugacy_solve(parse("x1 x2 x1"),
                                        parse("x2 x1 x1"), 2, 3)
        assert res.conjugate
    metrics = layers.layer_metrics(tr)
    for name in ("wordproblem.word_problem.calls", "power.power_solve.calls",
                 "power.member_of_cyclic.calls", "conjugacy.trace.calls"):
        assert metrics[name][0] > 0, name
    assert metrics["power.member_of_cyclic.calls"][0] == 1
