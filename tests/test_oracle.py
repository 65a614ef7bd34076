import gc
import random

import pytest

from freesolv import oracle
from freesolv.words import Word, commutator, parse, random_reduced_word

C = commutator(parse("x1"), parse("x2"))
FIG1 = parse("x2 x1 x2 x1 x2 X1 x2^-3 X1")


def mono(text, r=2, d=1):
    return oracle.magnus_form(parse(text), r, d)


def test_commutator_forms():
    assert oracle.magnus_form(C, 2, 1).is_identity()
    assert not oracle.magnus_form(C, 2, 2).is_identity()


def test_group_laws_random():
    rng = random.Random(1)
    for _ in range(150):
        u = random_reduced_word(rng, rng.randrange(0, 8), 2)
        v = random_reduced_word(rng, rng.randrange(0, 8), 2)
        d = rng.choice([1, 2, 3])
        assert oracle.magnus_form(u * v, 2, d) == oracle.multiply(
            oracle.magnus_form(u, 2, d), oracle.magnus_form(v, 2, d))
        assert oracle.magnus_form(~u, 2, d) == oracle.inverse(
            oracle.magnus_form(u, 2, d))


def test_fox_derivative_figure1():
    d1 = oracle.fox_derivative(FIG1, 1, 2, 1)
    assert d1 == oracle.GroupRingElement({
        mono("1"): -1, mono("x2"): 1, mono("x1 x2^3"): -1, mono("x1 x2^2"): 1})
    # the printed caption misreads the third monomial; equation-evaluated
    # value is x1^2 x2^2
    d2 = oracle.fox_derivative(FIG1, 2, 2, 1)
    assert d2 == oracle.GroupRingElement({
        mono("1"): 1, mono("x1"): -1, mono("x1^2 x2^2"): 1, mono("x1 x2^2"): -1})


def test_fox_derivative_of_empty():
    assert oracle.fox_derivative(Word(()), 1, 2, 1).is_zero()


def test_fox_derivative_commutator():
    d1 = oracle.fox_derivative(C, 1, 2, 1)
    assert d1 == oracle.GroupRingElement({mono("1"): 1, mono("x2"): -1})


def test_fox_triviality():
    assert not oracle.fox_triviality(C, 2, 2)
    assert oracle.fox_triviality(Word(()), 2, 2)
    assert oracle.fox_triviality(C, 2, 1)
    big = commutator(C, commutator(parse("x3"), parse("x4")))
    assert oracle.fox_triviality(big, 4, 2)
    assert not oracle.fox_triviality(big, 4, 3)


def test_dual_oracle_agreement_small():
    for w in oracle.reduced_words(2, 5):
        for d in (1, 2):
            assert oracle.fox_triviality(w, 2, d) == oracle.is_trivial(w, 2, d)


def test_oracle_conjugate():
    assert oracle.oracle_conjugate(parse("x1 x2"), parse("x2 x1"), 2, 2, 1) == "yes"
    assert oracle.oracle_conjugate(parse("x1"), parse("x2"), 2, 2, 4) == "no"
    # matching abelianizations never produce "no"
    y = parse("x1") * commutator(parse("x2"), parse("x3"))
    assert oracle.oracle_conjugate(parse("x1"), y, 3, 2, 0) in ("yes", "unknown")


def test_resource_guards():
    with pytest.raises(oracle.OracleLimitError):
        oracle.magnus_form(Word((1,) * 65, rank=1), 1, 1)
    with pytest.raises(oracle.OracleLimitError):
        oracle.magnus_form(parse("x1"), 1, 5)
    with pytest.raises(oracle.OracleLimitError):
        oracle.oracle_conjugate(parse("x1"), parse("x1"), 1, 2, 7)


def test_reduced_words_enumeration():
    ws = list(oracle.reduced_words(2, 2))
    assert len(ws) == 1 + 4 + 12
    assert len(set(w.letters for w in ws)) == len(ws)


def test_intern_table_forgets_dropped_forms():
    # forms are interned weakly: once nothing holds them they leave the
    # table, and a form that is kept is still the one interning returns
    rng = random.Random(5)
    words = [random_reduced_word(rng, rng.randrange(0, 24), 2)
             for _ in range(2000)]
    gc.collect()
    before = len(oracle._intern)
    forms = [oracle.magnus_form(w, 2, 3) for w in words]
    assert len(oracle._intern) > before + 1000
    kept = forms[7]
    del forms
    gc.collect()
    assert oracle.magnus_form(words[7], 2, 3) is kept
    assert oracle.multiply(kept, oracle.inverse(kept)).is_identity()
    del kept
    gc.collect()
    assert len(oracle._intern) == before
