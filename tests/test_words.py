import copy
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import letters_built
from freesolv.words import (LengthGuardError, ParseError, Word, _join,
                            _join_power, commutator, free_reduce, parse)
from freesolv.wordproblem import _cyclic_core

letters = st.integers(min_value=-4, max_value=4).filter(lambda s: s != 0)


def test_parse_basic():
    w = parse("x1 x2 X1 X2")
    assert w.letters == (1, 2, -1, -2)
    assert len(w) == 4


def test_parse_cancellation():
    assert parse("x1 X1").letters == ()


def test_parse_figure_word():
    w = parse("x2 x1 x2 x1 x2 X1 x2^-3 X1")
    assert len(w) == 10
    assert w.letters == (2, 1, 2, 1, 2, -1, -2, -2, -2, -1)


def test_parse_exponents_expand_before_reduction():
    assert parse("x1^3 x1^-3").letters == ()
    assert parse("x1^0").letters == ()


def test_parse_compact_letters():
    assert parse("a b A B").letters == (1, 2, -1, -2)
    assert parse("abAB").letters == (1, 2, -1, -2)
    assert parse("1").letters == ()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("x0")
    with pytest.raises(ParseError):
        parse("x3", r=2)
    with pytest.raises(ParseError):
        parse("bogus~token")
    # a generator above r is an error even where reduction cancels it
    for text in ("x3", "x1 x3 X3", "x1 c", "x2 X3^-2"):
        with pytest.raises(ParseError, match="generator x3 exceeds rank 2"):
            parse(text, r=2)
    assert parse("x3^0 x1", r=2) == parse("x1")
    with pytest.raises(ParseError, match="rank must be >= 1"):
        parse("x1", r=0)
    with pytest.raises(ParseError, match="below 2\\^63"):
        parse(f"x{1 << 63}")


def test_parse_counts_letters_before_expanding():
    # the guard is checked on the count of letters before reduction, and a
    # token past it is never built
    huge = "x1^" + "1" * 31
    for text in (huge, "x1 x2^3000000", "x2 X1^-3000000"):
        tracemalloc.start()
        try:
            with pytest.raises(LengthGuardError, match="guard 100"):
                parse(text, max_len=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, text
    # compact letters count one each; the guard is reached, as a solver's is
    with pytest.raises(LengthGuardError):
        parse("abAB", max_len=4)
    assert parse("abAB", max_len=5).letters == (1, 2, -1, -2)
    assert parse("x1^3 x1^-3", max_len=7).letters == ()
    # with no guard, an exponent too large to expand is a parse error
    with pytest.raises(ParseError, match="exponent too large"):
        parse(huge)
    with pytest.raises(ParseError, match="exponent too large"):
        parse("x1^-" + "9" * 40, r=1)


def _certificate(u: Word, v: Word, q: int) -> Word:
    """u v^-q joined from the packed letters, as power_solve builds it."""
    return Word._trusted(None, max(u.rank, v.rank),
                         _join(u.packed, _join_power(v.packed, -q)))


def _packed_built_matches(w: Word, want: Word) -> None:
    """w, built from packed letters, is want without building its tuple
    until it is compared."""
    assert not letters_built(w)
    assert len(w) == len(want) and w.rank == want.rank
    assert not w.packed.flags.writeable
    assert not letters_built(w)
    assert hash(w) == hash(want) and w == want and want == w
    assert w.letters == want.letters and letters_built(w)


def test_words_pickle_and_copy():
    # built by the constructor, as a product, as a cyclic core (whose
    # packed letters are a slice of its word's), and from packed letters
    # alone: certificates u v^-q, with v not cyclically reduced, one that
    # cancels to the empty word, and a core of one
    u, v = Word((1, 2, -1), rank=3), Word((2, 1, 1, -2))
    made = [u, u * Word((2, 2)), _cyclic_core(Word((1, 2, 3, -1))),
            _certificate(u, v, -3), _certificate(v ** 2, v, 2),
            _cyclic_core(_certificate(Word((2, 1)), v, 1))]
    assert made[2].letters == (2, 3)
    assert made[3] == u * v ** 3 and made[4].letters == ()
    assert made[5].letters == (2, -1)
    for w in made:
        for back in (pickle.loads(pickle.dumps(w)), copy.copy(w),
                     copy.deepcopy(w)):
            assert type(back) is Word
            assert back == w and back.letters == w.letters
            assert back.rank == w.rank
            _packed_matches(back)
            with pytest.raises(AttributeError, match="immutable"):
                back.rank = 7


def test_parse_serialize_round_trip():
    for text in ("x1 x2 X1 X2", "1", "x2 x2 x1"):
        w = parse(text)
        assert parse(w.serialize()) == w


def test_free_reduce_examples():
    assert free_reduce([1, -1]).letters == ()
    assert free_reduce([1, 2, -2, 1]).letters == (1, 1)


@given(st.lists(letters, max_size=40))
def test_free_reduce_idempotent_and_clean(ls):
    w = free_reduce(ls)
    assert free_reduce(w.letters) == w
    for a, b in zip(w.letters, w.letters[1:]):
        assert a != -b


def test_word_algebra():
    u, v = parse("x1 x2"), parse("X2 x1")
    assert (u * v).letters == (1, 1)
    assert (~u).letters == (-2, -1)
    assert (u ** 0).letters == ()
    assert (u ** -2) == ~(u * u)
    assert commutator(parse("x1"), parse("x2")).letters == (1, 2, -1, -2)


def test_constructor_rejects_letters_it_cannot_pack():
    # a 0 letter is no generator, reduced or not, and a letter must have
    # size below 2^63, so that x_i and x_i^-1 both fit int64
    for letters in ((0,), (1, 0, 2), (1, 0, 0, 2)):
        for reduced in (True, False):
            with pytest.raises(ValueError, match="letter 0"):
                Word(letters, rank=2, _reduced=reduced)
    for big in (1 << 63, -(1 << 63), 1 << 70, -(1 << 70)):
        for reduced in (True, False):
            with pytest.raises(ValueError, match="below 2\\^63"):
                Word((1, big), _reduced=reduced)
    w = Word(((1 << 63) - 1, -((1 << 63) - 1)), _reduced=True)
    assert w.rank == (1 << 63) - 1


def _packed_matches(w: Word) -> None:
    p = w.packed
    assert p.dtype == np.int64
    assert not p.flags.writeable
    assert np.array_equal(p, np.array(w.letters, dtype=np.int64))
    assert w.packed is p  # packed once


@given(st.lists(letters, max_size=30), st.lists(letters, max_size=30),
       st.integers(-3, 3), st.data())
def test_every_word_carries_its_packed_letters(ls, ms, k, data):
    u, v = Word(ls), free_reduce(ms)
    made = [u, v, Word(u.letters, rank=4, _reduced=True),
            parse(u.serialize(), 4), u * v, ~u, u ** k,
            u.prefix(data.draw(st.integers(0, len(u)))), commutator(u, v),
            _cyclic_core(v * u * ~v), _cyclic_core(u)]
    # u v^-q joined from packed letters, with v not cyclically reduced and
    # u = v^q at times, where it cancels to the empty word, and its core
    z = free_reduce(data.draw(st.lists(letters, max_size=6)))
    y, q = z * v * ~z, data.draw(st.integers(-5, 5))
    x = y ** q if data.draw(st.booleans()) else u
    want = x * y ** -q
    cert = _certificate(x, y, q)
    core, letters_of = _cyclic_core(cert), list(want.letters)
    while len(letters_of) > 1 and letters_of[0] == -letters_of[-1]:
        letters_of = letters_of[1:-1]
    _packed_built_matches(core, Word(letters_of, rank=want.rank))
    if core is not cert:
        _packed_built_matches(cert, want)
    assert cert == want
    made += [cert, core]
    for w in made:
        _packed_matches(w)
    # a core sliced from a packed word shares its buffer
    g = v * u * ~v
    assert len(g.packed) == len(g)
    core = _cyclic_core(g)
    if len(core) < len(g):
        assert np.shares_memory(core.packed, g.packed)
