import pytest
from hypothesis import given, strategies as st

from freesolv.words import ParseError, commutator, free_reduce, parse

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
