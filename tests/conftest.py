import random

import pytest

from freesolv import oracle
from freesolv.words import Word


def form_long(w: Word, r: int, d: int, chunk: int = 48):
    """Magnus form of a word of any length, folded over guard-sized chunks."""
    out = oracle.magnus_form(Word((), rank=r), r, d)
    for i in range(0, len(w), chunk):
        piece = Word(w.letters[i:i + chunk], rank=r, _reduced=True)
        out = oracle.multiply(out, oracle.magnus_form(piece, r, d))
    return out


def trivial_long(w: Word, r: int, d: int) -> bool:
    return form_long(w, r, d).is_identity()


def conjugation_verified(z: Word, x: Word, y: Word, r: int, d: int) -> bool:
    """Oracle check of z x z^-1 = y, tolerant of long witnesses."""
    fz = form_long(z, r, d)
    lhs = oracle.multiply(oracle.multiply(fz, form_long(x, r, d)),
                          oracle.inverse(fz))
    return lhs == form_long(y, r, d)


def letters_built(w: Word) -> bool:
    """Whether w holds its letter tuple, read from the slot alone, so that
    a Word built from packed letters does not build it to answer."""
    try:
        Word.letters.__get__(w)
    except AttributeError:
        return False
    return True


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
