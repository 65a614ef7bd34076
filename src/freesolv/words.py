"""Words over the generators x1..xr and their free reduction.

A letter is a nonzero signed integer: +i stands for x_i, -i for x_i^{-1},
with |i| < 2^63.  Words are immutable and always kept freely reduced.  A
Word holds its letters in two representations: a tuple of Python ints,
letters, which the products, inverses and powers work on, and a read-only
int64 array, packed, which the solvers read with no conversion.  A Word
made from one of them builds the other on its first read:

- The public constructor (Word(...), free_reduce, parse) makes both: it
  packs the letters once and checks them on that array.
- A Word built from the tuples of other Words (Word._trusted(letters,
  ...): products, inverses, powers, prefixes) packs on the first read of
  packed.
- A Word built from packed letters (Word._trusted(None, rank, packed))
  makes its tuple on the first read of letters, and its len() reads the
  array.  The power solver joins its certificate u v^-q this way from the
  packed letters of u and v (_join, _join_power), and the word problem
  slices its cyclic core from the packed letters of its word, so neither
  makes a letter tuple.

The lazy tuple lives on a private subclass, _PackedWord, not on Word: a
__getattr__ fallback on Word itself slowed every plain read (timeit),
w.letters from 10.8 to 39.6 ns and len(w) from 80 to 114 ns, which the
many short words of conjugacy pay for.  Short words keep the tuple operators, since
numpy's fixed cost per call outweighs their letters.
"""

from __future__ import annotations

import re
import struct
import sys
from operator import neg
from typing import Iterable, Iterator

import numpy as np


class ParseError(ValueError):
    """Raised for malformed word text."""


class LengthGuardError(ValueError):
    """Input exceeds the configured length guard."""


def free_reduce(letters: Iterable[int]) -> "Word":
    """Freely reduce a sequence of signed letters.

    The result is the unique reduced form; reducing twice changes nothing.
    """
    return Word(letters)


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """The freely reduced letters, by one stack pass."""
    stack: list[int] = []
    for s in letters:
        s = int(s)
        if s == 0:  # two 0 letters would cancel before the packed check
            raise ValueError("letter 0 is not a generator")
        if stack and stack[-1] == -s:
            stack.pop()
        else:
            stack.append(s)
    return tuple(stack)


_TOO_LARGE = "letters must be integers of size below 2^63"


def _pack(letters: tuple[int, ...]) -> np.ndarray:
    """The letters as a read-only int64 array, in one C-level step."""
    try:
        raw = struct.pack(f"{len(letters)}q", *letters)
    except struct.error:
        raise ValueError(_TOO_LARGE) from None
    return np.frombuffer(raw, dtype=np.int64)


def concat_reduced(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two already-reduced letter tuples (junction cancellation)."""
    i, j = len(a), 0
    while i > 0 and j < len(b) and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def _join(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two reduced packed words, as a read-only int64 array.

    The cancelled length at the junction is where a's tail, read
    backwards, first differs from b's head negated: one vectorized
    compare, then one concatenate.  An empty factor gives the other back.
    """
    if not len(a):
        return b
    if not len(b):
        return a
    m = min(len(a), len(b))
    differ = a[::-1][:m] != -b[:m]
    k = int(differ.argmax())
    k = k if differ[k] else m
    out = np.concatenate((a[:len(a) - k], b[k:]))
    out.flags.writeable = False
    return out


def _join_power(a: np.ndarray, k: int) -> np.ndarray:
    """The reduced packed word a^k, by squaring with _join as Word.__pow__
    does with tuples; a need not be cyclically reduced, since _join
    cancels at every junction however far it reaches."""
    if k < 0:
        a, k = -a[::-1], -k
        a.flags.writeable = False
    out = a[:0]
    while k:
        if k & 1:
            out = _join(out, a)
        k >>= 1
        if k:
            a = _join(a, a)
    return out


class Word:
    """A freely reduced word, with the rank it is considered over.

    letters is the tuple of letters and packed the same letters as a
    read-only int64 array.  The constructor reduces the letters unless
    _reduced says they are reduced already, packs them (_pack), and checks
    them on the array: no letter 0, and the rank, by a C-level argmax
    and argmin.  Words made from valid Words (Word._trusted) skip all of that
    and build the missing representation on its first read.
    """

    __slots__ = ("letters", "rank", "_packed")

    letters: tuple[int, ...]
    rank: int

    def __init__(self, letters: Iterable[int] = (), rank: int | None = None,
                 _reduced: bool = False):
        letters = tuple(letters) if _reduced else _reduce(letters)
        packed = _pack(letters)
        need = 1
        if letters:
            # argmax and argmin take the least fixed cost per call
            hi, lo = letters[packed.argmax()], letters[packed.argmin()]
            if lo == -(1 << 63):  # x_i for i = 2^63 is no int64
                raise ValueError(_TOO_LARGE)
            if np.count_nonzero(packed) < len(letters):
                raise ValueError("letter 0 is not a generator")
            need = max(hi, -lo)
        if rank is None:
            rank = need
        elif rank < need:
            raise ValueError(f"rank {rank} too small for word using x{need}")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_packed", packed)

    @classmethod
    def _trusted(cls, letters: tuple[int, ...] | None, rank: int,
                 packed: np.ndarray | None = None) -> "Word":
        """A Word from a reduced letter tuple already valid for rank, and
        its packed letters when the caller has them; with letters None,
        a _PackedWord from the read-only packed letters alone.

        For results built from valid Words (products, inverses, powers,
        prefixes, certificates, cores): no reduction pass and no check of
        the letters.
        """
        if letters is None:
            w = object.__new__(_PackedWord)
        else:
            w = object.__new__(cls)
            object.__setattr__(w, "letters", letters)
        object.__setattr__(w, "rank", rank)
        if packed is not None:
            object.__setattr__(w, "_packed", packed)
        return w

    @property
    def packed(self) -> np.ndarray:
        """The letters as a read-only int64 array, packed on first read
        when the constructor did not pack them."""
        try:
            return self._packed
        except AttributeError:
            packed = _pack(self.letters)
            object.__setattr__(self, "_packed", packed)
            return packed

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        # pickle and copy rebuild the Word, since slot state cannot be set
        return Word, (self.letters, self.rank, True)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __hash__(self) -> int:
        return hash(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __mul__(self, other: "Word") -> "Word":
        # both factors are reduced, so cancellation is junction-only
        return Word._trusted(concat_reduced(self.letters, other.letters),
                             max(self.rank, other.rank))

    def __invert__(self) -> "Word":
        return Word._trusted(tuple(map(neg, reversed(self.letters))),
                             self.rank)

    def __pow__(self, k: int) -> "Word":
        # by squaring: the factors double in length, so this is linear
        # in |k| |self| where a product loop is quadratic
        if k < 0:
            return (~self) ** (-k)
        out, base = Word._trusted((), self.rank), self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def prefix(self, j: int) -> "Word":
        """Initial segment of length j (prefixes of a reduced word are reduced)."""
        return Word._trusted(self.letters[:j], self.rank)

    def serialize(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(f"x{s}" if s > 0 else f"X{-s}" for s in self.letters)

    def __repr__(self) -> str:
        return f"Word({self.serialize()!r})"


class _PackedWord(Word):
    """A Word built from its packed letters: the letter tuple is made on
    the first read of letters, and len() reads the array."""

    __slots__ = ()

    def __getattr__(self, name: str):
        # reached only while the letters slot is unset
        if name != "letters":
            raise AttributeError(name)
        letters = tuple(self._packed.tolist())
        object.__setattr__(self, "letters", letters)
        return letters

    def __len__(self) -> int:
        return len(self._packed)


def commutator(u: Word, v: Word) -> Word:
    return u * v * ~u * ~v


_TOKEN_RE = re.compile(r"^([xX])(\d+)(?:\^(-?\d+))?$")


def parse(text: str, r: int | None = None,
          max_len: int | None = None) -> Word:
    """Parse whitespace-separated tokens into a freely reduced Word.

    Tokens are "x<i>" / "X<i>" (X = inverse), optionally with "^<k>";
    single ascii letters a..z / A..Z map to x1..x26 and their inverses,
    and "1" is the empty word.  Exponents expand before reduction.  The
    letters are counted before a token expands: LengthGuardError when
    they reach max_len, the caller's guard (none by default), and
    ParseError when they pass what a list can hold.
    """
    if r is not None and r < 1:
        raise ParseError("rank must be >= 1")
    letters: list[int] = []
    for tok in text.split():
        if tok == "1":
            continue
        m = _TOKEN_RE.match(tok)
        if m:
            kind, idx_s, exp_s = m.groups()
            idx = int(idx_s)
            if idx == 0:
                raise ParseError(f"generator index 0 in token {tok!r}")
            s = idx if kind == "x" else -idx
            k = 1 if exp_s is None else int(exp_s)
            if k < 0:
                s, k = -s, -k
            if k and r is not None and idx > r:
                raise ParseError(f"generator x{idx} exceeds rank {r}")
            block = [s]
        elif tok.isalpha() and all(c.isascii() for c in tok):
            block = [ord(c) - ord("a") + 1 if c.islower()
                     else -(ord(c) - ord("A") + 1) for c in tok]
            k = 1
            for s in block:
                if r is not None and abs(s) > r:
                    raise ParseError(f"generator x{abs(s)} exceeds rank {r}")
        else:
            raise ParseError(f"malformed token {tok!r}")
        n = len(letters) + len(block) * k  # counted before it is built
        if max_len is not None and n >= max_len:
            raise LengthGuardError(
                f"{n} letters by token {tok!r} exceed guard {max_len}")
        if n > sys.maxsize:
            raise ParseError(f"exponent too large in token {tok!r}")
        letters += block * k
    try:
        return Word(letters, rank=r)
    except ValueError as exc:  # a letter of 2^63 or more
        raise ParseError(str(exc)) from None


def random_reduced_word(rng, length: int, r: int) -> Word:
    """Uniform non-backtracking walk: a random freely reduced word."""
    if length == 0:
        return Word((), rank=r, _reduced=True)
    letters = [rng.choice([s for s in range(-r, r + 1) if s != 0])]
    while len(letters) < length:
        banned = -letters[-1]
        choices = [s for s in range(-r, r + 1) if s != 0 and s != banned]
        letters.append(rng.choice(choices))
    return Word(tuple(letters), rank=r, _reduced=True)


def random_trivial_word(rng, r: int, d: int, conjugator_len: int = 3,
                        factors: int = 2) -> Word:
    """A nonempty product of conjugates of nested commutators lying in F^(d).

    Such words are trivial in S_{r,d} by construction.  Word length grows
    with conjugator_len and with d (roughly 4^d per factor).
    """
    if d < 1:
        raise ValueError("d must be >= 1 for a nontrivial construction")

    def nested(depth: int) -> Word:
        if depth == 0:
            w = random_reduced_word(rng, rng.randrange(1, 4), r)
            while len(w) == 0:
                w = random_reduced_word(rng, rng.randrange(1, 4), r)
            return w
        while True:
            c = commutator(nested(depth - 1), nested(depth - 1))
            if len(c) > 0:
                return c

    while True:
        out = Word((), rank=r, _reduced=True)
        for _ in range(factors):
            z = random_reduced_word(rng, rng.randrange(0, conjugator_len + 1), r)
            out = out * (z * nested(d) * ~z)
        if len(out) > 0:
            return out
