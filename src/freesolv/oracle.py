"""Slow-but-certain reference arithmetic for S_{r,d}.

Elements of S_{r,d} are represented by canonical recursive normal forms
built from the embedding of F/[N,N] into the group of matrices

    ( g  t )        g in F/N,  t in a free ZF/N-module of rank r,
    ( 0  1 )

equivalently the wreath product Z^r wr F/N.  Forms are hash-consed, so two
words are equal in S_{r,d} exactly when their forms are the same object.

Everything here is test infrastructure: exact, small-scale, and guarded
against large inputs rather than made fast.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Iterator

from .words import Word, commutator

MAX_WORD = 64
MAX_DEPTH = 4


class OracleLimitError(RuntimeError):
    """Input exceeds the oracle's desk-scale resource guard."""


class MagnusNF:
    """Canonical form of an element of S_{r,d}.

    depth 0: the unit marker (trivial group).
    depth 1: base is an exponent vector in Z^r.
    depth >= 2: base is the depth-(d-1) form of the F/N-image, module is a
    sorted tuple of (depth-(d-1) form, nonzero row in Z^r).
    """

    __slots__ = ("depth", "rank", "base", "module", "_key", "_hash", "_seq",
                 "__weakref__")

    def __init__(self, depth, rank, base, module, key, seq):
        self.depth = depth
        self.rank = rank
        self.base = base
        self.module = module
        self._key = key
        self._hash = hash(key)
        self._seq = seq  # interning order; an arbitrary stable total order

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, MagnusNF) and self._key == other._key

    def is_identity(self) -> bool:
        return self is _identity(self.rank, self.depth)

    def __repr__(self):
        if self.depth == 0:
            return "<1>"
        if self.depth == 1:
            return f"<{self.base}>"
        return f"<{self.base!r} | {len(self.module)} rows>"


# weak values: a form lives while something holds it, and a live form
# holds its base and module forms, so the _seq numbers in its key stay
# unique while the key is in the table; _seq never repeats
_intern: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_next_seq = itertools.count()


def _mk(depth: int, rank: int, base, module) -> MagnusNF:
    if depth >= 2:
        module = tuple(sorted(module, key=lambda kv: kv[0]._seq))
        key = (depth, rank, base._seq, tuple((g._seq, row) for g, row in module))
    else:
        key = (depth, rank, base)
    got = _intern.get(key)
    if got is None:
        got = MagnusNF(depth, rank, base, module, key, next(_next_seq))
        _intern[key] = got
    return got


def _identity(r: int, d: int) -> MagnusNF:
    if d == 0:
        return _mk(0, r, None, None)
    if d == 1:
        return _mk(1, r, (0,) * r, None)
    return _mk(d, r, _identity(r, d - 1), ())


def _row(r: int, i: int, c: int) -> tuple[int, ...]:
    return tuple(c if j == i else 0 for j in range(1, r + 1))


def _module_add(module, g: MagnusNF, row) -> tuple:
    """Add row at support point g, dropping zero rows."""
    out = dict(module)
    cur = out.get(g)
    new = tuple(a + b for a, b in zip(cur, row)) if cur else tuple(row)
    if any(new):
        out[g] = new
    elif g in out:
        del out[g]
    return tuple(out.items())


def _append_letter(form: MagnusNF, s: int) -> MagnusNF:
    """Right-multiply a form by the image of a single letter."""
    d, r = form.depth, form.rank
    if d == 0:
        return form
    if d == 1:
        i = abs(s)
        vec = list(form.base)
        vec[i - 1] += 1 if s > 0 else -1
        return _mk(1, r, tuple(vec), None)
    i = abs(s)
    if s > 0:
        module = _module_add(form.module, form.base, _row(r, i, 1))
        base = _append_letter(form.base, s)
    else:
        base = _append_letter(form.base, s)
        module = _module_add(form.module, base, _row(r, i, -1))
    return _mk(d, r, base, module)


def multiply(a: MagnusNF, b: MagnusNF) -> MagnusNF:
    """Wreath-product law (f, alpha)(g, beta) = (f + alpha.g, alpha beta)."""
    if a.depth != b.depth or a.rank != b.rank:
        raise ValueError("mismatched forms")
    d, r = a.depth, a.rank
    if d == 0:
        return a
    if d == 1:
        return _mk(1, r, tuple(x + y for x, y in zip(a.base, b.base)), None)
    module = a.module
    for g, row in b.module:
        module = _module_add(module, multiply(a.base, g), row)
    return _mk(d, r, multiply(a.base, b.base), module)


def inverse(a: MagnusNF) -> MagnusNF:
    d, r = a.depth, a.rank
    if d == 0:
        return a
    if d == 1:
        return _mk(1, r, tuple(-x for x in a.base), None)
    binv = inverse(a.base)
    module: tuple = ()
    for g, row in a.module:
        module = _module_add(module, multiply(binv, g),
                             tuple(-x for x in row))
    return _mk(d, r, binv, module)


def _guard(w: Word, d: int) -> None:
    if len(w) > MAX_WORD or d > MAX_DEPTH:
        raise OracleLimitError(
            f"oracle limited to |w| <= {MAX_WORD}, d <= {MAX_DEPTH} "
            f"(got |w|={len(w)}, d={d})")


def magnus_form(w: Word, r: int, d: int) -> MagnusNF:
    """Canonical form of w under the iterated Magnus embedding."""
    if d < 0:
        raise ValueError("d must be >= 0")
    _guard(w, d)
    if r < w.rank and any(abs(s) > r for s in w.letters):
        raise ValueError("word uses generators beyond rank r")
    form = _identity(r, d)
    for s in w.letters:
        form = _append_letter(form, s)
    return form


def is_trivial(w: Word, r: int, d: int) -> bool:
    return magnus_form(w, r, d).is_identity()


class GroupRingElement:
    """Finitely supported integer combination of S_{r,depth} elements."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[MagnusNF, int] | None = None):
        self.terms = {g: c for g, c in (terms or {}).items() if c != 0}

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out.get(g, 0) + c
        return GroupRingElement(out)

    def __neg__(self):
        return GroupRingElement({g: -c for g, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{g!r}" for g, c in
                          sorted(self.terms.items(), key=lambda kv: kv[0]._seq))


def fox_derivative(w: Word, i: int, r: int, depth: int) -> GroupRingElement:
    """Free partial derivative d(w)/d(x_i) in the group ring of S_{r,depth}.

    Positive occurrences of x_i contribute the prefix before the letter;
    negative occurrences contribute minus the prefix through the letter.
    """
    if not 1 <= i <= r:
        raise ValueError("generator index out of range")
    _guard(w, depth)
    terms: dict[MagnusNF, int] = {}
    prefix = _identity(r, depth)
    for s in w.letters:
        before = prefix
        prefix = _append_letter(prefix, s)
        if abs(s) == i:
            g = before if s > 0 else prefix
            c = 1 if s > 0 else -1
            terms[g] = terms.get(g, 0) + c
            if terms[g] == 0:
                del terms[g]
    return GroupRingElement(terms)


def fox_triviality(w: Word, r: int, d: int) -> bool:
    """True iff all r Fox derivatives vanish at depth d-1.

    By Fox's theorem this decides membership in [N, N] for N = F^(d-1),
    i.e. triviality in S_{r,d}; an oracle independent of magnus_form.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    _guard(w, d)
    return all(fox_derivative(w, i, r, d - 1).is_zero() for i in range(1, r + 1))


def reduced_words(r: int, max_len: int) -> Iterator[Word]:
    """All freely reduced words over x1..xr of length <= max_len."""
    yield Word((), rank=r, _reduced=True)
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        nxt = []
        for t in frontier:
            for s in range(-r, r + 1):
                if s == 0 or (t and t[-1] == -s):
                    continue
                nt = t + (s,)
                nxt.append(nt)
                yield Word(nt, rank=r, _reduced=True)
        frontier = nxt


def oracle_conjugate(x: Word, y: Word, r: int, d: int,
                     conjugator_bound: int = 3) -> str:
    """Bounded search for a conjugator: 'yes', 'no', or 'unknown'.

    'no' only from the abelianization invariant; 'yes' only with an explicit
    z of length <= conjugator_bound such that z x z^-1 = y in S_{r,d}.
    """
    if conjugator_bound < 0:
        raise ValueError("bound must be >= 0")
    if conjugator_bound > 6:
        raise OracleLimitError("conjugator bound limited to 6")
    if magnus_form(x, r, 1) != magnus_form(y, r, 1):
        return "no"
    fx = magnus_form(x, r, d)
    fy_inv = inverse(magnus_form(y, r, d))
    for z in reduced_words(r, conjugator_bound):
        fz = magnus_form(z, r, d)
        cand = multiply(multiply(fz, fx), inverse(fz))
        if multiply(cand, fy_inv).is_identity():
            return "yes"
    return "unknown"
