"""The power problem u = v^k in S_{r,d}, and cyclic-subgroup membership.

The algorithm compares triviality depths s, t of u and v (the largest
class where each dies, read no deeper than d), settles the degenerate
orderings outright, and in the remaining case s = t < d reads the only
possible exponent k off the flows of u and v at depth s.  Depth 0 costs
no support: on the bouquet of r loops the flows are the exponent vectors,
so s = 0 exactly when ab(u) != 0 and t = 0 exactly when ab(v) != 0, and
a generic pair has s = t = 0 with k their ratio.  Only when u or v lies
in F' is its depth probed, on a SupportChain of the prefix tree of u and
v: depth i by the flow on the depth-(i-1) quotient graph.  At s = d-1
both words lie in the abelian group F^(d-1)/F^(d), so the flows decide
alone.  For s < d-1 the exponent is certified by one word problem at
depth d: u = v^q holds exactly when u v^-q = 1, tested directly when
|u| + |q||v| <= 2(|u| + |v|), and otherwise through [u, v] = 1, which
with proportional flows implies u = v^q by Malcev's centralizer theorem
and stays at most 2(|u| + |v|) letters however large |q| is.  The word
problem decides on the certificate's cyclic core, which for u = v^q c is
a conjugate of c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .words import Word, commutator
from .xdigraph import PrefixTree, letter_array
from .wordproblem import (DEFAULT_MAX_LEN, LengthGuardError, SupportChain,
                          word_problem)


@dataclass(frozen=True)
class PowerResult:
    k: int | None  # None means Fail

    @property
    def found(self) -> bool:
        return self.k is not None

    def __repr__(self):
        return f"Found({self.k})" if self.found else "Fail"


FAIL = PowerResult(None)


def _log3_floor(n: int) -> int:
    if n < 1:
        return 0
    e = 0
    while 3 ** (e + 1) <= n:
        e += 1
    return e


def _first_nontrivial_depth(chain: SupportChain, path, length: int,
                            cap: int) -> int:
    """Largest s <= cap at which the word (given by its node path) is trivial.

    Depth i is tested by the word's flow on the depth-(i-1) quotient
    graph, so labels are built no deeper than cap - 1.
    """
    for i in range(1, cap + 1):
        if length and 3 ** i > length:
            # shorter than the shortest depth-i relator: nontrivial from here on
            return i - 1
        if chain.flow_vector(i - 1, path).any():
            return i - 1
    return cap


def _exponent_vectors(u: Word, v: Word) -> tuple[np.ndarray, np.ndarray]:
    """ab(u) and ab(v) over the generators that u and v use, in order.

    These are the flows of u and v on the depth-0 quotient graph, the
    bouquet of loops, in the (source class, generator) edge order of
    SupportChain.numbering_at.  One np.unique of the letters' generators
    numbers them, so the cost follows |u| + |v|, not r.
    """
    letters = letter_array(u.letters + v.letters)
    gens, gen = np.unique(np.abs(letters), return_inverse=True)
    signs = np.sign(letters)
    cut = len(u)
    return tuple(np.bincount(gen[part], weights=signs[part],
                             minlength=len(gens)).astype(np.int64)
                 for part in (slice(0, cut), slice(cut, None)))


def power_solve(u: Word, v: Word, r: int, d: int, mode: str = "det",
                rng=None, cube_bound: int | None = None,
                max_len: int = DEFAULT_MAX_LEN) -> PowerResult:
    """Find k with u = v^k in S_{r,d}, or Fail if there is none.

    Depth 0 is read off the exponent vectors: s = 0 exactly when ab(u) !=
    0, and t = 0 exactly when ab(v) != 0.  When both are nonzero, the
    generic case, no support is built: q is their ratio, and the only
    word problem is the certificate's.  A prefix tree of u and v with its
    SupportChain is built only when u or v lies in F' and its depth
    decides the answer.

    Deterministic mode is exact.  Monte Carlo mode randomizes only the
    labels of depths 1..d-1 (triviality is read off flows, see
    _first_nontrivial_depth), so it is exact at d = 1.  It is unbiased
    (errors both ways are possible) with success probability at least
    (1 - 1/(|u|+|v|))^(1 + log3(|u|+|v|)) at the default anchor cube
    [0, 9(|u|+|v|)^3]: the certificate word u v^-q, or [u, v] when u v^-q
    would be longer, has at most 2(|u|+|v|) letters either way.  Raises
    LengthGuardError when |u|+|v| >= max_len, like word_problem; the guard
    also keeps the packed (range, position) sort keys of the refinement
    engines far below 2^63.
    """
    if r < 1 or d < 0:
        raise ValueError("need r >= 1 and d >= 0")
    if max(u.rank, v.rank) > r:
        raise ValueError(f"word rank {max(u.rank, v.rank)} exceeds r = {r}")
    n = len(u) + len(v)
    if n >= max_len:
        raise LengthGuardError(f"|u|+|v| = {n} exceeds guard {max_len}")
    if n == 0 or d == 0:
        return PowerResult(1)  # d <= s, t: both words die everywhere
    B = None
    if mode == "mc":
        B = cube_bound if cube_bound is not None else 9 * n ** 3
    pu, pv = _exponent_vectors(u, v)
    if pu.any():
        if not pv.any():
            return FAIL  # s = 0 < d, while t >= d or 0 < t < d
        s = 0
    else:
        # u = 1 or u in F', so s >= 1: probed on a support of u and v,
        # and so is t when v lies in F' too; u goes first, which fixes
        # the order in which Monte Carlo labels draw from rng
        s = d if len(u) == 0 else None
        t = 0 if pv.any() else (d if len(v) == 0 else None)
        if s is None or t is None:
            D = min(d, 1 + _log3_floor(n))
            tree = PrefixTree([u, v])
            chain = SupportChain(tree, mode=mode, rng=rng, cube_bound=B)
            # paths keeps insertion order: u's path first and v's last,
            # one path when u = v
            u_nodes, v_nodes = tree.paths[0], tree.paths[-1]
            # below d the cap D never truncates a nonempty word's
            # triviality depth (|w| >= 3^s forces s <= log3 |w| < D)
            if s is None:
                s = _first_nontrivial_depth(chain, u_nodes, len(u), D)
            if t is None:
                t = _first_nontrivial_depth(chain, v_nodes, len(v), D)
        if d <= s and d <= t:
            return PowerResult(1)
        if t < d <= s:
            return PowerResult(0)
        if s != t:  # s < d <= t, s < t < d or t < s < d
            return FAIL
        pu = chain.flow_vector(s, u_nodes)
        pv = chain.flow_vector(s, v_nodes)
    # s = t < d: on the depth-s support both flows are circulations, and
    # u = v^k in S_{r,s+1} iff pi_u = k pi_v, so one nonzero edge of pi_v
    # pins k and the flows rule out every other candidate
    nz = np.flatnonzero(pv)
    if len(nz) == 0:
        raise AssertionError("pi_v = 0 would mean v = 1 at depth s+1")
    q = int(pu[nz[0]]) // int(pv[nz[0]])
    if not np.array_equal(pu, q * pv):
        return FAIL
    if s == d - 1:
        # u, v lie in the abelian F^(d-1)/F^(d): [u, v] = 1, flows decide
        return PowerResult(q)
    # the shorter certificate: u v^-q = 1 is the claim itself, and [u, v]
    # = 1 implies it (Malcev) in at most 2n letters whatever |q| is
    if len(u) + abs(q) * len(v) <= 2 * n:
        check = u * v ** -q
    else:
        check = commutator(u, v)
    if not word_problem(check, r, d, mode=mode, rng=rng,
                        cube_bound=B, max_len=2 * max_len):
        return FAIL
    return PowerResult(q)


def member_of_cyclic(g: Word, y: Word, r: int, d: int, mode: str = "det",
                     rng=None, cube_bound: int | None = None,
                     memo: dict | None = None,
                     max_len: int = DEFAULT_MAX_LEN) -> bool:
    """Is g in the cyclic subgroup <y> of S_{r,d}?

    Results are memoized on the freely reduced g when a table is passed;
    conjugacy reuses one table across its many membership queries.
    max_len guards |g| + |y| as in power_solve.
    """
    if memo is not None:
        key = (g.letters, y.letters, r, d)
        hit = memo.get(key)
        if hit is not None:
            return hit
    res = power_solve(g, y, r, d, mode=mode, rng=rng,
                      cube_bound=cube_bound, max_len=max_len).found
    if memo is not None:
        memo[key] = res
    return res
