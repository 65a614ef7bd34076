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
and stays at most 2(|u| + |v|) letters however large |q| is.  The
certificate u v^-q is joined from the packed letters of u and v
(words._join, words._join_power), so it makes no letter tuple.  The word
problem decides on the certificate's cyclic core, which for u = v^q c is
a conjugate of c, sliced from the same packed letters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .words import Word, _join, _join_power, commutator
from .xdigraph import PrefixTree
from .wordproblem import (DEFAULT_MAX_LEN, LengthGuardError, SupportChain,
                          _dense_ids, _first_nontrivial_depth, word_problem)


@dataclass(frozen=True)
class PowerResult:
    k: int | None  # None means Fail

    @property
    def found(self) -> bool:
        return self.k is not None

    def __repr__(self):
        return f"Found({self.k})" if self.found else "Fail"


FAIL = PowerResult(None)


def _exponent_vectors(u: Word, v: Word) -> np.ndarray:
    """ab(u) and ab(v), rows of one int64 array, over the generators used.

    These are the flows of u and v on the depth-0 quotient graph, the
    bouquet of loops, in the (source class, generator) edge order of
    SupportChain.numbering_at.  _dense_ids numbers the G generators as it
    numbers those edges, so the cost follows |u| + |v|, not r.  One
    unweighted np.bincount of the joined packed letters counts each (word,
    sign, generator) at id gen + G [inverse] + 2 G [in v].
    """
    letters = np.concatenate((u.packed, v.packed))
    G, gen = _dense_ids(np.abs(letters) - 1, max(u.rank, v.rank))
    gen += G * (letters < 0)
    gen[len(u):] += 2 * G
    counts = np.bincount(gen, minlength=4 * G).reshape(2, 2, G)
    return counts[:, 0] - counts[:, 1]


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

    Deterministic mode is exact.  Monte Carlo mode numbers depth 1 by the
    exact code of the prefix abelianizations wherever it fits (always at
    r <= 2 while n = |u| + |v| < 2^29, see SupportChain._abelian_ids) and
    randomizes only the labels of depths 2..d-1 (triviality is read off
    flows, see _first_nontrivial_depth), so it is exact at d <= 2.  Its
    errors depend on the branch.  In the generic case q is exact and only
    the certificate's word problem is random, which is false-biased, so
    the one error is a Fail pair reported as Found(q).  When u or v lies
    in F', a probe reads a flow on a coarser quotient, where a nonzero
    flow is nonzero on the true graph, so it can only overstate a depth;
    that can give a wrong Found(1), Found(0) or Fail, and with the probes
    right only a Found can be wrong (a flow of v at s = t that vanishes
    on the coarser quotient counts as an overstated t, and gives Fail).
    Its anchors are uniform on [0, 2^b)^m, b = bits(B), so two distinct
    flows meet with probability at most 2^-b <= 1/(B + 1).  The probes'
    chain has at most n + 1 nodes and the certificate's at most 2n + 1:
    the certificate word u v^-q, or [u, v] when u v^-q would be longer,
    has at most 2n letters either way (it is joined from packed letters,
    see the module docstring).  An answer is
    wrong only when a random depth of one of them merges two nodes with
    distinct flows, so at any B with probability at most

      (d - 2) (C(n + 1, 2) + C(2n + 1, 2)) / (B + 1)
        = (d - 2) n (5n + 3) / (2 (B + 1)),

    below (d - 2) / (2n) at the default bound B = 9n^3.  Only depths
    below log3(2n) are refined, so at most log3(2n) - 2 of the d - 2 are
    reached; where the depth-1 code does not fit, depth 1 is random too
    and each d - 2 reads d - 1.  Edge ids keyed by the forms at the
    edges' sources merge two true edges only when those forms collide at
    the same generator, as labels of the forms would, so the bound holds
    as it did over labels.  Raises LengthGuardError when |u|+|v| >=
    max_len, like word_problem; the guard also keeps the packed (range,
    position) sort keys of the refinement engines far below 2^63.
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
    if np.count_nonzero(pu):
        if not np.count_nonzero(pv):
            return FAIL  # s = 0 < d, while t >= d or 0 < t < d
        s = 0
    else:
        # u = 1 or u in F', so s >= 1: probed on a support of u and v,
        # and so is t when v lies in F' too; u goes first, which fixes
        # the order in which Monte Carlo labels draw from rng
        s = d if len(u) == 0 else None
        t = 0 if np.count_nonzero(pv) else (d if len(v) == 0 else None)
        if s is None or t is None:
            tree = PrefixTree([u, v])
            chain = SupportChain(tree, mode=mode, rng=rng, cube_bound=B)
            # paths keeps insertion order: u's path first and v's last,
            # one path when u = v
            u_nodes, v_nodes = tree.paths[0], tree.paths[-1]
            if s is None:
                s = _first_nontrivial_depth(chain, u_nodes, len(u), d)
            if t is None:
                t = _first_nontrivial_depth(chain, v_nodes, len(v), d)
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
    nz = pv.nonzero()[0]
    if len(nz) == 0:
        # only a Monte Carlo flow at s >= 2 vanishes: v's probe stopped at
        # s by its length alone (3^(s+1) > |v|), and the coarser quotient
        # merged its flow to zero, as a probe that read it would have
        # overstated t; that probe would give s < t, a Fail
        return FAIL
    q = int(pu[nz[0]]) // int(pv[nz[0]])
    if np.count_nonzero(pu - q * pv):
        return FAIL
    if s == d - 1:
        # u, v lie in the abelian F^(d-1)/F^(d): [u, v] = 1, flows decide
        return PowerResult(q)
    # the shorter certificate: u v^-q = 1 is the claim itself, and [u, v]
    # = 1 implies it (Malcev) in at most 2n letters whatever |q| is
    if len(u) + abs(q) * len(v) <= 2 * n:
        check = Word._trusted(None, max(u.rank, v.rank),
                              _join(u.packed, _join_power(v.packed, -q)))
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
    conjugacy reuses one table across its many membership queries.  It
    keeps the k with g = y^k, or None (k = 0 is falsy: test `is None`).
    max_len guards |g| + |y| as in power_solve.
    """
    if memo is not None:
        key = (g.letters, y.letters, r, d)
        if key in memo:
            return memo[key] is not None
    k = power_solve(g, y, r, d, mode=mode, rng=rng, cube_bound=cube_bound,
                    max_len=max_len).k
    if memo is not None:
        memo[key] = k
    return k is not None
