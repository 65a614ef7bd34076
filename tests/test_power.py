import hashlib
import itertools
import random
import tracemalloc
from math import comb, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import form_long, letters_built, trivial_long
from freesolv import oracle, power, wordproblem, words
from freesolv.power import FAIL, PowerResult, member_of_cyclic, power_solve
from freesolv.wordproblem import LengthGuardError, SupportChain, word_problem
from freesolv.words import Word, commutator, parse, random_reduced_word, \
    random_trivial_word
from freesolv.xdigraph import PrefixTree

C = commutator(parse("x1"), parse("x2"))
BIG = commutator(commutator(parse("x1"), parse("x2")),
                 commutator(parse("x3"), parse("x4")))


def test_examples():
    assert power_solve(parse("x1^6"), parse("x1^2"), 2, 1) == PowerResult(3)
    assert power_solve(parse("x1"), parse("x2"), 2, 1) == FAIL
    assert power_solve(Word(()), parse("x1"), 2, 1) == PowerResult(0)
    assert power_solve(C * C, C, 2, 2) == PowerResult(2)
    assert power_solve(C, ~C, 2, 2) == PowerResult(-1)
    assert power_solve(Word(()), Word(()), 2, 2) == PowerResult(1)


def triviality_depth(w, r, cap):
    """Largest s <= cap with w = 1 in S_{r,s}, from the power solver's
    depth probe; the empty word reports cap."""
    assert w.rank <= r
    tree = PrefixTree([w])
    (path,) = tree.paths
    return power._first_nontrivial_depth(SupportChain(tree), path, len(w), cap)


def test_triviality_depth_examples():
    assert triviality_depth(parse("x1"), 2, 3) == 0
    assert triviality_depth(C, 2, 3) == 1
    assert triviality_depth(BIG, 4, 3) == 2
    assert triviality_depth(Word(()), 2, 3) == 3
    assert not oracle.is_trivial(BIG, 4, 3)


def test_found_k_bounded_by_u(rng):
    for _ in range(100):
        v = random_reduced_word(rng, rng.randrange(1, 5), 2)
        k = rng.randrange(-4, 5)
        u = v ** k
        res = power_solve(u, v, 2, 2)
        assert res.found
        if not oracle.is_trivial(v, 2, 2):
            assert abs(res.k) <= max(1, len(u))


def test_soundness_on_powers(rng):
    for _ in range(200):
        v = random_reduced_word(rng, rng.randrange(1, 7), 2)
        k = rng.randrange(-5, 6)
        u = v ** k
        res = power_solve(u, v, 2, 2)
        assert res.found
        assert oracle.magnus_form(u, 2, 2) == \
            oracle.magnus_form(v ** res.k, 2, 2)


def test_completeness_on_random_pairs(rng):
    for _ in range(200):
        u = random_reduced_word(rng, rng.randrange(0, 9), 2)
        v = random_reduced_word(rng, rng.randrange(0, 9), 2)
        res = power_solve(u, v, 2, 2)
        fu = oracle.magnus_form(u, 2, 2)
        truth = None
        for k in range(-(len(u) + 1), len(u) + 2):
            if len(v) * abs(k) <= 64 and \
                    oracle.magnus_form(v ** k, 2, 2) == fu:
                truth = k
                break
        assert res.found == (truth is not None), \
            (u.serialize(), v.serialize(), res, truth)


def test_depth_case_split():
    # u trivial deeper than v: u = v^0 demands v nontrivial at depth d
    assert power_solve(C, parse("x1"), 2, 1) == PowerResult(0)
    # u nontrivial where v is trivial: no power works
    assert power_solve(parse("x1"), C, 2, 1) == FAIL
    assert power_solve(parse("x1"), Word(()), 2, 2) == FAIL
    assert power_solve(C, Word(()), 2, 1) == PowerResult(1)


def test_member_of_cyclic(monkeypatch):
    y = parse("x1 x2")
    assert member_of_cyclic(y * y, y, 2, 2)
    assert member_of_cyclic(Word(()), y, 2, 2)
    assert not member_of_cyclic(parse("x1"), y, 2, 2)
    # the memo keeps the exponent k with g = y^k, or None for a non-member
    memo = {}
    assert member_of_cyclic(~y, y, 2, 2, memo=memo)
    assert memo[((~y).letters, y.letters, 2, 2)] == -1
    assert not member_of_cyclic(parse("x1"), y, 2, 2, memo=memo)
    assert memo[(parse("x1").letters, y.letters, 2, 2)] is None
    calls = []
    solve = power.power_solve
    monkeypatch.setattr(power, "power_solve",
                        lambda *a, **k: calls.append(a) or solve(*a, **k))
    assert member_of_cyclic(~y, y, 2, 2, memo=memo)
    assert not member_of_cyclic(parse("x1"), y, 2, 2, memo=memo)
    assert not calls  # repeats are answered from the memo


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("B", [0, 1, 10])
def test_mc_generic_errs_only_by_found(d, B):
    # with ab(u) and ab(v) both nonzero, q is exact and only the
    # certificate's word problem is random, and that is false-biased: a
    # pair u = v^k comes back Found(k) at any cube bound, and the one error
    # is a Fail pair u c (c in F^(d-1), kept when the exact answer is Fail)
    # reported as Found(q).  At d = 2 the certificate's only refined
    # depth, 1, takes the exact code, so every answer is exact at any B;
    # at d = 3 and B = 0 every depth-2 label merges, so each one errs
    g = random.Random(100 * d + B)
    found = wrong = 0
    for _ in range(25):
        v = random_reduced_word(g, g.randrange(2, 8), 2)
        if not any(power._exponent_vectors(v, v)[0]):
            continue
        k = g.choice([-3, -2, -1, 1, 2, 3])
        u = v ** k * random_trivial_word(g, 2, d, conjugator_len=2,
                                         factors=1)
        bad = u * random_trivial_word(g, 2, d - 1, conjugator_len=2,
                                      factors=1)
        assert power_solve(u, v, 2, d).k == k
        if power_solve(bad, v, 2, d).found:
            continue
        for seed in range(5):
            found += 1
            assert power_solve(u, v, 2, d, mode="mc", rng=random.Random(seed),
                               cube_bound=B).k == k
            res = power_solve(bad, v, 2, d, mode="mc",
                              rng=random.Random(seed), cube_bound=B)
            assert res in (FAIL, PowerResult(k))
            wrong += res.found
    assert found > 100
    if d == 2:
        assert wrong == 0
    elif B == 0:
        assert wrong == found


def _mc_power_families(g, d):
    """(family, u, v) pairs at depth d, four kinds in turn: ab(u) and
    ab(v) nonzero (the generic branch); u in F' with v generic; and u, v
    in F', v in F' or in F^(d-1), so that s = t = 1 or s = t = d - 1.
    u differs from v^k by a word of F^(d-1) or F^(d), or lies in F^(j),
    so about half the pairs are Fail pairs."""
    i = 0
    while True:
        i += 1
        k = g.choice([-2, -1, 1, 2])
        if i % 4 < 2:  # v generic
            v = random_reduced_word(g, g.randrange(2, 6), 2)
            if not power._exponent_vectors(v, v)[0].any():
                continue
            if i % 4 == 0:
                yield "generic", v ** k * random_trivial_word(
                    g, 2, d - g.randrange(2), conjugator_len=1,
                    factors=1), v
            else:
                yield "u in F'", random_trivial_word(
                    g, 2, g.randrange(1, d + 1), conjugator_len=1,
                    factors=1), v
        else:
            level = 1 if i % 4 == 2 else d - 1
            v = random_trivial_word(g, 2, level, conjugator_len=1, factors=1)
            yield "both in F'", v ** k * random_trivial_word(
                g, 2, g.randrange(level, d + 1), conjugator_len=1,
                factors=1), v


def _probe_depths(u, v, d, mode, seed=0, B=None):
    """The triviality depths (s, t) that power_solve reads for u and v of
    F', from a chain with its mode and seed, which draws the anchors in
    the order the solver does.  When t = s < d and v's flow at s vanishes
    on the Monte Carlo quotient, t reads d + 1: the solver counts that as
    an overstated t."""
    tree = PrefixTree([u, v])
    chain = SupportChain(tree, mode, rng=random.Random(seed), cube_bound=B)
    u_path, v_path = tree.paths[0], tree.paths[-1]
    s = power._first_nontrivial_depth(chain, u_path, len(u), d)
    t = power._first_nontrivial_depth(chain, v_path, len(v), d)
    if s == t < d:
        chain.flow_vector(s, u_path)
        if not chain.flow_vector(s, v_path).any():
            t = d + 1
    return s, t


@pytest.mark.parametrize("B", [1, 30000])
def test_mc_power_error_rate_within_union_bound(B):
    # 2,000 seeded Monte Carlo calls at d = 3, where only depth 2 is
    # random, on pairs that reach each branch (_mc_power_families).  The
    # probes' chain has at most n + 1 nodes and the certificate's at most
    # 2n + 1, n = |u| + |v|, so a call errs with probability at most
    # (d - 2) (C(n + 1, 2) + C(2n + 1, 2)) / (B + 1); the share of wrong
    # answers stays within the mean of that bound plus three binomial
    # standard deviations wherever the bound is below 1.  Every wrong
    # answer is of a kind the docstring allows: in the generic branch a
    # Fail pair reported as Found(q), q the ratio of the exponent vectors;
    # with u in F' and v generic, a Fail pair reported as Found(0); with
    # both in F', a probe that overstates a depth (they never understate
    # one) or else a wrong Found.  At B = 1 every family errs
    d = 3
    g = random.Random(d)
    families = _mc_power_families(g, d)
    calls = 0
    wrong = {"generic": 0, "u in F'": 0, "both in F'": 0}
    bound = 0.0
    while calls < 2000:
        family, u, v = next(families)
        exact = power_solve(u, v, 2, d)
        n = len(u) + len(v)
        if family == "both in F'":
            s, t = _probe_depths(u, v, d, "det")
        for _ in range(10):
            calls += 1
            bound += (d - 2) * (comb(n + 1, 2) + comb(2 * n + 1, 2)) / (B + 1)
            res = power_solve(u, v, 2, d, mode="mc", rng=random.Random(calls),
                              cube_bound=B)
            if family == "both in F'":
                s2, t2 = _probe_depths(u, v, d, "mc", calls, B)
                assert s2 >= s and t2 >= t, (s, t, s2, t2)
                if res != exact:
                    assert res.found or (s2, t2) != (s, t)
            elif res != exact:
                pu, pv = power._exponent_vectors(u, v)
                nz = np.flatnonzero(pv)[0]
                q = int(pu[nz]) // int(pv[nz]) if family == "generic" else 0
                assert exact == FAIL and res == PowerResult(q), family
            wrong[family] += res != exact
    p = bound / calls
    if p < 1:
        assert sum(wrong.values()) / calls <= \
            p + 3 * sqrt(p * (1 - p) / calls), (wrong, p)
    if B == 1:
        assert all(wrong.values()), wrong


def test_mc_vanishing_flow_of_v_gives_fail():
    # v lies in F'' and its probe stops at t = 2 by its length alone (20 <
    # 27 letters); at B = 1 the depth-2 quotient that seed 252 draws reads
    # u's flow as nonzero, so s = t = 2, and merges v's flow to zero.  The
    # solve counts that as an overstated t and answers Fail, the exact
    # answer here, instead of dividing by a zero flow
    u = parse("x1 x2 X1 X1 X2 x1 x1 x1 x2 X1 X2 X1 X1 x2 x1 x1 x1 X2 X1 x2 "
              "X1 x2 x2 x2 x1 X2 x1 X2 X1 X2 X2 x1 x2 X1 x2 x1 x2 X1 x2 X1 "
              "X2 X2 X2 x1 x1 X2 X1 X1")
    v = parse("x1 x1 x2 X1 X1 X1 X2 x1 x1 x2 x1 X2 X1 X1 X1 x2 x1 x1 X2 X1")
    assert _probe_depths(u, v, 3, "det") == (2, 2)
    assert _probe_depths(u, v, 3, "mc", 252, 1) == (2, 4)
    assert power_solve(u, v, 2, 3) == FAIL
    assert power_solve(u, v, 2, 3, mode="mc", rng=random.Random(252),
                       cube_bound=1) == FAIL


def test_mc_agreement(rng):
    agree = 0
    for trial in range(150):
        u = random_reduced_word(rng, 20, 2)
        v = random_reduced_word(rng, 10, 2)
        det = power_solve(u, v, 2, 2)
        mc = power_solve(u, v, 2, 2, mode="mc", rng=random.Random(trial))
        agree += (det == mc)
    n = 30  # |u|+|v|
    # Thm-level bound (1 - 1/n)^(1 + log3 n): about 0.87 at n = 30
    assert agree / 150 >= 0.87


def test_mc_on_power_instances(rng):
    hits = 0
    for trial in range(100):
        v = random_reduced_word(rng, 8, 2)
        u = v ** 3
        res = power_solve(u, v, 2, 2, mode="mc", rng=random.Random(trial))
        hits += (res == PowerResult(3))
    assert hits >= 90


def _module_ratio(u: Word, v: Word, r: int, d: int) -> int | None:
    """The m with u = v^m in S_{r,d}, for u, v in F^(d-1) and v != 1 there.

    Their Magnus forms have trivial base, and the module parts add up under
    multiplication (F^(d-1)/F^(d) is free abelian), so m is a ratio of
    module rows, or there is none.
    """
    fu, fv = form_long(u, r, d), form_long(v, r, d)
    assert fu.base.is_identity() and fv.base.is_identity()
    mu, mv = dict(fu.module), dict(fv.module)
    g, row = next(iter(mv.items()))
    i = next(j for j, c in enumerate(row) if c)
    m, rem = divmod(mu.get(g, (0,) * r)[i], row[i])
    scaled = {h: tuple(m * c for c in rw) for h, rw in mv.items() if m}
    return m if not rem and scaled == mu else None


def test_probes_stop_at_d_and_top_layer_needs_no_commutator(monkeypatch, rng):
    built = []
    labels_at = SupportChain.labels_at

    def spy(self, depth):
        built.append(depth)
        return labels_at(self, depth)

    def no_check(*args, **kwargs):
        raise AssertionError("commutator check ran inside F^(d-1)/F^(d)")

    monkeypatch.setattr(SupportChain, "labels_at", spy)
    # words of F^(d) long enough (>= 3^(d+1) letters) for a probe at d+1
    for d in (1, 2):
        for _ in range(6):
            w = random_trivial_word(rng, 2, d)
            while len(w) < 3 ** (d + 1):
                w = w * random_trivial_word(rng, 2, d)
            v = random_reduced_word(rng, rng.randrange(1, 9), 2)
            for a, b, want in ((w, v, PowerResult(0)), (v, w, FAIL),
                               (w, w * w, PowerResult(1))):
                built.clear()
                assert power_solve(a, b, 2, d) == want
                assert max(built, default=0) <= d, (d, len(w))

    # s = t = d-1: v = c and u = c^k c' with c, c' in F^(d-1)
    monkeypatch.setattr(power, "word_problem", no_check)
    outcomes = set()
    for d in (2, 3):
        for trial in range(12):
            c = random_trivial_word(rng, 2, d - 1, conjugator_len=1,
                                    factors=1)
            if trivial_long(c, 2, d):
                continue
            k = rng.randrange(-2, 3)
            kind = trial % 3
            if kind == 0:  # c' in F^(d): u = c^k
                c2 = random_trivial_word(rng, 2, d, conjugator_len=1,
                                         factors=1)
            elif kind == 1:  # c' a power of c
                c2 = c ** rng.randrange(-2, 3)
            else:  # generic c'
                c2 = random_trivial_word(rng, 2, d - 1, conjugator_len=1,
                                         factors=1)
            u = c ** k * c2
            built.clear()
            res = power_solve(u, c, 2, d)
            assert max(built, default=0) <= d
            assert res.k == _module_ratio(u, c, 2, d), (d, trial)
            if res.found:
                assert trivial_long(u * c ** -res.k, 2, d)
            else:
                assert not trivial_long(u * c ** -k, 2, d)
            outcomes.add((d, res.found))
    assert outcomes == {(2, True), (2, False), (3, True), (3, False)}


def test_no_support_outside_the_certificate_when_both_abelianizations_are_nonzero(
        monkeypatch, rng):
    # ab(u), ab(v) != 0: s = t = 0 is read off the exponent vectors, so no
    # PrefixTree or SupportChain is built outside the certificate check,
    # and flows that are not proportional settle Fail without the check
    built, checks, running = [], [], []
    word_problem = power.word_problem

    def spy_init(cls):
        init = cls.__init__

        def spied(self, *args, **kwargs):
            if not running:
                built.append(cls.__name__)
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", spied)

    def check(*args, **kwargs):
        checks.append(args[0])
        running.append(True)
        try:
            return word_problem(*args, **kwargs)
        finally:
            running.pop()

    spy_init(PrefixTree)
    spy_init(SupportChain)
    monkeypatch.setattr(power, "word_problem", check)
    cases = 0
    while cases < 30:
        is_power = cases % 2 == 1
        v = random_reduced_word(rng, rng.randrange(1, 40), 2)
        u = (v ** rng.choice((-3, -1, 2, 5)) if is_power
             else random_reduced_word(rng, rng.randrange(1, 60), 2))
        ab_u, ab_v = _abelianization(u, 2), _abelianization(v, 2)
        if not any(ab_u) or not any(ab_v):
            continue
        cases += 1
        proportional = any(ab_u == [q * x for x in ab_v]
                           for q in range(-len(u), len(u) + 1))
        det = power_solve(u, v, 2, 2)
        for mode in ("det", "mc"):
            built.clear()
            checks.clear()
            assert power_solve(u, v, 2, 2, mode=mode,
                               rng=random.Random(cases)) == det
            assert built == [], (mode, u, v)
            assert len(checks) == proportional, (mode, u, v)
        assert proportional or not det.found
        assert proportional or not is_power
    # a word of F' needs its depth: the support is built then
    built.clear()
    assert power_solve(C, parse("x1"), 2, 2) == FAIL
    assert built == ["PrefixTree", "SupportChain"]


def test_length_guard():
    u, v = parse("x1 x2 x1"), parse("x1")
    with pytest.raises(LengthGuardError):
        power_solve(u, v, 2, 2, max_len=4)
    assert power_solve(u, v, 2, 2, max_len=5) == FAIL
    assert power_solve(v ** 3, v, 2, 2, max_len=5) == PowerResult(3)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-4, 4),
       in_derived=st.booleans())
def test_power_of_v_gives_back_k_property(seed, k, in_derived):
    # v is nonempty and shorter than 3^2, so nontrivial in S_{2,2}; v in
    # F' takes the abelian top layer, a generic v the commutator check
    g = random.Random(seed)
    if in_derived:
        v = commutator(random_reduced_word(g, 1, 2),
                       random_reduced_word(g, 1, 2))
    else:
        v = random_reduced_word(g, g.randrange(1, 7), 2)
    if len(v) == 0:
        v = parse("x1")
    assert power_solve(v ** k, v, 2, 2) == PowerResult(k)


def _abelianization(w: Word, r: int) -> list[int]:
    return [sum(1 if s > 0 else -1 for s in w.letters if abs(s) == i)
            for i in range(1, r + 1)]


def _spy_checks(monkeypatch):
    checks = []
    word_problem = power.word_problem

    def spy(w, *args, **kwargs):
        checks.append(w)
        return word_problem(w, *args, **kwargs)

    monkeypatch.setattr(power, "word_problem", spy)
    return checks


def test_certificate_is_the_shorter_word(monkeypatch, rng):
    # ab(v) != 0, so s = t = 0 below d-1 and q is the ratio of the
    # abelianizations; the check word is u v^-q when |u| + |q||v| <=
    # 2(|u| + |v|), else [u, v]
    checks = _spy_checks(monkeypatch)
    seen = set()
    for trial in range(60):
        d = 2 + trial % 2
        x = random_reduced_word(rng, rng.randrange(1, 6), 2)
        if not any(_abelianization(x, 2)):
            continue
        if trial % 3 == 0:  # v = c x with c long in F^(d), u = x^3
            v = random_trivial_word(rng, 2, d) * x
            u = x ** 3 * random_trivial_word(rng, 2, d - 1 + trial % 2,
                                             conjugator_len=1, factors=1)
        else:
            v = x
            u = v ** rng.choice((-3, -2, 1, 2, 4)) * \
                random_trivial_word(rng, 2, d - trial % 3 + 1)
        ab_u, ab_v = _abelianization(u, 2), _abelianization(v, 2)
        i = next(j for j, a in enumerate(ab_v) if a)
        q = ab_u[i] // ab_v[i]
        assert ab_u == [q * a for a in ab_v]
        checks.clear()
        res = power_solve(u, v, 2, d)
        short = len(u) + abs(q) * len(v) <= 2 * (len(u) + len(v))
        assert checks == [u * v ** -q if short else commutator(u, v)], trial
        assert res.found == trivial_long(u * v ** -q, 2, d), trial
        seen.add((short, res.found))
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


def test_commutator_branch_known_answers(monkeypatch, rng):
    # v = c x1 with c a long word of F^(d) is x1 in S_{r,d}, so u = x1^5
    # is v^5; u = x1^5 t with t in F^(d-1) nontrivial there is no power
    # of v.  Both take the [u, v] certificate: 5|v| > |u| + 2|v|
    checks = _spy_checks(monkeypatch)
    X1 = parse("x1")
    for d in (2, 3):
        found = failed = 0
        for _ in range(4):
            c = random_trivial_word(rng, 2, d)
            while len(c) < 30:
                c = c * random_trivial_word(rng, 2, d)
            v = c * X1
            t = random_trivial_word(rng, 2, d - 1, conjugator_len=1,
                                    factors=1)
            for u in (X1 ** 5, X1 ** 5 * t):
                assert len(u) + 5 * len(v) > 2 * (len(u) + len(v))
                checks.clear()
                res = power_solve(u, v, 2, d)
                assert checks == [commutator(u, v)]
                if trivial_long(u * v ** -5, 2, d):
                    assert res == PowerResult(5), (d, u)
                    found += 1
                else:
                    assert res == FAIL, (d, u)
                    failed += 1
        assert found == 4 and failed == 4, d


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-3, 3))
def test_power_at_depth3_property(seed, k):
    # v^k c is v^k in S_{2,3} for c in F^(3); for c' in F^(2) nontrivial
    # there, v^k c' is no power of v, as v is outside F'
    g = random.Random(seed)
    v = random_reduced_word(g, g.randrange(1, 9), 2)
    while not any(_abelianization(v, 2)):
        v = random_reduced_word(g, g.randrange(1, 9), 2)
    c = random_trivial_word(g, 2, 3, conjugator_len=1, factors=1)
    assert power_solve(v ** k * c, v, 2, 3) == PowerResult(k)
    c2 = random_trivial_word(g, 2, 2, conjugator_len=1, factors=1)
    if not trivial_long(c2, 2, 3):
        assert power_solve(v ** k * c2, v, 2, 3) == FAIL


def _digest_pairs(count: int):
    """Seeded (u, v, d), d = 1..3: v with ab(v) zero or not in turn; u
    independent of v (ab(u) zero or not in turn) or v^k c with c in
    F^(e), 1 <= e <= d + 1, so Found and Fail answers at every depth."""
    rng = random.Random(14071691)

    def word(in_derived):
        if in_derived:
            return random_trivial_word(rng, 2, 1, conjugator_len=2,
                                       factors=1)
        while True:
            w = random_reduced_word(rng, rng.randrange(1, 9), 2)
            if any(_abelianization(w, 2)):
                return w

    for i in range(count):
        d = 1 + i % 3
        v = word(i // 3 % 2)
        if i // 6 % 2:
            u = word(i // 12 % 2)
        else:
            c = random_trivial_word(rng, 2, rng.randrange(1, d + 2),
                                    conjugator_len=1, factors=1)
            u = v ** rng.randrange(-2, 3) * c
        yield u, v, d


def test_det_answers_are_pinned():
    # the digest was taken with every depth probed on a support and every
    # certificate decided whole, so the shortcuts keep each answer
    out, kinds = [], set()
    for u, v, d in _digest_pairs(3000):
        res = power_solve(u, v, 2, d)
        out.append((d, res.k))
        kinds.add((any(_abelianization(u, 2)), any(_abelianization(v, 2)),
                   d, res.found))
    # every (ab(u) != 0, ab(v) != 0, d, found) but the impossible: Found
    # when ab(u) != 0 = ab(v), and Fail at d = 1 for u in F'
    assert kinds == {(au, av, d, found)
                     for au, av, d, found in itertools.product(
                         (False, True), (False, True), (1, 2, 3),
                         (False, True))
                     if not (au and not av and found)
                     and not (d == 1 and not au and not found)}
    assert hashlib.sha256(repr(out).encode()).hexdigest() == \
        "8f9d4762b398dc03a639d23f4d61b4afe03c57fdbc07951c3a00e2f817f466ce"


def test_exponent_vectors_are_the_same_counted_or_sorted(monkeypatch):
    # the generators are numbered by counting while they are dense and by
    # _dense_rank past wordproblem._SLOTS_PER_NODE slots per letter; both
    # give ab(u) and ab(v) over the generators used, in order
    def vectors(slots_per_letter, u, v):
        monkeypatch.setattr(wordproblem, "_SLOTS_PER_NODE", slots_per_letter)
        return [x.tolist() for x in power._exponent_vectors(u, v)]

    g = random.Random(9)
    for r in (1, 2, 5, 300, 2 ** 40):
        top = min(r, 6)
        pairs = [(random_reduced_word(g, g.randrange(0, 30), top),
                  random_reduced_word(g, g.randrange(0, 30), top))
                 for _ in range(8)]
        # what a count by signed ids can get wrong: an empty word, a word
        # of inverse letters only, and a generator that only v uses, the
        # first or the last of those used
        a, e = random_reduced_word(random.Random(r), 12, top), Word(())
        inverse = Word([-top, -1] * 3)
        pairs += [(e, a), (a, e), (e, e), (inverse, a), (a, inverse),
                  (Word([top] * 2), Word([1, -top])),
                  (Word([1, 1]), Word([-1, top] * 2))]
        for u, v in pairs:
            u, v = (Word([s * (r // top) for s in w.letters], rank=r)
                    for w in (u, v))
            used = sorted({abs(s) for s in u.letters + v.letters})
            want = [[sum((s > 0) - (s < 0) for s in w.letters if abs(s) == i)
                     for i in used] for w in (u, v)]
            assert vectors(0, u, v) == want, r
            assert vectors(10 ** 9, u, v) == want, r


def test_power_memory_does_not_grow_with_rank():
    # words in x1 and x2000000 only: exponent vectors over the generators
    # used, and a support only when a word lies in F'
    R = 2000000
    y = Word((1, R), rank=R)
    c = commutator(Word((1,), rank=R), Word((R,), rank=R))
    # y^3 c^7 y^-3 has a core of 28 >= 3^3 letters, so its tree is built
    for u, v, want in ((y ** 3 * c ** 7, y, FAIL),
                       (y ** -2, y, PowerResult(-2)),
                       (c ** 2, c, PowerResult(2)), (c, y, FAIL)):
        tracemalloc.start()
        try:
            res = power_solve(u, v, R, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res == want, (u, v)
        assert peak < 100_000, (u, v, peak)


def test_solvers_read_the_packed_letters_of_their_inputs(monkeypatch, rng):
    # words from the public constructor come packed, so neither a word
    # problem nor a power problem packs anything: the certificate u v^-2
    # is joined from the packed letters of u and v, and its cyclic core
    # is a slice of them, and no letter tuple of the certificate is built
    packs, checks = [], []
    pack, solve = words._pack, power.word_problem

    def spy(letters):
        packs.append(letters)
        return pack(letters)

    def spy_solve(w, *args, **kwargs):
        checks.append(w)
        return solve(w, *args, **kwargs)

    def built(w):
        return Word(w.letters, rank=2, _reduced=True)

    cases = []
    for d in (2, 3):
        for _ in range(10):
            g = random_reduced_word(rng, rng.randrange(0, 6), 2)
            t = random_trivial_word(rng, 2, d)
            x = built(random_reduced_word(rng, 5, 2))
            while not any(_abelianization(x, 2)):
                x = built(random_reduced_word(rng, 5, 2))
            cases.append((d, built(g * t * ~g), built(x ** 2 * t), x))
    monkeypatch.setattr(words, "_pack", spy)
    monkeypatch.setattr(power, "word_problem", spy_solve)
    for d, w, u, v in cases:
        for mode in ("det", "mc"):
            packs.clear()
            checks.clear()
            assert word_problem(w, 2, d, mode=mode, rng=random.Random(1))
            assert packs == []
            assert power_solve(u, v, 2, d, mode=mode,
                               rng=random.Random(1)) == PowerResult(2)
            assert packs == []
            (check,) = checks
            assert not letters_built(check)
            assert check == u * v ** -2 and letters_built(check)
