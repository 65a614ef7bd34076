import hashlib
import itertools
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import conjugation_verified, trivial_long
from freesolv import conjugacy, oracle
from freesolv.cli import bench_instance
from freesolv.conjugacy import SchreierSupport, conjugacy_solve
from freesolv.power import power_solve
from freesolv.words import (Word, commutator, parse, random_reduced_word,
                            random_trivial_word)
from freesolv.wordproblem import LengthGuardError, SupportChain, word_problem
from graph_reference import schreier_graph

C = commutator(parse("x1"), parse("x2"))


def test_schreier_support_x1_depth0():
    sup = SchreierSupport(parse("x1"), 2, 1)
    assert len(sup.reps) == 1
    g = schreier_graph(sup)
    assert g.num_vertices == 1
    assert (0, 0, 1) in g.edges  # the x1-loop at the only coset


def test_schreier_support_x1x2_two_cosets():
    sup = SchreierSupport(parse("x1 x2"), 2, 2)
    assert len(sup.reps) == 2
    assert sup.y_path == [0, 1, 0]


def test_schreier_support_commutator_four_cycle():
    # <[x1,x2]> is trivial in S_{2,1}: cosets are plain Z^2 points
    sup = SchreierSupport(C, 2, 2)
    g = schreier_graph(sup)
    assert g.num_vertices == 4 and len(g.edges) == 4
    assert sup.y_path[0] == sup.y_path[-1] == 0


def test_schreier_extra_words_extend():
    sup = SchreierSupport(parse("x1"), 2, 2)
    sup.trace(parse("x2 x2"))
    assert len(sup.reps) == 3  # root plus two x2-levels


def test_conjugacy_trivial_cases():
    assert conjugacy_solve(Word(()), Word(()), 2, 2).conjugate
    assert conjugacy_solve(C, Word(()), 2, 1).conjugate  # both die at d=1
    assert not conjugacy_solve(parse("x1"), Word(()), 2, 2).conjugate
    res = conjugacy_solve(parse("x1 x2"), parse("x1 x2"), 2, 0)
    assert res.conjugate and res.witness == Word(())


def test_conjugacy_examples():
    res = conjugacy_solve(parse("x1 x2"), parse("x2 x1"), 2, 2)
    assert res.conjugate
    z = res.witness
    assert word_problem(z * parse("x1 x2") * ~z * ~parse("x2 x1"), 2, 2)
    assert not conjugacy_solve(parse("x1"), parse("x2"), 2, 1).conjugate
    assert not conjugacy_solve(parse("x1"), parse("x1 x1"), 2, 2).conjugate


@pytest.mark.parametrize("d", [2, 3])
def test_witness_repair_wrapped_conjugator(monkeypatch, d):
    # x = n b n^-1 with n in F^(d-1): the first flow-equal shift need not
    # conjugate; the repair must recover one that does.  At d = 3 the
    # shifts of closing edges come from power problems at depth 2
    repairs = []
    repair = conjugacy._witness_repair

    def spy(*args):
        repairs.append(args)
        return repair(*args)

    monkeypatch.setattr(conjugacy, "_witness_repair", spy)
    if d == 2:
        n, bases = C, [parse("x1")]
    else:
        n = commutator(C, commutator(parse("x1"), parse("X2")))
        bases = [parse(b) for b in ("x1", "x2", "x1 x2", "x1 X2 x1")]
    pairs = [(n * b * ~n, b) for b in bases]
    pairs += [(y, x) for x, y in pairs]
    for x, y in pairs:
        res = conjugacy_solve(x, y, 2, d)
        assert res.conjugate
        assert conjugation_verified(res.witness, x, y, 2, d)
    # all but at most one pair need the repair
    assert len(repairs) >= len(pairs) - 1


def test_random_conjugate_pairs_with_witness(rng):
    for _ in range(120):
        x = random_reduced_word(rng, rng.randrange(1, 6), 2)
        z = random_reduced_word(rng, rng.randrange(0, 6), 2)
        y = z * x * ~z
        res = conjugacy_solve(x, y, 2, 2)
        assert res.conjugate, (x.serialize(), z.serialize())
        assert conjugation_verified(res.witness, x, y, 2, 2)


def test_random_conjugate_pairs_depth3(rng):
    for _ in range(25):
        x = random_reduced_word(rng, rng.randrange(1, 5), 2)
        z = random_reduced_word(rng, rng.randrange(0, 4), 2)
        y = z * x * ~z
        res = conjugacy_solve(x, y, 2, 3)
        assert res.conjugate
        assert conjugation_verified(res.witness, x, y, 2, 3)


def test_oracle_agreement_sampled(rng):
    for _ in range(250):
        x = random_reduced_word(rng, rng.randrange(1, 6), 2)
        y = random_reduced_word(rng, rng.randrange(1, 6), 2)
        truth = oracle.oracle_conjugate(x, y, 2, 2, 3)
        if truth == "unknown":
            continue
        res = conjugacy_solve(x, y, 2, 2)
        assert res.conjugate == (truth == "yes"), \
            (x.serialize(), y.serialize(), truth)


def test_abelianization_necessary(rng):
    for _ in range(60):
        x = random_reduced_word(rng, rng.randrange(1, 7), 2)
        y = random_reduced_word(rng, rng.randrange(1, 7), 2)
        res = conjugacy_solve(x, y, 2, 2)
        if res.conjugate:
            assert oracle.magnus_form(x, 2, 1) == oracle.magnus_form(y, 2, 1)


def test_symmetry_and_transitivity_sampled(rng):
    words = [random_reduced_word(rng, rng.randrange(1, 5), 2)
             for _ in range(12)]
    rel = {}
    for a in words:
        for b in words:
            rel[(a.letters, b.letters)] = conjugacy_solve(a, b, 2, 2).conjugate
    for a in words:
        assert rel[(a.letters, a.letters)]
        for b in words:
            assert rel[(a.letters, b.letters)] == rel[(b.letters, a.letters)]
            for c in words:
                if rel[(a.letters, b.letters)] and rel[(b.letters, c.letters)]:
                    assert rel[(a.letters, c.letters)]


def test_lemma_trivial_flow_iff_trivial(rng):
    # pi_y = 0 on Sch_{d-1}(y) exactly when y = 1 in S_{r,d}
    checked_zero = 0
    for _ in range(80):
        y = random_reduced_word(rng, rng.randrange(1, 9), 2)
        sup = SchreierSupport(y, 2, 2)
        is_zero = not sup.y_flow
        assert is_zero == oracle.is_trivial(y, 2, 2)
        checked_zero += is_zero
    for _ in range(10):
        y = random_trivial_word(rng, 2, 2)
        if len(y) > 40:
            continue
        sup = SchreierSupport(y, 2, 2)
        assert not sup.y_flow


def test_mc_conjugacy(rng):
    found = 0
    for trial in range(40):
        x = random_reduced_word(rng, rng.randrange(1, 6), 2)
        z = random_reduced_word(rng, rng.randrange(0, 6), 2)
        y = z * x * ~z
        res = conjugacy_solve(x, y, 2, 2, mode="mc", rng=random.Random(trial))
        if res.conjugate:
            found += 1
            assert conjugation_verified(res.witness, x, y, 2, 2)
    assert found >= 36


def test_mc_seed_determinism():
    x = parse("x1 x2 x1")
    z = parse("x2 x2 X1")
    y = z * x * ~z
    outs = {conjugacy_solve(x, y, 2, 2, mode="mc",
                            rng=random.Random(3)).witness.letters
            for _ in range(3)}
    assert len(outs) == 1


def _depth_pairs(count, seed):
    """Seeded pairs at d = 3 and 4, ranks 2 and 3: conjugates z x z^-1,
    the same times c in F^(d-1) (conjugate in S_{r,d-1}), and times a
    commutator."""
    g = random.Random(seed)
    pairs = []
    for i in range(count):
        d, r, kind = 3 + i % 2, 2 + (i // 2) % 2, i % 3
        x = random_reduced_word(g, g.randrange(1, 10), r)
        z = random_reduced_word(g, g.randrange(0, 5), r)
        y = z * x * ~z
        if kind == 1:
            y = y * random_trivial_word(g, r, d - 1, conjugator_len=1,
                                        factors=1)
        elif kind == 2:
            y = y * commutator(random_reduced_word(g, 2, r),
                               random_reduced_word(g, 2, r))
        pairs.append((x, y, r, d))
    return pairs


def test_deep_verdicts_and_witnesses_are_pinned():
    # deterministic verdicts and witnesses over a seeded d = 3/4 set: the
    # sieve may skip cuts, but not move the first flow-equal one nor the
    # support the witness is repaired on
    digest = hashlib.sha256()
    yes = 0
    for x, y, r, d in _depth_pairs(60, 1):
        res = conjugacy_solve(x, y, r, d)
        yes += res.conjugate
        digest.update(repr((res.conjugate, res.witness.letters
                            if res.conjugate else None)).encode())
    assert yes == 25
    assert digest.hexdigest()[:16] == "64b7d1e6881f780d"


def test_mc_gives_the_det_answer_at_depth():
    # every step is exact at every depth, so Monte Carlo mode returns the
    # deterministic result, witness included, for any seed and bound
    pairs = _depth_pairs(16, 2)
    pairs += [(x, y, 2, 3) for x, y in _repair_pairs(random.Random(4), 3)]
    answers = set()
    for x, y, r, d in pairs:
        want = conjugacy_solve(x, y, r, d)
        answers.add(want.conjugate)
        for seed in range(3):
            assert conjugacy_solve(x, y, r, d, mode="mc",
                                   rng=random.Random(seed),
                                   cube_bound=(None, 1, 8)[seed]) == want
    assert answers == {True, False}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.integers(0, 2),
       d=st.sampled_from([2, 3]))
def test_conjugacy_symmetric_property(seed, kind, d):
    # conjugacy is symmetric at d = 2 and 3, and every witness verifies
    g = random.Random(seed)
    x = random_reduced_word(g, g.randrange(1, 7), 2)
    z = random_reduced_word(g, g.randrange(0, 5), 2)
    if kind == 0:
        y = random_reduced_word(g, g.randrange(1, 7), 2)
    else:  # a conjugate, perturbed by a commutator for kind 2
        y = z * x * ~z * (commutator(random_reduced_word(g, 2, 2),
                                     random_reduced_word(g, 2, 2))
                          if kind == 2 else Word((), rank=2))
    there, back = conjugacy_solve(x, y, 2, d), conjugacy_solve(y, x, 2, d)
    assert there.conjugate == back.conjugate
    if there.conjugate:
        assert conjugation_verified(there.witness, x, y, 2, d)
        assert conjugation_verified(back.witness, y, x, 2, d)


@pytest.mark.parametrize("d", [2, 3])
def test_schreier_partition_is_exact_membership(monkeypatch, rng, d):
    # the coset key decides alone at depth d-1 = 1; at depth 2 the
    # membership loop still separates the cosets inside one key.  Every
    # edge (u, s) -> (v, j) has rep(u) x_s = y^j rep(v) in S_{r,d-1}, and
    # its reverse holds (u, -j)
    calls = []
    member = conjugacy.member_of_cyclic

    def counting(*args, **kwargs):
        calls.append(args)
        return member(*args, **kwargs)

    monkeypatch.setattr(conjugacy, "member_of_cyclic", counting)
    checked = 0
    for _ in range(6 if d == 2 else 3):
        y = random_reduced_word(rng, rng.randrange(1, 5), 2)
        extra = [random_reduced_word(rng, rng.randrange(1, 6), 2)
                 for _ in range(2)]
        if d == 3:
            extra.append(C)  # in F^(1): shares the key of the root coset
        calls.clear()
        sup = SchreierSupport(y, 2, d)
        for w in extra:
            sup.trace(w)
        if d == 2:
            assert not calls
        prefixes = []
        for w in (y, *extra):
            path = sup.trace(w)[0]
            prefixes += [(Word(w.letters[:i], rank=2), path[i])
                         for i in range(len(w) + 1)]
        for (p, a), (q, b) in itertools.combinations(prefixes, 2):
            same = power_solve(p * ~q, y, 2, d - 1, mode="det").found
            assert same == (a == b), (y.serialize(), p.serialize(),
                                      q.serialize())
            checked += 1
        if d == 3:
            assert calls
        for (u, s), (v, j) in sup.out.items():
            rep_u, rep_v = (Word(sup.reps[i], rank=2) for i in (u, v))
            assert word_problem(y ** j * rep_v * ~(rep_u * Word([s], rank=2)),
                                2, d - 1)
            assert sup.out[(v, -s)] == (u, -j)
    assert checked > 100


# -- an independent certificate for "No": Z_3 wr Z_4 -----------------------
#
# Elements (f, a) with f in Z_3^4 and a in Z_4 multiply as
# (f, a)(g, b) = (f + a.g, a + b), where a.g shifts the coordinates of g
# by a.  The group is metabelian, so every homomorphism F -> Z_3 wr Z_4
# factors through S_{r,2} and through each S_{r,d} with d >= 2: if the
# images of x and y are not conjugate, neither are x and y.

def _wr_mul(g, h):
    (f, a), (e, b) = g, h
    return tuple((f[i] + e[(i - a) % 4]) % 3 for i in range(4)), (a + b) % 4


def _wr_inv(g):
    f, a = g
    return tuple(-f[(i + a) % 4] % 3 for i in range(4)), -a % 4


_WR = [(f, a) for f in itertools.product(range(3), repeat=4)
       for a in range(4)]


def _wr_image(w, images):
    out = ((0, 0, 0, 0), 0)
    for s in w.letters:
        g = images[abs(s) - 1]
        out = _wr_mul(out, g if s > 0 else _wr_inv(g))
    return out


def _wr_not_conjugate(x, y, images) -> bool:
    X, Y = _wr_image(x, images), _wr_image(y, images)
    return all(_wr_mul(_wr_mul(g, X), _wr_inv(g)) != Y for g in _WR)


def test_wreath_group_laws(rng):
    one = ((0, 0, 0, 0), 0)
    for _ in range(200):
        g, h, k = (rng.choice(_WR) for _ in range(3))
        assert _wr_mul(_wr_mul(g, h), k) == _wr_mul(g, _wr_mul(h, k))
        assert _wr_mul(g, _wr_inv(g)) == one == _wr_mul(_wr_inv(g), g)
        # metabelian: commutators commute
        c1 = _wr_image(C, (g, h))
        c2 = _wr_image(C, (k, g))
        assert _wr_mul(c1, c2) == _wr_mul(c2, c1)


def test_no_answers_certified_in_wreath_product(rng):
    maps = [tuple(rng.choice(_WR) for _ in range(2)) for _ in range(24)]
    certified = yes = no = 0
    for trial in range(300):
        x = random_reduced_word(rng, rng.randrange(1, 13), 2)
        kind = trial % 3
        if kind == 0:  # a conjugate, then perturbed by a commutator
            z = random_reduced_word(rng, rng.randrange(0, 5), 2)
            a = random_reduced_word(rng, rng.randrange(1, 3), 2)
            b = random_reduced_word(rng, rng.randrange(1, 3), 2)
            y = z * x * ~z * commutator(a, b)
        elif kind == 1:  # the letters of x in another order
            letters = list(x.letters)
            rng.shuffle(letters)
            y = Word(letters, rank=2)
        else:  # a plain conjugate
            z = random_reduced_word(rng, rng.randrange(0, 6), 2)
            y = z * x * ~z
        if oracle.is_trivial(y, 2, 2):
            continue
        res = conjugacy_solve(x, y, 2, 2)
        if any(_wr_not_conjugate(x, y, m) for m in maps):
            certified += 1
            assert not res.conjugate, (x.serialize(), y.serialize())
        if res.conjugate:
            yes += 1
            assert conjugation_verified(res.witness, x, y, 2, 2)
        else:
            no += 1
    assert certified >= 80 and yes >= 100, (certified, yes, no)


# -- an independent certificate for "No" at d = 3: S_4 ----------------------
#
# S_4 > A_4 > V_4 > 1 has abelian factors, so S_4 is solvable of derived
# length 3 and every homomorphism F -> S_4 factors through S_{r,3}: if
# the images of x and y are not conjugate, neither are x and y.
# Permutations of 0..3 are tuples of images; p * q applies q first.

_S4 = list(itertools.permutations(range(4)))


def _s4_mul(p, q):
    return tuple(p[i] for i in q)


def _s4_inv(p):
    out = [0] * 4
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _s4_image(w, images):
    out = (0, 1, 2, 3)
    for s in w.letters:
        g = images[abs(s) - 1]
        out = _s4_mul(out, g if s > 0 else _s4_inv(g))
    return out


def _s4_not_conjugate(x, y, images) -> bool:
    X, Y = _s4_image(x, images), _s4_image(y, images)
    return all(_s4_mul(_s4_mul(g, X), _s4_inv(g)) != Y for g in _S4)


def test_no_answers_certified_in_s4_at_depth3(rng):
    maps = [tuple(rng.choice(_S4) for _ in range(2)) for _ in range(48)]
    # the maps kill F^(3) but not F^(2)
    for m in maps[:6]:
        w = random_trivial_word(rng, 2, 3, conjugator_len=1, factors=1)
        assert _s4_image(w, m) == (0, 1, 2, 3)
    assert any(_s4_image(C, m) != (0, 1, 2, 3) for m in maps)
    pairs, certified = 40, 0
    for _ in range(pairs):
        # conjugate in S_{2,2}, and in S_{2,3} only by accident
        x = random_reduced_word(rng, rng.randrange(4, 9), 2)
        z = random_reduced_word(rng, rng.randrange(0, 4), 2)
        c = random_trivial_word(rng, 2, 2, conjugator_len=2, factors=1)
        y = z * x * ~z * c
        res = conjugacy_solve(x, y, 2, 3)
        if any(_s4_not_conjugate(x, y, m) for m in maps):
            certified += 1
            assert not res.conjugate, (x.serialize(), y.serialize())
    assert certified >= pairs // 3, \
        f"{pairs - certified} of {pairs} pairs uncertified"
    for _ in range(8):
        x = random_reduced_word(rng, rng.randrange(4, 9), 2)
        z = random_reduced_word(rng, rng.randrange(0, 4), 2)
        y = z * x * ~z
        res = conjugacy_solve(x, y, 2, 3)
        assert res.conjugate, (x.serialize(), y.serialize())
        assert conjugation_verified(res.witness, x, y, 2, 3)


def test_depth_one_is_equality_in_the_abelianization(rng):
    # S_{r,1} = Z^r is abelian: conjugate exactly when the exponent
    # vectors agree, and then the empty word conjugates
    answers = set()
    for i in range(200):
        r = 2 + i % 3
        x = random_reduced_word(rng, rng.randrange(0, 8), r)
        if i % 2:  # the letters of x in another order
            y = Word(rng.sample(x.letters, len(x)), rank=r)
        else:
            y = random_reduced_word(rng, rng.randrange(0, 8), r)
        mode = "mc" if i % 4 == 3 else "det"
        res = conjugacy_solve(x, y, r, 1, mode=mode, rng=random.Random(i))
        same = oracle.magnus_form(x, r, 1) == oracle.magnus_form(y, r, 1)
        assert res.conjugate == same, (x.serialize(), y.serialize())
        if same:
            assert res.witness == Word(())
        answers.add(same)
    assert answers == {True, False}


def test_mc_answer_is_exact_when_both_abelianizations_vanish():
    # both words die in Z^r, and at cube bound 1 Monte Carlo word
    # problems call both trivial by mistake: the answer must stay exact
    x = parse("x2 X1 X2 x1 X2 x1 x2 x2 X1 X2")
    y = parse("X2 X1 X2 X2 x1 x1 x2 x2 X1 x2")
    res = conjugacy_solve(x, y, 2, 2, mode="mc", rng=random.Random(145),
                          cube_bound=1)
    assert res == conjugacy_solve(x, y, 2, 2)
    if res.conjugate:
        z = res.witness
        assert word_problem(z * x * ~z * ~y, 2, 2, mode="det")


def test_no_verdicts_with_nonzero_abelianization_skip_refinement(
        monkeypatch, rng):
    # a nonzero abelianization is nontrivial in every S_{r,d}, d >= 1, so
    # No answers at d = 2 build no distinguisher chain at all
    built = []
    labels_at = SupportChain.labels_at

    def spy(self, depth):
        built.append(depth)
        return labels_at(self, depth)

    monkeypatch.setattr(SupportChain, "labels_at", spy)
    answers = set()
    for _ in range(40):
        x = random_reduced_word(rng, rng.randrange(1, 12), 2)
        if not any(conjugacy._exponent_vector(x.letters, 2)):
            continue
        z = random_reduced_word(rng, 3, 2)
        y = z * x * ~z * (C if rng.random() < 0.5 else Word((), rank=2))
        built.clear()
        res = conjugacy_solve(x, y, 2, 2)
        if res.conjugate:
            assert conjugation_verified(res.witness, x, y, 2, 2)
        else:
            assert built == []
        answers.add(res.conjugate)
    assert answers == {True, False}


def test_length_guard():
    x, y = parse("x1 x2"), parse("x2 x1")
    for d in (0, 2):
        with pytest.raises(LengthGuardError):
            conjugacy_solve(x, y, 2, d, max_len=4)
    assert conjugacy_solve(x, y, 2, 2, max_len=5).conjugate


# -- the flow hash steers the shift scan -----------------------------------


def _full_scan(x, y, r, d=2):
    """The first shift gamma_c = y_i x[:c]^-1, tracing every cut in order
    on a SchreierSupport of <y> at depth d-1 with no hash, whose trace has
    the flow of y; None when no shift has it.  Pairs with zero
    abelianization are settled by word problems, Yes with the empty
    word.  The reference for verdicts and witnesses at every d >= 2."""
    ab = conjugacy._exponent_vector(x.letters, r)
    if ab != conjugacy._exponent_vector(y.letters, r):
        return None
    if not any(ab):
        xt, yt = word_problem(x, r, d), word_problem(y, r, d)
        if xt and yt:
            return Word(())
        if xt or yt:
            return None
    sup = SchreierSupport(y, r, d)
    path, flow_y = sup.y_path, sup.y_flow
    pick = next(i for i, s in enumerate(y.letters)
                if flow_y.get((path[i], s) if s > 0 else (path[i + 1], -s)))
    y_i = y.prefix(pick)
    for cut in range(len(x) + 1):
        gamma = y_i * ~x.prefix(cut)
        if sup.trace(gamma * x * ~gamma)[1] == flow_y:
            return gamma
    return None


def _agrees_with_full_scan(x, y, r, d=2):
    """The solve has the verdict of _full_scan, and its shift as the
    witness when that conjugates x to y on the nose; any other witness
    is checked by Magnus forms, not by the solver."""
    res, gamma = conjugacy_solve(x, y, r, d), _full_scan(x, y, r, d)
    assert res.conjugate == (gamma is not None), (x.serialize(),
                                                  y.serialize(), d)
    if gamma is not None:
        if conjugation_verified(gamma, x, y, r, d):
            assert res.witness == gamma, (x.serialize(), y.serialize(), d)
        else:
            assert conjugation_verified(res.witness, x, y, r, d), \
                (x.serialize(), y.serialize(), d)
    return res


def _hash_pair(g, r, kind):
    x = random_reduced_word(g, g.randrange(1, 9), r)
    z = random_reduced_word(g, g.randrange(0, 6), r)
    c = commutator(random_reduced_word(g, g.randrange(1, 3), r),
                   random_reduced_word(g, g.randrange(1, 3), r))
    if kind == 0:
        return x, random_reduced_word(g, g.randrange(1, 9), r)
    if kind == 3:  # ab(y) = 2 ab(x): A has torsion the hash cannot see
        x = x * x
    elif kind == 4:  # x in F': A = Z^r
        x = commutator(x, random_reduced_word(g, g.randrange(1, 4), r))
    y = z * x * ~z
    if kind == 2 or (kind > 2 and g.random() < 0.5):
        y = y * c
    return x, y


def _hashed_scan_agrees(seed, r, kind, d):
    x, y = _hash_pair(random.Random(seed), r, kind)
    for a, b in ((x, y), (y, x)):
        _agrees_with_full_scan(a, b, r, d)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.sampled_from([2, 3]),
       kind=st.integers(0, 4))
def test_hashed_scan_matches_full_scan_property(seed, r, kind):
    # random pairs, conjugates, conjugates times a commutator, squares
    # and words of F': the verdict and first shift of tracing every cut
    _hashed_scan_agrees(seed, r, kind, 2)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.sampled_from([2, 3]),
       kind=st.integers(0, 4))
def test_hashed_scan_matches_full_scan_at_depth3_property(seed, r, kind):
    # the same pairs at d = 3, where the hits that pass the walk on the
    # coded Cay(A) are traced on the support: the verdict and first shift
    # of tracing every cut with no hash and no walk
    _hashed_scan_agrees(seed, r, kind, 3)


def _torsion_pairs():
    """x = x0 x0 and y = z x0 x0' z^-1, x0' the letters of x0 in another
    order, 150 draws from Random(5), both orders, with rank r: ab(y) = 2
    ab(x0), so A = Z^r / Z ab(y) has torsion, which the hash cannot see."""
    g = random.Random(5)
    for i in range(150):
        r = 2 + i % 2
        x0 = random_reduced_word(g, g.randrange(1, 6), r)
        z = random_reduced_word(g, g.randrange(0, 6), r)
        shuffled = list(x0.letters)
        g.shuffle(shuffled)
        x, y = x0 * x0, z * x0 * Word(shuffled, rank=r) * ~z
        for a, b in ((x, y), (y, x)):
            if a.letters and b.letters:
                yield a, b, r


def test_torsion_hits_are_walked_and_rejected(monkeypatch):
    # hits of the torsion pairs that fail the rotation check are walked as
    # gamma_c x gamma_c^-1 on the coded Cay(A), the coding y is walked on
    # with its edge keys, and some walks differ from y's flow; every
    # verdict is still the full scan's
    walks = []
    walk = conjugacy._Coding.walk

    def spy(self, letters, keys=None):
        flow = walk(self, letters, keys)
        walks.append((self, keys is not None, flow))
        return flow

    monkeypatch.setattr(conjugacy._Coding, "walk", spy)
    hits = failed = 0
    for a, b, r in _torsion_pairs():
        walks.clear()
        _agrees_with_full_scan(a, b, r)
        cay = [(coding, flow) for coding, keyed, flow in walks if keyed]
        for coding, flow_y in cay:
            for other, keyed, flow in walks:
                if other is coding and not keyed:
                    hits += 1
                    failed += flow != flow_y
    assert 0 < failed < hits


def test_torsion_hits_at_depth3_are_walked_before_any_trace(monkeypatch):
    # the torsion pairs at d = 3: each hit is walked on the coded Cay(A)
    # first, some walks differ from y's, and a hit is traced on the
    # support only right after a walk equal to y's; every verdict is still
    # the full scan's, which traces every cut
    events = []
    walk, trace = conjugacy._Coding.walk, SchreierSupport.trace

    def spy_walk(self, letters, keys=None):
        flow = walk(self, letters, keys)
        events.append(("y" if keys is not None else "walk", tuple(letters),
                       flow))
        return flow

    def spy_trace(self, w):
        events.append(("trace", w.letters, None))
        return trace(self, w)

    monkeypatch.setattr(conjugacy._Coding, "walk", spy_walk)
    monkeypatch.setattr(SchreierSupport, "trace", spy_trace)
    failed = traced = 0
    for a, b, r in _torsion_pairs():
        events.clear()
        conjugacy_solve(a, b, r, 3)
        solve = list(events)
        _agrees_with_full_scan(a, b, r, 3)
        coded_y = [flow for kind, _, flow in solve if kind == "y"]
        if not coded_y:
            continue  # settled before the shift loop
        # the support's constructor traces y itself
        assert [e[0] for e in solve[:2]] == ["y", "trace"]
        for prev, (kind, letters, flow) in zip(solve[1:], solve[2:]):
            failed += kind == "walk" and flow != coded_y[0]
            if kind == "trace":
                traced += 1
                assert prev == ("walk", letters, coded_y[0]), \
                    (a.serialize(), b.serialize())
    assert failed > 0 and traced > 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.sampled_from([2, 3]),
       kind=st.integers(0, 5), d=st.sampled_from([3, 4]))
def test_sieved_scan_matches_full_scan_at_depth_property(seed, r, kind, d):
    # the pairs of the d = 2 property, and z x z^-1 c with c in F^(d-1)
    # (kind 5), conjugate in S_{r,d-1}: the hash lets cuts through and
    # each is traced.  The reference finds cosets at depth d-1 for all
    # |x| + 1 cuts, so a pair is compared in the directions whose x is
    # short
    g = random.Random(seed)
    if kind < 5:
        x, y = _hash_pair(g, r, kind)
    else:
        x = random_reduced_word(g, g.randrange(1, 9), r)
        z = random_reduced_word(g, g.randrange(0, 6), r)
        y = z * x * ~z * random_trivial_word(g, r, d - 1, conjugator_len=1,
                                             factors=1)
    for a, b in ((x, y), (y, x)):
        if len(a) <= 20:
            _agrees_with_full_scan(a, b, r, d)


def test_proper_powers_keep_one_hit_per_period(monkeypatch, rng):
    # the worst case of the sieve: translation by ab(p) fixes the flow of
    # x = p^k on Cay(A), so when one cut hits, so do all cuts a period
    # |p| apart, k or k + 1 of them, and a No pair traces each
    hits = []
    cuts = conjugacy._FlowHash.cuts

    def spy(self, pick):
        for cut in cuts(self, pick):
            hits.append(cut)
            yield cut

    monkeypatch.setattr(conjugacy._FlowHash, "cuts", spy)
    periodic = 0
    for p in map(parse, ("x1 x1 X2", "x1 X2 X2", "X1 x2 X1 x2 x2")):
        for k in (3, 5, 7):
            x = p ** k
            for _ in range(3):
                z = random_reduced_word(rng, rng.randrange(0, 4), 2)
                c = random_trivial_word(rng, 2, 2, conjugator_len=1,
                                        factors=1)
                for y in (z * x * ~z, z * x * ~z * c):
                    hits.clear()
                    res = _agrees_with_full_scan(x, y, 2, 3)
                    if res.conjugate:
                        continue
                    if hits:
                        assert hits == list(range(hits[0], len(x) + 1,
                                                  len(p))), (p, k, hits)
                        assert k <= len(hits) <= k + 1
                        periodic += 1
    assert periodic >= 10


def _repair_pairs(rng, count):
    """Conjugates through a commutator wrapper: most need witness repair."""
    pairs = []
    for i in range(count):
        b = random_reduced_word(rng, rng.randrange(1, 8), 2)
        n = commutator(random_reduced_word(rng, rng.randrange(1, 3), 2),
                       random_reduced_word(rng, rng.randrange(1, 3), 2))
        z = random_reduced_word(rng, rng.randrange(0, 8), 2)
        x, y = n * b * ~n, z * b * ~z
        if i % 3 == 1:
            y = y * C
        if i % 3 == 2:
            x, y = x * x, y * y
        pairs += [(x, y), (y, x)]
    return pairs


def test_witness_repair_matches_full_scan(monkeypatch, rng):
    # pairs whose first flow-equal shift mostly needs repair: the repair
    # runs on the coded Cay(Z^m), and its witness must verify
    repairs = []
    repair = conjugacy._witness_repair

    def spy(*args):
        repairs.append(args)
        return repair(*args)

    monkeypatch.setattr(conjugacy, "_witness_repair", spy)
    # ab(y) = 2 (-1, 0, 1): the hash, blind to torsion, lets through some
    # of the cuts before the first flow-equal one
    pairs = [(parse("X3 X1 x2 X3 X1 X2 x1 x3 x1 x3 X1 x3 X1 X1 X3 X1 x2 x1 "
                    "x3 X2 x1 x3"),
              parse("x2 x3 x3 x3 X1 x3 X1 X3 X3 X2"))]
    for x, y in pairs + _repair_pairs(rng, 60):
        _agrees_with_full_scan(x, y, 3)
    assert len(repairs) > 40


def _cayley_flow_norm(w, r):
    """|flow|_1 of w on Cay(Z^r), edges keyed (source vector, generator)."""
    flow, v = {}, (0,) * r
    for s in w.letters:
        i, step = abs(s) - 1, (1 if s > 0 else -1)
        u = v[:i] + (v[i] + step,) + v[i + 1:]
        key = (min(u, v), i)  # the edge x_i leaves the lesser end
        flow[key] = flow.get(key, 0) + step
        v = u
    return sum(map(abs, flow.values()))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.sampled_from([2, 3]),
       kind=st.integers(0, 10))
def test_repaired_witness_length_bound_property(seed, r, kind):
    # the bound of _witness_repair at d = 2: a witness z = z_h gamma has
    # |z| <= |gamma| + |h|_1 (n + 3) / 2, n = |x| + |y|, where h is the
    # flow of z_h on Cay(Z^m) and each of at most |h|_1 / 4 conjugating
    # axis words has at most n + 1 letters
    g = random.Random(seed)
    x, y = _hash_pair(g, r, kind) if kind < 5 else \
        _repair_pairs(g, 3)[kind - 5]
    calls, lifts = [], []
    repair, lift = conjugacy._witness_repair, conjugacy._Coding.lift

    def spy_repair(*args):
        calls.append((args[2], repair(*args)))
        return calls[-1][1]

    def spy_lift(self, v, j):
        lifts.append(len(lift(self, v, j)))
        return lift(self, v, j)

    with mock.patch.object(conjugacy, "_witness_repair", spy_repair), \
            mock.patch.object(conjugacy._Coding, "lift", spy_lift):
        for a, b in ((x, y), (y, x)):
            calls.clear()
            lifts.clear()
            res = conjugacy_solve(a, b, x.rank, 2)
            if not calls:
                assert not lifts
                continue
            (gamma, z), = calls
            assert res.conjugate and z is not None
            n = len(a) + len(b)
            h1 = _cayley_flow_norm(z * ~gamma, x.rank)
            assert all(k <= n + 1 for k in lifts)
            assert 4 * len(lifts) <= h1
            assert len(z) <= len(gamma) + h1 * (n + 3) / 2


def test_long_repaired_pair_stays_under_the_guard(monkeypatch):
    # 87,380 letters, whose repaired witness once made a 9.5M-letter check
    # word and raised LengthGuardError
    repairs = []
    repair = conjugacy._witness_repair

    def spy(*args):
        repairs.append(args)
        return repair(*args)

    monkeypatch.setattr(conjugacy, "_witness_repair", spy)
    rng = random.Random(3)
    x = random_reduced_word(rng, 21845, 2)
    z = random_reduced_word(rng, 21845, 2)
    y = z * x * ~z
    assert len(x) + len(y) == 87380
    res = conjugacy_solve(x, y, 2, 2)
    assert res.conjugate and len(repairs) == 1
    w = res.witness
    assert word_problem(w * x * ~w * ~y, 2, 2)


def test_check_words_get_limits_from_max_len(monkeypatch):
    # a pair just under a guard of 2^12 letters whose repair check word
    # is almost three times longer: the solver built it, so it gets
    # a limit that follows from max_len and is never refused
    checks = []
    wp = conjugacy.word_problem

    def spy(w, *args, **kwargs):
        checks.append((len(w), kwargs["max_len"]))
        return wp(w, *args, **kwargs)

    monkeypatch.setattr(conjugacy, "word_problem", spy)
    rng = random.Random(3)
    x = random_reduced_word(rng, 1023, 2)
    z = random_reduced_word(rng, 1023, 2)
    y = z * x * ~z
    assert 4000 < len(x) + len(y) < 2 ** 12
    res = conjugacy_solve(x, y, 2, 2, max_len=2 ** 12)
    w = res.witness
    assert res.conjugate and word_problem(w * x * ~w * ~y, 2, 2)
    assert max(n for n, _ in checks) > 2 * 2 ** 12
    assert all(n < limit for n, limit in checks)
    with pytest.raises(LengthGuardError):
        conjugacy_solve(x, y, 2, 2, max_len=len(x) + len(y))


@pytest.mark.parametrize("guard", [None, 1 << 22])
def test_support_calls_get_limits_from_max_len(monkeypatch, guard):
    # SchreierSupport's membership calls take words it builds, so each
    # gets max_len + 2 R + 1, R its longest rep at the call: above the
    # call's |g| + |y|, and from max_len, not the default guard, both for
    # the tightest max_len and for one above the default.  The pairs need
    # repair at d = 3, whose heights come from the membership tests, so
    # conjugacy makes no power_solve call of its own
    calls, supports = [], []
    init = SchreierSupport.__init__

    def spy_init(self, *args, **kwargs):
        supports.append(self)
        init(self, *args, **kwargs)

    def spy(name):
        fn = getattr(conjugacy, name)

        def call(g, y, *args, max_len, **kwargs):
            reps = supports[-1].reps
            calls.append((name, len(g) + len(y), max_len,
                          max(map(len, reps))))
            return fn(g, y, *args, max_len=max_len, **kwargs)
        return call

    monkeypatch.setattr(SchreierSupport, "__init__", spy_init)
    for name in ("member_of_cyclic", "power_solve"):
        monkeypatch.setattr(conjugacy, name, spy(name))
    n = commutator(C, commutator(parse("x1"), parse("X2")))
    kinds = set()
    for b in ("x1", "x2", "x1 x2", "x1 X2 x1"):
        x, y = n * parse(b) * ~n, parse(b)
        for u, v in ((x, y), (y, x)):
            max_len = guard or len(u) + len(v) + 1
            calls.clear()
            res = conjugacy_solve(u, v, 2, 3, max_len=max_len)
            assert res.conjugate
            assert conjugation_verified(res.witness, u, v, 2, 3)
            for name, size, limit, longest in calls:
                assert size < limit == max_len + 2 * longest + 1
                kinds.add(name)
    assert kinds == {"member_of_cyclic"}  # zero power_solve calls


def test_forced_hash_collisions_change_only_the_compared_cuts(monkeypatch,
                                                               rng):
    # with chi = 1 every cut hits and every invariant matches: the exact
    # comparisons must still give the same answers and witnesses.  Counted
    # are the cuts the hash lets through, each compared exactly
    compared = []
    cuts = conjugacy._FlowHash.cuts

    def spy(self, pick):
        for cut in cuts(self, pick):
            compared.append(cut)
            yield cut

    monkeypatch.setattr(conjugacy._FlowHash, "cuts", spy)
    pairs = _repair_pairs(rng, 20)
    g = random.Random(5)
    pairs += [_hash_pair(g, r, kind) for r in (2, 3) for kind in range(5)
              for _ in range(6)]
    hashed, counts = [], []
    for x, y in pairs:
        compared.clear()
        hashed.append(conjugacy_solve(x, y, x.rank, 2))
        counts.append(len(compared))
    monkeypatch.setattr(conjugacy, "_G", 1)
    monkeypatch.setattr(conjugacy, "_G_INV", 1)
    grew = 0
    for (x, y), want, count in zip(pairs, hashed, counts):
        compared.clear()
        assert conjugacy_solve(x, y, x.rank, 2) == want, \
            (x.serialize(), y.serialize())
        assert len(compared) >= count
        grew += len(compared) > count
    assert grew > len(pairs) // 4
    assert {res.conjugate for res in hashed} == {True, False}


def test_hash_field_keeps_every_element_one_digit(monkeypatch, rng):
    # p is a prime below 2^30 with primitive root G, so every field element
    # is a one-digit CPython int: the primes q of p - 1 by trial division
    p = conjugacy._P
    assert p < 1 << 30
    assert all(p % q for q in range(2, int(p ** 0.5) + 1))
    n, primes, q = p - 1, [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    primes += [n] if n > 1 else []
    assert all(pow(conjugacy._G, (p - 1) // q, p) != 1 for q in primes)
    assert conjugacy._G * conjugacy._G_INV % p == 1
    assert 0 < conjugacy._RHO < p
    # no root of a + b z with small coefficients, or flows with small
    # values would hash to 0 (with G = 2: -2 chi(v) + chi(v) G = 0)
    assert all((a + b * g) % p for g in (conjugacy._G, conjugacy._G_INV)
               for a in range(-64, 65) for b in range(1, 65))
    tables = []
    hashes = conjugacy._FlowHash._hashes

    def spy(w, table):
        tables.append(table)
        return hashes(w, table)

    monkeypatch.setattr(conjugacy._FlowHash, "_hashes", staticmethod(spy))
    for i in range(60):
        m = 2 + i % 3
        ab = tuple(rng.choice((0, rng.randrange(-9, 10),
                               rng.randrange(-10 ** 6, 10 ** 6)))
                   for _ in range(m))
        x, y = (random_reduced_word(rng, rng.randrange(0, 20), m)
                for _ in range(2))
        tables.clear()
        fh = conjugacy._FlowHash(x, y, m, ab)
        assert len(tables) == 2
        entries = fh.step + [e for entry in tables[0] for e in entry]
        entries += [fh.h_x, fh.h_y]
        assert all(0 <= e < 1 << 30 for e in entries), (ab, x, y)


def test_answers_and_sieved_cuts_do_not_depend_on_the_field(monkeypatch):
    # the hash in F_(2^61 - 1), as it once was, and in today's field: the
    # same verdicts and witnesses, and the same cuts let through
    compared = []
    cuts = conjugacy._FlowHash.cuts

    def spy(self, pick):
        for cut in cuts(self, pick):
            compared.append(cut)
            yield cut

    monkeypatch.setattr(conjugacy._FlowHash, "cuts", spy)
    pairs = _repair_pairs(random.Random(3), 12)
    g = random.Random(7)
    pairs += [_hash_pair(g, r, kind) for r in (2, 3) for kind in range(5)
              for _ in range(6)]

    def solve_all():
        out = []
        for d in (2, 3):
            for x, y in pairs:
                compared.clear()
                res = conjugacy_solve(x, y, x.rank, d)
                out.append((res, tuple(compared)))
        return out

    today = solve_all()
    for name, value in (("_P", (1 << 61) - 1), ("_G", 37),
                        ("_G_INV", 2181202846553494278),
                        ("_RHO", 0x2545F4914F6CDD1D)):
        monkeypatch.setattr(conjugacy, name, value)
    assert solve_all() == today
    assert {res.conjugate for res, _ in today} == {True, False}
    assert sum(map(len, (c for _, c in today))) > len(today) // 2


def test_coded_walk_is_the_support_trace(rng):
    # the walk on Cay(Z^m / Z ab(y)) with integer keys gives the flow
    # SchreierSupport.trace gives at d = 2, its vertices renamed one to one
    for i in range(120):
        r = 2 + i % 2
        y = random_reduced_word(rng, rng.randrange(1, 12), r)
        if i % 3 == 1:
            y = y * y  # ab(y) not primitive
        elif i % 3 == 2:
            y = commutator(y, random_reduced_word(rng, 3, r))  # ab(y) = 0
        ab = conjugacy._exponent_vector(y.letters, r)
        sup = SchreierSupport(y, r, 2)
        for _ in range(4):
            w = random_reduced_word(rng, rng.randrange(0, 30), r)
            path, flow = sup.trace(w)
            coding = conjugacy._Coding(r, len(w) + len(y), ab)
            keys = []
            coded = coding.walk(w.letters, keys)
            rename = {}
            for j, s in enumerate(w.letters):
                edge = (path[j], s) if s > 0 else (path[j + 1], -s)
                assert rename.setdefault(edge, keys[j]) == keys[j]
            assert len(set(rename.values())) == len(rename)
            assert {rename[e]: n for e, n in flow.items()} == coded


def test_plain_coded_walk_is_the_word_problem(rng):
    # on Cay(Z^m), the flow vanishes exactly for words trivial in S_{m,2}
    for i in range(80):
        r = 2 + i % 2
        w = random_trivial_word(rng, r, 2, conjugator_len=3, factors=2)
        if i % 2:
            w = w * C if r == 2 else w * commutator(parse("x1"), parse("x3"))
        coded = conjugacy._Coding(r, len(w), ()).walk(w.letters)
        assert (not coded) == word_problem(w, r, 2)


def test_no_support_is_built_at_depth_two_or_less(monkeypatch, rng):
    # d = 1 is decided in Z^r and d = 2 on coded Cayley graphs, repairs
    # included: no SchreierSupport in either mode
    supports, repairs = [], []
    init, repair = SchreierSupport.__init__, conjugacy._witness_repair

    def spy_init(self, *args, **kwargs):
        supports.append(args)
        init(self, *args, **kwargs)

    def spy_repair(*args):
        repairs.append(args)
        return repair(*args)

    monkeypatch.setattr(conjugacy, "_witness_repair", spy_repair)
    monkeypatch.setattr(SchreierSupport, "__init__", spy_init)
    pairs = _repair_pairs(rng, 20)
    g = random.Random(9)
    pairs += [_hash_pair(g, r, kind) for r in (2, 3) for kind in range(5)
              for _ in range(8)]
    answers = set()
    for i, (x, y) in enumerate(pairs):
        for d in (1, 2):
            res = conjugacy_solve(x, y, x.rank, d, mode=("det", "mc")[i % 2],
                                  rng=random.Random(i))
            if res.conjugate:
                assert conjugation_verified(res.witness, x, y, x.rank, d)
            answers.add((d, res.conjugate))
    assert supports == []
    assert len(repairs) > 20
    assert answers == {(d, verdict) for d in (1, 2)
                       for verdict in (True, False)}


def test_long_bench_no_pair_needs_no_trace(monkeypatch):
    # 2^14 letters: the invariant answers No, so the count of traces is 0
    traces = []
    trace = SchreierSupport.trace

    def spy(self, w):
        traces.append(w)
        return trace(self, w)

    monkeypatch.setattr(SchreierSupport, "trace", spy)
    x, y = bench_instance("conj", 2 ** 14, 2, 2, random.Random(3))
    assert len(x) + len(y) >= 2 ** 14
    assert not conjugacy_solve(x, y, 2, 2).conjugate
    assert traces == []


def test_high_generator_indices_cost_nothing():
    # the solve runs over the generators the words use, not x1..xr
    x, y = parse("x1 x2000000"), parse("x2000000 x1")
    for d in (2, 3):
        tracemalloc.start()
        try:
            res = conjugacy_solve(x, y, 2000000, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert res.conjugate and res.witness.rank == 2000000
        z = Word([s if abs(s) == 1 else 2 if s > 0 else -2
                  for s in res.witness.letters], rank=2)
        assert conjugation_verified(z, parse("x1 x2"), parse("x2 x1"), 2, d)


def test_sparse_generators_solve_as_their_renumbering(rng):
    # x2, x5, x9 behave as x1, x2, x3: same verdicts, witnesses relabeled
    gens = (2, 5, 9)

    def spread(w):
        return Word([gens[abs(s) - 1] * (1 if s > 0 else -1)
                     for s in w.letters], rank=9)

    for d in (2, 3):
        for i in range(30 if d == 2 else 6):
            x = random_reduced_word(rng, rng.randrange(1, 6), 3)
            z = random_reduced_word(rng, rng.randrange(0, 4), 3)
            y = z * x * ~z * (C if i % 2 else Word(()))
            dense = conjugacy_solve(x, y, 3, d)
            sparse = conjugacy_solve(spread(x), spread(y), 9, d)
            assert sparse.conjugate == dense.conjugate
            if dense.conjugate:
                assert sparse.witness == spread(dense.witness)
