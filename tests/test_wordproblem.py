import hashlib
import random
import tracemalloc
from math import comb, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import form_long
from freesolv import oracle, wordproblem
from freesolv.words import Word, commutator, parse, random_reduced_word, \
    random_trivial_word
from freesolv.wordproblem import (LengthGuardError, SupportChain,
                                  _draw_anchors, word_problem)
from freesolv.conjugacy import conjugacy_solve
from freesolv.power import power_solve
from freesolv.xdigraph import PrefixTree
from graph_reference import number_tree_edges, quotient_by_labeling

C = commutator(parse("x1"), parse("x2"))


def prefix_forms(w, r, d):
    out = [oracle.magnus_form(Word(()), r, d)]
    for i in range(1, len(w) + 1):
        out.append(oracle.magnus_form(w.prefix(i), r, d))
    return out


def det_labels(w, d):
    """Exact labels of the prefixes of w at depth d, in prefix order."""
    tree = PrefixTree([w])
    (path,) = tree.paths
    return SupportChain(tree, "det").labels_at(d)[path].tolist()


def test_nu0():
    # the depth-0 distinguisher: S_{r,0} is trivial, everything is equal
    assert det_labels(C, 0) == [0] * 5


def test_refine_deterministic_commutator():
    nu1 = det_labels(C, 1)
    assert len(set(nu1)) == 4
    assert nu1[0] == nu1[4]
    nu2 = det_labels(C, 2)
    assert nu2[0] != nu2[4]


def test_refine_deterministic_power_word():
    assert len(set(det_labels(parse("x1 x1"), 1))) == 3


def test_refine_labels_match_oracle_exhaustively():
    for w in oracle.reduced_words(2, 6):
        if len(w) == 0:
            continue
        for d in (1, 2):
            labels = det_labels(w, d)
            forms = prefix_forms(w, 2, d)
            for i in range(len(w) + 1):
                for j in range(i, len(w) + 1):
                    assert (labels[i] == labels[j]) == \
                        (forms[i] == forms[j]), (w.serialize(), d, i, j)


def test_true_distinguisher_quotients_fold(rng):
    for _ in range(20):
        w = random_reduced_word(rng, rng.randrange(1, 10), 2)
        tree = PrefixTree([w])
        quotient_by_labeling(tree,
                             SupportChain(tree, "det").labels_at(1).tolist())


def test_randomized_refines_coarsely(rng):
    # true label equality always implies candidate label equality, at
    # every depth of a Monte Carlo chain
    for trial in range(40):
        w = random_reduced_word(rng, rng.randrange(2, 15), 2)
        tree = PrefixTree([w])
        true = SupportChain(tree, "det")
        cand = SupportChain(tree, "mc", rng=random.Random(trial),
                            cube_bound=len(w) ** 3)
        for d in (1, 2):
            t, c = true.labels_at(d).tolist(), cand.labels_at(d).tolist()
            for i in range(len(w) + 1):
                for j in range(len(w) + 1):
                    if t[i] == t[j]:
                        assert c[i] == c[j], (trial, d)


def test_word_problem_examples():
    assert word_problem(C, 2, 1)
    assert not word_problem(C, 2, 2)
    big = commutator(commutator(parse("x1"), parse("x2")),
                     commutator(parse("x3"), parse("x4")))
    assert word_problem(big, 4, 2)
    assert word_problem(Word(()), 2, 3)
    assert word_problem(parse("x1 x2"), 2, 0)


def test_word_problem_matches_oracle_sampled(rng):
    for _ in range(300):
        w = random_reduced_word(rng, rng.randrange(0, 9), 2)
        for d in (1, 2):
            assert word_problem(w, 2, d) == oracle.is_trivial(w, 2, d)


def test_short_words_never_trivial():
    # no nonempty relator shorter than 3^d
    for w in oracle.reduced_words(2, 8):
        if len(w) == 0:
            continue
        if len(w) < 9:
            assert not word_problem(w, 2, 2)
        if len(w) < 3:
            assert not word_problem(w, 2, 1)


def test_mc_false_biased(rng):
    # trivial words always come back True, whatever the seed
    for trial in range(30):
        w = random_trivial_word(rng, 2, 2)
        for seed in range(20):
            assert word_problem(w, 2, 2, mode="mc", rng=random.Random(seed))


def test_mc_agreement_rate(rng):
    n, agree = 200, 0
    for trial in range(n):
        w = random_reduced_word(rng, 40, 2)
        det = word_problem(w, 2, 2)
        mc = word_problem(w, 2, 2, mode="mc", rng=random.Random(trial))
        agree += (det == mc)
    # bound 1 - log3(40)/40 is about 0.916; exact collisions are far rarer
    assert agree / n >= 0.95


@pytest.mark.parametrize("d, B", [(2, 100), (3, 1000)])
def test_mc_error_rate_within_union_bound(d, B):
    # 2,000 seeded Monte Carlo calls on words of F^(d-1) that the exact
    # mode certifies nontrivial in S_{2,d}.  Each depth 1..d-1 draws a new
    # anchor, and each pair of the |w| + 1 prefixes with distinct flows
    # shares a label with probability at most 1/(B + 1), so a call errs
    # with probability at most (d - 1) C(|w| + 1, 2) / (B + 1).  The share
    # of wrong True answers stays within the mean of that bound plus a
    # sampling margin of three binomial standard deviations.  At these
    # small bounds some calls do merge distinct classes
    g = random.Random(d)
    calls = wrong = merged = 0
    bound = 0.0
    while calls < 2000:
        w = random_trivial_word(g, 2, d - 1, conjugator_len=1, factors=1)
        if word_problem(w, 2, d):
            continue
        tree = PrefixTree([wordproblem._cyclic_core(w)])
        exact = SupportChain(tree, "det")
        for _ in range(20):
            calls += 1
            wrong += word_problem(w, 2, d, mode="mc",
                                  rng=random.Random(calls), cube_bound=B)
            bound += (d - 1) * comb(len(w) + 1, 2) / (B + 1)
            # the chain word_problem refines, from the same seed; labels
            # are dense, so fewer classes show in the largest label
            mc = SupportChain(tree, "mc", rng=random.Random(calls),
                              cube_bound=B)
            merged += any(mc.labels_at(k).max() < exact.labels_at(k).max()
                          for k in range(1, d))
    p = bound / calls
    assert p < 1
    assert merged > 0
    assert wrong / calls <= p + 3 * sqrt(p * (1 - p) / calls), (wrong, p)


def test_mc_seed_determinism():
    w = random_reduced_word(random.Random(5), 60, 2)
    runs = {word_problem(w, 2, 2, mode="mc", rng=random.Random(99))
            for _ in range(5)}
    assert len(runs) == 1


def test_cube_bound_override(rng):
    w = random_reduced_word(rng, 30, 2)
    assert word_problem(w, 2, 2, mode="mc", rng=random.Random(1),
                        cube_bound=len(w) ** 4) == word_problem(w, 2, 2)


@pytest.mark.parametrize("bound", [-5, -1, 0.5, None])
def test_mc_cube_bound_must_be_a_non_negative_int(bound):
    tree = PrefixTree([C])
    with pytest.raises(ValueError):
        SupportChain(tree, "mc", rng=random.Random(1), cube_bound=bound)
    w = commutator(C, commutator(parse("x1"), parse("X2")))
    if bound is not None:
        with pytest.raises(ValueError):
            word_problem(w, 2, 2, mode="mc", rng=random.Random(1),
                         cube_bound=bound)
    # bound 0 is the cube {0}: every anchor is the origin
    assert word_problem(C, 2, 1, mode="mc", rng=random.Random(1),
                        cube_bound=0)


@pytest.mark.parametrize("solve", [
    lambda x, y, r: word_problem(commutator(x, y), r, 2),
    lambda x, y, r: power_solve(x, y, r, 2),
    lambda x, y, r: conjugacy_solve(x, y, r, 2),
], ids=["word_problem", "power_solve", "conjugacy_solve"])
def test_entry_points_reject_words_above_rank(solve):
    # [[x1,x2],[x1,x2^-1]] uses x2, so it is no word of S_{1,2}
    x, y = C, commutator(parse("x1"), parse("X2"))
    with pytest.raises(ValueError, match="rank"):
        solve(x, y, 1)
    with pytest.raises(ValueError, match="rank"):
        solve(Word((), rank=3), Word((), rank=3), 2)
    solve(x, y, 2)


def test_length_guard():
    w = Word((1, 2) * 20, rank=2)
    with pytest.raises(LengthGuardError):
        word_problem(w, 2, 2, max_len=10)


def tuple_reference_labels(tree, depth):
    """Labels at depths 1..depth by lexicographic rank of flow tuples.

    Shares no code with SupportChain: edges are numbered by
    graph_reference.number_tree_edges from the reference's own labels,
    and each flow is its parent's flow plus one edge (parents precede
    children).
    """
    labels, out = [0] * len(tree), []
    for _ in range(depth):
        m, eid, dirs = number_tree_edges(tree, labels)
        flows = [(0,) * m]
        for v in range(1, len(tree)):
            f = list(flows[tree.parents[v]])
            f[eid[v]] += dirs[v]
            flows.append(tuple(f))
        rank = {t: i for i, t in enumerate(sorted(set(flows)))}
        labels = [rank[t] for t in flows]
        out.append(labels)
    return out


def same_partition(a, b):
    pairs = set(zip(a, b))
    return len(pairs) == len(set(a)) == len(set(b))


def test_engine_partition_matches_tuple_reference(rng):
    # label values are class ids in no set order: compare partitions only
    cases = [[random_reduced_word(rng, n, 2)] for n in (19, 150, 700, 1499)]
    for n in (10, 40, 300):
        u = random_reduced_word(rng, n, 2)
        v = random_reduced_word(rng, n // 3, 2)
        cases.append([u, v, commutator(u, v)])
    for words in cases:
        tree = PrefixTree(words)
        assert 20 <= len(tree) <= 1500
        # the engine updates each node's flow from its parent's
        assert all(p < v for v, p in enumerate(tree.parents) if v)
        chain = SupportChain(tree, "det")
        for d, ref in enumerate(tuple_reference_labels(tree, 3), start=1):
            assert same_partition(chain.labels_at(d).tolist(), ref), \
                (len(tree), len(words), d)


def _stripped(w: Word) -> tuple[int, ...]:
    """The cyclic core by one letter pair at a time, for reference."""
    a = w.letters
    while len(a) >= 2 and a[0] == -a[-1]:
        a = a[1:-1]
    return a


def _conjugate_kinds(rng, d):
    """Words w at d, random or in F^(1) .. F^(d), so True and False occur,
    and random conjugators g, some sharing letters with w's ends."""
    for trial in range(40):
        kind = trial % (d + 1)
        w = (random_reduced_word(rng, rng.randrange(1, 12), 2) if kind == 0
             else random_trivial_word(rng, 2, kind, conjugator_len=2))
        g = random_reduced_word(rng, rng.randrange(0, 12), 2)
        if trial % 3 == 0:
            g = g * ~w.prefix(rng.randrange(0, len(w) + 1))
        yield w, g


@pytest.mark.parametrize("d", [2, 3])
def test_word_problem_is_conjugation_invariant(rng, d):
    # det mode decides on the cyclic core, and the answer is the oracle's
    # for w and for every conjugate g w g^-1
    seen = set()
    for w, g in _conjugate_kinds(rng, d):
        truth = form_long(w, 2, d).is_identity()
        assert word_problem(w, 2, d) == truth, (w, d)
        assert word_problem(g * w * ~g, 2, d) == truth, (w, g, d)
        seen.add(truth)
    assert seen == {True, False}


def test_word_problem_builds_the_tree_of_the_cyclic_core(monkeypatch, rng):
    # the tree holds |core| + 1 nodes, while the Monte Carlo default cube
    # bound and the length guard still come from the input
    trees, bounds = [], []
    tree_cls, chain_init = wordproblem.PrefixTree, SupportChain.__init__

    def spy_tree(words):
        trees.append(tree_cls(words))
        return trees[-1]

    def spy_chain(self, tree, mode="det", rng=None, cube_bound=None):
        bounds.append(cube_bound)
        chain_init(self, tree, mode=mode, rng=rng, cube_bound=cube_bound)

    for text, want in (("x1 x2 x1 X2 X1", "x1"), ("x1 x2 X1", "x2"),
                       ("x1 x2 x2 X1 X2 X1", "x2 X1"), ("x1", "x1")):
        assert wordproblem._cyclic_core(parse(text)) == parse(want)
    monkeypatch.setattr(wordproblem, "PrefixTree", spy_tree)
    monkeypatch.setattr(SupportChain, "__init__", spy_chain)
    stripped = 0
    for d in (2, 3):
        for w, g in _conjugate_kinds(rng, d):
            x = g * w * ~g
            core = _stripped(x)
            stripped += len(core) < len(x)
            assert wordproblem._cyclic_core(x).letters == core
            if len(core) == len(x):
                assert wordproblem._cyclic_core(x) is x
            for mode in ("det", "mc"):
                trees.clear()
                bounds.clear()
                word_problem(x, 2, d, mode=mode, rng=random.Random(1))
                assert len(trees) == (3 ** d <= len(core))
                if trees:
                    assert len(trees[0]) == len(core) + 1
                    (path,) = trees[0].paths
                    assert tuple(trees[0].letters[path[1:]].tolist()) == core
                    assert bounds == [len(x) ** 3 if mode == "mc" else None]
            with pytest.raises(LengthGuardError):
                word_problem(x, 2, d, max_len=len(x))
    assert stripped > 20


def test_word_problem_exits_at_first_split_depth(monkeypatch):
    # nonzero abelianization is a nonzero flow at depth 0: no refinement
    built = []
    labels_at = SupportChain.labels_at

    def spy(self, depth):
        built.append(depth)
        return labels_at(self, depth)

    monkeypatch.setattr(SupportChain, "labels_at", spy)
    w = parse("x1 x2 x1 X2") ** 500  # abelianization (1000, 0)
    assert not word_problem(w, 2, 3)
    assert max(built) == 0
    for seed in range(20):
        built.clear()
        assert not word_problem(w, 2, 3, mode="mc", rng=random.Random(seed))
        assert max(built) == 0


def root_path(tree, v):
    path = [v]
    while v:
        v = tree.parents[v]
        path.append(v)
    return path[::-1]


def _branch(rng, letters, n, avoid):
    """The letters and n more random ones, reduced, the first not avoid."""
    out = list(letters)
    for i in range(n):
        out.append(rng.choice([s for s in (1, -1, 2, -2)
                               if (not out or s != -out[-1])
                               and (i or s != avoid)]))
    return Word(tuple(out))


def nested_words(rng):
    """Four words, each leaving the one before inside that word's own
    fresh branch, so each block attaches to the block before it; then a
    prefix of the third and a repeat of the first, which add no block; a
    branch off that prefix's end, in an older block; and an extension of
    that branch, whose block starts right after its attach node."""
    words = [_branch(rng, (), 40, None)]
    cut = 0
    for _ in range(3):
        prev = words[-1].letters
        cut = rng.randrange(cut + 1, len(prev))
        words.append(_branch(rng, prev[:cut], rng.randrange(1, 30),
                             prev[cut]))
    p = words[2].letters[:rng.randrange(1, len(words[2]))]
    q = _branch(rng, p, 5, words[2].letters[len(p)])
    return words + [Word(p), words[0], q, _branch(rng, q.letters, 5, None)]


def mc_reference_trees(rng):
    """(u, v, [u,v]) trees, 1-3 words that share a random prefix, single
    words of 1-3 letters, and trees of nested branches (nested_words)."""
    cases = []
    for n in (4, 40, 90):
        u = random_reduced_word(rng, n, 2)
        v = random_reduced_word(rng, max(1, n // 3), 2)
        cases.append([u, v, commutator(u, v)])
    for k in (1, 2, 3):
        for _ in range(2):
            p = random_reduced_word(rng, rng.randrange(0, 20), 2)
            cases.append([p * random_reduced_word(rng, rng.randrange(1, 80), 2)
                          for _ in range(k)])
    cases += [[random_reduced_word(rng, n, 2)] for n in (1, 2, 3)]
    return cases + [nested_words(rng) for _ in range(3)]


def test_mc_labels_rank_direct_distances_across_limb_counts(monkeypatch,
                                                            rng):
    # the engine ranks <f_v, a>, the signed distance of the flow f_v from
    # the hyperplane a^perp times |a|, in K = ceil(bits(B) / lb) limbs of
    # lb = 61 - bits(V - 1) bits for the V nodes: bounds on both sides of
    # 2^lb and 2^(2 lb) run it on 1, 2 and 3 limbs, against Python-int
    # forms, on trees of one block and of nested blocks
    widths = []
    widen = wordproblem._widen_limbs

    def spy(rows, lb, B):
        wide = widen(rows, lb, B)
        widths.append(len(wide))
        return wide

    monkeypatch.setattr(wordproblem, "_widen_limbs", spy)
    seen = set()
    for words in mc_reference_trees(rng):
        tree = PrefixTree(words)
        V = len(tree)
        # the deterministic engine walks only the word paths: they must
        # cover the tree
        assert {v for p in tree.paths for v in p} == set(range(V))
        paths = [root_path(tree, v) for v in range(V)]
        lb = 61 - (V - 1).bit_length()
        for B in (1, V ** 3, 2 ** lb - 1, 2 ** lb, 2 ** (2 * lb) - 1,
                  2 ** (2 * lb), 2 ** 59 + 7, 2 ** 75 + 1, 2 ** 100):
            widths.clear()
            seed = B % 1009
            chain = SupportChain(tree, "mc", rng=random.Random(seed),
                                 cube_bound=B)
            redraw = random.Random(seed)
            for d in (1, 2):
                labels = chain.labels_at(d).tolist()
                # the engine's anchors, drawn again from the same seed one
                # depth at a time; the forms are computed here
                m = chain.numbering_at(d - 1)[0]
                anchor = _anchor_ints(_draw_anchors(redraw, B, m))
                assert all(0 <= a <= B for a in anchor)
                form = [sum(x * a for x, a in
                            zip(chain.flow_vector(d - 1, path).tolist(),
                                anchor))
                        for path in paths]
                rank = {x: i for i, x in enumerate(sorted(set(form)))}
                assert labels == [rank[x] for x in form], (V, B, d)
            assert widths == [max(1, -(-B.bit_length() // lb))] * 2
            seen.update(widths)
    assert seen == {1, 2, 3}


def _mc_label_digest():
    """sha256 over Monte Carlo labels at depths 1-3 for fixed trees, seeds
    and bounds: 1 to 3 limbs, one and several words, trivial words."""
    h = hashlib.sha256()
    for t in range(12):
        g = random.Random(t)
        n = (5, 60, 400, 3000)[t % 4]
        if t < 4:
            words = [random_reduced_word(g, n, 2)]
        elif t < 8:
            p = random_reduced_word(g, n // 2, 3)
            words = [p * random_reduced_word(g, k, 3) for k in (1, n // 3, n)]
        else:
            t3 = random_trivial_word(g, 2, 3)
            words = [t3, t3 * random_reduced_word(g, n, 2)]
        tree = PrefixTree(words)
        for B in (1, 1000, len(tree) ** 3, 2 ** 44, 2 ** 59 + 7, 2 ** 100):
            chain = SupportChain(tree, "mc", rng=random.Random(t * 7 + B % 11),
                                 cube_bound=B)
            for d in (1, 2, 3):
                h.update(chain.labels_at(d).astype("<i8").tobytes())
    return h.hexdigest()


def test_mc_labels_are_pinned_per_seed():
    # a seed fixes every Monte Carlo output; an engine change that moves
    # any of them on purpose updates this digest and says so
    assert _mc_label_digest() == \
        "dcb42e157acd78cc49a976c68eb171e439c3c264e9e98d447c700903e31f678d"


def _det_label_digest():
    """sha256 over deterministic labels at depths 1-3 for fixed trees of 1
    to 3 words at ranks 2 and 3: random words, shared prefixes, and words
    of F^(1) and F^(2) with a random tail."""
    h = hashlib.sha256()
    for t in range(12):
        g = random.Random(t)
        r = 2 + t % 2
        n = (5, 60, 400, 3000)[t % 4]
        if t < 4:
            words = [random_reduced_word(g, n, r)]
        elif t < 8:
            p = random_reduced_word(g, n // 2, r)
            words = [p * random_reduced_word(g, k, r) for k in (1, n // 3, n)]
        else:
            t2 = random_trivial_word(g, r, 1 + t % 2)
            words = [t2, t2 * random_reduced_word(g, n, r)]
        chain = SupportChain(PrefixTree(words), "det")
        for d in (1, 2, 3):
            h.update(chain.labels_at(d).astype("<i8").tobytes())
    return h.hexdigest()


def test_det_labels_are_pinned():
    # deterministic labels are the dense lexicographic ranks of the prefix
    # flows in edge order, whatever the engine; this digest was computed
    # with the engine that built one segment-tree level per pass and made
    # ids dense by np.unique
    assert _det_label_digest() == \
        "5f6f6579ebd01dcf8f02b8243a39f8f9cfcdc4583f5c94fb814f6ba623391c95"


@pytest.mark.parametrize("B", [0, 1, 2 ** 44 + 5, 2 ** 100])
def test_widened_limbs_hold_the_drawn_values(B):
    # each 30-bit row lands in at most two rows of lb >= 31 bits
    for lb in range(31, 61):
        rows = _draw_anchors(random.Random(lb), B, 200)
        wide = wordproblem._widen_limbs(rows, lb, B)
        assert len(wide) == max(1, -(-B.bit_length() // lb))
        assert wide.min() >= 0 and wide.max() < 2 ** lb
        vals = [0] * wide.shape[1]
        for row in wide[::-1].tolist():
            vals = [(v << lb) | x for v, x in zip(vals, row)]
        assert vals == _anchor_ints(rows), (B, lb)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 3),
       bound=st.sampled_from([1, None, 2 ** 100]))
def test_mc_never_rejects_trivial_words(seed, d, bound):
    # one-sided error at every limb count: B = 1, |w|^3 and 2^100
    w = random_trivial_word(random.Random(seed), 2, d)
    assert word_problem(w, 2, d, mode="mc", rng=random.Random(seed),
                        cube_bound=bound)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       lengths=st.lists(st.integers(0, 120), min_size=1, max_size=3),
       bound=st.sampled_from([1, 1000, 2 ** 59 + 7, 2 ** 100]))
def test_mc_labels_repeat_for_a_seed(seed, lengths, bound):
    g = random.Random(seed)
    tree = PrefixTree([random_reduced_word(g, n, 2) for n in lengths])
    runs = [SupportChain(tree, "mc", rng=random.Random(seed), cube_bound=bound)
            for _ in range(2)]
    for d in (1, 2, 3):
        assert runs[0].labels_at(d).tolist() == runs[1].labels_at(d).tolist()


class _CountingRandom(random.Random):
    def getrandbits(self, k):
        self.calls = getattr(self, "calls", 0) + 1
        return super().getrandbits(k)


def _anchor_ints(limbs):
    vals = [0] * limbs.shape[1]
    for row in limbs[::-1].tolist():
        vals = [(v << 30) | x for v, x in zip(vals, row)]
    return vals


@pytest.mark.parametrize("B", [1, 6, 2 ** 30 - 1, 3 * 2 ** 30 + 1, 2 ** 44,
                               2 ** 60 + 12345, 2 ** 100])
def test_anchors_are_uniform_on_the_cube(B):
    n = 100_000
    g = _CountingRandom(B % 10007)
    a = _anchor_ints(_draw_anchors(g, B, n))
    assert len(a) == n and all(0 <= x <= B for x in a)
    if B <= 6:  # every value, each as often as the others
        freq = np.bincount(a, minlength=B + 1) / n
        assert len(freq) == B + 1 and np.abs(freq - 1 / (B + 1)).max() < 0.01
    else:
        octiles = np.bincount([x * 8 // (B + 1) for x in a], minlength=8)
        assert np.abs(octiles / n - 1 / 8).max() < 0.01, octiles
    if B == 3 * 2 ** 30 + 1:
        assert g.calls > 1  # a quarter of the first draw lies above B
    again = _draw_anchors(random.Random(B % 10007), B, n)
    assert _anchor_ints(again) == a


def test_anchor_limbs_are_the_getrandbits_words():
    # B = 2^30 - 1 rejects nothing: component i is bits 32i .. 32i+29
    raw = random.Random(7).getrandbits(32 * 50)
    a = _draw_anchors(random.Random(7), 2 ** 30 - 1, 50)
    assert a.tolist() == [[(raw >> (32 * i)) & (2 ** 30 - 1)
                           for i in range(50)]]


X1, X2 = parse("x1"), parse("x2")


def lattice_loop(m):
    """A word whose walk in Z^2 (its depth-1 quotient) crosses m edges.

    x1^a x2^b x1^-a x2^-b walks a 2(a+b)-edge rectangle; one more x2^-1
    adds one edge below the origin.
    """
    if m <= 3:
        return [X1, X1 * X2, X1 * X2 * X2][m - 1]
    a = m // 4
    b = m // 2 - a
    loop = commutator(X1 ** a, X2 ** b)
    return loop * ~X2 if m % 2 else loop


def engine_edge_trees(rng):
    """(words, depth, m): trees whose depth-`depth` quotient has m edges."""
    out = [([X1 ** 5], 0, 1), ([X1], 1, 1), ([X1 ** 3, X1 * X1], 0, 1)]
    for k in range(1, 8):
        for m in (2 ** k, 2 ** k + 1):
            out.append(([lattice_loop(m)], 1, m))
    for m in (8, 16, 32):
        # the commutator of two loops returns to zero flow at depth 2
        u, v = lattice_loop(m), ~X2 * lattice_loop(m // 2) * X2
        out.append(([u, v, commutator(u, v)], 1, None))
    for n in (120, 400):
        # long shared prefixes: the path cover repeats the prefix nodes
        p = random_reduced_word(rng, n, 2)
        tails = [random_reduced_word(rng, rng.randrange(1, 12), 2)
                 for _ in range(3)]
        out.append(([p * t for t in tails[:2]], 1, None))
        out.append(([p, p * tails[0], p * tails[0] * tails[1]], 1, None))
        t = random_trivial_word(rng, 2, 2)
        out.append(([p * t, p * t * ~p, p * ~t], 1, None))
    return out


def test_engine_edge_cases_match_tuple_reference(rng):
    # m = 1, m = 2^k and 2^k + 1 (sibling ranges past m), shared prefixes
    # and flows that return to zero, against the tuple reference
    for words, depth, m in engine_edge_trees(rng):
        tree = PrefixTree(words)
        chain = SupportChain(tree, "det")
        if m is not None:
            assert chain.numbering_at(depth)[0] == m
        for d, ref in enumerate(tuple_reference_labels(tree, 3), start=1):
            assert same_partition(chain.labels_at(d).tolist(), ref), \
                ([w.serialize() for w in words], d)


@pytest.mark.parametrize("key_bits", [63, 24, 8])
def test_det_labels_are_the_same_packed_or_argsorted(monkeypatch, rng,
                                                     key_bits):
    # _dense_rank sorts packed (value, index) keys while they fit in
    # _KEY_BITS bits and argsorts past that, as a pass over about 2^21
    # steps must; fewer bits also make every pass go up one level only.
    # The labels are the dense ranks of the flows either way
    monkeypatch.setattr(wordproblem, "_KEY_BITS", key_bits)
    argsorts = []
    argsort = np.argsort

    def spy(x, *args, **kwargs):
        argsorts.append(len(x))
        return argsort(x, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    trees = [words for words, _, _ in engine_edge_trees(rng)]
    trees += [[random_reduced_word(rng, 1500, 3)],
              [random_trivial_word(rng, 3, 2) * random_reduced_word(rng, 90, 3)
               for _ in range(3)]]
    for words in trees:
        tree = PrefixTree(words)
        chain = SupportChain(tree, "det")
        for d, ref in enumerate(tuple_reference_labels(tree, 3), start=1):
            labels = chain.labels_at(d).tolist()
            assert same_partition(labels, ref), (key_bits, d)
            assert sorted(set(labels)) == list(range(len(set(ref))))
    assert bool(argsorts) == (key_bits < 63)


def test_zero_flows_get_the_root_label(rng):
    # a word trivial in S_{r,d} ends on the zero flow at depth d, so the
    # zero tree must have one canonical id on every level
    for d in (1, 2, 3):
        for _ in range(4):
            w = random_trivial_word(rng, 2, d)
            p = random_reduced_word(rng, rng.randrange(0, 40), 2)
            words = [w, p * w * ~p, w * w]
            tree = PrefixTree(words)
            labels = SupportChain(tree, "det").labels_at(d)
            for x in words:
                end = tree.add_word(x)[-1]
                assert labels[end] == labels[0], (d, x.serialize())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), prefix=st.integers(0, 60),
       tails=st.lists(st.tuples(st.integers(0, 90), st.integers(0, 2)),
                      min_size=1, max_size=3))
def test_engine_partition_property(seed, prefix, tails):
    # 1-3 words with a shared prefix; each tail is random or in F^(1)/F^(2)
    g = random.Random(seed)
    p = random_reduced_word(g, prefix, 2)
    words = [p * (random_reduced_word(g, n, 2) if kind == 0
                  else random_trivial_word(g, 2, kind))
             for n, kind in tails]
    tree = PrefixTree(words)
    chain = SupportChain(tree, "det")
    for d, ref in enumerate(tuple_reference_labels(tree, 3), start=1):
        assert same_partition(chain.labels_at(d).tolist(), ref)


def edges_by_reference(eid, ref_eid, dirs, ref_dirs, V):
    """Per reference edge, the set of (engine edge, engine dir x reference
    dir) pairs of the tree edges that reference edge holds."""
    out = {}
    for v in range(1, V):
        out.setdefault(ref_eid[v], set()).add(
            (int(eid[v]), int(dirs[v]) * ref_dirs[v]))
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.integers(2, 4),
       prefix=st.integers(0, 40),
       tails=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 2)),
                      min_size=1, max_size=3))
def test_numbering_matches_reference_edges_property(seed, r, prefix, tails):
    # 1-3 words with a shared prefix, each tail random or in F^(1)/F^(2).
    # Exact labels: the (source class, generator) keys give the partition
    # of number_tree_edges's canonical triples, with one relative sign per
    # edge.  Monte Carlo labels: each true edge maps into one engine edge,
    # with one relative sign, at B = 1 and at the default bound
    g = random.Random(seed)
    p = random_reduced_word(g, prefix, r)
    words = [p * (random_reduced_word(g, n, r) if kind == 0
                  else random_trivial_word(g, r, kind, conjugator_len=1))
             for n, kind in tails]
    tree = PrefixTree(words)
    V = len(tree)
    ref_labels = [[0] * V] + tuple_reference_labels(tree, 2)
    det = SupportChain(tree, "det")
    mcs = [SupportChain(tree, "mc", rng=random.Random(seed), cube_bound=B)
           for B in (1, V ** 3)]
    for depth, labels in enumerate(ref_labels):
        ref_m, ref_eid, ref_dirs = number_tree_edges(tree, labels)
        m, eid, dirs = det.numbering_at(depth)
        assert m == ref_m
        assert same_partition(eid[1:].tolist(), ref_eid[1:])
        groups = edges_by_reference(eid, ref_eid, dirs, ref_dirs, V)
        assert all(len(pairs) == 1 for pairs in groups.values())
        for chain in mcs:
            m, eid, dirs = chain.numbering_at(depth)
            assert m <= ref_m and set(eid[1:].tolist()) == set(range(m))
            groups = edges_by_reference(eid, ref_eid, dirs, ref_dirs, V)
            assert all(len(pairs) == 1 for pairs in groups.values())


def test_numbering_sorts_nothing(monkeypatch):
    # at low rank the edge numbering is one counting pass over class x
    # generator slots
    tree = PrefixTree([random_trivial_word(random.Random(2), 3, 2)])
    chain = SupportChain(tree, "det")
    chain.labels_at(2)

    def no_sort(*args, **kwargs):
        raise AssertionError("numbering_at sorted")

    for name in ("unique", "sort", "argsort", "lexsort"):
        monkeypatch.setattr(np, name, no_sort)
    for depth in (0, 1, 2):
        m, eid, dirs = chain.numbering_at(depth)
        assert m > 0 and eid.max() == m - 1


def test_det_refinement_calls_no_unique_and_counts_no_steps(monkeypatch):
    # a leaf id changes by the step's sign and each pass ranks its ids by
    # one sort, so neither np.unique nor per-step edge counts are needed
    def forbidden(*args, **kwargs):
        raise AssertionError("called by the deterministic refinement")

    monkeypatch.setattr(np, "unique", forbidden)
    g = random.Random(4)
    w = random_trivial_word(g, 3, 2) * random_reduced_word(g, 200, 3)
    labels = SupportChain(PrefixTree([w]), "det").labels_at(3)
    assert labels.max() > 0


@pytest.mark.parametrize("mode", ["det", "mc"])
def test_numbering_is_the_same_counted_or_sorted(monkeypatch, mode):
    # past _SLOTS_PER_NODE slots per node the keys are numbered by
    # np.unique instead; the ids, and so the Monte Carlo anchors that
    # follow them, are the same either way, at low and at high rank
    def numberings(slots_per_node, words, seed):
        monkeypatch.setattr(wordproblem, "_SLOTS_PER_NODE", slots_per_node)
        chain = SupportChain(PrefixTree(words), mode, rng=random.Random(seed),
                             cube_bound=10 ** 6)
        return [tuple(x.tolist() if hasattr(x, "tolist") else x
                      for x in chain.numbering_at(k)) for k in range(3)]

    for seed in range(30):
        g = random.Random(seed)
        r = (2, 5, 40, 3000)[seed % 4]
        words = [random_reduced_word(g, g.randrange(0, 60), r)
                 * random_trivial_word(g, r, g.randrange(1, 3),
                                       conjugator_len=1)
                 for _ in range(g.randrange(1, 4))]
        assert numberings(0, words, seed) == \
            numberings(10 ** 9, words, seed), (seed, r)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.integers(0, 2))
def test_word_problem_matches_oracle_equality_property(seed, kind):
    # w w'^-1 = 1 in S_{2,2} exactly when w and w' have equal Magnus forms;
    # w' is random, or w times a word of F^(1) or of F^(2)
    g = random.Random(seed)
    w = random_reduced_word(g, g.randrange(0, 9), 2)
    if kind == 0:
        w2 = random_reduced_word(g, g.randrange(0, 9), 2)
    else:
        w2 = w * random_trivial_word(g, 2, kind, conjugator_len=1)
    assert word_problem(w * ~w2, 2, 2) == \
        (form_long(w, 2, 2) == form_long(w2, 2, 2))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.integers(0, 3))
def test_word_problem_matches_oracle_equality_property_depth3(seed, kind):
    # the same at d = 3, which decides by the flow on the depth-2 quotient
    # and so reads the depth-1 and depth-2 labels: w' is random, or w
    # times a word of F^(1), F^(2) or F^(3), the last trivial in S_{2,3}
    g = random.Random(seed)
    w = random_reduced_word(g, g.randrange(0, 9), 2)
    if kind == 0:
        w2 = random_reduced_word(g, g.randrange(0, 9), 2)
    else:
        w2 = w * random_trivial_word(g, 2, kind, conjugator_len=1)
    assert word_problem(w * ~w2, 2, 3) == \
        (form_long(w, 2, 3) == form_long(w2, 2, 3))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.integers(0, 2),
       n=st.integers(1, 120))
def test_zero_flow_iff_next_depth_joins_root_and_end_property(seed, kind, n):
    # the flow test word_problem decides by: w's flow on the depth-k
    # quotient is zero iff the exact depth-(k+1) labels join its ends;
    # w is random, or in F^(1) or F^(2), so both sides occur at every k
    g = random.Random(seed)
    w = (random_reduced_word(g, n, 2) if kind == 0
         else random_trivial_word(g, 2, kind))
    tree = PrefixTree([w])
    chain = SupportChain(tree, "det")
    (path,) = tree.paths
    for k in range(3):
        labels = chain.labels_at(k + 1)
        assert (not chain.flow_vector(k, path).any()) == \
            (labels[0] == labels[path[-1]]), (k, kind)


@pytest.mark.parametrize("bound", [1, None])
def test_mc_true_implies_same_seed_labels_join_the_ends(bound):
    # a True from word_problem implies a True from the depth-d labels of a
    # chain with the same seed on the tree it refines, that of w's cyclic
    # core: zero flow at depth d-1 means equal linear forms.  With B =
    # 1 those labels join the ends of some nontrivial words of F^(d-1)
    # that the flow test rejects
    g = random.Random(17)
    fewer_errors = 0
    for seed in range(200):
        d = 2 + seed % 2
        w = random_trivial_word(g, 2, d - 1, conjugator_len=2)
        if seed % 5 == 0:
            w = random_trivial_word(g, 2, d)
        B = bound if bound is not None else len(w) ** 3
        says = word_problem(w, 2, d, mode="mc", rng=random.Random(seed),
                            cube_bound=bound)
        core = wordproblem._cyclic_core(w)
        tree = PrefixTree([core])
        chain = SupportChain(tree, "mc", rng=random.Random(seed),
                             cube_bound=B)
        labels = chain.labels_at(d)
        ref = labels[0] == labels[tree.add_word(core)[-1]]
        if says:
            assert ref, (seed, d)
        fewer_errors += ref and not says
    if bound == 1:
        assert fewer_errors > 0


def test_word_problem_memory_is_linear():
    # a 16k-letter word of F^(2) refined to depth 3 stays within 10 MB of
    # traced allocations (an intern table of tuples needs over twice that),
    # at rank 2, at rank 8, where the edge numbering has 8 generator slots
    # per class, and at rank 4096, where class x generator slots would
    # take 512 MB
    for r in (2, 8, 4096):
        g = random.Random(3)
        w = Word((), rank=r)
        while len(w) < 1 << 14:
            w = w * random_trivial_word(g, r, 2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            SupportChain(PrefixTree([w]), "det").labels_at(3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20, (r, peak)


def test_mc_word_problem_memory_is_linear():
    # a 16k-letter word of F^(3), decided by Monte Carlo at d = 3, refines
    # depths 1 and 2 within 2.4 MB of traced allocations, the room of
    # about 19 int64 arrays over its nodes: the linear forms are summed
    # over the nodes in place, with no root-path cover (that took 2.76 MB)
    g = random.Random(3)
    w = Word((), rank=2)
    while len(w) < 1 << 14:
        w = w * random_trivial_word(g, 2, 3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert word_problem(w, 2, 3, mode="mc", rng=random.Random(1))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2.4 * 2 ** 20, peak
