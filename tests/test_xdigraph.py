import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freesolv import oracle
from freesolv.words import Word, commutator, parse, random_reduced_word
from freesolv.wordproblem import SupportChain
from freesolv.xdigraph import FoldConflict, PrefixTree
from graph_reference import (XDigraph, bouquet, edge_numbering, iota,
                             iota_language, quotient_by_labeling,
                             tree_diameter, tree_graph)

C = commutator(parse("x1"), parse("x2"))


def abelianized_labels(w):
    labs = []
    vec = [0, 0]
    labs.append(tuple(vec))
    for s in w.letters:
        vec[abs(s) - 1] += 1 if s > 0 else -1
        labs.append(tuple(vec))
    return labs


def test_path_graph():
    assert tree_graph(PrefixTree([Word(())])).num_vertices == 1
    g = tree_graph(PrefixTree([parse("x1 x2")]))
    assert g.num_vertices == 3
    assert g.edges == ((0, 1, 1), (1, 2, 2))
    for L in (1, 4, 7):
        w = random_reduced_word(random.Random(L), L, 2)
        assert tree_graph(PrefixTree([w])).num_vertices == L + 1


def test_prefix_tree():
    t = PrefixTree([parse("x1 x2"), parse("x1 x3")])
    assert len(t) == 4
    t2 = PrefixTree([Word(())])
    assert len(t2) == 1
    u, v = parse("x1 x2 x1"), parse("x2 X1")
    t3 = PrefixTree([u, v, commutator(u, v)])
    assert tree_diameter(t3) <= 3 * (len(u) + len(v))


def dict_trie(words):
    """Reference prefix tree: one (node, letter) -> child lookup per letter."""
    child, parents, letters, word_nodes = {}, [-1], [0], {}
    for w in words:
        node, path = 0, [0]
        for s in w.letters:
            if (node, s) not in child:
                child[node, s] = len(parents)
                parents.append(node)
                letters.append(s)
            node = child[node, s]
            path.append(node)
        word_nodes.setdefault(tuple(w.letters), path)
    return parents, letters, list(word_nodes.items())


LETTERS = st.sampled_from([1, -1, 2, -2, 3])


@st.composite
def word_sets(draw):
    # each word is a prefix of one base word and a tail, so prefixes are
    # shared, some words are prefixes of others, and the empty word occurs;
    # a word may also repeat an earlier one
    base = Word(draw(st.lists(LETTERS, max_size=12))).letters
    words = []
    for _ in range(draw(st.integers(1, 6))):
        if words and draw(st.booleans()):
            words.append(draw(st.sampled_from(words)))
        else:
            j = draw(st.integers(0, len(base)))
            words.append(Word(base[:j] + tuple(draw(st.lists(LETTERS,
                                                             max_size=6)))))
    return words


def tree_lists(tree):
    """A PrefixTree's int64 arrays as (parents, letters, word_nodes) lists."""
    arrays = [tree.parents, tree.letters, *tree.word_nodes.values()]
    assert all(a.dtype == np.int64 for a in arrays)
    return (tree.parents.tolist(), tree.letters.tolist(),
            [(k, p.tolist()) for k, p in tree.word_nodes.items()])


@settings(max_examples=300, deadline=None)
@given(words=word_sets(), data=st.data())
def test_prefix_tree_matches_a_per_letter_trie(words, data):
    want = dict_trie(words)
    tree = PrefixTree(words)
    assert tree_lists(tree) == want
    # the same words, some of them added after construction
    i = data.draw(st.integers(0, len(words)))
    grown = PrefixTree(words[:i])
    for w in words[i:]:
        assert grown.add_word(w).tolist() == dict(want[2])[tuple(w.letters)]
    assert tree_lists(grown) == want


def test_add_word_after_single_word_tree(rng):
    # a word added to a one-word tree reuses the path's nodes
    for _ in range(30):
        w = random_reduced_word(rng, rng.randrange(0, 40), 2)
        x = w.prefix(rng.randrange(0, len(w) + 1)) * \
            random_reduced_word(rng, rng.randrange(0, 20), 2)
        grown = PrefixTree([w])
        path = grown.add_word(x)
        both = PrefixTree([w, x])
        assert tree_lists(grown) == tree_lists(both)
        assert path.tolist() == both.word_nodes[tuple(x.letters)].tolist()


def test_quotient_constant_labels_gives_bouquet():
    w = parse("x1 x2 X1 X2")
    t = PrefixTree([w])
    g = quotient_by_labeling(t, [0] * len(t))
    assert g.num_vertices == 1
    assert g.edges == ((0, 0, 1), (0, 0, 2))


def test_quotient_injective_labels_is_tree():
    w = parse("x1 x2 x1")
    t = PrefixTree([w])
    g = quotient_by_labeling(t, list(range(len(t))))
    assert g.isomorphic(tree_graph(t))


def test_quotient_abelianization_four_cycle():
    t = PrefixTree([C])
    g = quotient_by_labeling(t, abelianized_labels(C))
    assert g.num_vertices == 4 and len(g.edges) == 4
    # the unit grid square: labels sort as (0,0)<(0,1)<(1,0)<(1,1)
    assert g.edges == ((0, 1, 2), (0, 2, 1), (1, 3, 1), (2, 3, 2))
    assert g.root == 0


def test_quotient_fold_conflict():
    # identifying prefixes 0 and 2 of x1 x1 x1 gives the class of 0 two
    # distinct x1-successors, so the labeling cannot define a folded graph
    t = PrefixTree([parse("x1 x1 x1")])
    with pytest.raises(FoldConflict):
        quotient_by_labeling(t, [0, 1, 0, 2])
    # identifying 0 and 2 alone folds fine (a 2-cycle), no conflict
    t2 = PrefixTree([parse("x1 x1")])
    g = quotient_by_labeling(t2, [0, 1, 0])
    assert g.num_vertices == 2 and len(g.edges) == 2


def test_trace():
    w = parse("x2 x1 X2")
    g = tree_graph(PrefixTree([w]))
    vs, steps = g.trace(w)
    assert vs[0] == g.root and vs[-1] == 3 and len(steps) == 3
    assert g.trace(parse("x1")) is None
    b = bouquet(1)
    vs, _ = b.trace(parse("x1^5"))
    assert vs[-1] == 0
    assert tree_graph(PrefixTree([parse("x1 x2")])).trace(parse("x2")) \
        is None


def test_edge_numbering_path():
    t = PrefixTree([parse("x1 x1")])
    eps = edge_numbering(t, [0, 1, 2])
    assert len(eps) == 2 and abs(eps[0]) != abs(eps[1])


def test_edge_numbering_loop():
    t = PrefixTree([parse("x1")])
    eps = edge_numbering(t, [0, 0])
    assert eps == [1]


def test_edge_numbering_four_cycle():
    # four distinct edges on the grid square; letters 3 and 4 run against
    # the canonical orientation of the edges they traverse
    t = PrefixTree([C])
    eps = edge_numbering(t, abelianized_labels(C))
    assert eps == [2, 4, -3, -1]
    assert sorted(abs(e) for e in eps) == [1, 2, 3, 4]
    assert all(e > 0 for e in eps[:2]) and all(e < 0 for e in eps[2:])


def test_edge_numbering_pairing_property(rng):
    # same number iff same quotient edge, negated iff inverse edge
    for _ in range(25):
        w = random_reduced_word(rng, rng.randrange(2, 10), 2)
        t = PrefixTree([w])
        chain = SupportChain(t, "det")
        labels = chain.labels_at(1).tolist()
        eps = edge_numbering(t, labels)
        nodes = t.word_nodes[tuple(w.letters)]
        def arrow(i):
            a, b = labels[nodes[i - 1]], labels[nodes[i]]
            s = w.letters[i - 1]
            return (a, b, s) if s > 0 else (b, a, -s)
        for i in range(1, len(w) + 1):
            for j in range(1, len(w) + 1):
                if eps[i - 1] == eps[j - 1]:
                    assert arrow(i) == arrow(j)
                if eps[i - 1] == -eps[j - 1]:
                    ai, aj = arrow(i), arrow(j)
                    assert ai == (aj[1], aj[0], aj[2]) or \
                        aj == (ai[1], ai[0], ai[2])


def test_iota_fixes_path_graph():
    for text in ("x1", "x1 x2 X1", "x2 x2 x2"):
        w = parse(text)
        path = tree_graph(PrefixTree([w]))
        assert iota(path, w).isomorphic(path)


def test_iota_bouquet_commutator_gives_four_cycle():
    g = iota(bouquet(2), C)
    t = PrefixTree([C])
    assert g.isomorphic(quotient_by_labeling(t, abelianized_labels(C)))


def test_iota_convergence_small():
    for w in oracle.reduced_words(2, 6):
        if len(w) == 0:
            continue
        steps_allowed = max(1, math.ceil(math.log(len(w), 3)))
        g = bouquet(2)
        target = tree_graph(PrefixTree([w]))
        for _ in range(steps_allowed):
            if g.isomorphic(target):
                break
            g = iota(g, w)
        assert g.isomorphic(target), w.serialize()


def test_fold_check_at_construction():
    with pytest.raises(FoldConflict):
        XDigraph(3, 0, [(0, 1, 1), (0, 2, 1)])
    with pytest.raises(FoldConflict):
        XDigraph(3, 0, [(1, 0, 1), (2, 0, 1)])  # two x1-edges into 0


def traced_words(g, r, max_len):
    """Yield (letters, flow) for every nonempty reduced word over x1..xr
    of length <= max_len that traces in g, by a DFS over g's steps.

    A word traces iff all its prefixes do, so pruning at the first
    untraceable letter visits exactly the traceable words.  Both yielded
    lists are live state: read them before resuming.
    """
    letters: list[int] = []
    flow = [0] * len(g.edges)

    def walk(v):
        for s in range(-r, r + 1):
            if s == 0 or (letters and letters[-1] == -s):
                continue
            hit = g.step(v, s)
            if hit is None:
                continue
            t, eid, d = hit
            letters.append(s)
            flow[eid] += d
            yield letters, flow
            if len(letters) < max_len:
                yield from walk(t)
            flow[eid] -= d
            letters.pop()

    yield from walk(g.root)


def test_girth_and_zero_flow_words():
    # zero-flow nontrivial traceable words are at least three times the
    # shortest cycle: exhaustively over small graphs and |w| <= 9
    double_cycle = XDigraph(2, 0, [(0, 1, 1), (1, 0, 2), (0, 1, 3)])
    grid = quotient_by_labeling(PrefixTree([C]), abelianized_labels(C))
    counts = []
    for g in (bouquet(2), double_cycle, grid):
        m = g.shortest_cycle()
        assert m is not None
        traced = zero = 0
        for letters, flow in traced_words(g, 3, 9):
            traced += 1
            if not any(flow):
                zero += 1
                assert len(letters) >= 3 * m, (letters, m)
        counts.append((traced, zero))
    # the same coverage as filtering all reduced rank-3 words of length <= 9
    assert counts == [(39364, 360), (1533, 12), (18, 0)]


def test_language_iota_recovers_prefix_tree(rng):
    # quotients of T(S) flow back to T(S) within ceil(log3 diameter) steps
    for _ in range(10):
        S = [random_reduced_word(rng, rng.randrange(1, 6), 2)
             for _ in range(rng.randrange(1, 4))]
        t = PrefixTree(S)
        D = max(tree_diameter(t), 1)
        g = quotient_by_labeling(t, [0] * len(t))
        steps = max(1, math.ceil(math.log(D, 3))) if D > 1 else 1
        for _ in range(steps):
            if g.isomorphic(tree_graph(t)):
                break
            g = iota_language(g, t)
        assert g.isomorphic(tree_graph(t))
