import random

import pytest

from freesolv import oracle
from freesolv.words import Word, commutator, parse, random_reduced_word
from freesolv.wordproblem import SupportChain
from freesolv.xdigraph import PrefixTree
from graph_reference import (Flow, NotTraceable, bouquet, flow_of,
                             graph_morphism, is_circulation, push_forward,
                             quotient_by_labeling, tree_graph, update_step)

C = commutator(parse("x1"), parse("x2"))
FIG1 = parse("x2 x1 x2 x1 x2 X1 x2^-3 X1")


def abelianized_labels(w):
    labs, vec = [], [0, 0]
    labs.append(tuple(vec))
    for s in w.letters:
        vec[abs(s) - 1] += 1 if s > 0 else -1
        labs.append(tuple(vec))
    return labs


def grid_support(w):
    """Support of w in Cay(Z^2), vertices labeled by exponent vectors."""
    t = PrefixTree([w])
    return quotient_by_labeling(t, abelianized_labels(w)), t


def test_flow_of_empty_word():
    g = bouquet(2)
    assert flow_of(g, Word(())).values == (0, 0)


def test_flow_of_four_cycle():
    g, _ = grid_support(C)
    f = flow_of(g, C)
    # canonical edge order (0,1,x2),(0,2,x1),(1,3,x1),(2,3,x2); the trace
    # runs the x1/x2 edges out of the root forward and the others backward
    assert f.values == (-1, 1, -1, 1)
    assert sorted(f.values) == [-1, -1, 1, 1]
    assert is_circulation(f)


def test_flow_balance_properties(rng):
    for _ in range(30):
        w = random_reduced_word(rng, rng.randrange(1, 9), 2)
        g = tree_graph(PrefixTree([w]))
        f = flow_of(g, w)
        sigma = f.balance()
        assert sigma[0] == 1 and sigma[len(w)] == -1
        assert all(s == 0 for i, s in enumerate(sigma) if i not in (0, len(w)))
        assert max(abs(v) for v in f.values) <= len(w)


def test_flow_figure1_grid_matches_fox_derivatives():
    g, t = grid_support(FIG1)
    f = flow_of(g, FIG1)
    assert is_circulation(f)
    labels = abelianized_labels(FIG1)
    dense = {lab: i for i, lab in enumerate(sorted(set(labels)))}
    def edge_value(vec, c):
        o = dense[tuple(vec)]
        tgt = list(vec)
        tgt[c - 1] += 1
        hit = g.step(o, c)
        assert hit is not None and hit[0] == dense[tuple(tgt)]
        return f.values[hit[1]]
    # nonzero exactly where the Fox derivatives have monomials
    for i in (1, 2):
        deriv = oracle.fox_derivative(FIG1, i, 2, 1)
        support = {form.base: coeff for form, coeff in deriv.terms.items()}
        for vec, coeff in support.items():
            assert edge_value(vec, i) == coeff
    nonzero = sum(1 for v in f.values if v)
    predicted = sum(len(oracle.fox_derivative(FIG1, i, 2, 1).terms)
                    for i in (1, 2))
    assert nonzero == predicted == 8


def test_not_traceable():
    with pytest.raises(NotTraceable):
        flow_of(tree_graph(PrefixTree([parse("x1 x2")])), parse("x2"))


def test_is_circulation_examples():
    g = tree_graph(PrefixTree([parse("x1")]))
    assert not is_circulation(flow_of(g, parse("x1")))
    assert is_circulation(Flow(g, (0,)))


def test_update_step():
    g = bouquet(2)
    f = Flow(g, (0, 0))
    f1 = update_step(f, 0, 1)
    assert f1.values == (1, 0)
    assert update_step(f1, 0, -1) == f
    w = parse("x1 x2 X1 x2")
    _, steps = g.trace(w)
    acc = Flow(g, (0, 0))
    for eid, d in steps:
        acc = update_step(acc, eid, d)
    assert acc == flow_of(g, w)


def test_flows_compare_only_on_same_graph():
    f1 = flow_of(bouquet(2), parse("x1"))
    f2 = flow_of(bouquet(2), parse("x1"))
    assert f1 != f2  # distinct graph objects
    assert f1 == flow_of(f1.graph, parse("x1"))


def test_push_forward_sums_fibers(rng):
    # words with equal flows upstairs push to equal flows downstairs
    for _ in range(20):
        w = random_reduced_word(rng, rng.randrange(2, 9), 2)
        g = tree_graph(PrefixTree([w]))
        b = bouquet(2)
        f = flow_of(g, w)
        pf = push_forward(f, b)
        assert pf == flow_of(b, w)
        phi = graph_morphism(g, b)
        assert all(v == 0 for v in phi)


def test_theorem_pi_small():
    # u = v in S_{r,d+1} iff equal flows on the common depth-d support
    words = list(oracle.reduced_words(2, 3))
    for d in (1, 2):
        for u in words:
            for v in words:
                t = PrefixTree([u, v])
                chain = SupportChain(t, "det")
                labels = chain.labels_at(d).tolist()
                g = quotient_by_labeling(t, labels)
                fu, fv = flow_of(g, u), flow_of(g, v)
                same_elt = oracle.magnus_form(u * ~v, 2, d + 1).is_identity()
                assert (fu.values == fv.values) == same_elt, \
                    (u.serialize(), v.serialize(), d)
