"""Reference model of the paper's graph view: X-digraphs, flows and iota.

This is the explicit flow picture of Myasnikov, Roman'kov, Ushakov and
Vershik (Trans. AMS 2010) that the solvers implement implicitly.  The
tests check the solvers against it; the shipped package does not use it.

A graph stores only its positive edges (origin, terminus, generator index);
the inverse edge of each is implicit.  Folding means: at most one outgoing
edge per (vertex, signed label), which makes traces unique.  The flow pi_w
counts, for each positive edge, signed traversals by the trace of w: +1
along the edge, -1 against it.  Flow values are indexed by the edge ids of
one specific graph; flows on different graphs never compare equal directly
(push them forward along a morphism instead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from freesolv.words import Word
from freesolv.xdigraph import FoldConflict, PrefixTree


class NotTraceable(Exception):
    """The word has no trace from the given start vertex."""


def _label_key(s: int) -> tuple[int, int]:
    # positive letters order before negative ones: x1 < x2 < ... < X1 < X2 < ...
    return (0, s) if s > 0 else (1, -s)


class XDigraph:
    """Rooted folded inverse X-digraph."""

    __slots__ = ("num_vertices", "root", "edges", "_out")

    def __init__(self, num_vertices: int, root: int,
                 edges: Iterable[tuple[int, int, int]]):
        canon = sorted(set((int(o), int(t), int(c)) for o, t, c in edges))
        out: dict[tuple[int, int], tuple[int, int]] = {}
        for eid, (o, t, c) in enumerate(canon):
            for key, val in (((o, c), (eid, 1)), ((t, -c), (eid, -1))):
                if key in out and out[key] != val:
                    raise FoldConflict(f"two edges at vertex {key[0]} with "
                                       f"label {key[1]}")
                out[key] = val
        self.num_vertices, self.root = num_vertices, root
        self.edges, self._out = tuple(canon), out

    def step(self, v: int, s: int) -> tuple[int, int, int] | None:
        """Follow the edge labeled s from v: (target, edge id, direction)."""
        hit = self._out.get((v, s))
        if hit is None:
            return None
        eid, direction = hit
        o, t, _ = self.edges[eid]
        return (t if direction > 0 else o, eid, direction)

    def trace(self, w: Word | Iterable[int]):
        """The unique path from the root spelling w, or None if some step
        is missing.  Returns (vertices, steps), steps as (edge id, direction).
        """
        v = self.root
        vertices = [v]
        steps: list[tuple[int, int]] = []
        for s in w:
            hit = self.step(v, s)
            if hit is None:
                return None
            v, eid, direction = hit
            vertices.append(v)
            steps.append((eid, direction))
        return vertices, steps

    def shortest_cycle(self) -> int | None:
        """Girth of the underlying (undirected, label-forgetting) graph.

        Loops count as cycles of length 1 and parallel edge pairs as 2.
        Returns None for a tree.
        """
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(self.num_vertices)}
        for eid, (o, t, _) in enumerate(self.edges):
            adj[o].append((t, eid))
            adj[t].append((o, eid))
        best = None
        for eid, (o, t, _) in enumerate(self.edges):
            if o == t:
                return 1
        for src in range(self.num_vertices):
            dist = {src: 0}
            par_edge = {src: -1}
            queue = [src]
            while queue:
                nxt = []
                for u in queue:
                    for (wv, eid) in adj[u]:
                        if wv not in dist:
                            dist[wv] = dist[u] + 1
                            par_edge[wv] = eid
                            nxt.append(wv)
                        elif eid != par_edge[u]:
                            cyc = dist[u] + dist[wv] + 1
                            if best is None or cyc < best:
                                best = cyc
                queue = nxt
        return best

    def isomorphic(self, other: "XDigraph") -> bool:
        """Rooted label-preserving isomorphism (unique if any, by foldedness)."""
        if (self.num_vertices != other.num_vertices
                or len(self.edges) != len(other.edges)):
            return False
        mapping = {self.root: other.root}
        queue = [self.root]
        while queue:
            u = queue.pop()
            labels = sorted((s for (v, s) in self._out if v == u), key=_label_key)
            for s in labels:
                mine = self.step(u, s)
                theirs = other.step(mapping[u], s)
                if theirs is None:
                    return False
                tu, _, _ = mine
                tv, _, _ = theirs
                if tu in mapping:
                    if mapping[tu] != tv:
                        return False
                else:
                    mapping[tu] = tv
                    queue.append(tu)
        # connectivity of self guarantees full cover; check other had nothing extra
        return len(mapping) == other.num_vertices

    def __repr__(self):
        return (f"XDigraph({self.num_vertices} vertices, "
                f"{len(self.edges)} edges, root={self.root})")


def bouquet(r: int) -> XDigraph:
    """One vertex with a loop for each of x1..xr."""
    return XDigraph(1, 0, [(0, 0, c) for c in range(1, r + 1)])


# -- prefix trees and Schreier supports as graphs --------------------------


def tree_graph(tree: PrefixTree) -> XDigraph:
    """The prefix tree as an X-digraph; for one word w, w's path graph."""
    edges = []
    for v in range(1, len(tree)):
        p, s = tree.parents[v], tree.letters[v]
        edges.append((p, v, s) if s > 0 else (v, p, -s))
    return XDigraph(len(tree), 0, edges)


def tree_diameter(tree: PrefixTree) -> int:
    """Diameter of the underlying undirected tree, in edges."""
    height = [0] * len(tree)  # longest path down from each node
    best = 0
    for v in range(len(tree) - 1, 0, -1):  # children before their parents
        p = tree.parents[v]
        best = max(best, height[p] + height[v] + 1)
        height[p] = max(height[p], height[v] + 1)
    return best


def schreier_graph(sup) -> XDigraph:
    """The traced part of a SchreierSupport's coset graph, as an X-digraph."""
    edges = set()
    for (u, s), (tgt, _) in sup.out.items():
        edges.add((u, tgt, s) if s > 0 else (tgt, u, -s))
    return XDigraph(len(sup.reps), 0, edges)


# -- quotients and edge numbering ------------------------------------------


def quotient_by_labeling(tree: PrefixTree, labeling: Sequence[Hashable]) -> XDigraph:
    """Collapse tree vertices with equal labels.

    Vertex ids are dense, assigned in sorted-label order.  Raises
    FoldConflict when the labeling does not induce a folded graph, which
    signals an invalid (non-distinguisher) labeling.
    """
    V = len(tree)
    if len(labeling) != V:
        raise ValueError("labeling length must match vertex count")
    distinct = sorted(set(labeling))
    dense = {lab: i for i, lab in enumerate(distinct)}
    ids = [dense[lab] for lab in labeling]
    edges = set()
    for v in range(1, V):
        p, s = tree.parents[v], tree.letters[v]
        a, b = ids[p], ids[v]
        edges.add((a, b, s) if s > 0 else (b, a, -s))
    return XDigraph(len(distinct), ids[0], edges)


def _canonical_edge(a: Hashable, b: Hashable, s: int):
    """Canonical key and direction for the inverse pair of one traversal.

    The lexicographically smaller of (origin, terminus, label-key) and its
    reverse names the pair; traversals agreeing with it count positively.
    """
    fwd = (a, b, _label_key(s))
    rev = (b, a, _label_key(-s))
    return (fwd, 1) if fwd <= rev else (rev, -1)


def number_tree_edges(tree: PrefixTree, labeling: Sequence[Hashable]):
    """Canonical numbering of the quotient edges traversed by the tree.

    Returns (m, eid, dirs): for each non-root node v, eid[v] in [0, m) is
    the canonical number of the quotient edge its parent edge maps to and
    dirs[v] = +-1 tells whether the traversal agrees with the canonical
    orientation.  Works for any labeling; no fold check.
    """
    V = len(tree)
    keys = [None] * V
    dirs = [0] * V
    for v in range(1, V):
        k, d = _canonical_edge(labeling[tree.parents[v]], labeling[v],
                               tree.letters[v])
        keys[v] = k
        dirs[v] = d
    order = {k: i for i, k in enumerate(sorted(set(keys[1:])))}
    eid = [0] * V
    for v in range(1, V):
        eid[v] = order[keys[v]]
    return len(order), eid, dirs


def edge_numbering(tree: PrefixTree,
                   labeling: Sequence[Hashable]) -> list[int]:
    """The edge-numbering function of a one-word tree's word.

    Entry j-1 is epsilon(j): positions traversing the same quotient edge
    share a number, inverse traversals get negated numbers, and numbers
    follow the lexicographic order of canonical edge triples, 1-based.
    Raises FoldConflict (via the quotient) for inconsistent labelings.
    """
    quotient_by_labeling(tree, labeling)  # fold check only
    m, eid, dirs = number_tree_edges(tree, labeling)
    (nodes,) = tree.paths
    return [dirs[v] * (eid[v] + 1) for v in nodes[1:]]


# -- the flow-quotient operator iota ---------------------------------------


def _prefix_flow_labels(G: XDigraph, tree: PrefixTree) -> list[tuple]:
    """Flow vector of each node's root path on G, as hashable labels:
    its parent's flow plus one step (parents precede children)."""
    at, flows = [G.root], [(0,) * len(G.edges)]
    for v in range(1, len(tree)):
        p = tree.parents[v]
        hit = G.step(at[p], tree.letters[v])
        if hit is None:
            raise NotTraceable("tree word not traceable in graph")
        tgt, eid, d = hit
        f = list(flows[p])
        f[eid] += d
        at.append(tgt)
        flows.append(tuple(f))
    return flows


def iota_language(G: XDigraph, tree: PrefixTree) -> XDigraph:
    """One step of the flow-quotient operator on a language support graph."""
    return quotient_by_labeling(tree, _prefix_flow_labels(G, tree))


def iota(G: XDigraph, w: Word) -> XDigraph:
    """Quotient of w's path graph by equality of prefix flows on G.

    Iterating from any support graph of w recovers the path graph within
    ceil(log3 |w|) steps.
    """
    return iota_language(G, PrefixTree([w]))


# -- flows -----------------------------------------------------------------


@dataclass(frozen=True)
class Flow:
    graph: XDigraph
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.graph.edges):
            raise ValueError("flow length must match edge count")

    def __eq__(self, other):
        return (isinstance(other, Flow) and self.graph is other.graph
                and self.values == other.values)

    def balance(self) -> list[int]:
        """sigma(v) = outgoing minus incoming flow at each vertex."""
        sigma = [0] * self.graph.num_vertices
        for (o, t, _), f in zip(self.graph.edges, self.values):
            sigma[o] += f
            sigma[t] -= f
        return sigma


def flow_of(G: XDigraph, w: Word) -> Flow:
    """The flow of w on G; raises NotTraceable when w has no trace."""
    tr = G.trace(w)
    if tr is None:
        raise NotTraceable(f"{w!r} does not trace in {G!r}")
    _, steps = tr
    vals = [0] * len(G.edges)
    for eid, d in steps:
        vals[eid] += d
    return Flow(G, tuple(vals))


def is_circulation(f: Flow) -> bool:
    return all(s == 0 for s in f.balance())


def update_step(f: Flow, edge_id: int, direction: int) -> Flow:
    """One incremental letter step: add +-1 to a single component."""
    if direction not in (1, -1):
        raise ValueError("direction must be +-1")
    vals = list(f.values)
    vals[edge_id] += direction
    return Flow(f.graph, tuple(vals))


def graph_morphism(G: XDigraph, H: XDigraph) -> list[int]:
    """The unique rooted label-preserving morphism G -> H, as a vertex map.

    Raises ValueError if no morphism exists.  Uniqueness comes from H
    being folded and G connected.
    """
    phi = [-1] * G.num_vertices
    phi[G.root] = H.root
    queue = [G.root]
    while queue:
        u = queue.pop()
        for (v, s), (eid, d) in G._out.items():
            if v != u:
                continue
            o, t, _ = G.edges[eid]
            tgt = t if d > 0 else o
            hit = H.step(phi[u], s)
            if hit is None:
                raise ValueError("no label-preserving morphism exists")
            if phi[tgt] == -1:
                phi[tgt] = hit[0]
                queue.append(tgt)
            elif phi[tgt] != hit[0]:
                raise ValueError("no label-preserving morphism exists")
    return phi


def push_forward(f: Flow, H: XDigraph) -> Flow:
    """Sum f over the fibers of the morphism f.graph -> H.

    Realizes the flow identity pi(e) = sum over preimage edges; words with
    equal flows upstairs get equal flows downstairs.
    """
    G = f.graph
    phi = graph_morphism(G, H)
    vals = [0] * len(H.edges)
    for (o, t, c), fv in zip(G.edges, f.values):
        hit = H.step(phi[o], c)
        if hit is None or hit[0] != phi[t]:
            raise ValueError("morphism does not carry edge")
        _, eid, d = hit
        vals[eid] += d * fv
    return Flow(H, tuple(vals))
