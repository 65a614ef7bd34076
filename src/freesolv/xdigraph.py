"""Rooted folded inverse X-digraphs and prefix trees.

A graph stores only its positive edges (origin, terminus, generator index);
the inverse edge of each is implicit.  Folding means: at most one outgoing
edge per (vertex, signed label), which makes traces unique.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Hashable, Iterable, Sequence

from .words import Word


class FoldConflict(Exception):
    """A labeling forced two distinct targets for one (vertex, signed label)."""


class NotTraceable(Exception):
    """The word has no trace from the given start vertex."""


def _label_key(s: int) -> tuple[int, int]:
    # positive letters order before negative ones: x1 < x2 < ... < X1 < X2 < ...
    return (0, s) if s > 0 else (1, -s)


class XDigraph:
    """Immutable rooted folded inverse X-digraph."""

    __slots__ = ("num_vertices", "root", "edges", "_out")

    def __init__(self, num_vertices: int, root: int,
                 edges: Iterable[tuple[int, int, int]]):
        canon = sorted(set((int(o), int(t), int(c)) for o, t, c in edges))
        out: dict[tuple[int, int], tuple[int, int]] = {}
        for eid, (o, t, c) in enumerate(canon):
            if c <= 0:
                raise ValueError("positive edges must carry positive labels")
            if not (0 <= o < num_vertices and 0 <= t < num_vertices):
                raise ValueError("edge endpoint out of range")
            for key, val in (((o, c), (eid, 1)), ((t, -c), (eid, -1))):
                if key in out and out[key] != val:
                    raise FoldConflict(f"two edges at vertex {key[0]} with "
                                       f"label {key[1]}")
                out[key] = val
        if not 0 <= root < num_vertices:
            raise ValueError("root out of range")
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "_out", out)

    def __setattr__(self, *a):
        raise AttributeError("XDigraph is immutable")

    def step(self, v: int, s: int) -> tuple[int, int, int] | None:
        """Follow the edge labeled s from v: (target, edge id, direction)."""
        hit = self._out.get((v, s))
        if hit is None:
            return None
        eid, direction = hit
        o, t, _ = self.edges[eid]
        return (t if direction > 0 else o, eid, direction)

    def trace(self, w: Word | Iterable[int], start: int | None = None):
        """The unique path spelling w, or None if some step is missing.

        Returns (vertices, steps) with steps a list of (edge id, direction).
        """
        v = self.root if start is None else start
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

    def to_dot(self) -> str:
        lines = ["digraph G {", f'  root = "{self.root}";']
        for v in range(self.num_vertices):
            shape = "doublecircle" if v == self.root else "circle"
            lines.append(f'  {v} [shape={shape}];')
        for (o, t, c) in self.edges:
            lines.append(f'  {o} -> {t} [label="x{c}"];')
        lines.append("}")
        return "\n".join(lines)

    def isomorphic(self, other: "XDigraph") -> bool:
        """Rooted label-preserving isomorphism (unique if any, by foldedness)."""
        if (self.num_vertices != other.num_vertices
                or len(self.edges) != len(other.edges)):
            return False
        mapping = {self.root: other.root}
        queue = [self.root]
        seen = {self.root}
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
                    seen.add(tu)
                    queue.append(tu)
        # connectivity of self guarantees full cover; check other had nothing extra
        return len(mapping) == other.num_vertices

    def __repr__(self):
        return (f"XDigraph({self.num_vertices} vertices, "
                f"{len(self.edges)} edges, root={self.root})")


def bouquet(r: int) -> XDigraph:
    """One vertex with a loop for each of x1..xr."""
    return XDigraph(1, 0, [(0, 0, c) for c in range(1, r + 1)])


class PrefixTree:
    """Prefix-closed tree of reduced words, rooted at the empty word.

    Node 0 is the root; every other node was created by extending its
    parent with one signed letter.  Words never backtrack (they are
    reduced), so the tree is folded as an X-digraph.
    """

    def __init__(self, words: Iterable[Word] = ()):
        self.parents: list[int] = [-1]
        self.letters: list[int] = [0]
        self.word_nodes: dict[tuple[int, ...], list[int]] = {}
        self._sorted: list[tuple[int, ...]] = []  # word_nodes keys, sorted
        self._graph: XDigraph | None = None
        for w in words:
            self.add_word(w)

    def __len__(self) -> int:
        return len(self.parents)

    def add_word(self, w: Word) -> list[int]:
        """Insert all prefixes of w; returns the node path (positions 0..|w|).

        Every node is a prefix of a word already inserted, so w's deepest
        existing node ends its longest common prefix with one of them, and
        that longest prefix is shared with a lexicographic neighbour of w
        among the sorted words.  The path reuses the neighbour's nodes up
        to there; the rest of w is one fresh branch, appended as a block.
        Nodes are numbered in insertion order, parents before children.
        """
        key = tuple(w.letters)
        got = self.word_nodes.get(key)
        if got is not None:
            return got
        at = bisect_left(self._sorted, key)
        self._sorted.insert(at, key)
        j, path = 0, [0]
        for i in (at - 1, at + 1):
            if 0 <= i < len(self._sorted):
                nb = self._sorted[i]
                k = _common_prefix(key, nb)
                if k > j:
                    j, path = k, self.word_nodes[nb][:k + 1]
        if j < len(key):
            start = len(self.parents)
            self.parents.append(path[-1])
            self.parents.extend(range(start, start + len(key) - j - 1))
            self.letters.extend(key[j:])
            path.extend(range(start, start + len(key) - j))
            self._graph = None
        self.word_nodes[key] = path
        return path

    def node_of_prefix(self, w: Word, j: int) -> int:
        return self.word_nodes[tuple(w.letters)][j]

    def children(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(len(self.parents))]
        for v in range(1, len(self.parents)):
            out[self.parents[v]].append(v)
        return out

    @property
    def graph(self) -> XDigraph:
        if self._graph is None:
            edges = []
            for v in range(1, len(self.parents)):
                p, s = self.parents[v], self.letters[v]
                edges.append((p, v, s) if s > 0 else (v, p, -s))
            self._graph = XDigraph(len(self.parents), 0, edges)
        return self._graph

    def diameter(self) -> int:
        """Diameter of the underlying undirected tree, in edges."""
        adj = self.children()
        def far(src: int) -> tuple[int, int]:
            dist = {src: 0}
            queue = [src]
            best = (0, src)
            while queue:
                u = queue.pop()
                for v in adj[u] + ([self.parents[u]] if self.parents[u] >= 0 else []):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        if dist[v] > best[0]:
                            best = (dist[v], v)
                        queue.append(v)
            return best
        _, a = far(0)
        d, _ = far(a)
        return d


def _common_prefix(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Length of the longest common prefix, by slice compares: it doubles
    a known-equal length, then bisects the last step."""
    hi = 1
    while hi <= min(len(a), len(b)) and a[:hi] == b[:hi]:
        hi *= 2
    lo, hi = hi // 2, min(hi, len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def prefix_tree(words: Iterable[Word]) -> PrefixTree:
    return PrefixTree(words)


def path_graph(w: Word) -> XDigraph:
    """The line graph of w's prefixes; equals prefix_tree({w}) as a graph."""
    return PrefixTree([w]).graph


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


def edge_numbering(tree: PrefixTree, labeling: Sequence[Hashable],
                   word: Word | None = None) -> list[int]:
    """The edge-numbering function for a word of the tree.

    Entry j-1 is epsilon(j): positions traversing the same quotient edge
    share a number, inverse traversals get negated numbers, and numbers
    follow the lexicographic order of canonical edge triples, 1-based.
    Raises FoldConflict (via the quotient) for inconsistent labelings.
    """
    quotient_by_labeling(tree, labeling)  # fold check only
    m, eid, dirs = number_tree_edges(tree, labeling)
    if word is None:
        if len(tree.word_nodes) != 1:
            raise ValueError("word required for a multi-word tree")
        nodes = next(iter(tree.word_nodes.values()))
    else:
        nodes = tree.word_nodes[tuple(word.letters)]
    return [dirs[v] * (eid[v] + 1) for v in nodes[1:]]


def _prefix_flow_labels(G: XDigraph, tree: PrefixTree) -> list[tuple]:
    """Flow vector of每 node's root path on G, as hashable labels."""
    # DFS with incremental update keeps this linear in tree size times |E(G)|
    # for the snapshots; fine at the scales iota is used for.
    V = len(tree)
    kids = tree.children()
    cur = [0] * len(G.edges)
    at = [G.root] * V
    labels: list[tuple | None] = [None] * V
    labels[0] = tuple(cur)
    stack: list[tuple[int, bool]] = [(0, True)]
    # steps cached per node once computed
    step_cache: list[tuple[int, int, int] | None] = [None] * V
    while stack:
        v, entering = stack.pop()
        if entering:
            if v != 0:
                hit = G.step(at[tree.parents[v]], tree.letters[v])
                if hit is None:
                    raise NotTraceable("tree word not traceable in graph")
                tgt, eidg, d = hit
                step_cache[v] = (tgt, eidg, d)
                at[v] = tgt
                cur[eidg] += d
                labels[v] = tuple(cur)
            stack.append((v, False))
            for c in reversed(kids[v]):
                stack.append((c, True))
        else:
            if v != 0:
                _, eidg, d = step_cache[v]
                cur[eidg] -= d
    return labels  # type: ignore[return-value]


def iota_language(G: XDigraph, tree: PrefixTree) -> XDigraph:
    """One step of the flow-quotient operator on a language support graph."""
    return quotient_by_labeling(tree, _prefix_flow_labels(G, tree))


def iota(G: XDigraph, w: Word) -> XDigraph:
    """Quotient of w's path graph by equality of prefix flows on G.

    Iterating from any support graph of w recovers the path graph within
    ceil(log3 |w|) steps.
    """
    return iota_language(G, PrefixTree([w]))
