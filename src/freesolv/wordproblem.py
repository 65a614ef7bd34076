"""Deterministic and Monte Carlo word problem via distinguisher chains.

A distinguisher at depth d gives each prefix of a word a node value, a
code of its flow on the depth-(d-1) quotient support graph, so that
equal values mean equal group elements in S_{r,d}.  Starting from the
constant value (depth 0, the trivial group), each refinement step numbers
the edges of the quotient support graph at depth d-1 and follows the
prefixes, each one edge beyond its parent, to their flows there.  A mode
is only a way to compute the node values:

  * deterministic (_refine_det): an exact, order-preserving code of the
    flow, with no hashing: ranks of the parts of the flows in a segment
    tree over the edges, for all steps of the root paths of the tree's
    words at once, several levels per pass; the top pass's packed ids,
    unranked, are the values;
  * Monte Carlo (_forms): a random linear form <f, a> of the flow f, with
    the anchor a uniform on the cube [0, 2^b)^m, b = bits(B), which holds
    [0, B]^m, trading a small one-sided error for vectorized integer
    work: equal flows never split, and two distinct flows meet with
    probability at most 2^-b <= 1/(B + 1) (Schwartz-Zippel).  The forms
    are running sums over the tree's nodes in index order (_path_sums),
    with no root-path cover, in anchor limbs of lb bits, so that every
    sum and key stays an exact int64 for any cube bound; below about 2^15
    letters |w|^3 fits one limb.  One getrandbits call of the caller's
    random.Random per refinement draws the anchors as those limbs, so a
    seed fixes every Monte Carlo output whatever the numpy version.
    Depth 1 is the exception: its values are the prefix abelianizations,
    vectors in Z^G for the G generators the tree uses, and wherever G
    (bits(V - 1) + 1) <= 62 for the V nodes (always at rank <= 2 below
    2^30 letters) they get an exact code (_abelian_ids), one running sum
    of powers of two numbered by counting, with no anchors and no sort.
    Its ids and labels are the deterministic ones, so Monte Carlo mode
    randomizes only depths 2 and up there.

The rest is shared.  numbering_at numbers the next quotient edges by one
dense rank of edge keys (value at the edge's source, generator), and
labels_at, which the solvers never call, gives the dense ranks of the
values.  A rank keeps the order of the values, so the edge ids are the
ones that the keys (label of the source, generator) would get.

Scratch space.  Each thread keeps one int64 workspace (_workspace): a few
rows as wide as the largest tree (or list of steps) it has solved, grown
when a wider one comes and then reused.  A solve's per-node temporaries
live there instead of coming fresh from the heap: freed, they let glibc
hand the top of the heap back to the kernel, and the next solve faults
those pages in again.  Row 0 holds 0, 1, 2, ..., the index of
_dense_rank's packed keys and of _refine_det's steps; _dense_rank takes
rows 1-3 for its key, order and steps; _forms takes the rows from _HELD
on for the positive terms and its limb rows, once numbering_at(depth - 1),
which takes the same rows, has returned, and ranks them before it
returns; _abelian_ids takes the rows of a one-limb _forms.  No function
returns or keeps a view of the workspace: every result is a fresh array,
and the workspace holds only the rows of the largest solve until the
thread ends.

word_problem needs no values at depth d: w = 1 in S_{r,d} iff the flow
of w on the depth-(d-1) quotient graph is zero, one np.bincount.  It
tests each depth k < d that way, so only depths 1..d-1 are refined, and
in Monte Carlo mode only depths 2..d-1 are randomized where the depth-1
code fits (1..d-1 where it does not): d <= 2 is exact there.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from .words import LengthGuardError, Word
from .xdigraph import PrefixTree

DEFAULT_MAX_LEN = 1 << 20
# _dense_ids counts keys in at most this many slots per key
_SLOTS_PER_NODE = 8
# _dense_rank sorts packed keys (value << bits(n)) | index of size below
# 2^_KEY_BITS
_KEY_BITS = 63
# the first workspace row that a caller may hold across a _dense_rank or
# _rank_limbs call; rows 1-3 are _dense_rank's
_HELD = 4

_local = threading.local()


def _workspace(n: int, rows: int) -> np.ndarray:
    """This thread's int64 workspace, at least rows rows of at least n
    columns; row 0 holds 0, 1, 2, ... and is only read.

    One block per thread, grown to the widest and the most rows asked for
    so far and then reused (see the module docstring).  A caller takes
    its rows after every call that could take the same rows has returned,
    and never returns or keeps a view of them.  Growing replaces the
    block, so a view taken before stays valid, but is no longer shared.
    """
    block = getattr(_local, "block", None)
    if block is None or block.shape[1] < n or len(block) < rows:
        height, width = (0, 0) if block is None else block.shape
        block = np.empty((max(rows, height), max(n, width)), dtype=np.int64)
        block[0] = np.arange(block.shape[1])
        _local.block = block
    return block


def _runs(ranges: np.ndarray, path_start: np.ndarray | None,
          idx: np.ndarray):
    """Sort steps by (range, position), one np.sort of packed keys:
    (order, new), where new[k] says that order[k] is the first step of its
    range on its path.  idx is 0..S-1; path_start gives each step's
    path by its first step, None when there is one path."""
    sh = len(ranges).bit_length()
    key = ranges << sh
    key |= idx
    key.sort()
    order = key & ((1 << sh) - 1)
    if path_start is None:
        key >>= sh  # the range alone
    else:
        key -= order
        key += path_start[order]  # (range, path start) packed
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    return order, new


def _dense_ids(keys: np.ndarray, slots: int) -> tuple[int, np.ndarray]:
    """The values of keys, in [0, slots), numbered 0..n-1 in increasing
    order: (n, the id of each key).

    One counting pass (mark the keys in the slots, take the running count,
    read it back), with no sort, while there are at most _SLOTS_PER_NODE
    slots per key; else one _dense_rank, so memory stays O(len(keys))
    whatever slots is.  Both give dense ranks in value order, so the same
    ids.  When every slot is used, as the generators of a word at rank 2
    mostly are, the keys are their own ids and are returned as they are.
    """
    if 0 < slots <= _SLOTS_PER_NODE * len(keys):
        used = np.zeros(slots, dtype=np.int64)
        used[keys] = 1
        used.cumsum(out=used)
        if used[-1] == slots:
            return slots, keys
        ids = used[keys]
        ids -= 1
        return int(used[-1]), ids
    ids = np.empty(len(keys), dtype=np.int64)
    return (_dense_rank(keys, ids) if len(keys) else 0), ids


def _run_sums(x: np.ndarray, first: np.ndarray, out: np.ndarray) -> None:
    """Running sums of x restarted at each run, into out; first[i] is the
    index where i's run starts.  The running sum over all of x may wrap
    mod 2^64, but its differences within a run are exact."""
    x.cumsum(out=out)
    out -= (out - x)[first]


class SupportChain:
    """Chain of distinguishers over the prefix tree of a word set.

    Shared engine for the word, power and conjugacy solvers.  A mode
    computes node values (_rank_values); the edge numbering of each
    quotient support graph is a rank of them, computed lazily depth by
    depth and cached, and so are the Monte Carlo anchors.  The values are
    not kept: the Monte Carlo forms and the keys of every rank live in
    the workspace of the calling thread, a few int64 rows as wide as the
    largest tree it has solved (rows 1-3 for _dense_rank, from _HELD on
    for _forms and _abelian_ids; see the module docstring).  They are
    taken per call and never handed out, so everything a chain returns or
    caches is a fresh array.
    """

    def __init__(self, tree: PrefixTree, mode: str = "det", rng=None,
                 cube_bound: int | None = None):
        if mode not in ("det", "mc"):
            raise ValueError("mode must be 'det' or 'mc'")
        if mode == "mc" and (rng is None or cube_bound is None):
            raise ValueError("Monte Carlo mode needs rng and cube_bound")
        if mode == "mc" and not (isinstance(cube_bound, int)
                                 and cube_bound >= 0):
            raise ValueError("cube_bound must be a non-negative int")
        self.tree = tree
        self.V = len(tree)
        self.mode = mode
        self.rng = rng
        self.cube_bound = cube_bound
        # the edge into node v >= 1 is the Cayley edge (g, g x_i) read
        # forward for x_i (g its parent) and backward for x_i^-1 (g = v):
        # its generator index i - 1 and sign, fixed per chain, and its
        # source node (_tail, built by the deterministic values only)
        letters = tree.letters
        self._gen = np.abs(letters[1:])
        self._gen -= 1
        self._r_max = int(self._gen.max(initial=0)) + 1
        self._tail: np.ndarray | None = None
        self._dirs = np.sign(letters)
        self._weights: np.ndarray | None = None
        self._labels: list[np.ndarray] = []  # per depth 0.., when asked
        self._numberings: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}
        # Monte Carlo, by the depth of the quotient graph they weight
        self._anchors: dict[int, np.ndarray] = {}
        self._lb: int | None = None  # their limb bits, once known
        self._paths: tuple[np.ndarray, np.ndarray] | None = None
        self._steps: tuple | None = None  # per-path arrays of _refine_det

    # -- tree traversal ------------------------------------------------

    def _euler_tour(self):
        """Root paths of the tree's words, concatenated: (nodes, starts).

        Only the deterministic engine works on these S steps; the Monte
        Carlo engine needs no cover.  The name is historical, as there is
        no tour any more; benchmark/layers.py wraps this method by name,
        so a rename must change both.  Every node of a PrefixTree is a
        prefix of one of its words, so these paths cover the tree with
        down-steps only.  Path i, without its root, is
        nodes[starts[i]:starts[i + 1]].
        """
        if self._paths is None:
            paths = [p[1:] for p in self.tree.paths]
            starts = np.cumsum([0] + [len(p) for p in paths])
            self._paths = (np.concatenate([starts[:0], *paths]), starts)
        return self._paths

    # -- quotient edge numbering ----------------------------------------

    def numbering_at(self, depth: int):
        """Quotient edge numbering at this depth.

        Returns (m, eid, dirs): per non-root node, the edge its parent
        edge maps to and the sign against that edge's orientation (eid[0]
        is 0).  An edge of Cay(S_{r,k}) is fixed by its source and its
        generator, so a node is keyed by (value at its edge's source,
        generator i - 1), with dirs the sign of the letter, and the keys
        are numbered in increasing order by one _rank_limbs, not in the
        order of canonical triples of number_tree_edges in
        tests/graph_reference.py.  Depth 0 has one value: the edges are
        the generators, numbered by _dense_ids, whose dense ids are the
        generators of the keys above.

        The labels at this depth are the dense ranks of the values, which
        keep their order, so the ids are the ones that the keys (label of
        the source, generator) would get.  Deterministic values are exact,
        so this is the same partition of the tree edges as the
        reference's, since the source and the generator fix the target;
        dirs may differ from its dirs by one sign per edge.  Monte Carlo
        forms never split equal prefixes, so a key is a function of the
        true Cayley edge: a trivial word keeps a zero flow, and a nonzero
        flow is nonzero on the true edges.
        """
        if depth not in self._numberings:
            eid = np.empty(self.V, dtype=np.int64)
            eid[0] = 0  # the root has no parent edge
            if depth == 0:
                m, eid[1:] = _dense_ids(self._gen, self._r_max)
            else:
                G, gens = self.numbering_at(0)[:2]
                m = self._rank_values(depth, True, eid[1:], (G, gens[1:]))
            self._numberings[depth] = (m, eid, self._dirs)
        return self._numberings[depth]

    def flow_vector(self, depth: int, nodes: Sequence[int]) -> np.ndarray:
        """Flow of a root path on the depth-d quotient graph.

        nodes lists the path's nodes from the root, as the int64 arrays of
        tree.paths do.  One np.bincount sums the +-1 steps per edge
        in float64, exactly, since a flow component is at most the path
        length, below 2^53.  A path through all V nodes visits them in
        index order (the tree is a chain, parents numbered first), so its
        steps are read off the numbering as they are, with no gather.  The
        float64 weights are the signs of the letters, converted once per
        chain, so a call makes no temporary over the nodes; the flow is a
        fresh array.
        """
        m, eid, _ = self.numbering_at(depth)
        if self._weights is None:
            self._weights = self._dirs.astype(np.float64)
        if len(nodes) == self.V:
            eid, weights = eid[1:], self._weights[1:]
        else:
            eid, weights = eid[nodes[1:]], self._weights[nodes[1:]]
        return np.bincount(eid, weights=weights,
                           minlength=m).astype(np.int64)

    # -- refinement ------------------------------------------------------

    def labels_at(self, depth: int) -> np.ndarray:
        """Per-node labels at this depth: equal labels mean equal elements.

        The labels are the dense ranks 0..C-1 of the node values
        (_rank_values), cached; depth 0 has one label.  The solvers never
        ask for them: numbering_at ranks the values at the edges' sources
        instead.  _labels holds the depths built so far.
        """
        while len(self._labels) <= depth:
            labels = np.zeros(self.V, dtype=np.int64)
            if self._labels:
                self._rank_values(len(self._labels), False, labels)
            self._labels.append(labels)
        return self._labels[depth]

    def _rank_values(self, depth: int, source: bool, out: np.ndarray,
                     gens: tuple[int, np.ndarray] | None = None) -> int:
        """Dense ranks into out of the node values at depth >= 1, or with
        source of the values at the sources of the edges into the nodes
        1..V-1, paired with gens as _rank_limbs pairs them; returns their
        number.  The values are the Monte Carlo forms (_forms), K rows of
        limbs (the value is sum_k 2^(lb k) row k), or the deterministic
        packed flow ids (_refine_det), one row.  At depth 1 a Monte Carlo
        chain takes the exact code of _abelian_ids instead wherever G
        (bits(V - 1) + 1) <= 62, G the generators the tree uses: only an
        exact code over a random one, never a size threshold between two
        equal ways.
        """
        if self.mode == "mc":
            G = self.numbering_at(0)[0]
            if depth == 1 and G * ((self.V - 1).bit_length() + 1) <= 62:
                return self._abelian_ids(source, out, gens)
            return self._forms(depth, source, out, gens)
        values = self._refine_det(depth - 1)
        if source:
            if self._tail is None:
                self._tail = np.where(self.tree.letters > 0,
                                      self.tree.parents, np.arange(self.V))
            values = values[self._tail[1:]]
        return _rank_limbs(values[None], self._limb_bits(), out, gens)

    def _refine_det(self, depth: int) -> np.ndarray:
        """Node values at depth + 1: each node's packed flow id, an exact
        code of its flow that keeps the lexicographic order of the flows.

        The flows live in a segment tree over the m quotient edge ids,
        padded to 2^L leaves.  A range's id at a step stands for the
        range's part of the flow just after the step on its path, in the
        lexicographic order of those parts.  A leaf's id is its edge's
        count plus zero, the most steps any edge takes, so leaf ids lie in
        [0, 2 zero] and zero is the zero flow's.

        One pass goes up k levels at once: it packs the 2^k child ids of a
        parent range as sum_j id_j D^(2^k - 1 - j), base D above every
        child id, which is lexicographic in the children and lies in
        [0, D^(2^k)).  A step changes only its own child range, so along
        each (parent range, path) run of the steps sorted by (parent range,
        position) the packed id less the zero one (all children at zero's
        id) is the running sum of (new - old child id) times the child's
        weight: at the leaves new - old is the step's sign, above them the
        step's id minus that of the step before it in the last pass's
        order (zero's id at the start of a run).  The running sum over all
        runs wraps mod 2^64, but the part within a run is exact.  These
        differences, in (-D^(2^k), D^(2^k)), are ranked together with the
        zero one's, 0, as a shift changes no rank; the ranks are the parent
        ranges' ids, and the next D is their number.

        k is the largest with D^(2^k) <= 2^(_KEY_BITS - bits(S)) for the
        S steps of the _euler_tour paths, and that known bound alone, with
        no min or max pass, makes the rank one np.sort of (difference <<
        bits(S)) | index; where even k = 1 is wider (at the leaves D is up
        to 2S + 1), it is an argsort.  Packed ids are exact int64 while S <
        2^30.  A pass below the top first sorts its steps by (parent range,
        position), one np.sort of S packed integers (_runs): it costs two
        sorts.  The top pass has a single range, so its steps are in that
        order already and its runs are the paths (on a one-path tree, one
        running sum): it ranks nothing, as its packed ids less the zero
        one are the values, the root's being 0.  On several paths the
        steps of a node all carry its value, and reach scatters it there.
        The index of the steps is the workspace's row 0; the values are a
        fresh array.
        """
        m, eid, dirs = self.numbering_at(depth)
        nodes, starts = self._euler_tour()
        S = len(nodes)
        if S == 0:
            return np.zeros(self.V, dtype=np.int64)
        if self._steps is None:
            # a one-path tree has nodes 1..V-1 in order; on several paths,
            # the node of each packed id (the root's first) and the first
            # step of each step's path
            several = len(starts) > 2
            self._steps = (
                np.append(0, nodes) if several else None,
                np.repeat(starts[:-1], np.diff(starts)) if several else None)
        reach, path_start = self._steps
        idx = _workspace(S, 1)[0, :S]
        edge = eid[nodes]  # each step's range at the current level
        change = dirs[nodes]  # the change of its id that the step makes
        zero = int(np.bincount(edge).max())
        D = 2 * zero + 1
        sh = S.bit_length()
        left = max(m - 1, 0).bit_length()  # levels above the current one
        # packed ids less the zero one's, which is packed[0] = 0
        packed = np.zeros(S + 1, dtype=np.int64)
        ranks = np.empty(S + 1, dtype=np.int64)
        while True:
            k = min(left, 1)
            while (k < left and (D ** (2 << k) - 1).bit_length() + sh
                   <= _KEY_BITS):
                k += 1
            weight = np.array([D ** j for j in range((1 << k) - 1, -1, -1)])
            left -= k
            if not left:  # edge < 2^k: the top pass
                change *= weight[edge]
                break
            change *= weight[edge & ((1 << k) - 1)]
            edge >>= k
            order, new = _runs(edge, path_start, idx)
            change = change[order]
            _run_sums(change, np.maximum.accumulate(np.where(new, idx, 0)),
                      packed[1:])
            fits = (D ** (1 << k) - 1).bit_length() + sh <= _KEY_BITS
            D = _dense_rank(packed, ranks, fits)
            # the id of the step at position i is ranks[i + 1]; the one
            # before it on its run is ranks[i], or zero's, ranks[0]
            change[order] = ranks[1:] - ranks[np.where(new, 0, idx)]
        # the top pass: one range, whose runs are the paths in step order
        if path_start is None:
            change.cumsum(out=packed[1:])
            return packed
        _run_sums(change, path_start, packed[1:])
        values = np.empty(self.V, dtype=np.int64)
        values[reach] = packed
        return values

    def _limb_bits(self) -> int:
        """lb, the bits of an anchor limb: 62 - bits(V - 1) - max(1,
        bits(G - 1)) for the V nodes and the G generators the tree uses.

        A limb L of a form is a sum of at most V - 1 terms below 2^lb in
        size, so |L| < 2^(bits(V - 1) + lb) <= 2^61, and the pair keys of
        _rank_limbs, (L - min L) G + g and ((rank << lb) | L) G + g, stay
        below 2^63: exact int64 for any cube bound.  Up to two generators
        that is lb = 61 - bits(V - 1).
        """
        if self._lb is None:
            G = self.numbering_at(0)[0]
            self._lb = (62 - (self.V - 1).bit_length()
                        - max(1, (G - 1).bit_length()))
        return self._lb

    def _forms(self, depth: int, source: bool, out: np.ndarray,
               gens: tuple[int, np.ndarray] | None = None) -> int:
        """Dense ranks into out of the Monte Carlo forms at depth >= 1, by
        _rank_limbs of their K rows of limbs L_k (the form is sum_k 2^(lb
        k) L_k), not carried, one column per node; returns their number.
        With source, column v holds the form at the source of the edge
        into v instead, and only the nodes 1..V-1 are ranked.  The limb
        rows, and the positive terms of the sources, live in workspace
        rows from _HELD on, taken after numbering_at(depth - 1) returns,
        which takes the same rows; the forms are not kept.
        _rank_values asks for them at depth 1 only where the exact code
        of _abelian_ids does not fit.

        With f_v the flow of node v on the depth - 1 quotient graph and a
        the anchor, m components uniform on [0, 2^b), b = bits(B), in edge
        order, the form of v is

          <f_v, a> = sum_k 2^(lb k) <f_v, a_k>,

        where a_k are the K limbs of lb bits (_limb_bits) of a, as
        _draw_anchors draws them the first time a depth's forms are
        needed, kept in _anchors under depth - 1.  Each limb is one
        _path_sums.  Equal flows never split.  Distinct flows f != f' meet
        only when <f - f', a> = 0, a linear equation in a with a nonzero
        coefficient, so with probability at most 2^-b <= 1/(B + 1)
        (Schwartz 1980; Zippel 1979).
        """
        m, eid = self.numbering_at(depth - 1)[:2]
        lb = self._limb_bits()
        if depth - 1 not in self._anchors:
            self._anchors[depth - 1] = _draw_anchors(self.rng,
                                                     self.cube_bound, m, lb)
        anchors, V = self._anchors[depth - 1], self.V
        top = _HELD + 1 + len(anchors)
        ws = _workspace(V, top)
        rows = ws[_HELD + 1:top, :V]
        positive = ws[_HELD, :V - 1] if source else None
        for a, row in zip(anchors, rows):
            self._path_sums(a, eid, row, positive)
        return _rank_limbs(rows[:, 1:] if source else rows, lb, out, gens)

    def _abelian_ids(self, source: bool, out: np.ndarray,
                     gens: tuple[int, np.ndarray] | None = None) -> int:
        """Dense ranks into out of the depth-1 values, or with source of
        those at the edges' sources paired with gens, as _forms ranks
        them, from an exact code of the values: no anchors and no sort.
        Returns their number.

        The depth-1 value of node v is its flow f_v on the bouquet of the
        G loops that the tree uses, its prefix abelianization, whose
        entries lie in (-V, V).  With b = bits(V - 1) + 1, _rank_values
        takes this code when G b <= 62.  The sum <f_v, a> at a_g = 2^(b (G
        - 1 - g)) (_path_sums, as a limb of the forms), plus 2^(b - 1) in
        every digit, holds the G digits f_v[g] + 2^(b - 1) in [1, 2^b),
        generator 0 the most significant.  Each digit less its minimum is
        packed again in mixed radix by its span, in the same order, so the
        code keeps the lexicographic order of the flows, which the
        deterministic values keep: the labels and edge ids are the
        deterministic ones.  A digit moves by at most 1 per edge of the
        tree path between its least and its greatest node, so its span is
        at most V <= 2^(b - 1), and the codes, paired with gens as
        _rank_limbs pairs them, lie in [0, slots), slots < 2^(G b);
        _dense_ids numbers them by counting while they are dense.  The
        sums and the digit being read take two workspace rows, as a
        one-limb _forms does; the code is built in out.
        """
        G, eid = self.numbering_at(0)[:2]
        V = self.V
        b = (V - 1).bit_length() + 1
        ws = _workspace(V, _HELD + 2)
        digit, sums = ws[_HELD, :V], ws[_HELD + 1, :V]
        units = np.left_shift(1, b * np.arange(G - 1, -1, -1))
        self._path_sums(units, eid, sums, digit[:V - 1] if source else None)
        if source:
            sums, digit = sums[1:], digit[1:]
        sums += sum(1 << (b * g + b - 1) for g in range(G))
        out.fill(0)
        slots = 1
        for g in range(G):
            np.right_shift(sums, b * (G - 1 - g), out=digit)
            digit &= (1 << b) - 1
            lo = int(digit.min())
            span = int(digit.max()) - lo + 1
            digit -= lo
            out *= span
            out += digit
            slots *= span
        if gens is not None:
            out *= gens[0]
            out += gens[1]
            slots *= gens[0]
        C, ids = _dense_ids(out, slots)
        if ids is not out:
            out[:] = ids
        return C

    def _path_sums(self, a: np.ndarray, eid: np.ndarray, row: np.ndarray,
                   positive: np.ndarray | None = None) -> None:
        """row[v] = <f_v, a> for every node v, f_v its flow on the quotient
        graph that eid numbers and a a weight per quotient edge; with
        positive (V - 1 columns, overwritten), row[v] for v >= 1 is the sum
        at the source of the edge into v instead.

        The edge into node v moves its parent's flow by s in one
        component, s the edge's sign, so <f_v, a> is its parent's plus
        c_v = s a[edge].  The PrefixTree numbers parents before children
        in blocks, each node of a block but the first a child of the node
        before it, so one running sum over the nodes 1..V-1 in index order
        gives every sum of the first block; each later block, in block
        order, is then shifted to start from its attach node (a block that
        continues the node before it keeps the shift of the block before).
        A word_problem tree is one block, a power_solve probe tree at most
        two.  The edge's source is the parent for x_i and v itself for
        x_i^-1, so its sum is row[v] - max(c_v, 0) either way, as a >= 0.
        The raw running sum is at most the sum of all |c_v|, so it stays
        exact wherever the sums do.
        """
        row[0] = 0  # the root's
        terms = row[1:]
        # every id is in range; "clip" spares the buffered check
        a.take(eid[1:], out=terms, mode="clip")
        terms *= self._dirs[1:]
        if positive is not None:
            np.maximum(terms, 0, out=positive)
        terms.cumsum(out=terms)
        # row[b - 1] holds the raw sum before block b plus the shift of the
        # block before it, so the new shift is row[attach] - raw
        blocks = self.tree.blocks[1:]  # the first hangs off the root
        ends = [b for b, _ in blocks[1:]] + [self.V]
        shift = 0
        for (b, attach), e in zip(blocks, ends):
            shift += int(row[attach]) - int(row[b - 1])
            row[b:e] += shift
        if positive is not None:
            terms -= positive


def _rank_limbs(rows: np.ndarray, lb: int, out: np.ndarray,
                gens: tuple[int, np.ndarray] | None = None) -> int:
    """Dense ranks into out of the integers sum_k 2^(lb k) rows[k], or, with
    gens = (G, gen), of the pairs (integer, gen) in order, gen < G; returns
    their number.

    Carries bring rows 0..K-2 into [0, 2^lb), in place, and the keys are
    built in rows, so rows is overwritten.  Carried limbs in
    any radix order the same integers, so lb changes no rank.  The ranks
    are taken limb by limb from the top: the rank of the top row, then for
    each lower limb the rank of (rank << lb) | L_k, and the generator
    joins the last key as (key - min) * G + gen.  With one limb, as the
    deterministic values always are, that is one _dense_rank.  Where the
    key alone would pack into a sort key and the factor G would push it
    past _KEY_BITS, the key is ranked alone and _dense_ids counts the
    pairs (rank, gen): one sort and a count, not one argsort.  So it is
    where the pair would pass int64, which _limb_bits rules out for forms
    but a deterministic value wider than a sort key (~2^20 steps) allows.
    """
    if not rows.shape[1]:
        return 0
    K = len(rows)
    for k in range(K - 1):
        rows[k + 1] += np.right_shift(rows[k], lb, out=out)
        rows[k] &= (1 << lb) - 1
    key = rows[K - 1]
    for k in range(K - 2, -1, -1):
        _dense_rank(key, out)
        out <<= lb
        key = rows[k]
        key |= out
    if gens is None:
        return _dense_rank(key, out)
    G, gen = gens
    lo = int(key.min())
    span, sh = int(key.max()) - lo, (len(key) - 1).bit_length()
    key -= lo
    alone = span.bit_length() + sh <= _KEY_BITS
    pair = (span * G + G - 1).bit_length()
    if pair + sh > _KEY_BITS and (alone or pair > 63):
        C = _dense_rank(key, out, alone)
        key = np.multiply(out, G, out=key)
        key += gen
        C, out[:] = _dense_ids(key, C * G)
        return C
    key *= G
    key += gen
    return _dense_rank(key, out, pair + sh <= _KEY_BITS)


def _dense_rank(x: np.ndarray, out: np.ndarray,
                fits: bool | None = None) -> int:
    """Dense ranks 0..C-1 of the values of x (at least one) into out;
    returns C.

    One np.sort of (x << sh) | index, sh = bits(len(x) - 1), when that key
    stays in (-2^_KEY_BITS, 2^_KEY_BITS), else one argsort; a negative x
    sorts as well, as x << sh keeps its sign.  A caller that knows whether
    |x| < 2^(_KEY_BITS - sh) says so by fits; otherwise x - min(x) is
    sorted when it fits.  The key, the order and the steps between sorted
    values live in rows 1-3 of the workspace, and the index is row 0; x
    and out are the caller's.
    """
    n = len(x)
    sh = (n - 1).bit_length()
    ws = _workspace(n, _HELD)
    key, order, step = ws[1, :n], ws[2, :n], ws[3, :n]
    if fits is None:
        lo = int(x.min())
        fits = (int(x.max()) - lo).bit_length() + sh <= _KEY_BITS
        if fits:
            x = np.subtract(x, lo, out=key)
    if fits:
        np.left_shift(x, sh, out=key)
        key |= ws[0, :n]
        key.sort()
        np.bitwise_and(key, (1 << sh) - 1, out=order)
        key >>= sh
    else:
        order = np.argsort(x)
        x.take(order, out=key, mode="clip")  # unbuffered; ids in range
    step[0] = 0
    np.not_equal(key[1:], key[:-1], out=step[1:])
    step.cumsum(out=step)
    out[order] = step
    return int(step[-1]) + 1


def _draw_anchors(rng, B: int, m: int, lb: int) -> np.ndarray:
    """m anchor components uniform on [0, 2^b), b = bits(B), as the K =
    max(1, ceil(b / lb)) rows of lb-bit limbs that _forms sums.

    One rng.getrandbits call gives K m little-endian 64-bit words, row by
    row; each keeps its low lb bits, and the top row's the b - lb (K - 1)
    bits of B above the lower rows.  The cube [0, 2^b) holds [0, B], so
    two distinct flows meet with probability at most 2^-b <= 1/(B + 1).
    Python's Mersenne Twister keeps its getrandbits stream across
    versions, so a seed fixes the anchors whatever the numpy version.
    """
    b = B.bit_length()
    K = max(1, -(-b // lb))
    raw = rng.getrandbits(64 * K * m).to_bytes(8 * K * m, "little")
    a = np.frombuffer(raw, dtype="<i8").reshape(K, m) & ((1 << lb) - 1)
    a[K - 1] &= (1 << (b - lb * (K - 1))) - 1
    return a


def _cyclic_core(w: Word) -> Word:
    """w with each leading letter stripped while it inverts the trailing one.

    The ends are tested on the packed letters, so w comes back as it is
    in O(1) when w_1 != w_n^-1.  Otherwise the stripped length c is where
    w first differs from w^-1, below |w|/2 as w is reduced (a middle
    letter never inverts itself, and w_{n/2} w_{n/2+1} does not cancel),
    found by one compare of the packed letters with their negated
    reverse.  The core is a Word built from a slice of the packed letters
    (Word._trusted(None, ...)), so it makes no letter tuple unless one is
    read.
    """
    p = w.packed
    n = len(p)
    if n < 2 or p[0] != -p[-1]:
        return w
    h = (n + 1) // 2
    c = int(np.argmax(p[:h] != -p[::-1][:h]))
    return Word._trusted(None, w.rank, p[c:n - c])


def _first_nontrivial_depth(chain: SupportChain, path, length: int,
                            cap: int) -> int:
    """Largest s <= cap at which the word of this node path and length is
    trivial: i - 1 for the first i <= cap at which it is shorter than 3^i,
    the shortest depth-i relator, or its flow on the depth-(i-1) quotient
    graph is nonzero.  Monte Carlo forms never split equal prefixes, so
    each quotient edge is the image of the true edges it keys, and a flow
    nonzero on the image is nonzero on the true graph too.
    """
    for i in range(1, cap + 1):
        if 0 < length < 3 ** i or chain.flow_vector(i - 1, path).any():
            return i - 1
    return cap


def word_problem(w: Word, r: int, d: int, mode: str = "det", rng=None,
                 cube_bound: int | None = None,
                 max_len: int = DEFAULT_MAX_LEN) -> bool:
    """Decide w = 1 in S_{r,d}.

    Triviality is invariant under conjugation, so it is decided on the
    cyclic core of w: w with each leading letter stripped while it inverts
    the trailing one (_cyclic_core), a conjugate of w that is never longer.
    The max_len guard and the default Monte Carlo cube bound B = |w|^3
    still come from the input w; the 3^d > |core| shortcut and the prefix
    tree take the core.  w = 1 in S_{r,d} iff its flows on the depth-k
    quotient graphs, k < d, are zero (_first_nontrivial_depth).
    Deterministic mode is always correct.  Monte Carlo mode refines
    depth 1 by an exact code of the prefix abelianizations wherever G
    (bits(|core|) + 1) <= 62 for the G <= r generators the core uses,
    which holds at r <= 2 below 2^30 letters, and randomizes only depths
    2..d-1; so it is exact at d <= 2.  Where the code does not fit, depth
    1 is random too and each d - 2 below reads d - 1.  It is
    false-biased: trivial words always come back True.  Its anchors are
    uniform on [0, 2^b)^m, b = bits(B), so two distinct flows meet with
    probability at most 2^-b <= 1/(B + 1).  A wrong True needs some
    random depth to merge two of the |core| + 1 prefixes with distinct
    flows, so it has probability at most (d - 2) C(|core| + 1, 2) / (B +
    1) at any B, and a nontrivial word is reported False with probability
    at least (1 - 1/|w|)^(d-2) at the default B (d - 2 < log3 |w| once
    3^d <= |w|).  Two true edges share an id only when their sources'
    forms collide at the same generator, as labels of those forms would
    merge the sources, so numbering the edges with no labels keeps the
    bound.
    """
    if r < 1 or d < 0:
        raise ValueError("need r >= 1 and d >= 0")
    if w.rank > r:
        raise ValueError(f"word rank {w.rank} exceeds r = {r}")
    if len(w) >= max_len:
        raise LengthGuardError(f"|w| = {len(w)} exceeds guard {max_len}")
    if len(w) == 0 or d == 0:
        return True
    B = None
    if mode == "mc":
        B = cube_bound if cube_bound is not None else len(w) ** 3
    core = _cyclic_core(w)
    if 3 ** d > len(core):
        # the shortest nontrivial relator of S_{r,d} has length >= 3^d
        return False
    tree = PrefixTree([core])
    chain = SupportChain(tree, mode=mode, rng=rng, cube_bound=B)
    (path,) = tree.paths
    return _first_nontrivial_depth(chain, path, len(core), d) == d
