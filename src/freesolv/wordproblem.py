"""Deterministic and Monte Carlo word problem via distinguisher chains.

A distinguisher at depth d labels the prefixes of a word so that equal
labels mean equal group elements in S_{r,d}.  Starting from the constant
labeling (depth 0, the trivial group), each refinement step

  1. numbers the edges of the quotient support graph at depth d-1,
  2. follows the prefixes, each one edge beyond its parent,
  3. groups the prefixes by their flow data,

and the group ids are the labels at depth d.  The deterministic step
labels each prefix by the dense lexicographic rank of its flow, exactly,
with no hashing: ranks of the parts of the flows in a segment tree over
the edges, for all steps of the root paths of the tree's words at once,
several levels per pass.  A pass below the top sorts packed integers
twice, to order the steps and to rank them; the top pass, one range,
sorts only to rank, so a refinement with one pass makes one sort.
The Monte Carlo step ranks a random linear form <f, a> of the flows,
with the anchor a uniform on the cube [0, B]^m, trading a small
one-sided error for vectorized integer work: equal flows never split,
and two distinct flows meet with probability at most 1/(B + 1)
(Schwartz-Zippel).  The forms are running sums over the tree's nodes in
index order, with no root-path cover: each later block of nodes is
shifted to start from its attach node.  They are split into anchor limbs
of lb = 61 - bits(V - 1) bits for the V nodes, so that every sum stays
below (V - 1) 2^lb < 2^61, an exact int64 for any cube bound, and ranked
limb by limb with one _dense_rank each; below about 2^15 letters |w|^3
fits one limb.  The anchors come from one getrandbits call of the
caller's random.Random per refinement, in 30-bit limbs with the
components above the cube bound redrawn, so a seed fixes every Monte
Carlo output independently of the numpy version and of the limb width.

word_problem needs no labels at depth d: w = 1 in S_{r,d} iff the flow
of w on the depth-(d-1) quotient graph is zero, one np.bincount.  It
tests each depth k < d that way, so only depths 1..d-1 are refined, and
in Monte Carlo mode only they are randomized: d = 1 is exact.
"""

from __future__ import annotations

from operator import add
from typing import Sequence

import numpy as np

from .words import Word
from .xdigraph import PrefixTree

DEFAULT_MAX_LEN = 1 << 20
_LIMB = 30  # bits per limb of the drawn Monte Carlo anchors
_LIMB_MASK = (1 << _LIMB) - 1
# _dense_ids counts keys in at most this many slots per key
_SLOTS_PER_NODE = 8
# _dense_rank sorts packed keys (value << bits(n)) | index of size below
# 2^_KEY_BITS
_KEY_BITS = 63


class LengthGuardError(ValueError):
    """Input exceeds the configured length guard."""


def _runs(ranges: np.ndarray, path_start: np.ndarray | None,
          idx: np.ndarray):
    """Sort steps by (range, position), one np.sort of packed keys:
    (order, new), where new[k] says that order[k] is the first step of its
    range on its path.  idx is np.arange(S); path_start gives each step's
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


def _counted(slots: int, n: int) -> bool:
    """Whether _dense_ids numbers n keys below slots by counting."""
    return 0 < slots <= _SLOTS_PER_NODE * n


def _dense_ids(keys: np.ndarray, slots: int) -> tuple[int, np.ndarray]:
    """The values of keys, in [0, slots), numbered 0..n-1 in increasing
    order: (n, the id of each key).

    One counting pass (mark the keys in the slots, take the running count,
    read it back), with no sort, while there are at most _SLOTS_PER_NODE
    slots per key; else one np.unique, so memory stays O(len(keys))
    whatever slots is.  Both ways give the same ids.
    """
    if _counted(slots, len(keys)):
        used = np.zeros(slots, dtype=np.int64)
        used[keys] = 1
        used.cumsum(out=used)
        ids = used[keys]
        ids -= 1
        return int(used[-1]), ids
    values, ids = np.unique(keys, return_inverse=True)
    return len(values), ids


def _run_sums(x: np.ndarray, first: np.ndarray, out: np.ndarray) -> None:
    """Running sums of x restarted at each run, into out; first[i] is the
    index where i's run starts.  The running sum over all of x may wrap
    mod 2^64, but its differences within a run are exact."""
    x.cumsum(out=out)
    out -= (out - x)[first]


class SupportChain:
    """Chain of distinguishers over the prefix tree of a word set.

    Shared engine for the word, power and conjugacy solvers.  Labels are
    computed lazily depth by depth and cached together with the canonical
    edge numbering of each quotient support graph.
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
        # its source node, generator index i - 1 and sign, fixed per chain
        letters = tree.letters
        size = np.abs(letters)
        self._r_max = int(size.max(initial=1))
        self._tail = np.where(letters > 0, tree.parents,
                              np.arange(self.V))[1:]
        self._gen = size[1:] - 1
        self._dirs = np.sign(letters)
        self._labels: list[np.ndarray] = [np.zeros(self.V, dtype=np.int64)]
        self._classes = [1]  # the number of labels per depth
        self._numberings: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}
        self._paths: tuple[np.ndarray, np.ndarray] | None = None
        self._steps: tuple | None = None  # per-step arrays of _refine_det

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
        """Quotient edge numbering at this depth, by one counting pass.

        Returns (m, eid, dirs): per non-root node, the edge its parent
        edge maps to and the sign against that edge's orientation.  An
        edge of Cay(S_{r,k}) is fixed by its source and its generator, so
        the key of a node is (class of its edge's source, generator):
        labels[tail] * r_max + i - 1, with dirs the sign of the letter.
        _dense_ids numbers the keys in the classes x r_max slots: by
        counting, with no sort, or by np.unique past _SLOTS_PER_NODE slots
        per node (generator indices far above the number of classes per
        node), where the generators are first numbered densely in order,
        so that the keys stay below V^2 and keep their order.  Edges are
        numbered by (source class, generator), not in the order of
        canonical triples of number_tree_edges in
        tests/graph_reference.py.

        With exact labels (deterministic mode) this is the same partition
        of the tree edges as that reference's, since the source and the
        generator fix the target; dirs may differ from its dirs by one
        sign per edge.  Monte Carlo labels never split equal prefixes, so
        a key is a function of the true Cayley edge: a trivial word keeps
        a zero flow, and a nonzero flow is nonzero on the true edges.
        The labels are dense class ids by construction, so they index
        slots as they are, and their number C is kept with them.
        """
        if depth not in self._numberings:
            labels = self.labels_at(depth)
            C = self._classes[depth]
            gens, gen = self._r_max, self._gen
            if not _counted(C * gens, len(gen)):
                gens, gen = _dense_ids(gen, gens)
            eid = np.zeros(self.V, dtype=np.int64)
            m, eid[1:] = _dense_ids(labels[self._tail] * gens + gen, C * gens)
            self._numberings[depth] = (m, eid, self._dirs)
        return self._numberings[depth]

    def flow_vector(self, depth: int, nodes: Sequence[int]) -> np.ndarray:
        """Flow of a root path on the depth-d quotient graph.

        nodes lists the path's nodes from the root, as the int64 arrays of
        tree.paths do.  One np.bincount sums the +-1 steps per edge
        in float64, exactly, since a flow component is at most the path
        length, below 2^53.  A path through all V nodes visits them in
        index order (the tree is a chain, parents numbered first), so its
        steps are read off the numbering as they are, with no gather.
        """
        m, eid, dirs = self.numbering_at(depth)
        if len(nodes) == self.V:
            eid, dirs = eid[1:], dirs[1:]
        else:
            eid, dirs = eid[nodes[1:]], dirs[nodes[1:]]
        return np.bincount(eid, weights=dirs, minlength=m).astype(np.int64)

    # -- refinement ------------------------------------------------------

    def labels_at(self, depth: int) -> np.ndarray:
        """Per-node labels at this depth: equal labels mean equal elements.

        Refined labels are dense class ids 0..C-1 in no particular order.
        """
        while len(self._labels) <= depth:
            prev_depth = len(self._labels) - 1
            if self.mode == "det":
                nxt, classes = self._refine_det(prev_depth)
            else:
                nxt, classes = self._refine_mc(prev_depth)
            self._labels.append(nxt)
            self._classes.append(classes)
        return self._labels[depth]

    def _refine_det(self, depth: int) -> tuple[np.ndarray, int]:
        """Label every node by the dense lexicographic rank of its flow.

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
        running sum): it sorts only to rank, and its ranks are the labels,
        the root's being zero's.  Returns the labels and their number.
        """
        m, eid, dirs = self.numbering_at(depth)
        nodes, starts = self._euler_tour()
        S = len(nodes)
        if S == 0:
            return np.zeros(self.V, dtype=np.int64), 1
        if self._steps is None:
            # a one-path tree has nodes 1..V-1 in order; on several paths,
            # the node of each packed id (the root's first) and the first
            # step of each step's path
            several = len(starts) > 2
            self._steps = (
                np.arange(S + 1),
                np.append(0, nodes) if several else None,
                np.repeat(starts[:-1], np.diff(starts)) if several else None)
        steps, reach, path_start = self._steps
        idx = steps[:S]
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
            fits = (D ** (1 << k) - 1).bit_length() + sh <= _KEY_BITS
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
            D = _dense_rank(packed, ranks, fits, steps)
            # the id of the step at position i is ranks[i + 1]; the one
            # before it on its run is ranks[i], or zero's, ranks[0]
            change[order] = ranks[1:] - ranks[np.where(new, 0, idx)]
        # the top pass: one range, whose runs are the paths in step order
        if path_start is None:
            change.cumsum(out=packed[1:])
        else:
            _run_sums(change, path_start, packed[1:])
        labels = np.empty(self.V, dtype=np.int64)
        C = _dense_rank(packed, labels, fits, steps, at=reach)
        return labels, C

    def _refine_mc(self, depth: int) -> tuple[np.ndarray, int]:
        """Rank a random linear form of the flows (one value per node).

        With f_v the flow of node v and a the anchor, m components drawn
        by _draw_anchors uniformly from [0, B] in edge order, node v is
        ranked by

          <f_v, a> = sum_k 2^(lb k) <f_v, a_k>,

        where a_k are the K = ceil(bits(B)/lb) limbs of lb bits of a, and
        lb = 61 - bits(V - 1) for the V nodes.  Equal flows never split.
        Distinct flows f != f' meet only when <f - f', a> = 0, a linear
        equation in a with a nonzero coefficient, so with probability at
        most 1/(B + 1) (Schwartz 1980; Zippel 1979).  The edge into node v
        moves its parent's flow by s in one component, s the edge's sign,
        so the limb L_k = <f_v, a_k> is its parent's plus s a_k[edge].  The
        PrefixTree numbers parents before children in blocks, each node of
        a block but the first a child of the node before it, so one running
        sum over the nodes 1..V-1 in index order gives every limb of the
        first block; each later block, in block order, is then shifted by
        its attach node's value less the raw sum just before the block.
        A term is below 2^lb in size, so every partial sum stays below
        (V - 1) 2^lb < 2^61, an exact int64 for any cube bound (lb >= 30,
        as _widen_limbs needs, while V <= 2^31).  A word_problem tree is
        one block, a power_solve probe tree at most two.  Carries bring
        L_0..L_{K-2} into [0, 2^lb).  The labels are dense ranks, taken
        limb by limb from the top: the rank of L_{K-1}, then for each
        lower limb the rank of (rank << lb) | L_k, below 2^61 because
        ranks are below V.  Carried limbs in any radix order the same
        integers, so lb changes no label; with B < 2^lb (|w|^3 for |w|
        up to about 2^15 letters) K = 1 and the rank is one _dense_rank.
        """
        m, eid, dirs = self.numbering_at(depth)
        V, parents = self.V, self.tree.parents
        lb = 61 - (V - 1).bit_length()
        anchor = _widen_limbs(_draw_anchors(self.rng, self.cube_bound, m),
                              lb, self.cube_bound)
        K = len(anchor)
        at = np.zeros((K, V), dtype=np.int64)  # the root sits at 0
        edge, sign = eid[1:], dirs[1:]
        for k in range(K):
            row = at[k, 1:]
            np.take(anchor[k], edge, out=row)
            row *= sign
            np.cumsum(row, out=row)
        # the nodes whose parent is not the node before them start blocks
        starts = np.flatnonzero(parents[1:] != np.arange(V - 1)) + 1
        raw = at[:, starts - 1]  # the sums just before them, unshifted
        for b, e, before in zip(starts.tolist(), [*starts[1:].tolist(), V],
                                raw.T):
            at[:, b:e] += (at[:, parents[b]] - before)[:, None]
        for k in range(K - 1):
            at[k + 1] += at[k] >> lb
            at[k] &= (1 << lb) - 1
        labels = np.empty(V, dtype=np.int64)
        C = _dense_rank(at[K - 1], labels)
        for k in range(K - 2, -1, -1):
            C = _dense_rank((labels << lb) | at[k], labels)
        return labels, C


def _dense_rank(x: np.ndarray, out: np.ndarray, fits: bool | None = None,
                idx: np.ndarray | None = None,
                at: np.ndarray | None = None) -> int:
    """Dense ranks 0..C-1 of the values of x (at least one) into out;
    returns C.

    One np.sort of (x << sh) | index, sh = bits(len(x) - 1), when that key
    stays in (-2^_KEY_BITS, 2^_KEY_BITS), else one argsort; a negative x
    sorts as well, as x << sh keeps its sign.  A caller that knows whether
    |x| < 2^(_KEY_BITS - sh) says so by fits; otherwise x - min(x) is
    sorted when it fits.  idx, if given, is np.arange(len(x)).  The rank
    of x[i] goes to out[at[i]], or to out[i] without at.
    """
    n = len(x)
    sh = (n - 1).bit_length()
    if fits is None:
        lo = int(x.min())
        fits = (int(x.max()) - lo).bit_length() + sh <= _KEY_BITS
        if fits:
            x = x - lo
    if fits:
        key = x << sh
        key |= np.arange(n) if idx is None else idx
        key.sort()
        order = key & ((1 << sh) - 1)
        key >>= sh
        srt = key
    else:
        order = np.argsort(x)
        srt = x[order]
    step = np.empty(n, dtype=np.int64)
    step[0] = 0
    np.not_equal(srt[1:], srt[:-1], out=step[1:])
    step.cumsum(out=step)
    out[order if at is None else at[order]] = step
    return int(step[-1]) + 1


def _draw_anchors(rng, B: int, m: int) -> np.ndarray:
    """m anchor components uniform on [0, B], as K rows of 30-bit limbs.

    One rng.getrandbits call gives K 32-bit words per component; the low
    rows keep 30 bits and the top row the bits of B above 30 (K - 1), so
    a component is uniform on [0, 2^bits(B)).  The components above B
    are drawn again, all together, until none is left; each draw is above
    B with probability below 1/2, since B has its top bit set.  Python's
    Mersenne Twister keeps its getrandbits stream across versions, so a
    seed fixes the anchors whatever the numpy version.
    """
    K = max(1, -(-B.bit_length() // _LIMB))
    top = B.bit_length() - _LIMB * (K - 1)
    b = [(B >> (_LIMB * k)) & _LIMB_MASK for k in range(K)]

    def draw(count):
        raw = rng.getrandbits(32 * K * count).to_bytes(4 * K * count, "little")
        a = np.frombuffer(raw, dtype="<u4").reshape(K, count).astype(np.int64)
        a[:K - 1] &= _LIMB_MASK
        a[K - 1] &= (1 << top) - 1
        return a

    def above(a):  # compare limbs top-down against B's
        gt = np.zeros(a.shape[1], dtype=bool)
        eq = np.ones(a.shape[1], dtype=bool)
        for k in range(K - 1, -1, -1):
            gt |= eq & (a[k] > b[k])
            eq &= a[k] == b[k]
        return gt

    anchor = draw(m)
    redo = np.flatnonzero(above(anchor))
    while len(redo):
        anchor[:, redo] = draw(len(redo))
        redo = redo[above(anchor[:, redo])]
    return anchor


def _widen_limbs(rows: np.ndarray, lb: int, B: int) -> np.ndarray:
    """The 30-bit limb rows of _draw_anchors as rows of lb >= 30 bits.

    Row k holds bits 30k .. 30k+29 of each component.  They land in row
    30k // lb of the K = ceil(bits(B)/lb) wide rows and, where they cross
    its top, in the row above; every component keeps its value.
    """
    K = max(1, -(-B.bit_length() // lb))
    wide = np.zeros((K, rows.shape[1]), dtype=np.int64)
    for k, row in enumerate(rows):
        j, sh = divmod(_LIMB * k, lb)
        fit = lb - sh  # bits of the row below the top of wide row j
        wide[j] |= (row & ((1 << fit) - 1)) << sh
        if fit < _LIMB and j + 1 < K:
            wide[j + 1] |= row >> fit
    return wide


def _cyclic_core(w: Word) -> Word:
    """w with each leading letter stripped while it inverts the trailing one.

    The stripped length c is the longest common prefix of w and w^-1,
    below |w|/2 as w is reduced.  It is found as xdigraph._common_prefix
    finds one, by slice compares: the known-equal length doubles, each
    step comparing only its new half, then the last step is bisected.  A
    compare adds letter i of w to letter n-1-i in C-level steps, so the
    cost is O(c), and O(1) when w_1 != w_n^-1.
    """
    a, n = w.letters, len(w)
    if n < 2 or a[0] != -a[-1]:
        return w

    def inverted(i: int, j: int) -> bool:  # w and w^-1 agree on i..j-1
        return not any(map(add, a[i:j], a[n - 1 - i:n - 1 - j:-1]))

    lo, hi, half = 1, 2, n // 2
    while hi <= half and inverted(lo, hi):
        lo, hi = hi, 2 * hi
    hi = min(hi, half)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if inverted(lo, mid):
            lo = mid
        else:
            hi = mid - 1
    return Word._trusted(a[lo:n - lo], w.rank)


def word_problem(w: Word, r: int, d: int, mode: str = "det", rng=None,
                 cube_bound: int | None = None,
                 max_len: int = DEFAULT_MAX_LEN) -> bool:
    """Decide w = 1 in S_{r,d}.

    Triviality is invariant under conjugation, so it is decided on the
    cyclic core of w: w with each leading letter stripped while it inverts
    the trailing one (_cyclic_core), a conjugate of w that is never longer.
    The max_len guard and the default Monte Carlo cube bound |w|^3 still
    come from the input w; the 3^d > |core| shortcut and the prefix tree
    take the core.  Depth k is decided by the flow test: w = 1 in S_{r,k+1}
    iff its flow on the depth-k quotient graph is zero, so labels are built
    up to depth d-1 only.  Deterministic mode is always correct.  Monte
    Carlo mode randomizes only depths 1..d-1, so it is exact at d = 1.  It
    is false-biased: trivial words always come back True; a nontrivial word
    is reported False with probability at least (1 - 1/|w|)^(d-1) at the
    default cube bound |w|^3 (d - 1 < log3 |w| once 3^d <= |w|), a bound
    that a core of at most |w| letters only helps.
    """
    if r < 1 or d < 0:
        raise ValueError("need r >= 1 and d >= 0")
    if w.rank > r:
        raise ValueError(f"word rank {w.rank} exceeds r = {r}")
    if len(w) >= max_len:
        raise LengthGuardError(f"|w| = {len(w)} exceeds guard {max_len}")
    if len(w) == 0 or d == 0:
        return True
    if mode == "mc":
        B = cube_bound if cube_bound is not None else len(w) ** 3
    else:
        B = None
    core = _cyclic_core(w)
    if 3 ** d > len(core):
        # the shortest nontrivial relator of S_{r,d} has length >= 3^d
        return False
    tree = PrefixTree([core])
    chain = SupportChain(tree, mode=mode, rng=rng, cube_bound=B)
    (path,) = tree.paths
    # S_{r,k+1} is a quotient of S_{r,d}, so a nonzero flow at any k < d
    # settles False.  Monte Carlo labels never split equal prefixes, so
    # each quotient edge is the image of the true edges it keys, and a
    # flow nonzero on the image is nonzero on the true graph too
    for k in range(d):
        if chain.flow_vector(k, path).any():
            return False
    return True
