"""Prefix trees of reduced words, the support the solvers refine.

A PrefixTree holds every prefix of its words once, as a node numbered in
insertion order with its parent and last letter, kept in int64 arrays;
since the words are freely reduced, the tree is a folded X-digraph rooted
at the empty word.
FoldConflict signals a labeling that would unfold it.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .words import Word


class FoldConflict(Exception):
    """A labeling forced two distinct targets for one (vertex, signed label)."""


class PrefixTree:
    """Prefix-closed tree of reduced words, rooted at the empty word.

    Node 0 is the root; every other node was created by extending its
    parent with one signed letter.  Words never backtrack (they are
    reduced), so the tree is folded as an X-digraph.  Each added word's
    fresh suffix is one block of consecutive nodes: the block's first
    node hangs off an older node, its attach node, and every later node
    off the node just before it.  blocks lists (first node, attach node)
    of each block, in order, and paths the node path of each distinct
    word, in insertion order.
    """

    def __init__(self, words: Iterable[Word] = ()):
        # one block per added word, joined on first read
        self._parents = [np.array([-1], dtype=np.int64)]
        self._letters = [np.zeros(1, dtype=np.int64)]
        self._size = 1
        self.blocks: list[tuple[int, int]] = []
        self.paths: list[np.ndarray] = []
        self._packed: list[np.ndarray] = []  # each path's word, packed
        for w in words:
            self.add_word(w)

    def __len__(self) -> int:
        return self._size

    @property
    def parents(self) -> np.ndarray:
        """Parent of each node, -1 for the root."""
        return _joined(self._parents)

    @property
    def letters(self) -> np.ndarray:
        """Signed letter on the edge into each node, 0 for the root."""
        return _joined(self._letters)

    def add_word(self, w: Word) -> np.ndarray:
        """Insert all prefixes of w; returns the node path (positions 0..|w|),
        a read-only int64 array.

        Every node is a prefix of a word already inserted, so w's deepest
        existing node ends its longest common prefix with one of them.
        That prefix is found by one vectorized mismatch of the packed
        letters per word in the tree (the solvers insert one or two), and
        a word equal to one of them gets its path back.  The path reuses
        that word's nodes up to there; the rest of w is one fresh branch,
        appended as a block.  Nodes are numbered in insertion order,
        parents before children.  The branch's letters are a view of w's,
        not a copy.
        """
        packed = w.packed
        j, shared = 0, 0  # the root, shared by all words
        for other, other_path in zip(self._packed, self.paths):
            both = min(len(packed), len(other))
            differ = packed[:both] != other[:both]
            k = int(differ.argmax()) if differ.any() else both
            if k == len(packed) == len(other):
                return other_path
            if k > j:
                j, shared = k, other_path[:k + 1]
        start, n = self._size, len(packed) - j
        path = np.arange(start - 1 - j, start + n, dtype=np.int64)
        path[:j + 1] = shared
        path.flags.writeable = False  # shared with the tree's blocks
        if n:
            self.blocks.append((start, int(path[j])))
            self._parents.append(path[j:-1])
            self._letters.append(packed[j:])
            self._size += n
        self._packed.append(packed)
        self.paths.append(path)
        return path


def _joined(blocks: list[np.ndarray]) -> np.ndarray:
    """The blocks as one array, kept as the only block from then on."""
    if len(blocks) > 1:
        blocks[:] = [np.concatenate(blocks)]
    return blocks[0]
