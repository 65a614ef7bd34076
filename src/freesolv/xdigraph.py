"""Prefix trees of reduced words, the support the solvers refine.

A PrefixTree holds every prefix of its words once, as a node numbered in
insertion order with its parent and last letter, kept in int64 arrays;
since the words are freely reduced, the tree is a folded X-digraph rooted
at the empty word.
FoldConflict signals a labeling or a coset table that would unfold it.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
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
    off the node just before it.  paths lists the node path of each
    distinct word, in insertion order.
    """

    def __init__(self, words: Iterable[Word] = ()):
        # one block per added word, joined on first read
        self._parents = [np.array([-1], dtype=np.int64)]
        self._letters = [np.zeros(1, dtype=np.int64)]
        self._size = 1
        self.paths: list[np.ndarray] = []
        self._sorted: list[tuple[int, ...]] = []  # the words' letters, sorted
        self._sorted_paths: list[np.ndarray] = []  # their paths, in step
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
        existing node ends its longest common prefix with one of them, and
        that longest prefix is shared with a lexicographic neighbour of w
        among the sorted words.  The path reuses the neighbour's nodes up
        to there; the rest of w is one fresh branch, appended as a block.
        Nodes are numbered in insertion order, parents before children.
        The bisection also finds a word already inserted, and the sorted
        paths sit beside the sorted words, so a word is never hashed, and
        its letters become an array in one C-level step.
        """
        key = w.letters
        at = bisect_left(self._sorted, key)
        if at < len(self._sorted) and self._sorted[at] == key:
            return self._sorted_paths[at]
        j, shared = 0, 0  # the root, shared by all words
        for i in (at - 1, at):
            if 0 <= i < len(self._sorted):
                k = _common_prefix(key, self._sorted[i])
                if k > j:
                    j, shared = k, self._sorted_paths[i][:k + 1]
        start, n = self._size, len(key) - j
        path = np.arange(start - 1 - j, start + n, dtype=np.int64)
        path[:j + 1] = shared
        path.flags.writeable = False  # shared with the tree's blocks
        if n:
            self._parents.append(path[j:-1])
            self._letters.append(letter_array(key[j:]))
            self._size += n
        self._sorted.insert(at, key)
        self._sorted_paths.insert(at, path)
        self.paths.append(path)
        return path


def letter_array(letters: tuple[int, ...]) -> np.ndarray:
    """The letters as a read-only int64 array, converted in one C-level
    step (struct.pack): on long words about half the time of np.array."""
    return np.frombuffer(struct.pack(f"{len(letters)}q", *letters),
                         dtype=np.int64)


def _joined(blocks: list[np.ndarray]) -> np.ndarray:
    """The blocks as one array, kept as the only block from then on."""
    if len(blocks) > 1:
        blocks[:] = [np.concatenate(blocks)]
    return blocks[0]


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
