"""Prefix trees of reduced words, the support the solvers refine.

A PrefixTree holds every prefix of its words once, as a node numbered in
insertion order with its parent and last letter; since the words are
freely reduced, the tree is a folded X-digraph rooted at the empty word.
FoldConflict signals a labeling or a coset table that would unfold it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

from .words import Word


class FoldConflict(Exception):
    """A labeling forced two distinct targets for one (vertex, signed label)."""


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
        self.word_nodes[key] = path
        return path


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
