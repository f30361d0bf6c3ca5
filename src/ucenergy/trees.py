"""Canonical rooted-tree level sequences.

A rooted tree on k vertices is identified by its canonical level sequence:
the depth of each vertex in preorder, root at depth 0, with the children of
every vertex ordered so the sequence is lexicographically maximal.  Two
rooted trees are isomorphic iff their canonical sequences are equal, which
makes the sequences usable both as generator output and as memoisation keys.

``rooted_trees`` generates all canonical sequences of a given size with the
constant-amortised-time successor rule of Beyer and Hedetniemi (sequences are
emitted in decreasing lexicographic order, path first, star last).
``rooted_tree_counts`` counts them without generating any.

A level sequence needs no decoding into parent links: in preorder the
parent of a vertex at depth d is the last vertex before it at depth d - 1,
so a walk that keeps one slot per depth has it at hand.  That is how
``enumeration.realize`` labels a tree and ``charpoly.rooted_pair`` folds
its matching polynomials.

``canonical_level_sequence``, ``tree_centers`` and ``free_tree_code`` code
labelled trees; no package code calls them, and they stay only while the
benchmark's trace names ``free_tree_code``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def rooted_trees(k: int) -> list[tuple[int, ...]]:
    """All canonical level sequences of rooted trees on k >= 1 vertices."""
    if k < 1:
        raise ValueError("need k >= 1, got %d" % k)
    if k == 1:
        return [(0,)]
    seq = list(range(k))  # the path, lexicographically largest
    out = [tuple(seq)]
    while True:
        nxt = _successor(seq)
        if nxt is None:
            return out
        seq = nxt
        out.append(tuple(seq))


def rooted_tree_counts(n: int) -> list[int]:
    """Numbers r_0..r_n of rooted trees on 0..n vertices (OEIS A000081).

    r_0 = 0, so the list is the series R(x) = sum r_k x^k truncated at x^n.
    The recurrence k r_(k+1) = sum_(j=1..k) (sum_(d|j) d r_d) r_(k+1-j)
    follows from R(x) = x exp(sum_(i>=1) R(x^i)/i); the division is exact.
    """
    r = [0] * (n + 1)
    divisor_sums = [0] * (n + 1)  # sum_(d|j) d r_d
    if n >= 1:
        r[1] = 1
    for k in range(1, n):
        divisor_sums[k] = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
        r[k + 1] = sum(divisor_sums[j] * r[k + 1 - j] for j in range(1, k + 1)) // k
    return r


def _successor(seq: list[int]) -> list[int] | None:
    """Next canonical sequence in decreasing lex order, None after the star."""
    p = len(seq) - 1  # scan back to the last vertex deeper than 1
    while seq[p] <= 1:
        if p == 0:
            return None
        p -= 1
    q = p - 1  # the parent of vertex p
    while seq[q] != seq[p] - 1:
        q -= 1
    return (seq[:p] + seq[q:p] * (len(seq) - p))[: len(seq)]


def canonical_level_sequence(
    neighbors: Mapping[int, Iterable[int]], root
) -> tuple[int, ...]:
    """Canonical (lexicographically maximal) level sequence of a rooted tree."""

    def build(v, parent) -> tuple[int, ...]:
        children = [build(w, v) for w in neighbors[v] if w != parent]
        children.sort(reverse=True)
        seq = [0]
        for ch in children:
            seq.extend(level + 1 for level in ch)
        return tuple(seq)

    return build(root, None)


def tree_centers(neighbors: Mapping[int, Iterable[int]], vertices: Sequence) -> list:
    """Center vertex (or the two of them) of a tree, by leaf stripping.

    The center minimises the eccentricity; it need not be the centroid, which
    minimises the largest branch.
    """
    remaining = set(vertices)
    degree = {v: sum(1 for w in neighbors[v] if w in remaining) for v in remaining}
    layer = [v for v in remaining if degree[v] <= 1]
    while len(remaining) > 2:
        nxt = []
        for v in layer:
            remaining.discard(v)
        for v in layer:
            for w in neighbors[v]:
                if w in remaining:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(remaining)


def free_tree_code(
    neighbors: Mapping[int, Iterable[int]], vertices: Sequence
) -> tuple[int, ...]:
    """Isomorphism code of an unrooted tree: best rooting at a center.

    Isomorphisms map centers to centers, so the code is canonical.
    """
    centers = tree_centers(neighbors, vertices)
    return max(canonical_level_sequence(neighbors, c) for c in centers)
