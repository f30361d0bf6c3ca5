"""Isomorphism-free generation of connected unicyclic graphs.

A connected unicyclic graph is a cycle of length l >= 3 whose vertices each
carry a rooted tree (the cycle vertex being the root).  Its isomorphism
class is captured by the cycle length plus the necklace of canonical
rooted-tree codes, normalised to the lexicographically smallest sequence
under rotation and reflection.  Generation walks all compositions of the
vertex budget around the cycle, assigns canonical rooted trees, and keeps
exactly the graphs whose necklace is already in normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .graphs import Graph
from .trees import decode_level_sequence, rooted_trees


@dataclass(frozen=True)
class UnicyclicCode:
    """Canonical code: cycle length plus one rooted-tree code per position.

    Equal codes mean isomorphic graphs and vice versa; tree sizes (each tree
    includes its cycle vertex) sum to the graph order.
    """

    cycle_len: int
    trees: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return sum(len(t) for t in self.trees)

    def __str__(self) -> str:
        parts = [
            "-".join(str(level) for level in tree) if len(tree) > 1 else "."
            for tree in self.trees
        ]
        return "U[l=%d|%s]" % (self.cycle_len, ",".join(parts))


def necklace_normal_form(codes: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Lexicographically minimal rotation/reflection of the code sequence."""
    l = len(codes)
    reversed_codes = codes[::-1]
    best = None
    for base in (codes, reversed_codes):
        for shift in range(l):
            candidate = base[shift:] + base[:shift]
            if best is None or candidate < best:
                best = candidate
    return best


def realize(code: UnicyclicCode) -> Graph:
    """Graph for a code: cycle vertices 0..l-1 in order, trees appended."""
    l = code.cycle_len
    edges = [(i, (i + 1) % l) for i in range(l)]
    nxt = l
    for i, tree in enumerate(code.trees):
        parents = decode_level_sequence(tree)
        labels = [i]  # tree vertex 0 is the cycle vertex itself
        for v in range(1, len(tree)):
            labels.append(nxt)
            edges.append((labels[parents[v]], nxt))
            nxt += 1
    return Graph.from_edges(code.n, edges)


@lru_cache(maxsize=32)
def _codes(n: int) -> tuple[UnicyclicCode, ...]:
    if n < 3:
        raise ValueError("unicyclic graphs need n >= 3, got %d" % n)
    # largest possible pendant tree: everything outside a triangle plus root
    trees_by_size = {size: rooted_trees(size) for size in range(1, n - 1)}
    out = []
    for l in range(3, n + 1):
        for assignment in _assignments(n, l, trees_by_size):
            if assignment == necklace_normal_form(assignment):
                out.append(UnicyclicCode(l, assignment))
    out.sort(key=lambda c: (c.cycle_len, c.trees))
    return tuple(out)


def _assignments(n: int, l: int, trees_by_size) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All ways to hang rooted trees on l cycle positions, total size n."""

    def rec(position: int, budget: int, prefix: list[tuple[int, ...]]):
        if position == l:
            if budget == 0:
                yield tuple(prefix)
            return
        remaining_positions = l - position - 1
        max_size = budget - remaining_positions
        for size in range(1, max_size + 1):
            for tree in trees_by_size[size]:
                prefix.append(tree)
                yield from rec(position + 1, budget - size, prefix)
                prefix.pop()

    yield from rec(0, n, [])


def unicyclic_graphs(n: int) -> Iterator[tuple[UnicyclicCode, Graph]]:
    """Every connected unicyclic graph on n vertices, once per class.

    Codes are emitted in sorted code order (cycle length, then necklace),
    each realised with the fixed labelling convention of ``realize``.
    """
    for code in _codes(n):
        yield code, realize(code)


def count_unicyclic(n: int) -> int:
    """Number of isomorphism classes of connected unicyclic graphs."""
    return len(_codes(n))
