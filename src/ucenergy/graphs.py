"""Simple undirected labelled graphs and the unicyclic families of interest.

Vertices are integers 0..n-1.  Graph values are immutable after construction
and safe to share between concurrent tasks.  The constructors cover cycles,
paths, lollipops (a cycle joined to a pendant path) and cycles with pendant
vertices; graph6 interchange is provided for n <= 62.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Invalid graph construction parameters."""


class Graph6Error(GraphError):
    """Malformed graph6 input; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__("%s (byte offset %d)" % (message, offset))
        self.offset = offset


@dataclass(frozen=True)
class Graph:
    """Simple graph on vertices 0..n-1 with a normalised edge tuple."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("negative vertex count")
        seen = set()
        for e in self.edges:
            u, v = e
            if not (0 <= u < v < self.n):
                raise GraphError("edge %r out of range or not normalised" % (e,))
            if e in seen:
                raise GraphError("duplicate edge %r" % (e,))
            seen.add(e)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        norm = set()
        for u, v in edges:
            if u == v:
                raise GraphError("self-loop at vertex %d" % u)
            norm.add((min(u, v), max(u, v)))
        return cls(n, tuple(sorted(norm)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adjacency[v]

    def adjacency_matrix(self) -> list[list[int]]:
        m = [[0] * self.n for _ in range(self.n)]
        for u, v in self.edges:
            m[u][v] = 1
            m[v][u] = 1
        return m


# ---------------------------------------------------------------------------
# Families.
# ---------------------------------------------------------------------------


def make_cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices, edges i -- (i+1) mod n."""
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices, got %d" % n)
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def make_path(n: int) -> Graph:
    """Path on n >= 1 vertices, edges i -- i+1."""
    if n < 1:
        raise GraphError("path needs at least 1 vertex, got %d" % n)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def make_lollipop(n: int, l: int) -> Graph:
    """Cycle of length l with a pendant path, n vertices total.

    Cycle vertices are 0..l-1 in cycle order; the tail l..n-1 hangs off
    vertex 0.  For l == n the result is the plain cycle, which makes the
    family total over 3 <= l <= n.
    """
    if l < 3 or l > n:
        raise GraphError("lollipop needs 3 <= l <= n, got l=%d n=%d" % (l, n))
    edges = [(i, (i + 1) % l) for i in range(l)]
    prev = 0
    for v in range(l, n):
        edges.append((prev, v))
        prev = v
    return Graph.from_edges(n, edges)


def make_cycle_with_pendants(n: int, l: int, attachment: Sequence[int]) -> Graph:
    """Cycle of length l with attachment[i] pendant vertices on cycle vertex i."""
    if l < 3 or l > n:
        raise GraphError("need 3 <= l <= n, got l=%d n=%d" % (l, n))
    if len(attachment) != l:
        raise GraphError("attachment list must have length l=%d" % l)
    if any(a < 0 for a in attachment):
        raise GraphError("attachment counts must be nonnegative")
    if sum(attachment) != n - l:
        raise GraphError(
            "attachment counts sum to %d, expected n-l=%d" % (sum(attachment), n - l)
        )
    edges = [(i, (i + 1) % l) for i in range(l)]
    nxt = l
    for i, count in enumerate(attachment):
        for _ in range(count):
            edges.append((i, nxt))
            nxt += 1
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# Structure queries.
# ---------------------------------------------------------------------------


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted ascending."""
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph induced on the given vertices, relabelled 0..k-1 in order."""
    index = {v: i for i, v in enumerate(vertices)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges
        if u in index and v in index
    ]
    return Graph.from_edges(len(vertices), edges)


# ---------------------------------------------------------------------------
# graph6 interchange (single-byte order prefix, n <= 62).
# ---------------------------------------------------------------------------


GRAPH6_MAX_ORDER = 62


def check_graph6_order(n: int) -> None:
    """Raise GraphError unless graph6 can encode a graph on n vertices."""
    if n > GRAPH6_MAX_ORDER:
        raise GraphError("graph6 support is limited to n <= %d" % GRAPH6_MAX_ORDER)


def format_graph6(g: Graph) -> str:
    """Standard graph6 encoding of the upper adjacency triangle.

    The triangle is read column by column, so edge (i, j), i < j, is bit
    j(j-1)/2 + i; the bits are padded with zeros to a multiple of six.
    """
    check_graph6_order(g.n)
    nbits = g.n * (g.n - 1) // 2
    bits = [0] * (nbits + -nbits % 6)
    for i, j in g.edges:
        bits[j * (j - 1) // 2 + i] = 1
    out = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k : k + 6]:
            value = (value << 1) | b
        out.append(chr(value + 63))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string; raises Graph6Error with the byte offset."""
    if not text:
        raise Graph6Error("empty input", 0)
    n = ord(text[0]) - 63
    if n < 0 or n > GRAPH6_MAX_ORDER:
        raise Graph6Error("unsupported order byte %r" % text[0], 0)
    nbits = n * (n - 1) // 2
    body_len = (nbits + 5) // 6
    if len(text) - 1 != body_len:
        raise Graph6Error(
            "body length %d does not match order %d (expected %d bytes)"
            % (len(text) - 1, n, body_len),
            min(len(text), body_len + 1),
        )
    bits = []
    for offset, ch in enumerate(text[1:], start=1):
        value = ord(ch) - 63
        if value < 0 or value > 63:
            raise Graph6Error("byte %r outside graph6 range" % ch, offset)
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits", len(text) - 1)
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph.from_edges(n, edges)
