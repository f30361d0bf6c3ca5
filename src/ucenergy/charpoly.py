"""Exact characteristic polynomials of adjacency matrices.

``charpoly`` first strips leaves, which is all a tree or a connected
unicyclic graph needs, and falls back only when stripping gives up: a
disconnected graph multiplies its component polynomials, and a connected
graph with more edges than vertices goes to the exact general-purpose
reference algorithm.  Nothing is cached between calls.

Leaf stripping runs Schwenk's rooted recurrence (Schwenk, "Computing the
characteristic polynomial of a graph", LNM 406, 1974): for a rooted tree
T_v with child subtrees T_c,

    phi(T_v - v) = prod_c phi(T_c),
    phi(T_v)     = x * prod_c phi(T_c)
                   - sum_c phi(T_c - c) * prod_{c' != c} phi(T_c'),

so a leaf v, once its own children are folded in, is folded into the one
neighbour it has left.  One pass over the edges gives each vertex its
degree and nb[v], the XOR of its neighbours; while v keeps one neighbour,
nb[v] is that neighbour, and the neighbour drops v by XOR-ing it out of its
own nb.  No adjacency list is built.  A vertex left with no neighbour is
the root of a whole tree, and its phi(T_v) is phi(G) when every vertex has
been folded; otherwise G is disconnected.  When no leaf is left, the
vertices not folded are the 2-core, which holds a cycle, so with fewer than
n edges G is disconnected.  With n edges, stripping k vertices removes k
edges, so the core has as many edges as vertices and minimum
degree 2: every core vertex has degree 2, and the core is one cycle
exactly when one walk around it (next = nb[cur] ^ prev) covers it.  A
unicyclic graph then carries one tree at each cycle vertex
c_0 .. c_{l-1}; with f_j = phi(T_{c_j}) and r_j = phi(T_{c_j} - c_j), the
cycle-edge recurrence
phi(G) = phi(G-uv) - phi(G-u-v) - 2*phi(G-C) on the edge uv = c_{l-1} c_0
needs only

    phi(G-C)   = prod_j r_j,
    phi(G-uv)  = chain(f, r),
    phi(G-u-v) = r_0 * r_{l-1} * chain(f[1:-1], r[1:-1]),

where chain is the characteristic polynomial of a path of rooted trees.
This cycle step is ``cycle_value``, shared by two routes: the leaf
stripping above, and the search, which has no graph but a bracelet word of
rooted trees and reads each tree's (f_j, r_j) off its level sequence
(``rooted_pair``, the same prod/rest fold in reverse preorder).

The sweep runs on plain integers: every polynomial is replaced by its value
at x = 2**b.  Evaluation at 2**b is a ring homomorphism Z[x] -> Z, so each
+, -, * of the sweep, and each multiplication by x (a left shift by b
bits), gives exactly phi(G)(2**b).  Intermediate values need no bound.
Leaves are folded in whatever order the stack pops them, not in a BFS
order, but folding children into a parent only adds and multiplies in a
commutative ring, so the value, and every coefficient, is the same.  Only
the final value is unpacked, once, into its balanced base-2**b digits
(``IntPolynomial.from_packed``), and those are the coefficients c_k of
phi(G) as soon as every |c_k| < 2**(b-1).

The bound (``coefficient_bits``, computed once per n):
sum_k |c_k| <= 2 * F_(n+1) for a tree or a connected unicyclic graph on n
vertices, the only graphs this route unpacks, with Fibonacci numbers
F_1 = F_2 = 1.  For a forest,
phi = sum_k (-1)**k m_k x**(n-2k) with m_k the k-matchings, so
sum_k |c_k| is the Hosoya index Z.  A forest is a spanning subgraph of a
tree on the same vertices, and among trees the path has the largest Z, so
Z(forest on k vertices) <= Z(P_k) = F_(k+1).  For a unicyclic G, the
cycle-edge recurrence above and the triangle inequality give
sum_k |c_k| <= Z(G-uv) + Z(G-u-v) + 2*Z(G-C) <= F_(n+1) + F_(n-1)
+ 2*F_(n-2), since G-uv is a tree on n vertices, G-u-v a forest on n - 2
and G-C a forest on at most n - 3.  F_(n-1) + 2*F_(n-2) = F_n + F_(n-2)
<= F_(n+1), so the sum is at most 2 * F_(n+1) < 2**(b-2) for
b = bitlen(2 * F_(n+1)) + 2, the digit width the sweep runs at.  C_3
attains the bound (sum 6 = 2 * F_4), and a path has half of it.

This is not Kronecker substitution per product, which packs both factors
and unpacks the result around every multiplication and gained nothing
here: nothing is ever packed.  The sweep starts from the integers 1 and
2**b and stays in integers until the end.

``charpoly_reference`` is the independent trust anchor: the
Faddeev-LeVerrier iteration over arbitrary-precision integers, where every
division is by a loop index and is checked to be exact.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

from .graphs import Graph, connected_components, induced_subgraph
from .polynomials import ONE, IntPolynomial


def charpoly(g: Graph) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - A(g))."""
    if g.n == 0:
        return ONE
    if g.edge_count <= g.n:
        bits = coefficient_bits(g.n)
        value = _sparse_value(g, bits)
        if value is not None:
            return IntPolynomial.from_packed(value, bits, g.n + 1)
    comps = connected_components(g)
    if len(comps) == 1:
        return charpoly_reference(g)
    result = ONE
    for comp in comps:
        result = result * charpoly(induced_subgraph(g, comp))
    return result


@lru_cache(maxsize=None)
def coefficient_bits(n: int) -> int:
    """b with sum_k |c_k| < 2**(b-2) for phi(G), G a tree or a connected
    unicyclic graph on n vertices (proof in the module docstring)."""
    f_prev, f = 0, 1  # F_0, F_1
    for _ in range(n):
        f_prev, f = f, f_prev + f
    return (2 * f).bit_length() + 2


def _sparse_value(g: Graph, bits: int) -> Optional[int]:
    """phi(g)(2**bits) by leaf stripping, for a tree or a connected
    unicyclic graph; None for any other graph with at most n edges."""
    n = g.n
    deg = [0] * n
    nb = [0] * n  # XOR of the neighbours not yet folded away
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
        nb[u] ^= v
        nb[v] ^= u
    # over the children folded in so far: prod[v] = prod_c phi(T_c) and
    # rest[v] = sum_c phi(T_c - c) * prod_{c' != c} phi(T_c'); x * p is p << bits
    prod = [1] * n
    rest = [0] * n
    stack = [v for v in range(n) if deg[v] <= 1]
    peeled = 0
    while stack:
        v = stack.pop()
        peeled += 1
        f = (prod[v] << bits) - rest[v]
        if not deg[v]:  # v is the root of a whole tree
            return f if peeled == n else None
        p = nb[v]
        rest[p] = rest[p] * f + prod[p] * prod[v]
        prod[p] = prod[p] * f
        nb[p] ^= v
        deg[p] -= 1
        if deg[p] == 1:
            stack.append(p)
    if g.edge_count < n:  # a cycle, but too few edges to connect it
        return None
    # every vertex not peeled has degree 2 (module docstring); peeled ones
    # kept degree 1, so an edge with two ends of degree 2 lies on the core
    start, cur = next((u, v) for u, v in g.edges if deg[u] == 2 == deg[v])
    cycle = [start]
    prev = start
    while cur != start:
        cycle.append(cur)
        prev, cur = cur, nb[cur] ^ prev
    if len(cycle) != n - peeled:  # the core is several cycles
        return None
    f = [(prod[c] << bits) - rest[c] for c in cycle]
    return cycle_value(f, [prod[c] for c in cycle], bits)


def rooted_pair(level_sequence: Sequence[int], bits: int) -> tuple[int, int]:
    """(phi(T), phi(T - root)) at x = 2**bits for the rooted tree T with this
    level sequence: the prod/rest fold of ``_sparse_value``, each vertex
    folded into its parent in reverse preorder.

    In reverse preorder the children of a vertex at depth d are the vertices
    at depth d + 1 met since the last vertex at depth d, so one prod/rest
    slot per depth stands for the children folded so far, and no parent
    links are needed.
    """
    prod = [1] * len(level_sequence)  # slot d: the children, at depth d + 1
    rest = [0] * len(level_sequence)
    for d in reversed(level_sequence[1:]):
        f = (prod[d] << bits) - rest[d]
        up = d - 1
        rest[up] = rest[up] * f + prod[up] * prod[d]
        prod[up] = prod[up] * f
        prod[d], rest[d] = 1, 0
    return (prod[0] << bits) - rest[0], prod[0]


def cycle_value(f: Sequence[int], r: Sequence[int], bits: int) -> int:
    """phi at x = 2**bits of a cycle whose j-th vertex roots a tree with
    (phi(T_j), phi(T_j - root)) = (f_j, r_j) at 2**bits: the cycle-edge
    recurrence of the module docstring on the edge between the last vertex
    and the first."""
    without_cycle = 1
    for rj in r:
        without_cycle *= rj
    without_ends = r[0] * r[-1] * _chain(f[1:-1], r[1:-1], bits)
    return _chain(f, r, bits) - without_ends - 2 * without_cycle


def _chain(f: Sequence[int], r: Sequence[int], bits: int) -> int:
    """phi at x = 2**bits of rooted trees (f_j, r_j) whose roots form a path
    in order."""
    x = 1 << bits
    before, cur = 1, f[0]
    for j in range(1, len(f)):
        # a bare vertex has f_j = x, and x * cur is a shift
        grown = cur << bits if f[j] == x else f[j] * cur
        before, cur = cur, grown - r[j - 1] * r[j] * before
    return cur


# ---------------------------------------------------------------------------
# Independent reference route.
# ---------------------------------------------------------------------------

_REFERENCE_LIMIT = 64


def charpoly_reference(g: Graph) -> IntPolynomial:
    """Characteristic polynomial by the Faddeev-LeVerrier iteration.

    Exact integer arithmetic throughout; the division by the step index is
    asserted exact.  Intended as an oracle, so the order is capped.
    """
    n = g.n
    if n > _REFERENCE_LIMIT:
        raise ValueError("reference algorithm capped at n <= %d" % _REFERENCE_LIMIT)
    if n == 0:
        return ONE
    a = g.adjacency_matrix()
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs_desc = [1]  # c_0 = 1; c_k multiplies x**(n-k)
    for k in range(1, n + 1):
        am = _matmul(a, m)
        tr = sum(am[i][i] for i in range(n))
        if tr % k:
            raise AssertionError("Faddeev-LeVerrier division must be exact")
        c_k = -tr // k
        coeffs_desc.append(c_k)
        for i in range(n):
            am[i][i] += c_k
        m = am
    return IntPolynomial.from_coeffs(reversed(coeffs_desc))


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        row_a = a[i]
        row_out = out[i]
        for k in range(n):
            aik = row_a[k]
            if aik:
                row_b = b[k]
                for j in range(n):
                    row_out[j] += aik * row_b[j]
    return out
