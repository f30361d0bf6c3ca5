"""Exact characteristic polynomials of adjacency matrices.

``charpoly`` first strips leaves, which is all a tree or a connected
unicyclic graph needs, and falls back only when stripping gives up: a
disconnected graph multiplies its component polynomials, and a connected
graph with more edges than vertices goes to the exact general-purpose
reference algorithm.  Nothing is cached between calls.

Leaf stripping counts matchings.  With m_k the k-matchings of a graph H on
h vertices, m+(H) = sum_k m_k x**(h-2k) is its matching polynomial with
every sign positive.  A matching of a rooted tree T_v leaves v free or
pairs it with one child c, so (Schwenk, LNM 406, 1974, with + for -)

    m+(T_v - v) = prod_c m+(T_c),
    m+(T_v)     = x * prod_c m+(T_c)
                  + sum_c m+(T_c - c) * prod_{c' != c} m+(T_c'),

and a leaf v, once its own children are folded in, is folded into the one
neighbour it has left.  One pass over the edges gives each vertex its
degree and nb[v], the XOR of its neighbours; while v keeps one neighbour,
nb[v] is that neighbour, and the neighbour drops v by XOR-ing it out of its
own nb.  No adjacency list is built.  A vertex left with no neighbour is
the root of a whole tree, which is G when every vertex has been folded;
otherwise G is disconnected.  When no leaf is left, the vertices not
folded are the 2-core, which holds a cycle, so with fewer than n edges G
is disconnected.  With n edges, stripping k vertices removes k edges, so
the core has as many edges as vertices and minimum degree 2: every core
vertex has degree 2, and the core is one cycle exactly when one walk
around it (next = nb[cur] ^ prev) covers it.  A
unicyclic graph then carries one tree at each cycle vertex
c_0 .. c_{l-1}; with f_j = m+(T_{c_j}) and r_j = m+(T_{c_j} - c_j), a
matching leaves the edge uv = c_{l-1} c_0 out or takes it, so

    P = m+(G)     = chain(f, r) + r_0 * r_{l-1} * chain(f[1:-1], r[1:-1]),
    C = m+(G - Z) = prod_j r_j,

where Z is the cycle and chain is m+ of a path of rooted trees.  This cycle
step is ``cycle_pair``, shared by two routes: the leaf stripping above,
and the search, which has no graph but a bracelet word of rooted trees and
reads each tree's (f_j, r_j) off its level sequence (``rooted_pair``, the
same prod/rest fold in reverse preorder).

By Sachs' theorem phi(G) = m(G) - 2 * m(G - Z), with m(H) the signed
matching polynomial sum_k (-1)**k m_k x**(h-2k) (phi = m for a tree, where
C = 0), and m(H)(iX) = i**h * m+(H)(X), so z = phi(iX) / i**n is
P - 2 * i**(-l) * C (``phi_gaussian``).  Digit k of z in base X is
c_k * i**(k-n): Re z is P, P + 2C or, for l divisible by 4, P - 2C (whose
digits are the |c_k| of a bipartite graph, phi = x**(n-2r) * prod
(x**2 - lambda**2)), and Im z is 0 or +-2C.  So ``phi_from_gaussian`` reads
phi off the nonnegative base-X digits of Re z and |Im z|, each signed by
its index, once every |c_k| < X.

The sweep runs on plain integers: every polynomial is replaced by its value
at X = 2**b, a ring homomorphism Z[x] -> Z, so each + and * of the sweep,
and each multiplication by x (a left shift by b bits), is exact, with no
bound on intermediate values.  Folding children into a parent only adds
and multiplies in a commutative ring, so the order in which the stack pops
leaves changes nothing.

The bound (``coefficient_bits``, computed once per n):
sum_k |c_k| <= 2 * F_(n+1) for a tree or a connected unicyclic graph on n
vertices, the only graphs this route unpacks, with Fibonacci numbers
F_1 = F_2 = 1.  For a forest, sum_k |c_k| = m+(1) is the Hosoya index Z.
A forest is a spanning subgraph of a tree on the same vertices, and among
trees the path has the largest Z, so Z(forest on k vertices) <=
Z(P_k) = F_(k+1).  For a unicyclic G, sum_k |c_k| <= P(1) + 2 * C(1) =
Z(G-uv) + Z(G-u-v) + 2*Z(G-Z) <= F_(n+1) + F_(n-1) + 2*F_(n-2), since G-uv
is a tree on n vertices, G-u-v a forest on n - 2 and G-Z a forest on at
most n - 3.  F_(n-1) + 2*F_(n-2) = F_n + F_(n-2) <= F_(n+1), so the sum
is at most 2 * F_(n+1) < 2**(b-2) for b = bitlen(2 * F_(n+1)) + 2, the
digit width the sweep runs at.  C_3 attains the bound (sum 6 = 2 * F_4),
and a path has half of it.

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
    """Exact characteristic polynomial det(xI - A(g)).

    Trees and connected unicyclic graphs of any order take leaf stripping,
    and a disconnected graph multiplies the polynomials of its components.
    A connected graph or component with more edges than vertices goes to
    ``charpoly_reference``, which raises ValueError above 64 vertices.
    """
    if g.n == 0:
        return ONE
    if g.edge_count <= g.n:
        bits = coefficient_bits(g.n)
        z = _sparse_value(g, bits)
        if z is not None:
            return phi_from_gaussian(z, g.n, bits)
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


def phi_gaussian(p: int, c: int, cycle_len: int) -> tuple[int, int]:
    """(Re z, Im z) for z = phi(iX) / i**n = P - 2 * i**(-l) * C, from P and C
    at X and l = ``cycle_len`` (l = 0 and C = 0 for a tree)."""
    two_c = -2 * c if cycle_len & 2 else 2 * c
    return (p, two_c) if cycle_len & 1 else (p - two_c, 0)


def phi_from_gaussian(z: tuple[int, int], n: int, bits: int) -> IntPolynomial:
    """phi of order n from ``phi_gaussian``'s z at X = 2**bits (module
    docstring); ValueError unless the value has exactly n + 1 digits."""
    re, im = z
    sign = -1 if im < 0 else 1
    value = re + sign * im  # the digits of Re z and Im z lie at alternate k
    if re < 0 or value.bit_length() > bits * (n + 1):
        raise ValueError("z has Re z < 0 or more than %d digits of %d bits" % (n + 1, bits))
    mask = (1 << bits) - 1
    signs = (1, -sign, -1, sign)  # digit k of z is c_k * i**(k-n), by (n - k) % 4
    return IntPolynomial(
        tuple([signs[(n - k) % 4] * ((value >> bits * k) & mask) for k in range(n + 1)])
    )


def _sparse_value(g: Graph, bits: int) -> Optional[tuple[int, int]]:
    """``phi_gaussian``'s z at X = 2**bits by leaf stripping, for a tree or a
    connected unicyclic graph; None for any other graph with at most n edges."""
    n = g.n
    deg = [0] * n
    nb = [0] * n  # XOR of the neighbours not yet folded away
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
        nb[u] ^= v
        nb[v] ^= u
    # over the children folded in so far: prod[v] = prod_c m+(T_c) and
    # rest[v] = sum_c m+(T_c - c) * prod_{c' != c} m+(T_c'); x * p is p << bits
    prod = [1] * n
    rest = [0] * n
    stack = [v for v in range(n) if deg[v] <= 1]
    peeled = 0
    while stack:
        v = stack.pop()
        peeled += 1
        f = (prod[v] << bits) + rest[v]
        if not deg[v]:  # v is the root of a whole tree
            return (f, 0) if peeled == n else None
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
    f = [(prod[c] << bits) + rest[c] for c in cycle]
    return phi_gaussian(*cycle_pair(f, [prod[c] for c in cycle], bits), len(cycle))


def rooted_pair(level_sequence: Sequence[int], bits: int) -> tuple[int, int]:
    """(m+(T), m+(T - root)) at x = 2**bits for the rooted tree T with this
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
        f = (prod[d] << bits) + rest[d]
        up = d - 1
        rest[up] = rest[up] * f + prod[up] * prod[d]
        prod[up] = prod[up] * f
        prod[d], rest[d] = 1, 0
    return (prod[0] << bits) + rest[0], prod[0]


def cycle_pair(f: Sequence[int], r: Sequence[int], bits: int) -> tuple[int, int]:
    """(P, C) = (m+(G), m+(G - Z)) at x = 2**bits for a cycle Z whose j-th
    vertex roots a tree with (m+(T_j), m+(T_j - root)) = (f_j, r_j) at
    2**bits: the cycle step of the module docstring, on the edge between
    the last vertex and the first."""
    without_cycle = 1
    for rj in r:
        without_cycle *= rj
    with_edge = r[0] * r[-1] * _chain(f[1:-1], r[1:-1], bits)
    return _chain(f, r, bits) + with_edge, without_cycle


def _chain(f: Sequence[int], r: Sequence[int], bits: int) -> int:
    """m+ at x = 2**bits of rooted trees (f_j, r_j) whose roots form a path
    in order."""
    x = 1 << bits
    before, cur = 1, f[0]
    for j in range(1, len(f)):
        # a bare vertex has f_j = x, and x * cur is a shift
        grown = cur << bits if f[j] == x else f[j] * cur
        before, cur = cur, grown + r[j - 1] * r[j] * before
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
