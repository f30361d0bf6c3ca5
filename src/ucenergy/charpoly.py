"""Exact characteristic polynomials of adjacency matrices.

``charpoly`` dispatches on structure.  Disconnected graphs multiply their
component polynomials.  A tree and a connected unicyclic graph both go
through Schwenk's rooted recurrence (Schwenk, "Computing the characteristic
polynomial of a graph", LNM 406, 1974): for a rooted tree T_v with child
subtrees T_c,

    phi(T_v - v) = prod_c phi(T_c),
    phi(T_v)     = x * prod_c phi(T_c)
                   - sum_c phi(T_c - c) * prod_{c' != c} phi(T_c'),

swept once from the leaves up.  A tree is rooted at vertex 0.  A unicyclic
graph roots one tree at each cycle vertex c_0 .. c_{l-1}; with
f_j = phi(T_{c_j}) and r_j = phi(T_{c_j} - c_j), the cycle-edge recurrence
phi(G) = phi(G-uv) - phi(G-u-v) - 2*phi(G-C) on the edge uv = c_{l-1} c_0
needs only

    phi(G-C)   = prod_j r_j,
    phi(G-uv)  = chain(f, r),
    phi(G-u-v) = r_0 * r_{l-1} * chain(f[1:-1], r[1:-1]),

where chain is the characteristic polynomial of a path of rooted trees.
Nothing is cached between calls.  Anything denser falls back to the exact
general-purpose reference algorithm.

``charpoly_reference`` is the independent trust anchor: the
Faddeev-LeVerrier iteration over arbitrary-precision integers, where every
division is by a loop index and is checked to be exact.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph, connected_components, induced_subgraph, unique_cycle
from .polynomials import ONE, X, IntPolynomial

_ZERO = IntPolynomial(())


def charpoly(g: Graph) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - A(g))."""
    if g.n == 0:
        return ONE
    comps = connected_components(g)
    if len(comps) > 1:
        result = ONE
        for comp in comps:
            result = result * charpoly(induced_subgraph(g, comp))
        return result
    m = g.edge_count
    if m == g.n - 1:
        f, _ = _rooted_trees(g, [0])
        return f[0]
    if m == g.n:
        return _unicyclic_charpoly(g)
    return charpoly_reference(g)


def _unicyclic_charpoly(g: Graph) -> IntPolynomial:
    cycle = unique_cycle(g)
    assert cycle is not None
    f, r = _rooted_trees(g, cycle)
    without_cycle = ONE
    for rj in r:
        without_cycle = without_cycle * rj
    without_edge = _chain(f, r)
    without_ends = r[0] * r[-1] * _chain(f[1:-1], r[1:-1])
    return without_edge - without_ends - 2 * without_cycle


def _rooted_trees(
    g: Graph, roots: Sequence[int]
) -> tuple[list[IntPolynomial], list[IntPolynomial]]:
    """phi(T_v) and phi(T_v - v) for each root v, in the order of ``roots``.

    T_v is the tree hanging from v away from the other roots; a BFS from the
    roots, swept in reverse, folds each vertex into its parent.
    """
    seen = [False] * g.n
    for v in roots:
        seen[v] = True
    parent = [0] * g.n
    order = list(roots)
    for v in order:
        for w in g.neighbors(v):
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                order.append(w)
    # over the children folded in so far: prod[v] = prod_c phi(T_c) and
    # rest[v] = sum_c phi(T_c - c) * prod_{c' != c} phi(T_c')
    prod = [ONE] * g.n
    rest = [_ZERO] * g.n
    for v in reversed(order[len(roots) :]):
        f = X * prod[v] - rest[v]
        p = parent[v]
        rest[p] = rest[p] * f + prod[p] * prod[v]
        prod[p] = prod[p] * f
    return [X * prod[v] - rest[v] for v in roots], [prod[v] for v in roots]


def _chain(f: Sequence[IntPolynomial], r: Sequence[IntPolynomial]) -> IntPolynomial:
    """phi of rooted trees (f_j, r_j) whose roots form a path in order."""
    before, cur = ONE, f[0]
    for j in range(1, len(f)):
        before, cur = cur, f[j] * cur - r[j - 1] * r[j] * before
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
