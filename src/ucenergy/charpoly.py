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

The sweep runs on plain integers: every polynomial is replaced by its value
at x = 2**b.  Evaluation at 2**b is a ring homomorphism Z[x] -> Z, so each
+, -, * of the sweep, and each multiplication by x (a left shift by b
bits), gives exactly phi(G)(2**b).  Intermediate values need no bound.
Only the final value is unpacked, once, into its balanced base-2**b digits
(``IntPolynomial.from_packed``), and those are the coefficients c_k of
phi(G) as soon as every |c_k| < 2**(b-1).

The bound (``coefficient_bits``): for a graph with n vertices and m <= n
edges, which covers every tree and unicyclic graph, sum_k |c_k| <
(5/2)**n.  The eigenvalues l_1 .. l_n are real and c_{n-k} = (-1)**k
e_k(l), so |c_{n-k}| <= e_k(|l|) <= C(n,k) * (S/n)**k with S = sum |l_i|,
by Maclaurin's inequality (e_k / C(n,k))**(1/k) <= e_1 / n.  By
Cauchy-Schwarz, S/n <= sqrt(sum l_i**2 / n) = sqrt(2m/n) <= sqrt(2).
Summing over k, sum_k |c_k| <= (1 + sqrt 2)**n < (5/2)**n < 2**(b-2) for
b = bitlen(5**n) - n + 2, since 5**n < 2**bitlen(5**n).  The sweep rounds b
up to a multiple of 8, the digit width ``from_packed`` reads.  The bound is
loose (max |c_k| over all unicyclic graphs is 9, 30 and 112 at n = 6, 9
and 12, against 2**8, 2**12 and 2**16), which keeps the digits short.

This is not Kronecker substitution per product, which packs both factors
and unpacks the result around every multiplication and gained nothing
here: nothing is ever packed.  The sweep starts from the integers 1 and
2**b and stays in integers until the end.

``charpoly_reference`` is the independent trust anchor: the
Faddeev-LeVerrier iteration over arbitrary-precision integers, where every
division is by a loop index and is checked to be exact.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph, connected_components, induced_subgraph, unique_cycle
from .polynomials import ONE, IntPolynomial


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
    if m > g.n:
        return charpoly_reference(g)
    bits = -(-coefficient_bits(g.n) // 8) * 8  # whole bytes per digit
    if m == g.n:
        value = _unicyclic_value(g, bits)
    else:  # connected with n - 1 edges: a tree
        value = _rooted_trees(g, [0], bits)[0][0]
    return IntPolynomial.from_packed(value, bits, g.n + 1)


def coefficient_bits(n: int) -> int:
    """b with sum_k |c_k| < 2**(b-2) for phi(G), G with n vertices and at
    most n edges (proof in the module docstring)."""
    return (5**n).bit_length() - n + 2


def _unicyclic_value(g: Graph, bits: int) -> int:
    """phi(g)(2**bits) for a connected unicyclic graph."""
    cycle = unique_cycle(g)
    assert cycle is not None
    f, r = _rooted_trees(g, cycle, bits)
    without_cycle = 1
    for rj in r:
        without_cycle *= rj
    without_edge = _chain(f, r, bits)
    without_ends = r[0] * r[-1] * _chain(f[1:-1], r[1:-1], bits)
    return without_edge - without_ends - 2 * without_cycle


def _rooted_trees(
    g: Graph, roots: Sequence[int], bits: int
) -> tuple[list[int], list[int]]:
    """phi(T_v) and phi(T_v - v) at x = 2**bits for each root v, in the
    order of ``roots``.

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
    # rest[v] = sum_c phi(T_c - c) * prod_{c' != c} phi(T_c'); x * p is p << bits
    prod = [1] * g.n
    rest = [0] * g.n
    for v in reversed(order[len(roots) :]):
        f = (prod[v] << bits) - rest[v]
        p = parent[v]
        rest[p] = rest[p] * f + prod[p] * prod[v]
        prod[p] = prod[p] * f
    return [(prod[v] << bits) - rest[v] for v in roots], [prod[v] for v in roots]


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
