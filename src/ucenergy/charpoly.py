"""Exact characteristic polynomials of adjacency matrices.

``charpoly`` dispatches on structure: forests go through the pendant-edge
deletion recurrence phi(G) = x*phi(G-v) - phi(G-u-v), memoised on canonical
forest codes; a connected unicyclic graph needs a single application of the
cycle-edge recurrence phi(G) = phi(G-uv) - phi(G-u-v) - 2*phi(G-C), after
which every residual graph is a forest; disconnected graphs multiply their
component polynomials, and anything denser falls back to the exact
general-purpose reference algorithm.

``charpoly_reference`` is the independent trust anchor: the
Faddeev-LeVerrier iteration over arbitrary-precision integers, where every
division is by a loop index and is checked to be exact.
"""

from __future__ import annotations

from .graphs import Graph, connected_components, induced_subgraph, unique_cycle
from .polynomials import ONE, X, IntPolynomial
from .trees import free_tree_code

# Shared across calls; keys are canonical forest codes, values are final and
# deterministic, so concurrent duplicate inserts are benign.
_FOREST_MEMO: dict[tuple, IntPolynomial] = {}


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
        return _forest_charpoly(g.adjacency_dict())
    if m == g.n:
        return _unicyclic_charpoly(g)
    return charpoly_reference(g)


def _unicyclic_charpoly(g: Graph) -> IntPolynomial:
    cycle = unique_cycle(g)
    assert cycle is not None
    u, v = cycle[0], cycle[1]
    adj = g.adjacency_dict()

    spanning = {w: set(nb) for w, nb in adj.items()}
    spanning[u].discard(v)
    spanning[v].discard(u)

    without_ends = _delete(adj, (u, v))
    without_cycle = _delete(adj, cycle)

    return (
        _forest_charpoly(spanning)
        - _forest_charpoly(without_ends)
        - 2 * _forest_charpoly(without_cycle)
    )


def _delete(adj: dict[int, set[int]], vertices) -> dict[int, set[int]]:
    drop = set(vertices)
    return {v: nb - drop for v, nb in adj.items() if v not in drop}


def _forest_components(adj: dict[int, set[int]]) -> list[list[int]]:
    seen = set()
    comps = []
    for start in adj:
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def _forest_code(adj: dict[int, set[int]]) -> tuple:
    return tuple(sorted(free_tree_code(adj, comp) for comp in _forest_components(adj)))


def _forest_charpoly(adj: dict[int, set[int]]) -> IntPolynomial:
    """Pendant recurrence with memoisation on the canonical forest code."""
    if not adj:
        return ONE
    code = _forest_code(adj)
    cached = _FOREST_MEMO.get(code)
    if cached is not None:
        return cached
    leaf = None
    for v, nb in adj.items():
        if len(nb) == 1:
            leaf = v
            break
    if leaf is None:
        # every vertex isolated
        result = IntPolynomial.x_power(len(adj))
    else:
        support = next(iter(adj[leaf]))
        result = X * _forest_charpoly(_delete(adj, (leaf,))) - _forest_charpoly(
            _delete(adj, (leaf, support))
        )
    _FOREST_MEMO[code] = result
    return result


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
