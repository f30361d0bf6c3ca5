import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bipartite_b_coeffs, matching_count, matchings_brute
from ucenergy import graphs
from ucenergy.charpoly import (
    charpoly,
    charpoly_reference,
    coefficient_bits,
    phi_from_gaussian,
    phi_gaussian,
)
from ucenergy.enumeration import unicyclic_graphs
from ucenergy.graphs import (
    Graph,
    connected_components,
    make_cycle,
    make_lollipop,
    make_path,
)
from ucenergy.polynomials import IntPolynomial, X

# the package exports the function charpoly under the module's name
charpoly_module = importlib.import_module("ucenergy.charpoly")


def P(*ascending):
    return IntPolynomial.from_coeffs(ascending)


def test_known_polynomials():
    assert charpoly(make_cycle(3)) == P(-2, -3, 0, 1)
    assert charpoly(make_cycle(4)) == P(0, 0, -4, 0, 1)
    assert charpoly_reference(make_cycle(4)) == P(0, 0, -4, 0, 1)
    assert charpoly(make_lollipop(8, 6)) == P(4, 0, -16, 0, 19, 0, -8, 0, 1)
    assert charpoly(make_lollipop(7, 6)) == P(0, -7, 0, 13, 0, -7, 0, 1)
    assert charpoly(make_lollipop(4, 3)) == P(1, -2, -4, 0, 1)


def test_empty_and_trivial_graphs():
    assert charpoly(Graph.from_edges(0, [])) == P(1)
    assert charpoly(Graph.from_edges(1, [])) == P(0, 1)
    assert charpoly(Graph.from_edges(3, [])) == P(0, 0, 0, 1)


def test_disconnected_is_component_product():
    g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6)])
    expected = charpoly(make_cycle(3)) * charpoly(make_path(2)) ** 2
    assert charpoly(g) == expected


def test_moment_coefficients():
    for n, l in [(7, 3), (12, 6), (20, 13), (30, 8)]:
        g = make_lollipop(n, l)
        p = charpoly(g)
        assert p.degree == n and p.leading == 1
        assert p.coeffs[n - 1] == 0
        assert p.coeffs[n - 2] == -g.edge_count


def test_three_term_recurrence_identity_exact():
    # phi(L(n,t)) = x*phi(L(n-1,t)) - phi(L(n-2,t)) for 3 <= t <= n-2, n <= 30
    cache = {}

    def lp(n, t):
        if (n, t) not in cache:
            cache[(n, t)] = charpoly(make_lollipop(n, t))
        return cache[(n, t)]

    for n in range(5, 31):
        for t in range(3, n - 1):
            assert lp(n, t) == X * lp(n - 1, t) - lp(n - 2, t), (n, t)


def test_initial_segment_identity():
    # phi(L(t+2,t)) = phi(P_{t+2}) - phi(P_{t-2}) * phi(P_2) - 2 phi(P_2)
    two = IntPolynomial((2,))
    for t in range(3, 21):
        lhs = charpoly(make_lollipop(t + 2, t))
        p2 = charpoly(make_path(2))
        rhs = charpoly(make_path(t + 2)) - charpoly(make_path(t - 2)) * p2 - two * p2
        assert lhs == rhs, t


def test_bipartite_sign_structure():
    cases = [make_path(n) for n in range(1, 12)]
    cases += [make_cycle(n) for n in range(4, 13, 2)]
    cases += [make_lollipop(n, l) for l in (4, 6, 8) for n in range(l, l + 5)]
    for g in cases:
        bs = bipartite_b_coeffs(charpoly(g))
        assert all(b >= 0 for b in bs)


def test_reference_agreement_on_cycles():
    for n in range(3, 13):
        assert charpoly(make_cycle(n)) == charpoly_reference(make_cycle(n))


def test_reference_agreement_exhaustive(unicyclic_by_order):
    for n, items in unicyclic_by_order.items():
        for _, g in items:
            assert charpoly(g) == charpoly_reference(g)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, chosen)


@given(small_graphs())
@settings(max_examples=80)
def test_reference_agreement_random(g):
    assert charpoly(g) == charpoly_reference(g)


def _relabelled(n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _random_tree_edges(n, rng, first=1):
    return [(rng.randrange(v), v) for v in range(first, n)]


@pytest.mark.parametrize("seed", range(12))
def test_reference_agreement_random_unicyclic(seed):
    # a random forest hung on a random cycle, labels shuffled
    rng = random.Random(seed)
    n = rng.randint(30, 60)
    l = rng.randint(3, n)
    edges = [(i, (i + 1) % l) for i in range(l)] + _random_tree_edges(n, rng, first=l)
    g = _relabelled(n, edges, rng)
    assert g.edge_count == n
    assert charpoly(g) == charpoly_reference(g)


@pytest.mark.parametrize("seed", range(8))
def test_reference_agreement_random_forests(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(2, 60)
    tree = _random_tree_edges(n, rng)
    g = _relabelled(n, tree, rng)
    assert charpoly(g) == charpoly_reference(g)
    # dropping edges leaves a forest of several trees
    kept = rng.sample(tree, len(tree) - rng.randint(1, min(4, len(tree))))
    forest = _relabelled(n, kept, rng)
    assert charpoly(forest) == charpoly_reference(forest)


def _cycle_edges(first, l):
    return [(first + i, first + (i + 1) % l) for i in range(l)]


def _hung(rng, base, first, n):
    # vertices first..n-1 hung as trees from vertices base..first-1
    return [(rng.randrange(base, v), v) for v in range(first, n)]


def _give_up_cases(n, rng):
    """(name, edges, m - n) for graphs on n >= 8 vertices on which leaf
    stripping gives up: a component on 0..k-1 and another on k..n-1."""
    l = rng.randint(3, n - 4)
    k = rng.randint(l + 1, n - 3)
    uni = _cycle_edges(0, l) + _hung(rng, 0, l, k)
    # a theta graph: the cycle plus a chord path through vertex l
    core = _cycle_edges(0, l) + [(0, l), (l, l // 2 + 1)]
    theta = core + _hung(rng, 0, l + 1, k)
    tree = _hung(rng, k, k + 1, n)
    triangle = _cycle_edges(k, 3) + _hung(rng, k, k + 3, n)
    return [
        ("unicyclic + tree", uni + tree, -1),
        ("bicyclic + tree", theta + tree, 0),
        ("two cycles", uni + triangle, 0),
        ("bicyclic + isolated vertices", theta, k + 1 - n),
        ("unicyclic + isolated vertices", uni, k - n),
        ("connected bicyclic", core + _hung(rng, 0, l + 1, n), 1),
        ("isolated vertices", [], -n),
    ]


@pytest.mark.parametrize("seed", range(6))
def test_stripping_that_gives_up_falls_back_exactly(seed):
    rng = random.Random(300 + seed)
    for n in range(8, 21):
        for name, edges, excess in _give_up_cases(n, rng):
            g = _relabelled(n, edges, rng)
            assert g.edge_count - n == excess, (name, n)
            assert charpoly(g) == charpoly_reference(g), (name, n)
    for g in (Graph(1, ()), Graph(2, ()), Graph(2, ((0, 1),))):
        assert charpoly(g) == charpoly_reference(g)


def _star(n):
    return Graph.from_edges(n, [(0, v) for v in range(1, n)])


def test_trees_and_unicyclic_graphs_take_one_pass(monkeypatch):
    def forbidden(*args):
        raise AssertionError("charpoly left the leaf-stripping route")

    for module, name in (
        (charpoly_module, "connected_components"),
        (charpoly_module, "charpoly_reference"),
        (graphs, "connected_components"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    for n in range(3, 10):
        for code, g in unicyclic_graphs(n):
            assert charpoly(g).degree == n, code
    for n in range(1, 40):
        assert charpoly(make_path(n)).degree == n
        assert charpoly(_star(n)).degree == n


def test_only_trees_and_unicyclic_graphs_are_unpacked(monkeypatch):
    # coefficient_bits is proved for these two kinds alone
    unpacked = []
    sparse_value = charpoly_module._sparse_value

    def spy(g, bits):
        value = sparse_value(g, bits)
        if value is not None:
            unpacked.append(g)
        return value

    monkeypatch.setattr(charpoly_module, "_sparse_value", spy)
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(1, 12)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        m = min(len(pairs), max(0, n + rng.randint(-3, 1)))
        g = Graph.from_edges(n, rng.sample(pairs, m))
        assert charpoly(g) == charpoly_reference(g)
    assert len(unpacked) > 100
    for g in unpacked:
        assert len(connected_components(g)) == 1
        assert g.edge_count in (g.n - 1, g.n)


def _spare_bit(g):
    # the Fibonacci bound of charpoly.py: sum_k |c_k| <= 2 * F_(n+1) <
    # 2**(b-2), which the search's bracket digits need; the nonnegative
    # digits of z at 2**b need only every |c_k| < 2**b
    return sum(abs(c) for c in charpoly(g).coeffs) < 2 ** (coefficient_bits(g.n) - 2)


def test_coefficient_bound_on_every_small_unicyclic_graph():
    for n in range(3, 12):
        for code, g in unicyclic_graphs(n):
            assert _spare_bit(g), code


def test_coefficient_bound_on_families_up_to_200():
    for n in range(1, 201):
        family = {"P": make_path(n), "K1": _star(n)}
        if n >= 3:
            family.update(C=make_cycle(n), L3=make_lollipop(n, 3))
        if n >= 6:
            family.update(L6=make_lollipop(n, 6))
        for name, g in family.items():
            assert _spare_bit(g), (name, n)


def test_paths_and_cycles_match_their_recurrences_up_to_200():
    # phi(P_n) = x phi(P_{n-1}) - phi(P_{n-2}) and
    # phi(C_n) = phi(P_n) - phi(P_{n-2}) - 2, in IntPolynomial arithmetic
    paths = [P(1), P(0, 1)]
    while len(paths) <= 200:
        paths.append(X * paths[-1] - paths[-2])
    for n in (1, 2, 50, 199, 200):
        assert charpoly(make_path(n)) == paths[n]
    for n in (3, 4, 51, 199, 200):
        assert charpoly(make_cycle(n)) == paths[n] - paths[n - 2] - P(2)


def test_unpacking_with_too_few_bits_raises():
    # C_3: phi = x^3 - 3x - 2, P = x^3 + 3x and C = 1
    z = phi_gaussian((1 << 24) + 3 * (1 << 8), 1, 3)
    assert phi_from_gaussian(z, 3, 8) == P(-2, -3, 0, 1)
    with pytest.raises(ValueError):  # a value packed at 2**8 read at 2**4
        phi_from_gaussian(z, 3, 4)
    with pytest.raises(ValueError):  # a digit too many for order 2
        phi_from_gaussian(z, 2, 8)
    with pytest.raises(ValueError):  # a digit too few for order 4, whose phi is monic
        phi_from_gaussian(z, 4, 8)
    with pytest.raises(ValueError):  # Re z is never negative
        phi_from_gaussian((-1, 0), 3, 8)
    # digits need not be whole bytes
    z5 = phi_gaussian((1 << 15) + 3 * (1 << 5), 1, 3)
    assert phi_from_gaussian(z5, 3, 5) == P(-2, -3, 0, 1)


def test_reference_rejects_oversized():
    with pytest.raises(ValueError):
        charpoly_reference(Graph.from_edges(65, []))
    # charpoly sends a component with more edges than vertices there; a
    # unicyclic graph of that order takes leaf stripping
    chord = make_cycle(65).edges + ((0, 2),)
    with pytest.raises(ValueError, match="capped at n <= 64"):
        charpoly(Graph.from_edges(65, chord))
    with pytest.raises(ValueError, match="capped at n <= 64"):
        charpoly(Graph.from_edges(66, chord))  # vertex 65 is a component of its own
    assert charpoly(make_cycle(65)).degree == 65


# -- matchings ----------------------------------------------------------------


def test_matching_counts_trivial():
    assert matching_count(make_path(4), 1) == 3
    assert matching_count(make_path(4), 2) == 1
    assert matching_count(make_path(5), 2) == 3
    assert matching_count(make_path(5), 0) == 1
    assert matching_count(make_path(5), 3) == 0


def test_matching_count_rejects_non_forest():
    with pytest.raises(ValueError):
        matching_count(make_cycle(4), 1)


@st.composite
def forests(draw):
    n = draw(st.integers(1, 9))
    edges = []
    for v in range(1, n):
        if draw(st.booleans()):
            edges.append((draw(st.integers(0, v - 1)), v))
    return Graph.from_edges(n, edges)


@given(forests())
def test_matchings_against_brute_force(g):
    for k in range(0, g.n // 2 + 1):
        assert matching_count(g, k) == matchings_brute(g.n, g.edges, k)


@given(forests())
def test_tree_coefficients_count_matchings(g):
    p = charpoly(g)
    n = g.n
    for k in range(0, n // 2 + 1):
        assert matching_count(g, k) == (-1) ** k * p.coeffs[n - 2 * k]
