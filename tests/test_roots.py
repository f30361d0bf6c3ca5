import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import bisect_reference, squarefree_part
import ucenergy.polynomials as polynomials
import ucenergy.roots as roots
from ucenergy.charpoly import charpoly
from ucenergy.eigensolver import energy_eigensolver
from ucenergy.enumeration import unicyclic_graphs
from ucenergy.graphs import Graph, make_cycle, make_lollipop, make_path
from ucenergy.polynomials import (
    IntPolynomial,
    squarefree_decomposition,
    sturm_chain,
)
from ucenergy.roots import (
    ConvergenceError,
    RootEnclosure,
    _isolate_squarefree,
    energy_of_poly,
    refine_enclosure,
)


def P(*ascending):
    return IntPolynomial.from_coeffs(ascending)


def test_isolates_pm_one():
    enclosures = _isolate_squarefree(P(-1, 0, 1))
    assert len(enclosures) == 2
    assert enclosures[0].lo < -1 < enclosures[0].hi or enclosures[0].lo == enclosures[0].hi == -1
    assert all(e.multiplicity == 1 for e in enclosures)


def test_isolates_c4_spectrum_with_multiplicity():
    factors = squarefree_decomposition(charpoly(make_cycle(4)))
    assert sorted(factors, key=lambda fm: fm[1]) == [(P(-4, 0, 1), 1), (P(0, 1), 2)]
    spots = []
    for factor, mult in factors:
        for e in _isolate_squarefree(factor):
            refined = refine_enclosure(factor, e, Fraction(1, 10**6))
            spots.append((round(float(refined.midpoint), 5), mult))
    assert sorted(spots) == [(-2.0, 1), (0.0, 2), (2.0, 1)]


def test_bipartite_spectrum_symmetry():
    p = charpoly(make_lollipop(8, 6))
    tight = [
        refine_enclosure(factor, e, Fraction(1, 10**9))
        for factor, _ in squarefree_decomposition(p)
        for e in _isolate_squarefree(factor)
    ]
    assert len(tight) == 8
    values = sorted(float(e.midpoint) for e in tight)
    for lo_val, hi_val in zip(values, reversed(values)):
        assert abs(lo_val + hi_val) < 1e-8


def test_non_finite_tolerance_rejected():
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError):
            energy_of_poly(charpoly(make_cycle(5)), tol)


def test_zero_polynomial_rejected():
    for entry in (squarefree_decomposition, sturm_chain, energy_of_poly):
        with pytest.raises(ValueError):
            entry(IntPolynomial(()))


def test_energy_values_and_radius_guarantee():
    e = energy_of_poly(charpoly(make_cycle(4)), 1e-9)
    assert abs(e.value - 4.0) <= e.radius
    assert e.radius <= 1e-9
    e7 = energy_of_poly(charpoly(make_cycle(7)), 1e-7)
    assert round(e7.value, 5) == 8.98792
    e76 = energy_of_poly(charpoly(make_lollipop(7, 6)), 1e-7)
    assert round(e76.value, 5) == 8.72057


def test_energy_rejects_complex_spectra():
    # x^2 + 1 has no real roots
    with pytest.raises(ValueError):
        energy_of_poly(P(1, 0, 1))
    # (10^6 x^2 + 1)(x^2 - 9): a complex pair close to two real seeds
    with pytest.raises(ValueError):
        energy_of_poly(P(1, 0, 10**6) * P(-9, 0, 1))


def test_energy_handles_zero_roots_exactly():
    # x^3 (x^2 - 9): energy 6 with a triple zero root
    p = P(0, 0, 0, -9, 0, 1)
    e = energy_of_poly(p, 1e-10)
    assert abs(e.value - 6.0) <= e.radius <= 1e-10


@pytest.fixture(scope="module")
def spectra_to_nine():
    """Distinct characteristic polynomials of unicyclic graphs with n <= 9."""
    polys = {charpoly(g) for n in range(3, 10) for _, g in unicyclic_graphs(n)}
    return sorted(polys, key=lambda p: (p.degree, p.coeffs))


def test_seeded_enclosures_overlap_sturm_enclosures(spectra_to_nine):
    width = Fraction(1, 2**30)
    fallbacks = 0
    for p in spectra_to_nine:
        core = p.shift_down(p.lowest_power())
        factors = squarefree_decomposition(core)
        if roots._verified_enclosures(core, width)[0] is None:
            # only repeated eigenvalues (the cycles among them) fall back
            assert max(mult for _, mult in factors) > 1, p
            fallbacks += 1
        seeded = sorted(roots._core_enclosures(core, width), key=lambda e: e[0].midpoint)
        sturm = sorted(
            (
                (refine_enclosure(factor, enc, width), mult)
                for factor, mult in factors
                for enc in _isolate_squarefree(factor)
            ),
            key=lambda e: e[0].midpoint,
        )
        assert [mult for _, mult in seeded] == [mult for _, mult in sturm]
        for (a, _), (b, _) in zip(seeded, sturm):
            assert a.width <= width
            assert a.lo <= b.hi and b.lo <= a.hi, (p, a, b)
    assert fallbacks > 0


def test_repeated_and_complex_roots_take_the_fallback(monkeypatch):
    calls = []
    yun = roots.squarefree_decomposition

    def spy(p, *args):
        calls.append(p)
        return yun(p, *args)

    monkeypatch.setattr(roots, "squarefree_decomposition", spy)
    e = energy_of_poly(charpoly(make_cycle(6)))  # eigenvalues 2, 1, 1, -1, -1, -2
    assert len(calls) == 1 and abs(e.value - 8.0) <= e.radius
    calls.clear()
    with pytest.raises(ValueError):
        energy_of_poly(P(1, 0, 1))
    assert calls == [P(1, 0, 1)]


def test_yun_reuses_the_gcd_at_the_end_of_the_sturm_chain(monkeypatch):
    seen = []
    gcd = polynomials.poly_gcd

    def spy(a, b):
        seen.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(polynomials, "poly_gcd", spy)
    p = charpoly(make_cycle(6))  # no zero root, so p is its own core
    e = energy_of_poly(p)
    assert abs(e.value - 8.0) <= e.radius
    assert seen and (p, p.derivative()) not in seen


@pytest.mark.parametrize("tol", [1e-7, 1e-12])
def test_squarefree_spectrum_never_reaches_sturm(monkeypatch, tol):
    def forbidden(p, *args):
        raise AssertionError("fallback route taken for %s" % p)

    monkeypatch.setattr(roots, "squarefree_decomposition", forbidden)
    monkeypatch.setattr(roots, "_isolate_squarefree", forbidden)
    e = energy_of_poly(charpoly(make_lollipop(8, 6)), tol)
    assert round(e.value, 5) == 10.42429
    assert e.radius <= tol


def test_radius_covers_rounding_to_a_double():
    e4 = energy_of_poly(charpoly(make_cycle(4)), 1e-15)
    assert e4.value == 4.0 and e4.radius <= 1e-15
    e3 = energy_of_poly(charpoly(make_path(3)), 1e-15)  # 2 * sqrt(2)
    assert 0 < e3.radius <= 1e-15
    assert abs(e3.value - math.sqrt(8)) <= e3.radius + 2.0**-52
    # the double nearest 2 * sqrt(2) is further off than 1e-17
    with pytest.raises(ConvergenceError):
        energy_of_poly(charpoly(make_path(3)), 1e-17)


# (3x - 1)(2x + 5)(x^2 - 7) (5x + 2)^2 x^2: non-monic, with Yun factors whose
# Cauchy bounds 1 + 44/6 = 25/3 and 1 + 2/5 = 7/5 have coprime odd parts
_NON_DYADIC = P(-1, 3) * P(5, 2) * P(-7, 0, 1) * P(2, 5) ** 2 * P(0, 0, 1)


@pytest.mark.parametrize("tol", [1e-7, 1e-12])
@pytest.mark.parametrize(
    "route, p",
    [
        ("seeds", charpoly(make_lollipop(8, 6))),
        ("seeds", charpoly(make_path(5))),  # a zero root
        ("yun", charpoly(make_cycle(8))),  # repeated eigenvalues
        ("sturm", _NON_DYADIC),
    ],
)
def test_energy_is_the_exact_sum_of_its_enclosures(monkeypatch, route, p, tol):
    found, factored, isolated = [], [], []
    core_enclosures, yun = roots._core_enclosures, roots.squarefree_decomposition

    def record(core, budget):
        found.extend(core_enclosures(core, budget))
        return found

    def spy_yun(*args):
        factored.append(args[0])
        return yun(*args)

    def spy_isolate(f):
        isolated.append(f)
        return _isolate_squarefree(f)

    monkeypatch.setattr(roots, "_core_enclosures", record)
    monkeypatch.setattr(roots, "squarefree_decomposition", spy_yun)
    monkeypatch.setattr(roots, "_isolate_squarefree", spy_isolate)
    if route == "sturm":
        monkeypatch.setattr(roots, "_jacobi_seeds", lambda chain: None)
    e = energy_of_poly(p, tol)
    assert (bool(factored), bool(isolated)) == {
        "seeds": (False, False), "yun": (True, False), "sturm": (True, True)
    }[route]
    ends = {end.denominator for enc, _ in found for end in (enc.lo, enc.hi)}
    assert any(den & (den - 1) for den in ends) == (route == "sturm")  # not 2**k
    value = sum((mult * abs(enc.midpoint) for enc, mult in found), Fraction(0))
    radius = sum((mult * enc.width for enc, mult in found), Fraction(0)) / 2
    radius += abs(Fraction(float(value)) - value)
    rounded = float(radius)
    if Fraction(rounded) < radius:
        rounded = math.nextafter(rounded, math.inf)
    assert (e.value, e.radius) == (float(value), rounded)


def test_bisection_stops_at_a_root_or_its_budget():
    # the first midpoint of [0, 1] is the root of 2x - 1
    unit, half = RootEnclosure(Fraction(0), Fraction(1), 1), Fraction(1, 2)
    assert refine_enclosure(P(-1, 2), unit, Fraction(1, 8)) == RootEnclosure(half, half, 1)
    with pytest.raises(ConvergenceError):
        refine_enclosure(
            P(-2, 0, 1), RootEnclosure(Fraction(1), Fraction(2), 1), Fraction(1, 2**5000)
        )


def test_isolation_without_split_point_is_a_convergence_error(monkeypatch):
    monkeypatch.setattr(roots, "_nonroot_split", lambda f, lo, hi: None)
    with pytest.raises(ConvergenceError):
        roots._isolate_squarefree(P(-1, 0, 1))


@st.composite
def squarefree_real_rooted(draw):
    """Square-free part of distinct linear factors times a tree's charpoly."""
    linear = draw(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(-12, 12)),
            max_size=6,
            unique_by=lambda ab: Fraction(ab[1], ab[0]),
        )
    )
    p = IntPolynomial((1,))
    for a, b in linear:
        p = p * IntPolynomial((-b, a))  # a x - b
    k = draw(st.integers(1, 14))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, k)]
    tree = Graph.from_edges(k, list(zip(parents, range(1, k))))
    return squarefree_part(p * charpoly(tree))


@given(squarefree_real_rooted(), st.sampled_from([1, 3, 10**6, 7 * 10**12]), st.booleans())
def test_integer_bisection_matches_fraction_bisection(p, inverse_width, relative):
    for enc in _isolate_squarefree(p):
        width = enc.width / inverse_width if relative else Fraction(1, inverse_width)
        assert refine_enclosure(p, enc, width) == bisect_reference(p, enc, width)


@given(squarefree_real_rooted())
def test_jacobi_recurrence_reproduces_the_monic_polynomial(p):
    alpha, beta = (
        [Fraction(num, den) for num, den in pairs]
        for pairs in roots._jacobi_coefficients(sturm_chain(p))
    )
    d = p.degree
    assert len(alpha) == d and len(beta) == d - 1
    assert all(b > 0 for b in beta)
    # M_{k-1} = (x - alpha_k) M_k - beta_k M_{k+1}, ascending Fraction lists
    nxt, cur = [], [Fraction(1)]
    for k in range(d, 0, -1):
        shifted = [Fraction(0)] + cur
        prev = [c - alpha[k - 1] * m for c, m in zip(shifted, cur + [0])]
        if k < d:
            prev = [c - beta[k - 1] * m for c, m in zip(prev, nxt + [0, 0])]
        nxt, cur = cur, prev
    assert cur == [Fraction(c, p.leading) for c in p.coeffs]


def test_jacobi_route_needs_a_full_sturm_chain():
    for p in (P(1, 0, 1), P(-1, 1) ** 2 * P(2, 1)):  # x^2 + 1, (x - 1)^2 (x + 2)
        assert roots._jacobi_coefficients(sturm_chain(p)) is None
        assert roots._jacobi_seeds(sturm_chain(p)) is None


def _random_unicyclic(n, rng):
    """A cycle of random length with a random recursive forest hung on it."""
    cycle = rng.randint(3, n)
    edges = [(i, (i + 1) % cycle) for i in range(cycle)]
    edges += [(rng.randrange(v), v) for v in range(cycle, n)]
    return Graph.from_edges(n, edges)


_LARGE = [
    ("L(50,6)", make_lollipop(50, 6)),
    ("L(80,6)", make_lollipop(80, 6)),
    ("C_50", make_cycle(50)),
    ("C_80", make_cycle(80)),
] + [
    ("random %d" % n, _random_unicyclic(n, random.Random(n)))
    for n in (40, 60, 80)
]


@pytest.mark.parametrize("name, graph", _LARGE, ids=[name for name, _ in _LARGE])
def test_large_spectra_are_seeded_without_sturm(monkeypatch, name, graph):
    isolated = []

    def spy(f):
        isolated.append(f)
        return _isolate_squarefree(f)

    monkeypatch.setattr(roots, "_isolate_squarefree", spy)
    exact = energy_of_poly(charpoly(graph), 1e-7)
    assert isolated == []
    assert exact.radius <= 1e-7
    assert abs(exact.value - energy_eigensolver(graph).value) <= 1e-6


def test_large_seeded_enclosures_overlap_sturm_enclosures():
    p = charpoly(make_lollipop(50, 6))
    core = p.shift_down(p.lowest_power())
    width = Fraction(1, 2**30)
    seeded, _ = roots._verified_enclosures(core, width)
    assert seeded is not None
    sturm = [refine_enclosure(core, enc, width) for enc in _isolate_squarefree(core)]
    assert len(seeded) == len(sturm) == core.degree
    for a, b in zip(seeded, sturm):
        assert a.width <= width
        assert a.lo <= b.hi and b.lo <= a.hi, (a, b)
