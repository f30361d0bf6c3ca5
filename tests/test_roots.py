import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    bisect_reference,
    cycle_energy_reference,
    energy_reference,
    squarefree_part,
)
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


def _enclosures(levels):
    """The (den, ends) levels of ``_core_enclosures`` as ``RootEnclosure``s."""
    return [
        RootEnclosure(Fraction(lo, den), Fraction(hi, den), 1)
        for den, ends in levels
        for lo, hi in ends
    ]


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
    # x^2 + 1 has no real roots, also on the Yun route of the oracle
    for route in (energy_of_poly, energy_reference):
        with pytest.raises(ValueError):
            route(P(1, 0, 1))
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


def test_seeded_enclosures_overlap_sturm_enclosures(spectra_to_nine, monkeypatch):
    isolated = []

    def spy(f):
        isolated.append(f)
        return _isolate_squarefree(f)

    monkeypatch.setattr(roots, "_isolate_squarefree", spy)
    width = Fraction(1, 2**30)
    repeated = 0
    for p in spectra_to_nine:
        core = p.shift_down(p.lowest_power())
        factors = squarefree_decomposition(core)
        levels = roots._core_enclosures(core, width)
        # one level per unit of the largest multiplicity: only repeated
        # eigenvalues (the cycles among them) take a second level
        assert len(levels) == max(mult for _, mult in factors), p
        repeated += len(levels) > 1
        seeded = sorted(_enclosures(levels), key=lambda e: e.midpoint)
        sturm = sorted(
            (
                refine_enclosure(factor, enc, width)
                for factor, mult in factors
                for enc in _isolate_squarefree(factor)
                for _ in range(mult)
            ),
            key=lambda e: e.midpoint,
        )
        assert len(seeded) == len(sturm) == core.degree
        for a, b in zip(seeded, sturm):
            assert a.width <= width
            assert a.lo <= b.hi and b.lo <= a.hi, (p, a, b)
    assert repeated > 0 and isolated == []


# (x^2 - 1)^3 (x - 2): multiplicity 3 away from 0, three levels
_TRIPLE = P(-1, 0, 1) ** 3 * P(-2, 1)

# (3x - 1)(2x + 5)(x^2 - 7) (5x + 2)^2 x^2: non-monic, with Yun factors whose
# Cauchy bounds 1 + 44/6 = 25/3 and 1 + 2/5 = 7/5 have coprime odd parts
_NON_DYADIC = P(-1, 3) * P(5, 2) * P(-7, 0, 1) * P(2, 5) ** 2 * P(0, 0, 1)


def test_energy_matches_the_yun_route(spectra_to_nine):
    for p in spectra_to_nine + [_TRIPLE, _NON_DYADIC]:
        assert energy_of_poly(p, 1e-7) == energy_reference(p, 1e-7), p
        a, b = energy_of_poly(p, 1e-12), energy_reference(p, 1e-12)
        assert max(a.radius, b.radius) <= 1e-12
        assert abs(a.value - b.value) <= a.radius + b.radius, p


def test_a_triple_root_takes_three_levels():
    e = energy_of_poly(_TRIPLE, 1e-12)
    assert abs(e.value - 8.0) <= e.radius <= 1e-12
    levels = roots._core_enclosures(_TRIPLE, Fraction(1, 2**40))
    assert [len(ends) for _, ends in levels] == [3, 2, 2]


def test_repeated_and_complex_roots_take_the_fallback(monkeypatch):
    # repeated roots now take one more level, not Yun; only the complex
    # roots of x^2 + 1 reach the Sturm fallback
    levels, isolated = [], []
    core_enclosures = roots._core_enclosures

    def record(core, budget):
        levels.extend(core_enclosures(core, budget))
        return levels

    def spy(f):
        isolated.append(f)
        return _isolate_squarefree(f)

    monkeypatch.setattr(roots, "_core_enclosures", record)
    monkeypatch.setattr(roots, "_isolate_squarefree", spy)
    e = energy_of_poly(charpoly(make_cycle(6)))  # eigenvalues 2, 1, 1, -1, -1, -2
    assert abs(e.value - 8.0) <= e.radius
    assert [len(ends) for _, ends in levels] == [4, 2] and isolated == []
    levels.clear()
    with pytest.raises(ValueError):
        energy_of_poly(P(1, 0, 1))
    assert isolated == [P(1, 0, 1)] and levels == [(1, [])]


def test_c6_runs_no_poly_gcd_and_no_yun(monkeypatch):
    def forbidden(*args):
        raise AssertionError("Yun or a gcd run")

    for name in ("poly_gcd", "squarefree_decomposition"):
        monkeypatch.setattr(polynomials, name, forbidden)
        monkeypatch.setattr(roots, name, forbidden, raising=False)
    # C_8 has eigenvalues +-2, +-sqrt(2) twice and 0 twice
    for p, energy in [
        (charpoly(make_cycle(6)), 8.0),
        (charpoly(make_cycle(8)), cycle_energy_reference(8)),
        (_TRIPLE, 8.0),
    ]:
        e = energy_of_poly(p)
        assert abs(e.value - energy) <= e.radius + 1e-12, p


@pytest.mark.parametrize("tol", [1e-7, 1e-12])
def test_squarefree_spectrum_never_reaches_sturm(monkeypatch, tol):
    def forbidden(p, *args):
        raise AssertionError("fallback route taken for %s" % p)

    monkeypatch.setattr(polynomials, "squarefree_decomposition", forbidden)
    monkeypatch.setattr(roots, "_isolate_squarefree", forbidden)
    levels = []
    core_enclosures = roots._core_enclosures

    def record(core, budget):
        levels.extend(core_enclosures(core, budget))
        return levels

    monkeypatch.setattr(roots, "_core_enclosures", record)
    e = energy_of_poly(charpoly(make_lollipop(8, 6)), tol)
    assert round(e.value, 5) == 10.42429
    assert e.radius <= tol
    assert len(levels) == 1


def test_radius_covers_rounding_to_a_double():
    e4 = energy_of_poly(charpoly(make_cycle(4)), 1e-15)
    assert e4.value == 4.0 and e4.radius <= 1e-15
    e3 = energy_of_poly(charpoly(make_path(3)), 1e-15)  # 2 * sqrt(2)
    assert 0 < e3.radius <= 1e-15
    assert abs(e3.value - math.sqrt(8)) <= e3.radius + 2.0**-52
    # the double nearest 2 * sqrt(2) is further off than 1e-17
    with pytest.raises(ConvergenceError):
        energy_of_poly(charpoly(make_path(3)), 1e-17)


@pytest.mark.parametrize("tol", [1e-7, 1e-12])
@pytest.mark.parametrize(
    "route, p",
    [
        ("seeds", charpoly(make_lollipop(8, 6))),
        ("seeds", charpoly(make_path(5))),  # a zero root
        ("levels", charpoly(make_cycle(8))),  # repeated eigenvalues
        ("sturm", _NON_DYADIC),
    ],
)
def test_energy_is_the_exact_sum_of_its_enclosures(monkeypatch, route, p, tol):
    found, isolated = [], []
    core_enclosures = roots._core_enclosures

    def record(core, budget):
        found.extend(core_enclosures(core, budget))
        return found

    def spy_isolate(f):
        isolated.append(f)
        return _isolate_squarefree(f)

    monkeypatch.setattr(roots, "_core_enclosures", record)
    monkeypatch.setattr(roots, "_isolate_squarefree", spy_isolate)
    if route == "sturm":
        monkeypatch.setattr(roots, "_jacobi_seeds", lambda chain: None)
    e = energy_of_poly(p, tol)
    assert (len(found) > 1, bool(isolated)) == {
        "seeds": (False, False), "levels": (True, False), "sturm": (True, True)
    }[route]
    dens = {den for den, _ in found}
    assert any(den & (den - 1) for den in dens) == (route == "sturm")  # not 2**k
    encs = _enclosures(found)
    value = sum((abs(enc.midpoint) for enc in encs), Fraction(0))
    radius = sum((enc.width for enc in encs), Fraction(0)) / 2
    radius += abs(Fraction(float(value)) - value)
    rounded = float(radius)
    if Fraction(rounded) < radius:
        rounded = math.nextafter(rounded, math.inf)
    assert (e.value, e.radius) == (float(value), rounded)
    assert len(encs) == p.degree - p.lowest_power()


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
    # full: degrees d, d-1, ... down to the gcd, all leads positive
    assert roots._jacobi_coefficients(sturm_chain(P(1, 0, 1))) is None  # x^2 + 1
    assert roots._jacobi_seeds(sturm_chain(P(1, 0, 1))) is None
    # (x - 1)^2 (x + 2): the chain ends at x - 1, and the matrix has the
    # distinct roots 1 and -2, weighted 2 and 1 in f'/f
    alpha, beta = (
        [Fraction(num, den) for num, den in pairs]
        for pairs in roots._jacobi_coefficients(sturm_chain(P(-1, 1) ** 2 * P(2, 1)))
    )
    trace, det = alpha[0] + alpha[1], alpha[0] * alpha[1] - beta[0]
    assert (trace, det) == (-1, -2)  # x^2 + x - 2 = (x - 1)(x + 2)
    seeds, _ = roots._jacobi_seeds(sturm_chain(P(-1, 1) ** 2 * P(2, 1)))
    assert [round(x, 12) for x in seeds] == [-2.0, 1.0]


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
    seeds, err = roots._jacobi_seeds(sturm_chain(core))
    level = roots._checked_enclosures(core, seeds, err, width)
    assert level is not None
    seeded = _enclosures([level])
    sturm = [refine_enclosure(core, enc, width) for enc in _isolate_squarefree(core)]
    assert len(seeded) == len(sturm) == core.degree
    for a, b in zip(seeded, sturm):
        assert a.width <= width
        assert a.lo <= b.hi and b.lo <= a.hi, (a, b)
