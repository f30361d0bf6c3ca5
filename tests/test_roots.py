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
    level_sequence_parents,
    rooted_level_sequences,
    squarefree_part,
    unique_cycle,
    yun_decomposition,
)
import ucenergy.polynomials as polynomials
import ucenergy.roots as roots
from ucenergy.charpoly import charpoly
from ucenergy.eigensolver import adjacency_spectrum, energy_eigensolver
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
        RootEnclosure(Fraction(lo, den), Fraction(hi, den))
        for den, ends in levels
        for lo, hi in ends
    ]


def test_isolates_pm_one():
    enclosures = _isolate_squarefree(P(-1, 0, 1))
    assert len(enclosures) == 2
    assert enclosures[0].lo < -1 < enclosures[0].hi or enclosures[0].lo == enclosures[0].hi == -1


@pytest.mark.parametrize(
    "p, at_infinity, splits",
    [
        # the counts at -inf and +inf swapped: x^2 - 1 counts -2 roots
        (P(-1, 0, 1), lambda c: polynomials.variations_at_infinity(c)[::-1], 0),
        # a count above the degree
        (P(-1, 0, 1), lambda c: (3, 0), 0),
        # (x^2 - 1)(x^2 + 1) counted as four real roots: every interval that
        # ends at -B keeps a count of at least 2 and is split until the budget
        (P(-1, 0, 0, 0, 1), lambda c: (4, 0), roots._MAX_BISECTIONS + 1),
    ],
    ids=["negative", "above-degree", "split-budget"],
)
def test_isolation_raises_on_a_wrong_count(monkeypatch, p, at_infinity, splits):
    points = []

    def spy(chain, point):
        points.append(point)
        return polynomials.variations_at(chain, point)

    monkeypatch.setattr(roots, "variations_at_infinity", at_infinity)
    monkeypatch.setattr(roots, "variations_at", spy)
    with pytest.raises(ConvergenceError):
        _isolate_squarefree(p)
    assert len(points) == splits


def test_isolates_c4_spectrum_with_multiplicity():
    factors = squarefree_decomposition(charpoly(make_cycle(4)))
    assert sorted(factors, key=lambda fm: fm[1]) == [(P(-4, 0, 1), 1), (P(0, 1), 2)]
    spots = []
    for factor, mult in factors:
        for e in _isolate_squarefree(factor):
            refined = refine_enclosure(factor, e, Fraction(1, 10**6))
            spots.append((round(float((refined.lo + refined.hi) / 2), 5), mult))
    assert sorted(spots) == [(-2.0, 1), (0.0, 2), (2.0, 1)]


def test_bipartite_spectrum_symmetry():
    p = charpoly(make_lollipop(8, 6))
    tight = [
        refine_enclosure(factor, e, Fraction(1, 10**9))
        for factor, _ in squarefree_decomposition(p)
        for e in _isolate_squarefree(factor)
    ]
    assert len(tight) == 8
    values = sorted(float((e.lo + e.hi) / 2) for e in tight)
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

    def spy(f, chain=None):
        isolated.append(f)
        return _isolate_squarefree(f, chain)

    monkeypatch.setattr(roots, "_isolate_squarefree", spy)
    width = Fraction(1, 2**30)
    repeated = 0
    for p in spectra_to_nine:
        core = p.shift_down(p.lowest_power())
        factors = yun_decomposition(core)
        levels = roots._core_enclosures(core, width)
        # one level per unit of the largest multiplicity: only repeated
        # eigenvalues (the cycles among them) take a second level
        assert len(levels) == max(mult for _, mult in factors), p
        repeated += len(levels) > 1
        seeded = sorted(_enclosures(levels), key=lambda e: e.lo + e.hi)
        sturm = sorted(
            (
                refine_enclosure(factor, enc, width)
                for factor, mult in factors
                for enc in _isolate_squarefree(factor)
                for _ in range(mult)
            ),
            key=lambda e: e.lo + e.hi,
        )
        assert len(seeded) == len(sturm) == core.degree
        for a, b in zip(seeded, sturm):
            assert a.width <= width
            assert a.lo <= b.hi and b.lo <= a.hi, (p, a, b)
    assert repeated > 0 and isolated == []


# (x^2 - 1)^3 (x - 2): multiplicity 3 away from 0, three levels
_TRIPLE = P(-1, 0, 1) ** 3 * P(-2, 1)

# (x - 1)^2 (x + 1) and (x^2 - 1)^2 (x + 2): odd cores with the even level
# x^2 - 1, first and last, checked at its positive half and mirrored
_ODD_WITH_EVEN_LEVEL = [P(-1, 1) ** 2 * P(1, 1), P(-1, 0, 1) ** 2 * P(2, 1)]

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

    def spy(f, chain=None):
        isolated.append(f)
        return _isolate_squarefree(f, chain)

    monkeypatch.setattr(roots, "_core_enclosures", record)
    monkeypatch.setattr(roots, "_isolate_squarefree", spy)
    e = energy_of_poly(charpoly(make_cycle(6)))  # eigenvalues 2, 1, 1, -1, -1, -2
    assert abs(e.value - 8.0) <= e.radius
    assert [len(ends) for _, ends in levels] == [4, 2] and isolated == []
    levels.clear()
    e = energy_of_poly(charpoly(make_cycle(9)))  # 2 once, four pairs: an odd core
    assert abs(e.value - cycle_energy_reference(9)) <= e.radius + 1e-12
    assert [len(ends) for _, ends in levels] == [5, 4] and isolated == []
    levels.clear()
    with pytest.raises(ValueError):
        energy_of_poly(P(1, 0, 1))
    assert isolated == [P(1, 0, 1)] and levels == [(1, [])]


def test_c6_runs_no_poly_gcd_and_no_yun(monkeypatch):
    def forbidden(*args):
        raise AssertionError("Yun or a gcd run")

    monkeypatch.setattr(polynomials, "squarefree_decomposition", forbidden)
    monkeypatch.setattr(roots, "squarefree_decomposition", forbidden, raising=False)
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
    for t, energy in [(6, 10.42429), (5, 10.05177)]:  # an even and an odd core
        levels.clear()
        e = energy_of_poly(charpoly(make_lollipop(8, t)), tol)
        assert round(e.value, 5) == energy
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
        ("seeds", charpoly(make_lollipop(8, 5))),  # an odd core
        ("levels", charpoly(make_cycle(9))),  # repeated, with an odd core
    ]
    + [("levels", p) for p in _ODD_WITH_EVEN_LEVEL],
)
def test_energy_is_the_exact_sum_of_its_enclosures(monkeypatch, route, p, tol):
    found, isolated = [], []
    core_enclosures = roots._core_enclosures

    def record(core, budget):
        found.extend(core_enclosures(core, budget))
        return found

    def spy_isolate(f, chain=None):
        isolated.append(f)
        return _isolate_squarefree(f, chain)

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
    value = sum((abs(enc.lo + enc.hi) / 2 for enc in encs), Fraction(0))
    radius = sum((enc.width for enc in encs), Fraction(0)) / 2
    radius += abs(Fraction(float(value)) - value)
    rounded = float(radius)
    if Fraction(rounded) < radius:
        rounded = math.nextafter(rounded, math.inf)
    assert (e.value, e.radius) == (float(value), rounded)
    assert len(encs) == p.degree - p.lowest_power()


def test_bisection_stops_at_a_root_or_its_budget():
    # the first midpoint of [0, 1] is the root of 2x - 1
    unit, half = RootEnclosure(Fraction(0), Fraction(1)), Fraction(1, 2)
    assert refine_enclosure(P(-1, 2), unit, Fraction(1, 8)) == RootEnclosure(half, half)
    with pytest.raises(ConvergenceError):
        refine_enclosure(
            P(-2, 0, 1), RootEnclosure(Fraction(1), Fraction(2)), Fraction(1, 2**5000)
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


@st.composite
def nonzero_polynomials(draw):
    """Integer polynomials, half of them with no odd power of x."""
    coeffs = draw(st.lists(st.integers(-(10**6), 10**6), max_size=10))
    coeffs.append(draw(st.integers(1, 10**6)) * draw(st.sampled_from([-1, 1])))
    if draw(st.booleans()):
        coeffs = [c for a in coeffs for c in (a, 0)][:-1]
    return IntPolynomial(tuple(coeffs))


@given(
    nonzero_polynomials(),
    st.integers(0, 10**4).map(lambda i: 2 * i + 1),
    st.integers(0, 60),
    st.integers(0, 8),
    st.integers(),
)
def test_sign_reader_matches_the_rational_sign(f, odd, b, t, m):
    den = odd << b
    sign = roots._sign_reader(f, den)
    assert sign(m, t) == f.sign_at(Fraction(m, den << t))


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
    ("L(81,7)", make_lollipop(81, 7)),
    ("C_50", make_cycle(50)),
    ("C_51", make_cycle(51)),
    ("C_80", make_cycle(80)),
] + [
    ("random %d" % n, _random_unicyclic(n, random.Random(n)))
    for n in (40, 60, 80)
]


@pytest.mark.parametrize("name, graph", _LARGE, ids=[name for name, _ in _LARGE])
def test_large_spectra_are_seeded_without_sturm(monkeypatch, name, graph):
    isolated = []

    def spy(f, chain=None):
        isolated.append(f)
        return _isolate_squarefree(f, chain)

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


def _bipartite_spectra():
    """Distinct characteristic polynomials with an even core: unicyclic
    graphs of even girth and trees with n <= 10, C_2m with 2m <= 100 and
    L(n,6) with n <= 60."""
    polys = {
        charpoly(g)
        for n in range(4, 11)
        for _, g in unicyclic_graphs(n)
        if len(unique_cycle(g)) % 2 == 0
    }
    for k in range(1, 11):
        for seq in rooted_level_sequences(k):
            parents = level_sequence_parents(seq)
            edges = [(parents[v], v) for v in range(1, k)]
            polys.add(charpoly(Graph.from_edges(k, edges)))
    polys.update(charpoly(make_cycle(n)) for n in range(4, 101, 2))
    polys.update(charpoly(make_lollipop(n, 6)) for n in range(7, 61))
    return sorted(polys, key=lambda p: (p.degree, p.coeffs))


@pytest.fixture(scope="module")
def bipartite_spectra():
    return _bipartite_spectra()


def test_even_cores_agree_with_the_yun_route(bipartite_spectra):
    assert len(bipartite_spectra) > 600
    for p in bipartite_spectra:
        core = p.shift_down(p.lowest_power())
        assert roots._even_half(core) is not None, p
        a, b = energy_of_poly(p, 1e-7), energy_reference(p, 1e-7)
        assert max(a.radius, b.radius) <= 1e-7
        assert abs(a.value - b.value) <= a.radius + b.radius, p


@pytest.mark.parametrize(
    "p",
    [
        charpoly(make_lollipop(50, 6)),
        charpoly(make_cycle(100)),  # two levels
        charpoly(make_path(9)),  # a zero root
        P(1, 0, 1),  # complex roots: the Sturm fallback runs at degree 2
    ],
)
def test_even_cores_build_chains_at_half_the_degree(monkeypatch, p):
    degrees = []

    def spy(f):
        degrees.append(f.degree)
        return sturm_chain(f)

    monkeypatch.setattr(polynomials, "sturm_chain", spy)
    monkeypatch.setattr(roots, "sturm_chain", spy)
    core = p.shift_down(p.lowest_power())
    try:
        energy_of_poly(p)
    except ValueError:
        assert p == P(1, 0, 1)
        assert degrees == [1, 2]  # the chain of q = y + 1, then of x^2 + 1
        return
    assert degrees and max(degrees) <= core.degree // 2


def _spoiled_seeds(spoil):
    """``_jacobi_seeds`` with its seeds passed through ``spoil``."""
    seeds_of = roots._jacobi_seeds

    def spoiled(chain):
        seeds, err = seeds_of(chain)
        return spoil(list(seeds)), err

    return spoiled


def _nonpositive(ys):
    ys[0] = -ys[0]
    return sorted(ys)


def _perturbed(ys):
    ys[len(ys) // 2] += 1e-3
    return ys


@pytest.mark.parametrize("spoil", [_nonpositive, _perturbed])
@pytest.mark.parametrize(
    "graph",
    [make_lollipop(30, 6), make_cycle(24), make_path(11)],
    ids=["L(30,6)", "C_24", "P_11"],
)
def test_a_spoiled_even_level_takes_the_sturm_fallback(monkeypatch, spoil, graph):
    p = charpoly(graph)
    expected = energy_of_poly(p, 1e-9)
    isolated = []

    def spy(f, chain=None):
        isolated.append(f)
        return _isolate_squarefree(f, chain)

    monkeypatch.setattr(roots, "_jacobi_seeds", _spoiled_seeds(spoil))
    monkeypatch.setattr(roots, "_isolate_squarefree", spy)
    e = energy_of_poly(p, 1e-9)
    core = p.shift_down(p.lowest_power())
    levels = list(polynomials.multiplicity_levels(roots._even_half(core)))
    assert len(isolated) == len(levels)
    for f, (_, s_q) in zip(isolated, levels):  # each level's s_q(x^2)
        assert f.degree == 2 * s_q.degree and f.coeffs[::2] == s_q.coeffs
    assert e.radius <= 1e-9
    assert abs(e.value - expected.value) <= e.radius + expected.radius


@pytest.mark.parametrize("tol", [1e-12, 1e-13])
@pytest.mark.parametrize(
    "graph", [make_path(120), make_lollipop(100, 6)], ids=["P_120", "L(100,6)"]
)
def test_small_even_eigenvalues_are_seeded_at_tight_tolerances(monkeypatch, tol, graph):
    # x_1 / x_max is about 0.013 and 0.015: sqrt(y_1) carries the error of
    # y_1 times 1 / (2 x_1), more than the bracket width allows for, and the
    # checks still pass because the error estimate in y is loose enough
    def forbidden(f, chain=None):
        raise AssertionError("Sturm fallback at degree %d" % f.degree)

    p = charpoly(graph)
    expected = energy_reference(p, tol)
    monkeypatch.setattr(roots, "_isolate_squarefree", forbidden)
    e = energy_of_poly(p, tol)
    assert e.radius <= tol
    assert abs(e.value - expected.value) <= e.radius + expected.radius


@pytest.mark.parametrize(
    "p",
    [charpoly(make_cycle(30)), charpoly(make_lollipop(40, 6)), charpoly(make_path(12))]
    + _ODD_WITH_EVEN_LEVEL,
    ids=["C_30", "L(40,6)", "P_12", "(x-1)^2(x+1)", "(x^2-1)^2(x+2)"],
)
def test_narrow_even_levels_refine_and_mirror_their_brackets(monkeypatch, p):
    # a budget finer than the seeds resolve: the positive brackets of a
    # level with no odd power of x are bisected, and the negative ones are
    # their mirror images, also in an odd core
    refined = []

    def spy(f, enc, width):
        refined.append((not any(f.coeffs[1::2]), enc))
        return refine_enclosure(f, enc, width)

    monkeypatch.setattr(roots, "refine_enclosure", spy)
    core = p.shift_down(p.lowest_power())
    width = Fraction(1, 2**60)
    levels = roots._core_enclosures(core, width)
    even = [enc for is_even, enc in refined if is_even]
    assert even and all(enc.lo > 0 for enc in even)
    assert sum(len(ends) for _, ends in levels) == core.degree
    assert len(refined) + len(even) == core.degree  # even ones count twice
    parts = [s for _, s in polynomials.multiplicity_levels(core)]
    assert len(parts) == len(levels)
    for (den, ends), s in zip(levels, parts):
        if not any(s.coeffs[1::2]):
            assert ends == [(-hi, -lo) for lo, hi in reversed(ends)]
    seeded = sorted(_enclosures(levels), key=lambda e: e.lo + e.hi)
    sturm = sorted(
        (
            refine_enclosure(factor, enc, width)
            for factor, mult in yun_decomposition(core)
            for enc in _isolate_squarefree(factor)
            for _ in range(mult)
        ),
        key=lambda e: e.lo + e.hi,
    )
    for a, b in zip(seeded, sturm):
        assert a.width <= width
        assert a.lo <= b.hi and b.lo <= a.hi, (a, b)


def _full_degree_refine(f, enc, width):
    """Integer bisection with every sign read at the full degree of f, as
    ``refine_enclosure`` did before it read even polynomials in x**2."""
    if enc.width <= width:
        return enc
    den = math.lcm(enc.lo.denominator, enc.hi.denominator)
    lo = enc.lo.numerator * (den // enc.lo.denominator)
    hi = enc.hi.numerator * (den // enc.hi.denominator)
    ratio = -(-(hi - lo) * width.denominator // (den * width.numerator))
    steps = (ratio - 1).bit_length()
    d = f.degree
    scaled = [c * den ** (d - i) for i, c in enumerate(f.coeffs)]

    def sign(m, t):
        acc = 0
        for i in range(d, -1, -1):
            acc = acc * m + (scaled[i] << t * (d - i))
        return (acc > 0) - (acc < 0)

    sign_lo = sign(lo, 0)
    for t in range(1, steps + 1):
        mid = lo + hi
        s = sign(mid, t)
        if s == 0:
            return RootEnclosure(Fraction(mid, den << t), Fraction(mid, den << t))
        if s == sign_lo:
            lo, hi = mid, hi << 1
        else:
            lo, hi = lo << 1, mid
    return RootEnclosure(Fraction(lo, den << steps), Fraction(hi, den << steps))


@pytest.mark.parametrize("tol", [1e-12, 1e-13])
@pytest.mark.parametrize(
    "graph",
    [make_cycle(30), make_cycle(64), make_lollipop(40, 6), make_path(12), make_path(31)],
    ids=["C_30", "C_64", "L(40,6)", "P_12", "P_31"],
)
def test_even_bisection_matches_the_full_degree_bisection(monkeypatch, tol, graph):
    # signs read from h(m**2 / D**2) for f(x) = h(x**2): the same midpoints
    # and signs, so the same enclosures as at the full degree
    calls = []

    def spy(f, enc, width):
        out = refine_enclosure(f, enc, width)
        calls.append((f, enc, width, out))
        return out

    monkeypatch.setattr(roots, "refine_enclosure", spy)
    energy_of_poly(charpoly(graph), tol)
    bisected = [c for c in calls if c[3] != c[1]]
    assert bisected and all(not any(f.coeffs[1::2]) for f, *_ in bisected)
    for f, enc, width, out in calls:
        assert out == _full_degree_refine(f, enc, width)


@given(squarefree_real_rooted(), st.sampled_from([3, 10**6, 7 * 10**12]))
def test_even_integer_bisection_matches_fraction_bisection(p, inverse_width):
    # p(x**2) has no odd power of x; its ends need not be dyadic
    f = IntPolynomial(tuple(c for a in p.coeffs for c in (a, 0))[:-1])
    for enc in _isolate_squarefree(f):
        width = enc.width / inverse_width
        assert refine_enclosure(f, enc, width) == bisect_reference(f, enc, width)


def _unicyclic_to_ten():
    return [g for n in range(3, 11) for _, g in unicyclic_graphs(n)]


def _sturm_chain_spy(monkeypatch):
    """The degrees of the Sturm chains built while the spy is installed."""
    degrees = []

    def spy(f):
        degrees.append(f.degree)
        return sturm_chain(f)

    monkeypatch.setattr(polynomials, "sturm_chain", spy)
    monkeypatch.setattr(roots, "sturm_chain", spy)
    return degrees


@pytest.mark.parametrize("tol", [1e-7, 1e-12])
def test_seeded_energies_agree_with_the_multiplicity_walk(monkeypatch, tol):
    graphs = _unicyclic_to_ten()
    assert len(graphs) == 1040
    chains = _sturm_chain_spy(monkeypatch)
    chainless = 0
    for g in graphs:
        p = charpoly(g)
        walked = energy_of_poly(p, tol)
        before = len(chains)
        seeded = energy_of_poly(p, tol, adjacency_spectrum(g))
        chainless += len(chains) == before
        assert max(seeded.radius, walked.radius) <= tol
        assert abs(seeded.value - walked.value) <= seeded.radius + walked.radius, g
    # only repeated eigenvalues, as in the cycles, need the walk
    assert chainless > 0.8 * len(graphs)


@pytest.mark.parametrize(
    "graph",
    [make_lollipop(17, 5), make_lollipop(61, 7), make_lollipop(8, 6)],
    ids=["L(17,5)", "L(61,7)", "L(8,6)"],
)
def test_spectrum_seeded_cores_build_no_sturm_chain(monkeypatch, graph):
    p = charpoly(graph)
    walked = energy_of_poly(p, 1e-9)
    chains = _sturm_chain_spy(monkeypatch)
    seeded = energy_of_poly(p, 1e-9, adjacency_spectrum(graph))
    assert chains == []
    assert abs(seeded.value - walked.value) <= seeded.radius + walked.radius


def _perturbed_spectrum(g):
    seeds = list(adjacency_spectrum(g))
    seeds[len(seeds) // 2] += 1e-3
    return seeds


def _mirrored_spectrum(g):
    # the second smallest positive eigenvalue moved to its mirror image: the
    # positive half of the sorted seeds holds -x_1 and x_1, whose brackets
    # both change sign, and mirrored they would enclose +-x_1 twice
    seeds = sorted(adjacency_spectrum(g))
    i = 1 + min(i for i, x in enumerate(seeds) if x > 1e-9)
    seeds[i] = -seeds[i]
    return seeds


def _with(g, value):
    seeds = list(adjacency_spectrum(g))
    seeds[-1] = value
    return seeds


_BAD_SEEDS = [
    ("C_9", make_cycle(9), adjacency_spectrum),  # repeated eigenvalues
    ("C_50", make_cycle(50), adjacency_spectrum),
    ("L(30,7) perturbed", make_lollipop(30, 7), _perturbed_spectrum),
    ("L(30,6) perturbed", make_lollipop(30, 6), _perturbed_spectrum),
    ("L(30,7) missing", make_lollipop(30, 7), lambda g: list(adjacency_spectrum(g))[1:]),
    ("P_9 missing", make_path(9), lambda g: list(adjacency_spectrum(g))[:-1]),
    ("L(30,7) nan", make_lollipop(30, 7), lambda g: _with(g, math.nan)),
    ("L(30,6) inf", make_lollipop(30, 6), lambda g: _with(g, math.inf)),
    ("L(30,7) -inf", make_lollipop(30, 7), lambda g: _with(g, -math.inf)),
    ("P_11 mirrored", make_path(11), _mirrored_spectrum),
    ("L(8,6) mirrored", make_lollipop(8, 6), _mirrored_spectrum),
]


@pytest.mark.parametrize("tol", [1e-7, 1e-12])
@pytest.mark.parametrize(
    "graph, seeds_of", [b[1:] for b in _BAD_SEEDS], ids=[b[0] for b in _BAD_SEEDS]
)
def test_failed_seeded_checks_return_the_walked_energy(monkeypatch, tol, graph, seeds_of):
    p = charpoly(graph)
    walked = energy_of_poly(p, tol)
    chains = _sturm_chain_spy(monkeypatch)
    assert energy_of_poly(p, tol, seeds_of(graph)) == walked
    assert chains  # the walk ran


@pytest.mark.parametrize(
    "graph, degrees",
    [
        (make_cycle(15), [15, 7]),
        (make_lollipop(9, 3), [9, 1]),
        (make_lollipop(41, 5), [41]),
        (make_cycle(24), [11, 12, 5, 10]),
        (make_path(11), [5, 10]),
    ],
    ids=["C_15", "L(9,3)", "L(41,5)", "C_24", "P_11"],
)
def test_the_sturm_fallback_counts_on_the_level_chain(monkeypatch, graph, degrees):
    # every check fails, so each level is isolated by Sturm counts: an odd
    # level on the chain the walk already built, an even core's level on a
    # new chain of its spread s(x), since q's chain counts in y.  The energy
    # equals, bit for bit, the one from a chain of s built for every level
    p = charpoly(graph)
    monkeypatch.setattr(roots, "_checked_enclosures", lambda *args: None)
    with monkeypatch.context() as m:
        m.setattr(roots, "_isolate_squarefree", lambda f, chain=None: _isolate_squarefree(f))
        rebuilt = energy_of_poly(p, 1e-9)
    chains = _sturm_chain_spy(monkeypatch)
    assert energy_of_poly(p, 1e-9) == rebuilt
    assert chains == degrees


def test_seeds_do_not_hide_complex_roots():
    # (10^6 x^2 + 1)(x^2 - 9), an even core, and (x^2 + 1)(x - 2), an odd
    # one, each given real seeds where their roots would be
    for p, seeds in [
        (P(1, 0, 10**6) * P(-9, 0, 1), [-3.0, -1e-3, 1e-3, 3.0]),
        (P(1, 0, 1) * P(-2, 1), [-1.0, 1.0, 2.0]),
        (P(1, 0, 1) * P(-2, 1), [0.0, 0.0, 2.0]),
    ]:
        with pytest.raises(ValueError, match="complex roots"):
            energy_of_poly(p, 1e-7, seeds)


@pytest.mark.parametrize("seeded", [False, True], ids=["walked", "seeded"])
def test_a_root_near_zero_keeps_the_even_brackets_apart(monkeypatch, seeded):
    # (10^6 x^2 - 1)(x^2 - 9) at tol 0.1: the budget alone allows brackets
    # of half-width 2^-8, wider than the root 1e-3; the gap 2e-3 between
    # -1e-3 and 1e-3 narrows them to 2^-11, so the check of the positive
    # half passes with m_1 >= 1 and no Sturm fallback runs
    def forbidden(f, chain=None):
        raise AssertionError("Sturm fallback at degree %d" % f.degree)

    monkeypatch.setattr(roots, "_isolate_squarefree", forbidden)
    chains = _sturm_chain_spy(monkeypatch)
    p = P(-1, 0, 10**6) * P(-9, 0, 1)
    e = energy_of_poly(p, 0.1, [-3.0, -1e-3, 1e-3, 3.0] if seeded else None)
    assert abs(e.value - 6.002) <= e.radius + 1e-12 and e.radius <= 0.1
    assert (chains == []) == seeded
