import math
from fractions import Fraction

import pytest

import ucenergy.search as search
from oracles import coulson_bracket, cycle_energy_reference
from ucenergy.charpoly import charpoly
from ucenergy.coulson import (
    energy_coulson,
    energy_diff_coulson,
    integrate_adaptive,
    modulus_sq_at_ix,
)
from ucenergy.eigensolver import energy_eigensolver
from ucenergy.graphs import make_cycle, make_lollipop, make_path
from ucenergy.roots import ConvergenceError, energy_of_poly
from ucenergy.search import search_with_stats


def test_gauss_kronrod_on_smooth_integrals():
    value, err = integrate_adaptive(math.exp, 0.0, 1.0, 1e-12)
    assert abs(value - (math.e - 1.0)) < 1e-12
    value, _ = integrate_adaptive(lambda x: math.log(1.0 + x * x), 0.0, 1.0, 1e-11)
    exact = math.log(2.0) - 2.0 + math.pi / 2.0
    assert abs(value - exact) < 1e-10


def test_adaptive_quadrature_reports_nonconvergence():
    # an integrand far too rough for the tiny interval budget
    with pytest.raises(ConvergenceError) as exc:
        integrate_adaptive(
            lambda x: math.sin(1.0 / (x + 1e-9)), 0.0, 1.0, 1e-14, max_intervals=8
        )
    assert hasattr(exc.value, "achieved")


def test_modulus_polynomials_match_complex_evaluation():
    for g in (make_cycle(5), make_lollipop(8, 3), make_path(6)):
        p = charpoly(g)
        msq = modulus_sq_at_ix(p)
        bracket = coulson_bracket(p)
        for x in (0.3, 1.0, 2.7):
            direct = abs(p(complex(0.0, x))) ** 2
            assert msq(x) == pytest.approx(direct, rel=1e-12)
            scaled = abs(complex(x) ** p.degree * p(complex(0, 1.0 / x))) ** 2
            assert bracket(x) == pytest.approx(scaled, rel=1e-12)


def test_eigensolver_energies():
    assert energy_eigensolver(make_cycle(6)).value == pytest.approx(8.0, abs=1e-8)
    assert energy_eigensolver(make_path(3)).value == pytest.approx(
        2.0 * math.sqrt(2.0), abs=1e-12
    )
    e = energy_eigensolver(make_lollipop(4, 3))
    assert e.value > 4.0  # beats the 4-cycle
    with pytest.raises(ValueError):
        energy_eigensolver(make_cycle(5), 0.0)


def test_coulson_energies():
    assert energy_coulson(make_cycle(4), 1e-6).value == pytest.approx(4.0, abs=1e-6)
    assert energy_coulson(make_cycle(3), 1e-6).value == pytest.approx(4.0, abs=1e-6)
    got = energy_coulson(make_lollipop(7, 6), 1e-7).value
    assert got == pytest.approx(8.72057, abs=5e-5)


def test_diff_coulson_examples():
    assert energy_diff_coulson(make_cycle(5), make_cycle(5)) == 0.0
    d = energy_diff_coulson(make_lollipop(7, 3), make_lollipop(7, 6), 1e-7)
    assert d == pytest.approx(0.22026, abs=5e-5)
    d17 = energy_diff_coulson(make_lollipop(17, 3), make_lollipop(17, 6), 1e-7)
    assert d17 == pytest.approx(-0.05339, abs=5e-5)


def test_diff_coulson_requires_equal_order():
    with pytest.raises(ValueError):
        energy_diff_coulson(make_cycle(5), make_cycle(6))


def test_coulson_past_the_double_range_is_a_value_error():
    # |phi(ix)|**2 of C_750 has coefficients summing to about 2**1041; the
    # integrand cannot be evaluated in doubles, so both routes refuse it
    for route in (
        lambda: energy_coulson(make_cycle(750)),
        lambda: energy_diff_coulson(make_cycle(750), make_path(750)),
    ):
        with pytest.raises(ValueError, match="exact route"):
            route()
    # C_700 sums to about 2**972 and still gets its energy
    e = energy_coulson(make_cycle(700))
    assert e.value == pytest.approx(cycle_energy_reference(700), abs=1e-7)


def test_diff_handles_singular_adjacency():
    # both graphs have zero eigenvalues of different multiplicity
    g1, g2 = make_path(7), make_lollipop(7, 4)
    d = energy_diff_coulson(g1, g2, 1e-8)
    exact = (
        energy_of_poly(charpoly(g1), 1e-9).value
        - energy_of_poly(charpoly(g2), 1e-9).value
    )
    assert d == pytest.approx(exact, abs=1e-7)


def test_cycle_energy_reference():
    assert cycle_energy_reference(4) == pytest.approx(4.0, abs=1e-12)
    assert cycle_energy_reference(6) == pytest.approx(8.0, abs=1e-12)
    assert round(cycle_energy_reference(10), 5) == 12.94427
    for n in range(3, 16):
        exact = energy_of_poly(charpoly(make_cycle(n)), 1e-9).value
        assert cycle_energy_reference(n) == pytest.approx(exact, abs=1e-8)


def test_three_route_agreement_exhaustive(unicyclic_by_order):
    for n, items in unicyclic_by_order.items():
        for code, g in items:
            exact = energy_of_poly(charpoly(g), 1e-9)
            eig = energy_eigensolver(g, 1e-8)
            cou = energy_coulson(g, 1e-7)
            assert abs(exact.value - eig.value) <= 1e-8, code
            assert abs(exact.value - cou.value) <= 1e-5, code


def test_three_route_agreement_lollipops_to_order_twelve():
    for n in (10, 11, 12):
        for l in range(3, n + 1):
            g = make_lollipop(n, l)
            exact = energy_of_poly(charpoly(g), 1e-9)
            assert abs(exact.value - energy_eigensolver(g, 1e-8).value) <= 1e-8
            assert abs(exact.value - energy_coulson(g, 1e-7).value) <= 1e-5


def test_root_moments_within_enclosures(unicyclic_by_order):
    from ucenergy.roots import _isolate_squarefree, refine_enclosure

    for _, g in unicyclic_by_order[7]:
        p = charpoly(g)
        zero_mult = p.lowest_power()
        core = p.shift_down(zero_mult)
        total, square = Fraction(0), Fraction(0)
        from ucenergy.polynomials import squarefree_decomposition

        for factor, mult in squarefree_decomposition(core):
            for enc in _isolate_squarefree(factor):
                tight = refine_enclosure(factor, enc, Fraction(1, 10**10))
                total += mult * tight.midpoint
                square += mult * tight.midpoint**2
        assert abs(float(total)) < 1e-8
        assert abs(float(square) - 2 * g.edge_count) < 1e-6


def test_log_ratio_monotonicity_exact_grid():
    """Integrand comparison done exactly: the log inequality for odd n
    amounts to an integer-polynomial product comparison at rational points."""
    msq = {}

    def m(n, l):
        if (n, l) not in msq:
            msq[(n, l)] = modulus_sq_at_ix(charpoly(make_lollipop(n, l)))
        return msq[(n, l)]

    grid = [Fraction(k, 10) for k in range(-100, 101) if k != 0]
    assert len(grid) == 200
    for t in (3, 5, 7):
        for n in (17, 19, 21):
            lhs_a, lhs_b = m(n + 2, t), m(n, 6)
            rhs_a, rhs_b = m(n + 2, 6), m(n, t)
            for x in grid:
                assert lhs_a(x) * lhs_b(x) <= rhs_a(x) * rhs_b(x), (t, n, x)


_ROUTES = {
    "exact": lambda tol: energy_of_poly(charpoly(make_cycle(5)), tol),
    "coulson": lambda tol: energy_coulson(make_lollipop(20, 6), tol),
    "coulson difference": lambda tol: energy_diff_coulson(make_cycle(6), make_path(6), tol),
    "eigensolver": lambda tol: energy_eigensolver(make_cycle(5), tol),
    "search": lambda tol: search_with_stats(5, 5, tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_every_route_refuses_a_tolerance_that_is_not_positive_and_finite(route, tol):
    with pytest.raises(ValueError, match="tolerance"):
        _ROUTES[route](tol)


def test_the_search_refuses_a_tolerance_before_the_word_stream(monkeypatch):
    def forbidden(n):
        raise AssertionError("the word stream started")

    monkeypatch.setattr(search, "unicyclic_words", forbidden)
    with pytest.raises(ValueError, match="tolerance"):
        search_with_stats(12, tol=math.nan)
