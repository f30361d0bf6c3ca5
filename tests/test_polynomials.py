from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    bipartite_b_coeffs,
    derivative,
    primitive_gcd,
    squarefree_part,
    sturm_chain_reference,
)
from ucenergy.polynomials import (
    IntPolynomial,
    _pseudo_remainder,
    cauchy_bound,
    poly_div_exact,
    squarefree_decomposition,
    sturm_chain,
    variations_at,
)
from ucenergy.roots import _isolate_squarefree

coeff_lists = st.lists(st.integers(-50, 50), min_size=1, max_size=9)


def P(*ascending):
    return IntPolynomial.from_coeffs(ascending)


def count_roots(p, lo=None, hi=None):
    """Distinct real roots of p in (lo, hi]; None stands for -inf or +inf."""
    sf = squarefree_part(p)
    if sf.degree < 1:
        return 0
    chain = sturm_chain(sf)

    def variations(point, side):
        if point is not None:
            return variations_at(chain, point)
        # signs at -inf / +inf from the leading terms
        signs = [(1 if f.leading > 0 else -1) * side ** f.degree for f in chain]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(lo, -1) - variations(hi, 1)


def test_normalisation_and_degree():
    assert P(1, 2, 0).coeffs == (1, 2)
    assert P(0).is_zero
    assert P(0).degree == -1
    assert P(3).degree == 0
    with pytest.raises(ValueError):
        IntPolynomial((1, 0))


@given(coeff_lists, coeff_lists, st.integers(-100, 100))
def test_ring_ops_match_big_integer_evaluation(a, b, x0):
    p, q = P(*a), P(*b)
    assert (p + q)(x0) == p(x0) + q(x0)
    assert (p - q)(x0) == p(x0) - q(x0)
    assert (p * q)(x0) == p(x0) * q(x0)


@given(coeff_lists, st.fractions(max_denominator=40))
def test_sign_at_matches_exact_evaluation(a, x0):
    p = P(*a)
    value = p(Fraction(x0))
    assert p.sign_at(x0) == (value > 0) - (value < 0)


@given(
    st.lists(st.integers(-50, 50), max_size=9),
    st.integers(1, 40),
)
def test_sign_at_zero_matches_the_horner_form(a, b):
    # p(0/b) * b**deg by the general Horner loop, against the shortcut at 0
    p = P(*a)
    acc, power = 0, 1
    for k in range(p.degree, -1, -1):
        acc = acc * 0 + p.coeffs[k] * power
        power *= b
    expected = (acc > 0) - (acc < 0)
    assert p.sign_at(0) == p.sign_at(Fraction(0, b)) == expected


def test_derivative_and_shift():
    p = P(4, 0, -3, 1)  # x^3 - 3x^2 + 4
    assert sturm_chain(p)[1] == P(0, -2, 1)  # p' = 3x^2 - 6x, primitive
    assert P(0, 0, 5, 1).shift_down(2) == P(5, 1)
    assert P(5, 1).shift_up(2) == P(0, 0, 5, 1)
    assert P().shift_up(3) == P()
    with pytest.raises(ValueError):
        P(1, 2).shift_down(1)


def test_division_and_gcd():
    a = P(-1, 0, 1)  # x^2 - 1
    b = P(1, 1)      # x + 1
    assert poly_div_exact(a, b) == P(-1, 1)
    with pytest.raises(ValueError):
        poly_div_exact(P(1, 1, 1), b)
    with pytest.raises(ValueError):  # exact over Q, not over Z
        poly_div_exact(b, P(2, 2))
    with pytest.raises(ValueError):  # leading quotient 1/2, the rest cancels
        poly_div_exact(P(-4, -4, -1), P(-2, -2))
    g = primitive_gcd(P(-1, 0, 1) * P(2, 1), P(1, 1) * P(2, 1))
    assert g == P(2, 3, 1)  # (x+1)(x+2)


def test_squarefree_decomposition_recovers_multiplicities():
    p = P(-1, 1) ** 3 * P(1, 1) * P(0, 1) ** 2
    factors = {m: f for f, m in squarefree_decomposition(p)}
    assert factors[3] == P(-1, 1)
    assert factors[1] == P(1, 1)
    assert factors[2] == P(0, 1)
    assert squarefree_part(p) == P(0, 1) * P(-1, 1) * P(1, 1)
    # the Sturm chain ends in gcd(p, p') up to a constant
    last = sturm_chain(p)[-1]
    assert primitive_gcd(p, derivative(p)) in (last, -last)


def test_sturm_counts_known_roots():
    p = P(-2, 0, 1)  # x^2 - 2
    assert count_roots(p) == 2
    assert count_roots(p, 0, 2) == 1
    assert count_roots(p, -2, 0) == 1
    assert count_roots(P(1, 0, 1)) == 0  # x^2 + 1
    # repeated roots are counted once
    assert count_roots(P(-1, 1) ** 4) == 1


@given(coeff_lists)
def test_count_on_cauchy_interval_equals_count_on_reals(a):
    p = P(*a)
    if p.degree < 1:
        return
    bound = cauchy_bound(p)
    assert count_roots(p) == count_roots(p, -bound, bound)
    assert count_roots(p) == count_roots(p, -2 * bound, 2 * bound)


def test_sturm_chain_head_is_squarefree_part():
    p = P(-1, 1) ** 2 * P(1, 1)
    chain = sturm_chain(squarefree_part(p))
    assert chain[0] == squarefree_part(p)
    assert all(
        chain[i].degree > chain[i + 1].degree for i in range(len(chain) - 1)
    )


def test_sturm_chain_literal():
    # x^4 + x - 3: the remainder of 4x^3 + 1 by 4 - x has its scale (-1)**3
    # if taken as lc instead of |lc|, which would flip the last sign
    chain = sturm_chain(P(-3, 1, 0, 0, 1))
    assert chain == (P(-3, 1, 0, 0, 1), P(1, 0, 0, 4), P(4, -1), P(-1))
    bound = cauchy_bound(chain[0])
    assert variations_at(chain, -bound) - variations_at(chain, bound) == 2


@given(coeff_lists, coeff_lists)
def test_sturm_chain_matches_the_polynomial_loop(a, b):
    # a * b**2 has repeated roots whenever b has a root, so the chain may end
    # at a non-constant gcd
    p = P(*a) * P(*b) ** 2
    if p.is_zero:
        return
    assert sturm_chain(p) == sturm_chain_reference(p)


@given(coeff_lists, coeff_lists)
def test_pseudo_remainder_is_an_exact_integer_remainder(a, b):
    p, d = P(*a), P(*b)
    if d.is_zero:
        return
    r = P(*_pseudo_remainder(p.coeffs, d.coeffs))
    assert r.degree < d.degree
    scaled = p * abs(d.leading) ** max(p.degree - d.degree + 1, 0)
    assert poly_div_exact(scaled - r, d) * d == scaled - r


def test_bipartite_coefficient_accessor():
    # x^6 - 6x^4 + 9x^2 - 4 has b-coefficients 1, 6, 9, 4
    p = P(-4, 0, 9, 0, -6, 0, 1)
    assert bipartite_b_coeffs(p) == (1, 6, 9, 4)
    with pytest.raises(ValueError):
        bipartite_b_coeffs(P(1, 1, 1))
    with pytest.raises(ValueError):
        bipartite_b_coeffs(P(-4, 0, -9, 0, -6, 0, 1))


def test_decimal_string_round_trip():
    p = P(10**40, -3, 0, 7)
    strings = p.to_decimal_strings()
    assert strings[0] == str(10**40)
    assert IntPolynomial.from_decimal_strings(strings) == p


@given(
    st.lists(st.fractions(-20, 20, max_denominator=6), max_size=6),
    st.integers(1, 50),
)
def test_isolation_intervals_partition_roots(known, c):
    # rational roots with repeats, times x^2 + c, which has no real root
    p = P(c, 0, 1)
    for r in known:
        p = p * P(-r.numerator, r.denominator)
    found = []
    for factor, mult in squarefree_decomposition(p):
        enclosures = _isolate_squarefree(factor)
        for first, second in zip(enclosures, enclosures[1:]):
            assert first.hi <= second.lo
        # each factor holds the known roots of its multiplicity, one per interval
        roots_of_factor = {r for r in known if known.count(r) == mult}
        for enc in enclosures:
            inside = [r for r in roots_of_factor if enc.lo < r < enc.hi]
            assert len(inside) == 1
            found.append(inside[0])
    assert sorted(found) == sorted(set(known))
