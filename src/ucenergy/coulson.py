"""Coulson-integral energies and energy differences.

Both routes are one log-ratio integral: E(G1) - E(G2) is (1/pi) times the
integral over x > 0 of ln(m1(x) / m2(x)), where m = |phi(ix)|**2, and E(G)
is the difference from the empty graph, whose phi is x**n and whose energy
is 0.  The improper integral is reduced to smooth integrands on [0, 1]:

* on [0, 1] the zero eigenvalues are factored out of each squared modulus
  as a power of x before logs are taken, and their log x term is integrated
  exactly (the integral of log x over [0, 1] is -1);
* on [1, infinity) the substitution x -> 1/y maps to (0, 1], where each
  modulus reversed at degree 2n is 1 + y**2 t(y) for an exactly stripped
  t, evaluated cancellation-free through log1p.

The workhorse is an adaptive Gauss-Kronrod (G7, K15) rule with an
embedded error estimate.

The integrands run in doubles.  Every point they evaluate a modulus at lies
in [0, 1], where Horner's partial sums stay within sum_k |m_k| in size (up
to rounding), so both routes first check sum_k |m_k| < 2**1023 for each
modulus and raise ValueError past it, rather than failing on the first
coefficient a double cannot hold (C_750 is past it, C_700 is not).  The
exact route, ``energy_of_poly(charpoly(g))``, has no such limit.
"""

from __future__ import annotations

import math
from heapq import heappush, heappop

from .charpoly import charpoly
from .graphs import Graph
from .polynomials import IntPolynomial, reverse
from .roots import ConvergenceError, EnergyValue, check_tolerance

# Gauss-Kronrod 7-15 nodes and weights on [-1, 1] (QUADPACK constants).
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299785,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)


_MAX_INTERVALS = 4000  # subintervals one quadrature may split [a, b] into


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """15-point Kronrod value with embedded 7-point Gauss error estimate."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    gauss = _WG[3] * fc
    kronrod = _WGK[7] * fc
    for j in range(7):
        x = half * _XGK[j]
        fsum = f(center - x) + f(center + x)
        kronrod += _WGK[j] * fsum
        if j % 2 == 1:
            gauss += _WG[j // 2] * fsum
    kronrod *= half
    gauss *= half
    err = abs(kronrod - gauss)
    err = min(err, (200.0 * err) ** 1.5) if err > 0 else 0.0
    return kronrod, err


def integrate_adaptive(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Adaptive bisection on the worst subinterval until the error sum <= tol.

    Raises ConvergenceError once _MAX_INTERVALS subintervals do not meet tol.
    """
    value, err = _gk15(f, a, b)
    heap = [(-err, a, b, value, err)]
    total_err = err
    total_val = value
    count = 1
    while total_err > tol:
        if count >= _MAX_INTERVALS:
            raise ConvergenceError(
                "quadrature stalled at error %.3e (target %.1e)" % (total_err, tol)
            )
        _, lo, hi, val, err = heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total_val += v1 + v2 - val
        total_err += e1 + e2 - err
        heappush(heap, (-e1, lo, mid, v1, e1))
        heappush(heap, (-e2, mid, hi, v2, e2))
        count += 1
    return total_val, total_err


# ---------------------------------------------------------------------------
# Squared moduli as exact integer polynomials.
# ---------------------------------------------------------------------------


def modulus_sq_at_ix(p: IntPolynomial) -> IntPolynomial:
    """|p(ix)|**2 as an integer polynomial in real x.

    Splits p into even and odd coefficient parts: p(ix) has real part
    sum c_{2j} (-1)^j x^{2j} and imaginary part sum c_{2j+1} (-1)^j x^{2j+1}.
    """
    real = [0] * (p.degree + 1 if not p.is_zero else 0)
    imag = [0] * len(real)
    for j, c in enumerate(p.coeffs):
        if j % 2 == 0:
            real[j] = c * (-1) ** (j // 2)
        else:
            imag[j] = c * (-1) ** ((j - 1) // 2)
    re = IntPolynomial.from_coeffs(real)
    im = IntPolynomial.from_coeffs(imag)
    return re * re + im * im


# ---------------------------------------------------------------------------
# Energy routes.
# ---------------------------------------------------------------------------


def energy_coulson(g: Graph, tol: float = 1e-7) -> EnergyValue:
    """Graph energy via the explicit Coulson integral formula.

    This is E(g) - E(empty graph on g.n vertices), whose phi is x**n and
    whose energy is 0.  The radius is an estimate, not a bound: the adaptive
    quadrature's own error estimates plus a flat |E| * 2**-48 for float
    rounding.  Raises ValueError, naming the exact route, when the
    coefficients of |phi(ix)|**2 sum to 2**1023 or more, beyond what the
    double integrand can evaluate (module docstring).
    """
    check_tolerance(tol)
    empty = IntPolynomial((0,) * 2 * g.n + (1,))  # |(ix)**n|**2 = x**(2n)
    modulus = _in_double_range(modulus_sq_at_ix(charpoly(g)))
    value, err = _log_ratio_integral(modulus, empty, tol)
    return EnergyValue(value, err + abs(value) * 2.0 ** -48)


def energy_diff_coulson(g1: Graph, g2: Graph, tol: float = 1e-7) -> float:
    """E(g1) - E(g2) through the log-ratio integral, same order required.

    Raises ValueError, naming the exact route, when the coefficients of
    either |phi(ix)|**2 sum to 2**1023 or more (module docstring).
    """
    if g1.n != g2.n:
        raise ValueError("graphs must have the same number of vertices")
    check_tolerance(tol)
    m1 = _in_double_range(modulus_sq_at_ix(charpoly(g1)))
    m2 = _in_double_range(modulus_sq_at_ix(charpoly(g2)))
    return _log_ratio_integral(m1, m2, tol)[0]


def _in_double_range(m: IntPolynomial) -> IntPolynomial:
    """m, or ValueError when sum_k |m_k| >= 2**1023, where the integrands
    could overflow a double (module docstring)."""
    total = sum(map(abs, m.coeffs))
    if total >> 1023:
        raise ValueError(
            "the Coulson integrand overflows a double: the coefficients of "
            "|phi(ix)|**2 sum to 2**%d or more; use the exact route, "
            "energy_of_poly(charpoly(g))" % (total.bit_length() - 1)
        )
    return m


def _log_ratio_integral(
    m1: IntPolynomial, m2: IntPolynomial, tol: float
) -> tuple[float, float]:
    """(1/pi) * integral over x > 0 of ln(m1(x) / m2(x)), with its error.

    m1 and m2 are squared moduli |phi(ix)|**2 of monic phi of one degree n,
    so both reverse at degree 2n to polynomials with constant term 1.
    """
    integrand_near, integrand_far, log_term = _integrands(m1, m2)
    budget = 0.45 * tol * math.pi
    i_near, e_near = integrate_adaptive(integrand_near, 0.0, 1.0, budget)
    i_far, e_far = integrate_adaptive(integrand_far, 0.0, 1.0, budget)
    return (i_near + log_term + i_far) / math.pi, (e_near + e_far) / math.pi


def _integrands(m1: IntPolynomial, m2: IntPolynomial):
    """(near, far, log_term) for ``_log_ratio_integral``: the integrands on
    [0, 1] before and after x -> 1/y, and the exact integral of the log x
    terms over [0, 1] (module docstring)."""
    z1, z2 = m1.lowest_power(), m2.lowest_power()
    core1, core2 = _in_doubles(m1.shift_down(z1)), _in_doubles(m2.shift_down(z2))

    def integrand_near(x: float) -> float:
        return math.log(core1(x)) - math.log(core2(x))

    n2 = m1.degree
    tail1 = _in_doubles((reverse(m1, n2) - IntPolynomial((1,))).shift_down(2))
    tail2 = _in_doubles((reverse(m2, n2) - IntPolynomial((1,))).shift_down(2))

    def integrand_far(y: float) -> float:
        if y == 0.0:
            return tail1(0.0) - tail2(0.0)
        y2 = y * y
        return (math.log1p(y2 * tail1(y)) - math.log1p(y2 * tail2(y))) / y2

    return integrand_near, integrand_far, -(z1 - z2)


def _in_doubles(p: IntPolynomial):
    """x -> p(x) for a float x, by Horner's rule on the coefficients
    converted to doubles once.  Bitwise ``p(x)``, which converts each
    coefficient, correctly rounded as ``float`` does, at every step."""
    descending = [float(c) for c in reversed(p.coeffs)]

    def value(x: float) -> float:
        acc = 0.0
        for c in descending:
            acc = acc * x + c
        return acc

    return value
