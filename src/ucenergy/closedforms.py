"""Scalar closed forms for the lollipop energy comparison.

Everything here works with the two real roots z1 > z2 of z**2 = x*z + 1,
which drive the two-term closed forms of the lollipop characteristic
polynomials at imaginary argument.  The module evaluates:

* the growth coefficients a1, a2 of the hexagon-lollipop family and the
  b11/b12/b21/b22 coefficients of the odd-lollipop family,
* the squared moduli |phi(L(n,6), ix)|**2 and |phi(L(n,t), ix)|**2 through
  those closed forms (checkable against exact characteristic polynomials),
* the comparison kernel K(n, t, x), its t-anchored bound f(t, x) in both the
  alpha/beta/gamma assembly and the d-coefficient expansion, and the
  factored forms used for t = 3 and t = 5,
* the p/q polynomial pairs whose radical combinations decide all signs.

All evaluation is double precision; exact certification of the underlying
polynomial inequalities lives in the certify module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .charpoly import charpoly
from .coulson import modulus_sq_at_ix
from .graphs import make_lollipop
from .polynomials import IntPolynomial

#: Grid used by the modulus-form identity checks (avoids the branch points
#: x = +-2 of the original variables).
STANDARD_GRID: tuple[float, ...] = (-3.0, -1.5, 0.5, 1.5, 3.0)


def symmetric_grid(count: int = 50, lo: float = -10.0, hi: float = 10.0) -> list[float]:
    """Evenly spaced sign-varied sample grid."""
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count)]


def _even_poly(desc_coeffs: Sequence[int], top_power: int) -> IntPolynomial:
    coeffs = [0] * (top_power + 1)
    power = top_power
    for c in desc_coeffs:
        coeffs[power] = c
        power -= 2
    return IntPolynomial.from_coeffs(coeffs)


# phi(L(8,6), ix) and i * phi(L(7,6), ix) as real polynomials.
F8 = _even_poly([1, 8, 19, 16, 4], 8)
F7 = _even_poly([1, 7, 13, 7], 7)

# The norm -(z*F8 + F7)(z~*F8 + F7) over the conjugate pair z, z~; positive
# everywhere, and the exact route around the catastrophic cancellation in
# z2*F8 + F7 for large |x|.
GROWTH_NORM = _even_poly([1, 10, 36, 62, 51, 16], 10)

# Sign-deciding polynomial pairs; Q_POLYS holds the polynomial factor of the
# radical part (the full q_i carries an extra sqrt(x**2 + 4)).
P_POLYS: dict[int, IntPolynomial] = {
    0: _even_poly([1, 19, 146, 584, 1300, 1582, 928, 160], 14),
    1: _even_poly([1, 6], 3),
    2: _even_poly([1, 9, 24, 18], 7),
    3: _even_poly([1, 15, 89, 264, 405, 288, 56], 13),
    4: _even_poly([1, 14, 83, 274, 551, 686, 507, 190, 22], 16),
}
Q_POLYS: dict[int, IntPolynomial] = {
    0: _even_poly([1, 17, 116, 404, 756, 722, 272], 13),
    1: _even_poly([3, 4], 2),
    2: _even_poly([1, 7, 12, 4], 6),
    3: _even_poly([1, 15, 85, 234, 331, 220, 48], 12),
    4: _even_poly([1, 12, 61, 172, 291, 296, 167, 40], 15),
}

# Factored bound polynomials: factor lists for f(5, x) and the t = 3 bound.
F5_QUARTIC = _even_poly([1, 3, 1], 4)
F5_DEG12 = _even_poly([2, 31, 189, 574, 899, 661, 160], 12)
T3_QUADRATIC = _even_poly([1, 5], 2)
T3_DEG12 = _even_poly([2, 23, 104, 238, 290, 171, 32], 12)


def zpair(x: float) -> tuple[float, float]:
    """The roots (x +- sqrt(x**2 + 4)) / 2; z1*z2 = -1 and z1+z2 = x.

    The root of smaller magnitude is recovered through z1*z2 = -1 so that
    neither value suffers subtractive cancellation for large |x|.
    """
    s = math.sqrt(x * x + 4.0)
    if x >= 0.0:
        z1 = (x + s) / 2.0
        return z1, -1.0 / z1
    z2 = (x - s) / 2.0
    return -1.0 / z2, z2


def _a_pair(x: float) -> tuple[float, float]:
    """Growth coefficients a1, a2 of the hexagon-lollipop closed form.

    For x >= 0 the combination z2*f8 + f7 loses most significant digits, so
    it is evaluated through the exact norm identity
    (x*f8/2 + f7)**2 - (x**2+4)*(f8/2)**2 = -GROWTH_NORM(x),
    whose cofactor z1*f8 + f7 has only positive terms there.  Negative x is
    reduced by the parity symmetry a1(-x) = a2(x).
    """
    if x < 0.0:
        a2, a1 = _a_pair(-x)
        return a1, a2
    z1, z2 = zpair(x)
    f8, f7 = float(F8(x)), float(F7(x))
    pos_combo = z1 * f8 + f7
    neg_combo = -float(GROWTH_NORM(x)) / pos_combo  # equals z2*f8 + f7
    a1 = -pos_combo / (z1 * z1 + 1.0) * z2 ** 7
    a2 = -neg_combo / (z2 * z2 + 1.0) * z1 ** 7
    return a1, a2


def _b_quad(t: int, x: float) -> tuple[float, float, float, float]:
    z1, z2 = zpair(x)
    h = 1.0 / (x * x + 4.0)
    b11 = z1 * z1 * (z1 * z1 + 2.0) / (z1 * z1 + 1.0) ** 2 - z2 ** (2 * t - 2) * h
    b12 = -2.0 * z2 ** (t - 2) / (z1 * z1 + 1.0)
    b21 = z2 * z2 * (z2 * z2 + 2.0) / (z2 * z2 + 1.0) ** 2 - z1 ** (2 * t - 2) * h
    b22 = -2.0 * z1 ** (t - 2) / (z2 * z2 + 1.0)
    return b11, b12, b21, b22


@dataclass(frozen=True)
class ClosedFormSample:
    """Every scalar quantity of the comparison machinery at one (x, t, n)."""

    x: float
    t: int
    n: int
    z1: float
    z2: float
    a1: float
    a2: float
    b11: float
    b12: float
    b21: float
    b22: float
    g1: float
    g2: float
    m1: float
    m2: float
    h: float
    alpha: float
    beta: float
    gamma: float
    d: tuple[float, float, float, float, float]
    k_val: float
    f_val: float


def alpha_beta_gamma_terms(x: float) -> tuple[tuple[float, ...], ...]:
    """The t-free building blocks (alpha_i), (beta_i), (gamma_i).

    beta has no index-3 term and gamma no index-4 term; those slots are zero.
    """
    z1, z2 = zpair(x)
    a1, a2 = _a_pair(x)
    g1 = z1 * z1 * (z1 * z1 + 2.0) / (z1 * z1 + 1.0) ** 2
    g2 = z2 * z2 * (z2 * z2 + 2.0) / (z2 * z2 + 1.0) ** 2
    m1 = -2.0 / (z1 * z1 + 1.0)
    m2 = -2.0 / (z2 * z2 + 1.0)
    h = 1.0 / (x * x + 4.0)
    core = 2.0 * (x * x + 3.0) / (x * x + 4.0) ** 2
    alphas = (
        a2 * a2 * g1 * g1 - a1 * a1 * g2 * g2,
        2.0 * a1 * a1 * g2 * h * z1 * z1 - a1 * a1 * m2 * m2,
        a2 * a2 * m1 * m1 - 2.0 * a2 * a2 * g1 * h * z2 * z2,
        -a1 * a1 * h * h,
        a2 * a2 * h * h,
    )
    betas = (
        -2.0 * a1 * (core * a1 + a2 * g1 * g1),
        -2.0 * a1 * a1 * g1 * h,
        2.0 * a1 * (2.0 * a2 * g1 * h - a1 * g2 * h - a2 * m1 * m1 * z1 * z1),
        0.0,
        -2.0 * a1 * a2 * h * h,
    )
    gammas = (
        2.0 * a2 * (a1 * g2 * g2 + core * a2),
        2.0 * a2 * (a1 * m2 * m2 * z2 * z2 + a2 * g1 * h - 2.0 * a1 * g2 * h),
        2.0 * a2 * a2 * g2 * h,
        2.0 * a1 * a2 * h * h,
        0.0,
    )
    return alphas, betas, gammas


def closed_form_sample(x: float, t: int, n: int) -> ClosedFormSample:
    """Evaluate every closed-form quantity at (x, t, n); t must be odd >= 3."""
    if t < 3 or t % 2 == 0:
        raise ValueError("t must be an odd integer >= 3, got %r" % t)
    z1, z2 = zpair(x)
    a1, a2 = _a_pair(x)
    b11, b12, b21, b22 = _b_quad(t, x)
    g1 = z1 * z1 * (z1 * z1 + 2.0) / (z1 * z1 + 1.0) ** 2
    g2 = z2 * z2 * (z2 * z2 + 2.0) / (z2 * z2 + 1.0) ** 2
    m1 = -2.0 / (z1 * z1 + 1.0)
    m2 = -2.0 / (z2 * z2 + 1.0)
    h = 1.0 / (x * x + 4.0)

    b1sq = b11 * b11 + b12 * b12
    b2sq = b21 * b21 + b22 * b22
    bcross = b11 * b21 + b12 * b22
    alpha = a2 * a2 * b1sq - a1 * a1 * b2sq
    beta = 2.0 * a1 * a1 * bcross - 2.0 * a1 * a2 * b1sq
    gamma = 2.0 * a1 * a2 * b2sq - 2.0 * a2 * a2 * bcross

    al, be, ga = alpha_beta_gamma_terms(x)
    z1_2, z2_2 = z1 * z1, z2 * z2
    z1_4, z2_4 = z1_2 * z1_2, z2_2 * z2_2
    z1_8, z2_8 = z1_4 * z1_4, z2_4 * z2_4
    d = (
        al[0] * (z1_4 - z2_4) + be[2] * (z1_4 - 1.0) * z1_2 + ga[1] * (1.0 - z2_4) * z2_2,
        al[1] * (1.0 - z2_8) + be[0] * (z1_4 - 1.0) + ga[3] * (z2_4 - z2_8),
        al[2] * (z1_8 - 1.0) + ga[0] * (1.0 - z2_4) + be[4] * (z1_8 - z1_4),
        al[3] * (1.0 - z2_8) + be[1] * (z1_2 - z2_2),
        al[4] * (z1_8 - 1.0) + ga[2] * (z1_2 - z2_2),
    )

    k_val = (
        alpha * (z1_4 - z2_4)
        + beta * z1 ** (2 * n) * (z1_4 - 1.0)
        + gamma * z2 ** (2 * n) * (1.0 - z2_4)
    )
    f_val = (
        alpha * (z1_4 - z2_4)
        + beta * z1 ** (2 * t) * (z1_4 - 1.0)
        + gamma * z2 ** (2 * t) * (1.0 - z2_4)
    )
    return ClosedFormSample(
        x, t, n, z1, z2, a1, a2, b11, b12, b21, b22,
        g1, g2, m1, m2, h, alpha, beta, gamma, d, k_val, f_val,
    )


def f_via_d(t: int, x: float) -> float:
    """f(t, x) through the d-coefficient expansion in powers of z1**2."""
    sample = closed_form_sample(x, t, 7)
    z1, z2 = sample.z1, sample.z2
    d0, d1, d2, d3, d4 = sample.d
    return (
        d0
        + d1 * z1 ** (2 * t)
        + d2 * z2 ** (2 * t)
        + d3 * z1 ** (4 * t)
        + d4 * z2 ** (4 * t)
    )


def df_dt_sign_term(t: int, x: float) -> float:
    """The t-derivative of f: (bracketed series) * log(z1**2); negative."""
    sample = closed_form_sample(x, t, 7)
    z1 = sample.z1
    _, d1, d2, d3, d4 = sample.d
    w = z1 * z1
    bracket = (
        d1 * w ** t - d2 * w ** (-t) + 2.0 * d3 * w ** (2 * t) - 2.0 * d4 * w ** (-2 * t)
    )
    return bracket * math.log(w)


# ---------------------------------------------------------------------------
# Squared moduli through the closed forms.
# ---------------------------------------------------------------------------


def modulus_sq_p6(n: int, x: float) -> float:
    """|phi(L(n,6), ix)|**2 via the two-term closed form; needs n >= 7."""
    if n < 7:
        raise ValueError("closed form anchored at n >= 7, got %d" % n)
    z1, z2 = zpair(x)
    a1, a2 = _a_pair(x)
    return (
        a1 * a1 * z1 ** (2 * n)
        + a2 * a2 * z2 ** (2 * n)
        + (-1.0) ** n * 2.0 * a1 * a2
    )


def modulus_sq_pt(n: int, t: int, x: float) -> float:
    """|phi(L(n,t), ix)|**2 via the closed form; odd 3 <= t <= n."""
    if t < 3 or t % 2 == 0:
        raise ValueError("t must be odd >= 3, got %r" % t)
    if t > n:
        raise ValueError("need t <= n, got t=%d n=%d" % (t, n))
    z1, z2 = zpair(x)
    b11, b12, b21, b22 = _b_quad(t, x)
    return (
        (b11 * b11 + b12 * b12) * z1 ** (2 * n)
        + (b21 * b21 + b22 * b22) * z2 ** (2 * n)
        + (-1.0) ** n * 2.0 * (b11 * b21 + b12 * b22)
    )


def modulus_sq_exact(n: int, l: int, x) -> Fraction:
    """|phi(L(n,l), ix)|**2 from the exact characteristic polynomial."""
    poly = modulus_sq_at_ix(charpoly(make_lollipop(n, l)))
    return Fraction(poly(Fraction(x)))


def k_value_exact(n: int, t: int, x) -> float:
    """K(n, t, x) straight from its definition, with exact cancellation.

    The two squared-modulus products agree to dozens of digits, so the
    subtraction is done over exact rationals before converting to float.
    """
    xf = Fraction(x)
    diff = modulus_sq_exact(n + 2, t, xf) * modulus_sq_exact(n, 6, xf) - (
        modulus_sq_exact(n + 2, 6, xf) * modulus_sq_exact(n, t, xf)
    )
    return float(diff)


# ---------------------------------------------------------------------------
# p/q pairs and factored bounds.
# ---------------------------------------------------------------------------


def pq_pair(index: int, x: float) -> tuple[float, float]:
    """(p_i(x), q_i(x)) with the sqrt(x**2+4) factor folded into q_i."""
    if index not in P_POLYS:
        raise ValueError("index must be 0..4, got %r" % index)
    radical = math.sqrt(x * x + 4.0)
    return float(P_POLYS[index](x)), float(Q_POLYS[index](x)) * radical


def f_factored(t: int, x: float) -> float:
    """Factored polynomial form of f(5, x), or of the bound used at t = 3."""
    x2 = x * x
    if t == 5:
        return -x2 * (x2 + 1.0) ** 2 * float(F5_QUARTIC(x)) * float(F5_DEG12(x))
    if t == 3:
        return -x2 * (x2 + 1.0) ** 3 * float(T3_QUADRATIC(x)) * float(T3_DEG12(x))
    raise ValueError("factored forms exist for t in {3, 5}, got %r" % t)


def t3_bound_value(x: float, n_exponent: int = 10) -> float:
    """alpha(3,x)(z1^4-z2^4) + beta(3,x) z1^10 (z1^4-1) + gamma(3,x) z2^10 (1-z2^4)."""
    sample = closed_form_sample(x, 3, 7)
    z1, z2 = sample.z1, sample.z2
    z1_4, z2_4 = z1 ** 4, z2 ** 4
    return (
        sample.alpha * (z1_4 - z2_4)
        + sample.beta * z1 ** n_exponent * (z1_4 - 1.0)
        + sample.gamma * z2 ** n_exponent * (1.0 - z2_4)
    )


# ---------------------------------------------------------------------------
# Tail coefficients of the even-order subcases.
# ---------------------------------------------------------------------------


def dbar_coeffs(x: float) -> tuple[float, float, float, float, float]:
    """Coefficients bounding K1 for x > 0; all five are negative there."""
    al, be, _ = alpha_beta_gamma_terms(x)
    z1, z2 = zpair(x)
    return (
        be[0] - al[1] * z2 ** 4,
        be[1] - al[3] * z2 ** 2,
        be[2] - al[0] * z2 ** 2,
        be[4] - al[2],
        -al[4],
    )


def dtilde_coeffs(x: float) -> tuple[float, float, float, float, float]:
    """Coefficients bounding K2 for x < 0; all five are negative there."""
    al, _, ga = alpha_beta_gamma_terms(x)
    z1, z2 = zpair(x)
    return (
        al[2] * z1 ** 4 - ga[0],
        al[0] * z1 ** 2 - ga[1],
        al[4] * z1 ** 2 - ga[2],
        al[1] - ga[3],
        al[3],
    )


# ---------------------------------------------------------------------------
# Identity check against exact characteristic polynomials.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModulusCheckEntry:
    family: str  # "L(n,6)" or "L(n,t)"
    t: int | None
    x: float
    closed_form: float
    exact: float
    rel_dev: float


@dataclass(frozen=True)
class ModulusCheckReport:
    n: int
    entries: tuple[ModulusCheckEntry, ...]
    max_rel_dev: float


def check_modulus_forms(
    n: int, xgrid: Sequence[float] = STANDARD_GRID
) -> ModulusCheckReport:
    """Compare both closed-form moduli with exact charpoly values on a grid."""
    if n < 7:
        raise ValueError("need n >= 7")
    entries = []
    for x in xgrid:
        exact = float(modulus_sq_exact(n, 6, Fraction(x)))
        closed = modulus_sq_p6(n, x)
        dev = abs(closed - exact) / max(1.0, abs(exact))
        entries.append(ModulusCheckEntry("L(n,6)", None, x, closed, exact, dev))
        for t in range(3, n + 1, 2):
            exact = float(modulus_sq_exact(n, t, Fraction(x)))
            closed = modulus_sq_pt(n, t, x)
            dev = abs(closed - exact) / max(1.0, abs(exact))
            entries.append(ModulusCheckEntry("L(n,t)", t, x, closed, exact, dev))
    report = ModulusCheckReport(n, tuple(entries), max(e.rel_dev for e in entries))
    return report
