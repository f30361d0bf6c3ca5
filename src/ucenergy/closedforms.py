"""Float closed forms of the lollipop moduli and the comparison polynomials.

The two real roots z1 > z2 of z**2 = x*z + 1 drive the two-term closed forms
of the lollipop characteristic polynomials at imaginary argument.  This
module holds:

* the integer polynomials of the comparison: F8 and F7, which give the
  growth coefficients a1, a2 of the hexagon-lollipop family; the p/q pairs
  whose radical combinations decide the coefficient signs; and the factors
  of the bounds f(5, x) and f(3, x);
* double-precision evaluators of the squared moduli |phi(L(n,6), ix)|**2 and
  |phi(L(n,t), ix)|**2 through those closed forms, and ``check_modulus_forms``,
  which compares them on a grid with exact characteristic polynomials
  (the ``closed-form-check`` command).

The exact algebra of the comparison (a1, a2, the b-coefficients, alpha, beta,
gamma and the bounds, as rational functions of z) and the sign certificates
of its inequalities live in the certify module.
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
