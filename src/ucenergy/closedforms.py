"""Integer polynomial constants of the lollipop comparison.

The two real roots z1 > z2 of z**2 = x*z + 1 drive the two-term closed forms
of the lollipop characteristic polynomials at imaginary argument.  This
module holds the integer polynomials in x that the comparison is built from:
the p/q pairs whose radical combinations decide the coefficient signs, and
the factors of the bounds f(5, x) and f(3, x).

The comparison algebra itself (the one closed form of phi(L(n,l), ix) in z,
where x = z - 1/z, the squared moduli, a1, a2, the b-coefficients, alpha,
beta, gamma and the bounds), the check of the closed forms against the
characteristic polynomials and the sign certificates of the inequalities
live in the certify module.
"""

from __future__ import annotations

from typing import Sequence

from .polynomials import IntPolynomial


def _even_poly(desc_coeffs: Sequence[int], top_power: int) -> IntPolynomial:
    coeffs = [0] * (top_power + 1)
    power = top_power
    for c in desc_coeffs:
        coeffs[power] = c
        power -= 2
    return IntPolynomial.from_coeffs(coeffs)


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
