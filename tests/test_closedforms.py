"""The lollipop comparison lemmas, exactly, at x = z - 1/z.

Every quantity is a ``ZTerm`` z**e * p(z) / (z**2 + 1)**k built from
``lollipop_terms`` and the z-primitives of the certify module.  z > 0 covers
all real x (x > 0 is z > 1, x < 0 is 0 < z < 1), and there a ZTerm has the
sign of its numerator p(z).  So an identity is a zero numerator, and a sign
on an x-domain is one Sturm certificate of ``w_polynomial(p, domain)`` on
w > 0.  The closed forms of the squared moduli are checked the same way:
``check_modulus_forms`` proves them as identities in z against the exact
characteristic polynomials.
"""

from fractions import Fraction
from functools import cache

import pytest

from ucenergy.certify import (
    BETA2_EVEN,
    BETA2_ODD,
    Z1,
    Z2,
    SignCertificate,
    ZTerm,
    _modulus_coeffs,
    assembled_f5_exact,
    certify_poly_sign,
    check_modulus_forms,
    f5_factored_poly,
    lollipop_terms,
    verify_certificate,
    w_polynomial,
)
from ucenergy.charpoly import charpoly
from ucenergy.closedforms import P_POLYS, Q_POLYS, T3_DEG12, T3_QUADRATIC
from ucenergy.coulson import modulus_sq_at_ix
from ucenergy.graphs import make_lollipop
from ucenergy.polynomials import X, IntPolynomial


def P(*ascending):
    return IntPolynomial.from_coeffs(ascending)


def const(c):
    return ZTerm(IntPolynomial.constant(c))


ZERO, ONE, TWO = const(0), const(1), const(2)
XT = ZTerm.from_x(X)
SQ_PLUS_1 = ZTerm.from_x(P(1, 0, 1))  # x**2 + 1
RADICAL = ZTerm(P(1, 0, 1), -1)  # sqrt(x**2 + 4) = z + 1/z
INV_RADICAL_5 = ZTerm(P(1), 5, 5)  # (x**2 + 4)**(-5/2)

# The paper's t-free blocks: 1/(z_i**2 + 1), h = 1/(x**2 + 4),
# G_i = z_i**2 (z_i**2 + 2) / (z_i**2 + 1)**2 and M_i = -2 / (z_i**2 + 1).
INV1, INV2 = ZTerm(P(1), 0, 1), ZTerm(P(1), 2, 1)
H = ZTerm(P(1), 2, 2)
G1 = Z1 * Z1 * (Z1 * Z1 + TWO) * INV1 ** 2
G2 = Z2 * Z2 * (Z2 * Z2 + TWO) * INV2 ** 2
M1, M2 = -(TWO * INV1), -(TWO * INV2)


def value(term, z):
    """The exact value of a ZTerm at a rational z."""
    z = Fraction(z)
    return term.p(z) * z ** term.e / (z * z + 1) ** term.k


def assert_identity(lhs, rhs):
    assert (lhs - rhs).p.is_zero


def certify_sign(term, domain, sign):
    """Certify the sign of a ZTerm on an x-domain (R, (0,inf) or (-inf,0))."""
    cert = certify_poly_sign(w_polynomial(term.p, domain), "(0,inf)", sign)
    assert isinstance(cert, SignCertificate), (domain, sign, cert)
    assert verify_certificate(cert)


def expansion(terms, m):
    """alpha (z1^4 - z2^4) + beta z1^2m (z1^4 - 1) + gamma z2^2m (1 - z2^4).

    K(m, t, x) for odd m, and the bound f(t, x) at m = t.
    """
    z1_4, z2_4 = Z1 ** 4, Z2 ** 4
    return (
        terms.alpha * (z1_4 - z2_4)
        + terms.beta * Z1 ** (2 * m) * (z1_4 - ONE)
        + terms.gamma * Z2 ** (2 * m) * (ONE - z2_4)
    )


def modulus_charpoly(n, l):
    """|phi(L(n,l), ix)|**2 from the exact characteristic polynomial."""
    return modulus_sq_at_ix(charpoly(make_lollipop(n, l)))


def modulus_p6(n):
    """|phi(L(n,6), ix)|**2 by the one closed form."""
    return closed_modulus(6, n)


def modulus_pt(t, n):
    """|phi(L(n,t), ix)|**2 by the one closed form, t <= n."""
    return closed_modulus(t, n)


def closed_modulus(l, n):
    """c1 z1**2n + c2 z2**2n + (-1)**n 2 cross with (c1, c2, cross) =
    ``_modulus_coeffs(l)``: |phi(L(n,l), ix)|**2 for n >= l."""
    c1, c2, cross = _modulus_coeffs(l)
    return c1 * Z1 ** (2 * n) + c2 * Z2 ** (2 * n) + const(2 * (-1) ** n) * cross


@cache
def blocks():
    """The t-free building blocks (alpha_i), (beta_i), (gamma_i), i = 0..4.

    beta has no index-3 term and gamma no index-4 term; those slots are zero.
    """
    terms = lollipop_terms(3)
    a1, a2 = terms.a1, terms.a2
    core = TWO * ZTerm.from_x(P(3, 0, 1)) * H * H  # 2 (x^2 + 3) / (x^2 + 4)^2
    alphas = (
        a2 * a2 * G1 * G1 - a1 * a1 * G2 * G2,
        TWO * a1 * a1 * G2 * H * Z1 * Z1 - a1 * a1 * M2 * M2,
        a2 * a2 * M1 * M1 - TWO * a2 * a2 * G1 * H * Z2 * Z2,
        -(a1 * a1 * H * H),
        a2 * a2 * H * H,
    )
    betas = (
        -(TWO * a1 * (core * a1 + a2 * G1 * G1)),
        -(TWO * a1 * a1 * G1 * H),
        TWO * a1 * (TWO * a2 * G1 * H - a1 * G2 * H - a2 * M1 * M1 * Z1 * Z1),
        ZERO,
        -(TWO * a1 * a2 * H * H),
    )
    gammas = (
        TWO * a2 * (a1 * G2 * G2 + core * a2),
        TWO * a2 * (a1 * M2 * M2 * Z2 * Z2 + a2 * G1 * H - TWO * a1 * G2 * H),
        TWO * a2 * a2 * G2 * H,
        TWO * a1 * a2 * H * H,
        ZERO,
    )
    return alphas, betas, gammas


@cache
def d_coeffs():
    """f(t) = d0 + d1 z1^2t + d2 z2^2t + d3 z1^4t + d4 z2^4t, t-free d_i."""
    al, be, ga = blocks()
    z1_2, z2_2 = Z1 ** 2, Z2 ** 2
    z1_4, z2_4 = Z1 ** 4, Z2 ** 4
    z1_8, z2_8 = Z1 ** 8, Z2 ** 8
    return (
        al[0] * (z1_4 - z2_4) + be[2] * (z1_4 - ONE) * z1_2 + ga[1] * (ONE - z2_4) * z2_2,
        al[1] * (ONE - z2_8) + be[0] * (z1_4 - ONE) + ga[3] * (z2_4 - z2_8),
        al[2] * (z1_8 - ONE) + ga[0] * (ONE - z2_4) + be[4] * (z1_8 - z1_4),
        al[3] * (ONE - z2_8) + be[1] * (z1_2 - z2_2),
        al[4] * (z1_8 - ONE) + ga[2] * (z1_2 - z2_2),
    )


def dbar_coeffs():
    """Coefficients bounding K1 for x > 0."""
    al, be, _ = blocks()
    return (
        be[0] - al[1] * Z2 ** 4,
        be[1] - al[3] * Z2 ** 2,
        be[2] - al[0] * Z2 ** 2,
        be[4] - al[2],
        -al[4],
    )


def dtilde_coeffs():
    """Coefficients bounding K2 for x < 0."""
    al, _, ga = blocks()
    return (
        al[2] * Z1 ** 4 - ga[0],
        al[0] * Z1 ** 2 - ga[1],
        al[4] * Z1 ** 2 - ga[2],
        al[1] - ga[3],
        al[3],
    )


def test_sample_values_at_origin():
    # x = 0 is z = 1
    s = lollipop_terms(3)
    assert [value(v, 1) for v in (s.a1, s.a2)] == [2, 2]
    b = [value(v, 1) for v in (s.b11, s.b12, s.b21, s.b22)]
    assert b == [Fraction(1, 2), 1, Fraction(1, 2), -1]


def test_sample_rejects_even_t():
    for t in (1, 4, 6):
        with pytest.raises(ValueError):
            lollipop_terms(t)


def test_z_identities():
    # z1 + z2 = x, z1 z2 = -1, (z1^2+1)(z2^2+1) = x^2+4, z_i^2/(z_i^2+1)^2 = h
    assert_identity(Z1 + Z2, XT)
    assert_identity(Z1 * Z2, -ONE)
    assert_identity((Z1 * Z1 + ONE) * (Z2 * Z2 + ONE), ZTerm.from_x(P(4, 0, 1)))
    assert_identity(RADICAL * RADICAL, ZTerm.from_x(P(4, 0, 1)))
    assert_identity(INV1 * (Z1 * Z1 + ONE), ONE)
    assert_identity(INV2 * (Z2 * Z2 + ONE), ONE)
    assert_identity(Z1 * Z1 * INV1 * INV1, H)
    assert_identity(Z2 * Z2 * INV2 * INV2, H)
    assert_identity(H * ZTerm.from_x(P(4, 0, 1)), ONE)


def test_growth_coefficients_positive_everywhere():
    s = lollipop_terms(5)
    certify_sign(s.a1, "R", "positive")
    certify_sign(s.a2, "R", "positive")


def test_modulus_closed_form_examples():
    # x = 0 is z = 1: |phi(L(8,6), 0)|^2 = 16 and |phi(L(5,3), 0)|^2 = 4
    assert value(modulus_p6(8), 1) == 16
    assert value(modulus_pt(3, 5), 1) == 4
    assert_identity(modulus_p6(8), ZTerm.from_x(modulus_charpoly(8, 6)))
    assert_identity(modulus_pt(3, 5), ZTerm.from_x(modulus_charpoly(5, 3)))
    with pytest.raises(ValueError):
        lollipop_terms(4)


@pytest.mark.parametrize("l", range(3, 13))
def test_the_one_closed_form_is_the_modulus_of_every_lollipop(l):
    # every girth class mod 4, and n = l (the cycle C_l) upward
    for n in range(l, l + 6):
        assert_identity(closed_modulus(l, n), ZTerm.from_x(modulus_charpoly(n, l)))


def test_the_b_terms_are_the_papers_blocks():
    for t in (3, 5, 7, 9, 11):
        s = lollipop_terms(t)
        assert_identity(s.b11, G1 - Z2 ** (2 * t - 2) * H)
        assert_identity(s.b12, M1 * Z2 ** (t - 2))
        assert_identity(s.b21, G2 - Z1 ** (2 * t - 2) * H)
        assert_identity(s.b22, M2 * Z1 ** (t - 2))


def test_modulus_forms_match_exact_charpoly():
    for n in (7, 8, 17):
        checks = check_modulus_forms(n)
        assert [(c.family, c.t) for c in checks] == [("L(n,6)", 6)] + [
            ("L(n,t)", t) for t in range(3, n + 1, 2)
        ]
        assert all(c.ok for c in checks), n
    with pytest.raises(ValueError):
        check_modulus_forms(6)


def test_modulus_forms_build_only_the_requested_t(monkeypatch):
    from ucenergy import certify

    built, orders = [], []
    terms, exact = certify._gaussian_terms, certify.charpoly
    monkeypatch.setattr(certify, "_gaussian_terms", lambda l: built.append(l) or terms(l))
    monkeypatch.setattr(certify, "charpoly", lambda g: orders.append(g.n) or exact(g))
    rows = check_modulus_forms(15, [11, 5])
    assert built == [6, 5, 11]
    assert orders == [15, 15, 15]  # L(15,6), L(15,5) and L(15,11)
    monkeypatch.undo()
    assert rows == tuple(
        c for c in check_modulus_forms(15) if c.family == "L(n,6)" or c.t in (5, 11)
    )
    for t in (4, 1, 17):
        with pytest.raises(ValueError):
            check_modulus_forms(15, [3, t])


def test_odd_order_vanishing_at_origin():
    # odd-order bipartite lollipop has a zero eigenvalue: both routes give 0
    assert modulus_charpoly(7, 6)(0) == 0
    assert value(modulus_p6(7), 1) == 0


def test_pq_pairs():
    # (p_i, q_i sqrt(x^2+4)) at x = 0 and p_4 at x = 1
    assert (P_POLYS[1](0), 2 * Q_POLYS[1](0)) == (0, 8)
    assert (P_POLYS[3](0), 2 * Q_POLYS[3](0)) == (0, 96)
    assert P_POLYS[4](1) == 2328
    assert sorted(P_POLYS) == sorted(Q_POLYS) == [0, 1, 2, 3, 4]


def t3_factored_poly():
    """-x^2 (x^2+1)^3 T3_QUADRATIC T3_DEG12, the factored t = 3 bound."""
    return -1 * X * X * P(1, 0, 1) ** 3 * T3_QUADRATIC * T3_DEG12


def test_f_factored_values():
    assert f5_factored_poly()(1) == -50320
    assert t3_factored_poly()(1) == -41280
    assert f5_factored_poly()(0) == 0


def test_f_assembly_routes_agree():
    d0, d1, d2, d3, d4 = d_coeffs()
    for t in (3, 5, 7, 9):
        w_t, w_minus_t = Z1 ** (2 * t), Z2 ** (2 * t)
        via_d = d0 + d1 * w_t + d2 * w_minus_t + d3 * w_t * w_t + d4 * w_minus_t * w_minus_t
        assert_identity(expansion(lollipop_terms(t), t), via_d)


def test_f5_matches_factored_form():
    assert_identity(assembled_f5_exact(), ZTerm.from_x(f5_factored_poly()))
    assert_identity(expansion(lollipop_terms(5), 5), assembled_f5_exact())


def test_t3_bound_matches_factored_form():
    # the t = 3 bound anchors the z-powers at 2n = 10
    assert_identity(expansion(lollipop_terms(3), 5), ZTerm.from_x(t3_factored_poly()))


def test_d_sign_pattern():
    _, d1, d2, d3, d4 = d_coeffs()
    for domain, low, high in (
        ("(0,inf)", "negative", "positive"),
        ("(-inf,0)", "positive", "negative"),
    ):
        certify_sign(d1, domain, low)
        certify_sign(d3, domain, low)
        certify_sign(d2, domain, high)
        certify_sign(d4, domain, high)


def test_f_decreases_in_t():
    # df/dt = bracket * log(z1^2), and log(z1^2) has the sign of x
    _, d1, d2, d3, d4 = d_coeffs()
    for t in (3, 5, 7, 9):
        w_t, w_minus_t = Z1 ** (2 * t), Z2 ** (2 * t)
        bracket = (
            d1 * w_t
            - d2 * w_minus_t
            + TWO * d3 * w_t * w_t
            - TWO * d4 * w_minus_t * w_minus_t
        )
        certify_sign(bracket, "(0,inf)", "negative")
        certify_sign(bracket, "(-inf,0)", "positive")


def test_beta_negative_gamma_positive():
    for t in (3, 5, 7, 9, 11):
        s = lollipop_terms(t)
        certify_sign(s.beta, "R", "negative")
        certify_sign(s.gamma, "R", "positive")


def test_subcase_tail_coefficients_negative():
    for c in dbar_coeffs():
        certify_sign(c, "(0,inf)", "negative")
    for c in dtilde_coeffs():
        certify_sign(c, "(-inf,0)", "negative")


def test_k_definition_matches_expansion():
    # K(n,t) = |phi(L(n+2,t))|^2 |phi(L(n,6))|^2 - |phi(L(n+2,6))|^2 |phi(L(n,t))|^2
    for n, t in [(17, 3), (17, 5), (19, 7), (21, 9)]:
        k_poly = modulus_charpoly(n + 2, t) * modulus_charpoly(n, 6) - (
            modulus_charpoly(n + 2, 6) * modulus_charpoly(n, t)
        )
        assert_identity(expansion(lollipop_terms(t), n), ZTerm.from_x(k_poly))


def test_k_bounded_by_f_for_odd_n():
    # for odd n > t the expansion stays below its t-anchored value; the two
    # agree at x = 0 (z = 1)
    for t in (3, 5, 7):
        s = lollipop_terms(t)
        f_anchor = expansion(s, t)
        for n in sorted({t + 2, t + 4, 17, 21}):
            gap = f_anchor - expansion(s, n)
            assert value(gap, 1) == 0
            certify_sign(gap, "(0,inf)", "positive")
            certify_sign(gap, "(-inf,0)", "positive")


def test_even_order_limit_behaviour():
    # for even n the ratio |phi(L(n,t))|^2 / |phi(L(n,6))|^2 stays below its
    # limit (b11^2 + b12^2) / a1^2 on x > 0: b1sq M6(n) - a1^2 Mt(n) > 0, as
    # M6(n) > 0 for even n and a1, a2 > 0; and the gap to the limit shrinks
    # from n = 20 to n = 40
    for t in (3, 5):
        s = lollipop_terms(t)
        a1sq, b1sq = s.a1 * s.a1, s.b11 * s.b11 + s.b12 * s.b12
        gap = {
            n: b1sq * modulus_p6(n) - a1sq * modulus_pt(t, n) for n in range(8, 41, 2)
        }
        for n in gap:
            certify_sign(gap[n], "(0,inf)", "positive")
        shrink = gap[20] * modulus_p6(40) - gap[40] * modulus_p6(20)
        certify_sign(shrink, "(0,inf)", "positive")


# -- radical closed forms of the tail coefficients ---------------------------


def test_beta2_gamma1_radical_forms():
    s = lollipop_terms(3)
    _, be, ga = blocks()
    odd, even = ZTerm.from_x(BETA2_ODD), ZTerm.from_x(BETA2_EVEN)
    scale = SQ_PLUS_1 * INV_RADICAL_5
    assert_identity(be[2], -(s.a1 * scale * (odd + RADICAL * even)))
    assert_identity(ga[1], s.a2 * scale * (-odd + RADICAL * even))
    certify_sign(be[2], "R", "negative")
    certify_sign(ga[1], "R", "positive")


def test_alpha_radical_forms():
    al, _, _ = blocks()
    poly_a = ZTerm.from_x(P(50, 0, 73, 0, 43, 0, 11, 0, 1))
    poly_b = ZTerm.from_x(P(12, 0, 33, 0, 27, 0, 9, 0, 1))
    assert_identity(al[0], XT * SQ_PLUS_1 ** 2 * poly_a * poly_b * INV_RADICAL_5)

    # alpha_1 and alpha_2 times their denominator, with q_2 = Q_2 sqrt(x^2+4)
    p2, q2 = ZTerm.from_x(P_POLYS[2]), ZTerm.from_x(Q_POLYS[2]) * RADICAL
    x_sq, x_rad = XT * XT, XT * RADICAL
    four, ten, three = const(4), const(10), const(3)
    denom = (
        const(4096)
        * (x_sq - x_rad + four) ** 2
        * (x_sq + x_rad + four) ** 2
        * (x_sq + four)
    )
    alpha1_num = -(
        (p2 + q2) ** 2 * (three * x_sq + ten + x_rad) * (TWO * Z2) ** 14 * SQ_PLUS_1 ** 2
    )
    alpha2_num = (
        (p2 - q2) ** 2 * (three * x_sq + ten - x_rad) * (TWO * Z1) ** 14 * SQ_PLUS_1 ** 2
    )
    assert_identity(al[1] * denom, alpha1_num)
    assert_identity(al[2] * denom, alpha2_num)


def test_dbar_dtilde_radical_forms():
    s = lollipop_terms(3)
    a1, a2 = s.a1, s.a2
    p0, q0 = ZTerm.from_x(P_POLYS[0]), ZTerm.from_x(Q_POLYS[0]) * RADICAL
    z1sq_1, z2sq_1 = Z1 * Z1 + ONE, Z2 * Z2 + ONE
    four = const(4)
    dbar, dtilde = dbar_coeffs(), dtilde_coeffs()
    assert_identity(dbar[0] * z1sq_1 ** 4 * z2sq_1 ** 2, -(a1 * SQ_PLUS_1 * (p0 + q0)))
    assert_identity(dbar[1], -(a1 * a1 * H * H * (TWO * Z1 * Z1 - Z2 * Z2 + four)))
    assert_identity(dtilde[0] * z2sq_1 ** 4 * z1sq_1 ** 2, -(a2 * SQ_PLUS_1 * (p0 - q0)))
    assert_identity(dtilde[2], -(a2 * a2 * H * H * (TWO * Z2 * Z2 - Z1 * Z1 + four)))
