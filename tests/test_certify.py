import dataclasses
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import ucenergy.certify as certify
import ucenergy.polynomials as polynomials
import ucenergy.roots as roots
from oracles import squarefree_part, yun_core, yun_decomposition
from ucenergy.certify import (
    A_POSITIVITY,
    DOMAINS,
    SIGNS,
    BETA2_EVEN,
    BETA2_ODD,
    C4_COFACTOR,
    RADICAL_SQ,
    Refutation,
    SignCertificate,
    ZTerm,
    _in_z,
    assembled_f5_exact,
    certificate_from_json,
    certificate_to_json,
    certify_poly_sign,
    certify_radical_sign,
    f5_factored_poly,
    run_claim_suite,
    verify_certificate,
)
from ucenergy.charpoly import charpoly
from ucenergy.closedforms import P_POLYS, Q_POLYS
from ucenergy.graphs import make_lollipop
from ucenergy.polynomials import (
    IntPolynomial,
    cauchy_bound,
    squarefree_decomposition,
    sturm_chain,
    variations_at,
    variations_at_infinity,
)


def P(*ascending):
    return IntPolynomial.from_coeffs(ascending)


def test_certifies_positive_polynomial():
    cert = certify_poly_sign(A_POSITIVITY, "R", "positive", "demo")
    assert isinstance(cert, SignCertificate)
    assert cert.root_count == 0
    assert cert.sample_sign == 1
    assert A_POSITIVITY(0) == 16
    assert verify_certificate(cert)


def test_refutes_sign_change():
    result = certify_poly_sign(P(-2, 0, 1), "R", "positive", "x^2-2")
    assert isinstance(result, Refutation)
    assert result.witness_lo <= result.witness_hi
    # the witness interval brackets one of the real roots
    w = (result.witness_lo + result.witness_hi) / 2
    assert abs(abs(float(w)) - 2 ** 0.5) < 2.0


def test_domain_punctured_at_zero():
    # -x^2 is nonpositive everywhere and vanishes at zero
    p = P(0, 0, -1)
    assert isinstance(certify_poly_sign(p, "R", "negative"), Refutation)
    assert isinstance(certify_poly_sign(p, "R", "nonpositive"), SignCertificate)
    # the punctured line is not a certificate domain, like any unknown one;
    # an unknown sign and the zero polynomial are refused too
    for args in [(p, "R\\{0}", "negative"), (p, "R", "zero"), (P(), "R", "positive")]:
        with pytest.raises(ValueError):
            certify_poly_sign(*args)


def test_half_line_domains():
    p = P(0, 1)  # x
    assert isinstance(certify_poly_sign(p, "(0,inf)", "positive"), SignCertificate)
    assert isinstance(certify_poly_sign(p, "(-inf,0)", "negative"), SignCertificate)
    assert isinstance(certify_poly_sign(p, "(0,inf)", "negative"), Refutation)


def test_nonnegative_allows_even_touch_points():
    p = P(0, 0, 1) * P(1, -2, 1)  # x^2 (x-1)^2
    assert isinstance(certify_poly_sign(p, "R", "nonnegative"), SignCertificate)
    assert isinstance(certify_poly_sign(p, "R", "positive"), Refutation)


def radical_value(a, b, x):
    """a(x) + b(x) * sqrt(x^2 + 4) in floating point."""
    x = float(x)
    return float(a(x)) + float(b(x)) * math.sqrt(x * x + 4.0)


def test_radical_certificates():
    # p1 + q1 > 0 and p2 - q2 < 0 on the whole line
    c = certify_radical_sign(P_POLYS[1], Q_POLYS[1], "R", "positive")
    assert isinstance(c, SignCertificate) and c.rule == "z-substitution"
    assert verify_certificate(c)
    c = certify_radical_sign(P_POLYS[2], -1 * Q_POLYS[2], "R", "negative")
    assert isinstance(c, SignCertificate) and c.rule == "z-substitution"
    assert verify_certificate(c)
    # 0 + 1 * sqrt(x^2+4) > 0 everywhere
    c = certify_radical_sign(IntPolynomial(()), P(1), "R", "positive")
    assert isinstance(c, SignCertificate) and verify_certificate(c)
    with pytest.raises(ValueError):
        certify_radical_sign(P(1), IntPolynomial(()), "R", "positive")
    # z in (0,1) u (1,inf) is not one half-line in w
    with pytest.raises(ValueError):
        certify_radical_sign(P(1), P(1), "R\\{0}", "positive")


def test_radical_half_line_certificates():
    # p0 +- q0 on the half-lines of C7, each one Sturm certificate in w
    for b, domain in ((Q_POLYS[0], "(0,inf)"), (-1 * Q_POLYS[0], "(-inf,0)")):
        c = certify_radical_sign(P_POLYS[0], b, domain, "positive")
        assert isinstance(c, SignCertificate) and c.rule == "z-substitution"
        (sub,) = c.sub_certificates
        assert sub.domain == "(0,inf)" and sub.rule == "sturm"
        assert verify_certificate(c)
        assert radical_value(P_POLYS[0], b, c.sample_point) > 0


def test_true_radical_inequality_with_sign_mixed_parts_certifies():
    # flipping q0's lowest coefficient keeps p0 + q0 > 0 on x > 0 (minimum
    # about 102), although q0 then changes sign there
    q = list(Q_POLYS[0].coeffs)
    low = next(i for i, c in enumerate(q) if c)
    q[low] = -q[low]
    flipped = IntPolynomial.from_coeffs(q)
    c = certify_radical_sign(P_POLYS[0], flipped, "(0,inf)", "positive")
    assert isinstance(c, SignCertificate) and verify_certificate(c)
    grid = [k / 100 for k in range(1, 1001)]
    assert min(radical_value(P_POLYS[0], flipped, x) for x in grid) > 100


def test_negated_radical_part_is_refuted_with_x_witness():
    # p0 - q0 > 0 fails on x > 0: the witness is an x-interval in the domain
    b = -1 * Q_POLYS[0]
    r = certify_radical_sign(P_POLYS[0], b, "(0,inf)", "positive", "neg")
    assert isinstance(r, Refutation)
    assert 0 < r.witness_lo <= r.witness_hi
    mid = (r.witness_lo + r.witness_hi) / 2
    values = [radical_value(P_POLYS[0], b, x) for x in (r.witness_lo, mid, r.witness_hi)]
    assert min(values) < 0


def test_swapped_w_polynomial_fails_verification():
    cert = certify_radical_sign(P_POLYS[0], Q_POLYS[0], "(0,inf)", "positive")
    (sub,) = cert.sub_certificates
    # a valid Sturm certificate, but of a different polynomial in w
    other = certify_poly_sign(A_POSITIVITY, "(0,inf)", "positive")
    assert verify_certificate(other)
    swapped = dataclasses.replace(cert, sub_certificates=(other,))
    assert not verify_certificate(swapped)
    # the same w-polynomial under another x-domain does not verify either
    moved = dataclasses.replace(cert, domain="R")
    assert not verify_certificate(moved)


def test_certificate_json_round_trip(claim_report):
    certs = [c for r in claim_report.results for c in r.certificates]
    assert any(c.rule == "z-substitution" for c in certs)
    for cert in certs:
        text = certificate_to_json(cert)
        assert json.loads(text)["format"] == 2
        again = certificate_from_json(text)
        assert again == cert
        assert verify_certificate(again)
    data = json.loads(certificate_to_json(certs[0]))
    for bad in (1, None):
        data["format"] = bad
        with pytest.raises(ValueError):
            certificate_from_json(json.dumps(data))


def test_tampered_certificate_fails_verification():
    cert = certify_poly_sign(A_POSITIVITY, "R", "positive", "demo")
    tampered = SignCertificate(
        claim_id=cert.claim_id,
        asserted_sign="negative",
        domain=cert.domain,
        polynomial=cert.polynomial,
        radical_part=None,
        rule="sturm",
        root_count=cert.root_count,
        bound=cert.bound,
        sample_point=cert.sample_point,
        sample_sign=cert.sample_sign,
        variation_counts=cert.variation_counts,
        chain=cert.chain,
    )
    assert not verify_certificate(tampered)
    # a domain the certifier does not issue is never accepted
    cert = certify_poly_sign(P(0, 1), "(-inf,0)", "negative")
    assert verify_certificate(cert)
    assert not verify_certificate(dataclasses.replace(cert, domain="R\\{0}"))


_TAMPERED = {  # one field of C1's certificate (4 variations at -B and +B) or C7/pos's
    "sample sign": ("C1", lambda c: {"sample_sign": -c.sample_sign}),
    "asserted sign": ("C1", lambda c: {"asserted_sign": "negative"}),
    "root count": ("C1", lambda c: {"root_count": 1}),
    "bound below Cauchy": ("C1", lambda c: {"bound": cauchy_bound(c.chain[0]) - 1}),
    "variation count": ("C1", lambda c: {"variation_counts": (("-B", 5), ("+B", 4))}),
    "no radical part": ("C7/pos", lambda c: {"radical_part": None}),
    "two sub-certificates": ("C7/pos", lambda c: {"sub_certificates": c.sub_certificates * 2}),
    "unknown rule": ("C1", lambda c: {"rule": "newton"}),
}


@pytest.mark.parametrize("claim, change", list(_TAMPERED.values()), ids=list(_TAMPERED))
def test_each_tampered_field_fails_verification(claim_report, claim, change):
    (cert,) = next(r for r in claim_report.results if r.claim_id == claim).certificates
    assert verify_certificate(cert)
    assert not verify_certificate(dataclasses.replace(cert, **change(cert)))


@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=7),
    st.lists(st.integers(-30, 30), min_size=1, max_size=7),
    st.integers(-1000, 1000),
)
def test_polynomial_kernel_soundness(a, b, x0):
    p, q = P(*a), P(*b)
    assert (p + q)(x0) == p(x0) + q(x0)
    assert (p * q)(x0) == p(x0) * q(x0)


@given(
    st.lists(st.integers(-30, 30), max_size=9),
    st.integers(0, 4),
    st.fractions(min_value=-8, max_value=8, max_denominator=9).filter(bool),
)
def test_in_z_is_z_power_times_p_at_z_minus_inverse(a, extra, z):
    p = P(*a)
    d = max(p.degree, 0) + extra
    assert _in_z(p, d)(z) == z ** d * p(z - 1 / z)


def test_known_claim_values():
    eq1 = BETA2_ODD * BETA2_ODD - RADICAL_SQ * BETA2_EVEN * BETA2_EVEN
    assert eq1(0) == -10816
    lhs = P_POLYS[4] * P_POLYS[4] - RADICAL_SQ * Q_POLYS[4] * Q_POLYS[4]
    assert lhs(1) == 11584
    rhs = 4 * (P(1, 0, 1) ** 2) * C4_COFACTOR
    assert lhs == rhs


def test_beta2_norm_ties_back_to_growth_polynomials():
    # x*F8*F7 + F7^2 - F8^2 == -(growth positivity polynomial), exactly, with
    # F8 = phi(L(8,6), ix) and F7 = i phi(L(7,6), ix) as real polynomials
    def at_ix(n):  # phi(L(n,6), ix) / i**n; c_j is 0 unless n - j is even
        phi = charpoly(make_lollipop(n, 6))
        return P(*(c * (-1) ** ((n - j) // 2) for j, c in enumerate(phi.coeffs)))

    f8, f7 = at_ix(8), at_ix(7)
    assert f8 == P(4, 0, 16, 0, 19, 0, 8, 0, 1) and f7 == P(0, 7, 0, 13, 0, 7, 0, 1)
    x = P(0, 1)
    assert x * f8 * f7 + f7 * f7 - f8 * f8 == -1 * A_POSITIVITY


def test_claim_suite_all_certified(claim_report):
    assert all(r.ok for r in claim_report.results)
    by_id = {r.claim_id: r for r in claim_report.results}
    assert list(by_id)[0] == "C1" and "C8" in by_id
    assert by_id["C2"].root_counts == (("R", 0),)


def test_claim_suite_evidence_kinds(claim_report):
    evidence = {r.claim_id: r.evidence for r in claim_report.results}
    assert evidence.pop("C4") == "exact-identity+sturm"
    assert evidence.pop("C8") == "exact-identity"
    assert evidence.pop("C7/pos") == evidence.pop("C7/neg") == "z-substitution"
    assert set(evidence.values()) == {"sturm-certificate"}
    for r in claim_report.results:
        assert len(r.certificates) == (r.claim_id != "C8"), r.claim_id
        assert all(verify_certificate(c) for c in r.certificates)
    assert [r.claim_id for r in claim_report.results] == [
        "C1", "C2", "C3/1", "C3/2", "C3/3", "C4", "C5/quartic", "C5/deg12",
        "C6/quadratic", "C6/deg12", "C7/pos", "C7/neg", "C8",
    ]


def test_a_failed_identity_fails_its_claim_and_keeps_the_certificate(monkeypatch):
    # a wrong fourth pair breaks C4's factorisation, not its cofactor's sign
    q4 = list(Q_POLYS[4].coeffs)
    q4[1] = -q4[1]
    monkeypatch.setitem(Q_POLYS, 4, IntPolynomial.from_coeffs(q4))
    # and a wrong factored form breaks C8
    monkeypatch.setattr(certify, "f5_factored_poly", lambda: -f5_factored_poly())
    by_id = {r.claim_id: r for r in run_claim_suite().results}
    c4, c8 = by_id["C4"], by_id["C8"]
    assert (c4.ok, c4.evidence) == (c8.ok, c8.evidence) == (False, "identity-failed")
    assert c4.detail.startswith("identity False; lhs(1) = ")
    assert c8.detail.endswith(": False")
    (cert,) = c4.certificates
    assert cert.polynomial == C4_COFACTOR and verify_certificate(cert)
    assert c4.root_counts == (("R", 0),) and not c4.refutations
    assert c8.certificates == c8.refutations == ()
    assert all(r.ok for r in by_id.values() if r.claim_id not in ("C4", "C8"))


def test_mutation_is_refuted(monkeypatch):
    # flip one coefficient of the second radical-pair polynomial
    q2 = list(Q_POLYS[2].coeffs)
    q2[0] = -q2[0]
    monkeypatch.setitem(Q_POLYS, 2, IntPolynomial.from_coeffs(q2))
    report = run_claim_suite()
    assert not all(r.ok for r in report.results)
    (bad,) = [r for r in report.results if r.claim_id == "C3/2"]
    assert not bad.ok and bad.refutations


def test_exact_cross_assembly_identity():
    # f(5, x) = z^e N(z) / (z^2+1)^k at x = z - 1/z, and N equals
    # (z^2+1)^k z^-e times the factored form evaluated at z - 1/z
    f5 = assembled_f5_exact()
    factored = f5_factored_poly()
    g = ZTerm.from_x(factored)  # z^-22 * (z^22 * factored(z - 1/z))
    assert g.e == -factored.degree
    for z in (Fraction(1, 3), Fraction(2), Fraction(-5, 7)):
        assert g.p(z) == z ** factored.degree * factored(z - 1 / z)
    assert f5.k == 8 and f5.e <= g.e
    rhs = P(1, 0, 1) ** f5.k * g.p.shift_up(g.e - f5.e)
    assert f5.p == rhs


def test_sturm_count_respects_cauchy_bound():
    p = BETA2_ODD * BETA2_EVEN  # plenty of real roots
    chain = sturm_chain(squarefree_part(p))
    bound = cauchy_bound(p)

    def at_infinity(side):  # variations at -inf (side -1) or +inf (side 1)
        signs = [(1 if f.leading > 0 else -1) * side ** f.degree for f in chain]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    on_reals = at_infinity(-1) - at_infinity(1)
    for scale in (1, 3):
        B = scale * bound
        assert on_reals == variations_at(chain, -B) - variations_at(chain, B)


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=10))
def test_variations_at_infinity_are_those_at_the_bound(cs):
    assume(any(cs))
    core = squarefree_part(P(*cs))
    assume(core.degree > 0)
    chain = sturm_chain(core)
    bound = cauchy_bound(core)
    assert variations_at_infinity(chain) == (
        variations_at(chain, -bound),
        variations_at(chain, bound),
    )


def test_only_the_verifier_evaluates_the_chain_at_the_bound(monkeypatch):
    from ucenergy import certify

    points = []
    evaluate = certify.variations_at
    monkeypatch.setattr(
        certify, "variations_at", lambda chain, pt: points.append(pt) or evaluate(chain, pt)
    )
    cert = certify_poly_sign(A_POSITIVITY, "(0,inf)", "positive")
    assert isinstance(cert, SignCertificate) and cert.chain[0].degree > 0
    assert points == [0]
    points.clear()
    assert verify_certificate(cert)
    assert sorted(points) == [-cert.bound, 0, cert.bound]


@st.composite
def factored(draw):
    """A product of up to three integer factors of degree 1 or 2, each to a
    power 1..4, with a nonzero integer scale."""
    p = P(draw(st.sampled_from([1, -1, 2, -3])))
    for _ in range(draw(st.integers(1, 3))):
        low = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=2))
        lead = draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1]))
        p = p * P(*low, lead) ** draw(st.integers(1, 4))
    return p


def _yun_sign_core(p, strict):
    core = yun_core(p, strict)
    return core, (core,) if core.degree == 0 else sturm_chain(core)


def _certifies_as_the_yun_core_did(p, domain, sign):
    strict = certify._strict(sign)
    assert certify._sign_core(p, strict) == _yun_sign_core(p, strict)
    outcome = certify_poly_sign(p, domain, sign, "h")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "_sign_core", _yun_sign_core)
        assert outcome == certify_poly_sign(p, domain, sign, "h")


@given(factored(), st.sampled_from(DOMAINS), st.sampled_from(SIGNS))
def test_the_level_walk_certifies_as_the_yun_core_did(p, domain, sign):
    _certifies_as_the_yun_core_did(p, domain, sign)


@given(factored())
def test_squarefree_decomposition_reads_yun_off_the_walk(p):
    factors = squarefree_decomposition(p)
    assert factors == yun_decomposition(p)
    product = P(1)
    for factor, mult in factors:
        product = product * factor**mult
    assert p * product.leading == product * p.leading


@pytest.mark.parametrize(
    "p",
    [
        P(-1, 1) ** 2 * P(-2, 1),  # strict: the square-free part
        P(-1, 1) ** 4 * P(3, 0, 1) ** 2,  # weak: no odd part, the core is 1
        P(1, 2) ** 3 * P(-5, 0, 1) ** 2 * P(-1, 1),  # weak: multiplicities 3 and 1
    ],
)
def test_weak_and_strict_cores_of_repeated_factors(p):
    for domain in DOMAINS:
        for sign in SIGNS:
            _certifies_as_the_yun_core_did(p, domain, sign)


def test_the_claim_suite_runs_no_yun(monkeypatch):
    def forbidden(*args):
        raise AssertionError("squarefree_decomposition called")

    monkeypatch.setattr(polynomials, "squarefree_decomposition", forbidden)
    monkeypatch.setattr(certify, "squarefree_decomposition", forbidden, raising=False)
    report = run_claim_suite()
    assert report.results and all(r.ok for r in report.results)


@pytest.mark.parametrize("text", ["[]", "5", "null", '"x"'])
def test_a_json_document_that_is_no_object_is_rejected(text):
    with pytest.raises(ValueError):
        certificate_from_json(text)


def test_the_json_keys_are_the_fields_in_declaration_order(claim_report):
    names = [f.name for f in dataclasses.fields(SignCertificate)]
    certs = [c for r in claim_report.results for c in r.certificates]
    subs = [s for c in certs if c.claim_id.startswith("C7") for s in c.sub_certificates]
    assert len(subs) == 2
    for cert in certs + subs:
        data = json.loads(certificate_to_json(cert))
        assert list(data) == ["format", *names]
        for sub in data["sub_certificates"]:
            assert list(sub) == names
    # a decoder for a field that does not exist would go unnoticed
    assert set(certify._DECODE) <= set(names)


def _chains_built(monkeypatch):
    """The degrees of the Sturm chains built while the spy is installed."""
    degrees = []

    def spy(f):
        degrees.append(f.degree)
        return sturm_chain(f)

    for module in (polynomials, certify, roots):
        monkeypatch.setattr(module, "sturm_chain", spy)
    return degrees


def test_a_weak_core_walks_the_first_level_once(monkeypatch):
    from ucenergy.charpoly import charpoly
    from ucenergy.graphs import make_cycle

    p = charpoly(make_cycle(60))
    chains = _chains_built(monkeypatch)
    core, chain = certify._sign_core(p, False)
    assert len(chains) == 3 and chain == sturm_chain(core)
    # a refutation isolates its witness on the core's chain it holds
    chains.clear()
    assert isinstance(certify_poly_sign(p, "R", "nonnegative"), Refutation)
    assert len(chains) == 3


def test_a_refutation_builds_no_second_chain(monkeypatch):
    chains = _chains_built(monkeypatch)
    r = certify_poly_sign(P(-2, 0, 1), "(0,inf)", "positive")
    assert isinstance(r, Refutation) and r.witness_lo < 2 ** 0.5 < r.witness_hi
    assert chains == [2]


@pytest.mark.parametrize(
    "certify_sign",
    [
        lambda: certify_poly_sign(P(-1, 2 ** 300), "(0,inf)", "negative"),
        lambda: certify_radical_sign(
            P(-(2 ** 301), 2 ** 300), P(0, 1), "(0,inf)", "positive"
        ),
    ],
    ids=["polynomial", "radical"],
)
def test_a_witness_near_zero_lies_inside_the_domain(certify_sign):
    # a root within 2**-300 of 0: the witness is refined past 0 at once
    r = certify_sign()
    assert isinstance(r, Refutation)
    assert 0 < r.witness_lo <= r.witness_hi


def test_a_strict_core_below_a_repeated_factor_builds_two_chains(monkeypatch):
    chains = _chains_built(monkeypatch)
    assert isinstance(certify_poly_sign(A_POSITIVITY, "R", "positive"), SignCertificate)
    assert len(chains) == 2


@pytest.mark.parametrize(
    "domain, roots_at, sample",
    [
        ("R", [0, 1, -1, 2, -2, 3, -3], 4),
        ("(0,inf)", [1, 2, Fraction(1, 2), 3, Fraction(1, 3)], 4),
        ("(-inf,0)", [-1, -2, Fraction(-1, 2), -3, Fraction(-1, 3)], -4),
    ],
)
def test_the_sample_passes_the_roots_and_stays_in_the_domain(domain, roots_at, sample):
    # a square vanishing at every first sample point of the domain
    p = P(1)
    for r in map(Fraction, roots_at):
        p = p * P(-r.numerator, r.denominator) ** 2
    cert = certify_poly_sign(p, domain, "nonnegative")
    assert isinstance(cert, SignCertificate) and cert.sample_point == sample
    assert verify_certificate(cert)
