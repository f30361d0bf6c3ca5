"""Machine-checkable global-sign certificates for polynomial inequalities.

A certificate for "p keeps sign S on domain D" consists of an exact Sturm
root count over D, which must be zero, together with one exactly evaluated
sample sign.  The roots counted are those of a core taken from
``polynomials.multiplicity_levels``: the square-free part of p for a strict
sign, and the product of its odd-multiplicity factors for a weak sign,
which tolerates the touch points of even multiplicity.  A square-free p
needs one pseudo-remainder sequence in all, its first level's Sturm chain.

Expressions a(x) + b(x) * sqrt(x**2 + 4) become plain polynomials under the
substitution x = z - 1/z.  It maps z in (0, inf) increasingly onto the real
line, with sqrt(x**2 + 4) = z + 1/z and the closed-form roots z1 = z,
z2 = -1/z, so that

    P(z) = z**d * (a + b * (z + 1/z)),    d = max(deg a, deg b + 1),

is an integer polynomial with the sign of the expression.  Each x-domain is
then mapped onto w in (0, inf), where one Sturm certificate of a polynomial
in w decides the sign exactly:

    x-domain    z            polynomial in w
    R           w            P(w)
    (0,inf)     1 + w        P(1 + w)
    (-inf,0)    1 / (1 + w)  (1 + w)**deg P * P(1 / (1 + w))

``w_polynomial`` applies the same map to any polynomial in z, so the sign of
any quantity written in z can be certified on each x-domain.

The comparison algebra itself lives here in z as well: a ``ZTerm`` is
z**e * p(z) / (z**2 + 1)**k, and ``lollipop_terms(t)`` assembles the
closed-form coefficients a1, a2, b11..b22, alpha, beta and gamma of the
L(n,6) versus L(n,t) comparison, for any odd t, exactly.
``check_modulus_forms(n)`` builds the closed forms of the squared moduli
from these terms and proves them identities in z against the exact
characteristic polynomials (the ``closed-form-check`` command).

``run_claim_suite`` certifies the inequality backbone of the lollipop
comparison: positivity of the growth coefficients, the degree-18 inequality
behind the beta/gamma signs, the three radical-pair inequalities driving the
d-coefficient signs, the exact factorisation identity of the fourth pair,
positivity of the factored-bound cofactors for t in {3, 5}, the tail
positivity used in the even-order subcases, and an exact cross-check that
the assembled comparison bound f(5, x) equals its factored polynomial form,
as an identity of integer polynomials in z.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .charpoly import charpoly
from .closedforms import (
    F5_DEG12,
    F5_QUARTIC,
    F7,
    F8,
    P_POLYS,
    Q_POLYS,
    T3_DEG12,
    T3_QUADRATIC,
)
from .coulson import modulus_sq_at_ix
from .graphs import make_lollipop
from .polynomials import (
    ONE,
    X,
    IntPolynomial,
    cauchy_bound,
    multiplicity_levels,
    poly_div_exact,
    reverse,
    sturm_chain,
    variations_at,
)
from .roots import _isolate_squarefree, refine_enclosure

DOMAINS = ("R", "(0,inf)", "(-inf,0)")
SIGNS = ("positive", "negative", "nonnegative", "nonpositive")

# sqrt(x**2 + 4) squared; t**2 + 1 (t = x or z); 1 + w.
RADICAL_SQ = IntPolynomial((4, 0, 1))
_SQ_PLUS_1 = IntPolynomial((1, 0, 1))
_ONE_PLUS_W = IntPolynomial((1, 1))

# Version of the certificate JSON; certificate_from_json accepts no other.
CERT_FORMAT = 2


@dataclass(frozen=True)
class SignCertificate:
    """Evidence that polynomial + radical_part * sqrt(x**2+4) keeps a sign.

    For ``rule == "sturm"`` the evidence is a root count of the core (module
    docstring) on the domain plus one exact sample sign; the stored chain
    supports re-verification by evaluation (the chain's remainder structure
    itself is trusted, everything else is re-checked).  For ``rule == "z-substitution"``
    the evidence is one Sturm sub-certificate of the polynomial in w (module
    docstring), and the sample point is the image of its sample in x.
    """

    claim_id: str
    asserted_sign: str
    domain: str
    polynomial: IntPolynomial
    radical_part: Optional[IntPolynomial]
    rule: str
    root_count: int
    bound: Fraction
    sample_point: Fraction
    sample_sign: int
    variation_counts: tuple[tuple[str, int], ...]
    chain: tuple[IntPolynomial, ...]
    sub_certificates: tuple["SignCertificate", ...] = ()


@dataclass(frozen=True)
class Refutation:
    """A witness against the asserted sign: an interval with a sign defect."""

    claim_id: str
    asserted_sign: str
    domain: str
    polynomial: IntPolynomial
    witness_lo: Fraction
    witness_hi: Fraction
    reason: str


def _strict(sign: str) -> bool:
    return sign in ("positive", "negative")


def _sign_target(sign: str) -> int:
    return 1 if sign in ("positive", "nonnegative") else -1


def _sample_candidates(domain: str):
    if domain == "R":
        base = [0, 1, -1, 2, -2, 3, -3]
    elif domain == "(0,inf)":
        base = [1, 2, Fraction(1, 2), 3, Fraction(1, 3)]
    else:
        base = [-1, -2, Fraction(-1, 2), -3, Fraction(-1, 3)]
    k = 4
    yield from (Fraction(c) for c in base)
    while True:
        yield Fraction(-k if domain == "(-inf,0)" else k)
        k += 1


def _in_domain(point: Fraction, domain: str) -> bool:
    if domain == "R":
        return True
    if domain == "(0,inf)":
        return point > 0
    return point < 0


def _variations_at_infinity(chain) -> tuple[int, int]:
    """Sign variations of a Sturm chain at -inf and +inf, read off each
    member's leading coefficient and degree.

    For the chain of a square-free core whose roots all lie in (-B, B),
    Sturm's theorem on (-inf, -B] and (B, inf) makes these V(-B) and V(+B).
    """
    signs_hi = [1 if f.leading > 0 else -1 for f in chain]
    signs_lo = [s if f.degree % 2 == 0 else -s for s, f in zip(signs_hi, chain)]
    return tuple(
        sum(a != b for a, b in zip(signs, signs[1:])) for signs in (signs_lo, signs_hi)
    )


def _domain_count(sf: IntPolynomial, chain, domain: str, v_lo: int, v_hi: int):
    """Distinct roots of the square-free polynomial sf inside the domain,
    given the chain's sign variations v_lo at -B and v_hi at +B."""
    labels = [("-B", v_lo), ("+B", v_hi)]
    if domain == "R":
        return v_lo - v_hi, labels
    v0 = variations_at(chain, Fraction(0))
    labels.append(("0", v0))
    if domain == "(0,inf)":
        return v0 - v_hi, labels
    at_zero = 1 if sf.sign_at(0) == 0 else 0
    return v_lo - v0 - at_zero, labels


def _witness_interval(core: IntPolynomial, domain: str) -> tuple[Fraction, Fraction]:
    """An enclosure of some root of ``core`` lying inside the domain."""
    for enc in _isolate_squarefree(core):
        cand = enc
        for _ in range(256):
            if _in_domain(cand.lo, domain) and _in_domain(cand.hi, domain):
                return cand.lo, cand.hi
            cand = refine_enclosure(core, cand, cand.width / 2)
            if cand.lo == cand.hi:
                if _in_domain(cand.lo, domain):
                    return cand.lo, cand.hi
                break
    raise AssertionError("no witness found although the count was positive")


def _sign_core(
    p: IntPolynomial, strict: bool
) -> tuple[IntPolynomial, tuple[IntPolynomial, ...]]:
    """(core, its Sturm chain): the polynomial whose roots a sign certificate
    counts, primitive with a positive leading coefficient.

    A strict sign counts every distinct root of p, so the core is the
    square-free part s_1 of p's first multiplicity level.  A weak sign
    tolerates touch points of even multiplicity, so the core is the product
    of the odd-multiplicity parts s_i / s_(i+1), i odd (the
    ``polynomials`` module docstring).  A square-free p is its own core, and
    its first level's chain is the core's chain.  A constant core is 1, with
    the chain (1,).
    """
    levels = multiplicity_levels(p)
    first = next(levels, None)
    if first is None:
        return ONE, (ONE,)
    chain, s = first
    if chain[-1].degree == 0:
        return s, chain
    core = s
    if not strict:
        parts = [s] + [s_i for _, s_i in levels] + [ONE]
        core = ONE
        for i in range(0, len(parts) - 1, 2):
            core = core * poly_div_exact(parts[i], parts[i + 1])
    if core.leading < 0:
        core = -core
    return core, (core,) if core.degree == 0 else sturm_chain(core)


def certify_poly_sign(
    p: IntPolynomial, domain: str, asserted_sign: str, claim_id: str = ""
) -> SignCertificate | Refutation:
    """Certify (or refute) that p keeps ``asserted_sign`` on ``domain``."""
    if domain not in DOMAINS:
        raise ValueError("unknown domain %r" % domain)
    if asserted_sign not in SIGNS:
        raise ValueError("unknown sign %r" % asserted_sign)
    if p.is_zero:
        raise ValueError("zero polynomial has no sign certificate")

    core, chain = _sign_core(p, _strict(asserted_sign))
    if core.degree > 0:
        bound = cauchy_bound(core)
        v_lo, v_hi = _variations_at_infinity(chain)
        count, labels = _domain_count(core, chain, domain, v_lo, v_hi)
    else:
        bound = Fraction(1)
        count, labels = 0, (("-B", 0), ("+B", 0))

    sample = next(
        pt for pt in _sample_candidates(domain) if p.sign_at(pt) != 0
    )
    sample_sign = p.sign_at(sample)

    ok = count == 0 and sample_sign == _sign_target(asserted_sign)
    if ok:
        return SignCertificate(
            claim_id=claim_id,
            asserted_sign=asserted_sign,
            domain=domain,
            polynomial=p,
            radical_part=None,
            rule="sturm",
            root_count=count,
            bound=bound,
            sample_point=sample,
            sample_sign=sample_sign,
            variation_counts=tuple(labels),
            chain=chain,
        )
    if count > 0:
        lo, hi = _witness_interval(core, domain)
        reason = "sign-changing root inside the domain"
    else:
        lo = hi = sample
        reason = "sample sign %d contradicts %s" % (sample_sign, asserted_sign)
    return Refutation(claim_id, asserted_sign, domain, p, lo, hi, reason)


def _in_z(p: IntPolynomial, d: int) -> IntPolynomial:
    """z**d * p(z - 1/z) as a polynomial in z; needs d >= deg p.

    Horner's rule in z**2 - 1: Q_j = c_j z**(d-j) + (z**2 - 1) Q_(j+1) from
    j = deg p down to the result Q_0, multiplying by z**2 - 1 as a shift by
    two places minus the coefficients.
    """
    q: list[int] = []
    for j in range(p.degree, -1, -1):
        nxt = [0, 0] + q
        for i, c in enumerate(q):
            nxt[i] -= c
        nxt += [0] * (d - j + 1 - len(nxt))
        nxt[d - j] += p.coeffs[j]
        q = nxt
    return IntPolynomial.from_coeffs(q)


def _shift_one(p: IntPolynomial) -> IntPolynomial:
    """p(1 + w), by Horner's rule."""
    out = IntPolynomial(())
    for c in reversed(p.coeffs):
        out = out * _ONE_PLUS_W + IntPolynomial.constant(c)
    return out


# z as a function of w for each x-domain a radical certificate accepts
_Z_OF_W = {
    "R": lambda w: w,
    "(0,inf)": lambda w: 1 + w,
    "(-inf,0)": lambda w: 1 / (1 + w),
}


def _x_of_w(w: Fraction, domain: str) -> Fraction:
    z = _Z_OF_W[domain](w)
    return z - 1 / z


def w_polynomial(p: IntPolynomial, domain: str) -> IntPolynomial:
    """The polynomial in w whose sign on (0,inf) is that of p(z) on the
    x-domain, x = z - 1/z (the table in the module docstring)."""
    if domain == "R":
        return p
    if domain == "(0,inf)":
        return _shift_one(p)
    return _shift_one(reverse(p, p.degree))


def _radical_in_w(a: IntPolynomial, b: IntPolynomial, domain: str) -> IntPolynomial:
    """The polynomial in w whose sign on (0,inf) is that of a + b*sqrt(x**2+4)
    on the x-domain."""
    d = max(a.degree, b.degree + 1)
    return w_polynomial(_in_z(a, d) + _in_z(b, d - 1) * _SQ_PLUS_1, domain)


def certify_radical_sign(
    a: IntPolynomial,
    b: IntPolynomial,
    domain: str,
    asserted_sign: str,
    claim_id: str = "",
) -> SignCertificate | Refutation:
    """Certify (or refute) the sign of a(x) + b(x) * sqrt(x**2 + 4) on a domain.

    The substitution x = z - 1/z followed by the map of the domain onto
    w in (0, inf) turns the expression into one polynomial in w with the same
    sign (table in the module docstring).  Its Sturm certificate on (0,inf)
    decides the claim exactly, for every sign; a refutation carries the
    witness mapped back to x.  The domain is R, (0,inf) or (-inf,0).
    """
    if b.is_zero:
        raise ValueError("radical part must be nonzero; use certify_poly_sign")
    if domain not in _Z_OF_W:
        raise ValueError(
            "radical certificates need domain R, (0,inf) or (-inf,0), got %r" % domain
        )
    sub = certify_poly_sign(
        _radical_in_w(a, b, domain), "(0,inf)", asserted_sign, claim_id + "/w"
    )
    if isinstance(sub, Refutation):
        lo, hi = sorted(_x_of_w(w, domain) for w in (sub.witness_lo, sub.witness_hi))
        return Refutation(claim_id, asserted_sign, domain, a, lo, hi, sub.reason)
    return SignCertificate(
        claim_id=claim_id,
        asserted_sign=asserted_sign,
        domain=domain,
        polynomial=a,
        radical_part=b,
        rule="z-substitution",
        root_count=sub.root_count,
        bound=sub.bound,
        sample_point=_x_of_w(sub.sample_point, domain),
        sample_sign=sub.sample_sign,
        variation_counts=(),
        chain=(),
        sub_certificates=(sub,),
    )


# ---------------------------------------------------------------------------
# Certificate re-verification and serialisation.
# ---------------------------------------------------------------------------


def verify_certificate(cert: SignCertificate) -> bool:
    """Re-derive the verdict from the stored evidence.

    Chains are only evaluated (variation counts, sample signs, bound versus
    the Cauchy bound); they are not rebuilt.
    """
    if cert.rule == "sturm":
        p = cert.polynomial
        if p.sign_at(cert.sample_point) != cert.sample_sign:
            return False
        if cert.sample_sign != _sign_target(cert.asserted_sign):
            return False
        if cert.domain not in DOMAINS or not _in_domain(cert.sample_point, cert.domain):
            return False
        if cert.root_count != 0:
            return False
        core = cert.chain[0] if cert.chain else IntPolynomial((1,))
        if core.degree > 0:
            if cert.bound < cauchy_bound(core):
                return False
            # evaluated at -B and +B, not read off the leading terms as issued
            v_lo = variations_at(cert.chain, -cert.bound)
            v_hi = variations_at(cert.chain, cert.bound)
            count, labels = _domain_count(core, cert.chain, cert.domain, v_lo, v_hi)
            if count != cert.root_count or dict(labels) != dict(cert.variation_counts):
                return False
        return True
    if cert.rule == "z-substitution":
        if (
            cert.radical_part is None
            or cert.domain not in _Z_OF_W
            or len(cert.sub_certificates) != 1
        ):
            return False
        (sub,) = cert.sub_certificates
        # the polynomial in w is recomputed, never taken from the certificate
        return (
            sub.rule == "sturm"
            and sub.domain == "(0,inf)"
            and sub.asserted_sign == cert.asserted_sign
            and sub.polynomial
            == _radical_in_w(cert.polynomial, cert.radical_part, cert.domain)
            and sub.root_count == cert.root_count
            and sub.sample_sign == cert.sample_sign
            and _x_of_w(sub.sample_point, cert.domain) == cert.sample_point
            and verify_certificate(sub)
        )
    return False


def certificate_to_json(cert: SignCertificate) -> str:
    return json.dumps({"format": CERT_FORMAT, **_cert_dict(cert)}, indent=2)


def _cert_dict(cert: SignCertificate) -> dict:
    return {
        "claim_id": cert.claim_id,
        "asserted_sign": cert.asserted_sign,
        "domain": cert.domain,
        "polynomial": cert.polynomial.to_decimal_strings(),
        "radical_part": (
            cert.radical_part.to_decimal_strings() if cert.radical_part else None
        ),
        "rule": cert.rule,
        "root_count": cert.root_count,
        "bound": str(cert.bound),
        "sample_point": str(cert.sample_point),
        "sample_sign": cert.sample_sign,
        "variation_counts": list(list(item) for item in cert.variation_counts),
        "chain": [c.to_decimal_strings() for c in cert.chain],
        "sub_certificates": [_cert_dict(c) for c in cert.sub_certificates],
    }


def certificate_from_json(text: str) -> SignCertificate:
    data = json.loads(text)
    if data.get("format") != CERT_FORMAT:
        raise ValueError(
            "certificate format %r, expected %d" % (data.get("format"), CERT_FORMAT)
        )
    return _cert_from_dict(data)


def _cert_from_dict(data: dict) -> SignCertificate:
    return SignCertificate(
        claim_id=data["claim_id"],
        asserted_sign=data["asserted_sign"],
        domain=data["domain"],
        polynomial=IntPolynomial.from_decimal_strings(data["polynomial"]),
        radical_part=(
            IntPolynomial.from_decimal_strings(data["radical_part"])
            if data["radical_part"]
            else None
        ),
        rule=data["rule"],
        root_count=data["root_count"],
        bound=Fraction(data["bound"]),
        sample_point=Fraction(data["sample_point"]),
        sample_sign=data["sample_sign"],
        variation_counts=tuple(
            (label, count) for label, count in data["variation_counts"]
        ),
        chain=tuple(
            IntPolynomial.from_decimal_strings(c) for c in data["chain"]
        ),
        sub_certificates=tuple(
            _cert_from_dict(c) for c in data["sub_certificates"]
        ),
    )


# ---------------------------------------------------------------------------
# The comparison algebra in z.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZTerm:
    """z**e * p(z) / (z**2 + 1)**k, the shape of every comparison quantity in z.

    On z > 0 (all real x) it has the sign of p(z).
    """

    p: IntPolynomial
    e: int = 0
    k: int = 0

    @classmethod
    def from_x(cls, p: IntPolynomial) -> "ZTerm":
        """p(x) at x = z - 1/z."""
        return cls(_in_z(p, p.degree), -p.degree)

    def over(self, e: int, k: int) -> IntPolynomial:
        """Numerator of self over z**e / (z**2 + 1)**k; e <= self.e, k >= self.k."""
        p = self.p.shift_up(self.e - e)
        return p if k == self.k else p * _SQ_PLUS_1 ** (k - self.k)

    def __add__(self, other: "ZTerm") -> "ZTerm":
        e, k = min(self.e, other.e), max(self.k, other.k)
        return ZTerm(self.over(e, k) + other.over(e, k), e, k)

    def __neg__(self) -> "ZTerm":
        return ZTerm(-self.p, self.e, self.k)

    def __sub__(self, other: "ZTerm") -> "ZTerm":
        return self + (-other)

    def __mul__(self, other: "ZTerm") -> "ZTerm":
        return ZTerm(self.p * other.p, self.e + other.e, self.k + other.k)

    def __pow__(self, n: int) -> "ZTerm":
        return ZTerm(self.p ** n, self.e * n, self.k * n)


# z1 = z, z2 = -1/z, 1/(z1**2 + 1) = 1/(z**2 + 1), 1/(z2**2 + 1) =
# z**2/(z**2 + 1) and 1/(x**2 + 4) = z**2/(z**2 + 1)**2
Z1, Z2 = ZTerm(X), ZTerm(-ONE, -1)
INV1, INV2 = ZTerm(ONE, 0, 1), ZTerm(ONE, 2, 1)
H = ZTerm(ONE, 2, 2)


def _const(c: int) -> ZTerm:
    return ZTerm(IntPolynomial.constant(c))


_ONE, _TWO = _const(1), _const(2)
# the t-free parts of b11, b21 and b12, b22
G1 = Z1 * Z1 * (Z1 * Z1 + _TWO) * INV1 ** 2
G2 = Z2 * Z2 * (Z2 * Z2 + _TWO) * INV2 ** 2
M1, M2 = -(_TWO * INV1), -(_TWO * INV2)


class LollipopTerms(NamedTuple):
    """The closed-form coefficients of the L(n,6) versus L(n,t) comparison.

    |phi(L(n,6), ix)|**2 = a1**2 z1**2n + a2**2 z2**2n + (-1)**n 2 a1 a2, and
    |phi(L(n,t), ix)|**2 has b11**2 + b12**2, b21**2 + b22**2 and
    b11 b21 + b12 b22 in the same places; alpha, beta and gamma combine the
    two families in K(n, t, x).
    """

    t: int
    a1: ZTerm
    a2: ZTerm
    b11: ZTerm
    b12: ZTerm
    b21: ZTerm
    b22: ZTerm
    alpha: ZTerm
    beta: ZTerm
    gamma: ZTerm


def _a_terms() -> tuple[ZTerm, ZTerm]:
    """a1 and a2, the coefficients of z1**n and z2**n in phi(L(n,6), ix)."""
    f8, f7 = ZTerm.from_x(F8), ZTerm.from_x(F7)
    a1 = -((Z1 * f8 + f7) * INV1) * Z2 ** 7
    a2 = -((Z2 * f8 + f7) * INV2) * Z1 ** 7
    return a1, a2


def _b_terms(t: int) -> tuple[ZTerm, ZTerm, ZTerm, ZTerm]:
    """b11, b12, b21 and b22 of phi(L(n,t), ix) for odd t >= 3."""
    if t < 3 or t % 2 == 0:
        raise ValueError("t must be an odd integer >= 3, got %r" % t)
    b11 = G1 - Z2 ** (2 * t - 2) * H
    b12 = M1 * Z2 ** (t - 2)
    b21 = G2 - Z1 ** (2 * t - 2) * H
    b22 = M2 * Z1 ** (t - 2)
    return b11, b12, b21, b22


def lollipop_terms(t: int) -> LollipopTerms:
    """The comparison coefficients for odd t >= 3, exactly, at x = z - 1/z."""
    b11, b12, b21, b22 = _b_terms(t)
    a1, a2 = _a_terms()
    b1sq = b11 * b11 + b12 * b12
    b2sq = b21 * b21 + b22 * b22
    bcross = b11 * b21 + b12 * b22
    alpha = a2 * a2 * b1sq - a1 * a1 * b2sq
    beta = _TWO * (a1 * a1 * bcross - a1 * a2 * b1sq)
    gamma = _TWO * (a1 * a2 * b2sq - a2 * a2 * bcross)
    return LollipopTerms(t, a1, a2, b11, b12, b21, b22, alpha, beta, gamma)


class ModulusCheck(NamedTuple):
    """One closed form of ``check_modulus_forms``: the family, its cycle
    length (6, or the odd t) and whether it is an identity in z."""

    family: str
    t: int
    ok: bool


def check_modulus_forms(
    n: int, ts: Iterable[int] | None = None
) -> tuple[ModulusCheck, ...]:
    """Check the closed forms of |phi(L(n,6), ix)|**2 and, for every odd
    3 <= t <= n (only those in ``ts`` when it is given), of
    |phi(L(n,t), ix)|**2 against the characteristic polynomials.

    Each check is a zero numerator of the closed form minus the exact squared
    modulus at x = z - 1/z, so an ok row holds for every real x.  Rows come
    in increasing t, and no term of an unrequested t is built.
    """
    if n < 7:
        raise ValueError("need n >= 7, got %d" % n)
    odd = range(3, n + 1, 2)
    if ts is not None:
        wanted = set(ts)
        bad = sorted(wanted.difference(odd))
        if bad:
            raise ValueError("t must be odd with 3 <= t <= n = %d, got %d" % (n, bad[0]))
        odd = [t for t in odd if t in wanted]

    def check(family: str, l: int, c1: ZTerm, c2: ZTerm, cross: ZTerm) -> ModulusCheck:
        # the closed form c1 z1**2n + c2 z2**2n + (-1)**n 2 cross
        closed = c1 * Z1 ** (2 * n) + c2 * Z2 ** (2 * n) + _const(2 * (-1) ** n) * cross
        exact = modulus_sq_at_ix(charpoly(make_lollipop(n, l)))
        return ModulusCheck(family, l, (closed - ZTerm.from_x(exact)).p.is_zero)

    a1, a2 = _a_terms()
    rows = [check("L(n,6)", 6, a1 * a1, a2 * a2, a1 * a2)]
    for t in odd:
        b11, b12, b21, b22 = _b_terms(t)
        b1sq, b2sq = b11 * b11 + b12 * b12, b21 * b21 + b22 * b22
        rows.append(check("L(n,t)", t, b1sq, b2sq, b11 * b21 + b12 * b22))
    return tuple(rows)


def assembled_f5_exact() -> ZTerm:
    """The assembled bound f(5, x) at x = z - 1/z, exactly:
    alpha (z1**4 - z2**4) + beta z1**10 (z1**4 - 1) + gamma z2**10 (1 - z2**4).
    """
    t = 5
    terms = lollipop_terms(t)
    z1_4, z2_4 = Z1 ** 4, Z2 ** 4
    return (
        terms.alpha * (z1_4 - z2_4)
        + terms.beta * Z1 ** (2 * t) * (z1_4 - _ONE)
        + terms.gamma * Z2 ** (2 * t) * (_ONE - z2_4)
    )


def f5_factored_poly() -> IntPolynomial:
    """The factored polynomial form of f(5, x)."""
    return -1 * X * X * _SQ_PLUS_1 * _SQ_PLUS_1 * F5_QUARTIC * F5_DEG12


# ---------------------------------------------------------------------------
# The claim suite.
# ---------------------------------------------------------------------------

# degree-18 inequality deciding the beta_2 / gamma_1 signs
BETA2_ODD = IntPolynomial.from_coeffs([0, 74, 0, 93, 0, 47, 0, 11, 0, 1])
BETA2_EVEN = IntPolynomial.from_coeffs([52, 0, 111, 0, 85, 0, 27, 0, 3])
A_POSITIVITY = IntPolynomial.from_coeffs([16, 0, 51, 0, 62, 0, 36, 0, 10, 0, 1])
C4_COFACTOR = IntPolynomial.from_coeffs([121, 0, 248, 0, 225, 0, 104, 0, 24, 0, 2])


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    description: str
    ok: bool
    evidence: str
    root_counts: tuple[tuple[str, int], ...]
    detail: str = ""
    certificates: tuple[SignCertificate, ...] = ()
    refutations: tuple[Refutation, ...] = ()


@dataclass(frozen=True)
class ClaimSuiteReport:
    results: tuple[ClaimResult, ...]


def _poly_claim(
    claim_id: str,
    description: str,
    p: IntPolynomial,
    domain: str,
    sign: str,
) -> ClaimResult:
    return _claim(claim_id, description, certify_poly_sign(p, domain, sign, claim_id))


def _claim(
    claim_id: str,
    description: str,
    outcome: SignCertificate | Refutation,
) -> ClaimResult:
    if isinstance(outcome, SignCertificate):
        return ClaimResult(
            claim_id,
            description,
            ok=True,
            evidence="sturm-certificate" if outcome.rule == "sturm" else outcome.rule,
            root_counts=((outcome.domain, outcome.root_count),),
            detail="sample p(%s) sign %+d" % (outcome.sample_point, outcome.sample_sign),
            certificates=(outcome,),
        )
    return ClaimResult(
        claim_id,
        description,
        ok=False,
        evidence="refuted",
        root_counts=(),
        detail=outcome.reason,
        refutations=(outcome,),
    )


def run_claim_suite() -> ClaimSuiteReport:
    """Certify every polynomial inequality the comparison argument rests on."""
    results: list[ClaimResult] = []

    results.append(
        _poly_claim(
            "C1",
            "growth coefficients positive: x^10+10x^8+36x^6+62x^4+51x^2+16 > 0",
            A_POSITIVITY,
            "R",
            "positive",
        )
    )

    eq1 = BETA2_ODD * BETA2_ODD - RADICAL_SQ * BETA2_EVEN * BETA2_EVEN
    results.append(
        _poly_claim(
            "C2",
            "degree-18 radical norm negative (beta_2 < 0, gamma_1 > 0)",
            eq1,
            "R",
            "negative",
        )
    )

    for i in (1, 2, 3):
        p, q = P_POLYS[i], Q_POLYS[i]
        results.append(
            _poly_claim(
                "C3/%d" % i,
                "pair %d radical norm negative: p_%d^2 - (x^2+4) q_%d^2 < 0" % (i, i, i),
                p * p - RADICAL_SQ * q * q,
                "R",
                "negative",
            )
        )

    # C4: exact factorisation identity plus positivity of the cofactor.
    p4, q4 = P_POLYS[4], Q_POLYS[4]
    lhs = p4 * p4 - RADICAL_SQ * q4 * q4
    rhs = 4 * (_SQ_PLUS_1 ** 2) * C4_COFACTOR
    identity_ok = lhs == rhs
    cof = _poly_claim(
        "C4",
        "fourth pair factors exactly and stays positive",
        C4_COFACTOR,
        "R",
        "positive",
    )
    results.append(
        ClaimResult(
            "C4",
            cof.description,
            ok=identity_ok and cof.ok,
            evidence="exact-identity+sturm" if identity_ok else "identity-failed",
            root_counts=cof.root_counts,
            detail="identity %s; lhs(1) = %d" % (identity_ok, lhs(1)),
            certificates=cof.certificates,
            refutations=cof.refutations,
        )
    )

    for claim_id, desc, poly in (
        ("C5/quartic", "f(5,x) quartic cofactor positive", F5_QUARTIC),
        ("C5/deg12", "f(5,x) degree-12 cofactor positive", F5_DEG12),
        ("C6/quadratic", "t=3 bound quadratic cofactor positive", T3_QUADRATIC),
        ("C6/deg12", "t=3 bound degree-12 cofactor positive", T3_DEG12),
    ):
        results.append(_poly_claim(claim_id, desc, poly, "R", "positive"))

    # C7: tail positivity for the even-order subcases, in z.
    p0, q0 = P_POLYS[0], Q_POLYS[0]
    for claim_id, desc, b, domain in (
        ("C7/pos", "p_0 + q_0 > 0 on (0,inf)", q0, "(0,inf)"),
        ("C7/neg", "p_0 - q_0 > 0 on (-inf,0)", -q0, "(-inf,0)"),
    ):
        outcome = certify_radical_sign(p0, b, domain, "positive", claim_id)
        results.append(_claim(claim_id, desc, outcome))

    # C8: assembled f(5, x) equals its factored polynomial form, exactly.
    difference = assembled_f5_exact() - ZTerm.from_x(f5_factored_poly())
    exact_ok = difference.p.is_zero
    results.append(
        ClaimResult(
            "C8",
            "assembled f(5,x) identical to the factored polynomial",
            ok=exact_ok,
            evidence="exact-identity" if exact_ok else "identity-failed",
            root_counts=(),
            detail="identity in z over (z^2+1)^%d: %s" % (difference.k, exact_ok),
        )
    )

    return ClaimSuiteReport(tuple(results))
