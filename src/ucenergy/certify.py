"""Machine-checkable global-sign certificates for polynomial inequalities.

A certificate for "p keeps sign S on domain D" consists of an exact Sturm
root count over D, which must be zero, together with one exactly evaluated
sample sign.  The roots counted are those of a core read off p's first
multiplicity level (``polynomials.multiplicity_levels``): its square-free
part s for a strict sign.  A weak sign tolerates touch points of even
multiplicity, so its core is s over the factors of odd multiplicity in the
level's gcd g = gcd(p, p'), which are p's factors of even multiplicity;
``squarefree_decomposition(g)`` reads them off the levels below the first.
A square-free p needs one pseudo-remainder sequence in all, its first
level's Sturm chain, and a refutation isolates its witness on the core's
chain.  ``_DOMAIN_SIGN`` maps each x-domain to the sign of its points (0
for R); sampling, membership and the maps below read it.

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
any quantity written in z can be certified on each x-domain.  With the
domain's sign e, z is w for e = 0 and (1 + w)**e otherwise.

A certificate's JSON is written by ``_encode``, by field type and in
declaration order, and read back through the ``_DECODE`` table.

The comparison algebra itself lives here in z as well: a ``ZTerm`` is
z**e * p(z) / (z**2 + 1)**k, and every lollipop comes from one closed form.
Deleting the cycle edge of L(n,l) at the vertex where the path hangs leaves
P_n, and deleting both its ends leaves P_(l-2) and P_(n-l), so
phi(L(n,l), iX) / i**n = P - 2 i**(-l) C with P = p_n + p_(l-2) p_(n-l) and
C = p_(n-l), where p_k = (z1**(k+1) - z2**(k+1)) / (z1 - z2) is the
matching polynomial of the path P_k.  For n >= l this is z1**n and z2**n
times coefficients free of n (``_gaussian_terms``), which give
|phi(L(n,l), ix)|**2 = c1 z1**2n + c2 z2**2n + (-1)**n 2 cross
(``_modulus_coeffs``).  ``lollipop_terms(t)`` and ``check_modulus_forms(n)``
read L(n,6) and the odd L(n,t) off it; the latter proves the squared moduli
identities in z against the exact characteristic polynomials (the
``closed-form-check`` command).

``run_claim_suite`` certifies the inequality backbone of the lollipop
comparison: positivity of the growth coefficients, the degree-18 inequality
behind the beta/gamma signs, the three radical-pair inequalities driving the
d-coefficient signs, the exact factorisation identity of the fourth pair,
positivity of the factored-bound cofactors for t in {3, 5}, the tail
positivity used in the even-order subcases, and an exact cross-check that
the assembled comparison bound f(5, x) equals its factored polynomial form,
as an identity of integer polynomials in z.  Every claim is built by
``_claim``, the one constructor of a ``ClaimResult``: from a sign
certificate or its refutation, from the (ok, detail) pair of an exact
identity (C8), or from both (C4).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .charpoly import charpoly
from .closedforms import (
    F5_DEG12,
    F5_QUARTIC,
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
    squarefree_decomposition,
    sturm_chain,
    variations_at,
    variations_at_infinity,
)
from .roots import _isolate_squarefree, refine_enclosure

# each x-domain and the sign of its points, 0 where they take any sign
_DOMAIN_SIGN = {"R": 0, "(0,inf)": 1, "(-inf,0)": -1}
DOMAINS = tuple(_DOMAIN_SIGN)
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
    side = _DOMAIN_SIGN[domain]
    if side == 0:
        base = (0, 1, -1, 2, -2, 3, -3)
    else:
        base = (side * c for c in (1, 2, Fraction(1, 2), 3, Fraction(1, 3)))
    yield from (Fraction(c) for c in base)
    yield from (Fraction((side or 1) * k) for k in itertools.count(4))


def _in_domain(point: Fraction, domain: str) -> bool:
    """Whether point lies in the domain; never for an unknown domain."""
    return _DOMAIN_SIGN.get(domain) in (0, (point > 0) - (point < 0))


def _domain_count(sf: IntPolynomial, chain, domain: str, v_lo: int, v_hi: int):
    """Distinct roots of the square-free polynomial sf inside the domain,
    given the chain's sign variations v_lo at -B and v_hi at +B."""
    labels = [("-B", v_lo), ("+B", v_hi)]
    side = _DOMAIN_SIGN[domain]
    if side == 0:
        return v_lo - v_hi, labels
    v0 = variations_at(chain, Fraction(0))
    labels.append(("0", v0))
    if side > 0:
        return v0 - v_hi, labels
    at_zero = 1 if sf.sign_at(0) == 0 else 0
    return v_lo - v0 - at_zero, labels


def _witness_interval(
    core: IntPolynomial, chain: tuple[IntPolynomial, ...], domain: str
) -> tuple[Fraction, Fraction]:
    """An enclosure of some root of ``core``, whose Sturm chain is ``chain``,
    lying inside the domain.  Every nonzero root r has |r| > 1/B, with B the
    Cauchy bound of core's reverse without its zero roots, so one refinement
    to width 1/B moves an enclosure of r onto r's side of 0."""
    nonzero = core.shift_down(core.lowest_power())
    width = 1 / cauchy_bound(reverse(nonzero, nonzero.degree))
    for enc in _isolate_squarefree(core, chain):
        if not (_in_domain(enc.lo, domain) and _in_domain(enc.hi, domain)):
            enc = refine_enclosure(core, enc, width)
        if _in_domain(enc.lo, domain) and _in_domain(enc.hi, domain):
            return enc.lo, enc.hi
    raise AssertionError("no witness found although the count was positive")


def _sign_core(
    p: IntPolynomial, strict: bool
) -> tuple[IntPolynomial, tuple[IntPolynomial, ...]]:
    """(core, its Sturm chain): the polynomial whose roots a sign certificate
    counts, primitive with a positive leading coefficient.

    Both cores come from p's first multiplicity level: its chain, with tail
    g = gcd(p, p'), and its square-free part s.  A strict sign counts every
    distinct root of p, so its core is s.  A weak sign tolerates touch
    points of even multiplicity, so its core is s over the factors of odd
    multiplicity in g, which are p's factors of even multiplicity;
    ``squarefree_decomposition(g)`` reads them off the levels below the
    first, so the first level's chain is built once.  A square-free p is
    its own core, with its first level's chain.  A constant core is 1, with
    the chain (1,).
    """
    first = next(multiplicity_levels(p), None)
    if first is None:
        return ONE, (ONE,)
    chain, core = first
    if chain[-1].degree == 0:
        return core, chain
    if not strict:
        for factor, mult in squarefree_decomposition(chain[-1]):
            if mult % 2:
                core = poly_div_exact(core, factor)
    if core.leading < 0:
        core = -core
    return core, (core,) if core.degree == 0 else sturm_chain(core)


def certify_poly_sign(
    p: IntPolynomial, domain: str, asserted_sign: str, claim_id: str = ""
) -> SignCertificate | Refutation:
    """Certify (or refute) that p keeps ``asserted_sign`` on ``domain``."""
    if domain not in _DOMAIN_SIGN:
        raise ValueError("unknown domain %r" % domain)
    if asserted_sign not in SIGNS:
        raise ValueError("unknown sign %r" % asserted_sign)
    if p.is_zero:
        raise ValueError("zero polynomial has no sign certificate")

    core, chain = _sign_core(p, _strict(asserted_sign))
    if core.degree > 0:
        bound = cauchy_bound(core)
        v_lo, v_hi = variations_at_infinity(chain)
        count, labels = _domain_count(core, chain, domain, v_lo, v_hi)
    else:
        bound = Fraction(1)
        count, labels = 0, (("-B", 0), ("+B", 0))

    sample = next(pt for pt in _sample_candidates(domain) if p.sign_at(pt) != 0)
    sample_sign = p.sign_at(sample)

    ok = count == 0 and sample_sign == _sign_target(asserted_sign)
    if ok:
        return SignCertificate(
            claim_id, asserted_sign, domain, p, None, "sturm", count, bound,
            sample, sample_sign, tuple(labels), chain,
        )
    if count > 0:
        lo, hi = _witness_interval(core, chain, domain)
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


def _x_of_w(w: Fraction, domain: str) -> Fraction:
    side = _DOMAIN_SIGN[domain]
    z = (1 + w) ** side if side else w
    return z - 1 / z


def w_polynomial(p: IntPolynomial, domain: str) -> IntPolynomial:
    """The polynomial in w whose sign on (0,inf) is that of p(z) on the
    x-domain, x = z - 1/z (the table in the module docstring)."""
    side = _DOMAIN_SIGN[domain]
    if side == 0:
        return p
    return _shift_one(p if side > 0 else reverse(p, p.degree))


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
    if domain not in _DOMAIN_SIGN:
        raise ValueError(
            "radical certificates need domain R, (0,inf) or (-inf,0), got %r" % domain
        )
    sub = certify_poly_sign(
        _radical_in_w(a, b, domain), "(0,inf)", asserted_sign, claim_id + "/w"
    )
    if isinstance(sub, Refutation):
        lo, hi = sorted(_x_of_w(w, domain) for w in (sub.witness_lo, sub.witness_hi))
        return Refutation(claim_id, asserted_sign, domain, a, lo, hi, sub.reason)
    # the sign, root count, bound and sample sign are the sub-certificate's
    return replace(
        sub, claim_id=claim_id, domain=domain, polynomial=a, radical_part=b,
        rule="z-substitution", sample_point=_x_of_w(sub.sample_point, domain),
        variation_counts=(), chain=(), sub_certificates=(sub,),
    )


# ---------------------------------------------------------------------------
# Certificate re-verification and serialisation.
# ---------------------------------------------------------------------------


def verify_certificate(cert: SignCertificate) -> bool:
    """Re-derive the verdict from the stored evidence.

    Chains are only evaluated (variation counts, sample signs, bound versus
    the Cauchy bound); they are not rebuilt.
    """
    if not _in_domain(cert.sample_point, cert.domain):
        return False
    if cert.rule == "sturm":
        p = cert.polynomial
        if p.sign_at(cert.sample_point) != cert.sample_sign:
            return False
        if cert.sample_sign != _sign_target(cert.asserted_sign):
            return False
        if cert.root_count != 0:
            return False
        core = cert.chain[0] if cert.chain else ONE
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
        if cert.radical_part is None or len(cert.sub_certificates) != 1:
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


def _encode(value):
    """JSON data of a certificate or a field: fields in declaration order,
    polynomials as decimal strings, fractions as strings, tuples as lists."""
    if isinstance(value, SignCertificate):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, IntPolynomial):
        return value.to_decimal_strings()
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def certificate_to_json(cert: SignCertificate) -> str:
    return json.dumps({"format": CERT_FORMAT, **_encode(cert)}, indent=2)


def certificate_from_json(text: str) -> SignCertificate:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("a JSON %s is no certificate" % type(data).__name__)
    if data.get("format") != CERT_FORMAT:
        raise ValueError(
            "certificate format %r, expected %d" % (data.get("format"), CERT_FORMAT)
        )
    return _cert_from_dict(data)


_from_strings = IntPolynomial.from_decimal_strings
# the fields that are not plain JSON, each with its decoder
_DECODE = {
    "polynomial": _from_strings,
    "radical_part": lambda v: None if v is None else _from_strings(v),
    "bound": Fraction,
    "sample_point": Fraction,
    "variation_counts": lambda v: tuple((label, count) for label, count in v),
    "chain": lambda v: tuple(map(_from_strings, v)),
    "sub_certificates": lambda v: tuple(map(_cert_from_dict, v)),
}


def _cert_from_dict(data: dict) -> SignCertificate:
    return SignCertificate(
        **{
            f.name: _DECODE.get(f.name, lambda v: v)(data[f.name])
            for f in fields(SignCertificate)
        }
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


# z1 = z, z2 = -1/z and 1/(z1 - z2) = z/(z**2 + 1)
Z1, Z2 = ZTerm(ONE, 1), ZTerm(-ONE, -1)
_INV_GAP = ZTerm(ONE, 1, 1)


def _const(c: int) -> ZTerm:
    return ZTerm(IntPolynomial.constant(c))


_ONE, _TWO = _const(1), _const(2)


def _gaussian_terms(l: int) -> tuple[ZTerm, ZTerm, ZTerm, ZTerm]:
    """(re1, im1, re2, im2): the coefficients of z1**n and z2**n in the real
    and imaginary parts of P - 2 i**(-l) C (module docstring), n >= l >= 3.

    -2 i**(-l) is -2, 2i, 2, -2i for l = 0, 1, 2, 3 (mod 4); for odd l the
    imaginary part is taken as +2C, the conjugate's, with the same modulus.
    As z1**(1-l) = (-z2)**(l-1), P + rC is the sum over j of
    +-z_j**n (z_j + (p_(l-2) + r) z_j**(1-l)) / (z1 - z2), + for z1.
    """
    real, imag = _const((-2, 0, 2, 0)[l % 4]), _const(2 * (l % 2))
    p = (Z1 ** (l - 1) - Z2 ** (l - 1)) * _INV_GAP  # p_(l-2)
    low1, low2 = (-Z2) ** (l - 1) * _INV_GAP, (-Z1) ** (l - 1) * _INV_GAP
    return (
        Z1 * _INV_GAP + (p + real) * low1,
        imag * low1,
        -(Z2 * _INV_GAP + (p + real) * low2),
        -(imag * low2),
    )


def _modulus_coeffs(l: int) -> tuple[ZTerm, ZTerm, ZTerm]:
    """(c1, c2, cross): |phi(L(n,l), ix)|**2 = c1 z1**2n + c2 z2**2n +
    (-1)**n 2 cross for every n >= l, as z1 z2 = -1."""
    re1, im1, re2, im2 = _gaussian_terms(l)
    return re1 * re1 + im1 * im1, re2 * re2 + im2 * im2, re1 * re2 + im1 * im2


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


def lollipop_terms(t: int) -> LollipopTerms:
    """The comparison coefficients for odd t >= 3, exactly, at x = z - 1/z.

    a1, a2 and b11..b22 come from the one closed form (``_gaussian_terms``)
    P - 2 i**(-l) C at l = 6 and l = t, with P = p_n + p_(l-2) p_(n-l),
    C = p_(n-l) and p_k = (z1**(k+1) - z2**(k+1)) / (z1 - z2).
    """
    if t < 3 or t % 2 == 0:
        raise ValueError("t must be an odd integer >= 3, got %r" % t)
    b = _gaussian_terms(t)
    a1, _, a2, _ = _gaussian_terms(6)
    b1sq, b2sq, bcross = _modulus_coeffs(t)
    alpha = a2 * a2 * b1sq - a1 * a1 * b2sq
    beta = _TWO * (a1 * a1 * bcross - a1 * a2 * b1sq)
    gamma = _TWO * (a1 * a2 * b2sq - a2 * a2 * bcross)
    return LollipopTerms(t, a1, a2, *b, alpha, beta, gamma)


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

    def check(family: str, l: int) -> ModulusCheck:
        # the closed form c1 z1**2n + c2 z2**2n + (-1)**n 2 cross
        c1, c2, cross = _modulus_coeffs(l)
        closed = c1 * Z1 ** (2 * n) + c2 * Z2 ** (2 * n) + _const(2 * (-1) ** n) * cross
        exact = modulus_sq_at_ix(charpoly(make_lollipop(n, l)))
        return ModulusCheck(family, l, (closed - ZTerm.from_x(exact)).p.is_zero)

    return (check("L(n,6)", 6), *(check("L(n,t)", t) for t in odd))


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


def _claim(
    claim_id: str,
    description: str,
    outcome: SignCertificate | Refutation | None = None,
    identity: tuple[bool, str] | None = None,
) -> ClaimResult:
    """The one constructor of a ``ClaimResult``: a sign certificate or its
    refutation, the (ok, detail) pair of an exact identity, or both."""
    ok, evidence, root_counts, detail = True, "", (), ""
    certificates: tuple[SignCertificate, ...] = ()
    refutations: tuple[Refutation, ...] = ()
    if isinstance(outcome, SignCertificate):
        evidence = "sturm-certificate" if outcome.rule == "sturm" else outcome.rule
        root_counts = ((outcome.domain, outcome.root_count),)
        detail = "sample p(%s) sign %+d" % (outcome.sample_point, outcome.sample_sign)
        certificates = (outcome,)
    elif outcome is not None:
        ok, evidence, detail, refutations = False, "refuted", outcome.reason, (outcome,)
    if identity is not None:
        identity_ok, detail = identity
        ok = ok and identity_ok
        evidence = "identity-failed"
        if identity_ok:
            evidence = "exact-identity" + ("" if outcome is None else "+sturm")
    return ClaimResult(
        claim_id, description, ok, evidence, root_counts, detail,
        certificates, refutations,
    )


def run_claim_suite() -> ClaimSuiteReport:
    """Certify every polynomial inequality the comparison argument rests on."""

    def norm(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
        return p * p - RADICAL_SQ * q * q  # the norm of p + q * sqrt(x**2 + 4)

    # C4: the fourth pair's norm factors exactly, with a positive cofactor
    lhs = norm(P_POLYS[4], Q_POLYS[4])
    c4_ok = lhs == 4 * (_SQ_PLUS_1 ** 2) * C4_COFACTOR
    identities = {"C4": (c4_ok, "identity %s; lhs(1) = %d" % (c4_ok, lhs(1)))}
    on_reals = [
        ("C1", "growth coefficients positive: x^10+10x^8+36x^6+62x^4+51x^2+16 > 0",
         A_POSITIVITY, "positive"),
        ("C2", "degree-18 radical norm negative (beta_2 < 0, gamma_1 > 0)",
         norm(BETA2_ODD, BETA2_EVEN), "negative"),
        *(("C3/%d" % i,
           "pair %d radical norm negative: p_%d^2 - (x^2+4) q_%d^2 < 0" % (i, i, i),
           norm(P_POLYS[i], Q_POLYS[i]), "negative") for i in (1, 2, 3)),
        ("C4", "fourth pair factors exactly and stays positive", C4_COFACTOR, "positive"),
        ("C5/quartic", "f(5,x) quartic cofactor positive", F5_QUARTIC, "positive"),
        ("C5/deg12", "f(5,x) degree-12 cofactor positive", F5_DEG12, "positive"),
        ("C6/quadratic", "t=3 bound quadratic cofactor positive", T3_QUADRATIC,
         "positive"),
        ("C6/deg12", "t=3 bound degree-12 cofactor positive", T3_DEG12, "positive"),
    ]
    results = [
        _claim(cid, desc, certify_poly_sign(p, "R", sign, cid), identities.get(cid))
        for cid, desc, p, sign in on_reals
    ]

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
    ok = difference.p.is_zero
    detail = "identity in z over (z^2+1)^%d: %s" % (difference.k, ok)
    desc = "assembled f(5,x) identical to the factored polynomial"
    results.append(_claim("C8", desc, identity=(ok, detail)))
    return ClaimSuiteReport(tuple(results))
