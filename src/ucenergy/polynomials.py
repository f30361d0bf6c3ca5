"""Exact univariate polynomial arithmetic over arbitrary-precision integers.

Coefficients are stored in ascending order: index k holds the coefficient of
x**k, and the zero polynomial is the empty tuple.  On top of the ring
operations this module hosts the exact real-root kernel shared by the root
isolator and the inequality certifier: sign evaluation at rational points
using pure integer arithmetic, polynomial gcd over Q with primitive integer
normalisation, Yun square-free factorisation, Sturm chains, and root counting
over intervals and sign domains.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence


@dataclass(frozen=True)
class IntPolynomial:
    """Dense polynomial with arbitrary-precision integer coefficients.

    ``coeffs[k]`` is the coefficient of x**k; the tuple carries no trailing
    zeros, so the leading coefficient is nonzero unless the polynomial is
    identically zero (empty tuple).
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("coefficient tuple carries trailing zeros")

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "IntPolynomial":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(int(c) for c in cs))

    @classmethod
    def constant(cls, c: int) -> "IntPolynomial":
        return cls.from_coeffs([c])

    @classmethod
    def x_power(cls, k: int, scale: int = 1) -> "IntPolynomial":
        return cls.from_coeffs([0] * k + [scale])

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- ring operations -----------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial.from_coeffs(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return IntPolynomial(())
            return IntPolynomial(tuple(other * c for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial.from_coeffs(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPolynomial":
        if k < 0:
            raise ValueError("negative power")
        result = IntPolynomial((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, x):
        """Evaluate by Horner; exact for int/Fraction, rounded for floats."""
        acc = 0 * x if not isinstance(x, (int, Fraction)) else 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial.from_coeffs(
            [k * c for k, c in enumerate(self.coeffs)][1:]
        )

    # -- normalisation helpers -----------------------------------------

    def content(self) -> int:
        """Positive gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def primitive(self) -> "IntPolynomial":
        """Divide out the content; the sign of the leading term is kept."""
        g = self.content()
        if g in (0, 1):
            return self
        return IntPolynomial(tuple(c // g for c in self.coeffs))

    def shift_down(self, k: int) -> "IntPolynomial":
        """Exact division by x**k (the low-order coefficients must vanish)."""
        if any(self.coeffs[:k]):
            raise ValueError("not divisible by x**%d" % k)
        return IntPolynomial(self.coeffs[k:])

    def lowest_power(self) -> int:
        """Multiplicity of the root at 0 (degree+1 == len for zero poly guard)."""
        if self.is_zero:
            raise ValueError("zero polynomial")
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        raise AssertionError

    # -- exact sign evaluation -----------------------------------------

    def sign_at(self, point) -> int:
        """Exact sign at a rational point, computed in integer arithmetic.

        Uses the denominator-cleared Horner form p(a/b) * b**deg, an integer.
        """
        if self.is_zero:
            return 0
        q = Fraction(point)
        a, b = q.numerator, q.denominator
        acc = 0
        power = 1  # b**(deg - k), built from the top down
        for k in range(self.degree, -1, -1):
            acc = acc * a + self.coeffs[k] * power
            power *= b
        return (acc > 0) - (acc < 0)

    # -- graph-specific accessor ---------------------------------------

    def bipartite_b_coeffs(self) -> tuple[int, ...]:
        """Alternating-sign coefficients of a bipartite characteristic polynomial.

        Interprets self as a degree-n characteristic polynomial with
        descending coefficients a_0..a_n (a_k multiplies x**(n-k)).  Requires
        every odd-index a to vanish and every (-1)**k * a_{2k} to be
        nonnegative; returns the tuple of those values.
        """
        n = self.degree
        if n < 0:
            raise ValueError("zero polynomial")
        bs = []
        for k in range(n + 1):
            a_k = self.coeff(n - k)
            if k % 2 == 1:
                if a_k != 0:
                    raise ValueError("odd coefficient a_%d = %d is nonzero" % (k, a_k))
            else:
                b = (-1) ** (k // 2) * a_k
                if b < 0:
                    raise ValueError("sign pattern broken at a_%d" % k)
                bs.append(b)
        return tuple(bs)

    # -- serialisation ---------------------------------------------------

    def to_decimal_strings(self) -> list[str]:
        """JSON-friendly form: decimal coefficient strings, constant first."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_decimal_strings(cls, items: Sequence[str]) -> "IntPolynomial":
        return cls.from_coeffs(int(s) for s in items)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            term = "x^%d" % k if k > 1 else ("x" if k == 1 else "")
            if k == 0:
                parts.append("%+d" % c)
            elif c == 1:
                parts.append("+%s" % term)
            elif c == -1:
                parts.append("-%s" % term)
            else:
                parts.append("%+d%s" % (c, term))
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s


ONE = IntPolynomial((1,))
X = IntPolynomial((0, 1))


def reverse(p: IntPolynomial, degree: int) -> IntPolynomial:
    """x**degree * p(1/x) as a polynomial (degree >= deg p)."""
    coeffs = [0] * (degree + 1)
    for j, c in enumerate(p.coeffs):
        coeffs[degree - j] = c
    return IntPolynomial.from_coeffs(coeffs)


# ---------------------------------------------------------------------------
# Rational-coefficient helpers (lists of Fraction, ascending order).
# ---------------------------------------------------------------------------


def q_from_int(p: IntPolynomial) -> list[Fraction]:
    return [Fraction(c) for c in p.coeffs]


def q_trim(a: list[Fraction]) -> list[Fraction]:
    while a and a[-1] == 0:
        a.pop()
    return a


def q_divmod(a: Sequence[Fraction], b: Sequence[Fraction]):
    """Euclidean division over Q; returns (quotient, remainder)."""
    a = list(a)
    b = q_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = 1 / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        coef = a[k + len(b) - 1] * inv_lead
        if coef:
            q[k] = coef
            for j, bj in enumerate(b):
                a[k + j] -= coef * bj
    return q_trim(q), q_trim(a[: len(b) - 1])


def q_to_primitive_int(a: Sequence[Fraction]) -> IntPolynomial:
    """Scale by a positive rational to a primitive integer polynomial.

    Positive scaling preserves every sign, which is what Sturm chains need.
    """
    a = q_trim(list(a))
    if not a:
        return IntPolynomial(())
    denom_lcm = 1
    for c in a:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in a]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    return IntPolynomial(tuple(c // g for c in ints))


def poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Q, normalised to a positive leading coefficient."""
    a, b = q_from_int(p), q_from_int(q)
    while q_trim(b):
        a, b = b, q_divmod(a, b)[1]
    g = q_to_primitive_int(a)
    if not g.is_zero and g.leading < 0:
        g = -g
    return g


def poly_div_exact(p: IntPolynomial, d: IntPolynomial) -> IntPolynomial:
    """Exact quotient p/d over the integers; raises on any remainder."""
    quo, rem = q_divmod(q_from_int(p), q_from_int(d))
    if q_trim(list(rem)):
        raise ValueError("division is not exact")
    if any(c.denominator != 1 for c in quo):
        raise ValueError("division is not exact over the integers")
    return IntPolynomial.from_coeffs(int(c) for c in quo)


# ---------------------------------------------------------------------------
# Square-free structure (Yun's algorithm).
# ---------------------------------------------------------------------------


def squarefree_decomposition(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Yun decomposition: pairs (factor, multiplicity), factors primitive.

    The product of factor**multiplicity equals p up to a nonzero rational
    constant; the factors are pairwise coprime and square-free.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    work = p.primitive()
    dp = work.derivative()
    g = poly_gcd(work, dp)
    if g.degree == 0:
        return [(work if work.leading > 0 else -work, 1)]
    # Yun's recurrence; intermediate c, d must not be rescaled or the sums
    # below would mix incompatible normalisations.
    c = poly_div_exact(work, g)
    d = poly_div_exact(dp, g) - c.derivative()
    out: list[tuple[IntPolynomial, int]] = []
    i = 1
    while c.degree > 0:
        f = poly_gcd(c, d)
        if f.degree > 0:
            out.append((f, i))
        c = poly_div_exact(c, f)
        d = poly_div_exact(d, f) - c.derivative()
        i += 1
    return out


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """Product of the distinct irreducible factors (radical of p)."""
    result = ONE
    for f, _ in squarefree_decomposition(p):
        result = result * f
    if not result.is_zero and result.leading < 0:
        result = -result
    return result.primitive()


# ---------------------------------------------------------------------------
# Sturm chains and root counting.
# ---------------------------------------------------------------------------


def sturm_chain(p: IntPolynomial) -> tuple[IntPolynomial, ...]:
    """Sturm sequence of a square-free polynomial, primitive at each step."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    chain = [p.primitive(), p.derivative().primitive()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        _, rem = q_divmod(q_from_int(chain[-2]), q_from_int(chain[-1]))
        nxt = q_to_primitive_int([-c for c in rem])
        if nxt.is_zero:
            break
        chain.append(nxt)
    return tuple(c for c in chain if not c.is_zero)


def _variations(signs: Iterable[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def variations_at(chain: Sequence[IntPolynomial], point) -> int:
    return _variations(f.sign_at(point) for f in chain)


def variations_at_infinity(chain: Sequence[IntPolynomial], positive: bool) -> int:
    signs = []
    for f in chain:
        s = (f.leading > 0) - (f.leading < 0)
        if not positive and f.degree % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def cauchy_bound(p: IntPolynomial) -> Fraction:
    """Strict bound B: every real root lies in (-B, B)."""
    if p.is_zero or p.degree == 0:
        return Fraction(1)
    lead = abs(p.leading)
    top = max(abs(c) for c in p.coeffs[:-1])
    return Fraction(1) + Fraction(top, lead)


def count_real_roots(p: IntPolynomial, lo=None, hi=None) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    ``None`` endpoints mean minus/plus infinity.  Works for non-square-free
    input by counting on the square-free part.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    sf = squarefree_part(p)
    if sf.degree <= 0:
        return 0
    chain = sturm_chain(sf)
    v_lo = (
        variations_at_infinity(chain, positive=False)
        if lo is None
        else variations_at(chain, Fraction(lo))
    )
    v_hi = (
        variations_at_infinity(chain, positive=True)
        if hi is None
        else variations_at(chain, Fraction(hi))
    )
    return v_lo - v_hi
