"""Exact univariate polynomial arithmetic over arbitrary-precision integers.

Coefficients are stored in ascending order: index k holds the coefficient of
x**k, and the zero polynomial is the empty tuple.  On top of the ring
operations this module hosts the exact real-root kernel shared by the root
isolator and the inequality certifier, all of it in integer arithmetic: sign
evaluation at rational points, pseudo-remainders and exact division, Sturm
chains and their sign variations at a point, and ``multiplicity_levels``,
the one walk by which both reach square-free parts.

``multiplicity_levels(f)`` yields, for f_1 = f and f_(i+1) = gcd(f_i, f_i'),
the Sturm chain of +-f_i and the square-free part s_i = f_i / f_(i+1).  The
chain ends in the gcd up to a constant, so each level costs one
pseudo-remainder sequence and one exact division.  As multisets the roots of
f_i are those of s_i and those of f_(i+1), so s_i is the product of the
distinct irreducible factors of f of multiplicity >= i, and s_i / s_(i+1)
that of the factors of multiplicity exactly i.  ``squarefree_decomposition``
reads those factors off the walk, so the Sturm chain is the only gcd here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence


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
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @classmethod
    def constant(cls, c: int) -> "IntPolynomial":
        return cls.from_coeffs([c])

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
        out = list(self.coeffs) + [0] * (len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPolynomial.from_coeffs(out)

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
        # the leading term is a product of nonzero leading coefficients
        return IntPolynomial(tuple(out))

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

    # -- powers of x ----------------------------------------------------

    def shift_up(self, k: int) -> "IntPolynomial":
        """Multiplication by x**k; the zero polynomial stays zero."""
        if self.is_zero:
            return self
        return IntPolynomial((0,) * k + self.coeffs)

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
        At 0 that is the constant coefficient.
        """
        if self.is_zero:
            return 0
        if point == 0:
            c = self.coeffs[0]
            return (c > 0) - (c < 0)
        q = Fraction(point)
        a, b = q.numerator, q.denominator
        acc = 0
        power = 1  # b**(deg - k), built from the top down
        for k in range(self.degree, -1, -1):
            acc = acc * a + self.coeffs[k] * power
            power *= b
        return (acc > 0) - (acc < 0)

    # -- serialisation ---------------------------------------------------

    def to_decimal_strings(self) -> list[str]:
        """JSON-friendly form: decimal coefficient strings, constant first."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_decimal_strings(cls, items: Sequence[str]) -> "IntPolynomial":
        return cls.from_coeffs(int(s) for s in items)


ONE = IntPolynomial((1,))
X = IntPolynomial((0, 1))


def reverse(p: IntPolynomial, degree: int) -> IntPolynomial:
    """x**degree * p(1/x) as a polynomial (degree >= deg p)."""
    coeffs = [0] * (degree + 1)
    for j, c in enumerate(p.coeffs):
        coeffs[degree - j] = c
    return IntPolynomial.from_coeffs(coeffs)


# ---------------------------------------------------------------------------
# Integer Euclid: pseudo-remainders and exact division.
# ---------------------------------------------------------------------------


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Remainder of |lc b|**(deg a - deg b + 1) * a on division by b, on
    coefficient lists, b nonzero; trailing zeros are stripped.

    The scale is positive, so the remainder has the signs of the remainder
    over Q; a of lower degree than b is returned as it is.
    """
    db, lead = len(b) - 1, b[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    low = b[:-1]
    r = list(a)
    for k in range(len(r) - 1, db - 1, -1):
        # r <- scale * r - sign * r[k] * x**(k - db) * b, which clears r[k]
        c = sign * r.pop()
        off = k - db
        head = r[:off] if scale == 1 else [scale * x for x in r[:off]]
        r = head + [scale * x - c * y for x, y in zip(r[off:], low)]
    while r and not r[-1]:
        r.pop()
    return r


def poly_div_exact(p: IntPolynomial, d: IntPolynomial) -> IntPolynomial:
    """Exact quotient p/d over the integers; raises on any remainder."""
    if d.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    dd, lead = d.degree, d.leading
    low = d.coeffs[:-1]
    r = list(p.coeffs)
    quo = [0] * max(len(r) - dd, 0)
    for k in range(len(r) - 1, dd - 1, -1):
        c, rem = divmod(r.pop(), lead)
        if rem:
            raise ValueError("division is not exact over the integers")
        if c:
            quo[k - dd] = c
            for j, dj in enumerate(low, k - dd):
                r[j] -= c * dj
    if any(r):
        raise ValueError("division is not exact over the integers")
    return IntPolynomial.from_coeffs(quo)


# ---------------------------------------------------------------------------
# Sturm chains.
# ---------------------------------------------------------------------------


def sturm_chain(p: IntPolynomial) -> tuple[IntPolynomial, ...]:
    """Sturm sequence p, p', -prem(p, p'), ..., primitive at each step.

    The chain ends in gcd(p, p') up to a constant, a nonzero constant when p
    is square-free.  The members are built as coefficient lists and wrapped
    as ``IntPolynomial``s once, at the end.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    a = _primitive(list(p.coeffs))
    b = _primitive([k * c for k, c in enumerate(p.coeffs)][1:])
    chain = [a]
    while b:
        chain.append(b)
        if len(b) == 1:
            break
        a, b = b, _primitive(_pseudo_remainder(a, b), negate=True)
    return tuple(IntPolynomial(tuple(c)) for c in chain)


def multiplicity_levels(
    f: IntPolynomial,
) -> Iterator[tuple[tuple[IntPolynomial, ...], IntPolynomial]]:
    """(chain, s) for each multiplicity level of f; none for a constant f.

    ``chain`` is the Sturm chain of +-f_i, signed so that its head has a
    positive leading coefficient, and s = chain[0] / chain[-1] is the
    square-free part of f_i, primitive and of either sign; the next level
    is f_(i+1) = chain[-1], up to a constant (module docstring).  The walk
    ends when that gcd is a constant, so it yields one level per unit of the
    largest multiplicity.
    """
    while f.degree > 0:
        chain = sturm_chain(f if f.leading > 0 else -f)
        g = chain[-1]  # gcd(f, f') up to a constant
        yield chain, chain[0] if g.degree == 0 else poly_div_exact(chain[0], g)
        f = g


def squarefree_decomposition(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Pairs (factor, multiplicity), read off ``multiplicity_levels``: the
    factor of multiplicity i is s_i / s_(i+1), with s = 1 after the last
    level, kept when it is not a constant.

    The factors are square-free, pairwise coprime, primitive and with a
    positive leading coefficient, and the product of factor**multiplicity
    equals p up to a constant.  ``certify`` takes the core of a weak sign
    from it, and the benchmark's trace names it (as ``roots.yun``).
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    parts = [s for _, s in multiplicity_levels(p)] + [ONE]
    out = []
    for mult, (s, t) in enumerate(zip(parts, parts[1:]), 1):
        factor = poly_div_exact(s, t)
        if factor.degree > 0:
            out.append((factor if factor.leading > 0 else -factor, mult))
    return out


def _primitive(cs: list[int], negate: bool = False) -> list[int]:
    """The coefficients divided by their content, negated if asked."""
    g = gcd(*cs)  # stops taking gcds once it reaches 1
    if negate:
        g = -g
    return cs if g in (0, 1) else [c // g for c in cs]


def variations_at(chain: Sequence[IntPolynomial], point) -> int:
    """Sign changes along the chain at a rational point, zeros skipped."""
    count = 0
    prev = 0
    for f in chain:
        s = f.sign_at(point)
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def variations_at_infinity(chain: Sequence[IntPolynomial]) -> tuple[int, int]:
    """Sign variations of a Sturm chain at -inf and +inf, read off each
    member's leading coefficient and degree.

    These are V(-B) and V(+B) for any B such that every root of the chain's
    head lies in (-B, B): by Sturm's theorem V(a) - V(b) counts the distinct
    roots of the head in (a, b], so V cannot change on (-inf, -B] or on
    [B, inf), which hold none.
    """
    signs_hi = [1 if f.leading > 0 else -1 for f in chain]
    signs_lo = [s if f.degree % 2 == 0 else -s for s, f in zip(signs_hi, chain)]
    return tuple(
        sum(a != b for a, b in zip(signs, signs[1:])) for signs in (signs_lo, signs_hi)
    )


def cauchy_bound(p: IntPolynomial) -> Fraction:
    """Strict bound B: every real root lies in (-B, B)."""
    if p.is_zero or p.degree == 0:
        return Fraction(1)
    lead = abs(p.leading)
    top = max(abs(c) for c in p.coeffs[:-1])
    return Fraction(1) + Fraction(top, lead)
