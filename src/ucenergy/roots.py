"""Real-root isolation and graph energy from exact root enclosures.

``energy_of_poly`` takes up to three routes to the same rigorous enclosures,
each tried only when the one before it fails.

1. Verified float seeds for the whole core (p without its zero roots), in
   the manner of Rump ("Verification methods: rigorous results using
   floating-point arithmetic", Acta Numerica 2010).  The seeds are LAPACK's
   eigenvalues of the Jacobi matrix of the Sturm chain (Schmeisser, "A real
   symmetric tridiagonal matrix with a given characteristic polynomial",
   Linear Algebra Appl. 193, 1993).  A square-free, real-rooted polynomial
   has a full Sturm chain, whose monic members obey a three-term
   recurrence; its coefficients, computed exactly from the chain's integer
   coefficients, are the entries of a symmetric tridiagonal matrix with
   characteristic polynomial p.  Each seed is rounded to a dyadic bracket
   [m - 1, m + 1] / 2**k, and the sign of p at both ends is checked in
   integer arithmetic: p(j / 2**k) * 2**(k*d) is an integer.  When a
   polynomial of degree d has d disjoint brackets, each with a strict sign
   change, each bracket holds exactly one simple root: all roots are real,
   isolated, and the polynomial is square-free.

2. When the seeds fail (repeated eigenvalues, as in the cycles, or complex
   roots), Yun's algorithm splits the core into square-free factors and
   each factor is seeded and checked the same way.  Yun starts from the
   last member of the core's Sturm chain, which is gcd(core, core') up to
   a constant.

3. A factor whose seeds still fail has its roots isolated by Sturm counting.

Enclosures narrower than the requested width come from sign bisection,
which carries both ends as integer numerators over one denominator D and
doubles D at each step, so every sign is that of an integer Horner sum.
The energy adds the enclosures' ends the same way, as integers over the
least common denominator of all ends (2**k on the seeded route), and
builds one ``Fraction`` for the value and one for the radius.  Every route
decides every sign exactly, so the reported energy carries a rigorous
error radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .polynomials import (
    IntPolynomial,
    cauchy_bound,
    squarefree_decomposition,
    sturm_chain,
    variations_at,
)

_MAX_BISECTIONS = 4096
_UNIT_ROUNDOFF = 2.0 ** -53


class ConvergenceError(RuntimeError):
    """A numeric routine failed to meet its tolerance within its budget."""


@dataclass(frozen=True)
class RootEnclosure:
    """Isolating interval [lo, hi] for one real root of a given multiplicity.

    Point enclosures (lo == hi) mark exact rational roots.  For open
    enclosures the associated square-free factor changes sign across the
    interval and has no root at either endpoint.
    """

    lo: Fraction
    hi: Fraction
    multiplicity: int

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


@dataclass(frozen=True)
class EnergyValue:
    """Midpoint/radius pair for an energy.

    Only ``energy_of_poly`` returns a rigorous radius: the true value lies
    within value +- radius.  The eigensolver and Coulson routes return error
    estimates in the same shape.
    """

    value: float
    radius: float


def _isolate_squarefree(f: IntPolynomial) -> list[RootEnclosure]:
    if f.degree == 0:
        return []
    chain = sturm_chain(f)
    bound = cauchy_bound(f)
    out: list[RootEnclosure] = []
    total = variations_at(chain, -bound) - variations_at(chain, bound)
    stack = [(-bound, bound, total)]
    while stack:
        lo, hi, count = stack.pop()
        if count == 0:
            continue
        if count == 1:
            out.append(RootEnclosure(lo, hi, 1))
            continue
        mid = _nonroot_split(f, lo, hi)
        if mid is None:
            raise ConvergenceError("no root-free split point found")
        left = variations_at(chain, lo) - variations_at(chain, mid)
        stack.append((lo, mid, left))
        stack.append((mid, hi, count - left))
    out.sort(key=lambda e: e.lo)
    return out


def _nonroot_split(f: IntPolynomial, lo: Fraction, hi: Fraction):
    """A point strictly inside (lo, hi) that is not a root of f."""
    span = hi - lo
    for denom_pow in range(1, 32):
        step = span / (1 << denom_pow)
        point = lo + step
        while point < hi:
            if f.sign_at(point) != 0:
                return point
            point += step
    return None


def refine_enclosure(
    f: IntPolynomial, enc: RootEnclosure, width: Fraction
) -> RootEnclosure:
    """Bisect until the enclosure is narrower than ``width``.

    The ends are integer numerators over one denominator D, which each step
    doubles; the midpoint of lo / D and hi / D is then (lo + hi) / 2D, and
    its sign is that of f(m / D) * D**d = sum_i c_i m**i D**(d-i), an
    integer.  Only the returned ends are built as ``Fraction``s.
    """
    if enc.width <= width:
        return enc
    den = math.lcm(enc.lo.denominator, enc.hi.denominator)
    lo = enc.lo.numerator * (den // enc.lo.denominator)
    hi = enc.hi.numerator * (den // enc.hi.denominator)
    # every step keeps hi - lo and doubles den, so after t steps the width is
    # (hi - lo) / (den * 2**t): smallest t with 2**t >= (hi - lo) / (den * width)
    steps = _MAX_BISECTIONS + 1  # a width <= 0 ends only at an exact root
    if width > 0:
        ratio = -(-(hi - lo) * width.denominator // (den * width.numerator))
        steps = (ratio - 1).bit_length()
    d = f.degree
    scaled = [c * den ** (d - i) for i, c in enumerate(f.coeffs)]

    def sign(m: int, t: int) -> int:  # sign of f(m / (den * 2**t))
        acc = 0
        for i in range(d, -1, -1):
            acc = acc * m + (scaled[i] << t * (d - i))
        return (acc > 0) - (acc < 0)

    sign_lo = sign(lo, 0)  # every later lo has this sign too
    for t in range(1, min(steps, _MAX_BISECTIONS) + 1):
        mid = lo + hi
        s = sign(mid, t)
        if s == 0:
            root = Fraction(mid, den << t)
            return RootEnclosure(root, root, enc.multiplicity)
        if s == sign_lo:
            lo, hi = mid, hi << 1
        else:
            lo, hi = lo << 1, mid
    if steps > _MAX_BISECTIONS:
        raise ConvergenceError("bisection budget exhausted")
    return RootEnclosure(
        Fraction(lo, den << steps), Fraction(hi, den << steps), enc.multiplicity
    )


def energy_of_poly(p: IntPolynomial, tol: float = 1e-7) -> EnergyValue:
    """Sum of multiplicity-weighted absolute root values, radius <= tol.

    Requires every root of p to be real, which holds for characteristic
    polynomials of symmetric matrices; a complex pair raises ValueError.
    The enclosures come from verified seeds for the whole core (the
    eigenvalues of the Jacobi matrix built from the Sturm chain, after
    Schmeisser 1993), else from the same seeds per Yun factor, else from
    Sturm isolation; see the module docstring.
    The radius covers the enclosures and the rounding of the value to a
    float; ConvergenceError is raised when tol is too tight for a double,
    and ValueError when tol is not a positive finite number.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    if p.is_zero:
        raise ValueError("zero polynomial")
    zero_mult = p.lowest_power()
    core = p.shift_down(zero_mult)
    budget = Fraction(tol) / (2 * (p.degree + 1))
    found = _core_enclosures(core, budget)
    real_roots = zero_mult + sum(mult for _, mult in found)
    if real_roots != p.degree:
        raise ValueError(
            "polynomial has complex roots (%d real of degree %d)"
            % (real_roots, p.degree)
        )
    # | |x| - |mid| | <= |x - mid| <= width / 2, also for brackets around 0.
    # The ends are summed as integer numerators over one common denominator.
    den = math.lcm(*(end.denominator for enc, _ in found for end in (enc.lo, enc.hi)))
    total = spread = 0
    for enc, mult in found:
        lo = enc.lo.numerator * (den // enc.lo.denominator)
        hi = enc.hi.numerator * (den // enc.hi.denominator)
        total += mult * abs(lo + hi)
        spread += mult * (hi - lo)
    value = Fraction(total, 2 * den)
    radius = Fraction(spread, 2 * den)
    val = float(value)
    radius += abs(Fraction(val) - value)
    rad = float(radius)
    if Fraction(rad) < radius:
        rad = math.nextafter(rad, math.inf)
    if rad > tol:
        raise ConvergenceError(
            "radius %.3g exceeds tol %.3g after rounding to a double" % (rad, tol)
        )
    return EnergyValue(val, rad)


def _core_enclosures(
    core: IntPolynomial, budget: Fraction
) -> list[tuple[RootEnclosure, int]]:
    """(enclosure of width <= budget, multiplicity) for each real root of core."""
    if core.degree == 0:
        return []
    fast, chain = _verified_enclosures(core, budget)
    if fast is not None:
        return [(enc, 1) for enc in fast]
    out = []
    # the chain ends in gcd(core, core') up to a constant, Yun's first step
    for factor, mult in squarefree_decomposition(core, chain[-1]):
        encs = None
        if factor.degree < core.degree:  # else it is the core, which just failed
            encs, _ = _verified_enclosures(factor, budget)
        if encs is None:
            encs = [
                refine_enclosure(factor, enc, budget)
                for enc in _isolate_squarefree(factor)
            ]
        out.extend((enc, mult) for enc in encs)
    return out


def _verified_enclosures(
    f: IntPolynomial, budget: Fraction
) -> tuple[list[RootEnclosure] | None, tuple[IntPolynomial, ...]]:
    """Enclosures of width <= budget for all roots of f, from float seeds.

    The seeds are the Jacobi seeds of the Sturm chain of +-f, and the chain
    is returned with the enclosures so the fallbacks can reuse it.  The
    enclosures are None when f has no Jacobi matrix or its seeds fail the
    exact check of ``_checked_enclosures``.
    """
    chain = sturm_chain(f if f.leading > 0 else -f)
    seeds = _jacobi_seeds(chain)
    out = None if seeds is None else _checked_enclosures(f, seeds, budget)
    return out, chain


def _checked_enclosures(
    f: IntPolynomial, seeds: list[tuple[float, float]], budget: Fraction
) -> list[RootEnclosure] | None:
    """Enclosures of width <= budget around the (seed, error) pairs, or None.

    Returns None unless deg f disjoint dyadic brackets around the seeds each
    show a strict sign change of f, checked in integer arithmetic.
    """
    seeds = sorted(seeds)
    # 2**-k is the bracket's half-width: above four times the largest seed
    # error, below a quarter of the smallest seed gap, and no wider than the
    # budget allows unless the seeds cannot resolve the budget.  These are
    # float estimates; the exact checks below decide.
    k_fine = -math.frexp(max(err for _, err in seeds))[1] - 2
    k_sep = 0
    for (a, _), (b, _) in zip(seeds, seeds[1:]):
        k_sep = max(k_sep, 3 - math.frexp(b - a)[1])
    k = min(max(_budget_bits(budget), k_sep), k_fine)
    if k < k_sep:
        return None
    ms = [round(math.ldexp(x, k)) for x, _ in seeds]
    if any(b - a < 2 for a, b in zip(ms, ms[1:])):  # brackets may only touch
        return None
    d = f.degree
    shifted = [c << (k * (d - j)) for j, c in enumerate(f.coeffs)]

    def scaled_value(m: int) -> int:  # f(m / 2**k) * 2**(k*d)
        acc = 0
        for c in reversed(shifted):
            acc = acc * m + c
        return acc

    out = []
    for m in ms:
        lo, hi = scaled_value(m - 1), scaled_value(m + 1)
        if not (lo < 0 < hi or hi < 0 < lo):
            return None
        enc = RootEnclosure(Fraction(m - 1, 1 << k), Fraction(m + 1, 1 << k), 1)
        if enc.width > budget:
            enc = refine_enclosure(f, enc, budget)
        out.append(enc)
    return out


def _budget_bits(budget: Fraction) -> int:
    """Smallest k >= 0 with 2 * 2**-k <= budget."""
    t = -(-2 * budget.denominator // budget.numerator)
    return (t - 1).bit_length() if t > 1 else 0


def _jacobi_coefficients(
    chain: tuple[IntPolynomial, ...],
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]] | None:
    """Exact entries of a Jacobi matrix with characteristic polynomial f/lc(f).

    ``chain`` is the Sturm chain of +-f, the sign that makes the leading
    coefficient positive.  Returns (alpha, beta): the diagonal
    alpha_1..alpha_d and the squared off-diagonal beta_1..beta_{d-1}, each
    an integer (numerator, positive denominator) pair and all beta_k > 0,
    or None unless the chain is full: d + 1 members of degrees d, d-1, ...,
    0, all with positive leading coefficients, which holds exactly when f is
    square-free with only real roots.  Its monic members
    M_0 = f/lc(f), ..., M_d = 1 then obey
    M_{k-1} = (x - alpha_k) M_k - beta_k M_{k+1} (M_{d+1} = 0), and
    alpha_k, beta_k follow from the two coefficients below the leading one
    of M_{k-1} and M_k (Schmeisser 1993).
    """
    d = chain[0].degree
    if len(chain) != d + 1 or any(
        g.degree != d - k or g.leading <= 0 for k, g in enumerate(chain)
    ):
        return None
    alpha: list[tuple[int, int]] = []
    beta: list[tuple[int, int]] = []
    for g, h in zip(chain, chain[1:]):
        # M_{k-1} = g / lg and M_k = h / lh, lg and lh the leading
        # coefficients; matching (x - alpha) M_k - beta M_{k+1} with M_{k-1}
        # at x**m and x**(m-1), where m = deg h, gives alpha = h1/lh - g1/lg
        # and beta = h2/lh - alpha h1/lh - g2/lg, here over lg lh and lg lh**2
        lg, lh = g.leading, h.leading
        g1, g2 = g.coeff(g.degree - 1), g.coeff(g.degree - 2)
        h1, h2 = h.coeff(h.degree - 1), h.coeff(h.degree - 2)
        a = h1 * lg - g1 * lh
        alpha.append((a, lg * lh))
        if len(alpha) < d:
            b = h2 * lg * lh - a * h1 - g2 * lh * lh
            if b <= 0:
                return None
            beta.append((b, lg * lh * lh))
    return alpha, beta


def _jacobi_seeds(
    chain: tuple[IntPolynomial, ...],
) -> list[tuple[float, float]] | None:
    """(seed, error estimate) for every root of f from its Jacobi matrix.

    ``chain`` is the Sturm chain of +-f.  The seeds are LAPACK's eigenvalues
    of the symmetric tridiagonal matrix with diagonal alpha and off-diagonal
    sqrt(beta); None when f has no such matrix.  The error estimate
    d * 2**-52 * max|lambda| covers rounding the entries to doubles and the
    solver's backward error (Weyl); it only sets the bracket width, and the
    integer sign checks decide.
    """
    # imported on first use: importing numpy with this module, before the
    # package compiles certify.py, adds about 0.8 MiB to the peak RSS of a
    # run that starts without a bytecode cache
    import numpy as np

    coefficients = _jacobi_coefficients(chain)
    if coefficients is None:
        return None
    alpha, beta = coefficients
    # int / int rounds correctly, so each entry is the double nearest it
    diagonal = [num / den for num, den in alpha]
    off = np.sqrt([num / den for num, den in beta])
    matrix = np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)
    eigenvalues = np.linalg.eigvalsh(matrix)
    err = 2 * len(alpha) * _UNIT_ROUNDOFF * float(np.abs(eigenvalues).max())
    return [(float(x), err) for x in eigenvalues]

