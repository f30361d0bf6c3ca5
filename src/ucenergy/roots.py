"""Real-root isolation and graph energy from exact root enclosures.

``energy_of_poly`` encloses the roots of the core (p without its zero
roots) one multiplicity level at a time, walking the levels with
``polynomials.multiplicity_levels``: one Sturm chain per level, then Sturm
isolation for a level whose seeds fail.

1. The Sturm chain f, f', ... of the level's polynomial f ends in
   g = gcd(f, f') up to a constant.  Its monic members, divided by g, obey
   a three-term recurrence, so when the chain has degrees d, d-1, ...,
   deg g with positive leading coefficients, its recurrence coefficients,
   computed exactly from the chain's integer coefficients, are the entries
   of a Jacobi matrix whose eigenvalues are the distinct roots of f
   (Schmeisser, "A real symmetric tridiagonal matrix with a given
   characteristic polynomial", Linear Algebra Appl. 193, 1993).  LAPACK's
   eigenvalues of that matrix are verified as seeds in the manner of Rump
   ("Verification methods: rigorous results using floating-point
   arithmetic", Acta Numerica 2010) on the square-free part s = f / g.
   Each seed is rounded to a dyadic bracket [m - 1, m + 1] / 2**k, and the
   sign of s at both ends is checked in integer arithmetic:
   s(j / 2**k) * 2**(k*r) is an integer.  When s of degree r has r disjoint
   brackets, each with a strict sign change, each bracket holds exactly one
   simple root: all roots of s are real and isolated.

2. A level whose chain gives no Jacobi matrix (complex roots) or whose
   seeds fail the check has the roots of s isolated by Sturm counting.

The next level is g.  As multisets the roots of f are those of s and those
of g, so E(f) = E(s) + E(g), and no multiplicity has to be matched to a
root; the levels end when g is a constant.  A root of multiplicity m thus
has one enclosure in each of the first m levels.

Bipartite spectra are walked at half the degree.  A core with no odd power
of x is q(x**2), and q(0) != 0 because the zero roots are gone.  Since
f' = 2x q'(x**2) and x does not divide q(x**2), gcd(f, f') is
gcd(q, q')(x**2), so the levels of f are those of q with y = x**2, and
each level's square-free part is s(x) = s_q(x**2).  The Jacobi seeds
y_1 < ... < y_r of q's level give x_i = sqrt(y_i) when y_1 > 0.  Each
bracket [m_i - 1, m_i + 1] / 2**k around x_i, with m_i >= 1, lies in
[0, inf), where x -> x**2 is increasing, so s changes sign strictly across
it exactly when s_q does across [(m_i - 1)**2, (m_i + 1)**2] / 4**k: an
integer sign check on s_q, at half the degree.  s is even, so the mirror
image [-m_i - 1, -m_i + 1] / 2**k of a checked bracket changes sign too.
The spacing check keeps the positive brackets apart, meeting at most at a
shared end, where s is nonzero; so are the negative ones.  A negative and
a positive bracket can meet only when m_1 = 1, and then only at 0, which
is not a root since s(0) = s_q(0) != 0.  So the 2r brackets hold the 2r
roots of s, one each.  The chain, the seeds and the sign checks run at
degree r.  The seed error estimate is the one the Jacobi matrix of s, of
order 2r, would give, so k and the brackets are those of the route in x up
to the rounding of the seeds: an m can differ by one where its seed lies
near a half-integer multiple of 2**-k.  A level whose smallest seed is not
positive (a negative y is a pair of imaginary roots of s) or whose checks
fail has the roots of s isolated by Sturm counting, at degree 2r.

Enclosures narrower than the requested width come from sign bisection,
which carries both ends as integer numerators over one denominator D and
doubles D at each step, so every sign is that of an integer Horner sum.
Each level returns its enclosures as integer numerators over one
denominator (2**k on the seeded route), and the energy adds them as
integers over the least common multiple of those denominators, building
one ``Fraction`` for the value and one for the radius.  Every route decides
every sign exactly, so the reported energy carries a rigorous error radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .polynomials import (
    IntPolynomial,
    cauchy_bound,
    multiplicity_levels,
    sturm_chain,
    variations_at,
)

_MAX_BISECTIONS = 4096
_UNIT_ROUNDOFF = 2.0 ** -53


class ConvergenceError(RuntimeError):
    """A numeric routine failed to meet its tolerance within its budget."""


@dataclass(frozen=True)
class RootEnclosure:
    """Isolating interval [lo, hi] for one real root of a square-free
    polynomial.

    Point enclosures (lo == hi) mark exact rational roots.  For open
    enclosures the polynomial changes sign across the interval and has no
    root at either endpoint.  Multiplicities are not carried: the energy
    takes one enclosure per multiplicity level (module docstring).
    """

    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


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
            out.append(RootEnclosure(lo, hi))
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
    doubles; the point halfway between lo / D and hi / D is (lo + hi) / 2D,
    and the sign of f at any m / D is that of f(m / D) * D**d =
    sum_i c_i m**i D**(d-i), an integer.  Only the returned ends are built
    as ``Fraction``s.
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
            return RootEnclosure(root, root)
        if s == sign_lo:
            lo, hi = mid, hi << 1
        else:
            lo, hi = lo << 1, mid
    if steps > _MAX_BISECTIONS:
        raise ConvergenceError("bisection budget exhausted")
    return RootEnclosure(Fraction(lo, den << steps), Fraction(hi, den << steps))


def check_tolerance(tol: float) -> None:
    """ValueError unless tol is a positive finite number: the one check of
    every energy route's requested tolerance (nan and inf included)."""
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite, got %r" % tol)


def energy_of_poly(p: IntPolynomial, tol: float = 1e-7) -> EnergyValue:
    """Sum of multiplicity-weighted absolute root values, radius <= tol.

    Requires every root of p to be real, which holds for characteristic
    polynomials of symmetric matrices; a complex pair raises ValueError.
    The enclosures come one multiplicity level at a time: verified seeds
    from the Jacobi matrix of the level's Sturm chain, which may end at
    gcd(f, f') and whose weights are the multiplicities (after Schmeisser
    1993), else Sturm isolation; see the module docstring.
    The radius covers the enclosures and the rounding of the value to a
    float; ConvergenceError is raised when tol is too tight for a double,
    and ValueError when tol is not a positive finite number.
    """
    check_tolerance(tol)
    if p.is_zero:
        raise ValueError("zero polynomial")
    zero_mult = p.lowest_power()
    core = p.shift_down(zero_mult)
    budget = Fraction(tol) / (2 * (p.degree + 1))
    levels = _core_enclosures(core, budget)
    real_roots = zero_mult + sum(len(ends) for _, ends in levels)
    if real_roots != p.degree:
        raise ValueError(
            "polynomial has complex roots (%d real of degree %d)"
            % (real_roots, p.degree)
        )
    # | |x| - |mid| | <= |x - mid| <= width / 2, also for brackets around 0.
    # The ends are summed as integer numerators over one common denominator.
    den = math.lcm(*(level_den for level_den, _ in levels))
    total = spread = 0
    for level_den, ends in levels:
        scale = den // level_den
        total += scale * sum(abs(lo + hi) for lo, hi in ends)
        spread += scale * sum(hi - lo for lo, hi in ends)
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


_Level = tuple[int, list[tuple[int, int]]]


def _core_enclosures(core: IntPolynomial, budget: Fraction) -> list[_Level]:
    """Enclosures of width <= budget of the real roots of core, per level.

    Level i holds one enclosure per distinct root of multiplicity >= i, as
    (den, ends): ``ends`` lists the integer numerators (lo, hi) of each
    enclosure's ends over the positive denominator den.  An even core,
    q(x**2), walks the levels of q (module docstring).
    """
    q = _even_half(core)
    if q is not None:
        walk = multiplicity_levels(q)
        return [_mirrored_level(chain, s, budget) for chain, s in walk]
    levels = []
    for chain, s in multiplicity_levels(core):
        seeds = _jacobi_seeds(chain)
        level = None if seeds is None else _checked_enclosures(s, *seeds, budget)
        levels.append(_isolated(s, budget) if level is None else level)
    return levels


def _even_half(f: IntPolynomial) -> IntPolynomial | None:
    """q with f(x) = q(x**2), or None when f has an odd power of x."""
    if any(f.coeffs[1::2]):
        return None
    return IntPolynomial(f.coeffs[::2])


def _isolated(s: IntPolynomial, budget: Fraction) -> _Level:
    """Sturm isolation of the roots of square-free s, refined to the budget."""
    return _over_one_denominator(
        [refine_enclosure(s, enc, budget) for enc in _isolate_squarefree(s)]
    )


def _mirrored_level(
    chain: tuple[IntPolynomial, ...], s_q: IntPolynomial, budget: Fraction
) -> _Level:
    """One level of an even core: the roots +-sqrt(y) of s_q(x**2), for the
    roots y of the square-free part s_q of a level of q.

    ``chain`` is that level's Sturm chain.  Its Jacobi seeds y_1 < ... < y_r
    give the positive seeds sqrt(y_i), checked at half the degree and
    mirrored (module docstring); a level whose smallest seed is not positive
    or whose checks fail isolates the roots of s_q(x**2) by Sturm counting.
    """
    coeffs = [0] * (2 * s_q.degree + 1)
    coeffs[::2] = s_q.coeffs
    s = IntPolynomial(tuple(coeffs))
    seeds = _jacobi_seeds(chain)
    level = None
    if seeds is not None and seeds[0][0] > 0:
        level = _mirrored_enclosures(s_q, s, *seeds, budget)
    return _isolated(s, budget) if level is None else level


def _mirrored_enclosures(
    s_q: IntPolynomial, s: IntPolynomial, ys: list[float], err: float, budget: Fraction
) -> _Level | None:
    """Enclosures of the roots of s(x) = s_q(x**2) around +-sqrt(y) for the
    ascending positive seeds ys of s_q, or None.

    ``err`` estimates the seeds' error in y.  The brackets [m - 1, m + 1] /
    2**k around sqrt(y_i) need m >= 1 and are checked by the sign of s_q at
    (m -+ 1)**2 / 4**k; their mirror images enclose the negative roots.
    """
    xs = [math.sqrt(y) for y in ys]
    # 2 * (2r) * u * max|x|, the estimate the Jacobi matrix of s itself, of
    # order 2r, would give; -x_1 brings the gap across 0 into the spacing.
    # sqrt magnifies the error of y_i by 1 / (2 x_i), more than this allows
    # for when x_i < x_max / 4, but err is loose: on bipartite spectra with
    # x_1 / x_max down to 0.013 the seeds stayed within 0.14 of the
    # half-width, and a failed check costs only the Sturm fallback
    k = _bracket_bits([-xs[0]] + xs, 2 * err / xs[-1], budget)
    if k is None:
        return None
    ms = [round(math.ldexp(x, k)) for x in xs]
    if ms[0] < 1 or any(b - a < 2 for a, b in zip(ms, ms[1:])):
        return None
    if not _changes_sign(s_q, 2 * k, [((m - 1) ** 2, (m + 1) ** 2) for m in ms]):
        return None
    # s is even, so bisection of a mirrored bracket is the mirror of bisection
    den, ends = _bracketed(s, k, ms, budget)
    return den, [(-hi, -lo) for lo, hi in reversed(ends)] + ends


def _over_one_denominator(encs: list[RootEnclosure]) -> _Level:
    """(den, ends) for enclosures with ``Fraction`` ends: den is the least
    common denominator of all ends."""
    den = math.lcm(*(end.denominator for enc in encs for end in (enc.lo, enc.hi)))
    return den, [
        (
            enc.lo.numerator * (den // enc.lo.denominator),
            enc.hi.numerator * (den // enc.hi.denominator),
        )
        for enc in encs
    ]


def _checked_enclosures(
    f: IntPolynomial, seeds: list[float], err: float, budget: Fraction
) -> _Level | None:
    """Enclosures of width <= budget around the ascending seeds, or None.

    ``err`` estimates every seed's error.  Returns None unless deg f
    disjoint dyadic brackets around the seeds each show a strict sign change
    of f, checked in integer arithmetic.
    """
    k = _bracket_bits(seeds, err, budget)
    if k is None:
        return None
    ms = [round(math.ldexp(x, k)) for x in seeds]
    if any(b - a < 2 for a, b in zip(ms, ms[1:])):  # brackets may only touch
        return None
    if not _changes_sign(f, k, [(m - 1, m + 1) for m in ms]):
        return None
    return _bracketed(f, k, ms, budget)


def _bracketed(f: IntPolynomial, k: int, ms: list[int], budget: Fraction) -> _Level:
    """The level of checked brackets [m - 1, m + 1] / 2**k around roots of
    f, bisected down to the budget where they are wider."""
    den = 1 << k
    if k >= _budget_bits(budget):  # the width 2 * 2**-k is within the budget
        return den, [(m - 1, m + 1) for m in ms]
    brackets = [RootEnclosure(Fraction(m - 1, den), Fraction(m + 1, den)) for m in ms]
    return _over_one_denominator([refine_enclosure(f, enc, budget) for enc in brackets])


def _bracket_bits(seeds: list[float], err: float, budget: Fraction) -> int | None:
    """k for brackets of half-width 2**-k around the ascending seeds, or None.

    2**-k is above four times the seed error, below a quarter of the
    smallest seed gap, and no wider than the budget allows unless the seeds
    cannot resolve the budget.  These are float estimates; the exact sign
    checks decide.
    """
    k_fine = -math.frexp(err)[1] - 2
    k_sep = 0
    if len(seeds) > 1:
        gap = min(b - a for a, b in zip(seeds, seeds[1:]))
        k_sep = max(0, 3 - math.frexp(gap)[1])
    k = min(max(_budget_bits(budget), k_sep), k_fine)
    return None if k < k_sep else k


def _changes_sign(f: IntPolynomial, k: int, pairs: list[tuple[int, int]]) -> bool:
    """Whether f changes sign strictly from a / 2**k to b / 2**k for every
    (a, b) in pairs, decided by the integers f(j / 2**k) * 2**(k*deg f)."""
    d = f.degree
    descending = [c << (k * (d - j)) for j, c in enumerate(f.coeffs)][::-1]

    def scaled_value(m: int) -> int:
        acc = 0
        for c in descending:
            acc = acc * m + c
        return acc

    for a, b in pairs:
        lo, hi = scaled_value(a), scaled_value(b)
        if not (lo < 0 < hi or hi < 0 < lo):
            return False
    return True


def _budget_bits(budget: Fraction) -> int:
    """Smallest k >= 0 with 2 * 2**-k <= budget."""
    t = -(-2 * budget.denominator // budget.numerator)
    return (t - 1).bit_length() if t > 1 else 0


def _jacobi_coefficients(
    chain: tuple[IntPolynomial, ...],
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]] | None:
    """Exact entries of a Jacobi matrix whose eigenvalues are the distinct
    roots of f.

    ``chain`` is the Sturm chain of +-f, the sign that makes the leading
    coefficient positive.  Returns (alpha, beta): the diagonal
    alpha_1..alpha_r and the squared off-diagonal beta_1..beta_{r-1}, each
    an integer (numerator, positive denominator) pair and all beta_k > 0,
    where r = deg f - deg g and g, the chain's last member, is gcd(f, f')
    up to a constant.  Returns None unless the chain's degrees are d, d-1,
    ..., deg g and all its leading coefficients are positive, which holds
    exactly when all roots of f are real.  Its monic members
    M_0 = f/lc(f), ..., M_r = g/lc(g) then obey
    M_{k-1} = (x - alpha_k) M_k - beta_k M_{k+1} (M_{r+1} = 0), and so do
    the M_k / M_r, whose first is the monic square-free part of f.  The
    matrix has that part as its characteristic polynomial: f'/f is
    sum_i m_i / (x - lambda_i), the distinct roots weighted by their
    multiplicities, all positive (Schmeisser 1993).  alpha_k and beta_k
    follow from the two coefficients below the leading one of M_{k-1} and
    M_k.
    """
    coeffs = [g.coeffs for g in chain]
    d = len(coeffs[0]) - 1
    if any(len(c) != d + 1 - k or c[-1] <= 0 for k, c in enumerate(coeffs)):
        return None
    r = len(chain) - 1
    alpha: list[tuple[int, int]] = []
    beta: list[tuple[int, int]] = []
    for k, (g, h) in enumerate(zip(coeffs, coeffs[1:])):
        # M_{k-1} = g / lg and M_k = h / lh, lg and lh the leading
        # coefficients; matching (x - alpha) M_k - beta M_{k+1} with M_{k-1}
        # at x**m and x**(m-1), where m = deg h, gives alpha = h1/lh - g1/lg
        # and beta = h2/lh - alpha h1/lh - g2/lg, here over lg lh and lg lh**2
        lg, g1, g2 = g[-1], g[-2], (g[-3] if len(g) > 2 else 0)
        lh, h1, h2 = h[-1], (h[-2] if len(h) > 1 else 0), (h[-3] if len(h) > 2 else 0)
        a = h1 * lg - g1 * lh
        alpha.append((a, lg * lh))
        if k < r - 1:
            b = h2 * lg * lh - a * h1 - g2 * lh * lh
            if b <= 0:
                return None
            beta.append((b, lg * lh * lh))
    return alpha, beta


def _jacobi_seeds(
    chain: tuple[IntPolynomial, ...],
) -> tuple[list[float], float] | None:
    """(ascending seeds, error estimate) for the distinct roots of f.

    ``chain`` is the Sturm chain of +-f.  The seeds are LAPACK's eigenvalues
    of the symmetric tridiagonal matrix with diagonal alpha and off-diagonal
    sqrt(beta); None when f has no such matrix.  The error estimate
    r * 2**-52 * max|lambda| covers rounding the entries to doubles and the
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
    r = len(alpha)
    # int / int rounds correctly, so each entry is the double nearest it;
    # the three diagonals are strided slices of one flat buffer
    flat = np.zeros(r * r)
    flat[:: r + 1] = [num / den for num, den in alpha]
    off = np.sqrt([num / den for num, den in beta])
    flat[1 :: r + 1] = off
    flat[r :: r + 1] = off
    eigenvalues = np.linalg.eigvalsh(flat.reshape(r, r))
    err = 2 * r * _UNIT_ROUNDOFF * max(-eigenvalues[0], eigenvalues[-1])
    return eigenvalues.tolist(), float(err)
