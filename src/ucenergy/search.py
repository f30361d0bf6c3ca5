"""Exhaustive maximal-energy search over connected unicyclic graphs.

The search encloses only the spectra that can still rank.  By Coulson's
formula E(G) = (1/pi) * integral over x > 0 of x**-2 ln B_G(x), where the
bracket B_G(x) = |x**n phi_G(i/x)|**2 is an even integer polynomial.  When
B_H - B_S is nonzero with no negative coefficient, B_H(x) > B_S(x) for every
x != 0, so E(H) > E(S) strictly: H *dominates* S.  That is an exact integer
test, with no roots and no floats, and it is the quasi-order on which the
paper's proof rests, applied to the whole bracket.

The stream the filter reads is words, not graphs.  ``unicyclic_words``
gives each class once as a bracelet word over the alphabet of rooted
trees, and phi comes straight from the word (``_word_spectra``): each
alphabet tree T carries its matching pair (m+(T), m+(T - root)), folded
from its level sequence by ``charpoly.rooted_pair``, and
``charpoly.cycle_pair`` joins the pairs round the cycle Z into
P = m+(G) and C = m+(G - Z), as in ``charpoly``.  Pairs of trees on at most
n / 2 vertices are computed once; a word holds at most one larger tree,
folded when the word arrives.  No ``Graph`` is built.  A spectrum is named
by the Gaussian integer z = phi(iX) / i**n = P - 2 * i**(-l) * C at
X = 2**(b+1), b = ``coefficient_bits(n)``: z depends on phi alone, and its
base-X digits are the coefficients of phi up to signs fixed by their
index, so it is injective on phi.  The filter keys on z and tags it with
the word; only the kept spectra are unpacked (``phi_from_gaussian``) and
their words built into ``UnicyclicCode``s.

Each bracket is one integer.  In y = x**2, |phi(ix)|**2 is
M(y) = R(y)**2 + y * I(y)**2 with R(y) = sum_j c_(2j) (-1)**j y**j and
I(y) = sum_j c_(2j+1) (-1)**j y**j, and B_G in y is M with its n + 1
coefficients M_0 .. M_n reversed, so comparing M coefficient by coefficient
decides the same dominance.  A zero eigenvalue gives M_0 = c_0**2 = 0, a
coefficient like any other, so brackets of one order need no padding.
With w = 2b + 2, X**2 = 2**w and M(2**w) = |z|**2: P**2 + 4C**2 for odd
l, (P + 2C)**2 or (P - 2C)**2 for l = 2 or 0 (mod 4), the paper's split
by girth parity.  ``_bracket_key`` biases each of the n + 1 digits by
2**(w-2); ``_layout`` fixes X, the bias and the bound below per order.
With G the bit 2**(w-1) of every digit (``_guard``), H dominates S
exactly when H != S and
((H | G) - S) & G == G:

* |M_i| <= (sum_j |R_j|)**2 + (sum_j |I_j|)**2 <= (sum_k |c_k|)**2
  < 2**(2b-4), since R and I together hold each c_k once.  ``charpoly``
  proves sum_k |c_k| < 2**(b-2) for every connected unicyclic graph;
  ``_bracket_key`` reads that sum off the digits of Re z and Im z (the
  digit sum of P + 2C, or of P - 2C for l = 0 (mod 4)) for each spectrum,
  and raises OverflowError if it fails.  So every biased digit
  h_i = M_i + 2**(w-2) lies in [0, 2**(w-1)), and the key's base-2**w
  digits are exactly these.
* (H | G) - S is the sum of (h_i + 2**(w-1) - s_i) * 2**(w*i), and each
  term in parentheses lies in (0, 2**w).  So no digit borrows from the next
  one, and these terms are the digits of the difference.
* Such a digit keeps its guard bit 2**(w-1) exactly when h_i >= s_i.

The top k entries, and the ``tied`` flag of rank k, read the first k + 1
entries of the energy order.  A spectrum with k + 1 dominators has k + 1
distinct spectra, hence at least k + 1 graphs, strictly above it, so it can
never be among them, and it is dropped before any root work.  The filter
runs in the one pass over the words.  It holds only a kept set K of
spectra, each with its bracket, a dominator count and its words.  A word
whose spectrum is in K adds itself.  Any other spectrum, from the first on,
takes one path: it counts its dominators in K, and stops at k + 1; with
fewer it joins K with that count, raises the count of every member it
dominates and drops any member whose count reaches k + 1.  That keeps
exactly the spectra with at most k dominators among all spectra, in any
order of arrival:

1. A count counts only members of K, each a distinct spectrum that truly
   dominates, so nothing with at most k dominators is ever dropped.
2. If D dominates M and both are in K, then count(M) >= count(D) + 1, since
   every dominator of D also dominates M.  So a member reaches k + 1 only
   when it dominates no live member, and every count equals the member's
   dominators that are still in K.
3. When X is dropped, k + 1 members of K dominate it.  If one of them is
   dropped later, its own k + 1 dominators dominate X too.  So X keeps
   k + 1 dominators in K, and it is dropped again if it arrives again.

No set of all spectra and no map of all words is held.  Equal brackets
(phi(x) and +-phi(-x) share one) never dominate each other, so such spectra
survive or go together, and survivors are flagged as ties below.

Energies of the survivors come from ``energy_of_poly``: float root seeds
from one Sturm chain per multiplicity level of the characteristic
polynomial, each verified by an exact integer sign change (with Sturm
isolation as the fallback), so every candidate carries a rigorous
enclosure.  The ranking works per spectrum: all codes
of a spectrum share one enclosure, and every kept spectrum whose enclosure
overlaps another's is enclosed again at radius 1e-12 before the one sort.
So a loose tolerance changes no order between spectra that 1e-12 separates.
A code next to one of its own spectrum, or to an enclosure that still
overlaps its own, is flagged as tied instead of being ordered silently.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .charpoly import coefficient_bits, cycle_pair, phi_from_gaussian, phi_gaussian, rooted_pair
from .enumeration import UnicyclicCode, unicyclic_words
from .polynomials import IntPolynomial
from .roots import EnergyValue, check_tolerance, energy_of_poly

_TIE_RADIUS = 1e-12


@dataclass(frozen=True)
class RankedEntry:
    rank: int
    code: UnicyclicCode
    energy: EnergyValue
    tied: bool


@dataclass(frozen=True)
class SearchStats:
    """What one search did: graphs streamed and spectra kept or enclosed."""

    graphs: int
    held_max: int  # the most spectra the bracket filter held at once
    compared: int  # bracket dominance tests the filter made
    dropped: int  # spectra the filter dropped; one dropped twice counts twice
    enclosed: int  # kept by the filter, enclosed at the requested tolerance
    tie_refinements: int  # spectra enclosed again at radius 1e-12 (overlaps)


def _energy_worker(coeffs: tuple[int, ...], tol: float) -> EnergyValue:
    return energy_of_poly(IntPolynomial(coeffs), tol)


def max_energy_search(
    n: int, top_k: int = 5, tol: float = 1e-7, jobs: int = 1
) -> list[RankedEntry]:
    """Top-k unicyclic graphs on n vertices by energy, ties flagged.

    Only the spectra that fewer than top_k + 1 others bracket-dominate are
    kept while the classes stream past, and only those are enclosed (see the
    module docstring); the result is the one every spectrum's enclosure
    would give.  Energies run in at most min(jobs, CPU count, enclosed
    spectra) worker processes; one worker means no pool.
    """
    return search_with_stats(n, top_k, tol, jobs)[0]


def search_with_stats(
    n: int, top_k: int = 5, tol: float = 1e-7, jobs: int = 1
) -> tuple[list[RankedEntry], SearchStats]:
    """``max_energy_search`` together with the counts of what it did; codes
    rank by one enclosure per spectrum (see the module docstring)."""
    check_tolerance(tol)
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    alphabet, words = unicyclic_words(n)
    kept, counts = _undominated(_word_spectra(n, alphabet, words), top_k + 1, n)
    bits = _layout(n)[0]
    codes_of = {
        phi_from_gaussian(z, n, bits).coeffs: [UnicyclicCode.of_word(*t, alphabet) for t in tags]
        for z, tags in kept.items()
    }
    return _rank(codes_of, counts, top_k, tol, jobs)


def _word_spectra(
    n: int, alphabet: list[tuple[int, ...]], words: Iterable[tuple[int, list[int]]]
) -> Iterator[tuple[tuple[int, list[int]], tuple[int, int]]]:
    """Each (cycle length, word) of ``unicyclic_words(n)`` with its
    z = phi(iX) / i**n at X = 2**(b+1), read from the word.

    The pair (m+(T), m+(T - root)) at X of an alphabet tree on at most
    n // 2 vertices is computed once; a larger tree, which fills most of a
    word, is folded each time a word holds it.
    """
    bits = _layout(n)[0]
    f_of, r_of = [None] * len(alphabet), [None] * len(alphabet)
    for j, tree in enumerate(alphabet):
        if 2 * len(tree) <= n:
            f_of[j], r_of[j] = rooted_pair(tree, bits)
    for tag in words:
        l, word = tag
        f = [f_of[j] for j in word]
        r = [r_of[j] for j in word]
        if None in r:  # a word holds at most one tree of more than n / 2 vertices
            i = r.index(None)
            f[i], r[i] = rooted_pair(alphabet[word[i]], bits)
        yield tag, phi_gaussian(*cycle_pair(f, r, bits), l)


def _rank(
    codes_of: dict[tuple[int, ...], list[UnicyclicCode]],
    counts: dict[str, int],
    top_k: int,
    tol: float,
    jobs: int,
) -> tuple[list[RankedEntry], SearchStats]:
    """The top_k codes of the kept spectra, each spectrum enclosed once and
    again at radius 1e-12 where enclosures overlap, with the search's stats."""
    polys = list(codes_of)
    workers = min(jobs, os.cpu_count() or 1, len(polys))
    if workers > 1:
        # imported here: the pool's modules add to every import of the package
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            energies = list(pool.map(_energy_worker, polys, [tol] * len(polys)))
    else:
        energies = [_energy_worker(coeffs, tol) for coeffs in polys]
    energy_of = dict(zip(polys, energies))
    overlapping = _overlapping(energy_of)
    for coeffs in overlapping:
        energy_of[coeffs] = _energy_worker(coeffs, _TIE_RADIUS)
    entries = sorted(
        ((code, coeffs) for coeffs in polys for code in codes_of[coeffs]),
        key=lambda e: (-energy_of[e[1]].value, e[1], e[0].cycle_len, e[0].trees),
    )

    out: list[RankedEntry] = []
    for i, (code, coeffs) in enumerate(entries[:top_k]):
        energy = energy_of[coeffs]
        neighbours = entries[max(i - 1, 0) : i] + entries[i + 1 : i + 2]
        tied = any(c == coeffs or _overlap(energy, energy_of[c]) for _, c in neighbours)
        out.append(RankedEntry(i + 1, code, energy, tied))
    stats = SearchStats(
        **counts, enclosed=len(polys), tie_refinements=len(overlapping)
    )
    return out, stats


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple[int, int, int]:
    """(b + 1, 2**(b-2), bias) for bracket keys of order n, b =
    ``coefficient_bits(n)``: log2 X, the bound on sum_k |c_k| and 2**(w-2)
    in each of the n + 1 digits of width w = 2b + 2 (module docstring)."""
    b = coefficient_bits(n)
    w = 2 * b + 2
    bias = ((1 << w * (n + 1)) - 1) // ((1 << w) - 1) << (w - 2)
    return b + 1, 1 << (b - 2), bias


def _guard(n: int) -> int:
    """G: the top bit 2**(w-1) of each of the n + 1 digits of a bracket key
    of order n (see the module docstring)."""
    return _layout(n)[2] << 1


def _bracket_key(z: tuple[int, int], n: int) -> int:
    """The Coulson bracket of phi as one integer: M(2**w) = |z|**2 with each
    digit biased by 2**(w-2), for z = phi(iX) / i**n of order n (module
    docstring).  Raises OverflowError when sum_k |c_k|, the digit sum of z,
    reaches 2**(b-2), where a digit could leave [0, 2**(w-1)).
    """
    bits, limit, bias = _layout(n)
    re, im = z
    value, mask, total = re + abs(im), (1 << bits) - 1, 0  # Re z, Im z: alternate digits
    while value > 0:
        total += value & mask
        value >>= bits
    if re < 0 or total >= limit:  # Re z of a unicyclic graph is never negative
        raise OverflowError("coefficients too large for %d-bit bracket digits" % (2 * bits))
    return re * re + im * im + bias


def _dominates(h: int, s: int, guard: int) -> bool:
    """True when B_H - B_S is nonzero with no negative coefficient.

    h and s are ``_bracket_key`` values of spectra of one order n and guard
    is ``_guard(n)``; then E(H) > E(S) strictly.
    """
    return h != s and ((h | guard) - s) & guard == guard


def _undominated(
    stream: Iterable[tuple[object, tuple[int, int]]], count: int, n: int
) -> tuple[dict[tuple[int, int], list], dict[str, int]]:
    """The spectra that fewer than ``count`` others bracket-dominate.

    Takes (tag, z) pairs of order n in any order, a tag being anything that
    names the graph and z = phi(iX) / i**n at X = 2**(b+1).  Returns the
    kept spectra, by z, with their tags, and the ``SearchStats`` counts of
    the filter: pairs seen, the most spectra held at once, dominance tests
    and drops.  Only the kept set is held (see the module docstring).
    """
    guard = _guard(n)
    kept: dict[tuple[int, int], list] = {}  # z -> [bracket, count, tags]
    seen = held_max = compared = dropped = 0
    for tag, z in stream:
        seen += 1
        member = kept.get(z)
        if member is not None:
            member[2].append(tag)
            continue
        key = _bracket_key(z, n)
        above = 0
        for other, _, _ in kept.values():
            compared += 1
            if _dominates(other, key, guard):
                above += 1
                if above == count:
                    break
        if above == count:
            dropped += 1
            continue
        for other_z, member in list(kept.items()):
            compared += 1
            if _dominates(key, member[0], guard):
                member[1] += 1
                if member[1] == count:
                    del kept[other_z]
                    dropped += 1
        kept[z] = [key, above, [tag]]
        held_max = max(held_max, len(kept))
    tags_of = {z: member[2] for z, member in kept.items()}
    counts = dict(graphs=seen, held_max=held_max, compared=compared, dropped=dropped)
    return tags_of, counts


def _overlapping(energy_of: dict) -> set:
    """The keys whose enclosure overlaps another's, by the ``_overlap`` test
    that also flags ties."""
    return {
        key
        for a, b in itertools.combinations(energy_of, 2)
        if _overlap(energy_of[a], energy_of[b])
        for key in (a, b)
    }


def _overlap(a: EnergyValue, b: EnergyValue) -> bool:
    return abs(a.value - b.value) <= a.radius + b.radius
