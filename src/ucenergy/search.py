"""Exhaustive maximal-energy search over connected unicyclic graphs.

The search encloses only the spectra that can still rank.  By Coulson's
formula E(G) = (1/pi) * integral over x > 0 of x**-2 ln B_G(x), where
B_G = ``coulson_bracket(phi_G)`` is an even integer polynomial.  When
B_H - B_S is nonzero with no negative coefficient, B_H(x) > B_S(x) for every
x != 0, so E(H) > E(S) strictly: H *dominates* S.  That is an exact integer
test, with no roots and no floats, and it is the quasi-order on which the
paper's proof rests, applied to the whole bracket.

The top k entries, and the ``tied`` flag of rank k, read the first k + 1
entries of the energy order.  A spectrum with k + 1 dominators has k + 1
distinct spectra, hence at least k + 1 graphs, strictly above it, so it can
never be among them, and it is dropped before any root work.  The filter
runs in the one pass over the graphs.  It holds only a kept set K of
spectra, each with its bracket, a dominator count and its codes.  A graph
whose spectrum is in K adds its code.  Any other spectrum counts its
dominators in K, and stops at k + 1; with fewer it joins K with that count,
raises the count of every member it dominates and drops any member whose
count reaches k + 1.  That keeps exactly the spectra with at most k
dominators among all spectra, in any order of arrival:

1. A count counts only members of K, each a distinct spectrum that truly
   dominates, so nothing with at most k dominators is ever dropped.
2. If D dominates M and both are in K, then count(M) >= count(D) + 1, since
   every dominator of D also dominates M.  So a member reaches k + 1 only
   when it dominates no live member, and every count equals the member's
   dominators that are still in K.
3. When X is dropped, k + 1 members of K dominate it.  If one of them is
   dropped later, its own k + 1 dominators dominate X too.  So X keeps
   k + 1 dominators in K, and it is dropped again if it arrives again.

No set of all spectra and no map of all codes is held.  Equal brackets
(phi(x) and +-phi(-x) share one) never dominate each other, so such spectra
survive or go together, and survivors are flagged as ties below.

Energies of the survivors come from ``energy_of_poly``: float root seeds
of the characteristic polynomial, each verified by an exact integer sign
change (with Yun and Sturm isolation as the fallbacks), so every candidate
carries a rigorous enclosure.  The ranking works per spectrum: all codes
of a spectrum share one enclosure, and every kept spectrum whose enclosure
overlaps another's is enclosed again at radius 1e-12 before the one sort.
So a loose tolerance changes no order between spectra that 1e-12 separates.
A code next to one of its own spectrum, or to an enclosure that still
overlaps its own, is flagged as tied instead of being ordered silently.
"""

from __future__ import annotations

import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable

from .charpoly import charpoly
from .coulson import coulson_bracket
from .enumeration import UnicyclicCode, unicyclic_graphs
from .polynomials import IntPolynomial
from .roots import EnergyValue, energy_of_poly

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
    enclosed: int  # kept by the filter, enclosed at the requested tolerance
    tie_refinements: int  # spectra enclosed again at radius 1e-12 (overlaps)


def _energy_worker(coeffs: tuple[int, ...], tol: float) -> EnergyValue:
    return energy_of_poly(IntPolynomial(coeffs), tol)


def max_energy_search(
    n: int, top_k: int = 5, tol: float = 1e-7, jobs: int = 1
) -> list[RankedEntry]:
    """Top-k unicyclic graphs on n vertices by energy, ties flagged.

    Only the spectra that fewer than top_k + 1 others bracket-dominate are
    kept while the graphs stream past, and only those are enclosed (see the
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
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    stream = ((code, charpoly(g).coeffs) for code, g in unicyclic_graphs(n))
    codes_of, graphs, held_max = _undominated(stream, top_k + 1)

    polys = list(codes_of)
    workers = min(jobs, os.cpu_count() or 1, len(polys))
    if workers > 1:
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
        graphs=graphs,
        held_max=held_max,
        enclosed=len(polys),
        tie_refinements=len(overlapping),
    )
    return out, stats


def _bracket_key(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of the Coulson bracket in x**2, padded to deg phi + 1.

    A zero eigenvalue lowers the bracket's degree, so brackets of one order
    are compared only after padding to a common length.
    """
    even = coulson_bracket(IntPolynomial(coeffs)).coeffs[::2]
    return even + (0,) * (len(coeffs) - len(even))


def _dominates(h: tuple[int, ...], s: tuple[int, ...]) -> bool:
    """True when B_H - B_S is nonzero with no negative coefficient.

    Both arguments are ``_bracket_key`` values of spectra of one order; then
    E(H) > E(S) strictly.
    """
    return h != s and all(map(operator.ge, h, s))


def _undominated(
    stream: Iterable[tuple[UnicyclicCode, tuple[int, ...]]], count: int
) -> tuple[dict[tuple[int, ...], list[UnicyclicCode]], int, int]:
    """The spectra that fewer than ``count`` others bracket-dominate.

    Takes (code, coefficients) pairs in any order and returns the kept
    spectra with their codes, the number of pairs and the most spectra held
    at once.  Only the kept set is held (see the module docstring).
    """
    kept: dict[tuple[int, ...], list] = {}  # coeffs -> [bracket, count, codes]
    seen = held_max = 0
    for code, coeffs in stream:
        seen += 1
        member = kept.get(coeffs)
        if member is not None:
            member[2].append(code)
            continue
        key = _bracket_key(coeffs)
        above = 0
        for other, _, _ in kept.values():
            if _dominates(other, key):
                above += 1
                if above == count:
                    break
        else:
            for other_coeffs, member in list(kept.items()):
                if _dominates(key, member[0]):
                    member[1] += 1
                    if member[1] == count:
                        del kept[other_coeffs]
            kept[coeffs] = [key, above, [code]]
            held_max = max(held_max, len(kept))
    return {c: member[2] for c, member in kept.items()}, seen, held_max


def _overlapping(energy_of: dict) -> set:
    """The keys whose enclosure overlaps another's, in one sweep by lower
    end rather than K**2 pairs: an enclosure overlaps an earlier one exactly
    when it starts at or below the highest upper end so far, and then it
    overlaps the one that reached there, which is marked with it."""
    out = set()
    reach = (float("-inf"), None)  # the highest upper end so far, and its key
    for lo, hi, key in sorted(
        (e.value - e.radius, e.value + e.radius, k) for k, e in energy_of.items()
    ):
        if lo <= reach[0]:
            out |= {key, reach[1]}
        reach = max(reach, (hi, key))
    return out


def _overlap(a: EnergyValue, b: EnergyValue) -> bool:
    return abs(a.value - b.value) <= a.radius + b.radius
