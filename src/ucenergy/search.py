"""Exhaustive maximal-energy search over connected unicyclic graphs.

Energies come from ``energy_of_poly``: float root seeds of the
characteristic polynomial, each verified by an exact integer sign change
(with Yun and Sturm isolation as the fallbacks), so every candidate carries
a rigorous enclosure.  Graphs are streamed; only code -> coefficients is
kept.  Cospectral graphs share one energy computation.
Before ranking, any two distinct spectra whose enclosures overlap are
refined down to radius 1e-12; enclosures that still overlap are flagged as
ties instead of being ordered silently.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .charpoly import charpoly
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


def _energy_worker(coeffs: tuple[int, ...], tol: float) -> EnergyValue:
    return energy_of_poly(IntPolynomial(coeffs), tol)


def max_energy_search(
    n: int, top_k: int = 5, tol: float = 1e-7, jobs: int = 1
) -> list[RankedEntry]:
    """Top-k unicyclic graphs on n vertices by energy, ties flagged.

    Energies run in at most min(jobs, CPU count, distinct spectra) worker
    processes; one worker means no pool.
    """
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    poly_of_code: dict[UnicyclicCode, tuple[int, ...]] = {}
    distinct: dict[tuple[int, ...], EnergyValue] = {}
    for code, graph in unicyclic_graphs(n):
        coeffs = charpoly(graph).coeffs
        poly_of_code[code] = coeffs
        distinct.setdefault(coeffs, None)

    polys = sorted(distinct)
    workers = min(jobs, os.cpu_count() or 1, len(polys))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            energies = list(pool.map(_energy_worker, polys, [tol] * len(polys)))
    else:
        energies = [_energy_worker(coeffs, tol) for coeffs in polys]
    for coeffs, energy in zip(polys, energies):
        distinct[coeffs] = energy

    entries = [
        (code, coeffs, distinct[coeffs]) for code, coeffs in poly_of_code.items()
    ]
    entries.sort(key=lambda e: (-e[2].value, e[1], e[0].cycle_len, e[0].trees))

    # refine neighbouring entries with different spectra until separated
    refined: dict[tuple[int, ...], EnergyValue] = {}

    def refined_energy(coeffs: tuple[int, ...]) -> EnergyValue:
        if coeffs not in refined:
            refined[coeffs] = _energy_worker(coeffs, _TIE_RADIUS)
        return refined[coeffs]

    for i in range(min(top_k + 1, len(entries)) - 1):
        code_a, poly_a, ea = entries[i]
        code_b, poly_b, eb = entries[i + 1]
        if poly_a == poly_b:
            continue
        if _overlap(ea, eb):
            ea = refined_energy(poly_a)
            eb = refined_energy(poly_b)
            entries[i] = (code_a, poly_a, ea)
            entries[i + 1] = (code_b, poly_b, eb)
    entries.sort(key=lambda e: (-e[2].value, e[1], e[0].cycle_len, e[0].trees))

    out: list[RankedEntry] = []
    limit = min(top_k, len(entries))
    for i in range(limit):
        code, poly, energy = entries[i]
        tied = False
        for j in (i - 1, i + 1):
            if 0 <= j < len(entries):
                other_poly, other_energy = entries[j][1], entries[j][2]
                if other_poly == poly or _overlap(energy, other_energy):
                    tied = True
        out.append(RankedEntry(i + 1, code, energy, tied))
    return out


def _overlap(a: EnergyValue, b: EnergyValue) -> bool:
    return abs(a.value - b.value) <= a.radius + b.radius
