"""LAPACK eigensolver used as an independent floating-point energy oracle.

``numpy.linalg.eigvalsh`` (LAPACK's symmetric eigensolver) returns the
spectrum of the adjacency matrix; the energy is the sum of the absolute
eigenvalues.  Its error radius is an estimate, not a bound: a backward-stable
solver returns the exact spectrum of A + E with ||E|| of order
n * ||A|| * 2**-52, each eigenvalue then moves by at most ||E|| (Weyl), and
the radius sums that over the n eigenvalues.

``adjacency_spectrum`` also seeds the exact route: ``tables`` and the CLI's
``energy`` and ``diff`` pass it to ``roots.energy_of_poly``.  There the
eigenvalues only place brackets whose integer sign checks prove the
enclosures, and a bad eigenvalue only sends that route to its multiplicity
walk, so an exact energy never rests on LAPACK's accuracy and the two
routes, cross-checked against each other, stay independent.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph
from .roots import ConvergenceError, EnergyValue, check_tolerance


def adjacency_spectrum(g: Graph) -> np.ndarray:
    """LAPACK's eigenvalues of the adjacency matrix of g, ascending."""
    # shaped (n, n) so that the empty graph gives a 0 x 0 matrix and no eigenvalue
    return np.linalg.eigvalsh(np.array(g.adjacency_matrix(), float).reshape(g.n, g.n))


def energy_eigensolver(g: Graph, tol: float = 1e-8) -> EnergyValue:
    """Graph energy from the LAPACK spectrum of the adjacency matrix.

    The radius n * n * max|lambda| * 2**-52 is an estimate (Weyl plus
    LAPACK's backward error); ConvergenceError if it exceeds ``tol``.
    """
    check_tolerance(tol)
    magnitudes = np.abs(adjacency_spectrum(g))
    radius = g.n * g.n * float(magnitudes.max(initial=0.0)) * 2.0 ** -52
    if radius > tol:
        raise ConvergenceError(
            "error estimate %.3e exceeds requested tolerance %.1e" % (radius, tol)
        )
    return EnergyValue(float(magnitudes.sum()), radius)
