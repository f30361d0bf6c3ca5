"""Graph-energy workbench for unicyclic graphs.

Exact characteristic polynomials, rigorous root-enclosure energies with
eigensolver and Coulson-integral cross-routes, the exact lollipop comparison
algebra in z, where x = z - 1/z, with its closed forms checked as identities
against exact characteristic polynomials and Sturm sign certificates for its
polynomial inequalities, and an isomorphism-free exhaustive search over
unicyclic graphs.
"""

from .charpoly import charpoly, charpoly_reference
from .coulson import energy_coulson, energy_diff_coulson
from .certify import (
    Refutation,
    SignCertificate,
    certify_poly_sign,
    check_modulus_forms,
    certify_radical_sign,
    run_claim_suite,
    verify_certificate,
)
from .eigensolver import energy_eigensolver
from .enumeration import UnicyclicCode, count_unicyclic, unicyclic_graphs
from .graphs import (
    Graph,
    GraphError,
    Graph6Error,
    format_graph6,
    make_cycle,
    make_cycle_with_pendants,
    make_lollipop,
    make_path,
    parse_graph6,
)
from .polynomials import IntPolynomial
from .roots import (
    ConvergenceError,
    EnergyValue,
    RootEnclosure,
    energy_of_poly,
)
from .search import RankedEntry, max_energy_search
from .trees import rooted_trees

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "EnergyValue",
    "Graph",
    "Graph6Error",
    "GraphError",
    "IntPolynomial",
    "RankedEntry",
    "Refutation",
    "RootEnclosure",
    "SignCertificate",
    "UnicyclicCode",
    "charpoly",
    "charpoly_reference",
    "check_modulus_forms",
    "count_unicyclic",
    "certify_poly_sign",
    "certify_radical_sign",
    "energy_coulson",
    "energy_diff_coulson",
    "energy_eigensolver",
    "energy_of_poly",
    "format_graph6",
    "make_cycle",
    "make_cycle_with_pendants",
    "make_lollipop",
    "make_path",
    "max_energy_search",
    "parse_graph6",
    "rooted_trees",
    "run_claim_suite",
    "unicyclic_graphs",
    "verify_certificate",
]
