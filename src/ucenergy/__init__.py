"""Graph-energy workbench for unicyclic graphs.

Exact characteristic polynomials, rigorous root-enclosure energies with
eigensolver and Coulson-integral cross-routes, closed-form verification of
the lollipop comparison machinery, machine-checked sign certificates for its
polynomial inequalities, and an isomorphism-free exhaustive search over
unicyclic graphs.
"""

from .charpoly import charpoly, charpoly_reference
from .closedforms import (
    ClosedFormSample,
    check_modulus_forms,
    closed_form_sample,
    f_factored,
    modulus_sq_p6,
    modulus_sq_pt,
    pq_pair,
)
from .coulson import cycle_energy_reference, energy_coulson, energy_diff_coulson
from .certify import (
    Refutation,
    SignCertificate,
    certify_poly_sign,
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
    unique_cycle,
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
    "ClosedFormSample",
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
    "closed_form_sample",
    "count_unicyclic",
    "certify_poly_sign",
    "certify_radical_sign",
    "cycle_energy_reference",
    "energy_coulson",
    "energy_diff_coulson",
    "energy_eigensolver",
    "energy_of_poly",
    "f_factored",
    "format_graph6",
    "make_cycle",
    "make_cycle_with_pendants",
    "make_lollipop",
    "make_path",
    "max_energy_search",
    "modulus_sq_p6",
    "modulus_sq_pt",
    "parse_graph6",
    "pq_pair",
    "rooted_trees",
    "run_claim_suite",
    "unicyclic_graphs",
    "unique_cycle",
    "verify_certificate",
]
