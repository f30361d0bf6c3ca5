"""The benchmark's four workloads, each with the checks behind its result.

Every workload calls ucenergy's public API through module attributes looked
up at call time (``uc.charpoly``, ``tables.compute_table``), so the traced
run sees the same calls.  Each returns a JSON-able summary of its outputs;
the runner compares their digests across repetitions, traced and untraced.
"""

from __future__ import annotations

import importlib
import random

import ucenergy as uc

TOL = 1e-7  # requested accuracy of every energy, and the check tolerance

SEARCH_ORDERS = range(3, 9)
# The search's own winners at the seed commit.  At n = 4 the paw L(4,3)
# beats C_4 (4.962389 against 4.0); see NOTES.md.
_CYCLE = "U[l=%d|%s]"
SEARCH_WINNERS = {n: _CYCLE % (n, ",".join("." * n)) for n in SEARCH_ORDERS}
SEARCH_WINNERS[4] = "U[l=3|.,.,0-1]"  # L(4,3), the paw
SEARCH_WINNERS[8] = "U[l=6|.,.,.,.,.,0-1-2]"  # L(8,6) = P_8^6

CENSUS_ORDER = 11
CENSUS_GRAPHS = 1806  # OEIS A001429 at n = 11
CENSUS_SPECTRA = 1627
CENSUS_SAMPLE = 20

ENUMERATE_ORDER = 14
ENUMERATE_COUNT = 39260  # OEIS A001429 at n = 14

PAPER_CELLS = 66
PAPER_CLAIMS = 13
PAPER_RANDOM_ORDER = 24
PAPER_RANDOM_GRAPHS = 4
PAPER_SINGLE_ORDER = 50


class Checks:
    """Counts checks attempted and names the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def search(seed: int, checks: Checks) -> list:
    """Exhaustive max-energy search for n = 3..8; the seed changes nothing."""
    out = []
    for n in SEARCH_ORDERS:
        ranked = uc.max_energy_search(n, top_k=5, tol=TOL, jobs=1)
        top = ranked[0]
        checks.check(
            str(top.code) == SEARCH_WINNERS[n]
            and not top.tied
            and top.energy.radius <= TOL,
            "search n=%d winner %s tied=%s radius=%g"
            % (n, top.code, top.tied, top.energy.radius),
        )
        out.append(
            [n, [[str(r.code), r.energy.value, r.energy.radius, r.tied] for r in ranked]]
        )
    return out


def census(seed: int, checks: Checks) -> list:
    """Exact charpoly of every unicyclic graph on 11 vertices."""
    rng = random.Random(seed)
    sample = set(rng.sample(range(CENSUS_GRAPHS), CENSUS_SAMPLE))
    polys = []
    monic = True
    for i, (_, g) in enumerate(uc.unicyclic_graphs(CENSUS_ORDER)):
        p = uc.charpoly(g)
        polys.append(p.coeffs)
        monic = monic and p.degree == CENSUS_ORDER and p.leading == 1
        if i in sample:
            checks.check(p == uc.charpoly_reference(g), "census graph %d vs reference" % i)
    checks.check(len(polys) == CENSUS_GRAPHS, "census count %d" % len(polys))
    spectra = len(set(polys))
    checks.check(spectra == CENSUS_SPECTRA, "census distinct spectra %d" % spectra)
    checks.check(monic, "census monic of degree %d" % CENSUS_ORDER)
    return polys


def enumerate_(seed: int, checks: Checks) -> int:
    """Isomorphism-free count on 14 vertices; the seed changes nothing."""
    count = uc.count_unicyclic(ENUMERATE_ORDER)
    checks.check(count == ENUMERATE_COUNT, "enumerate count %d" % count)
    return count


def paper(seed: int, checks: Checks) -> list:
    """Golden tables, the claim suite, and three energy routes per graph."""
    tables = importlib.import_module("ucenergy.tables")
    out = []
    cells = 0
    for table_id in (1, 2, 3):
        for row in tables.compute_table(table_id, TOL):
            cells += 1
            checks.check(
                row.deviation <= tables.TOLERANCE,
                "table %d n=%d t=%d deviation %g" % (table_id, row.n, row.t, row.deviation),
            )
            out.append(row.computed)
    checks.check(cells == PAPER_CELLS, "table cells %d" % cells)

    report = uc.run_claim_suite()
    for r in report.results:
        checks.check(r.ok, "claim %s" % r.claim_id)
        out.append([r.claim_id, r.ok, r.evidence])
    checks.check(len(report.results) == PAPER_CLAIMS, "claims %d" % len(report.results))

    rng = random.Random(seed)
    n = PAPER_SINGLE_ORDER
    graphs = [("L(%d,6)" % n, uc.make_lollipop(n, 6)), ("C_%d" % n, uc.make_cycle(n))]
    for k in range(PAPER_RANDOM_GRAPHS):
        graphs.append(("random %d" % k, random_unicyclic(PAPER_RANDOM_ORDER, rng)))
    for name, g in graphs:
        exact = uc.energy_of_poly(uc.charpoly(g), TOL)
        eig = uc.energy_eigensolver(g)
        coulson = uc.energy_coulson(g, TOL)
        checks.check(exact.radius <= TOL, "%s exact radius %g" % (name, exact.radius))
        for route, e in (("eigensolver", eig), ("coulson", coulson)):
            checks.check(
                abs(e.value - exact.value) <= TOL,
                "%s %s off by %g" % (name, route, abs(e.value - exact.value)),
            )
        out.append([name, exact.value, eig.value, coulson.value])
    return out


def random_unicyclic(n: int, rng: random.Random):
    """A cycle of random length with a random recursive forest hung on it."""
    cycle = rng.randint(3, n)
    edges = [(i, (i + 1) % cycle) for i in range(cycle)]
    edges += [(rng.randrange(v), v) for v in range(cycle, n)]
    return uc.Graph.from_edges(n, edges)


WORKLOADS = {
    "search": search,
    "census": census,
    "enumerate": enumerate_,
    "paper": paper,
}
