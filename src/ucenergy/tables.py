"""Golden reference tables and their recomputation.

The three CSV assets hold the published reference values (5 printed
decimals), one table row per record:

    table1.csv  t, diff                   diff = E(L(17,t)) - E(L(17,6))
    table2.csv  n, t, diff                diff = E(L(n,t)) - E(L(n,6)), 6 <= n <= 16
    table3.csv  n, t, e_lollipop, e_cycle  E(L(n,t)) and E(C_n), odd n where C_n wins

Table 1 has no n column: its rows are at n = 17.  ``compute_table``
recomputes every cell from exact root enclosures, seeded by the adjacency
spectrum, and reports the deviation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .charpoly import charpoly
from .eigensolver import adjacency_spectrum
from .graphs import make_cycle, make_lollipop
from .roots import energy_of_poly

TOLERANCE = 5e-5  # the reference values carry 5 printed decimals


@dataclass(frozen=True)
class TableRow:
    n: int
    t: int
    golden: tuple[float, ...]
    computed: tuple[float, ...]

    @property
    def deviation(self) -> float:
        return max(abs(g - c) for g, c in zip(self.golden, self.computed))


@lru_cache(maxsize=None)
def _energy(kind: str, n: int, t: int = 0, tol: float = 1e-7) -> float:
    g = make_cycle(n) if kind == "cycle" else make_lollipop(n, t)
    return energy_of_poly(charpoly(g), tol, adjacency_spectrum(g)).value


def compute_table(table_id: int, tol: float = 1e-7) -> list[TableRow]:
    """Recompute every cell of a golden table via exact root enclosures."""
    if table_id not in (1, 2, 3):
        raise ValueError("table id must be 1, 2 or 3")
    text = resources.files("ucenergy.data").joinpath("table%d.csv" % table_id).read_text()
    rows: list[TableRow] = []
    for record in csv.reader(text.splitlines()):
        if not record or record[0].lstrip().startswith("#"):
            continue
        if table_id == 1:
            record = ["17"] + record
        n, t = int(record[0]), int(record[1])
        golden = tuple(float(cell) for cell in record[2:])
        lollipop = _energy("lolli", n, t, tol)
        if table_id == 3:
            computed = (lollipop, _energy("cycle", n, 0, tol))
        else:
            computed = (lollipop - _energy("lolli", n, 6, tol),)
        rows.append(TableRow(n, t, golden, computed))
    return rows
