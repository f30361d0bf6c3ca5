"""Golden reference tables and their recomputation.

The three CSV assets hold the published reference values (5 printed
decimals): the t-sweep of energy differences at order 17, the full
(n, t) difference grid for 6 <= n <= 16, and the lollipop/cycle energies at
the odd orders where the cycle wins.  ``compute_table`` recomputes every
cell from exact root enclosures, seeded by the adjacency spectrum, and
reports the deviation.
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


def _read_csv(name: str) -> list[list[str]]:
    text = resources.files("ucenergy.data").joinpath(name).read_text()
    rows = []
    for record in csv.reader(text.splitlines()):
        if not record or record[0].lstrip().startswith("#"):
            continue
        rows.append(record)
    return rows


@lru_cache(maxsize=None)
def _energy(kind: str, n: int, t: int = 0, tol: float = 1e-7) -> float:
    g = make_cycle(n) if kind == "cycle" else make_lollipop(n, t)
    return energy_of_poly(charpoly(g), tol, adjacency_spectrum(g)).value


def load_table(table_id: int) -> list[tuple]:
    """Raw golden rows: table 1 -> (t, diff); 2 -> (n, t, diff);
    3 -> (n, t, e_lollipop, e_cycle)."""
    if table_id == 1:
        return [(int(r[0]), float(r[1])) for r in _read_csv("table1.csv")]
    if table_id == 2:
        return [(int(r[0]), int(r[1]), float(r[2])) for r in _read_csv("table2.csv")]
    if table_id == 3:
        return [
            (int(r[0]), int(r[1]), float(r[2]), float(r[3]))
            for r in _read_csv("table3.csv")
        ]
    raise ValueError("table id must be 1, 2 or 3")


def compute_table(table_id: int, tol: float = 1e-7) -> list[TableRow]:
    """Recompute every cell of a golden table via exact root enclosures."""
    rows: list[TableRow] = []
    if table_id == 1:
        for t, golden in load_table(1):
            diff = _energy("lolli", 17, t, tol) - _energy("lolli", 17, 6, tol)
            rows.append(TableRow(17, t, (golden,), (diff,)))
    elif table_id == 2:
        for n, t, golden in load_table(2):
            diff = _energy("lolli", n, t, tol) - _energy("lolli", n, 6, tol)
            rows.append(TableRow(n, t, (golden,), (diff,)))
    elif table_id == 3:
        for n, t, e_lolli, e_cycle in load_table(3):
            rows.append(
                TableRow(
                    n,
                    t,
                    (e_lolli, e_cycle),
                    (_energy("lolli", n, t, tol), _energy("cycle", n, 0, tol)),
                )
            )
    else:
        raise ValueError("table id must be 1, 2 or 3")
    return rows

