"""The paper's artefacts: the exhaustive-search winners and golden tables 1-3."""

import csv
from pathlib import Path

import pytest

import ucenergy
from ucenergy.charpoly import charpoly
from ucenergy.enumeration import count_unicyclic
from ucenergy.graphs import make_cycle, make_lollipop
from ucenergy.roots import energy_of_poly
from ucenergy.search import search_with_stats
from ucenergy.tables import TOLERANCE, compute_table

# The cycle wins for n = 3, 5, 6, 7, 9, 10, 11, 13.  At n = 4 the paw L(4,3) wins
# (4.962389 against C_4's 4.0), and at n = 8 and 12 the lollipop
# L(n,6) = P_n^6.
WINNERS = {n: ("U[l=%d|%s]" % (n, ",".join("." * n)), make_cycle(n)) for n in range(3, 14)}
WINNERS[4] = ("U[l=3|.,.,0-1]", make_lollipop(4, 3))
WINNERS[8] = ("U[l=6|.,.,.,.,.,0-1-2]", make_lollipop(8, 6))
WINNERS[12] = ("U[l=6|.,.,.,.,.,0-1-2-3-4-5-6]", make_lollipop(12, 6))


@pytest.mark.parametrize("n", sorted(WINNERS))
def test_search_winner(n):
    code, graph = WINNERS[n]
    ranked, stats = search_with_stats(n)
    # the search saw as many graphs as there are classes: it was exhaustive
    assert stats.graphs == count_unicyclic(n)
    top = ranked[0]
    assert str(top.code) == code
    assert not top.tied
    # the code names the graph: same energy as the graph built directly
    direct = energy_of_poly(charpoly(graph))
    assert abs(top.energy.value - direct.value) <= top.energy.radius + direct.radius


@pytest.mark.parametrize("table_id, cells", [(1, 7), (2, 47), (3, 12)])
def test_golden_table(table_id, cells):
    rows = compute_table(table_id)
    assert len(rows) == cells
    worst = max(rows, key=lambda r: r.deviation)
    assert worst.deviation <= TOLERANCE, worst
    # one row per record of the CSV, in its order; table 1's rows are at n = 17
    path = Path(ucenergy.__file__).parent / "data" / ("table%d.csv" % table_id)
    with open(path, newline="") as handle:
        records = [r for r in csv.reader(handle) if not r[0].startswith("#")]
    expected = [(17, int(r[0])) if table_id == 1 else (int(r[0]), int(r[1])) for r in records]
    assert [(r.n, r.t) for r in rows] == expected


@pytest.mark.parametrize("n", [31, 40, 49, 60])
def test_lollipop_six_beats_the_cycle_and_odd_lollipops(n):
    # the theorem beyond the golden tables: for these n, L(n,6) = P_n^6 has
    # more energy than C_n and every L(n,t) with t odd, and the exact
    # enclosures are disjoint
    best = energy_of_poly(charpoly(make_lollipop(n, 6)))
    rivals = [make_cycle(n)] + [make_lollipop(n, t) for t in range(3, n, 2)]
    for graph in rivals:
        other = energy_of_poly(charpoly(graph))
        assert best.value - best.radius > other.value + other.radius, graph
