import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import graph6_reference, unique_cycle
from ucenergy.graphs import (
    Graph,
    Graph6Error,
    GraphError,
    connected_components,
    format_graph6,
    make_cycle,
    make_cycle_with_pendants,
    make_lollipop,
    make_path,
    parse_graph6,
)


def degrees(g):
    return sorted(len(g.neighbors(v)) for v in range(g.n))


def test_make_cycle():
    g = make_cycle(4)
    assert g.n == 4 and g.edge_count == 4
    assert degrees(g) == [2, 2, 2, 2]
    assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert make_cycle(3).edge_count == 3
    with pytest.raises(GraphError):
        make_cycle(2)


def test_make_path():
    assert make_path(1).edge_count == 0
    assert make_path(2).edge_count == 1
    assert degrees(make_path(5)) == [1, 1, 2, 2, 2]
    with pytest.raises(GraphError):
        make_path(0)


def test_make_lollipop():
    g = make_lollipop(7, 6)
    assert g.n == 7 and g.edge_count == 7
    assert degrees(g) == [1, 2, 2, 2, 2, 2, 3]
    assert make_lollipop(4, 3).edges == ((0, 1), (0, 2), (0, 3), (1, 2))
    assert make_lollipop(6, 6) == make_cycle(6)
    for bad in ((5, 2), (4, 5)):
        with pytest.raises(GraphError):
            make_lollipop(*bad)


def test_make_cycle_with_pendants():
    g = make_cycle_with_pendants(6, 4, [2, 0, 0, 0])
    assert g.n == 6 and g.edge_count == 6
    assert degrees(g).count(1) == 2
    assert make_cycle_with_pendants(4, 3, [1, 0, 0]) == make_lollipop(4, 3)
    with pytest.raises(GraphError):
        make_cycle_with_pendants(5, 4, [1, 1, 0, 0])


@given(st.integers(3, 12), st.data())
def test_lollipop_family_invariants(n, data):
    l = data.draw(st.integers(3, n))
    g = make_lollipop(n, l)
    assert len(connected_components(g)) == 1
    assert g.edge_count == n
    cycle = unique_cycle(g)
    assert cycle is not None and len(cycle) == l


@given(st.integers(3, 10), st.data())
def test_pendant_family_has_right_leaf_count(n, data):
    l = data.draw(st.integers(3, n))
    placements = data.draw(
        st.lists(st.integers(0, l - 1), min_size=n - l, max_size=n - l)
    )
    weights = [placements.count(i) for i in range(l)]
    g = make_cycle_with_pendants(n, l, weights)
    assert degrees(g).count(1) == n - l


def test_unique_cycle():
    assert unique_cycle(make_path(5)) is None
    assert unique_cycle(make_cycle(9)) == list(range(9))
    got = unique_cycle(make_lollipop(7, 6))
    assert got is not None and sorted(got) == [0, 1, 2, 3, 4, 5]
    # disconnected graphs with n edges are not unicyclic: C3 + C3 has a
    # 2-core of two cycles, (K4 - e) + K1 a core with degree-3 vertices
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert unique_cycle(g) is None
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert unique_cycle(g) is None
    # a path component beside a core with degree-3 vertices
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (4, 5), (5, 6)])
    assert unique_cycle(g) is None


def test_connected_components():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    assert connected_components(g) == [[0, 1], [2, 3], [4]]


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 5)])


# -- graph6 -----------------------------------------------------------------


def test_graph6_matches_reference_encoder():
    for g in (make_cycle(5), make_cycle(4), make_lollipop(7, 3), make_path(9)):
        assert format_graph6(g) == graph6_reference(g.n, g.edges)


def test_graph6_known_values():
    # C_4 with edges 01,12,23,03 packs to 'Cl'
    assert format_graph6(make_cycle(4)) == "Cl"
    parsed = parse_graph6("Cl")
    assert degrees(parsed) == [2, 2, 2, 2]


def test_graph6_error_offsets():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("C")  # order says 4, body missing
    assert exc.value.offset == 1
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("Cl~")
    with pytest.raises(Graph6Error):
        parse_graph6("C" + chr(1))


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, chosen)


@given(graphs())
def test_graph6_round_trip(g):
    encoded = format_graph6(g)
    back = parse_graph6(encoded)
    assert back == g
    assert format_graph6(back) == encoded


@given(graphs(max_n=9))
def test_graph6_reference_agreement_random(g):
    assert format_graph6(g) == graph6_reference(g.n, g.edges)
