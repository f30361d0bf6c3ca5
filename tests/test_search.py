"""The exhaustive search: phi from the bracelet word, the Coulson-bracket
filter, the ranking and worker-pool sizing."""

import importlib
import random
import subprocess
import sys

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import ucenergy.search as search
from oracles import (
    bracket_coefficients,
    bracket_dominates,
    gaussian_of,
    search_enclose_all,
    search_from_graphs,
)
from ucenergy import enumeration
from ucenergy.charpoly import charpoly, coefficient_bits, phi_from_gaussian, phi_gaussian
from ucenergy.enumeration import (
    UnicyclicCode,
    count_unicyclic,
    realize,
    unicyclic_graphs,
    unicyclic_words,
)
from ucenergy.graphs import Graph
from ucenergy.roots import energy_of_poly
from ucenergy.search import max_energy_search, search_with_stats

charpoly_module = importlib.import_module("ucenergy.charpoly")


def test_worker_count_is_capped(monkeypatch):
    sizes = []

    class RecordingPool:  # runs in process; only records the requested size
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    serial, stats = search_with_stats(6)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
    assert max_energy_search(6, jobs=10**6) == serial
    assert max_energy_search(6, jobs=3) == serial
    monkeypatch.setattr(search.os, "cpu_count", lambda: 64)
    assert max_energy_search(6, jobs=10**6) == serial
    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    assert max_energy_search(6, jobs=10**6) == serial
    # the pool maps over the spectra left after the bracket filter
    assert 1 < stats.enclosed < stats.graphs
    assert sizes == [4, 3, stats.enclosed]


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_is_rejected(jobs):
    with pytest.raises(ValueError):
        max_energy_search(6, jobs=jobs)


def test_two_workers_match_serial():
    assert max_energy_search(6, jobs=2) == max_energy_search(6)


def test_importing_the_package_loads_no_process_pool(cli_env):
    # the pool is imported only by a search that starts one
    script = (
        "import sys, ucenergy; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=cli_env,
    ).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("top_k", [1, 2, 5, 10, 500])
@pytest.mark.parametrize("n", range(3, 11))
def test_search_equals_enclosing_every_spectrum(n, top_k):
    assert max_energy_search(n, top_k) == search_enclose_all(n, top_k)


def _packed(bracket, n):
    """M_0 .. M_n of a ``bracket_coefficients`` tuple, as a bracket key."""
    w = 2 * coefficient_bits(n) + 2
    return sum((m + (1 << (w - 2))) << w * i for i, m in enumerate(reversed(bracket)))


@pytest.mark.parametrize("n", range(3, 12))
def test_word_phi_equals_the_graph_route(n):
    # trees on at most n // 2 vertices take the memoised pair, larger ones
    # are folded when a word holds them; both kinds must occur
    alphabet, words = unicyclic_words(n)
    bits = coefficient_bits(n) + 1
    sizes = set()
    seen = 0
    for (l, word), z in search._word_spectra(n, alphabet, words):
        code = UnicyclicCode.of_word(l, word, alphabet)
        coeffs = charpoly(realize(code)).coeffs
        assert z == gaussian_of(coeffs), code
        assert phi_from_gaussian(z, n, bits).coeffs == coeffs, code
        assert search._bracket_key(z, n) == _packed(bracket_coefficients(coeffs), n), code
        sizes.update(len(alphabet[j]) > n // 2 for j in word)
        seen += 1
    assert seen == count_unicyclic(n)
    assert sizes == ({False, True} if n >= 5 else {False})


def test_the_search_builds_no_graph_and_runs_no_charpoly(monkeypatch):
    def forbidden(*args):
        raise AssertionError("graph route taken")

    for module, name in (
        (enumeration, "realize"),
        (enumeration, "unicyclic_graphs"),
        (charpoly_module, "charpoly"),
    ):
        original = getattr(module, name)
        for mod in [m for key, m in sys.modules.items() if key.startswith("ucenergy")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, forbidden)
    ranked, stats = search_with_stats(9)
    assert str(ranked[0].code) == "U[l=9|.,.,.,.,.,.,.,.,.]"
    assert stats.graphs == count_unicyclic(9)


@pytest.mark.parametrize("n", range(3, 11))
def test_the_search_equals_the_graph_stream(n):
    several = False
    for top_k in (1, 5, 50):
        assert search_with_stats(n, top_k) == search_from_graphs(n, top_k)
        # the filter keeps every code of a cospectral class, in arrival order
        alphabet, words = unicyclic_words(n)
        tags_of, _ = search._undominated(search._word_spectra(n, alphabet, words), top_k + 1, n)
        graphs = ((code, gaussian_of(charpoly(g).coeffs)) for code, g in unicyclic_graphs(n))
        codes_of, _ = search._undominated(graphs, top_k + 1, n)
        assert {
            c: [UnicyclicCode.of_word(l, word, alphabet) for l, word in tags]
            for c, tags in tags_of.items()
        } == codes_of
        several |= any(len(codes) > 1 for codes in codes_of.values())
    assert several or n < 8


@pytest.mark.parametrize("n", [8, 9])
def test_a_loose_search_re_encloses_exactly_the_overlapping_spectra(n):
    # at tol 0.5 most enclosures overlap, many of them not as neighbours;
    # top_k = 500 keeps every spectrum, so the oracle's all-pairs test must
    # pick the same spectra to enclose again, or some energy differs
    assert max_energy_search(n, 500, 0.5) == search_enclose_all(n, 500, 0.5)


def test_stats_count_the_filter():
    _, stats = search_with_stats(8)
    assert stats == search.SearchStats(
        graphs=89, held_max=10, compared=740, dropped=78, enclosed=10, tie_refinements=0
    )


@pytest.mark.parametrize("n, spectra", [(6, 13), (8, 84)])
def test_a_filter_that_can_drop_nothing_tests_every_pair_both_ways(n, spectra):
    # top_k + 1 is at least the number of spectra, so no spectrum reaches
    # top_k + 1 dominators: each arrival tests every member of K once for
    # its own count and once for theirs, and nothing is dropped
    assert len({charpoly(g).coeffs for _, g in unicyclic_graphs(n)}) == spectra
    for top_k in (spectra, spectra - 1):
        _, stats = search_with_stats(n, top_k)
        assert stats.compared == spectra * (spectra - 1)
        assert stats.dropped == 0 and stats.enclosed == stats.held_max == spectra


@pytest.mark.parametrize("top_k", [1, 2, 5, 10])
@pytest.mark.parametrize("n", [7, 9])
def test_filter_keeps_exactly_the_spectra_with_at_most_k_dominators(n, top_k):
    # the rank-k tie flag reads entry k + 1, so a spectrum goes only when
    # k + 1 others dominate it; all pairs are compared here with the tuple
    # brackets, not just the spectra the filter kept, and the stream
    # arrives in code order and shuffled
    pairs = [(code, charpoly(g).coeffs) for code, g in unicyclic_graphs(n)]
    spectra = {coeffs for _, coeffs in pairs}
    keys = {c: bracket_coefficients(c) for c in spectra}
    expected = {
        gaussian_of(c): sorted((code for code, coeffs in pairs if coeffs == c), key=str)
        for c in spectra
        if sum(bracket_dominates(keys[h], keys[c]) for h in spectra) <= top_k
    }
    pairs = [(code, gaussian_of(coeffs)) for code, coeffs in pairs]
    orders = [pairs] + [random.Random(seed).sample(pairs, len(pairs)) for seed in range(3)]
    for order in orders:
        kept, counts = search._undominated(order, top_k + 1, n)
        assert {c: sorted(codes, key=str) for c, codes in kept.items()} == expected
        assert counts["graphs"] == len(pairs)
        assert len(expected) <= counts["held_max"] < len(spectra)
        assert counts["dropped"] >= len(spectra) - len(expected)
    _, stats = search_with_stats(n, top_k)
    assert stats.enclosed == len(expected)


def _digits(key, n):
    """The n + 1 base-2**w digits of a bracket key, bias removed: M_0 .. M_n."""
    w = 2 * coefficient_bits(n) + 2
    return [((key >> w * i) & ((1 << w) - 1)) - (1 << (w - 2)) for i in range(n + 1)]


def _bracket_of(code_text, n):
    for code, graph in unicyclic_graphs(n):
        if str(code) == code_text:
            coeffs = charpoly(graph).coeffs
            return search._bracket_key(gaussian_of(coeffs), n), bracket_coefficients(coeffs)
    raise KeyError(code_text)


def test_a_singular_bracket_is_padded_before_comparison():
    # phi of the first graph has a zero root, so its bracket has degree 10,
    # not 12, and the key's digit M_0 = c_0**2 is 0.  Compared without that
    # digit, its six coefficients all exceed those of the second bracket,
    # yet the second graph has more energy (7.3006 against 7.1917) and is
    # among the top 6 at n = 6.
    (low, low_tuple), (high, high_tuple) = (
        _bracket_of("U[l=3|.,.,0-1-2-2]", 6),
        _bracket_of("U[l=3|0-1,0-1,0-1]", 6),
    )
    low_digits, high_digits = _digits(low, 6), _digits(high, 6)
    assert low_digits[::-1] == list(low_tuple) and high_digits[::-1] == list(high_tuple)
    assert low_digits[0] == 0 < high_digits[0]
    assert all(a >= b for a, b in zip(low_digits[1:], high_digits[1:]))
    guard = search._guard(6)
    assert not search._dominates(low, high, guard)
    assert not search._dominates(high, low, guard)
    top = [str(r.code) for r in max_energy_search(6, top_k=6)]
    assert "U[l=3|0-1,0-1,0-1]" in top


def test_a_bracket_beyond_the_digit_bound_raises():
    # sum |c_k| < 2**(b - 2) holds for every unicyclic spectrum; past it a
    # digit could leave its range, so the key is refused.  For odd l and
    # for l = 2 (mod 4) that sum is the digit sum of P + 2C.
    n = 6
    limit = 1 << (coefficient_bits(n) - 2)
    x = 1 << (coefficient_bits(n) + 1)
    for l in (3, 5, 6):

        def z(digit_sum):  # P = x**6 + a * x**2 and C = x**(6 - l): 1 + a + 2
            return phi_gaussian(x**6 + (digit_sum - 3) * x**2, x ** (n - l), l)

        search._bracket_key(z(limit - 1), n)  # accepted
        with pytest.raises(OverflowError):
            search._bracket_key(z(limit), n)
    with pytest.raises(OverflowError):  # Re z of a unicyclic graph is never negative
        search._bracket_key((-1, 0), n)


@st.composite
def unicyclic_pairs(draw):
    """Two random unicyclic graphs of one order n <= 12."""
    n = draw(st.integers(3, 12))

    def graph():
        cycle = draw(st.integers(3, n))
        edges = [(i, (i + 1) % cycle) for i in range(cycle)]
        edges += [(draw(st.integers(0, v - 1)), v) for v in range(cycle, n)]
        return Graph.from_edges(n, edges)

    return graph(), graph()


@given(unicyclic_pairs())
def test_packed_dominance_equals_tuple_dominance(pair):
    g, h = (charpoly(graph).coeffs for graph in pair)
    n = len(g) - 1
    guard = search._guard(n)
    packed = search._bracket_key(gaussian_of(g), n), search._bracket_key(gaussian_of(h), n)
    tuples = bracket_coefficients(g), bracket_coefficients(h)
    assert search._dominates(*packed, guard) == bracket_dominates(*tuples)
    assert search._dominates(*packed[::-1], guard) == bracket_dominates(*tuples[::-1])
    assert (packed[0] == packed[1]) == (tuples[0] == tuples[1])


@given(unicyclic_pairs())
def test_bracket_dominance_orders_the_enclosures(pair):
    h, g = sorted(
        map(charpoly, pair), key=lambda p: sum(bracket_coefficients(p.coeffs)), reverse=True
    )
    n = h.degree
    keys = (search._bracket_key(gaussian_of(p.coeffs), n) for p in (h, g))
    assume(search._dominates(*keys, search._guard(n)))
    e_h, e_g = energy_of_poly(h), energy_of_poly(g)
    assert e_h.value + e_h.radius >= e_g.value - e_g.radius


@pytest.mark.parametrize("n, top_k, tol", [(10, 5, 0.5), (10, 3, 0.1), (8, 10, 0.5)])
def test_a_loose_tolerance_ranks_as_a_tight_one(n, top_k, tol):
    # each case has codes of different spectra whose loose enclosures
    # overlap; every such spectrum is enclosed again, not just the ones
    # that happen to be adjacent in the coarse order
    loose, stats = search_with_stats(n, top_k, tol)
    tight = max_energy_search(n, top_k)
    assert [(r.code, r.tied) for r in loose] == [(r.code, r.tied) for r in tight]
    assert stats.tie_refinements > 0


def test_every_code_of_a_spectrum_carries_one_enclosure():
    spectrum = {code: charpoly(g).coeffs for code, g in unicyclic_graphs(8)}
    energy_of = {}
    ranked = max_energy_search(8, 20, 0.1)
    for r in ranked:
        assert energy_of.setdefault(spectrum[r.code], r.energy) == r.energy
    assert len(energy_of) < len(ranked)  # some spectrum has several codes
