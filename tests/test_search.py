"""Worker-pool sizing of the exhaustive search."""

import pytest

import ucenergy.search as search
from ucenergy.charpoly import charpoly
from ucenergy.enumeration import unicyclic_graphs
from ucenergy.search import max_energy_search


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

    monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingPool)
    serial = max_energy_search(6)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
    assert max_energy_search(6, jobs=10**6) == serial
    assert max_energy_search(6, jobs=3) == serial
    monkeypatch.setattr(search.os, "cpu_count", lambda: 64)
    assert max_energy_search(6, jobs=10**6) == serial
    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    assert max_energy_search(6, jobs=10**6) == serial
    spectra = len({charpoly(g) for _, g in unicyclic_graphs(6)})
    assert sizes == [4, 3, spectra]


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_is_rejected(jobs):
    with pytest.raises(ValueError):
        max_energy_search(6, jobs=jobs)


def test_two_workers_match_serial():
    assert max_energy_search(6, jobs=2) == max_energy_search(6)
