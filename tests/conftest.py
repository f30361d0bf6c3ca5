import os
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "workbench",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("workbench")


@pytest.fixture(scope="session")
def unicyclic_by_order():
    """All unicyclic graphs per order, shared across the suite."""
    from ucenergy.enumeration import unicyclic_graphs

    return {n: list(unicyclic_graphs(n)) for n in range(3, 9)}


@pytest.fixture(scope="session")
def claim_report():
    from ucenergy.certify import run_claim_suite

    return run_claim_suite()


@pytest.fixture
def cli_env():
    """Environment for a subprocess that imports ucenergy: the source tree
    this suite imports the package from goes ahead of PYTHONPATH."""
    import ucenergy

    src = str(Path(ucenergy.__file__).parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
