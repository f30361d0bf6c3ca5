"""One repetition of one workload, in a fresh interpreter.

Usage: python3 perfbench/rep.py WORKLOAD SEED TRACE SPAWN_TIME

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start plus ``import ucenergy``.
Nothing but ``sys``, ``time`` and ``os`` (all loaded at interpreter start) is
imported before ucenergy.  Prints one JSON line.
"""

import os
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
import ucenergy  # noqa: E402

SETUP_S = time.monotonic() - float(sys.argv[4])

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402


def main() -> None:
    workload, seed, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(ucenergy.__file__).startswith(src):
        sys.exit("ucenergy was imported from %s, not from %s" % (ucenergy.__file__, src))
    checks = Checks()
    tracer = Tracer() if traced else None
    summary = None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        summary = WORKLOADS[workload](seed, checks)
    except Exception as exc:  # a crash is one failed check, reported by name
        checks.check(False, "%s raised %s: %s" % (workload, type(exc).__name__, exc))
    wall_s = time.perf_counter() - start
    if tracer is not None:
        checks.check(tracer.restore(), "every traced wrapper restored")
    out = {
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "numpy": sys.modules["numpy"].__version__,
        "digest": hashlib.sha256(json.dumps(summary).encode()).hexdigest(),
    }
    if tracer is not None:
        out["layers"] = dict(tracer.metrics)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
