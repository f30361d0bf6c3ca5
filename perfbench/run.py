"""Benchmark of ucenergy: four workloads, end to end or traced by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 28 --trace 0

Each repetition is a fresh interpreter (``perfbench/rep.py``), so every
cache (the forest memo, the ``lru_cache`` on the enumeration codes and on
the table energies) starts cold, as it does for each CLI call.  Repetitions
run one after another until ``--seconds`` is used up, at least
``MIN_REPS`` of them.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones; there the first repetition runs untraced and the rest
traced.  Over the repetitions, a time is summarised by its 90th percentile
and anything else by its median.  The line before it
records the run's context and every sample.  The exit code is 0 when every
check passed, 1 when one failed, and 2 when the checkout has no ucenergy
source to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

MIN_REPS = 3
DEADLINE_S = 170.0  # whole run, below the 180 s a run may take

SEED_NOTES = {
    "search": "exhaustive over n = 3..8; the seed changes nothing",
    "census": "the seed draws the 20 graphs checked against charpoly_reference",
    "enumerate": "exhaustive count at n = 14; the seed changes nothing",
    "paper": "the seed draws the 4 random unicyclic graphs on 24 vertices",
}

COLD_CACHE_POLICY = (
    "every repetition is a fresh interpreter: charpoly._FOREST_MEMO, the "
    "lru_cache on enumeration._codes and on tables._energy start empty"
)


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "ucenergy" / "__init__.py").is_file():
        print("no ucenergy source under %s/src; run from a checkout root" % root, file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    reps, crashes = [], []
    while len(reps) + len(crashes) < MIN_REPS or _time_for_another(started, reps, args.seconds):
        traced = args.trace == 1 and len(reps) + len(crashes) > 0
        rep, error = _repetition(root, args.workload, args.seed, traced, started)
        if rep is None:
            crashes.append(error)
        else:
            rep["traced"] = traced
            reps.append(rep)
        if time.monotonic() - started > DEADLINE_S - 10:
            break

    # a crashed repetition is one failed check; one more check compares the
    # results of all repetitions, traced and untraced
    attempted = sum(r["attempted"] for r in reps) + len(crashes) + 1
    failures = [f for r in reps for f in r["failures"]] + crashes
    if len({r["digest"] for r in reps}) != 1:
        failures.append("results differ between repetitions (traced or not)")

    plain = [r for r in reps if not r["traced"]]
    if args.trace == 1:
        metrics = _layer_metrics(spec["per_layer"], [r for r in reps if r["traced"]], plain)
    else:
        metrics = _end_to_end_metrics(spec["end_to_end"], plain, attempted, len(failures))
    _print_context(root, args, reps, attempted, failures)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 1 if failures else 0


def _time_for_another(started: float, reps: list, seconds: float) -> bool:
    if not reps:
        return False
    elapsed = time.monotonic() - started
    return elapsed + elapsed / len(reps) <= seconds


def _repetition(root: Path, workload: str, seed: int, traced: bool, started: float):
    """Run one fresh interpreter; returns (result, None) or (None, error)."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - started))
    cmd = [
        sys.executable,
        str(root / "perfbench" / "rep.py"),
        workload,
        str(seed),
        "1" if traced else "0",
    ]
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + [repr(spawn)], cwd=root, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, "%s repetition timed out after %.0f s" % (workload, timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        return None, "%s repetition exited %d: %s" % (workload, proc.returncode, last)
    return json.loads(lines[-1]), None


def _summary(values: list, unit: str) -> float:
    """90th percentile of a time, median of anything else (see NOTES.md)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    if unit == "s":
        return statistics.quantiles(values, n=10, method="inclusive")[-1]
    return statistics.median(values)


def _end_to_end_metrics(specs: list, reps: list, attempted: int, failed: int) -> dict:
    values = {"pass_rate": (attempted - failed) / attempted}
    for m in specs:
        if m["name"] not in values:
            values[m["name"]] = _summary([r[m["name"]] for r in reps], m["unit"])
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def _layer_metrics(specs: list, traced: list, plain: list) -> dict:
    traced_wall = _summary([r["wall_s"] for r in traced], "s")
    values = {
        "traced.wall_s": traced_wall,
        "traced.overhead_s": traced_wall - _summary([r["wall_s"] for r in plain], "s"),
    }
    for m in specs:
        if m["name"] not in values:
            values[m["name"]] = _summary([r["layers"].get(m["name"], 0) for r in traced], m["unit"])
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def _print_context(root: Path, args, reps: list, attempted: int, failures: list) -> None:
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_note": SEED_NOTES[args.workload],
        "trace": args.trace,
        "repetitions": len(reps),
        "git_rev": _git_rev(root),
        "src_sha256": _source_digest(root),
        "python": platform.python_version(),
        "numpy": reps[0]["numpy"] if reps else None,
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": 1,
        "cold_cache_policy": COLD_CACHE_POLICY,
        "checks_attempted": attempted,
        "checks_failed": len(failures),
        "failures": failures[:20],
        "medians": {
            key: statistics.median(r[key] for r in reps) if reps else None
            for key in ("wall_s", "setup_s", "peak_rss_mb")
        },
        "samples": {
            key: [r[key] for r in reps] for key in ("wall_s", "setup_s", "peak_rss_mb")
        },
        "traced": [r["traced"] for r in reps],
    }
    print(json.dumps(context))


def _git_rev(root: Path):
    if not (root / ".git").exists():
        return None  # the benchmark also runs in exported trees
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() or None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "ucenergy").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
