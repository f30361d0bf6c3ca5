"""Command-line workbench: energies, differences, tables, search, certificates.

Graph selector syntax:
    C:<n>                cycle
    P:<n>                path
    L:<n>:<l>            lollipop (cycle of length l, pendant path, n total)
    CP:<n>:<l>:<a0,...>  cycle with pendant vertices per cycle position
    g6:<string>          graph6-encoded graph
    g6:-                 read graph6 strings from stdin, one per line

The order n of a C:, P:, L: or CP: selector is at most MAX_SELECTOR_ORDER =
500, checked before any graph is built (exit 2), so a mistyped order cannot
exhaust memory; graph6 stops at n = 62.  At n = 500 the slowest selector
measured, ``diff L:500:6 L:500:499 --method all``, takes 8.7 s and 57 MiB of
peak RSS on a 2-CPU x86-64 machine.  Above it the Coulson route soon
overflows a double (``energy C:750 --method coulson`` does), and the exact
route keeps growing: ``energy C:1000`` takes 2.8 s and 57 MiB,
``energy C:2000`` 13 s and 174 MiB.

The orders of ``search``, ``enumerate`` and ``closed-form-check`` are
capped the same way, before any work starts (exit 2, one line on stderr),
each from a measured run on the same machine:

* ``search --n`` is at most MAX_SEARCH_ORDER = 18: ``search --n 17`` took
  20 s and 64 MiB of peak RSS, ``search --n 18`` 56 s and 125 MiB; time
  and memory grow two- to threefold per order, with the classes and the
  alphabet of rooted trees.
* ``search --top`` is at most MAX_SEARCH_TOP = 100: the bracket filter
  holds at least top + 1 spectra and tests each class that arrives against
  them, so time grows about linearly with top, and a top above the number
  of classes keeps and encloses every spectrum.  ``search --n 18 --top
  100`` took 153 s and 125 MiB of peak RSS, against 56 s and 125 MiB at
  the default top of 5; at n = 15, ``--top 1000`` took 46 s and 38 MiB.
* ``enumerate --count-only --n`` is at most MAX_COUNT_ORDER = 500: Polya's
  count generates nothing, and took 5.7 s and 41 MiB at n = 500, 32 s and
  70 MiB at n = 800.
* ``enumerate --n`` without ``--count-only`` is at most MAX_LIST_ORDER = 16:
  csv, json and ``--emit g6`` write each class as it comes, and only text
  holds every row, for its column widths.  As csv, n = 15 took 16 s and
  35 MiB of peak RSS (75 MiB, and 166 MiB as json, while every row was
  held), and n = 16 53 s and 43 MiB; ``--emit g6`` took 36 s and 42 MiB at
  n = 16.  The time grows about threefold per order.
* ``closed-form-check --n`` is at most MAX_SELECTOR_ORDER = 500, the
  selector cap: every odd t up to n checks one lollipop, so the time grows
  about with n**3.  n = 300 took 5.0 s and 32 MiB of peak RSS, n = 500
  35 s and 44 MiB, n = 600 50 s and 54 MiB; n = 1200 ran for more than
  200 s.

``--tol`` (default 1e-7, positive and finite) is the accuracy each energy
is computed to.  Only ``energy``, ``diff``, ``table`` and ``search`` take
it; ``certify``, ``closed-form-check`` and ``enumerate`` compute no energy
and refuse it as an unknown option (exit 2).

Exit codes: 0 success, 2 bad selector or argument (any ValueError the
library raises for its input), 3 convergence failure, 4 golden-table
mismatch or a lollipop closed form that is not an identity in z, 5 refuted
certificate.  ``certify`` also exits 5, with one line on stderr and nothing
on stdout, when a certificate it would report fails its round trip through
``certificate_to_json`` and ``certificate_from_json`` or, read back, fails
``verify_certificate``.  A reader that closes standard output early
(``| head``) ends the command quietly with 0: the rest of the output is
dropped, and no traceback is printed.

``--format csv`` writes its rows with ``csv.writer``, so a cell that holds a
comma, such as a unicyclic code, is quoted.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from typing import Iterable

from .certify import (
    certificate_from_json,
    certificate_to_json,
    check_modulus_forms,
    run_claim_suite,
    verify_certificate,
)
from .charpoly import charpoly
from .coulson import energy_coulson, energy_diff_coulson
from .eigensolver import adjacency_spectrum, energy_eigensolver
from .enumeration import count_unicyclic, unicyclic_graphs
from .graphs import (
    Graph,
    GraphError,
    format_graph6,
    make_cycle,
    make_cycle_with_pendants,
    make_lollipop,
    make_path,
    parse_graph6,
)
from .roots import ConvergenceError, energy_of_poly
from .search import search_with_stats
from .tables import TOLERANCE, compute_table

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONVERGENCE = 3
EXIT_GOLDEN = 4
EXIT_REFUTED = 5

MAX_SELECTOR_ORDER = 500
MAX_SEARCH_ORDER = 18
MAX_SEARCH_TOP = 100
MAX_COUNT_ORDER = 500
MAX_LIST_ORDER = 16


class SpecError(ValueError):
    pass


def parse_graph_spec(spec: str) -> Graph:
    """Turn a textual selector into a Graph; raises SpecError on bad input."""
    try:
        kind, _, rest = spec.partition(":")
        if kind == "C":
            return make_cycle(_order(rest))
        if kind == "P":
            return make_path(_order(rest))
        if kind == "L":
            n_str, _, l_str = rest.partition(":")
            return make_lollipop(_order(n_str), int(l_str))
        if kind == "CP":
            n_str, l_str, counts = rest.split(":", 2)
            n = _order(n_str)
            attachment = [int(c) for c in counts.split(",")] if counts else []
            return make_cycle_with_pendants(n, int(l_str), attachment)
        if kind == "g6":
            return parse_graph6(rest)
    except (ValueError, GraphError) as exc:
        raise SpecError("bad graph selector %r: %s" % (spec, exc)) from exc
    raise SpecError("unknown selector kind in %r" % spec)


def _order(text: str) -> int:
    """A selector's order n, at most MAX_SELECTOR_ORDER."""
    return _capped(int(text), MAX_SELECTOR_ORDER)


def _capped(n: int, cap: int, what: str = "order") -> int:
    """n, or ValueError when it exceeds the cap."""
    if n > cap:
        raise ValueError("%s %d exceeds the limit %d" % (what, n, cap))
    return n


def _expand_specs(spec: str) -> list[tuple[str, Graph]]:
    if spec == "g6:-":
        out = []
        for line in sys.stdin:
            line = line.strip()
            if line:
                out.append(("g6:" + line, parse_graph_spec("g6:" + line)))
        return out
    return [(spec, parse_graph_spec(spec))]


# ---------------------------------------------------------------------------
# Output formatting.
# ---------------------------------------------------------------------------


def _emit(rows: Iterable[dict], columns: list[str], fmt: str) -> None:
    """Print the rows as a table.  csv and json write each row as it comes;
    only text, whose column widths depend on every row, holds them all."""
    if fmt == "json":  # as json.dumps(list(rows), indent=2), a row at a time
        sep = "[\n  "
        for row in rows:
            sys.stdout.write(sep + json.dumps(row, indent=2).replace("\n", "\n  "))
            sep = ",\n  "
        print("[]" if sep == "[\n  " else "\n]")
        return
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(row.get(c), full=True) for c in columns] for row in rows)
        return
    rows = list(rows)
    widths = {
        c: max(len(c), *(len(_cell(r.get(c))) for r in rows)) if rows else len(c)
        for c in columns
    }
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for row in rows:
        print("  ".join(_cell(row.get(c)).ljust(widths[c]) for c in columns))


def _cell(value, full: bool = False) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value) if full else "%.5f" % value
    return str(value)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_energy(args) -> int:
    rows = []
    # every selector is parsed before any energy is computed
    for label, g in [pair for spec in args.spec for pair in _expand_specs(spec)]:
        row = {"graph": label, "n": g.n, "m": g.edge_count}
        if args.method in ("exact", "all"):
            e = energy_of_poly(charpoly(g), args.tol, adjacency_spectrum(g))
            row["exact"] = e.value
            row["exact_radius"] = e.radius
        if args.method in ("eig", "all"):
            e = energy_eigensolver(g, args.tol)
            row["eig"] = e.value
        if args.method in ("coulson", "all"):
            e = energy_coulson(g, args.tol)
            row["coulson"] = e.value
        if args.method == "all":
            row["max_cross_dev"] = max(
                abs(row["exact"] - row["eig"]), abs(row["exact"] - row["coulson"])
            )
        rows.append(row)
    # from --method, not the rows, so an empty stdin still gets its header
    columns = ["graph", "n", "m"] + [
        c for c in ("exact", "exact_radius", "eig", "coulson", "max_cross_dev")
        if args.method == "all" or c.startswith(args.method)
    ]
    _emit(rows, columns, args.format)
    return EXIT_OK


def _cmd_diff(args) -> int:
    g1 = parse_graph_spec(args.spec1)
    g2 = parse_graph_spec(args.spec2)
    row = {"graph1": args.spec1, "graph2": args.spec2}
    if args.method in ("exact", "all"):
        e1 = energy_of_poly(charpoly(g1), args.tol / 2, adjacency_spectrum(g1))
        e2 = energy_of_poly(charpoly(g2), args.tol / 2, adjacency_spectrum(g2))
        row["exact"] = e1.value - e2.value
    if args.method in ("coulson", "all"):
        row["coulson"] = energy_diff_coulson(g1, g2, args.tol)
    _emit([row], list(row.keys()), args.format)
    return EXIT_OK


def _cmd_table(args) -> int:
    rows = compute_table(args.table_id, args.tol)
    failures = 0
    out = []
    for r in rows:
        ok = r.deviation <= TOLERANCE
        failures += 0 if ok else 1
        rec = {"n": r.n, "t": r.t}
        if len(r.golden) == 1:
            rec.update(golden=r.golden[0], computed=r.computed[0])
        else:
            rec.update(
                golden_lollipop=r.golden[0],
                computed_lollipop=r.computed[0],
                golden_cycle=r.golden[1],
                computed_cycle=r.computed[1],
            )
        rec.update(deviation=r.deviation, ok=ok)
        out.append(rec)
    _emit(out, list(out[0].keys()), args.format)
    if failures:
        print("%d cell(s) deviate beyond %g" % (failures, TOLERANCE), file=sys.stderr)
        return EXIT_GOLDEN
    return EXIT_OK


def _cmd_search(args) -> int:
    n = _capped(args.n, MAX_SEARCH_ORDER)
    top = _capped(args.top, MAX_SEARCH_TOP, "--top")
    ranked, stats = search_with_stats(n, top, args.tol, args.jobs)
    rows = [
        {
            "rank": r.rank,
            "code": str(r.code),
            "energy": r.energy.value,
            "radius": r.energy.radius,
            "tied": r.tied,
        }
        for r in ranked
    ]
    _emit(rows, ["rank", "code", "energy", "radius", "tied"], args.format)
    if args.stats:
        print(json.dumps(dataclasses.asdict(stats)), file=sys.stderr)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    if args.count_only:
        n = _capped(args.n, MAX_COUNT_ORDER)
        _emit([{"n": n, "count": count_unicyclic(n)}], ["n", "count"], args.format)
        return EXIT_OK
    n = _capped(args.n, MAX_LIST_ORDER)  # below graph6's limit of 62
    if n < 3:  # refused here: csv writes its header before the first class
        raise ValueError("unicyclic graphs need n >= 3, got %d" % n)
    if args.emit == "g6":
        for _, g in unicyclic_graphs(n):
            print(format_graph6(g))
        return EXIT_OK
    rows = (
        {"code": str(code), "cycle_len": code.cycle_len, "g6": format_graph6(g)}
        for code, g in unicyclic_graphs(n)
    )
    _emit(rows, ["code", "cycle_len", "g6"], args.format)
    return EXIT_OK


def _cmd_certify(args) -> int:
    report = run_claim_suite()
    wanted = [
        r
        for r in report.results
        if args.claim in ("all", r.claim_id, r.claim_id.split("/")[0])
    ]
    if not wanted:
        raise ValueError("no claim matches %r" % args.claim)
    rows = [
        {
            "claim": r.claim_id,
            "ok": r.ok,
            "evidence": r.evidence,
            "root_counts": ";".join("%s=%d" % rc for rc in r.root_counts),
            "detail": r.detail,
        }
        for r in wanted
    ]
    certificates = [c for r in wanted for c in r.certificates]
    dumps = [certificate_to_json(c) for c in certificates]
    for cert, text in zip(certificates, dumps):
        if not _reverified(cert, text):
            print(
                "ucenergy certify: certificate %s fails its JSON round trip or its "
                "re-verification" % cert.claim_id,
                file=sys.stderr,
            )
            return EXIT_REFUTED
    _emit(rows, ["claim", "ok", "evidence", "root_counts", "detail"], args.format)
    if args.dump_certificates:
        for text in dumps:
            print(text)
    if not all(r.ok for r in wanted):
        return EXIT_REFUTED
    return EXIT_OK


def _reverified(cert, text: str) -> bool:
    """Whether text, the JSON of cert, reads back as cert and the copy read
    back passes ``verify_certificate``."""
    try:
        again = certificate_from_json(text)
    except (ValueError, KeyError, TypeError):  # what a malformed document raises
        return False
    return again == cert and verify_certificate(again)


def _cmd_closed_form_check(args) -> int:
    n = _capped(args.n, MAX_SELECTOR_ORDER)
    rows = [
        {"family": c.family, "t": c.t, "ok": c.ok}
        for c in check_modulus_forms(n, args.t)
    ]
    _emit(rows, ["family", "t", "ok"], args.format)
    failed = sum(not r["ok"] for r in rows)
    if failed:
        print("%d closed form(s) are not identities in z" % failed, file=sys.stderr)
        return EXIT_GOLDEN
    return EXIT_OK


def positive_float(text: str) -> float:
    """argparse type for --tol: a finite float > 0, else a usage error (exit 2)."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be positive and finite, got %r" % text)
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "csv", "json"), default="text")
    # only the commands that compute energies take a tolerance
    tolerant = argparse.ArgumentParser(add_help=False, parents=[common])
    tolerant.add_argument("--tol", type=positive_float, default=1e-7)

    parser = argparse.ArgumentParser(
        prog="ucenergy",
        description="Graph-energy workbench for unicyclic graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "energy", parents=[tolerant], help="energies of graphs, one row each (or stdin batch)"
    )
    p.add_argument("spec", nargs="+")
    p.add_argument("--method", choices=("exact", "eig", "coulson", "all"), default="exact")
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("diff", parents=[tolerant], help="energy difference of two graphs")
    p.add_argument("spec1")
    p.add_argument("spec2")
    p.add_argument("--method", choices=("exact", "coulson", "all"), default="exact")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("table", parents=[tolerant], help="recompute a golden reference table")
    p.add_argument("table_id", type=int, choices=(1, 2, 3))
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("search", parents=[tolerant], help="exhaustive maximal-energy search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument(
        "--stats",
        action="store_true",
        help="write the search's counts to stderr as one JSON line",
    )
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "enumerate", parents=[common], help="list unicyclic graphs up to isomorphism"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--count-only",
        action="store_true",
        help="print only the number of classes, counted by Polya's theorem",
    )
    p.add_argument("--emit", choices=("g6",))
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "certify", parents=[common], help="run the inequality certificate suite"
    )
    p.add_argument("claim", nargs="?", default="all")
    p.add_argument("--dump-certificates", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser(
        "closed-form-check", parents=[common], help="modulus closed forms vs charpoly"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, action="append")
    p.set_defaults(func=_cmd_closed_form_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here rather than at exit
        return status
    except BrokenPipeError:  # the reader has all it wants: stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ValueError as exc:  # SpecError, and input the library rejects
        print("ucenergy %s: %s" % (args.command, exc), file=sys.stderr)
        return EXIT_PARSE
    except ConvergenceError as exc:
        print("convergence failure: %s" % exc, file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
