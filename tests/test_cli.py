import csv
import io
import json
import subprocess
import sys

import pytest

from ucenergy import certify
from ucenergy.certify import certificate_from_json, verify_certificate
from ucenergy.cli import (
    MAX_COUNT_ORDER,
    MAX_LIST_ORDER,
    MAX_SEARCH_ORDER,
    MAX_SEARCH_TOP,
    MAX_SELECTOR_ORDER,
    main,
)
from ucenergy.enumeration import unicyclic_graphs
from ucenergy.graphs import format_graph6
from ucenergy.polynomials import IntPolynomial


@pytest.mark.parametrize(
    "argv",
    [
        ["energy", "C:5", "--tol", "0"],
        ["energy", "C:5", "--method", "eig", "--tol", "-1"],
        ["energy", "C:5", "--tol", "nan"],
        ["energy", "C:5", "--tol", "inf"],
        # commands that compute no energy take no tolerance
        ["certify", "--tol", "1e-9"],
        ["closed-form-check", "--n", "9", "--tol", "1e-9"],
        ["enumerate", "--n", "5", "--tol", "1e-9"],
    ],
)
def test_nonpositive_tolerance_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--n", "2"],
        ["search", "--n", "5", "--top", "0"],
        ["search", "--n", "5", "--jobs", "0"],
        ["closed-form-check", "--n", "5"],
        ["closed-form-check", "--n", "9", "--t", "4"],
        ["closed-form-check", "--n", "9", "--t", "3", "--t", "11"],
        ["certify", "C9"],
        ["diff", "C:5", "C:6", "--method", "coulson"],
        ["enumerate", "--n", "2", "--count-only"],
        ["enumerate", "--n", "2", "--emit", "g6"],
        ["enumerate", "--n", "2"],
        ["enumerate", "--n", "63"],
        ["enumerate", "--n", "63", "--emit", "g6"],
        # selector orders above the cap are refused before a graph is built
        ["energy", "C:%d" % (MAX_SELECTOR_ORDER + 1)],
        ["energy", "C:100000000000"],
        ["energy", "P:100000000000", "--method", "eig"],
        ["energy", "L:100000000000:6", "--method", "coulson"],
        ["diff", "C:5", "CP:100000000000:3:99999999997,0,0"],
        ["diff", "L:%d:6" % (MAX_SELECTOR_ORDER + 1), "C:5"],
        # so are search and enumerate orders above their caps
        ["search", "--n", str(MAX_SEARCH_ORDER + 1)],
        ["search", "--n", "100000"],
        # and so is a top beyond its cap, whose spectra would all be kept
        ["search", "--n", "5", "--top", str(MAX_SEARCH_TOP + 1)],
        ["search", "--n", "5", "--top", "1000000000"],
        ["enumerate", "--count-only", "--n", str(MAX_COUNT_ORDER + 1)],
        ["enumerate", "--count-only", "--n", "100000000000"],
        ["enumerate", "--n", str(MAX_LIST_ORDER + 1), "--format", "csv"],
        ["enumerate", "--n", str(MAX_LIST_ORDER + 1), "--emit", "g6"],
    ],
)
def test_rejected_input_exits_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("ucenergy %s: " % argv[0])
    assert captured.err.count("\n") == 1


def test_unreachable_tolerance_exits_3(capsys):
    # 2 * sqrt(2) cannot be rounded to a double within 1e-17
    assert main(["energy", "P:3", "--tol", "1e-17"]) == 3
    assert "convergence failure" in capsys.readouterr().err


def test_certify_dumps_verifiable_certificates(capsys):
    assert main(["certify", "C7", "--dump-certificates"]) == 0
    out = capsys.readouterr().out
    # the claim table comes first, then one JSON document per certificate
    decoder = json.JSONDecoder()
    certificates, pos = [], out.index("{")
    while pos < len(out):
        data, pos = decoder.raw_decode(out, pos)
        certificates.append(data)
        pos += len(out[pos:]) - len(out[pos:].lstrip())
    assert len(certificates) == 2
    for data in certificates:
        cert = certificate_from_json(json.dumps(data))
        assert cert.rule == "z-substitution"
        assert verify_certificate(cert)


def test_closed_form_check_filters_on_t(capsys):
    assert main(["closed-form-check", "--n", "9", "--t", "3", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [
        {"family": "L(n,6)", "t": 6, "ok": True},
        {"family": "L(n,t)", "t": 3, "ok": True},
    ]


def test_closed_form_check_has_no_grid_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["closed-form-check", "--n", "9", "--grid", "1"])
    assert exc.value.code == 2
    assert "--grid" in capsys.readouterr().err


def test_closed_form_check_exits_4_on_a_wrong_form(monkeypatch, capsys):
    # phi(L(8,6), ix) with its constant term off by one
    monkeypatch.setattr(certify, "F8", certify.F8 + IntPolynomial.constant(1))
    assert main(["closed-form-check", "--n", "9", "--format", "csv"]) == 4
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1
    assert list(csv.reader(io.StringIO(captured.out)))[1] == ["L(n,6)", "6", "False"]


@pytest.mark.parametrize(
    "claim, ids", [("C3/1", ["C3/1"]), ("C3", ["C3/1", "C3/2", "C3/3"])]
)
def test_certify_accepts_claim_id_or_prefix(claim, ids, capsys):
    assert main(["certify", claim, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "claim,ok,evidence,root_counts,detail"
    assert [line.split(",")[0] for line in lines[1:]] == ids


def test_search_stats_is_one_json_line_on_stderr(capsys):
    assert main(["search", "--n", "8", "--format", "csv"]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert main(["search", "--n", "8", "--format", "csv", "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain.out
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {
        "graphs": 89,
        "held_max": 10,
        "compared": 737,
        "dropped": 78,
        "enclosed": 10,
        "tie_refinements": 0,
    }


def test_search_output_parses_as_its_format(capsys):
    assert main(["search", "--n", "5", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["rank"] == 1
    assert main(["search", "--n", "5", "--format", "csv"]) == 0
    header, *table = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header[0] == "rank" and table[0][0] == "1"
    # codes hold commas, so the CSV must quote them
    assert [row[header.index("code")] for row in table] == [r["code"] for r in rows]


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--n", "5"],
        ["enumerate", "--n", "6"],
        ["certify"],
        ["closed-form-check", "--n", "9"],
    ],
)
def test_every_csv_row_is_as_wide_as_its_header(argv, capsys):
    assert main(argv + ["--format", "csv"]) == 0
    header, *table = csv.reader(io.StringIO(capsys.readouterr().out))
    assert table and all(len(row) == len(header) for row in table)


@pytest.mark.parametrize("n", range(3, 11))
def test_a_streamed_listing_equals_the_whole_table(n, capsys):
    # csv and json write each class as it comes; their bytes are those of
    # the whole list of rows written at once
    rows = [
        {"code": str(code), "cycle_len": code.cycle_len, "g6": format_graph6(g)}
        for code, g in unicyclic_graphs(n)
    ]
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(["code", "cycle_len", "g6"])
    writer.writerows([r["code"], str(r["cycle_len"]), r["g6"]] for r in rows)
    expected = {"csv": table.getvalue(), "json": json.dumps(rows, indent=2) + "\n"}
    for fmt, text in expected.items():
        assert main(["enumerate", "--n", str(n), "--format", fmt]) == 0
        assert capsys.readouterr().out == text, fmt


def test_python_dash_m_runs_the_cli(cli_env):
    def run(n):
        argv = ["enumerate", "--count-only", "--n", str(n), "--format", "csv"]
        return subprocess.run(
            [sys.executable, "-m", "ucenergy", *argv],
            capture_output=True,
            text=True,
            env=cli_env,
        )

    for n, count in ((6, 13), (17, 880840)):
        ok = run(n)
        assert ok.returncode == 0, ok.stderr
        assert ok.stdout.split() == ["n,count", "%d,%d" % (n, count)]
    bad = run(2)
    assert bad.returncode == 2
    assert "Traceback" not in bad.stderr
    assert bad.stderr.startswith("ucenergy enumerate: ")


@pytest.mark.parametrize(
    "argv, lines",
    [
        # about 200 kB, more than a pipe holds: cut while writing
        (["enumerate", "--n", "13", "--emit", "g6"], 1),
        # a few rows, still buffered when the command returns: cut at the flush
        (["search", "--n", "5"], 0),
    ],
)
def test_a_reader_that_stops_early_gets_no_traceback(argv, lines, cli_env):
    cli_env.pop("PYTHONUNBUFFERED", None)  # a buffered stdout, as in a shell pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "ucenergy", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=cli_env,
    )
    for _ in range(lines):
        assert proc.stdout.readline().strip()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err and "Exception ignored" not in err
