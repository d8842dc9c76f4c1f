"""CLI dispatch, exit codes, deterministic emission, config handling."""

import csv
import dataclasses
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zetalab import cli, decouple, expsum, meanvalue, pairs, planner, zeta
from zetalab.cli import (
    EXIT_GUARD,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    MEANVALUE_COLUMNS,
    SCHEMA_VERSION,
    Report,
    _global_flags,
    _write_json,
    main,
)


def run_cli(args, tmp_path=None):
    """Run main() in-process, capturing stdout and stderr."""
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_pairs_word_output():
    code, _, err = run_cli(["pairs", "word", "--word", "ABAAB", "--seed-pair", "0,1"])
    assert code == EXIT_OK
    assert "k=1/9 l=13/18 theta=1/6" in err


def test_pairs_word_normalizes():
    code, _, err = run_cli(["pairs", "word", "--word", "ABA2B"])
    assert code == EXIT_OK
    assert "k=1/9 l=13/18 theta=1/6" in err


def test_planner_coverage_output():
    code, _, err = run_cli(["planner", "coverage", "--denominator-bound", "100"])
    assert code == EXIT_OK
    for fragment in ("332/819", "11/28", "13/42", "17/42", "COVERAGE=PASS"):
        assert fragment in err


def test_planner_plan_output():
    code, _, err = run_cli(["planner", "plan", "--T", "1e6", "--M", "1000"])
    assert code == EXIT_OK
    assert "regime=main" in err
    assert "17/42" in err


# The six leaves that print prose lines next to their data.
PROSE_LEAVES = (
    ["pairs", "word", "--word", "AB"],
    ["pairs", "search", "--max-len", "2"],
    ["planner", "coverage", "--denominator-bound", "20"],
    ["planner", "plan", "--T", "1e6", "--M", "1000"],
    ["zeta", "value", "--t", "100"],
    ["zeta", "afe", "--t-min", "10", "--t-max", "100", "--points", "3"],
)


@pytest.mark.parametrize("leaf", PROSE_LEAVES, ids=lambda leaf: " ".join(leaf[:2]))
def test_stdout_holds_one_data_document(leaf):
    code, out, err = run_cli(leaf + ["--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(out)
    columns = payload["columns"]
    assert payload["rows"]
    assert any(not line.startswith("# ") for line in err.splitlines())  # the prose
    code, out, _ = run_cli(leaf)
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == columns
    assert len(rows) == 1 + len(payload["rows"])
    assert all(len(row) == len(columns) for row in rows)


def test_planner_envelope_csv(tmp_path):
    dest = tmp_path / "envelope.csv"
    code, _, _ = run_cli(["--out", str(dest), "planner", "envelope", "--denominator-bound", "12"])
    assert code == EXIT_OK
    lines = dest.read_text().splitlines()
    assert lines[0] == "alpha_num,alpha_den,p_num,p_den,witness"
    assert any(line.startswith("1,2,") for line in lines)  # alpha = 1/2 present


def test_unknown_subcommand_is_usage_error():
    code, _, _ = run_cli(["frobnicate"])
    assert code == EXIT_USAGE


def test_unknown_flag_is_usage_error():
    code, _, _ = run_cli(["pairs", "word", "--word", "AB", "--bogus"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("word", ["A0", "BA0B"])
def test_pairs_word_exponent_zero_is_usage_error(word):
    code, out, err = run_cli(["pairs", "word", "--word", word])
    assert code == EXIT_USAGE
    assert "kind=usage" in err
    assert out == ""


def test_pairs_search_json_bytes_are_pinned(tmp_path):
    dest = tmp_path / "search.json"
    assert run_cli(["--out", str(dest), "pairs", "search", "--max-len", "16", "--format", "json"])[0] == EXIT_OK
    assert dest.read_bytes() == (
        b'{\n "schema": 1,\n "meta": {\n  "command": "pairs search",\n  "max_len": 16\n },\n'
        b' "columns": [\n  "word",\n  "k",\n  "l",\n  "objective",\n  "value"\n ],\n'
        b' "rows": [\n  {\n   "word": "X",\n   "k": "13/84",\n   "l": "55/84",\n'
        b'   "objective": "zeta_exponent",\n   "value": "13/84"\n  }\n ]\n}\n'
    )


def test_pairs_search_empty_word_is_a_string_in_json(tmp_path):
    """The empty word is a value: JSON writes it as "", as the CSV writes an
    empty cell, not as the null of a missing cell."""
    dest, table = tmp_path / "search.json", tmp_path / "search.csv"
    args = ["pairs", "search", "--no-axiom", "--max-len", "0"]
    assert run_cli(["--out", str(dest), "--format", "json"] + args)[0] == EXIT_OK
    assert run_cli(["--out", str(table)] + args)[0] == EXIT_OK
    assert json.loads(dest.read_text())["rows"] == [
        {"word": "", "k": "0", "l": "1", "objective": "zeta_exponent", "value": "1/4"}
    ]
    assert next(csv.DictReader(io.StringIO(table.read_text())))["word"] == ""


def test_bad_value_is_usage_error():
    code, _, err = run_cli(["pairs", "word", "--word", "AZB"])
    assert code == EXIT_USAGE
    assert "kind=usage" in err


def test_guard_violation_exit_code():
    code, _, err = run_cli(["meanvalue", "count", "--N", "64"])
    assert code == EXIT_GUARD
    assert "kind=guard" in err
    assert "meanvalue.windowed.N" in err


# Every guard the package names, with a CLI command that hits it and the
# limit its message ends in (None for the range check `zeta.scan.range`).
GUARD_CASES = (
    (["expsum", "quadruple", "--N", "100000000", "--x", "0,0,0,0"], "expsum.quadruple.N", expsum.MAX_QUADRUPLE_N),
    (["expsum", "dyadic", "--T", "5", "--M", "20000000000000"], "expsum.dyadic.terms", expsum.DYADIC_MAX_TERMS),
    (["meanvalue", "count", "--N", "49"], "meanvalue.windowed.N", meanvalue.WINDOWED_MAX_N),
    (["meanvalue", "kernel", "--N", "33", "--r", "6"], "meanvalue.kernel.N", meanvalue.KERNEL_MAX_N[6]),
    (["meanvalue", "quadrature", "--N", "1000000000000", "--r", "3", "--samples", "1000"],
     "meanvalue.quadrature.terms", meanvalue.QUADRATURE_MAX_TERMS),
    (["meanvalue", "vinogradov", "--N", "1025"], "meanvalue.vinogradov.N", meanvalue.VINOGRADOV_MAX_N),
    (["decouple", "parabola", "--ensemble", "random_signs", "--Ns", "4,5,1000000000000", "--samples", "8"],
     "decouple.parabola.N", decouple.PARABOLA_MAX_N),
    (["decouple", "bilinear", "--Ns", "8,65"], "decouple.bilinear.N", decouple.BILINEAR_MAX_N),
    (["decouple", "parabola", "--ensemble", "random_signs", "--samples", str(1 << 31)],
     "decouple.qmc.samples", decouple.QMC_MAX_SAMPLES),
    (["pairs", "search", "--max-len", "25"], "pairs.search_words.max_len", pairs.MAX_WORD_SEARCH_LEN),
    (["planner", "envelope", "--denominator-bound", "100000"], "planner.grid.points", planner.GRID_MAX_POINTS),
    (["planner", "coverage", "--denominator-bound", "100000"], "planner.grid.points", planner.GRID_MAX_POINTS),
    (["zeta", "value", "--t", "1e12"], "zeta.oracle.terms", zeta.ORACLE_MAX_TERMS),
    (["zeta", "afe", "--t-min", "10", "--t-max", "100", "--points", "1000000000000"], "zeta.scan.terms",
     zeta.SCAN_MAX_TERMS),
    (["zeta", "scan", "--t-min", "10", "--t-max", "100", "--points", "1000000000000"], "zeta.scan.terms",
     zeta.SCAN_MAX_TERMS),
    (["zeta", "scan", "--t-min", "1", "--t-max", "100"], "zeta.scan.range", None),
)


def test_unbounded_inputs_hit_size_guards():
    source = "".join(path.read_text() for path in Path(zeta.__file__).parent.glob("*.py"))
    named = set(re.findall(r'GuardError(?:\.check)?\(\s*"([a-z_.0-9A-Z]+)"', source))
    assert {guard for _, guard, _ in GUARD_CASES} == named and len(named) == 14
    for args, guard, limit in GUARD_CASES:
        code, out, err = run_cli(args)
        assert code == EXIT_GUARD, args
        assert f"kind=guard guard={guard} message=" in err and out == ""
        assert "Traceback" not in err
        if limit is not None:
            assert err.endswith(f" exceeds the guard {limit}\n"), err


@pytest.mark.parametrize("bound", ["0", "-5"])
@pytest.mark.parametrize("leaf", ["coverage", "envelope"])
def test_planner_denominator_bound_below_one_is_usage_error(leaf, bound):
    code, out, err = run_cli(["planner", leaf, "--denominator-bound", bound])
    assert code == EXIT_USAGE
    assert "kind=usage" in err
    assert "COVERAGE" not in err
    assert out == ""


@pytest.mark.parametrize("pair", ["1", "2,3"])
@pytest.mark.parametrize("leaf", [["pairs", "word", "--word", "AB"], ["pairs", "search", "--max-len", "2"]])
def test_bad_seed_pair_is_usage_error(leaf, pair):
    code, out, err = run_cli(leaf + ["--seed-pair", pair])
    assert code == EXIT_USAGE
    assert "--seed-pair" in err
    assert out == ""


@pytest.mark.parametrize("kind, exponent", [("monomial", "1/0"), ("monomial", "x"), ("log", "3/2")])
def test_bad_dyadic_exponent_is_usage_error(kind, exponent):
    # a log phase has no exponent, so the flag would change no output
    base = ["expsum", "dyadic", "--T", "5", "--M", "100", "--kind", kind]
    code, out, err = run_cli(base + ["--exponent", exponent])
    assert code == EXIT_USAGE
    assert "--exponent" in err or "kind=usage" in err
    assert "Traceback" not in err and out == ""
    good = ["--exponent", "3/2"] if kind == "monomial" else []
    assert run_cli(base + good)[0] == EXIT_OK


def test_qmc_sample_count_hits_guard():
    args = ["decouple", "parabola", "--ensemble", "random_signs", "--samples", str(1 << 31)]
    code, _, err = run_cli(args)
    assert code == EXIT_GUARD
    assert "guard=decouple.qmc.samples" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args, guard", [
    (["parabola", "--Ns", "4,5,6", "--ensemble", "random_signs", "--samples", "8", "--trials", "1000000000"],
     "decouple.qmc.samples"),
    (["bilinear", "--Ns", "8,16,32,128", "--samples", "1048576"], "decouple.bilinear.N"),
])
def test_decouple_guards_stop_before_any_row(monkeypatch, args, guard):
    from zetalab import decouple

    monkeypatch.setattr(decouple, "qmc_mean", lambda *a: pytest.fail("a row was computed"))
    code, out, err = run_cli(["decouple"] + args)
    assert code == EXIT_GUARD
    assert f"guard={guard}" in err and out == ""


@pytest.mark.parametrize("samples", ["0", "-5", "7"])
@pytest.mark.parametrize("mode", ["parabola", "bilinear"])
def test_qmc_sample_count_below_replicates_is_usage_error(mode, samples):
    code, out, err = run_cli(["decouple", mode, "--Ns", "8,12,16", "--ensemble", "random_signs",
                              "--samples", samples])
    assert code == EXIT_USAGE
    assert "kind=usage" in err
    assert out == ""


def test_io_failure_exit_code(tmp_path):
    dest = tmp_path / "no" / "such" / "dir" / "x.csv"
    code, _, err = run_cli(["--out", str(dest), "pairs", "word", "--word", "AB"])
    assert code == EXIT_IO
    assert "kind=io" in err


def test_meanvalue_csv_schema(tmp_path):
    dest = tmp_path / "mv.csv"
    code, _, _ = run_cli(
        ["--out", str(dest), "meanvalue", "kernel", "--N", "4", "--r", "1"]
    )
    assert code == EXIT_OK
    lines = dest.read_text().splitlines()
    assert lines[0] == "method,N,r,delta,Delta,window3,window4,value,stderr,seconds"
    fields = lines[1].split(",")
    assert fields[0] == "kernel" and fields[1] == "4"
    assert fields[-1] == ""  # seconds blank without --timing


def test_meanvalue_timing_column(tmp_path):
    dest = tmp_path / "mv.csv"
    code, _, _ = run_cli(
        ["--out", str(dest), "meanvalue", "kernel", "--N", "4", "--r", "1", "--timing"]
    )
    assert code == EXIT_OK
    fields = dest.read_text().splitlines()[1].split(",")
    assert float(fields[-1]) >= 0.0
    # the seconds column is all --timing changes, so no other leaf takes it
    assert run_cli(["--timing", "pairs", "word", "--word", "AB"])[0] == EXIT_USAGE
    assert run_cli(["pairs", "word", "--word", "AB", "--timing"])[0] == EXIT_USAGE
    assert run_cli(["--timing", "meanvalue", "kernel", "--N", "4", "--r", "1"])[0] == EXIT_USAGE


def test_empty_ns_is_usage_error(tmp_path):
    # an empty N list is refused by the parser, with no data written
    dest = tmp_path / "empty.csv"
    leaves = [["decouple", "parabola"], ["decouple", "bilinear"]]
    leaves += [["meanvalue", mode] for mode in ("count", "kernel", "quadrature", "vinogradov")]
    for leaf in leaves:
        for ns in ("", ","):
            code, out, err = run_cli(["--out", str(dest)] + leaf + ["--Ns", ns])
            assert code == EXIT_USAGE
            assert "--Ns: expected a comma list of integers" in err
            assert out == "" and not dest.exists()


MEANVALUE_LEAVES = [
    ["meanvalue", "count"],
    ["meanvalue", "kernel", "--r", "3"],
    ["meanvalue", "quadrature", "--r", "3", "--samples", "2000", "--seed", "4"],
    ["meanvalue", "vinogradov", "--s", "2"],
]


@pytest.mark.parametrize("leaf", MEANVALUE_LEAVES, ids=lambda leaf: leaf[1])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_meanvalue_n_and_ns_are_one_option(tmp_path, leaf, fmt):
    # --N and --Ns are two spellings of one list option
    texts = []
    for flag in ("--N", "--Ns"):
        dest = tmp_path / f"{flag.strip('-')}.{fmt}"
        code, out, _ = run_cli(["--out", str(dest), "--format", fmt] + leaf + [flag, "8,12"])
        assert code == EXIT_OK
        texts.append((dest.read_bytes(), out))
    assert texts[0] == texts[1]
    data = texts[0][0].decode()
    rows = json.loads(data)["rows"] if fmt == "json" else list(csv.DictReader(io.StringIO(data)))
    assert [int(row["N"]) for row in rows] == [8, 12]


# Each leaf with default, explicit and infinite parameters, and the route
# call that gives the same results in the library.
RECORDED_CASES = {
    "count-default": (["meanvalue", "count"], lambda N: meanvalue.count_windowed(N)),
    "count-explicit": (["meanvalue", "count", "--window3", "0.3", "--window4", "0.7"],
                       lambda N: meanvalue.count_windowed(N, 0.3, 0.7)),
    "count-inf": (["meanvalue", "count", "--window3", "inf", "--window4", "inf"],
                  lambda N: meanvalue.count_windowed(N, math.inf, math.inf)),
    "count-one-inf": (["meanvalue", "count", "--window4", "inf"],
                      lambda N: meanvalue.count_windowed(N, None, math.inf)),
    "kernel-default": (["meanvalue", "kernel", "--r", "3"],
                       lambda N: meanvalue.moment_kernel_sum(meanvalue.MeanValueSpec(N, 3))),
    "kernel-explicit": (["meanvalue", "kernel", "--r", "3", "--delta", "0.25", "--Delta", "0.5"],
                        lambda N: meanvalue.moment_kernel_sum(meanvalue.MeanValueSpec(N, 3, 0.25, 0.5))),
    "quadrature": (["meanvalue", "quadrature", "--r", "3", "--samples", "2000", "--seed", "4"],
                   lambda N: meanvalue.moment_monte_carlo(meanvalue.MeanValueSpec(N, 3), 2000, 4)),
    "vinogradov": (["meanvalue", "vinogradov", "--s", "2"], lambda N: meanvalue.vinogradov_count(N, 2)),
}


@pytest.mark.parametrize("case", sorted(RECORDED_CASES))
def test_meanvalue_rows_are_the_recorded_parameters(tmp_path, case):
    # every cell but seconds is the field of the CountResult the route returned
    leaf, route = RECORDED_CASES[case]
    want = [route(N) for N in (5, 6)]
    columns = MEANVALUE_COLUMNS[:-1]
    dest = tmp_path / "mv.csv"
    assert run_cli(["--out", str(dest)] + leaf + ["--N", "5,6"])[0] == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(dest.read_text())))
    assert [[row[c] for c in columns] for row in rows] == [[cli._fmt(getattr(res, c)) for c in columns]
                                                           for res in want]
    code, out, _ = run_cli(["--format", "json"] + leaf + ["--N", "5,6"])
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert [[row[c] for c in columns] for row in rows] == [[getattr(res, c) for c in columns] for res in want]
    assert all(row["seconds"] is None for row in rows)


def test_meanvalue_count_writes_the_windows_the_route_used(tmp_path, monkeypatch):
    # the windows come from the result, not from a default the CLI keeps
    count = meanvalue.count_windowed
    monkeypatch.setattr(meanvalue, "count_windowed",
                        lambda N, w3, w4: dataclasses.replace(count(N, w3, w4), window3=0.25, window4=0.25))
    dest = tmp_path / "mv.csv"
    assert run_cli(["--out", str(dest), "meanvalue", "count", "--N", "5,6"])[0] == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(dest.read_text())))
    assert [(row["window3"], row["window4"]) for row in rows] == [("0.25", "0.25")] * 2


# Each meanvalue leaf, the route it calls with its recorded argument, and a
# list of N whose last N hits the guard or whose first N is a usage error.
ROUTE_CASES = {
    "count": ("count_windowed", lambda N, *rest: N, ["meanvalue", "count"], "8,49", "0,8"),
    "kernel": ("moment_kernel_sum", lambda spec: spec.N, ["meanvalue", "kernel", "--r", "6"], "8,33", "1,32"),
    "kernel-delta": ("moment_kernel_sum", lambda spec: spec.N,
                     ["meanvalue", "kernel", "--r", "3", "--delta", "0.03"], "8,129", "4,8"),
    "quadrature": ("moment_monte_carlo", lambda spec, *rest: spec.N,
                   ["meanvalue", "quadrature", "--r", "3", "--samples", "1000"], "8,1000000000", "1,8"),
    "vinogradov": ("vinogradov_count", lambda N, *rest: N, ["meanvalue", "vinogradov"], "8,1025", "0,8"),
}


@pytest.mark.parametrize("case", sorted(ROUTE_CASES))
def test_meanvalue_leaves_refuse_before_the_first_count(tmp_path, monkeypatch, case):
    # every spec is built and the largest N runs first: a guard on the last
    # N (exit 3) or a usage error on the first (exit 2) stops the leaf before
    # any count returns, and no data file is written; rows keep the given order
    name, key, leaf, guarded, unusable = ROUTE_CASES[case]
    route, returned = getattr(meanvalue, name), []

    def recorded(*args):
        res = route(*args)
        returned.append(key(*args))
        return res

    monkeypatch.setattr(meanvalue, name, recorded)
    dest = tmp_path / "mv.csv"
    for ns, want in ((guarded, EXIT_GUARD), (unusable, EXIT_USAGE)):
        code, out, err = run_cli(["--out", str(dest)] + leaf + ["--Ns", ns])
        assert code == want, err
        assert returned == [] and out == "" and not dest.exists()
    assert run_cli(["--out", str(dest)] + leaf + ["--Ns", "8,12,10"])[0] == EXIT_OK
    assert returned == [12, 10, 8]
    assert [int(row["N"]) for row in csv.DictReader(io.StringIO(dest.read_text()))] == [8, 12, 10]


LEAF_COMMANDS = (
    ["pairs", "word", "--word", "AB"],
    ["pairs", "search", "--max-len", "2"],
    ["planner", "envelope", "--denominator-bound", "5"],
    ["planner", "coverage", "--denominator-bound", "20"],
    ["planner", "plan", "--T", "1e6", "--M", "1000"],
    ["meanvalue", "count", "--N", "3"],
    ["meanvalue", "kernel", "--N", "3", "--r", "1"],
    ["meanvalue", "quadrature", "--N", "3", "--r", "1", "--samples", "1000"],
    ["meanvalue", "vinogradov", "--N", "3"],
    ["decouple", "parabola", "--Ns", "4,5,6", "--ensemble", "ones"],
    ["decouple", "bilinear", "--Ns", "8,12", "--samples", "256"],
    ["zeta", "scan", "--t-min", "10", "--t-max", "100", "--points", "3"],
    ["zeta", "value", "--t", "100"],
    ["zeta", "afe", "--t-min", "10", "--t-max", "100", "--points", "3"],
    ["expsum", "quadruple", "--N", "8", "--x", "0.1,0.2,0.3,0.4"],
    ["expsum", "dyadic", "--T", "10", "--M", "8"],
)


@pytest.mark.parametrize("leaf", LEAF_COMMANDS, ids=lambda leaf: " ".join(leaf[:2]))
def test_meta_starts_with_the_leaf_command(leaf):
    # the command meta key comes from the parsed leaf, ahead of the leaf's own keys
    code, out, err = run_cli(["--format", "json"] + leaf)
    assert code == EXIT_OK
    meta = json.loads(out)["meta"]
    assert list(meta)[0] == "command"
    assert meta["command"] == " ".join(leaf[:2])
    assert f"# command={meta['command']}\n" in err


@pytest.mark.parametrize("args", [
    ["zeta", "afe", "--t-min", "10", "--t-max", "100", "--points", "3", "--slack", "nan"],
    ["zeta", "afe", "--t-min", "10", "--t-max", "100", "--points", "3", "--slack", "inf"],
    ["zeta", "value", "--t", "100", "--slack", "nan"],
    ["planner", "plan", "--T", "10", "--M", "5", "--t-threshold", "nan"],
    ["planner", "plan", "--T", "10", "--M", "5", "--t-threshold", "inf"],
    ["zeta", "scan", "--t-min", "nan", "--t-max", "100", "--points", "3"],
    ["zeta", "scan", "--t-min", "10", "--t-max", "inf", "--points", "3"],
], ids=["afe-nan", "afe-inf", "value-nan", "plan-nan", "plan-inf", "scan-nan", "scan-inf"])
def test_non_finite_slack_threshold_and_range_are_usage_errors(tmp_path, args):
    dest = tmp_path / "out.csv"
    code, out, err = run_cli(["--out", str(dest)] + args)
    assert code == EXIT_USAGE
    assert "kind=usage" in err and "must be finite" in err
    assert out == "" and not dest.exists()


@pytest.mark.parametrize("leaf", MEANVALUE_LEAVES, ids=lambda leaf: leaf[1])
def test_meanvalue_missing_or_bad_n_is_usage_error(leaf):
    for extra in ([], ["--N", ""], ["--N", "8,x"]):
        code, out, err = run_cli(leaf + extra)
        assert code == EXIT_USAGE
        assert "--N/--Ns" in err and out == ""


def test_json_schema(tmp_path):
    dest = tmp_path / "scan.json"
    code, _, _ = run_cli(
        ["--out", str(dest), "--format", "json", "zeta", "scan",
         "--t-min", "10", "--t-max", "100", "--points", "5"]
    )
    assert code == EXIT_OK
    payload = json.loads(dest.read_text())
    assert payload["schema"] == 1
    assert payload["columns"] == ["t", "abs_zeta", "ratio_13_84", "abs_err"]
    assert len(payload["rows"]) == 5
    assert set(payload["rows"][0]) == set(payload["columns"])


@pytest.mark.parametrize(
    "rows, meta",
    [
        ([], {}),
        ([(1, None, "")], {"plot_axes": ("a", "c")}),
        (
            [(Fraction(13, 84), "", 0.1), (None, None, None), (-2, "main\nx", float("inf"))],
            {"note": {"nested": [1, Fraction(1, 2)]}, "empty": []},
        ),
    ],
)
@pytest.mark.parametrize("repeat", [1, 2, 1024])
def test_json_rows_stream_as_one_shot_dumps(rows, meta, repeat):
    """The JSON written row by row equals json.dumps of the whole payload,
    None written as null and "" as "", for the rows repeated `repeat`
    times, given as a list or as a one-shot iterator or generator (an empty
    one is truthy)."""
    rows = rows * repeat
    payload = {
        "schema": SCHEMA_VERSION,
        "meta": meta,
        "columns": ["a", "b", "c"],
        "rows": [dict(zip("abc", row)) for row in rows],
    }
    for given in (rows, iter(rows), (row for row in rows)):
        fh = io.StringIO()
        _write_json(Report(("a", "b", "c"), given, meta), fh)
        assert fh.getvalue() == json.dumps(payload, indent=1, default=str) + "\n"


@pytest.mark.parametrize("n", [0, 1, 511, 512, 513, 1025])
def test_json_row_batches_join_as_one_shot_dumps(n):
    """Rows are encoded 512 to a batch and split on '},\\n   {': the output
    equals json.dumps of the whole payload on either side of a batch edge,
    also where a string cell holds '},', a newline or the separator itself."""
    cells = ["},", "a\n", "},\n   {\"a\": ", "}", 2.5, None]
    rows = [(i, cells[i % len(cells)], Fraction(i, 7)) for i in range(n)]
    payload = {"schema": SCHEMA_VERSION, "meta": {}, "columns": ["a", "b", "c"],
               "rows": [dict(zip("abc", row)) for row in rows]}
    fh = io.StringIO()
    _write_json(Report(("a", "b", "c"), iter(rows)), fh)
    assert fh.getvalue() == json.dumps(payload, indent=1, default=str) + "\n"


def test_zeta_scan_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["zeta", "scan", "--t-min", "10", "--t-max", "1000", "--points", "40", "--seed", "9"]
    assert run_cli(["--out", str(a), "--seed", "9"] + args[0:1] + args[1:])[0] == EXIT_OK
    assert run_cli(["--out", str(b), "--seed", "9"] + args[0:1] + args[1:])[0] == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_decouple_csv_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["decouple", "parabola", "--Ns", "8,16,32", "--ensemble", "random_signs",
            "--samples", "2048", "--seed", "5"]
    assert run_cli(["--out", str(a)] + base)[0] == EXIT_OK
    assert run_cli(["--out", str(b)] + base)[0] == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "d,N,ensemble,lhs,rhs,ratio,stderr,samples,seed"


@pytest.mark.parametrize("mode", ["parabola", "bilinear"])
def test_decouple_rows_match_the_library(mode):
    from zetalab import decouple

    if mode == "parabola":
        ns, ensemble = [4, 5, 6], "random_signs"
        report = decouple.ratio_scan(ns, ensemble, 1, 0, 2048)
    else:
        ns, ensemble = [8, 12], "ones"
        report = decouple.bilinear_scan(ns, 2048, 0)
    code, out, _ = run_cli(["decouple", mode, "--Ns", ",".join(map(str, ns)), "--ensemble", ensemble,
                            "--samples", "2048", "--seed", "0", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["meta"]["slope"] == report.slope
    assert payload["meta"]["slope_stderr"] == report.slope_stderr
    assert len(payload["rows"]) == len(report.rows)
    for got, want in zip(payload["rows"], report.rows):
        assert got["N"] == want.N
        for key in ("lhs", "rhs", "ratio", "stderr", "samples"):
            assert got[key] == getattr(want, key)


def test_decouple_repeated_n_is_usage_error():
    for mode in ("parabola", "bilinear"):
        code, _, err = run_cli(["decouple", mode, "--Ns", "8,8,16", "--samples", "256"])
        assert code == EXIT_USAGE
        assert "distinct" in err


def test_bilinear_trials_is_refused():
    # bilinear_scan takes no trial count; only the parabola leaf has --trials
    base = ["decouple", "bilinear", "--Ns", "8,12", "--samples", "256"]
    assert run_cli(base + ["--trials", "3"])[0] == EXIT_USAGE
    assert run_cli(base)[0] == EXIT_OK


def test_exact_parabola_trials_is_refused():
    # the unit ensemble's rows are exact, so a trial count would change no byte
    base = ["decouple", "parabola", "--Ns", "4,5,6", "--ensemble", "ones"]
    code, out, err = run_cli(base + ["--trials", "5"])
    assert code == EXIT_USAGE
    assert "kind=usage" in err and out == ""
    assert run_cli(base + ["--trials", "1"])[0] == EXIT_OK


def test_exact_parabola_rows_leave_samples_and_seed_empty():
    # the unit ensemble's rows are exact, so --samples and --seed change no byte
    base = ["decouple", "parabola", "--Ns", "4,5,6", "--ensemble", "ones"]
    outs = [run_cli(base + ["--samples", n, "--seed", seed])
            for n, seed in [("256", "3"), ("4096", "3"), ("4096", "11")]]
    assert [code for code, _, _ in outs] == [EXIT_OK] * 3
    assert outs[0][1] == outs[1][1] == outs[2][1]
    rows = list(csv.DictReader(io.StringIO(outs[0][1])))
    assert len(rows) == 3
    assert all(row["samples"] == row["seed"] == "" and row["stderr"] == "0.0" for row in rows)
    code, out, _ = run_cli(["--format", "json"] + base)
    assert code == EXIT_OK
    assert all(row["samples"] is None and row["seed"] is None for row in json.loads(out)["rows"])


@pytest.mark.parametrize("mode, ns", [("parabola", "4,5,6"), ("bilinear", "8,12")])
def test_sampled_rows_record_the_points_used(tmp_path, mode, ns):
    # qmc_mean uses whole blocks of REPLICATES = 8 points: 20 and 23 run on 16
    texts = []
    for samples in ("16", "20", "23"):
        dest = tmp_path / f"{samples}.csv"
        code, _, _ = run_cli(["--out", str(dest), "decouple", mode, "--Ns", ns, "--ensemble", "random_signs",
                              "--samples", samples, "--seed", "3"])
        assert code == EXIT_OK
        texts.append(dest.read_text())
    assert texts[0] == texts[1] == texts[2]
    rows = list(csv.DictReader(io.StringIO(texts[0])))
    assert rows and all(row["samples"] == "16" for row in rows)


def test_quadrature_determinism_across_threads(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["meanvalue", "quadrature", "--N", "4", "--r", "6", "--samples", "4000", "--seed", "2"]
    assert run_cli(["--out", str(a)] + base)[0] == EXIT_OK
    assert run_cli(["--out", str(b)] + base)[0] == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("seed=7\nformat=json\n")
    dest = tmp_path / "o.json"
    code, _, err = run_cli(
        ["--config", str(cfg), "--out", str(dest), "zeta", "scan",
         "--t-min", "10", "--t-max", "100", "--points", "4"]
    )
    assert code == EXIT_OK
    assert json.loads(dest.read_text())["schema"] == 1  # json via config
    assert "# seed=7" in err
    # explicit flag beats the config
    dest2 = tmp_path / "o.csv"
    code, _, err2 = run_cli(
        ["--config", str(cfg), "--format", "csv", "--seed", "1", "--out", str(dest2),
         "zeta", "scan", "--t-min", "10", "--t-max", "100", "--points", "4"]
    )
    assert code == EXIT_OK
    assert dest2.read_text().startswith("t,abs_zeta")
    assert "# seed=1" in err2


@pytest.mark.parametrize("line", ["seed 7", "format"])
def test_config_line_without_equals_is_usage_error(tmp_path, line):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(f"# lab settings\n\nformat=json\n{line}\n")
    code, out, err = run_cli(["--config", str(cfg), "pairs", "word", "--word", "AB"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "kind=usage" in err and "line 4" in err and repr(line) in err


@pytest.mark.parametrize("line", ["sede=7", "threads=3"])
def test_config_unknown_key_is_usage_error(tmp_path, line):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(f"seed=7\n{line}\n")
    code, out, err = run_cli(["--config", str(cfg), "pairs", "word", "--word", "AB"])
    assert code == EXIT_USAGE
    assert out == ""
    assert repr(line.split("=")[0]) in err


def test_global_flags_parse_alike_before_and_after_subcommand():
    # abbreviations are refused everywhere, so a global flag means the same
    # on both sides of the subcommand
    word = ["pairs", "word", "--word", "AB"]
    assert run_cli(["--form", "json"] + word)[0] == EXIT_USAGE
    assert run_cli(word + ["--form", "json"])[0] == EXIT_USAGE
    for argv in (["--seed", "3"] + word, word + ["--seed", "3"]):
        code, _, err = run_cli(argv)
        assert code == EXIT_OK
        assert "# seed=3" in err


def test_parser_built_once_keeps_no_flags_between_runs(tmp_path):
    # main reuses one parser per process; a second run without the global
    # flags is back on the defaults (seed 0, CSV)
    first, second = tmp_path / "first", tmp_path / "second"
    scan = ["zeta", "scan", "--t-min", "10", "--t-max", "100", "--points", "4"]
    code, _, err = run_cli(["--seed", "5", "--format", "json", "--out", str(first)] + scan)
    assert code == EXIT_OK and "# seed=5" in err
    assert json.loads(first.read_text())["schema"] == SCHEMA_VERSION
    code, _, err = run_cli(["--out", str(second)] + scan)
    assert code == EXIT_OK and "# seed=0" in err
    assert second.read_text().startswith("t,abs_zeta")
    assert cli._build_parser() is cli._build_parser()


def test_threads_flag_is_refused():
    word = ["pairs", "word", "--word", "AB"]
    assert run_cli(["--threads", "2"] + word)[0] == EXIT_USAGE
    assert run_cli(word + ["--threads", "2"])[0] == EXIT_USAGE


def test_readme_lists_the_global_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme.split("Global flags", 1)[1].split(".", 1)[0]
    listed = set(re.findall(r"`(--[a-z-]+)", sentence))
    defined = {opt for action in _global_flags()._actions for opt in action.option_strings}
    assert listed == defined


def test_readme_guard_table_matches_the_code():
    # one row per guard the package raises, each constant an attribute of it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| guard | constant |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([a-z_.0-9A-Z]+)` \| ([^|]+) \|", table, re.MULTILINE)
    source = "".join(path.read_text() for path in Path(zeta.__file__).parent.glob("*.py"))
    named = set(re.findall(r'GuardError(?:\.check)?\(\s*"([a-z_.0-9A-Z]+)"', source))
    assert sorted(guard for guard, _ in rows) == sorted(named) and len(named) == 14
    for _, constants in rows:
        names = re.findall(r"`([a-z]+)\.([A-Z_0-9]+)`", constants)
        assert names, constants
        for module, attr in names:
            assert hasattr(importlib.import_module(f"zetalab.{module}"), attr), f"{module}.{attr}"


def test_pairs_search_offers_only_working_objectives():
    assert run_cli(["pairs", "search", "--max-len", "2", "--objective", "affine"])[0] == EXIT_USAGE
    for objective in ("zeta_exponent", "k_plus_l"):
        code, _, err = run_cli(["pairs", "search", "--max-len", "2", "--objective", objective])
        assert code == EXIT_OK
        assert f" {objective}=" in err


def test_plot_script_references_csv(tmp_path):
    dest = tmp_path / "scan.csv"
    script = tmp_path / "plot.py"
    code, _, _ = run_cli(
        ["--out", str(dest), "--plot-script", str(script), "zeta", "scan",
         "--t-min", "10", "--t-max", "100", "--points", "4"]
    )
    assert code == EXIT_OK
    body = script.read_text()
    assert str(dest) in body
    assert "matplotlib" in body
    # plot script without --out is a usage error, refused before the leaf runs
    code, out, err = run_cli(["--plot-script", str(script), "pairs", "word", "--word", "AB"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "requires --out" in err


def test_plot_script_refuses_json(tmp_path):
    # the script reads the data file as CSV: JSON output, by flag or by
    # config, is refused before the leaf runs and writes no file
    dest = tmp_path / "d.json"
    script = tmp_path / "plot.py"
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("format=json\n")
    for route in (["--format", "json"], ["--config", str(cfg)]):
        code, out, err = run_cli(route + ["--out", str(dest), "--plot-script", str(script),
                                          "pairs", "word", "--word", "AB"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "requires --out and CSV output" in err
        assert not dest.exists() and not script.exists()


def test_plot_script_refuses_the_data_file(tmp_path):
    # the script would overwrite the data it reads: refused before the leaf
    # runs, also when the two paths differ only in spelling
    (tmp_path / "sub").mkdir()
    dest = tmp_path / "d.csv"
    for script in (dest, tmp_path / "sub" / ".." / "d.csv"):
        code, out, err = run_cli(["--out", str(dest), "--plot-script", str(script),
                                  "pairs", "word", "--word", "AB"])
        assert code == EXIT_USAGE
        assert out == "" and "name the same file" in err
        assert not dest.exists()


@pytest.mark.parametrize("t", ["0", "3", "inf", "nan"])
def test_zeta_value_below_two_pi_is_usage_error(monkeypatch, t):
    # the AFE main sum is empty below 2 pi: refused before the oracle runs
    def oracle(*args):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(zeta, "zeta_em_oracle", oracle)
    code, out, err = run_cli(["zeta", "value", "--t", t])
    assert code == EXIT_USAGE
    assert out == ""
    assert "2*pi" in err


def test_zeta_value_refuses_terms():
    # `zeta.zeta_oracle` alone picks the route: no option forces Euler-Maclaurin
    code, out, err = run_cli(["zeta", "value", "--t", "5000", "--terms", "100"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "usage:" in err and "--terms" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["zeta", "value", "--t", "1e15"],
    ["zeta", "afe", "--t-min", "3e7", "--t-max", "4e7", "--points", "3"],
], ids=["value", "afe"])
def test_zeta_oracle_guard_before_any_sum(traced_peak, args):
    # the guard is checked before the AFE sum of 1.3e7 terms (value) or the
    # first oracle call of 1.5e7 terms (afe) allocates anything
    (code, out, err), peak = traced_peak(run_cli, args)
    assert code == EXIT_GUARD
    assert out == ""
    assert "guard=zeta.oracle.terms" in err
    assert peak < 10 << 20


@pytest.mark.parametrize("slack", ["nan", "inf"])
@pytest.mark.parametrize("leaf, past_guard", [
    (["zeta", "value", "--t", "100"], ["zeta", "value", "--t", "1e15"]),
    (["zeta", "afe", "--t-min", "10", "--t-max", "100", "--points", "3"],
     ["zeta", "afe", "--t-min", "3e7", "--t-max", "4e7", "--points", "3"]),
], ids=["value", "afe"])
def test_non_finite_slack_is_refused_before_any_sum(monkeypatch, leaf, past_guard, slack):
    # the slack is checked after the term guard (exit 3 first) and before
    # the first main sum or oracle head
    calls = []
    monkeypatch.setattr(zeta, "dirichlet_sum", lambda *args: calls.append(args))
    code, out, err = run_cli(leaf + ["--slack", slack])
    assert (code, out, calls) == (EXIT_USAGE, "", [])
    assert "slack must be finite" in err
    code, out, err = run_cli(past_guard + ["--slack", slack])
    assert (code, out, calls) == (EXIT_GUARD, "", [])
    assert "guard=zeta.oracle.terms" in err


@pytest.mark.parametrize("t_min, t_max", [("1000", "100"), ("100", "100")])
def test_zeta_afe_empty_range_is_usage_error(t_min, t_max):
    # a reversed range gave a decreasing grid; both leaves refuse it as a
    # usage error, not as the range guard of the scan
    for mode in ("afe", "scan"):
        code, out, err = run_cli(["zeta", mode, "--t-min", t_min, "--t-max", t_max, "--points", "3"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "t_min < t_max" in err and "Traceback" not in err


@pytest.mark.parametrize("t_max", ["inf", "nan"])
def test_zeta_afe_non_finite_t_is_usage_error(t_max):
    code, out, err = run_cli(["zeta", "afe", "--t-min", "10", "--t-max", t_max, "--points", "3"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "Traceback" not in err


def test_zeta_value_short_leaf_flag(tmp_path):
    # the leaf's own --t must parse with global flags before and after
    # the subcommand
    dest = tmp_path / "v.json"
    code, out, _ = run_cli(["--seed", "1", "zeta", "value", "--t", "100", "--out", str(dest),
                            "--format", "json"])
    assert code == EXIT_OK
    row = json.loads(dest.read_text())["rows"][0]
    assert row["t"] == 100.0
    assert abs(row["abs_zeta"] - 2.6926970566644) < 1e-9
    assert "zeta(1/2+100.0i)" in out


def test_expsum_quadruple_cli(tmp_path):
    dest = tmp_path / "q.csv"
    code, _, _ = run_cli(
        ["--out", str(dest), "expsum", "quadruple", "--N", "8", "--x", "0.3,0.7,-0.2,0.9"]
    )
    assert code == EXIT_OK
    row = dest.read_text().splitlines()[1].split(",")
    assert abs(float(row[6]) - (-0.46947539644259)) < 1e-9


def test_expsum_dyadic_radians_convention(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    import math

    assert run_cli(["--out", str(a), "expsum", "dyadic", "--T", "50.0", "--M", "40"])[0] == EXIT_OK
    t_rad = 50.0 * 2 * math.pi
    assert run_cli(
        ["--out", str(b), "expsum", "dyadic", "--T", repr(t_rad), "--M", "40", "--radians"]
    )[0] == EXIT_OK
    va = a.read_text().splitlines()[1].split(",")
    vb = b.read_text().splitlines()[1].split(",")
    assert abs(float(va[3]) - float(vb[3])) < 1e-9  # same re up to conversion rounding


TRACED_JOBS = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracing
from zetalab import cli
recorder = tracing.Recorder()
tracing.install(recorder)
codes = [cli.main(["expsum", "quadruple", "--N", "64", "--x", "0.1,0.2,0.3,0.4"]), cli.main(["zeta", "value", "--t", "100"]),
         cli.main(["planner", "coverage", "--denominator-bound", "20"]),
         cli.main(["planner", "envelope", "--denominator-bound", "10"]),
         cli.main(["meanvalue", "vinogradov", "--N", "64", "--s", "3"]),
         cli.main(["meanvalue", "kernel", "--N", "12", "--r", "3"])]
spans = sorted({span[0] for span in recorder.spans})
print(json.dumps({"codes": codes, "spans": spans, "layers": tracing.layer_metrics(recorder)}))
"""


def test_benchmark_tracing_wraps_the_cli():
    # the benchmark's --trace 1 patches functions by module attribute, among
    # them expsum.neumaier_sum and expsum.frac_poly_phase; a name it cannot
    # find fails every traced round
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_JOBS, str(root / "src"), str(root / "perfbench")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [EXIT_OK] * 6
    assert {"cli.main", "expsum.eval_quadruple_sum", "numerics.frac_poly_phase", "numerics.neumaier_sum",
            "zeta.afe_main_sum", "zeta.zeta_em_oracle", "planner.verify_critical_line_coverage",
            "meanvalue.vinogradov_count", "meanvalue.moment_kernel_sum"} <= set(report["spans"])
    assert report["layers"]["numerics.neumaier_sum.values"] > 0
    # the benchmark patches vinogradov_count in meanvalue and decouple alike
    # and samples the resident set while it runs
    assert report["layers"]["meanvalue.vinogradov_count.peak_mb"] > 0
    # the benchmark pins the points of `planner coverage` to the reduced
    # fractions in [0, 1/2] plus the four crossovers
    half_grid = sum(math.gcd(p, q) == 1 for q in range(1, 21) for p in range(q // 2 + 1))
    assert report["layers"]["planner.verify_critical_line_coverage.points"] == half_grid + 4


def test_benchmark_tracer_installs():
    # every module attribute the tracer patches must exist: a renamed one
    # fails here, by name, instead of in every traced benchmark round
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", "from perfbench import tracing; tracing.install(tracing.Recorder())"],
        capture_output=True,
        text=True,
        cwd=root,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_console_entry_point_subprocess():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "zetalab.cli", "pairs", "word", "--word", "ABAAB"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("word,k,l,theta,monotone\n")
    assert "k=1/9 l=13/18 theta=1/6" in proc.stderr
