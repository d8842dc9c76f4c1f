"""Command-line interface: a single executable dispatching to every module,
with deterministic CSV/JSON emission, flat key=value config files, and
optional plot-script generation.

Determinism contract: for identical flags and seed, the emitted data files
are byte-identical, independent of the core count, because each band of the
grouped counts reduces exactly (an integer, or group sums that meet in one
exactly rounded sum). Run metadata, including wall time, goes to stderr
only, so it never perturbs the data files. The `seconds` column of the
meanvalue leaves is populated only under their --timing flag for the same
reason. The CLI re-derives nothing the libraries decided: the meanvalue
leaves write the N, r, delta, Delta and windows each `CountResult` records,
the decouple leaves each row's `RatioRow.samples` (and the seed only beside
it, so the exact rows leave both empty), and `zeta value` and `zeta scan`
build their rows with `zeta.growth_row`. Every list of N is one option
parsed by `_n_list`, spelled `--N` or `--Ns` on the meanvalue leaves.
Stdout holds one CSV or JSON document: without --out, a leaf's prose lines
go to stderr; with --out, they go to stdout. A --config file holds
`key=value` lines for the keys in CONFIG_KEYS; any other key, or a line
without `=`, is a usage error.

Exit codes: 0 success, 2 usage error, 3 guard violation (the guard name is
printed), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from . import __version__, decouple, expsum, meanvalue, pairs, planner, zeta
from .errors import GuardError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_IO = 4

SCHEMA_VERSION = 1
CONFIG_KEYS = ("seed", "format", "out")

MEANVALUE_COLUMNS = (
    "method", "N", "r", "delta", "Delta", "window3", "window4", "value", "stderr", "seconds",
)
DECOUPLE_COLUMNS = ("d", "N", "ensemble", "lhs", "rhs", "ratio", "stderr", "samples", "seed")
ZETA_COLUMNS = ("t", "abs_zeta", "ratio_13_84", "abs_err")
ENVELOPE_COLUMNS = ("alpha_num", "alpha_den", "p_num", "p_den", "witness")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


@dataclass
class Report:
    """Rows plus metadata; the emitter turns this into CSV or JSON, walking
    the rows once, so they may be an iterator."""

    columns: tuple[str, ...]
    rows: Iterable[tuple]
    meta: dict = field(default_factory=dict)
    text: list[str] = field(default_factory=list)


def _write_csv(report: Report, fh) -> None:
    fh.write(",".join(report.columns) + "\n")
    for row in report.rows:
        fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(report: Report, fh) -> None:
    """Write json.dumps(payload, indent=1, default=str) + "\n" for the
    payload {schema, meta, columns, rows} 512 rows at a time: the head with
    indent=1 once, then each batch as a list of row dicts, encoded by the
    compact (C) encoder with the separators that indent=1 puts between
    scalar cells. That encoder also puts them between the dicts, so
    '},\\n   {' ends one row and starts the next; it occurs nowhere else,
    since the cells are scalars and JSON escapes a newline inside a string.
    None is written as null and every other cell as itself, so the empty
    word stays "", as in the CSV."""
    from itertools import islice

    payload = {"schema": SCHEMA_VERSION, "meta": report.meta, "columns": list(report.columns), "rows": []}
    head = json.dumps(payload, indent=1, default=str)
    encode = json.JSONEncoder(default=str, separators=(",\n   ", ": ")).encode
    # the payload ends in '"rows": []\n}'; a row's braces sit two spaces in
    fh.write(head[: -len("]\n}")])
    sep = first = "\n  {\n   "
    between = "\n  },\n  {\n   "
    rows = iter(report.rows)
    while batch := [dict(zip(report.columns, row)) for row in islice(rows, 512)]:
        fh.write(sep + encode(batch)[2:-2].replace("},\n   {", between))
        sep = between
    fh.write("]\n}\n" if sep == first else "\n  }\n ]\n}\n")


_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
# Generated plot script; reads {data!r} (columns: {cols}).
import csv

import matplotlib.pyplot as plt

xs, ys = [], []
with open({data!r}) as fh:
    for row in csv.DictReader(fh):
        try:
            xs.append(float(row[{xcol!r}]))
            ys.append(float(row[{ycol!r}]))
        except (KeyError, ValueError):
            continue
plt.plot(xs, ys, marker="o")
plt.xscale("log")
plt.yscale("log")
plt.xlabel({xcol!r})
plt.ylabel({ycol!r})
plt.savefig({data!r} + ".png", dpi=150)
print("wrote", {data!r} + ".png")
"""


def emit(report: Report, args) -> None:
    report.meta = {"command": f"{args.command} {args.mode}", **report.meta}
    write = _write_csv if args.format == "csv" else _write_json
    if args.out:
        with open(args.out, "w", newline="") as fh:
            write(report, fh)
    else:
        write(report, sys.stdout)
    for line in report.text:
        print(line, file=sys.stdout if args.out else sys.stderr)
    if args.plot_script:
        xcol, ycol = report.meta.get("plot_axes", (report.columns[0], report.columns[-1]))
        with open(args.plot_script, "w", newline="") as fh:
            fh.write(_PLOT_TEMPLATE.format(data=args.out, cols=",".join(report.columns), xcol=xcol, ycol=ycol))
    meta = {**report.meta, "seed": args.seed, "version": __version__}
    for key in sorted(meta):
        print(f"# {key}={meta[key]}", file=sys.stderr)


def _parse_floats(text: str, n: int) -> list[float]:
    vals = [float(v) for v in text.split(",") if v != ""]
    if len(vals) != n:
        raise ValueError(f"expected {n} comma-separated values, got {len(vals)}")
    return vals


def _n_list(text: str) -> list[int]:
    """The N of --N/--Ns, such as 8,12; a list without a value, or with a
    value below 1, is refused."""
    try:
        ns = [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        ns = []
    if not ns or min(ns) < 1:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers >= 1 such as 8,12, got {text!r}")
    return ns


def _seed_pair(text: str) -> pairs.ExponentPair:
    """The `k,l` of --seed-pair, as an exponent pair in the admissible region."""
    try:
        k, l = text.split(",")
        return pairs.make_pair(k, l)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected k,l in the admissible region, got {text!r} ({exc})")


def _fraction(text: str) -> Fraction:
    """The rational of --exponent, such as 3/2."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a rational such as 3/2, got {text!r} ({exc})")


# ---------------------------------------------------------------- subcommands


def _cmd_pairs_word(args) -> Report:
    word = pairs.parse_word(args.word)
    seed = args.seed_pair
    p = pairs.apply_word(word, seed)
    theta = pairs.zeta_exponent(p)
    report = Report(
        columns=("word", "k", "l", "theta", "monotone"),
        rows=[(word, str(p.k), str(p.l), str(theta), p.monotone)],
    )
    report.text = [
        f"word={word} seed=({seed.k},{seed.l})",
        f"k={p.k} l={p.l} theta={theta}",
        f"k={float(p.k)!r} l={float(p.l)!r} theta={float(theta)!r} (+eps understood)",
    ]
    return report


def _cmd_pairs_search(args) -> Report:
    result = pairs.search_words(
        args.max_len,
        seeds=None if args.seed_pair is None else [args.seed_pair],
        objective=args.objective,
        include_axiom=not args.no_axiom,
    )
    p = result.best
    report = Report(
        columns=("word", "k", "l", "objective", "value"),
        rows=[(p.word, str(p.k), str(p.l), args.objective, str(result.value))],
        meta={"max_len": args.max_len},
    )
    report.text = [f"best word={p.word or '(empty)'} k={p.k} l={p.l} {args.objective}={result.value}"]
    return report


def _cmd_planner_envelope(args) -> Report:
    return Report(
        columns=ENVELOPE_COLUMNS,
        rows=planner.envelope_grid(args.denominator_bound),
        meta={"denominator_bound": args.denominator_bound},
    )


def _cmd_planner_coverage(args) -> Report:
    rep = planner.verify_critical_line_coverage(args.denominator_bound)
    crossovers = sorted(rep.crossovers.items())
    report = Report(
        columns=("piece", "alpha", "alpha_float"),
        rows=[(tag, str(a), repr(float(a))) for tag, a in crossovers],
        meta={"points_checked": rep.points_checked, "plot_axes": ("alpha", "alpha_float")},
    )
    report.text = [f"crossover {tag}: alpha = {a}" for tag, a in crossovers]
    report.text.append(f"checked {rep.points_checked} rationals up to denominator {args.denominator_bound}")
    report.text.append(f"COVERAGE={'PASS' if rep.coverage else 'FAIL'}")
    return report


def _cmd_planner_plan(args) -> Report:
    sc = planner.Scenario(T=args.T, M=args.M, c=args.c)
    plan = planner.make_plan(sc, t_threshold=args.t_threshold)
    report = Report(
        columns=("regime", "alpha", "predicted_exponent", "witness", "N", "R", "valid", "reasons"),
        rows=[
            (
                plan.regime,
                str(plan.alpha),
                str(plan.predicted_exponent),
                plan.witness,
                plan.N,
                plan.R,
                plan.valid,
                ";".join(plan.reasons),
            )
        ],
        meta={"T": args.T, "M": args.M, "c": args.c},
    )
    report.text = [
        f"alpha={plan.alpha} ({float(plan.alpha):.6f}) regime={plan.regime}",
        f"predicted |S| << T^({plan.predicted_exponent}+eps) via {plan.witness}",
        f"N={plan.N} R={plan.R} valid={plan.valid} ({'; '.join(plan.reasons)})",
    ]
    return report


def _cmd_meanvalue(args) -> Report:
    """One row per N, in the order given. Every `MeanValueSpec` is built
    first and the largest N runs first, so a usage error or a guard on any
    N stops the leaf before its first count; each route is deterministic
    per N, so the order changes no row."""
    if args.mode == "count":
        items, route = args.Ns, lambda N: meanvalue.count_windowed(N, args.window3, args.window4)
    elif args.mode == "vinogradov":
        items, route = args.Ns, lambda N: meanvalue.vinogradov_count(N, args.s)
    else:
        items = [meanvalue.MeanValueSpec(N, args.r, args.delta, args.Delta) for N in args.Ns]
        if args.mode == "kernel":
            route = meanvalue.moment_kernel_sum
        else:
            route = lambda spec: meanvalue.moment_monte_carlo(spec, args.samples, args.seed)
    rows = [None] * len(items)
    for i in sorted(range(len(items)), key=lambda i: -args.Ns[i]):
        started = time.perf_counter()
        res = route(items[i])
        seconds = time.perf_counter() - started if args.timing else None
        rows[i] = (*(getattr(res, c) for c in MEANVALUE_COLUMNS[:-1]), seconds)
    return Report(columns=MEANVALUE_COLUMNS, rows=rows, meta={"plot_axes": ("N", "value")})


def _cmd_decouple(args) -> Report:
    if args.mode == "parabola":
        d, rep = 2, decouple.ratio_scan(args.Ns, args.ensemble, args.trials, args.seed, args.samples)
    else:
        d, rep = 4, decouple.bilinear_scan(args.Ns, args.samples, args.seed, args.ensemble)
    rows = [(d, r.N, args.ensemble, r.lhs, r.rhs, r.ratio, r.stderr, r.samples,
             None if r.samples is None else args.seed) for r in rep.rows]
    meta = {"slope": rep.slope, "slope_stderr": rep.slope_stderr}
    if args.mode == "bilinear":
        meta["status"] = "exploratory"
    meta["plot_axes"] = ("N", "ratio")
    return Report(columns=DECOUPLE_COLUMNS, rows=rows, meta=meta)


def _cmd_zeta_scan(args) -> Report:
    scan = zeta.growth_scan(args.t_min, args.t_max, args.points, args.seed)
    return Report(
        columns=ZETA_COLUMNS,
        rows=list(scan.rows),
        meta={"running_max": scan.running_max, "plot_axes": ("t", "ratio_13_84")},
    )


def _cmd_zeta_value(args) -> Report:
    # t below 2 pi exits 2, a t past the guard 3, a slack not finite 2: before any sum
    zeta.afe_cutoff(args.t)
    zeta.oracle_terms(args.t)
    zeta.check_slack(args.slack)
    main = zeta.afe_main_sum(args.t)
    bound = zeta.afe_upper_bound(args.t, args.slack, main)
    value = zeta.zeta_oracle(args.t, main)
    report = Report(columns=ZETA_COLUMNS, rows=[zeta.growth_row(args.t, value)])
    report.text = [
        f"zeta(1/2+{args.t}i) = {value.value} (abs_err {value.err:.3g})",
        f"afe bound 2|S|+{args.slack} = {bound:.6f} (slack: unquantified constant)",
    ]
    return report


def _cmd_zeta_afe(args) -> Report:
    rows, violations = zeta.afe_consistency_scan(args.t_min, args.t_max, args.points, args.slack)
    report = Report(
        columns=("t", "afe_bound", "oracle_floor"),
        rows=rows,
        meta={"violations": len(violations), "plot_axes": ("t", "afe_bound")},
    )
    report.text = [f"violations={len(violations)} (slack C={args.slack})"]
    return report


def _cmd_expsum_quadruple(args) -> Report:
    x = _parse_floats(args.x, 4)
    res = expsum.eval_quadruple_sum(args.N, x)
    return Report(
        columns=("kind", "N", "x1", "x2", "x3", "x4", "re", "im", "abs", "err"),
        rows=[("quadruple", args.N, *x, res.re, res.im, abs(res), res.err)],
    )


def _cmd_expsum_dyadic(args) -> Report:
    T = args.T / (2 * math.pi) if args.radians else args.T
    res = expsum.eval_dyadic_sum(T, args.M, args.kind, args.exponent)
    return Report(
        columns=("kind", "T_cycles", "M", "re", "im", "abs", "err"),
        rows=[(args.kind, T, args.M, res.re, res.im, abs(res), res.err)],
        meta={"convention": "radians" if args.radians else "cycles"},
    )


# ------------------------------------------------------------------- plumbing


def _load_config(path: str) -> dict:
    settings = {}
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {number} of {path} is not key=value: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r} in {path} (known: {', '.join(CONFIG_KEYS)})")
            settings[key] = value
    return settings


def _global_flags() -> argparse.ArgumentParser:
    """Global options, shared by the root and every leaf parser so that they
    are accepted both before and after the subcommand.

    Unset flags leave no attribute (SUPPRESS), so a leaf never clobbers a
    value parsed at the root; `_resolve_defaults` fills in the rest.
    """
    flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    flags.add_argument("--config", help="flat key=value config file (flags win)")
    flags.add_argument("--seed", type=int, help="PRNG seed (default 0)")
    flags.add_argument("--out", help="output file (default stdout)")
    flags.add_argument("--format", choices=("csv", "json"))
    flags.add_argument("--plot-script", help="also write a plot script (requires --out and CSV)")
    return flags


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The root parser, built once per process: building it takes about
    4 ms, and `parse_args` keeps no state between calls (each returns a
    fresh namespace, and unset global flags leave no attribute)."""
    flags = _global_flags()
    # No abbreviations anywhere: a global flag must parse the same before
    # and after the subcommand, and a prefix such as `--form` is refused
    # rather than read as `--format`.
    parser = argparse.ArgumentParser(
        prog="zetalab",
        description="Desk-scale laboratory for exponential sums, mean values, "
        "exponent pairs, bound planning and critical-line growth.",
        parents=[flags],
        allow_abbrev=False,
    )
    leaf = {"parents": [flags], "allow_abbrev": False}
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pairs", help="exponent-pair calculus")
    ps = p.add_subparsers(dest="mode", required=True)
    w = ps.add_parser("word", **leaf, help="apply a word over {A,B} to a seed pair")
    w.add_argument("--word", required=True)
    w.add_argument("--seed-pair", type=_seed_pair, default="0,1")
    w.set_defaults(func=_cmd_pairs_word)
    s = ps.add_parser("search", **leaf, help="exhaustive word search")
    s.add_argument("--max-len", type=int, default=6)
    s.add_argument("--objective", choices=pairs.OBJECTIVES, default="zeta_exponent")
    s.add_argument("--seed-pair", type=_seed_pair, default=None)
    s.add_argument("--no-axiom", action="store_true")
    s.set_defaults(func=_cmd_pairs_search)

    p = sub.add_parser("planner", help="piecewise bounds, coverage, run planning")
    ps = p.add_subparsers(dest="mode", required=True)
    e = ps.add_parser("envelope", **leaf, help="exact envelope over a rational grid")
    e.add_argument("--denominator-bound", type=int, default=84)
    e.set_defaults(func=_cmd_planner_envelope)
    c = ps.add_parser("coverage", **leaf, help="exact critical-line coverage verification")
    c.add_argument("--denominator-bound", type=int, default=1000)
    c.set_defaults(func=_cmd_planner_coverage)
    pl = ps.add_parser("plan", **leaf, help="plan a concrete (T, M) run")
    pl.add_argument("--T", type=float, required=True)
    pl.add_argument("--M", type=int, required=True)
    pl.add_argument("--c", type=float, default=1.0)
    pl.add_argument("--t-threshold", type=float, default=1.0e6)
    pl.set_defaults(func=_cmd_planner_plan)

    p = sub.add_parser("meanvalue", help="moment counts and integrals")
    ps = p.add_subparsers(dest="mode", required=True)
    for mode in ("count", "kernel", "quadrature", "vinogradov"):
        m = ps.add_parser(mode, **leaf)
        m.add_argument("--N", "--Ns", dest="Ns", type=_n_list, required=True, help="comma list of N")
        m.add_argument("--timing", action="store_true", help="populate the seconds column")
        if mode == "count":
            m.add_argument("--window3", type=float, default=None)
            m.add_argument("--window4", type=float, default=None)
        elif mode == "vinogradov":
            m.add_argument("--s", type=int, default=3)
        else:
            m.add_argument("--r", type=int, default=6)
            m.add_argument("--delta", type=float, default=None)
            m.add_argument("--Delta", type=float, default=None)
            if mode == "quadrature":
                m.add_argument("--samples", type=int, default=100_000)
        m.set_defaults(func=_cmd_meanvalue, mode=mode)

    p = sub.add_parser("decouple", help="decoupling-inequality probes")
    ps = p.add_subparsers(dest="mode", required=True)
    for mode in ("parabola", "bilinear"):
        m = ps.add_parser(mode, **leaf)
        m.add_argument("--Ns", type=_n_list, default="16,32,64,128" if mode == "parabola" else "8,16,32")
        m.add_argument("--ensemble", choices=decouple.ENSEMBLES, default="ones")
        m.add_argument("--samples", type=int, default=1 << 14)
        if mode == "parabola":
            m.add_argument("--trials", type=int, default=1)
        m.set_defaults(func=_cmd_decouple, mode=mode)

    p = sub.add_parser("zeta", help="critical-line evaluation and scans")
    ps = p.add_subparsers(dest="mode", required=True)
    sc = ps.add_parser("scan", **leaf, help="growth scan |zeta|/t^(13/84)")
    sc.add_argument("--t-min", type=float, default=10.0)
    sc.add_argument("--t-max", type=float, default=1.0e4)
    sc.add_argument("--points", type=int, default=200)
    sc.set_defaults(func=_cmd_zeta_scan)
    v = ps.add_parser("value", **leaf, help="single-point oracle value + AFE bound")
    v.add_argument("--t", type=float, required=True)
    v.add_argument("--slack", type=float, default=zeta.DEFAULT_SLACK)
    v.set_defaults(func=_cmd_zeta_value)
    af = ps.add_parser("afe", **leaf, help="one-sided AFE consistency scan")
    af.add_argument("--t-min", type=float, default=10.0)
    af.add_argument("--t-max", type=float, default=1.0e4)
    af.add_argument("--points", type=int, default=200)
    af.add_argument("--slack", type=float, default=zeta.DEFAULT_SLACK)
    af.set_defaults(func=_cmd_zeta_afe)

    p = sub.add_parser("expsum", help="direct sum evaluation")
    ps = p.add_subparsers(dest="mode", required=True)
    q = ps.add_parser("quadruple", **leaf)
    q.add_argument("--N", type=int, required=True)
    q.add_argument("--x", required=True, help="x1,x2,x3,x4")
    q.set_defaults(func=_cmd_expsum_quadruple)
    d = ps.add_parser("dyadic", **leaf)
    d.add_argument("--T", type=float, required=True)
    d.add_argument("--M", type=int, required=True)
    d.add_argument("--kind", choices=("log", "monomial"), default="log")
    d.add_argument("--exponent", type=_fraction, default=None)
    d.add_argument("--radians", action="store_true",
                   help="interpret --T as radians t (cycles T = t/(2 pi))")
    d.set_defaults(func=_cmd_expsum_dyadic)

    return parser


def _resolve_defaults(args) -> None:
    """Fill in the global flags left unset: config file, then built-in
    defaults."""
    config = _load_config(args.config) if "config" in args else {}
    if "seed" not in args:
        args.seed = int(config.get("seed", 0))
    if "format" not in args:
        args.format = config.get("format", "csv")
        if args.format not in ("csv", "json"):
            raise ValueError(f"config format must be csv or json, got {args.format!r}")
    if "out" not in args:
        args.out = config.get("out") or None
    if "plot_script" not in args:
        args.plot_script = None
    if args.plot_script and (not args.out or args.format != "csv"):
        raise ValueError("--plot-script requires --out and CSV output (the script reads the data file)")
    if args.plot_script and os.path.realpath(args.plot_script) == os.path.realpath(args.out):
        raise ValueError(f"--plot-script and --out name the same file {args.out!r}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        _resolve_defaults(args)
        report = args.func(args)
        emit(report, args)
    except GuardError as exc:
        print(f"error exit={EXIT_GUARD} kind=guard guard={exc.guard} message={exc}", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        path = getattr(exc, "filename", None) or ""
        print(f"error exit={EXIT_IO} kind=io path={path} message={exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as exc:
        print(f"error exit={EXIT_USAGE} kind=usage message={exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"# seconds={time.perf_counter() - started:.6f}", file=sys.stderr)
    return EXIT_OK


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
