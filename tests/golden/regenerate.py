"""The golden corpus of the `zetalab` CLI: one small job per leaf (all 16),
a few of them also with `--format json`, `planner coverage` also at a bound
whose grid spans two blocks, `zeta value` and `zeta scan` also above
`zeta.RS_MIN_T` (the Riemann-Siegel route), `zeta value` also at
t = RS_MIN_T, its first point, `decouple parabola` also with three
sampled trials of three N at a sample count that ends in a partial slice,
and two jobs that exit at a guard and at a usage error. `JOBS` is the one job list: this script writes the
corpus from it, and `tests/test_golden.py` reruns it and compares.

Run from the root of a checkout to rewrite the corpus:

    PYTHONPATH=src python tests/golden/regenerate.py

Each job runs through `zetalab.cli.main(argv + ["--out", FILE])` in this
process, FILE named after the job under `files/`; `manifest.json` records
each job's argv, exit code and stdout (the prose lines, which go to stdout
under --out). No job takes --timing, whose column holds wall time. A change
that moves output bits on purpose regenerates the corpus, so its diff shows
each moved cell.

The corpus pins this host's libm bits (`np.log`, `np.exp`, `np.sin`,
`np.sqrt`), as `test_kernel_value_pinned` and
`test_afe_main_sum_bits_are_pinned` already do: on another platform a float
cell may differ in its last place with no change to the program.
"""

from __future__ import annotations

import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from zetalab import cli

GOLDEN = Path(__file__).resolve().parent
FILES = GOLDEN / "files"
MANIFEST = GOLDEN / "manifest.json"

JOBS = (
    ("pairs-word", ["pairs", "word", "--word", "ABAAB", "--seed-pair", "0,1"]),
    ("pairs-search", ["pairs", "search", "--no-axiom", "--max-len", "5"]),
    ("pairs-search-empty", ["pairs", "search", "--no-axiom", "--max-len", "0", "--format", "json"]),
    ("planner-envelope", ["planner", "envelope", "--denominator-bound", "12"]),
    ("planner-coverage", ["planner", "coverage", "--denominator-bound", "30"]),
    ("planner-coverage-blocks", ["planner", "coverage", "--denominator-bound", "600", "--format", "json"]),
    ("planner-plan", ["planner", "plan", "--T", "1e6", "--M", "1000"]),
    ("meanvalue-count", ["meanvalue", "count", "--Ns", "4,6,5"]),
    ("meanvalue-count-inf", ["meanvalue", "count", "--N", "6", "--window3", "inf", "--window4", "inf"]),
    ("meanvalue-kernel", ["meanvalue", "kernel", "--Ns", "4,5", "--r", "3", "--format", "json"]),
    ("meanvalue-quadrature", ["meanvalue", "quadrature", "--N", "4", "--r", "3", "--samples", "2000",
                              "--seed", "3"]),
    ("meanvalue-vinogradov", ["meanvalue", "vinogradov", "--Ns", "16,8", "--s", "3"]),
    ("meanvalue-vinogradov-guard", ["meanvalue", "vinogradov", "--Ns", "8,1025", "--s", "3"]),
    ("meanvalue-kernel-usage", ["meanvalue", "kernel", "--Ns", "1,8", "--r", "3"]),
    ("decouple-parabola", ["decouple", "parabola", "--Ns", "4,5,6"]),
    ("decouple-parabola-signs", ["decouple", "parabola", "--Ns", "4,5,6", "--ensemble", "random_signs",
                                 "--samples", "64", "--trials", "2", "--seed", "5"]),
    ("decouple-parabola-draws", ["decouple", "parabola", "--Ns", "5,12,24", "--ensemble", "random_phase",
                                 "--samples", "40000", "--trials", "3", "--seed", "4"]),
    ("decouple-bilinear", ["decouple", "bilinear", "--Ns", "8,12", "--samples", "256", "--seed", "1",
                           "--format", "json"]),
    ("zeta-scan", ["zeta", "scan", "--t-min", "10", "--t-max", "100", "--points", "5", "--seed", "2",
                   "--format", "json"]),
    ("zeta-value", ["zeta", "value", "--t", "100"]),
    ("zeta-value-rs", ["zeta", "value", "--t", "5000"]),
    ("zeta-value-rs-edge", ["zeta", "value", "--t", "1000"]),
    ("zeta-scan-rs", ["zeta", "scan", "--t-min", "2000", "--t-max", "1e5", "--points", "4", "--seed", "7",
                      "--format", "json"]),
    ("zeta-afe", ["zeta", "afe", "--t-min", "10", "--t-max", "100", "--points", "4"]),
    ("expsum-quadruple", ["expsum", "quadruple", "--N", "64", "--x", "0.1,0.2,0.3,0.4"]),
    ("expsum-dyadic", ["expsum", "dyadic", "--T", "10", "--M", "64", "--kind", "monomial",
                       "--exponent", "3/2"]),
    ("expsum-dyadic-radians", ["expsum", "dyadic", "--T", "100", "--M", "50", "--radians",
                               "--format", "json"]),
)


def data_name(name: str, argv) -> str:
    """The data file of a job: its name, with the extension of its format."""
    return f"{name}.json" if "json" in argv else f"{name}.csv"


def run_job(name: str, argv, directory: Path) -> tuple[int, str, Path]:
    """(exit code, stdout, data file) of one job run through `cli.main`; the
    data file exists only if the job wrote one."""
    path = directory / data_name(name, argv)
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--out", str(path)])
    return code, stdout.getvalue(), path


def main() -> None:
    shutil.rmtree(FILES, ignore_errors=True)
    FILES.mkdir()
    manifest = {}
    for name, argv in JOBS:
        code, stdout, _ = run_job(name, argv, FILES)
        manifest[name] = {"argv": " ".join(argv), "exit": code, "stdout": stdout}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    main()
