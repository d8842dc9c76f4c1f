"""Benchmark of the zetalab CLI: four workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a zetalab checkout; the package is imported from its
`src/` directory. One run:

1. times SETUP_LAUNCHES fresh interpreters from launch until `zetalab.cli`
   is imported and reports the median as `setup_s`;
2. runs rounds of the workload's jobs (`workloads.py`), each round in a
   fresh interpreter (`worker.py`), until S seconds have passed; with
   `--trace 1` it runs one untraced and one traced round instead;
3. checks the first round's outputs (`checks.py`) and that every data file is
   byte-identical to the first round's and to the last run of the same job
   on the same program source;
4. prints one JSON line: `correct`, `attempted` and `failed` (CLI jobs, a job
   fails when it exits non-zero) and the metrics, end-to-end (`wall_s`,
   `peak_rss_mb`: medians over rounds; `setup_s`) or per-layer.

The check log goes to stderr and to `perfbench/runs/<workload>/checks.log`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "runs"
DIGESTS = RUNS / "digests.json"
SETUP_LAUNCHES = 9
ROUND_TIMEOUT_S = 75
SETUP_CODE = "import sys, time; sys.path.insert(0, sys.argv[1]); import zetalab.cli; print(repr(time.monotonic()))"

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".peak_mb"):
        return "MB"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def measure_setup() -> float:
    """Seconds from launching an interpreter until `zetalab.cli` is imported."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)], capture_output=True, text=True, timeout=60, check=True
    )
    return float(proc.stdout) - start


def run_round(jobs, round_dir: Path, trace: bool) -> dict:
    round_dir.mkdir(parents=True)
    (round_dir / "jobs.json").write_text(json.dumps([job.command for job in jobs]))
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(round_dir), str(SRC), "1" if trace else "0"],
        stdout=sys.stderr, check=True, timeout=ROUND_TIMEOUT_S,
    )
    return json.loads((round_dir / "result.json").read_text())


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "zetalab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_outputs(name: str, jobs, round_dirs: list[Path], results: list[dict], log) -> list[str]:
    problems = []
    first = round_dirs[0]
    store = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    source = source_digest()
    for i, job in enumerate(jobs):
        codes = [r["codes"][i] for r in results]
        label = f"job {i} `zetalab {' '.join(job.command)}`"
        log(f"{label}: exit {codes}{' (known failure)' if job.known_failure else ''}")
        if codes[0] != 0:
            continue
        problems += checks.run_check(job, first, i, log)
        data = (first / job.out).read_bytes()
        for rdir, code in zip(round_dirs[1:], codes[1:]):
            if code == 0 and (rdir / job.out).read_bytes() != data:
                problems.append(f"{label}: {rdir.name}/{job.out} differs from {first.name}/{job.out}")
        key = f"{source} {name} {' '.join(job.command)}"
        digest = hashlib.sha256(data).hexdigest()
        if store.get(key, digest) != digest:
            problems.append(f"{label}: data file differs from the previous run with the same flags")
        store[key] = digest
    DIGESTS.write_text(json.dumps(store, indent=0, sort_keys=True))
    for problem in problems:
        log(f"PROBLEM {problem}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zetalab" / "cli.py").is_file():
        print(f"perfbench: no zetalab sources under {SRC}; run from a zetalab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    jobs = workloads.build(args.workload, args.seed)
    run_dir = RUNS / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup_s = statistics.median(measure_setup() for _ in range(SETUP_LAUNCHES))
    # A traced run is one untraced round, then one traced round.
    round_dirs, results, traced = [], [], []
    started = time.monotonic()
    while len(results) < 1 + args.trace or (not args.trace and time.monotonic() - started < args.seconds):
        traced.append(bool(args.trace) and len(results) == 1)
        round_dirs.append(run_dir / f"round{len(results) + 1}")
        results.append(run_round(jobs, round_dirs[-1], traced[-1]))

    lines = []

    def log(message: str) -> None:
        lines.append(message)
        print(message, file=sys.stderr)

    log(f"workload={args.workload} seed={args.seed} rounds={len(results)} setup_s={setup_s:.4f}")
    problems = check_outputs(args.workload, jobs, round_dirs, results, log)
    (run_dir / "checks.log").write_text("\n".join(lines) + "\n")

    plain = [r for r, t in zip(results, traced) if not t]
    if args.trace:
        layer = dict(results[1]["layers"])
        layer["process.cpu_s"] = plain[0]["cpu_s"]
        layer["trace.overhead_s"] = results[1]["wall_s"] - plain[0]["wall_s"]
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layer.items()}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": setup_s,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    attempted = len(jobs) * len(results)
    failed = sum(code != 0 for r in results for code in r["codes"])
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
