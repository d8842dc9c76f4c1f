"""One round of a workload in a fresh interpreter.

    python3 perfbench/worker.py ROUND_DIR SRC_DIR TRACE

ROUND_DIR holds `jobs.json`, a list of argument lists. Each runs through
`zetalab.cli.main(argv)` with ROUND_DIR as the working directory, so its
`--out` file lands there; its stdout and stderr are kept in memory and
written to `job<i>.out` / `job<i>.err` after the last job. The round writes
`result.json`: wall and CPU time from the first job's start to the last
job's end, the peak resident set of the process, each job's exit code and
seconds, and with TRACE=1 the per-layer metrics of `tracing.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    round_dir, src, trace = Path(sys.argv[1]), sys.argv[2], sys.argv[3] == "1"
    sys.path.insert(0, src)
    from zetalab import cli

    jobs = json.loads((round_dir / "jobs.json").read_text())
    os.chdir(round_dir)
    recorder = None
    if trace:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    codes, seconds, streams = [], [], []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for argv in jobs:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # an uncaught error ends the CLI process with 1
                traceback.print_exc()
                code = 1
        seconds.append(time.perf_counter() - start)
        codes.append(code)
        streams.append((out.getvalue(), err.getvalue()))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "codes": codes,
        "seconds": seconds,
    }
    if recorder is not None:
        result["layers"] = tracing.layer_metrics(recorder)
        with open("spans.jsonl", "w") as fh:
            for name, start, end, parent, work, _, _ in recorder.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "work": work}) + "\n")
    for i, (out, err) in enumerate(streams):
        Path(f"job{i}.out").write_text(out)
        Path(f"job{i}.err").write_text(err)
    Path("result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
