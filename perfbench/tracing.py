"""Per-layer spans, recorded from outside the program.

`install` replaces public functions of zetalab's modules by timing wrappers,
at the module attributes where callers look them up: `zetalab.decouple`
imports `vinogradov_count` and `halton` by name and `zetalab.expsum` imports
`neumaier_sum` and `frac_poly_phase`, so those modules are patched as well.
Each call leaves a span (name, start, end, parent, work) in memory; work is
worked out from the call's inputs or its result, so it repeats exactly. While a
layer that reports a peak runs, a thread samples the resident set every few
milliseconds. `layer_metrics` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import Counter

RSS_INTERVAL_S = 0.002
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


class RssSampler:
    """Largest resident set seen from construction to stop(), sampled by a
    thread every RSS_INTERVAL_S."""

    def __init__(self):
        self.peak = _resident_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.wait(RSS_INTERVAL_S):
            self.peak = max(self.peak, _resident_bytes())

    def stop(self) -> int:
        self._stop.set()
        self._thread.join()
        return max(self.peak, _resident_bytes())


class Recorder:
    def __init__(self):
        # [name, start, end, parent index, work, notes, peak resident bytes]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, fn, name: str, work=None, note=None, peak=False):
        """work(args, kwargs, result, parent_notes) -> count; note(args,
        kwargs) -> dict kept on the span for its children's work; peak:
        sample the resident set while the call runs."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, 0, note(args, kwargs) if note else None, 0]
            stack.append(len(spans))
            spans.append(span)
            sampler = RssSampler() if peak else None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if sampler is not None:
                    span[6] = sampler.stop()
            if work is not None:
                span[4] = work(args, kwargs, result, spans[parent][5] if parent >= 0 else None)
            return result

        return traced

    def counter(self, fn, name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def _arg(args, kwargs, i, key, default=None):
    return args[i] if len(args) > i else kwargs.get(key, default)


def _qmc_points(args, kwargs):
    samples = _arg(args, kwargs, 2, "samples")
    replicates = _arg(args, kwargs, 4, "replicates", 8)
    return replicates * max(samples // replicates, 1)


def install(rec: Recorder) -> None:
    from zetalab import cli, decouple, expsum, meanvalue, pairs, planner, zeta

    def patch(module, attr, name, work=None, note=None, peak=False):
        setattr(module, attr, rec.wrap(getattr(module, attr), name, work, note, peak))

    patch(cli, "main", "cli.main")
    patch(meanvalue, "count_windowed", "meanvalue.count_windowed",
          lambda a, k, r, p: math.comb(_arg(a, k, 0, "N") + 5, 6), peak=True)
    patch(meanvalue, "moment_kernel_sum", "meanvalue.moment_kernel_sum",
          lambda a, k, r, p: math.comb(a[0].N + a[0].r - 1, a[0].r))
    vinogradov = rec.wrap(meanvalue.vinogradov_count, "meanvalue.vinogradov_count",
                          lambda a, k, r, p: math.comb(_arg(a, k, 0, "N") + _arg(a, k, 1, "s") - 1, _arg(a, k, 1, "s")),
                          peak=True)
    meanvalue.vinogradov_count = decouple.vinogradov_count = vinogradov
    patch(meanvalue, "moment_monte_carlo", "meanvalue.moment_monte_carlo",
          lambda a, k, r, p: _arg(a, k, 1, "samples") * a[0].N)
    patch(decouple, "ratio_scan", "decouple.ratio_scan")
    patch(decouple, "bilinear_scan", "decouple.bilinear_scan")
    patch(decouple, "parabola_l6_lhs", "decouple.parabola_l6_lhs",
          note=lambda a, k: {"terms_per_point": len(a[0])})
    patch(decouple, "bilinear_d4_ratio", "decouple.bilinear_d4_ratio",
          note=lambda a, k: {"terms_per_point": sum(hi - lo + 1 for lo, hi in a[0].intervals)})
    patch(decouple, "qmc_mean", "decouple.qmc_mean",
          lambda a, k, r, p: _qmc_points(a, k) * (p or {}).get("terms_per_point", 0))
    patch(decouple, "halton", "numerics.halton")
    patch(expsum, "eval_quadruple_sum", "expsum.eval_quadruple_sum", lambda a, k, r, p: _arg(a, k, 0, "N"))
    patch(expsum, "eval_dyadic_sum", "expsum.eval_dyadic_sum",
          lambda a, k, r, p: _arg(a, k, 1, "M") - _arg(a, k, 1, "M") // 2)
    patch(expsum, "neumaier_sum", "numerics.neumaier_sum", lambda a, k, r, p: len(a[0]))
    patch(expsum, "frac_poly_phase", "numerics.frac_poly_phase")
    patch(zeta, "zeta_em_oracle", "zeta.zeta_em_oracle",
          lambda a, k, r, p: _arg(a, k, 1, "terms") or zeta.default_oracle_terms(a[0]))
    patch(zeta, "afe_main_sum", "zeta.afe_main_sum")
    patch(zeta, "growth_scan", "zeta.growth_scan")
    patch(zeta, "afe_consistency_scan", "zeta.afe_consistency_scan")
    patch(planner, "verify_critical_line_coverage", "planner.verify_critical_line_coverage",
          lambda a, k, r, p: r.points_checked)
    patch(planner, "envelope", "planner.envelope", lambda a, k, r, p: 1)
    patch(pairs, "search_words", "pairs.search_words")
    pairs.apply_A = rec.counter(pairs.apply_A, "pairs.processes_applied")
    pairs.apply_B = rec.counter(pairs.apply_B, "pairs.processes_applied")


# (metric, span name, kind); kind "s" is busy time, "work" the summed work,
# "rate" work per busy second, "peak_mb" the largest resident set sampled
# while a span of that name was open.
LAYER_METRICS = (
    ("meanvalue.count_windowed.s", "meanvalue.count_windowed", "s"),
    ("meanvalue.count_windowed.multisets", "meanvalue.count_windowed", "work"),
    ("meanvalue.count_windowed.multisets_per_s", "meanvalue.count_windowed", "rate"),
    ("meanvalue.count_windowed.peak_mb", "meanvalue.count_windowed", "peak_mb"),
    ("meanvalue.moment_kernel_sum.s", "meanvalue.moment_kernel_sum", "s"),
    ("meanvalue.moment_kernel_sum.multisets_per_s", "meanvalue.moment_kernel_sum", "rate"),
    ("meanvalue.vinogradov_count.s", "meanvalue.vinogradov_count", "s"),
    ("meanvalue.vinogradov_count.multisets", "meanvalue.vinogradov_count", "work"),
    ("meanvalue.vinogradov_count.multisets_per_s", "meanvalue.vinogradov_count", "rate"),
    ("meanvalue.vinogradov_count.peak_mb", "meanvalue.vinogradov_count", "peak_mb"),
    ("decouple.ratio_scan.s", "decouple.ratio_scan", "s"),
    ("meanvalue.moment_monte_carlo.s", "meanvalue.moment_monte_carlo", "s"),
    ("meanvalue.moment_monte_carlo.terms_per_s", "meanvalue.moment_monte_carlo", "rate"),
    ("decouple.qmc_mean.s", "decouple.qmc_mean", "s"),
    ("decouple.qmc_mean.terms_per_s", "decouple.qmc_mean", "rate"),
    ("decouple.bilinear_scan.s", "decouple.bilinear_scan", "s"),
    ("numerics.halton.s", "numerics.halton", "s"),
    ("expsum.eval_quadruple_sum.s", "expsum.eval_quadruple_sum", "s"),
    ("expsum.eval_dyadic_sum.s", "expsum.eval_dyadic_sum", "s"),
    ("numerics.neumaier_sum.s", "numerics.neumaier_sum", "s"),
    ("numerics.neumaier_sum.values", "numerics.neumaier_sum", "work"),
    ("numerics.frac_poly_phase.s", "numerics.frac_poly_phase", "s"),
    ("zeta.zeta_em_oracle.s", "zeta.zeta_em_oracle", "s"),
    ("zeta.zeta_em_oracle.terms", "zeta.zeta_em_oracle", "work"),
    ("zeta.zeta_em_oracle.terms_per_s", "zeta.zeta_em_oracle", "rate"),
    ("zeta.afe_main_sum.s", "zeta.afe_main_sum", "s"),
    ("zeta.growth_scan.s", "zeta.growth_scan", "s"),
    ("zeta.afe_consistency_scan.s", "zeta.afe_consistency_scan", "s"),
    ("planner.verify_critical_line_coverage.s", "planner.verify_critical_line_coverage", "s"),
    ("planner.verify_critical_line_coverage.points", "planner.verify_critical_line_coverage", "work"),
    ("planner.envelope.s", "planner.envelope", "s"),
    ("planner.envelope.calls", "planner.envelope", "work"),
    ("pairs.search_words.s", "pairs.search_words", "s"),
    ("cli.main.s", "cli.main", "s"),
)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    busy: Counter = Counter()  # seconds; a layer the workload never calls reads 0
    work: Counter = Counter()
    peak: Counter = Counter()
    child_time: Counter = Counter()
    for name, start, end, parent, w, _, resident in rec.spans:
        busy[name] += end - start
        work[name] += w
        peak[name] = max(peak[name], resident)
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for metric, name, kind in LAYER_METRICS:
        if kind == "s":
            out[metric] = float(busy[name])
        elif kind == "work":
            out[metric] = work[name]
        elif kind == "rate":
            out[metric] = work[name] / busy[name] if busy[name] else 0.0
        else:
            out[metric] = peak[name] / 2**20
    out["cli.self.s"] = sum(
        end - start - child_time[i]
        for i, (name, start, end, *_rest) in enumerate(rec.spans)
        if name == "cli.main"
    )
    sums = ("expsum.eval_quadruple_sum", "expsum.eval_dyadic_sum")
    sum_s = sum(busy[name] for name in sums)
    out["expsum.terms_per_s"] = sum(work[name] for name in sums) / sum_s if sum_s else 0.0
    out["pairs.processes_applied"] = rec.counts["pairs.processes_applied"]
    return out
