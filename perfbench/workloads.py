"""The four workloads: fixed lists of `zetalab` CLI jobs built from a seed.

A job is the argument list a user would type after `zetalab`, the data file
it writes, and the name of the check in `checks.py` that validates it. Every
workload starts with the same tiny `smoke` jobs. No two
jobs of a workload use the same multiset table (the same N and tuple size),
so the program's table cache never serves a table that a user running each
command separately would have had to build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

EXPSUM_TERMS = 1 << 20


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: str
    out: str
    params: dict = field(default_factory=dict)
    # A job that fails on every run because of a known fault in the program;
    # it is counted in `failed`, never checked.
    known_failure: bool = False

    @property
    def command(self) -> list[str]:
        return [*self.argv, "--out", self.out]


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _phase_point(rng) -> list[float]:
    """x in [0, 1)^4 with x1, x2 multiples of 2^-53, so that the check can
    reduce the polynomial phase exactly."""
    return [int(v) / 2**53 for v in rng.integers(0, 1 << 53, size=2)] + [float(v) for v in rng.random(2)]


def smoke(rng) -> list[Job]:
    """Tiny jobs, one or two per layer, that every workload runs first, so
    that each traced run measures every per-layer metric; a layer that is
    never called would read a constant 0. Together they take about 0.2 s.
    Their multiset tables, (N, size) = (5, 6), (5, 3) and (9, 3), belong to
    no other job."""
    seed = str(int(rng.integers(0, 1 << 31)))
    x = _phase_point(rng)
    return [
        Job(("meanvalue", "count", "--N", "5"), "windowed_bounds", "smoke_count.csv"),
        Job(("meanvalue", "kernel", "--N", "5", "--r", "3"), "kernel", "smoke_kernel.csv"),
        Job(("meanvalue", "vinogradov", "--N", "9", "--s", "3"), "vinogradov", "smoke_vino.csv"),
        Job(("meanvalue", "quadrature", "--N", "4", "--r", "3", "--samples", "4000", "--seed", seed),
            "monte_carlo", "smoke_mc.csv"),
        Job(("decouple", "parabola", "--Ns", "4,5,6", "--ensemble", "random_signs", "--samples", "2048",
             "--seed", seed), "parabola_sampled", "smoke_parabola.csv",
            {"ensemble": "random_signs", "trials": 1, "seed": int(seed)}),
        Job(("decouple", "bilinear", "--Ns", "8,12", "--samples", "2048", "--seed", seed), "bilinear",
            "smoke_bilinear.csv"),
        Job(("expsum", "quadruple", "--N", "1000", "--x", ",".join(repr(v) for v in x)), "quadruple",
            "smoke_quadruple.csv", {"x": x}),
        Job(("expsum", "dyadic", "--T", "50.5", "--M", "1000"), "dyadic", "smoke_dyadic.csv", {"T": 50.5}),
        Job(("zeta", "scan", "--t-min", "10", "--t-max", "200", "--points", "4", "--seed", seed, "--format", "json"),
            "zeta_scan", "smoke_scan.json", {"t_min": 10.0, "t_max": 200.0}),
        Job(("zeta", "afe", "--t-min", "10", "--t-max", "200", "--points", "4", "--slack", "2", "--format", "json"),
            "zeta_afe", "smoke_afe.json", {"t_min": 10.0, "t_max": 200.0, "points": 4, "slack": 2.0}),
        Job(("planner", "coverage", "--denominator-bound", "20", "--format", "json"), "coverage",
            "smoke_coverage.json", {"Q": 20}),
        Job(("planner", "envelope", "--denominator-bound", "10"), "envelope", "smoke_envelope.csv", {"Q": 10}),
        Job(("pairs", "search", "--max-len", "4", "--format", "json"), "pairs_search", "smoke_search.json"),
    ]


def sextic_counts(rng) -> list[Job]:
    w3 = 10**-0.5 * rng.uniform(0.5, 2.0)
    w4 = 10**-0.5 * rng.uniform(0.5, 2.0)
    delta = _log_uniform(rng, 0.07, 1.0)
    Delta = _log_uniform(rng, 0.3, 1.0)
    return [
        Job(("meanvalue", "count", "--Ns", "24,32,40"), "windowed_bounds", "count.csv"),
        Job(("meanvalue", "count", "--N", "20", "--window3", "inf", "--window4", "inf"),
            "windowed_full", "count_full.csv"),
        Job(("meanvalue", "count", "--N", "10", "--window3", repr(w3), "--window4", repr(w4)),
            "windowed_decimal", "count_small.csv", {"w3": w3, "w4": w4}),
        Job(("meanvalue", "kernel", "--Ns", "4,6,8,12", "--r", "6",
             "--delta", repr(delta), "--Delta", repr(Delta)),
            "kernel", "kernel6.csv", {"delta": delta, "Delta": Delta}),
    ]


def cubic_counts(rng) -> list[Job]:
    delta = _log_uniform(rng, 120.0**-2, 1.0)
    Delta = _log_uniform(rng, 1.0 / 120, 1.0)
    return [
        Job(("meanvalue", "vinogradov", "--Ns", "64,128,192,256", "--s", "3"), "vinogradov", "vino3.csv"),
        Job(("meanvalue", "vinogradov", "--Ns", "32,64,128,256", "--s", "2"), "vinogradov", "vino2.csv"),
        Job(("decouple", "parabola", "--Ns", "16,32,48,96", "--ensemble", "ones"), "parabola_exact",
            "parabola.csv"),
        Job(("meanvalue", "kernel", "--N", "120", "--r", "3", "--delta", repr(delta), "--Delta", repr(Delta)),
            "kernel", "kernel3.csv", {"delta": delta, "Delta": Delta}),
    ]


def sampled_moments(rng) -> list[Job]:
    seeds = [int(s) for s in rng.integers(0, 1 << 31, size=4)]
    return [
        Job(("meanvalue", "quadrature", "--N", "6", "--r", "6", "--samples", "200000", "--seed", str(seeds[0])),
            "monte_carlo", "mc6.csv"),
        Job(("meanvalue", "quadrature", "--N", "12", "--r", "3", "--samples", "200000", "--seed", str(seeds[1])),
            "monte_carlo", "mc3.csv"),
        Job(("decouple", "parabola", "--Ns", "16,32,64,128", "--ensemble", "random_phase",
             "--samples", "65536", "--trials", "2", "--seed", str(seeds[2])),
            "parabola_sampled", "phase.csv", {"ensemble": "random_phase", "trials": 2, "seed": seeds[2]}),
        Job(("decouple", "parabola", "--Ns", "16,32,64", "--ensemble", "random_signs",
             "--samples", "32768", "--trials", "2", "--seed", str(seeds[3])),
            "parabola_sampled", "signs.csv", {"ensemble": "random_signs", "trials": 2, "seed": seeds[3]}),
        # The acceptance input of criterion 6, deliberately not seeded.
        Job(("decouple", "bilinear", "--Ns", "8,16,32", "--samples", "65536", "--seed", "0"),
            "bilinear", "bilinear.csv"),
    ]


def critical_line(rng) -> list[Job]:
    x = _phase_point(rng)
    T = float(rng.uniform(1000.0, 10000.0))
    t_min = float(rng.uniform(10.0, 20.0))
    scan_seed = int(rng.integers(0, 1 << 31))
    return [
        Job(("zeta", "scan", "--t-min", "1e4", "--t-max", "1e6", "--points", "24", "--seed", str(scan_seed),
             "--format", "json"), "zeta_scan", "scan.json", {"t_min": 1e4, "t_max": 1e6}),
        Job(("zeta", "afe", "--t-min", repr(t_min), "--t-max", "1e5", "--points", "40", "--slack", "2",
             "--format", "json"), "zeta_afe", "afe.json", {"t_min": t_min, "t_max": 1e5, "points": 40, "slack": 2.0}),
        # Fails on every run: the root parser reads --t as an ambiguous prefix
        # of --threads and --timing before the subcommand sees it.
        Job(("zeta", "value", "--t", "100"), "zeta_value", "value.csv", known_failure=True),
        Job(("expsum", "quadruple", "--N", str(EXPSUM_TERMS), "--x", ",".join(repr(v) for v in x)),
            "quadruple", "quadruple.csv", {"x": x}),
        Job(("expsum", "dyadic", "--T", repr(T), "--M", str(EXPSUM_TERMS)), "dyadic", "dyadic.csv", {"T": T}),
        Job(("planner", "coverage", "--denominator-bound", "1000", "--format", "json"), "coverage", "coverage.json",
            {"Q": 1000}),
        Job(("planner", "envelope", "--denominator-bound", "200"), "envelope", "envelope.csv", {"Q": 200}),
        Job(("pairs", "search", "--max-len", "16", "--format", "json"), "pairs_search", "search.json"),
    ]


WORKLOADS = {
    "sextic-counts": sextic_counts,
    "cubic-counts": cubic_counts,
    "sampled-moments": sampled_moments,
    "critical-line": critical_line,
}


def build(name: str, seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    return smoke(rng) + WORKLOADS[name](rng)
