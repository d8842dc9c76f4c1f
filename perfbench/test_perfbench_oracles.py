"""The benchmark's reference computations against plain enumeration.

    python3 -m pytest perfbench/test_perfbench_oracles.py -q
"""

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import checks
import oracles
import run
import tracing
import workloads


def _tuples(N, s):
    return list(itertools.product(range(1, N + 1), repeat=s))


def _key(t):
    return (sum(t), sum(v * v for v in t))


@pytest.mark.parametrize("N,s", [(3, 3), (4, 3), (3, 6), (4, 6)])
def test_diagonal_count_is_rearrangement_pairs(N, s):
    content = Counter(tuple(sorted(t)) for t in _tuples(N, s))
    assert oracles.diagonal_count(N, s) == sum(c * c for c in content.values())


@pytest.mark.parametrize("N,s", [(4, 2), (7, 2), (4, 3), (6, 3), (3, 6)])
def test_vinogradov_J_by_enumeration(N, s):
    keys = Counter(_key(t) for t in _tuples(N, s))
    brute = sum(c * c for c in keys.values())
    assert oracles.vinogradov_J(N, s) == brute
    assert oracles.vinogradov_J_sorted(N, s) == brute


@pytest.mark.parametrize("N,s", [(24, 3), (40, 2), (6, 6)])
def test_dense_and_sorted_routes_agree(N, s):
    dense = sum(v * v for v in oracles.power_sum_counts(N, s).ravel().tolist())
    assert dense == oracles.vinogradov_J_sorted(N, s)


def test_vinogradov_closed_form_for_pairs():
    for N in (5, 16, 64):
        assert oracles.vinogradov_J(N, 2) == 2 * N * N - N


@pytest.mark.parametrize("N,w3,w4", [(3, 0.3, 0.3), (4, 0.5, 0.25), (4, 2.0, 0.1), (4, math.inf, math.inf)])
def test_windowed_count_by_enumeration(N, w3, w4):
    tup = np.array(_tuples(N, 6), dtype=np.float64)
    s1, s2 = tup.sum(1), (tup**2).sum(1)
    d3, d4 = (tup**1.5).sum(1), np.sqrt(tup).sum(1)
    ok = (
        (s1[:, None] == s1[None, :])
        & (s2[:, None] == s2[None, :])
        & (np.abs(d3[:, None] - d3[None, :]) <= w3)
        & (np.abs(d4[:, None] - d4[None, :]) <= w4)
    )
    assert oracles.windowed_count_decimal(N, w3, w4) == int(ok.sum())


@pytest.mark.parametrize("N,r,delta,Delta", [(4, 3, None, None), (3, 6, None, None), (4, 3, 0.3, 0.7)])
def test_kernel_sum_by_enumeration(N, r, delta, Delta):
    delta = N**-2.0 if delta is None else delta
    Delta = 1.0 / N if Delta is None else Delta
    tup = np.array(_tuples(N, r), dtype=np.float64)
    s1, s2 = tup.sum(1), (tup**2).sum(1)
    d3, d4 = (tup**1.5).sum(1), np.sqrt(tup).sum(1)
    same = (s1[:, None] == s1[None, :]) & (s2[:, None] == s2[None, :])
    k3 = 2.0 * np.sinc(2.0 * (d3[:, None] - d3[None, :]) / (delta * N**1.5))
    k4 = 2.0 * np.sinc(2.0 * (d4[:, None] - d4[None, :]) / (Delta * N**0.5))
    brute = float((same * k3 * k4).sum())
    value, mass = oracles.kernel_sum(N, r, delta, Delta)
    assert abs(value - brute) <= 1e-12 * mass


def test_parabola_sixth_moment_by_exact_quadrature():
    # A grid finer than the largest frequency averages a trigonometric
    # polynomial exactly.
    N = 5
    a = np.exp(2j * np.pi * np.random.default_rng(3).random(N))
    n = np.arange(1, N + 1)
    u = np.arange(6 * N + 1) / (6 * N + 1)
    v = np.arange(6 * N * N + 1) / (6 * N * N + 1)
    phase = n[None, None, :] * u[:, None, None] + n[None, None, :] ** 2 * v[None, :, None]
    s = (a * np.exp(2j * np.pi * phase)).sum(axis=2)
    assert oracles.parabola_sixth_moment(a) == pytest.approx(float(np.mean(np.abs(s) ** 6)), rel=1e-12)


def test_parabola_sixth_moment_of_ones_is_J():
    for N in (8, 16):
        assert oracles.parabola_sixth_moment(np.ones(N)) == pytest.approx(oracles.vinogradov_J(N, 3), rel=1e-14)


def test_bilinear_cube_mean_single_terms():
    # One term per interval: |S_1| = |S_2| = 1 everywhere.
    assert oracles.bilinear_cube_mean(4) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("N", [8, 16])
def test_bilinear_cube_mean_by_monte_carlo(N):
    q = N // 4
    t = np.arange(1, N + 1) / N
    phi = np.stack([t, t * t, t**1.5, np.sqrt(t)], axis=1)
    rng = np.random.default_rng(11)
    vals = []
    for _ in range(8):
        x = (rng.random((1 << 15, 4)) - 0.5) * N
        s1 = np.exp(2j * np.pi * (x @ phi[:q].T)).sum(axis=1)
        s2 = np.exp(2j * np.pi * (x @ phi[N - q :].T)).sum(axis=1)
        vals.append(np.abs(s1) ** 6 * np.abs(s2) ** 6)
    vals = np.concatenate(vals)
    mean, se = vals.mean(), vals.std() / math.sqrt(vals.size)
    assert abs(mean - oracles.bilinear_cube_mean(N)) < 5 * se


def test_stored_references_name_their_command():
    for N, entry in checks.REFERENCE["bilinear_cube_mean"].items():
        assert entry["command"] == f"python3 perfbench/oracles.py bilinear {N}"


def test_coverage_point_count_by_enumeration():
    for Q in (1, 2, 3, 10, 57):
        brute = sum(
            1 for q in range(1, Q + 1) for p in range(0, q // 2 + 1) if math.gcd(p, q) == 1
        )
        assert oracles.reduced_fractions_upto_half(Q) == brute
        assert oracles.farey_count(Q) == len({Fraction(p, q) for q in range(1, Q + 1) for p in range(q + 1)})


def test_crossovers_meet_the_target():
    assert oracles.crossover("resonance") == Fraction(332, 819)
    assert oracles.crossover("pair") == Fraction(11, 28)
    assert oracles.crossover("trivial") == Fraction(13, 42)
    assert oracles.crossover("main") == Fraction(17, 42)


def test_envelope_is_the_minimum_of_the_pieces():
    assert oracles.envelope(Fraction(0)) == (Fraction(0), "trivial")
    assert oracles.envelope(Fraction(1, 2)) == (Fraction(13, 84) + Fraction(1, 4), "main")
    assert oracles.envelope(Fraction(12, 31))[1] != "resonance"  # open end


def test_apply_word_known_pair():
    assert oracles.apply_word("ABAAB", (Fraction(0), Fraction(1))) == (Fraction(1, 9), Fraction(13, 18))


def test_quadruple_reference_by_mpmath():
    mpmath = pytest.importorskip("mpmath")
    N, x = 40, [3 / 8, 5 / 2**20, 0.3, 0.7]
    value, _ = oracles.quadruple_sum(N, x)
    with mpmath.workdps(40):
        ref = mpmath.fsum(
            mpmath.expjpi(2 * (n * mpmath.mpf(x[0]) + n * n * mpmath.mpf(x[1])
                               + mpmath.sqrt(N) * (mpmath.mpf(n) ** 1.5 * mpmath.mpf(x[2]) + mpmath.sqrt(n) * mpmath.mpf(x[3]))))
            for n in range(1, N + 1)
        )
    assert abs(value - complex(ref)) < 1e-12


def test_critical_values_are_the_stated_quantiles():
    stats = pytest.importorskip("scipy.stats")
    assert checks.T7_CRIT == pytest.approx(stats.t.isf(5e-7, 7), abs=0.01)
    assert checks.NORMAL_CRIT == pytest.approx(stats.norm.isf(5e-7), abs=0.01)


def test_metric_lists_match_the_benchmark_file():
    path = Path(run.__file__).parent.parent / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("no BENCHMARK.json next to the benchmark")
    spec = json.loads(path.read_text())
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    traced = [name for name, _, _ in tracing.LAYER_METRICS]
    traced += ["cli.self.s", "expsum.terms_per_s", "pairs.processes_applied", "process.cpu_s", "trace.overhead_s"]
    assert sorted(traced) == sorted(layers)
    assert all(run.layer_unit(name) == unit for name, unit in layers.items())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS


def _table_keys(job):
    """(N, tuple size) of every multiset table a job builds."""
    flags = dict(zip(job.argv[2::2], job.argv[3::2]))
    ns = [int(n) for n in flags.get("--Ns", flags.get("--N", "")).split(",") if n]
    command = job.argv[:2]
    if command == ("meanvalue", "count"):
        return [(n, 6) for n in ns]
    if command == ("meanvalue", "kernel"):
        return [(n, int(flags.get("--r", 6))) for n in ns]
    if command == ("meanvalue", "vinogradov"):
        return [(n, int(flags.get("--s", 3))) for n in ns]
    if command == ("decouple", "parabola") and flags.get("--ensemble", "ones") == "ones":
        return [(n, 3) for n in ns]
    return []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_no_two_jobs_share_a_multiset_table(name):
    keys = [key for job in workloads.build(name, 0) for key in _table_keys(job)]
    assert keys and len(keys) == len(set(keys))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_repeat_for_a_seed(name):
    assert workloads.build(name, 5) == workloads.build(name, 5)
