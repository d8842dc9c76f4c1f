"""Decoupling probes: the exact parabola identity, unbiasedness of the
randomized estimates, and the bilinear scan contracts."""

import math

import numpy as np
import pytest

from zetalab import decouple, expsum
from zetalab.decouple import (
    QMC_SLICE,
    REPLICATES,
    DecouplingExperiment,
    RatioReport,
    bilinear_d4_ratio,
    bilinear_scan,
    default_intervals,
    parabola_l6_draws,
    parabola_l6_lhs,
    qmc_mean,
    ratio_scan,
)
from zetalab.errors import GuardError
from zetalab.expsum import phase_sums
from zetalab.meanvalue import vinogradov_count
from zetalab.numerics import halton


def test_exact_identity_lhs_sixth_power_is_count():
    for N in (4, 16, 64):
        lhs, err = parabola_l6_lhs(np.ones(N, dtype=complex), exact=True)
        assert err == 0.0
        assert lhs**6 == pytest.approx(float(vinogradov_count(N, 3).value), rel=1e-12)


def test_exact_mode_requires_unit_coefficients():
    with pytest.raises(ValueError):
        parabola_l6_lhs(np.array([1.0, 2.0]), exact=True)


def test_single_coefficient():
    lhs, _ = parabola_l6_lhs(np.ones(1, dtype=complex), exact=True)
    assert lhs == pytest.approx(1.0)
    # constant integrand in monte-carlo mode too
    lhs, err = parabola_l6_lhs(np.array([3.0 + 0j]), samples=512, seed=1)
    assert lhs == pytest.approx(3.0, rel=1e-12)
    assert err == pytest.approx(0.0, abs=1e-9)


def test_monte_carlo_agrees_with_exact():
    N = 16
    exact, _ = parabola_l6_lhs(np.ones(N, dtype=complex), exact=True)
    est, err = parabola_l6_lhs(np.ones(N, dtype=complex), samples=1 << 16, seed=9)
    assert err > 0
    assert abs(est - exact) <= 3.0 * err


def test_monte_carlo_half_sample_unbiasedness():
    # two half-budget estimates under different shifts average to the full
    # estimate within combined errors
    a = np.ones(12, dtype=complex)
    full, ef = parabola_l6_lhs(a, samples=1 << 15, seed=21)
    h1, e1 = parabola_l6_lhs(a, samples=1 << 14, seed=1021)
    h2, e2 = parabola_l6_lhs(a, samples=1 << 14, seed=2021)
    avg = 0.5 * (h1 + h2)
    tol = 3.0 * math.sqrt(ef**2 + 0.25 * (e1**2 + e2**2))
    assert abs(avg - full) <= tol


def test_lhs_triangle_inequality():
    # the averaged sum never exceeds the l^1 norm of the coefficients
    for N in (4, 16, 64):
        lhs, _ = parabola_l6_lhs(np.ones(N, dtype=complex), exact=True)
        assert lhs <= N * (1 + 1e-12)
    rng = np.random.default_rng(6)
    a = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    lhs, err = parabola_l6_lhs(a, samples=1 << 13, seed=2)
    assert lhs <= float(np.abs(a).sum()) + 3 * err


def test_scaling_invariance():
    a = np.ones(8, dtype=complex)
    base, _ = parabola_l6_lhs(a, samples=1 << 12, seed=4)
    doubled, _ = parabola_l6_lhs(2.0 * a, samples=1 << 12, seed=4)
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_integrand_at_zero_is_coefficient_sum():
    # the sum being averaged reduces to |sum a_n| at the origin
    rng = np.random.default_rng(2)
    a = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    n = np.arange(1, 11)
    val = np.sum(a * np.exp(2j * np.pi * (n * 0.0 + n * n * 0.0)))
    assert abs(val - a.sum()) < 1e-12


def test_experiment_validation():
    with pytest.raises(ValueError):
        DecouplingExperiment(3, 16)
    with pytest.raises(ValueError):
        DecouplingExperiment(2, 3)
    with pytest.raises(ValueError):
        DecouplingExperiment(2, 16, ensemble="bogus")
    exp = DecouplingExperiment(4, 16)
    assert exp.intervals == default_intervals(16)
    (a1, b1), (a2, b2) = exp.intervals
    assert a2 - b1 >= 16 // 4


def test_ensemble_coefficients_deterministic():
    e1 = DecouplingExperiment(2, 16, ensemble="random_signs", seed=5)
    e2 = DecouplingExperiment(2, 16, ensemble="random_signs", seed=5)
    assert np.array_equal(e1.coefficients(), e2.coefficients())
    signs = e1.coefficients()
    assert set(np.unique(signs.real)) <= {-1.0, 1.0}
    phase = DecouplingExperiment(2, 16, ensemble="random_phase", seed=5).coefficients()
    assert np.allclose(np.abs(phase), 1.0)


def test_bilinear_single_frequency_per_interval():
    # one nonzero coefficient per interval makes the integrand constant
    N = 16
    exp = DecouplingExperiment(4, N, "quadruple", "ones", samples=2048, seed=0)
    (n1, _), (n2, _) = exp.intervals
    t = np.arange(1, N + 1) / N
    phi = np.stack([t, t**2, t**1.5, np.sqrt(t)], axis=1)

    def f(points, shifts):
        rows = []
        for shift in shifts:
            x = ((points + shift) % 1.0 - 0.5) * N
            s1 = 2.5 * np.exp(2j * np.pi * ((x @ phi[n1 - 1]) % 1.0))
            s2 = 1.5 * np.exp(2j * np.pi * ((x @ phi[n2 - 1]) % 1.0))
            rows.append((np.abs(s1) ** 6) * (np.abs(s2) ** 6))
        return np.stack(rows)

    ((mean, err),) = qmc_mean(f, 4, 2048, [0])
    lhs = mean ** (1.0 / 12.0)
    assert lhs == pytest.approx(math.sqrt(2.5 * 1.5), rel=1e-10)
    assert err == pytest.approx(0.0, abs=1e-8)


def test_bilinear_deterministic_and_positive():
    exp = DecouplingExperiment(4, 16, "quadruple", "ones", samples=4096, seed=3)
    r1 = bilinear_d4_ratio(exp)
    r2 = bilinear_d4_ratio(exp)
    assert r1 == r2
    assert r1.N == 16 and r1.lhs > 0 and r1.rhs == pytest.approx(4.0)
    assert r1.ratio == r1.lhs / r1.rhs


def test_bilinear_guards():
    with pytest.raises(GuardError) as exc:
        bilinear_d4_ratio(DecouplingExperiment(4, 128, samples=128))
    assert exc.value.guard == "decouple.bilinear.N"
    with pytest.raises(ValueError):
        bilinear_d4_ratio(DecouplingExperiment(2, 16))


def test_ratio_scan_exact_ones():
    rep = ratio_scan([16, 32, 64, 128])
    assert 0.0 <= rep.slope <= 0.2
    for row in rep.rows:
        assert row.lhs > 0 and row.rhs == pytest.approx(math.sqrt(row.N))
        assert row.ratio == pytest.approx(row.lhs / row.rhs)


def test_ratio_scan_validation():
    with pytest.raises(ValueError):
        ratio_scan([16])
    with pytest.raises(ValueError):
        ratio_scan([16, 16, 32])
    with pytest.raises(ValueError):
        ratio_scan([8, 16, 32], ensemble="bogus")
    with pytest.raises(ValueError):
        ratio_scan([8, 16, 32], trials=0)
    with pytest.raises(ValueError, match="one trial"):  # exact rows: more trials repeat them
        ratio_scan([8, 16, 32], trials=5)


def test_ratio_scan_sampled_guard():
    # checked for the largest N before any row is computed
    top = decouple.PARABOLA_MAX_N
    rep = ratio_scan([top - 2, top - 1, top], ensemble="random_signs", samples=8)
    assert [row.N for row in rep.rows] == [top - 2, top - 1, top]
    for ensemble in ("random_signs", "random_phase"):
        with pytest.raises(GuardError) as exc:
            ratio_scan([4, 5, 10**12], ensemble=ensemble, samples=8)
        assert exc.value.guard == "decouple.parabola.N"
    with pytest.raises(GuardError) as exc:  # the exact rows keep the count's guard
        ratio_scan([4, 5, top + 1])
    assert exc.value.guard == "meanvalue.vinogradov.N"


def test_ratio_scan_random_signs_deterministic():
    kwargs = dict(ensemble="random_signs", trials=2, seed=17, samples=2048)
    r1 = ratio_scan([8, 16, 32], **kwargs)
    r2 = ratio_scan([8, 16, 32], **kwargs)
    assert r1 == r2


def test_bilinear_scan_slope_reporting():
    report = bilinear_scan([16, 8], samples=4096, seed=0)
    assert isinstance(report, RatioReport)
    assert [row.N for row in report.rows] == [8, 16]
    assert math.isfinite(report.slope) and report.slope_stderr >= 0
    for row in report.rows:
        assert row == bilinear_d4_ratio(DecouplingExperiment(4, row.N, "quadruple", samples=4096))


def test_bilinear_scan_validation():
    # the N-list check of ratio_scan, with a minimum of 2: a repeated N
    # would add an identical row to the fit
    with pytest.raises(ValueError, match="distinct"):
        bilinear_scan([8, 8, 16], samples=256)
    with pytest.raises(ValueError, match="at least 2"):
        bilinear_scan([8], samples=256)
    assert len(bilinear_scan([8, 12], samples=256).rows) == 2


@pytest.mark.parametrize("N", [16, 64])
def test_parabola_rotated_coefficients_match_shifted_points(monkeypatch, N):
    """The parabola probe multiplies a_n by e(Phi_n . shift) instead of
    shifting the points: every replicate matches phase_sums at the shifted
    points (base + shift) mod 1."""
    a = DecouplingExperiment(2, N, ensemble="random_phase", seed=N).coefficients()
    seen = []

    def recording(f, dim, samples, seeds):
        (seed,) = seeds
        base = halton(dim, samples // REPLICATES)
        shifts = np.random.default_rng(seed).random((REPLICATES, dim))
        seen.append((base, shifts, f(base, shifts)))
        return qmc_mean(f, dim, samples, seeds)

    monkeypatch.setattr(decouple, "qmc_mean", recording)
    lhs, _ = parabola_l6_lhs(a, samples=1 << 13, seed=4)
    ((base, shifts, rows),) = seen
    assert rows.shape == (REPLICATES, base.shape[0])
    n = np.arange(1, N + 1, dtype=np.float64)
    phi = np.column_stack([n, n * n])
    means = []
    for shift, row in zip(shifts, rows):
        s = phase_sums(phi, a, (base + shift) % 1.0)
        want = float(np.mean((s.real**2 + s.imag**2) ** 3))
        assert float(np.mean(row)) == pytest.approx(want, rel=1e-12)
        means.append(want)
    assert lhs == pytest.approx((sum(means) / REPLICATES) ** (1.0 / 6.0), rel=1e-12)


@pytest.mark.parametrize("points", [QMC_SLICE - 1, QMC_SLICE, QMC_SLICE + 1, 2 * QMC_SLICE + 1])
def test_qmc_mean_slices_cover_the_block_once(points):
    """qmc_mean feeds the Halton block to f slice by slice: the slices tile
    the block, and the replicate means equal np.mean over the whole block."""
    seen = []

    def f(pts, shifts):
        seen.append(pts)
        # the shift moves each replicate's mean by O(1), so the spread is
        # far from rounding
        return 10.0 * shifts[:, :1] + ((pts + shifts[:, None]) % 1.0).sum(axis=2)

    ((mean, err),) = qmc_mean(f, 2, REPLICATES * points, [5])
    base = halton(2, points)
    assert np.array_equal(np.concatenate(seen), base)
    assert all(len(pts) <= QMC_SLICE for pts in seen)
    shifts = np.random.default_rng(5).random((REPLICATES, 2))
    means = [float(np.mean(row)) for row in f(base, shifts)]
    want = math.fsum(means) / REPLICATES
    assert mean == pytest.approx(want, rel=1e-15, abs=0)
    spread = math.fsum((m - want) ** 2 for m in means) / (REPLICATES - 1)
    assert err == pytest.approx(math.sqrt(spread / REPLICATES), rel=1e-12, abs=0)


@pytest.mark.parametrize("probe", [
    lambda samples: parabola_l6_lhs(np.ones(16, dtype=complex), samples=samples, seed=0),
    lambda samples: bilinear_d4_ratio(DecouplingExperiment(4, 32, "quadruple", samples=samples, seed=0)),
], ids=["parabola", "bilinear"])
def test_qmc_probe_memory_per_sample(traced_peak, probe):
    # no table of the whole block: measured at 5.8 (parabola, N=16) and 7.8
    # (bilinear, N=32) bytes per sample, mostly `halton` building the block
    samples = 1 << 20
    _, peak = traced_peak(probe, samples)
    assert peak / samples <= 11


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(decouple, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(decouple, name, counting)
    return calls


def test_scans_check_the_largest_n_before_the_first_row(monkeypatch):
    counts = _count_calls(monkeypatch, "vinogradov_count")
    with pytest.raises(GuardError) as exc:
        ratio_scan([4, decouple.PARABOLA_MAX_N, decouple.PARABOLA_MAX_N + 1])
    assert exc.value.guard == "meanvalue.vinogradov.N" and counts == []
    rows = _count_calls(monkeypatch, "bilinear_d4_ratio")
    with pytest.raises(GuardError) as exc:
        bilinear_scan([8, 16, 32, 2 * decouple.BILINEAR_MAX_N], samples=1 << 20)
    assert exc.value.guard == "decouple.bilinear.N" and rows == []
    with pytest.raises(GuardError) as exc:  # the direct check stays
        bilinear_d4_ratio(DecouplingExperiment(4, decouple.BILINEAR_MAX_N + 1, samples=8))
    assert exc.value.guard == "decouple.bilinear.N"


@pytest.mark.parametrize("samples", [8, 1 << 20])
def test_ratio_scan_trials_share_the_qmc_guard(monkeypatch, samples):
    # every trial is charged its points, at least one phase block, and all
    # trials of a row together stay within QMC_MAX_SAMPLES; `calls` holds
    # one entry per draw the batched entry evaluates
    calls = []

    def draws(pairs, samples):
        pairs = list(pairs)
        calls.extend(pairs)
        return [(1.0, 0.0)] * len(pairs)

    monkeypatch.setattr(decouple, "parabola_l6_draws", draws)
    edge = decouple.QMC_MAX_SAMPLES // max(samples, decouple.PHASE_BLOCK)
    with pytest.raises(GuardError) as exc:
        ratio_scan([4, 5, 6], "random_signs", trials=edge + 1, samples=samples)
    assert exc.value.guard == "decouple.qmc.samples" and calls == []
    rep = ratio_scan([4, 5, 6], "random_signs", trials=edge, samples=samples)
    assert len(calls) == 3 * edge and all(row.samples == samples for row in rep.rows)
    with pytest.raises(GuardError):
        ratio_scan([4, 5, 6], "random_phase", trials=10**9, samples=samples)
    assert len(calls) == 3 * edge


@pytest.mark.parametrize("samples", [16, 20, 23, 2049])
@pytest.mark.parametrize("probe, trials", [("parabola", 1), ("parabola", 2), ("bilinear", 1)])
def test_ratio_rows_record_the_points_used(monkeypatch, probe, trials, samples):
    # the points of a row are those of the Halton blocks its qmc_mean calls
    # drew: one walk per bilinear row, one per group of parabola draws
    blocks = []

    def recording(dim, n):
        blocks.append(n)
        return halton(dim, n)

    monkeypatch.setattr(decouple, "halton", recording)
    if probe == "parabola":
        rep = ratio_scan([4, 5, 6], "random_signs", trials=trials, samples=samples, seed=3)
    else:
        rep = bilinear_scan([8, 12], samples=samples, seed=3)
    walks = -(-len(rep.rows) * trials // decouple.DRAW_GROUP) if probe == "parabola" else len(rep.rows)
    assert len(blocks) == walks
    assert {REPLICATES * n for n in blocks} == {row.samples for row in rep.rows}
    assert rep.rows[0].samples == REPLICATES * (samples // REPLICATES)


def test_exact_rows_record_no_samples():
    assert all(row.samples is None for row in ratio_scan([4, 5, 6]).rows)


def _per_draw_rows(Ns, ensemble, trials, seed, samples):
    """The rows of a sampled ratio scan built one `parabola_l6_lhs` call per
    (N, trial), each draw walking its own Halton block."""
    rows = []
    for N in Ns:
        rhs = math.sqrt(N)
        exps = [DecouplingExperiment(2, N, "parabola", ensemble, samples, seed + t) for t in range(trials)]
        draws = [parabola_l6_lhs(e.coefficients(), samples=samples, seed=e.seed) for e in exps]
        ratios = [lhs / rhs for lhs, _ in draws]
        mean_ratio = math.fsum(ratios) / trials
        spread = math.fsum((x - mean_ratio) ** 2 for x in ratios) / max(trials - 1, 1) / trials
        stderr = math.sqrt(spread + (math.fsum(err / rhs for _, err in draws) / trials) ** 2)
        rows.append(decouple.RatioRow(N, mean_ratio * rhs, rhs, mean_ratio, stderr, REPLICATES * (samples // REPLICATES)))
    return rows


@pytest.mark.parametrize("ensemble", ["random_phase", "random_signs"])
@pytest.mark.parametrize("trials", [1, 2, 3])
@pytest.mark.parametrize("Ns", [(5, 12, 48), (5, 12, 24)])
def test_batched_scan_rows_equal_per_draw_rows(ensemble, trials, Ns):
    # PHASE_BLOCK // N is no power of two, 40000 samples end in a partial
    # slice, and at N = 24 the last point of a full slice sits alone in a
    # block of the per-draw call; 6 and 9 draws span two and three groups
    rep = ratio_scan(Ns, ensemble, trials=trials, seed=4, samples=40000)
    assert list(rep.rows) == _per_draw_rows(Ns, ensemble, trials, 4, 40000)


def test_draws_equal_one_draw_calls_across_groups():
    pairs = [(DecouplingExperiment(2, N, ensemble="random_phase", seed=s).coefficients(), s)
             for N in (4, 30, 7) for s in range(1, 4)]
    assert len(pairs) > decouple.DRAW_GROUP
    got = parabola_l6_draws(iter(pairs), 2 * REPLICATES * QMC_SLICE + 24)
    assert got == [parabola_l6_lhs(a, samples=2 * REPLICATES * QMC_SLICE + 24, seed=s) for a, s in pairs]


def test_scan_evaluates_one_table_per_block(monkeypatch):
    # every draw of a group reduces the same table, the group's max N x
    # points entries, beside its rotation rows, N x REPLICATES entries per
    # draw and slice; the draws run N by N, so (5, 5, 12, 12) and (48, 48)
    entries = []
    original = expsum.unit_phase

    def counting(theta):
        entries.append(np.size(theta))
        return original(theta)

    monkeypatch.setattr(expsum, "unit_phase", counting)
    Ns, trials, samples = (5, 12, 48), 2, 40000
    ratio_scan(Ns, "random_phase", trials=trials, seed=1, samples=samples)
    points = samples // REPLICATES
    slices = -(-points // QMC_SLICE)
    draws = [N for N in Ns for _ in range(trials)]
    tables = sum(max(draws[g:g + decouple.DRAW_GROUP]) for g in range(0, len(draws), decouple.DRAW_GROUP))
    assert tables == 12 + 48
    assert sum(entries) == tables * points + slices * trials * sum(Ns) * REPLICATES


def test_scan_memory_does_not_grow_with_trials(traced_peak):
    def peak(trials):
        return traced_peak(ratio_scan, (4, 5, 6), "random_signs", trials=trials, samples=1 << 15)[1]

    few, many = peak(4), peak(64)
    assert many <= 1.1 * few
