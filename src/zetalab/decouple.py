"""Numerical probes of decoupling-type inequalities.

For the discrete parabola (n/N, n^2/N^2) the normalized sixth-moment average
over the period box equals the Vinogradov-type count exactly for unit
coefficients, which anchors every statistical estimate here. The
four-dimensional bilinear probe for the curve (t, t^2, t^{3/2}, t^{1/2}) is
exploratory: it averages over the centered N-cube rather than the full
period domain, so only a wide-tolerance slope consistency check is claimed.
Both probes report `RatioRow`s and a `RatioReport` with the fitted slope of
log(ratio) against log(N).

Sampling is randomized low-discrepancy (Halton points under independent
uniform shifts), which keeps estimators unbiased while the replicate spread
yields an honest stderr (REPLICATES shifts); everything is deterministic
for a fixed seed. `qmc_points` alone rounds a sample count to whole blocks
of REPLICATES; `qmc_mean` alone walks the Halton block, QMC_SLICE points
at a time, so a probe returns the values of one slice, never of the block.
A scan checks its guards, for its largest N, before its first row.

The parabola probe rotates coefficients instead of shifting points: its
frequencies (n, n^2) are integers and its domain [0,1)^2 is a period, so
the sum at (base + shift) mod 1 equals the sum at base with a_n replaced by
a_n e(Phi_n . shift), and one table e(Phi_n . base) per block of points
serves all REPLICATES shifts. The table holds no coefficient, and its rows
n <= N serve every N: a scan hands all its draws (every N and trial) to
`parabola_l6_draws`, whose groups of DRAW_GROUP draws each walk the Halton
block once, reducing one table per block, for the group's largest N,
against every draw's rotated rows; a one-draw `parabola_l6_lhs` call is a
group of one. A row of `phase_sums` keeps the bits of its own call whatever
the table's N, so a draw has the same bits in any group. The bilinear
probe shifts its points, (base + shift) mod 1, for every replicate: its
frequencies are not integers and its N-cube is not a period, so the
identity does not hold there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GuardError
from .expsum import PHASE_BLOCK, phase_sums, phase_terms
from .meanvalue import check_vinogradov_n, vinogradov_count
from .numerics import fit_loglog, frac_in_place, halton

# At the edge, N = 64, the bilinear probe took 0.02-0.04 s and 37.5 MB at
# the default 2^14 samples and 0.08-0.12 s and 38.9 MB at 2^16 (`decouple
# bilinear --Ns 32,64`: 0.16 s, 39.0 MB and 0.22 s, 40.3 MB), in fresh
# processes on a 2-core host.
BILINEAR_MAX_N = 64
# The sampled parabola scan holds about 700 bytes per term of its largest N,
# mostly the rotated rows of a group of draws (tracemalloc: 4.4 MB at N = 16,
# 5.1 MB at N = 1024), and takes about 3.5 ns per sample and term of each
# draw: `decouple parabola --Ns 1022,1023,1024` took 0.8-1.0 s and 39 MB at
# 65536 samples and 11.2 s and 42 MB at 2^20 (fresh processes, 2-core host).
# One draw at N = 1024 and the QMC guard would take about 60 s. The exact
# ones rows stop at the same N (`meanvalue.VINOGRADOV_MAX_N`).
PARABOLA_MAX_N = 1024
# One Halton block of samples // REPLICATES points is held at once, beside
# the values of one slice. At 2^24 samples a parabola scan of N = 14, 15, 16
# (one trial, one walk of the block) took 3.5 s and 116 MB, the bilinear
# probe 17.1 s and 147 MB at N=32, in fresh processes on a 2-core host; the
# block grows linearly beyond.
QMC_MAX_SAMPLES = 1 << 24
REPLICATES = 8
# Points of the block per call of a probe in `qmc_mean`: the (REPLICATES,
# QMC_SLICE) values of a slice match one block of `phase_sums` terms in size.
QMC_SLICE = PHASE_BLOCK // REPLICATES
# Draws that share one walk of the Halton block in `parabola_l6_draws`: the
# values of one slice across a group, DRAW_GROUP * REPLICATES * QMC_SLICE,
# are 2^17 floats (1 MB), beside their complex sums (2 MB), whatever the
# number of trials. With groups of eight, a fifth fewer table entries, the
# process of `decouple parabola --Ns 16,32,64,128 --trials 2 --samples 65536`
# peaked at 42.4 MB against 39.5-39.9 MB (one draw per walk: 38.3 MB), in
# fresh processes on a 2-core host.
DRAW_GROUP = 4

ENSEMBLE_ONES = "ones"
ENSEMBLE_SIGNS = "random_signs"
ENSEMBLE_PHASE = "random_phase"
ENSEMBLES = (ENSEMBLE_ONES, ENSEMBLE_SIGNS, ENSEMBLE_PHASE)


def default_intervals(N: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Two well-separated index ranges in {1..N}: the first and last quarter."""
    q = max(N // 4, 1)
    return (1, q), (N - q + 1, N)


@dataclass(frozen=True)
class DecouplingExperiment:
    """Configuration of one probe: dimension, size, curve, coefficient
    ensemble, sampling budget and seed. For d=4 `intervals` holds the two
    index ranges `default_intervals(N)`; for d=2 it is None."""

    d: int
    N: int
    curve: str = "parabola"
    ensemble: str = ENSEMBLE_ONES
    samples: int = 1 << 14
    seed: int = 0
    intervals: tuple[tuple[int, int], tuple[int, int]] | None = field(init=False, default=None)

    def __post_init__(self):
        if self.d not in (2, 4):
            raise ValueError("d must be 2 or 4")
        if self.N < 4:
            raise ValueError("N must be >= 4")
        if self.curve not in ("parabola", "quadruple"):
            raise ValueError(f"unknown curve {self.curve!r}")
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        if self.d == 4:
            object.__setattr__(self, "intervals", default_intervals(self.N))

    def coefficients(self) -> np.ndarray:
        """Deterministic coefficient vector for the configured ensemble."""
        if self.ensemble == ENSEMBLE_ONES:
            return np.ones(self.N, dtype=np.complex128)
        rng = np.random.default_rng((self.seed, self.N, ENSEMBLES.index(self.ensemble)))
        if self.ensemble == ENSEMBLE_SIGNS:
            return rng.choice([-1.0, 1.0], size=self.N).astype(np.complex128)
        return np.exp((2j * np.pi) * rng.random(self.N))


def qmc_points(samples: int) -> int:
    """The points `qmc_mean` evaluates for `samples`: whole blocks of
    REPLICATES, at least one point per replicate, at most QMC_MAX_SAMPLES."""
    if samples < REPLICATES:
        raise ValueError(f"samples must be >= {REPLICATES} (one point per replicate), got {samples}")
    GuardError.check("decouple.qmc.samples", samples, QMC_MAX_SAMPLES, f"samples={samples}")
    return REPLICATES * (samples // REPLICATES)


def qmc_mean(f, dim: int, samples: int, seeds):
    """Unbiased randomized-QMC means of a function over [0,1)^dim, one for
    each of a sequence of seeds.

    One Halton block `base` of qmc_points(samples) / REPLICATES points serves
    REPLICATES independent uniform shifts per seed, drawn as one
    (REPLICATES, dim) array per seed and stacked, seed by seed, into
    `shifts`. For each slice `points` of QMC_SLICE points, row r of
    f(points, shifts) holds the function at (points + shifts[r]) mod 1, and
    its sum joins a running sum per row: numpy's pairwise sum of the whole
    row bit for bit when the block is one slice or two full ones, off in the
    last bits otherwise. A seed's estimate is the average of its REPLICATES
    rows and its stderr their spread over sqrt(REPLICATES), whatever the
    other seeds. Returns a list of (estimate, stderr), one per seed; one
    seed is the list [seed].
    """
    block = qmc_points(samples) // REPLICATES
    shifts = np.concatenate([np.random.default_rng(s).random((REPLICATES, dim)) for s in seeds])
    base = halton(dim, block)
    sums = np.zeros(len(shifts))
    for start in range(0, len(base), QMC_SLICE):
        sums += f(base[start:start + QMC_SLICE], shifts).sum(axis=1)
    results = []
    for means in (sums / len(base)).reshape(len(seeds), REPLICATES).tolist():
        est = math.fsum(means) / REPLICATES
        var = math.fsum((m - est) ** 2 for m in means) / (REPLICATES - 1)
        results.append((est, math.sqrt(var / REPLICATES)))
    return results


def _parabola_integrand(coeffs):
    """The integrand of `qmc_mean` for the sampled parabola probe of one
    draw per seed, draw g holding coefficients coeffs[g]: rows
    g * REPLICATES + r hold |sum_n a_gn e(n u + n^2 v)|^6 at the points
    under shift r of seed g. Each draw's shifts rotate its coefficients,
    rot[n] = a_n e(Phi_n . shift), and one `phase_sums` call reduces one
    table per block of points, for the largest N, against every row."""
    N = max(a.size for a in coeffs)
    n = np.arange(1, N + 1, dtype=np.float64)
    phi = np.column_stack([n, n * n])
    terms = [a.size for a in coeffs for _ in range(REPLICATES)]

    def f(points: np.ndarray, shifts: np.ndarray) -> np.ndarray:
        rot = np.zeros((len(shifts), N), dtype=np.complex128)
        for g, a in enumerate(coeffs):
            rows = slice(g * REPLICATES, (g + 1) * REPLICATES)
            rot[rows, :a.size] = (phase_terms(phi[:a.size], shifts[rows]) * a[:, None]).T
        s = phase_sums(phi, rot, points, terms)
        values = np.square(s.real)
        values += np.square(s.imag, out=s.imag)
        values **= 3
        return values

    return f


def _delta_root(mean: float, stderr: float, k: int) -> tuple[float, float]:
    """mean^(1/k) and its stderr by the delta method,
    stderr / (k mean^((k-1)/k)); (0, 0) for mean <= 0."""
    if mean <= 0.0:
        return 0.0, 0.0
    return mean ** (1.0 / k), stderr / (k * mean ** ((k - 1) / k))


def parabola_l6_lhs(coeffs, exact: bool = False, samples: int = 1 << 14, seed: int = 0):
    """Normalized L^6 average of |sum_n a_n e(n u + n^2 v)| over one period.

    By periodicity this equals the average over the anisotropic box
    [0,N] x [0,N^2] of the parabola extension |sum a_n e(x.(n/N, n^2/N^2))|.
    With unit coefficients and exact=True the sixth power is the exact
    Vinogradov-type count J_{3,2}(N). Returns (value, stderr). The sampled
    route is `parabola_l6_draws` with this one draw, which rotates the
    coefficients, rot[r, n] = a_n e(Phi_n . shift_r).
    """
    a = np.asarray(coeffs, dtype=np.complex128)
    N = a.size
    if N == 0:
        raise ValueError("coefficients must be nonempty")
    if exact:
        if not np.all(a == 1.0):
            raise ValueError("exact mode requires unit coefficients")
        j = vinogradov_count(N, 3)
        return float(j.value) ** (1.0 / 6.0), 0.0
    return parabola_l6_draws([(a, seed)], samples)[0]


def parabola_l6_draws(draws, samples: int) -> list[tuple[float, float]]:
    """The sampled (value, stderr) of `parabola_l6_lhs` for each pair
    (coeffs, seed) of the iterable `draws`, in order.

    The draws are read DRAW_GROUP at a time, and each group is one
    `qmc_mean` call over its seeds: one Halton block, and per block of
    points one table e(n u + n^2 v) for the group's largest N, which every
    draw's rows reduce over their first N terms. Each draw keeps its own
    REPLICATES sums over the same slices, and its rows keep the bits of
    their own `phase_sums` calls, so nothing depends on the group: a draw
    gets the bits of a `parabola_l6_lhs` call, a group of one.
    """
    from itertools import islice

    draws = iter(draws)
    out = []
    while group := list(islice(draws, DRAW_GROUP)):
        coeffs = [np.asarray(a, dtype=np.complex128) for a, _ in group]
        results = qmc_mean(_parabola_integrand(coeffs), 2, samples, [seed for _, seed in group])
        out.extend(_delta_root(mean, stderr, 6) for mean, stderr in results)
    return out


@dataclass(frozen=True)
class RatioRow:
    """One N of a scan. `samples` is the points of each `qmc_mean` call
    behind the row, None on the exact rows."""

    N: int
    lhs: float
    rhs: float
    ratio: float
    stderr: float
    samples: int | None


@dataclass(frozen=True)
class RatioReport:
    """Per-N left/right sides with the fitted slope of log(ratio) vs log(N)."""

    rows: tuple[RatioRow, ...]
    slope: float
    slope_stderr: float

    def __post_init__(self):
        for row in self.rows:
            if not (row.lhs > 0 and row.rhs > 0):
                raise ValueError("report rows must have positive sides")


def bilinear_d4_ratio(exp: DecouplingExperiment) -> RatioRow:
    """L^12 average over the centered N-cube of the geometric mean of the two
    interval sums on the curve (t, t^2, t^{3/2}, t^{1/2}), reported against
    rhs = sqrt(N) * max|a|. Exploratory probe (the sharp statement
    lives on a much larger domain); wide tolerance only.

    With the default quarter intervals each sum holds q = N // 4 terms. At
    N=8 (q=2) the L^12 mean, about 391, sits at the exact diagonal
    (6q^3 - 9q^2 + 4q)^2 = 400 of the two sums, so that point carries no
    interference. Beyond it the off-diagonal mass over N^8 roughly doubles
    per doubling of N (unit coefficients, 2^18 samples, seeds 0 and 1).
    """
    if exp.d != 4:
        raise ValueError("the bilinear probe requires d=4")
    GuardError.check("decouple.bilinear.N", exp.N, BILINEAR_MAX_N, f"N={exp.N}")
    a = exp.coefficients()
    (a1, b1), (a2, b2) = exp.intervals
    N = exp.N
    t = np.arange(1, N + 1, dtype=np.float64) / N
    phi = np.stack([t, t**2, t**1.5, np.sqrt(t)], axis=1)

    def f(points: np.ndarray, shifts: np.ndarray) -> np.ndarray:
        x = ((frac_in_place(points + shifts[:, None]) - 0.5) * N).reshape(-1, 4)
        s1 = phase_sums(phi[a1 - 1:b1], a[a1 - 1:b1], x)
        s2 = phase_sums(phi[a2 - 1:b2], a[a2 - 1:b2], x)
        values = (s1.real**2 + s1.imag**2) ** 3 * (s2.real**2 + s2.imag**2) ** 3
        return values.reshape(len(shifts), -1)

    lhs, stderr = _delta_root(*qmc_mean(f, 4, exp.samples, [exp.seed])[0], 12)
    rhs = math.sqrt(N) * float(np.max(np.abs(a)))
    return RatioRow(N, lhs, rhs, lhs / rhs, stderr, qmc_points(exp.samples))


def _distinct_ns(Ns, minimum: int) -> list[int]:
    """The N list of a scan, sorted: at least `minimum` distinct values."""
    ns = sorted(int(N) for N in Ns)
    if len(ns) < minimum:
        raise ValueError(f"need at least {minimum} values of N")
    if len(set(ns)) != len(ns):
        raise ValueError("N values must be distinct")
    return ns


def ratio_scan(
    Ns, ensemble: str = ENSEMBLE_ONES, trials: int = 1, seed: int = 0, samples: int = 1 << 14
) -> RatioReport:
    """Parabola decoupling-ratio scan over several N.

    With the unit ensemble both sides are exact (the lhs via the count
    identity), so it takes one trial; random ensembles average `trials`
    deterministic draws of the randomized-QMC estimate, all of the scan's
    draws evaluated by one `parabola_l6_draws` call.
    """
    ns = _distinct_ns(Ns, 3)
    if ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if ensemble == ENSEMBLE_ONES:
        if trials != 1:
            raise ValueError(f"the exact ones ensemble takes one trial, got {trials}")
        check_vinogradov_n(ns[-1])
    else:
        GuardError.check("decouple.parabola.N", ns[-1], PARABOLA_MAX_N, f"N={ns[-1]}")
        # A row's trials share the QMC guard, each charged at least one phase block
        # (a draw costs about 0.15-0.2 ms however few its points). At the edge N = 4,
        # 5, 6 took 0.4 s and 37 MB for 512 trials of 8 samples, N = 14, 15, 16
        # 3.1-3.6 s and 42 MB for 16 trials of 2^20 (fresh processes, 2-core host).
        points = qmc_points(samples)
        charged = max(points, PHASE_BLOCK)
        GuardError.check("decouple.qmc.samples", trials * charged, QMC_MAX_SAMPLES, f"{trials} trials x {charged} points")
        exps = (DecouplingExperiment(2, N, "parabola", ensemble, samples, seed + t) for N in ns for t in range(trials))
        lhs_draws = parabola_l6_draws(((e.coefficients(), e.seed) for e in exps), samples)
    rows = []
    for i, N in enumerate(ns):
        # every ensemble is unit-modulus: rhs = sqrt(N) for all draws
        rhs = math.sqrt(N)
        if ensemble == ENSEMBLE_ONES:
            lhs, err = parabola_l6_lhs(np.ones(N, dtype=np.complex128), exact=True)
            rows.append(RatioRow(N, lhs, rhs, lhs / rhs, err, None))
            continue
        draws = lhs_draws[i * trials:(i + 1) * trials]
        ratios = [lhs / rhs for lhs, _ in draws]
        mean_ratio = math.fsum(ratios) / trials
        spread = math.fsum((x - mean_ratio) ** 2 for x in ratios) / max(trials - 1, 1) / trials
        stderr = math.sqrt(spread + (math.fsum(err / rhs for _, err in draws) / trials) ** 2)
        rows.append(RatioRow(N, mean_ratio * rhs, rhs, mean_ratio, stderr, points))
    slope, slope_err = fit_loglog([r.N for r in rows], [r.ratio for r in rows])
    return RatioReport(tuple(rows), slope, slope_err)


def bilinear_scan(
    Ns, samples: int = 1 << 14, seed: int = 0, ensemble: str = ENSEMBLE_ONES
) -> RatioReport:
    """Bilinear d=4 probe across several N: rows plus the slope of
    log(lhs / sqrt(N)) against log(N).

    Measured with unit coefficients: over N = 8, 16, 32 the slope is 0.261
    at 2^16 samples and seed 0, which includes an upward QMC fluctuation at
    N=32, and about 0.255 at 2^18 samples (seeds 0 and 1). The degenerate
    N=8 point (two terms per interval, see `bilinear_d4_ratio`) steepens
    the fit; the local slopes from N=16 on are 0.237 (16 -> 32) and 0.239
    (32 -> 64), so the asymptotic slope of this N-cube probe appears to be
    about 1/4. Dividing by the exact diagonal of the two interval sums makes
    the local slopes drift (0.161, 0.186, 0.215) rather than flatten. Which
    threshold the probe should meet is an open question: none is derived
    here or in the accompanying documents.
    """
    ns = _distinct_ns(Ns, 2)
    GuardError.check("decouple.bilinear.N", ns[-1], BILINEAR_MAX_N, f"N={ns[-1]}")
    rows = tuple(
        bilinear_d4_ratio(DecouplingExperiment(4, N, "quadruple", ensemble, samples, seed)) for N in ns
    )
    slope, slope_err = fit_loglog([r.N for r in rows], [r.ratio for r in rows])
    return RatioReport(rows, slope, slope_err)
