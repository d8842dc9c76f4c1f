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
for a fixed seed. `qmc_mean` alone walks the Halton block, QMC_SLICE points
at a time, so a probe returns the values of one slice, never of the block.

The parabola probe rotates coefficients instead of shifting points: its
frequencies (n, n^2) are integers and its domain [0,1)^2 is a period, so
the sum at (base + shift) mod 1 equals the sum at base with a_n replaced by
a_n e(Phi_n . shift), and one table e(Phi_n . base) per slice serves all
REPLICATES shifts. The bilinear probe shifts its points, (base + shift) mod
1, for every replicate: its frequencies are not integers and its N-cube is
not a period, so the identity does not hold there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GuardError
from .expsum import PHASE_BLOCK, phase_sums, phase_terms
from .meanvalue import vinogradov_count
from .numerics import fit_loglog, halton

BILINEAR_MAX_N = 64
# The sampled parabola probe holds about 290 bytes per term (325 MB at
# N = 10^6) and takes about 4.4 ns per sample and term: at N = 1024 it took
# 0.43 s for 65536 samples and 4.6 s for 2^20 (fresh processes, 2-core
# host), about 75 s at the QMC guard. The exact ones rows stop at the same N
# (`meanvalue.VINOGRADOV_MAX_N`).
PARABOLA_MAX_N = 1024
# One Halton block of samples // REPLICATES points is held at once, beside
# the values of one slice. At 2^24 samples the parabola probe (N=16) took
# 3.4 s and 115 MB, the bilinear probe 17.1 s and 147 MB at N=32, in fresh
# processes on a 2-core host; the block grows linearly beyond.
QMC_MAX_SAMPLES = 1 << 24
REPLICATES = 8
# Points of the block per call of a probe in `qmc_mean`: the (REPLICATES,
# QMC_SLICE) values of a slice match one block of `phase_sums` terms in size.
QMC_SLICE = PHASE_BLOCK // REPLICATES

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


def qmc_mean(f, dim: int, samples: int, seed: int):
    """Unbiased randomized-QMC mean of a function over [0,1)^dim.

    One Halton block `base` of samples // REPLICATES points serves
    REPLICATES independent uniform shifts, drawn as one (REPLICATES, dim)
    array `shifts`. For each slice `points` of QMC_SLICE points, row r of
    f(points, shifts) holds the function at (points + shifts[r]) mod 1, and
    its sum joins a running sum per replicate: numpy's pairwise sum of the
    whole row bit for bit when the block is one slice or two full ones, off
    in the last bits otherwise. The estimate is the replicate average and
    the stderr the replicate spread over sqrt(REPLICATES).
    """
    if samples < REPLICATES:
        raise ValueError(f"samples must be >= {REPLICATES} (one point per replicate), got {samples}")
    if samples > QMC_MAX_SAMPLES:
        raise GuardError(
            "decouple.qmc.samples", f"samples={samples} exceeds the QMC guard {QMC_MAX_SAMPLES}"
        )
    shifts = np.random.default_rng(seed).random((REPLICATES, dim))
    base = halton(dim, samples // REPLICATES)
    sums = np.zeros(REPLICATES)
    for start in range(0, len(base), QMC_SLICE):
        sums += f(base[start:start + QMC_SLICE], shifts).sum(axis=1)
    means = (sums / len(base)).tolist()
    est = math.fsum(means) / REPLICATES
    var = math.fsum((m - est) ** 2 for m in means) / (REPLICATES - 1)
    return est, math.sqrt(var / REPLICATES)


def parabola_l6_lhs(coeffs, exact: bool = False, samples: int = 1 << 14, seed: int = 0):
    """Normalized L^6 average of |sum_n a_n e(n u + n^2 v)| over one period.

    By periodicity this equals the average over the anisotropic box
    [0,N] x [0,N^2] of the parabola extension |sum a_n e(x.(n/N, n^2/N^2))|.
    With unit coefficients and exact=True the sixth power is the exact
    Vinogradov-type count J_{3,2}(N). Returns (value, stderr).

    The sampled route rotates the coefficients instead of shifting the
    points: with rot[r, n] = a_n e(Phi_n . shift_r), one table of
    e(Phi_n . base) per slice serves every replicate.
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
    n = np.arange(1, N + 1, dtype=np.float64)
    phi = np.column_stack([n, n * n])

    def f(points: np.ndarray, shifts: np.ndarray) -> np.ndarray:
        rot = np.ascontiguousarray((phase_terms(phi, shifts) * a[:, None]).T)
        s = phase_sums(phi, rot, points)
        return (s.real**2 + s.imag**2) ** 3

    mean, stderr = qmc_mean(f, 2, samples, seed)
    if mean <= 0.0:
        return 0.0, 0.0
    value = mean ** (1.0 / 6.0)
    return value, stderr / (6.0 * mean ** (5.0 / 6.0))


@dataclass(frozen=True)
class RatioRow:
    N: int
    lhs: float
    rhs: float
    ratio: float
    stderr: float


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
    if exp.N > BILINEAR_MAX_N:
        raise GuardError(
            "decouple.bilinear.N", f"N={exp.N} exceeds the bilinear guard {BILINEAR_MAX_N}"
        )
    a = exp.coefficients()
    (a1, b1), (a2, b2) = exp.intervals
    N = exp.N
    t = np.arange(1, N + 1, dtype=np.float64) / N
    phi = np.stack([t, t**2, t**1.5, np.sqrt(t)], axis=1)

    def f(points: np.ndarray, shifts: np.ndarray) -> np.ndarray:
        x = (((points + shifts[:, None]) % 1.0 - 0.5) * N).reshape(-1, 4)
        s1 = phase_sums(phi[a1 - 1:b1], a[a1 - 1:b1], x)
        s2 = phase_sums(phi[a2 - 1:b2], a[a2 - 1:b2], x)
        values = (s1.real**2 + s1.imag**2) ** 3 * (s2.real**2 + s2.imag**2) ** 3
        return values.reshape(len(shifts), -1)

    mean, stderr = qmc_mean(f, 4, exp.samples, exp.seed)
    rhs = math.sqrt(N) * float(np.max(np.abs(a)))
    if mean <= 0.0:
        return RatioRow(N, 0.0, rhs, 0.0, 0.0)
    lhs = mean ** (1.0 / 12.0)
    return RatioRow(N, lhs, rhs, lhs / rhs, stderr / (12.0 * mean ** (11.0 / 12.0)))


def _distinct_ns(Ns, minimum: int) -> list[int]:
    """The N list of a scan, sorted: at least `minimum` distinct values."""
    ns = sorted(int(N) for N in Ns)
    if len(ns) < minimum:
        raise ValueError(f"need at least {minimum} values of N")
    if len(set(ns)) != len(ns):
        raise ValueError("N values must be distinct")
    return ns


def ratio_scan(
    Ns,
    ensemble: str = ENSEMBLE_ONES,
    trials: int = 1,
    seed: int = 0,
    samples: int = 1 << 14,
) -> RatioReport:
    """Parabola decoupling-ratio scan over several N.

    With the unit ensemble both sides are exact (the lhs via the count
    identity), so it takes one trial; random ensembles average `trials`
    deterministic draws of the randomized-QMC estimate.
    """
    ns = _distinct_ns(Ns, 3)
    if ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if ensemble == ENSEMBLE_ONES and trials != 1:
        raise ValueError(f"the exact ones ensemble takes one trial, got {trials}")
    if ensemble != ENSEMBLE_ONES and ns[-1] > PARABOLA_MAX_N:
        raise GuardError(
            "decouple.parabola.N", f"N={ns[-1]} exceeds the sampled parabola guard {PARABOLA_MAX_N}"
        )
    rows = []
    for N in ns:
        # every ensemble is unit-modulus: rhs = sqrt(N) for all draws
        rhs = math.sqrt(N)
        if ensemble == ENSEMBLE_ONES:
            lhs, err = parabola_l6_lhs(np.ones(N, dtype=np.complex128), exact=True)
            rows.append(RatioRow(N, lhs, rhs, lhs / rhs, err))
            continue
        ratios = []
        errs = []
        for trial in range(trials):
            exp = DecouplingExperiment(2, N, "parabola", ensemble, samples, seed + trial)
            lhs, err = parabola_l6_lhs(exp.coefficients(), samples=samples, seed=(seed + trial))
            ratios.append(lhs / rhs)
            errs.append(err / rhs)
        mean_ratio = math.fsum(ratios) / trials
        if trials > 1:
            spread = math.fsum((x - mean_ratio) ** 2 for x in ratios) / (trials - 1) / trials
        else:
            spread = 0.0
        stderr = math.sqrt(spread + (math.fsum(errs) / trials) ** 2)
        rows.append(RatioRow(N, mean_ratio * rhs, rhs, mean_ratio, stderr))
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
    rows = tuple(
        bilinear_d4_ratio(DecouplingExperiment(4, N, "quadruple", ensemble, samples, seed))
        for N in _distinct_ns(Ns, 2)
    )
    slope, slope_err = fit_loglog([r.N for r in rows], [r.ratio for r in rows])
    return RatioReport(rows, slope, slope_err)
