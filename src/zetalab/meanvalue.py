"""Mean values of quadruple-phase exponential sums at desk scale, by three
independent routes, plus the classical Vinogradov-type count used as an exact
oracle elsewhere.

The 2r-th moment integral under study is

    integral over [0,1]^2 x [-1,1]^2 of
        |sum_{n<=N} e(n x1 + n^2 x2 + (n/N)^{3/2} x3/delta
                      + (n/N)^{1/2} x4/Delta)|^{2r} dx.

Expanding the power, the two unit-interval integrals force exact equality of
linear and quadratic power sums between the two halves of the frequency
tuple, which turns the integral into a weighted count over pairs of
r-multisets; the remaining [-1,1] integrals contribute closed-form kernel
factors sin(2 pi theta)/(pi theta) in the 3/2- and 1/2-power defects. The
windowed count replaces the kernels by sharp windows. Both are evaluated by
meet-in-the-middle grouping over the exact integer key (sum, sum of
squares); a Monte-Carlo quadrature provides the independent statistical
route.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError
from .expsum import phase_sums

WINDOWED_MAX_N = 48
KERNEL_MAX_N = {1: 1_000_000, 3: 128, 6: 12}
VINOGRADOV_MAX_N = 256
MIN_SAMPLES = 1000

METHOD_WINDOWED = "windowed"
METHOD_KERNEL = "kernel"
METHOD_QUADRATURE = "quadrature"
METHOD_VINOGRADOV = "vinogradov"

_SAMPLE_CHUNK = 1 << 15


@dataclass(frozen=True)
class MeanValueSpec:
    """Parameters of the 2r-th moment integral.

    delta and Delta default to N^-2 and N^-1 (the headline case, where the
    3/2- and 1/2-power phases become sqrt(N) n^{3/2} and sqrt(N) n^{1/2}).
    """

    N: int
    r: int
    delta: float | None = None
    Delta: float | None = None

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.delta is None:
            object.__setattr__(self, "delta", float(self.N) ** -2)
        if self.Delta is None:
            object.__setattr__(self, "Delta", 1.0 / self.N)
        eps = 1e-12
        if not (self.N**-2 * (1 - eps) <= self.delta <= 1 + eps):
            raise ValueError(f"delta must lie in [N^-2, 1], got {self.delta}")
        if not (1.0 / self.N * (1 - eps) <= self.Delta <= 1 + eps):
            raise ValueError(f"Delta must lie in [N^-1, 1], got {self.Delta}")


@dataclass(frozen=True)
class CountResult:
    """A count or integral estimate: exact results carry stderr 0 and, when
    integer-valued, the exact integer."""

    value: float
    exact: bool
    stderr: float
    method: str
    integer_value: int | None = None

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("value must be nonnegative")
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")
        if self.exact and self.stderr != 0.0:
            raise ValueError("exact results must have stderr 0")


def _multiset_table(N: int, size: int):
    """Arrays over all non-decreasing `size`-tuples from {1..N}: linear and
    quadratic sums, 3/2- and 1/2-power sums, and the number of orderings."""
    count = math.comb(N + size - 1, size)
    flat = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(1, N + 1), size)
        ),
        dtype=np.int16,
        count=count * size,
    ).reshape(count, size)
    s1 = flat.sum(axis=1, dtype=np.int64)
    s2 = (flat.astype(np.int64) ** 2).sum(axis=1)
    base = np.arange(N + 1, dtype=np.float64)
    pow32 = base * np.sqrt(base)
    pow12 = np.sqrt(base)
    d3 = np.zeros(count, dtype=np.float64)
    d4 = np.zeros(count, dtype=np.float64)
    for j in range(size):
        col = flat[:, j]
        d3 += pow32[col]
        d4 += pow12[col]
    # orderings = size! / prod(multiplicities!); for a sorted tuple the
    # multiplicity pattern is determined by which neighbours are equal.
    mask = np.zeros(count, dtype=np.int64)
    for j in range(size - 1):
        mask |= (flat[:, j] == flat[:, j + 1]).astype(np.int64) << j
    denom = np.array(
        [_pattern_denominator(m, size) for m in range(1 << (size - 1))], dtype=np.int64
    )
    w = math.factorial(size) // denom[mask]
    return s1, s2, d3, d4, w


def _pattern_denominator(mask: int, size: int) -> int:
    """prod(run_length!) over runs of equal entries encoded by `mask`."""
    total = 1
    run = 1
    for j in range(size - 1):
        if (mask >> j) & 1:
            run += 1
        else:
            total *= math.factorial(run)
            run = 1
    return total * math.factorial(run)


def _group_bounds(s1: np.ndarray, s2: np.ndarray):
    """Start/end indices of (s1, s2) groups in already-sorted arrays."""
    n = s1.size
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = (s1[1:] != s1[:-1]) | (s2[1:] != s2[:-1])
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], n)
    return starts, ends


def _ragged_arange(sizes: np.ndarray) -> np.ndarray:
    total = int(sizes.sum())
    out = np.arange(total, dtype=np.int64)
    shift = np.repeat(np.cumsum(sizes) - sizes, sizes)
    return out - shift


def count_windowed(N: int, window3: float | None = None, window4: float | None = None) -> CountResult:
    """Exact weighted count of ordered pairs of 6-tuples from {1..N} whose
    linear and quadratic sums agree exactly and whose 3/2- and 1/2-power sums
    agree within the closed windows (defaults N^{-1/2}).

    Relabeling the twelve variables by phase sign, this equals the number of
    ordered 12-tuples solving the near-diagonal system of two equalities and
    two windowed inequalities. Pairs whose halves are rearrangements of each
    other give the diagonal lower bound: the sum over multisets of squared
    orderings, which the identity pairing alone bounds below by N^6 and
    which approaches 720 N^6 only slowly (268 N^6 at N=8).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > WINDOWED_MAX_N:
        raise GuardError(
            "meanvalue.windowed.N", f"N={N} exceeds the windowed-count guard {WINDOWED_MAX_N}"
        )
    w3 = float(N) ** -0.5 if window3 is None else float(window3)
    w4 = float(N) ** -0.5 if window4 is None else float(window4)
    if not (w3 > 0 and w4 > 0):
        raise ValueError("windows must be positive")
    s1, s2, d3, d4, w = _multiset_table(N, 6)
    total = _window_pair_count(s1, s2, d3, d4, w, w3, w4)
    return CountResult(float(total), True, 0.0, METHOD_WINDOWED, total)


def _window_pair_count(s1, s2, d3, d4, w, w3: float, w4: float) -> int:
    order = np.lexsort((d3, s2, s1))
    s1 = s1[order]
    s2 = s2[order]
    d3 = d3[order]
    d4 = d4[order]
    w = w[order]
    starts, ends = _group_bounds(s1, s2)
    if math.isinf(w3) and math.isinf(w4):
        sums = np.add.reduceat(w, starts)
        return sum(int(v) * int(v) for v in sums.tolist())
    total = 0
    for a, b in zip(starts.tolist(), ends.tolist()):
        k = b - a
        if k == 1:
            wa = int(w[a])
            total += wa * wa
            continue
        d3g = d3[a:b]
        d4g = d4[a:b]
        wg = w[a:b]
        lo = np.searchsorted(d3g, d3g - w3, side="left")
        hi = np.searchsorted(d3g, d3g + w3, side="right")
        sizes = hi - lo
        js = np.repeat(lo, sizes) + _ragged_arange(sizes)
        iidx = np.repeat(np.arange(k, dtype=np.int64), sizes)
        ok = np.abs(d4g[js] - d4g[iidx]) <= w4
        total += int(np.dot(wg[iidx[ok]], wg[js[ok]]))
    return total


def _interval_kernel(theta: np.ndarray) -> np.ndarray:
    """integral of e(theta z) over [-1, 1] = sin(2 pi theta)/(pi theta)."""
    return 2.0 * np.sinc(2.0 * theta)


def moment_kernel_sum(spec: MeanValueSpec) -> CountResult:
    """Exact (up to rounding) kernel-sum evaluation of the moment integral.

    Groups r-multisets by the exact key (sum, sum of squares); each ordered
    pair within a group contributes the product of orderings times the two
    interval kernels in the scaled power-sum defects. Per-group sums use
    float64; the cross-group accumulation is exactly rounded (math.fsum).
    """
    r = spec.r
    if r not in KERNEL_MAX_N:
        raise ValueError(f"kernel route supports r in {sorted(KERNEL_MAX_N)}, got r={r}")
    if spec.N > KERNEL_MAX_N[r]:
        raise GuardError(
            "meanvalue.kernel.N",
            f"N={spec.N} exceeds the kernel-sum guard {KERNEL_MAX_N[r]} for r={r}",
        )
    s1, s2, d3, d4, w = _multiset_table(spec.N, r)
    order = np.lexsort((s2, s1))
    s1 = s1[order]
    s2 = s2[order]
    d3 = d3[order]
    d4 = d4[order]
    wf = w[order].astype(np.float64)
    scale3 = 1.0 / (spec.delta * spec.N**1.5)
    scale4 = 1.0 / (spec.Delta * spec.N**0.5)
    starts, ends = _group_bounds(s1, s2)
    group_sums = []
    for a, b in zip(starts.tolist(), ends.tolist()):
        k = b - a
        if k == 1:
            group_sums.append(4.0 * float(wf[a]) ** 2)
            continue
        d3g = d3[a:b]
        d4g = d4[a:b]
        wg = wf[a:b]
        k3 = _interval_kernel((d3g[:, None] - d3g[None, :]) * scale3)
        k4 = _interval_kernel((d4g[:, None] - d4g[None, :]) * scale4)
        group_sums.append(float(((wg[:, None] * wg[None, :]) * k3 * k4).sum()))
    value = math.fsum(group_sums)
    return CountResult(value, True, 0.0, METHOD_KERNEL, None)


def moment_monte_carlo(spec: MeanValueSpec, samples: int, seed: int = 0) -> CountResult:
    """Unbiased Monte-Carlo estimate of the moment integral over the
    measure-4 box [0,1]^2 x [-1,1]^2; stderr is the sample standard deviation
    of the mean. Deterministic for fixed (samples, seed): fixed chunk size,
    single stream."""
    if samples < MIN_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_SAMPLES}")
    rng = np.random.default_rng(seed)
    n = np.arange(1, spec.N + 1, dtype=np.float64)
    phi = np.column_stack(
        [n, n * n, (n / spec.N) ** 1.5 / spec.delta, np.sqrt(n / spec.N) / spec.Delta]
    )
    chunk_sums = []
    chunk_sq = []
    remaining = samples
    while remaining:
        m = min(_SAMPLE_CHUNK, remaining)
        remaining -= m
        u = rng.random((2, m))
        v = rng.random((2, m))
        s = phase_sums(phi, None, np.concatenate([u, 2.0 * v - 1.0]).T)
        vals = 4.0 * (s.real**2 + s.imag**2) ** spec.r
        chunk_sums.append(float(vals.sum()))
        chunk_sq.append(float(np.dot(vals, vals)))
    mean = math.fsum(chunk_sums) / samples
    var = max(math.fsum(chunk_sq) - samples * mean * mean, 0.0) / (samples - 1)
    return CountResult(mean, False, math.sqrt(var / samples), METHOD_QUADRATURE, None)


def vinogradov_count(N: int, s: int) -> CountResult:
    """J_{s,2}(N): the number of ordered 2s-tuples from {1..N} whose two
    halves share linear and quadratic sums. Exact integer; equals the [0,1]^2
    integral of |sum_{n<=N} e(n a + n^2 b)|^{2s}."""
    if s not in (2, 3):
        raise ValueError("s must be 2 or 3")
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > VINOGRADOV_MAX_N:
        raise GuardError(
            "meanvalue.vinogradov.N", f"N={N} exceeds the count guard {VINOGRADOV_MAX_N}"
        )
    s1, s2, _, _, w = _multiset_table(N, s)
    order = np.lexsort((s2, s1))
    starts, _ = _group_bounds(s1[order], s2[order])
    sums = np.add.reduceat(w[order], starts)
    total = sum(int(v) * int(v) for v in sums.tolist())
    return CountResult(float(total), True, 0.0, METHOD_VINOGRADOV, total)


def fit_growth_exponent(points) -> tuple[float, float]:
    """Least-squares slope of log(value) against log(N), with standard error.

    Requires at least 3 points with distinct N and positive values.
    """
    from .numerics import fit_loglog

    pts = list(points)
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    ns = [float(p[0]) for p in pts]
    vs = [float(p[1]) for p in pts]
    if len(set(ns)) != len(ns):
        raise ValueError("N values must be distinct")
    if any(x <= 0 for x in ns) or any(v <= 0 for v in vs):
        raise ValueError("points must have positive N and value")
    return fit_loglog(ns, vs)
