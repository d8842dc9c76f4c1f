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
windowed count replaces the kernels by sharp windows. Both, and the
Vinogradov count, group multisets by the exact integer key (sum, sum of
squares). One engine serves all three: `_map_shards` cuts the multisets
into consecutive bands of the linear sum s1, which no group crosses, and
each route reduces a band to an exact integer or to kernel group sums. A
band holds at most SHARD_ROWS // cores multisets unless one s1 value alone
holds more, and the bands run in waves on one executor of a thread per
core, cached between calls (`_shard_pool`, an lru_cache of size one keyed
on the core count): the bands within that share side by side, each run of
larger ones in order on one thread. So memory is bounded by SHARD_ROWS
multisets, or by one band that alone holds more, not by the
C(N + r - 1, r) of the whole table, and the results do not depend on the
core count. The unwindowed counts
(`_square_count`) reduce only the half s1 < r(N + 1)/2: the reflection
n -> N + 1 - n maps each group at s1 to a group of the same orderings at
r(N + 1) - s1, so that half is doubled and the middle s1 value, if any,
added once. The windowed and kernel routes reduce every band, since the
reflection does not keep the 3/2- and 1/2-power sums. `_band`
builds a band entry by entry straight into the group key, the orderings and
the power sums, with no table of tuples, and gathers the last level's key
from its parents' keys in one pass; a band of one s1 value, where every
prefix left completes exactly once, adds its last entry in place, with no
repeat and no gather. No route walks the groups in Python:
they are ordered by a 16-bit radix sort of the key (`_radix_order`), and the
windowed and kernel routes sort a band once on the key and the 3/2-power sum
(`_sweep_order`) and sweep the pairs (i, i + k) of all groups at each offset
k at once, so the kernel route evaluates each unordered pair once. The
windowed sweep compares contiguous slices while most rows are live and
gathers the live rows after that (`_window_pair_count`). A Monte-Carlo
quadrature provides the independent statistical route.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import GuardError
from .expsum import phase_sums

WINDOWED_MAX_N = 48
# r = 6 takes 5.0-5.3 s and 53-54 MB peak RSS at N = 32 in five fresh processes on a
# 2-core host; the guard keeps one call within about 15 s, like the windowed guard
# (4.6-5.7 s and 51-54 MB at N = 48, where single s1 values exceed the share and run
# one by one on one thread).
KERNEL_MAX_N = {1: 1_000_000, 3: 128, 6: 32}
# s = 3 took 6.0-6.5 s and 44-46 MB peak RSS at N = 1024 in five fresh processes on
# a 2-core host, within the ~15 s of the other guards.
VINOGRADOV_MAX_N = 1024
MIN_SAMPLES = 1000
# The quadrature takes about 25 ns per sample and term: 10^8 of them took
# 2.2-2.6 s (N = 1000 and 10^5) and 40-44 MB, N = 10^6 at 1000 samples
# 32 s and 119 MB (fresh processes, 2-core host). The guard keeps a call
# within about 15 s.
QUADRATURE_MAX_TERMS = 1 << 29

METHOD_WINDOWED = "windowed"
METHOD_KERNEL = "kernel"
METHOD_QUADRATURE = "quadrature"
METHOD_VINOGRADOV = "vinogradov"

_SAMPLE_CHUNK = 1 << 15
# Most multisets in flight across the threads of the grouped counts, each band
# holding SHARD_ROWS // cores unless one value of s1 alone holds more; the
# windowed count at N = 48 then peaks at 51-54 MB RSS.
SHARD_ROWS = 1 << 18


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
    integer-valued, the exact integer. N, r, delta, Delta, window3 and window4
    are the values the route ran with, None where it has no such parameter."""

    value: float
    exact: bool
    stderr: float
    method: str
    N: int
    r: int
    integer_value: int | None = None
    delta: float | None = None
    Delta: float | None = None
    window3: float | None = None
    window4: float | None = None

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("value must be nonnegative")
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")
        if self.exact and self.stderr != 0.0:
            raise ValueError("exact results must have stderr 0")


def _sum_counts(N: int, size: int) -> np.ndarray:
    """c[s1]: the number of non-decreasing `size`-tuples from {1..N} with sum
    s1. Subtracting 1 from every entry leaves partitions of s1 - size into at
    most `size` parts of at most N - 1, counted by the Gaussian binomial
    [N - 1 + size choose size]_q = prod_i (1 - q^(N-1+i)) / (1 - q^i)."""
    top = size * (N - 1) + 1
    c = np.zeros(top, dtype=np.int64)
    c[0] = 1
    for i in range(1, size + 1):
        a = N - 1 + i
        if a < top:
            c[a:] -= c[:-a].copy()
        for r in range(i):
            c[r::i] = np.cumsum(c[r::i])
    return np.concatenate([np.zeros(size, dtype=np.int64), c])


def _bands(counts: np.ndarray, limit: int):
    """Consecutive (lo, hi) ranges of s1 holding at most `limit` multisets
    each, except where one s1 value alone holds more."""
    lo, held = None, 0
    for s1 in np.flatnonzero(counts).tolist():
        c = int(counts[s1])
        if lo is not None and held + c > limit:
            yield lo, s1 - 1
            lo = None
        if lo is None:
            lo, held = s1, 0
        held += c
    if lo is not None:
        yield lo, len(counts) - 1


def _band(N: int, size: int, lo: int, hi: int, powers: bool = True):
    """(key, w, d3, d4) of the non-decreasing `size`-tuples from {1..N} with
    lo <= s1 <= hi, in lexicographic order: the key (s1 - lo) * (size N^2 + 1)
    + s2, equal exactly when (s1, s2) are and ordered as (s1, s2); the int16
    orderings size! / prod(m!) over the multiplicities m; the 3/2- and
    1/2-power sums, or None unless `powers`. Built entry by entry without the
    tuples: a prefix is repeated once per next entry v that still admits a
    completion in the band, and a row carries s1, s2, its last entry, final
    run length, ordering denominator (a run reaching length m multiplies it
    by m) and power sums, each its parent's value, gathered through an intp
    `parent` index, plus the term of v. At the last entry s1 and s2 serve
    only the key, so the parents' keys are formed and gathered once: with
    span = size N^2 + 1, key = key(parent) + v (span + v). A band of one s1
    value (lo == hi) of two or more entries adds its last entry in place:
    the level before keeps only the prefixes that complete in the band, each
    once, with v = lo - s1, so run, denom, d3 and d4 are updated in place and
    key = s2 + v^2, with no repeat, cumsum or gather and the same bits."""
    base = np.arange(N + 1, dtype=np.float64)
    pow32, pow12 = base * np.sqrt(base), np.sqrt(base)
    span = size * N * N + 1
    # two arrays: the last level turns s1 into the parents' key in place
    s1, s2 = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    last = np.ones(1, dtype=np.int64)
    run = np.zeros(1, dtype=np.int8)
    denom = np.ones(1, dtype=np.int16)
    d3 = d4 = np.zeros(1) if powers else None
    # one s1 value: the last level is the one before, updated in place; a
    # single entry has no level before it to prune the root
    in_place = lo == hi and size > 1
    for j in range(size - in_place):
        rest = size - 1 - j
        vmin = np.maximum(last, lo - s1 - rest * N)
        reps = np.maximum(np.minimum(N, (hi - s1) // (rest + 1)) - vmin + 1, 0)
        # an intp index: numpy casts any other index on every gather
        parent = np.repeat(np.arange(reps.size), reps)
        v = np.arange(parent.size)
        v += (vmin + reps - np.cumsum(reps))[parent]
        del vmin, reps
        run = np.where(v == last[parent], run[parent] + 1, 1)
        denom = denom[parent] * run
        last = v
        # gather, then add in place: one temporary per accumulator
        if powers:
            d3 = d3[parent]
            d3 += pow32[v]
            d4 = d4[parent]
            d4 += pow12[v]
        if rest:
            s1 = s1[parent]
            s1 += v
            s2 = s2[parent]
            s2 += v * v
        else:
            # key(parent) + v (span + v): one gather where s1 and s2 took two
            s1 -= lo
            s1 *= span
            s1 += s2
            key = s1[parent]
            del parent
            term = v + span
            term *= v
            key += term
    if in_place:
        # v = lo - s1 with last <= v <= N, and key = (s1 - lo) span + s2
        # + v (span + v) = s2 + v^2
        v = np.subtract(lo, s1, out=s1)
        run *= v == last
        run += 1
        denom *= run
        if powers:
            d3 += pow32[v]
            d4 += pow12[v]
        v *= v
        key = s2
        key += v
    return key, math.factorial(size) // denom, d3, d4


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity outside Linux
        return os.cpu_count() or 1


def _map_shards(N: int, size: int, reduce, top: int | None = None) -> list:
    """[reduce(lo, hi)] over consecutive bands lo <= s1 <= hi of the
    non-decreasing `size`-tuples from {1..N}, in band order, up to s1 = top
    (default: all of them); each reduction builds its band (`_band`). No
    (s1, s2) group crosses a band, and no band crosses top. A band holds at
    most share = SHARD_ROWS // cores tuples, unless one s1 value alone holds
    more. The bands run in waves, one after another: a run of bands within
    the share is a wave of one task per band, side by side on the cached
    executor of one thread per core (`_shard_pool`; numpy releases the GIL
    in the sorts, gathers and ufuncs of every reduction); a run of larger
    bands is a wave of one task that reduces them in order on one thread.
    So at most SHARD_ROWS tuples are in flight, or one band that alone
    holds more, whatever the core count, and the threads share nothing. A
    call fetches the executor once and keeps it to the end, even if another
    core count replaces it in the cache meanwhile. Its threads serve every
    call, so a reduction must not call `_map_shards` itself. If a band
    raises, its wave's queued tasks are cancelled and the running ones
    waited for before the error is re-raised, so no band of a failed call
    runs on into the next call."""
    counts = _sum_counts(N, size)[:None if top is None else top + 1]
    cores = _cores()
    share = SHARD_ROWS // cores
    bands = list(_bands(counts, share))
    # importing concurrent.futures and starting a thread add about 0.5 MB of
    # peak RSS, which one band does not need
    if cores == 1 or len(bands) <= 1:
        return [reduce(lo, hi) for lo, hi in bands]

    def reduce_all(task):
        return [reduce(lo, hi) for lo, hi in task]

    pool = _shard_pool(cores)
    results = []
    for large, wave in itertools.groupby(bands, lambda b: counts[b[0]:b[1] + 1].sum() > share):
        tasks = [list(wave)] if large else [[band] for band in wave]
        futures = [pool.submit(reduce_all, task) for task in tasks]
        try:
            for f in futures:
                results += f.result()
        except BaseException:
            for f in futures:
                f.cancel()
            from concurrent.futures import wait

            wait(futures)
            raise
    return results


@functools.lru_cache(maxsize=1)
def _shard_pool(cores: int):
    """The process's executor of `cores` threads for `_map_shards`, started
    on first use and kept between calls. On the 2-core benchmark host,
    running every band on the calling thread made `sextic-counts` take
    2.13 s in place of 1.34 s, and a pool per call raised the
    `cubic-counts` peak RSS from 54.7 to 56.4 MB (medians of 4 alternating
    pairs each). A call with another core count evicts the pool; once no
    call holds it, the executor is collected and its threads exit after the
    bands already queued. Two first calls at once may each build a pool;
    the one not cached goes the same way after its call. A forked child has
    none of the pool's threads, so it forgets the pool and starts its own."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(cores)


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_shard_pool.cache_clear)


def _group_starts(key: np.ndarray) -> np.ndarray:
    """Start indices of the runs of equal values in a sorted key."""
    boundary = np.empty(key.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = key[1:] != key[:-1]
    return np.flatnonzero(boundary)


def _radix_order(key: np.ndarray, order: np.ndarray) -> np.ndarray:
    """order[np.argsort(key[order], kind="stable")] for a nonnegative int64
    key: a least-significant-digit radix sort with one stable argsort of the
    key's 16-bit digits per pass (numpy sorts 16-bit integers stably by
    counting), as many passes as the largest key has digits."""
    digits = np.ascontiguousarray(key, dtype="<i8").view("<u2").reshape(-1, 4)
    for d in range((int(key.max()).bit_length() + 15) // 16):
        order = order[np.argsort(digits[order, d], kind="stable")]
    return order


def _square_sum(key: np.ndarray, w: np.ndarray) -> int:
    """Sum over (s1, s2) groups of (sum of orderings)^2: the ordered pairs
    that share both power sums."""
    # The int16 orderings are summed into int64 group sums, whose dot is at
    # most sum(w)^2 <= (size! * rows)^2. A band holds more than SHARD_ROWS rows
    # only where one s1 value does, and under WINDOWED_MAX_N and
    # VINOGRADOV_MAX_N one s1 value holds at most 250,510 (6-multisets at
    # N = 48; the largest 3-multiset s1 value holds 131,328 at N = 1024), so
    # the dot stays below (720 * 2^18)^2 < 2^63.
    if int(w.sum(dtype=np.int64)) ** 2 >= 1 << 63:
        raise OverflowError("group sums too large for an int64 dot")
    order = _radix_order(key, np.arange(key.size, dtype=np.int32))
    sums = np.add.reduceat(w[order], _group_starts(key[order]), dtype=np.int64)
    return int(np.dot(sums, sums))


def _square_count(N: int, size: int) -> int:
    """Sum over all (s1, s2) groups of the `size`-multisets from {1..N} of
    (sum of orderings)^2, from half of them. The reflection n -> N + 1 - n
    maps the multisets with key (s1, s2) one to one, orderings kept, onto
    those with key (t - s1, s2 - 2 (N + 1) s1 + (N + 1) t), t = size (N + 1),
    so the groups at s1 and t - s1 have equal sums. The bands below t/2 are
    reduced and doubled, and the middle value s1 = t/2, when t is even, is
    added once."""
    t = size * (N + 1)

    def band(lo, hi):
        return _square_sum(*_band(N, size, lo, hi, powers=False)[:2])

    total = 2 * sum(_map_shards(N, size, band, top=(t - 1) // 2))
    return total if t % 2 else total + band(t // 2, t // 2)


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

    The 6-multisets are cut into s1 bands (`_map_shards`); each band is
    reduced to an exact integer on its own, so the total does not depend on
    the bands or on the threads that reduce them. With both windows
    infinite the count is `_square_count`, over half of the bands. The
    window tests are decided in float64, as d3[j] >= fl(d3[i] - w3),
    d3[j] <= fl(d3[i] + w3) and |d4[j] - d4[i]| <= w4 for the pair (i, j).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    GuardError.check("meanvalue.windowed.N", N, WINDOWED_MAX_N, f"N={N}")
    w3 = float(N) ** -0.5 if window3 is None else float(window3)
    w4 = float(N) ** -0.5 if window4 is None else float(window4)
    if not (w3 > 0 and w4 > 0):
        raise ValueError("windows must be positive")

    if math.isinf(w3) and math.isinf(w4):
        total = _square_count(N, 6)
    else:
        total = sum(_map_shards(N, 6, lambda lo, hi: _window_pair_count(*_swept_band(N, 6, lo, hi), w3, w4)))
    return CountResult(float(total), True, 0.0, METHOD_WINDOWED, N, 6, total, window3=w3, window4=w4)


def _sweep_order(key: np.ndarray, d3: np.ndarray):
    """(order, end), both int32: the rows of one band sorted on (key, d3),
    and for each row in that order the index one past the last row of its
    group. Both pairwise routes sweep the pairs (i, i + k) of a group in
    this order. The rows are sorted on d3, then stably on the key."""
    order = _radix_order(key, np.argsort(d3).astype(np.int32))
    starts = _group_starts(key[order])
    ends = np.append(starts[1:], key.size).astype(np.int32)
    return order, np.repeat(ends, ends - starts)


def _swept_band(N: int, size: int, lo: int, hi: int):
    """(end, w, d3, d4) of one band (`_band`) in sweep order
    (`_sweep_order`); the unsorted arrays die on return, so the sweep holds
    only these four."""
    key, w, d3, d4 = _band(N, size, lo, hi)
    order, end = _sweep_order(key, d3)
    del key
    return end, w[order], d3[order], d4[order]


def _window_pair_count(end, w, d3, d4, w3: float, w4: float) -> int:
    """Weighted ordered pairs (i, j) of one band in sweep order
    (`_swept_band`) with equal key inside the windows. The pairs (i, i + k)
    at offset k = 1, 2, ... are tested in both directions, since
    fl(d3 +- w3) makes the d3 test asymmetric. A row drops out at the first
    offset that leaves its group or both d3 windows, because d3 only grows
    along a group. The sweep has two phases:

    - dense: while at least a third of the band's rows are live, offset k
      compares the slices d3[k:] and d3[:-k] (and likewise d4 and w) under
      a mask of the live rows, with no gathers and no compression;
    - gathered: then the live rows are compressed once into an index, which
      is gathered and compressed again at every later offset.

    Both phases make the same float64 comparisons, so the count does not
    depend on the switch point. Weights multiply in int64."""
    total = int(np.square(w, dtype=np.int64).sum())
    n = end.size
    room = end - np.arange(n, dtype=end.dtype)  # row i has a partner at k < room[i]
    live = room[:-1] > 1
    k = 1
    while 3 * np.count_nonzero(live) >= n:
        m = n - k
        up = d3[k:] <= d3[:m] + w3
        down = d3[:m] >= d3[k:] - w3
        near = np.abs(d4[k:] - d4[:m]) <= w4
        near &= live
        hits = (up & near).view(np.int8) + (down & near).view(np.int8)
        total += _weighted_hits(w[:m], w[k:], hits)
        k += 1
        up |= down
        up &= live
        live = up[:-1]
        live &= room[:m - 1] > k
    i = np.flatnonzero(live)
    while i.size:
        a, b = d3[i], d3[i + k]
        up = b <= a + w3
        down = a >= b - w3
        del a, b
        near = np.abs(d4[i + k] - d4[i]) <= w4
        hits = (up & near).view(np.int8) + (down & near).view(np.int8)
        total += _weighted_hits(w[i], w[i + k], hits)
        k += 1
        up |= down
        up &= room[i] > k
        i = i[up]
    return total


def _weighted_hits(wa, wb, hits) -> int:
    """sum(wa * wb * hits), the products in int64. Multiplying by hits in
    place is about 3x faster than np.dot, which casts hits to a new int64
    array, and the product dies on return."""
    prod = np.multiply(wa, wb, dtype=np.int64)
    prod *= hits
    return int(prod.sum())


def _interval_kernel(theta: np.ndarray) -> np.ndarray:
    """integral of e(theta z) over [-1, 1] = sin(2 pi theta)/(pi theta),
    with the bits of 2 * np.sinc(2 * theta). Consumes theta: its buffer is
    overwritten, so callers pass a fresh temporary. The steps are np.sinc's,
    in place: x = 2 theta, exact zeros set to 1e-20, y = pi x, then
    2 sin(y)/y, with one temporary (the sine) where np.sinc takes four."""
    theta *= 2.0
    theta[theta == 0] = 1.0e-20
    theta *= np.pi
    value = np.sin(theta)
    value /= theta
    value *= 2.0
    return value


def moment_kernel_sum(spec: MeanValueSpec) -> CountResult:
    """Exact (up to rounding) kernel-sum evaluation of the moment integral.

    Groups r-multisets by the exact key (sum, sum of squares), shard by
    shard (`_map_shards`), in sweep order (`_sweep_order`); each ordered pair
    within a group contributes the product of orderings times the two
    interval kernels in the scaled power-sum defects. The groups of a shard
    are reduced by the offset sweep of the windowed count
    (`_kernel_group_sums`), which evaluates each unordered pair once. The
    accumulation over all groups of all shards is exactly rounded
    (math.fsum), so the value depends neither on the shards, nor on the
    threads that reduce them, nor on the order of the groups.
    """
    r = spec.r
    if r not in KERNEL_MAX_N:
        raise ValueError(f"kernel route supports r in {sorted(KERNEL_MAX_N)}, got r={r}")
    GuardError.check("meanvalue.kernel.N", spec.N, KERNEL_MAX_N[r], f"N={spec.N} at r={r}")
    scale3 = 1.0 / (spec.delta * spec.N**1.5)
    scale4 = 1.0 / (spec.Delta * spec.N**0.5)

    def band(lo, hi):
        return _kernel_group_sums(*_swept_band(spec.N, r, lo, hi), scale3, scale4)

    value = math.fsum(np.concatenate(_map_shards(spec.N, r, band)).tolist())
    return CountResult(value, True, 0.0, METHOD_KERNEL, spec.N, r, delta=spec.delta, Delta=spec.Delta)


def _kernel_group_sums(end, w, d3, d4, scale3, scale4) -> np.ndarray:
    """Sum over the ordered pairs of each group of w_i w_j k3 k4, for the
    groups of one shard in sweep order, in group order. Each sum starts at
    the diagonal, 4 w^2 per row, and adds 2 (w_i w_j) k3 k4 for the pairs
    (i, i + k) at offsets k = 1, 2, ...: fl(a - b) = -fl(b - a) and sinc is
    even, so both directions of a pair have the same bits, and doubling is
    exact. The sums are binned by the group end. At each offset only the
    groups of the live rows get a bin (`_add_by_group`), and bincount adds a
    group's pairs in index order, as a bin per row would, so the bits are
    those of binning every row."""
    wf = w.astype(np.float64)
    sums = np.bincount(end, weights=4.0 * wf * wf, minlength=end.size + 1)
    i = np.arange(end.size)
    k = 1
    while True:
        i = i[i + k < end[i]]
        if not i.size:
            return sums[end[_group_starts(end)]]
        j = i + k
        # 2 ((w_i w_j) k3) k4, rounded in that order, built in one array
        terms = _interval_kernel((d3[i] - d3[j]) * scale3)
        terms *= wf[i] * wf[j]
        terms *= _interval_kernel((d4[i] - d4[j]) * scale4)
        terms *= 2.0
        _add_by_group(sums, end[i], terms)
        k += 1


def _add_by_group(sums, group, terms) -> None:
    """sums[g] += the terms of each run g of the sorted group ends, added in
    index order: the runs, numbered in order by a cumsum over their
    boundaries, are the bins of one bincount."""
    new = np.empty(group.size, dtype=bool)
    new[0] = True
    np.not_equal(group[1:], group[:-1], out=new[1:])
    slot = np.cumsum(new)
    slot -= 1
    sums[group[new]] += np.bincount(slot, weights=terms)


def moment_monte_carlo(spec: MeanValueSpec, samples: int, seed: int = 0) -> CountResult:
    """Unbiased Monte-Carlo estimate of the moment integral over the
    measure-4 box [0,1]^2 x [-1,1]^2; stderr is the sample standard deviation
    of the mean. Deterministic for fixed (samples, seed): fixed chunk size,
    single stream."""
    if samples < MIN_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_SAMPLES}")
    GuardError.check("meanvalue.quadrature.terms", samples * spec.N, QUADRATURE_MAX_TERMS,
                     f"{samples} samples x N={spec.N} terms")
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
    return CountResult(mean, False, math.sqrt(var / samples), METHOD_QUADRATURE, spec.N, spec.r,
                       delta=spec.delta, Delta=spec.Delta)


def check_vinogradov_n(N: int) -> None:
    """The size guard of `vinogradov_count`, for callers that check a whole
    list of N before the first count."""
    GuardError.check("meanvalue.vinogradov.N", N, VINOGRADOV_MAX_N, f"N={N}")


def vinogradov_count(N: int, s: int) -> CountResult:
    """J_{s,2}(N): the number of ordered 2s-tuples from {1..N} whose two
    halves share linear and quadratic sums. Exact integer; equals the [0,1]^2
    integral of |sum_{n<=N} e(n a + n^2 b)|^{2s}. Counted over half of the
    multisets by reflection (`_square_count`)."""
    if s not in (2, 3):
        raise ValueError("s must be 2 or 3")
    if N < 1:
        raise ValueError("N must be >= 1")
    check_vinogradov_n(N)
    total = _square_count(N, s)
    return CountResult(float(total), True, 0.0, METHOD_VINOGRADOV, N, s, total)


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
