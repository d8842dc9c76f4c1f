"""Mean-value counts and integrals against brute-force enumeration oracles."""

import concurrent.futures
import itertools
import math
import os
import signal
import sys
import threading
import time
import weakref
from array import array
from collections import Counter, defaultdict
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetalab import meanvalue
from zetalab.errors import GuardError
from zetalab.meanvalue import (
    CountResult,
    MeanValueSpec,
    _band,
    _bands,
    _group_starts,
    _interval_kernel,
    _kernel_group_sums,
    _map_shards,
    _radix_order,
    _square_count,
    _square_sum,
    _sum_counts,
    _sweep_order,
    _swept_band,
    _window_pair_count,
    count_windowed,
    fit_growth_exponent,
    moment_kernel_sum,
    moment_monte_carlo,
    vinogradov_count,
)

# ------------------------------------------------------------------- oracles


def brute_windowed(N, w3, w4):
    """Full enumeration over ordered 12-tuples (as all pairs of ordered
    6-tuples), counting the two exact equalities and two windowed defects."""
    grids = np.meshgrid(*[np.arange(1, N + 1)] * 6, indexing="ij")
    tup = np.stack([g.ravel() for g in grids], axis=1).astype(np.float64)
    s1 = tup.sum(1)
    s2 = (tup**2).sum(1)
    d3 = (tup**1.5).sum(1)
    d4 = np.sqrt(tup).sum(1)
    total = 0
    for a in range(0, s1.size, 512):
        b = min(a + 512, s1.size)
        ok = (
            (s1[a:b, None] == s1[None, :])
            & (s2[a:b, None] == s2[None, :])
            & (np.abs(d3[a:b, None] - d3[None, :]) <= w3)
            & (np.abs(d4[a:b, None] - d4[None, :]) <= w4)
        )
        total += int(ok.sum())
    return total


def brute_vinogradov(N, s):
    """Naive 2s-fold loop for J_{s,2}(N)."""
    total = 0
    for left in itertools.product(range(1, N + 1), repeat=s):
        for right in itertools.product(range(1, N + 1), repeat=s):
            if sum(left) == sum(right) and sum(v * v for v in left) == sum(v * v for v in right):
                total += 1
    return total


def unhalved_square_count(N, size):
    """The unwindowed count over every band, without the reflection: the
    sum over all (s1, s2) groups of (sum of orderings)^2."""
    return sum(_map_shards(N, size, lambda lo, hi: _square_sum(*_band(N, size, lo, hi, powers=False)[:2])))


def diagonal_count(N, s):
    """Exact diagonal of J_{s,2}(N): ordered pairs of s-tuples from {1..N}
    that are rearrangements of each other, i.e. the sum over s-multisets of
    (number of orderings)^2.

    Closed form D_s(N) = (s!)^2 [x^s] (sum_m x^m / (m!)^2)^N, evaluated in
    exact rational arithmetic (truncated at degree s), independently of the
    multiset table. D_s(N) / N^s increases to s! as N grows; its approach is
    the finite-size ramp that the raw growth slopes of the near-diagonal
    counts inherit.
    """
    base = [Fraction(1, math.factorial(m) ** 2) for m in range(s + 1)]
    poly = [Fraction(1)] + [Fraction(0)] * s
    for _ in range(N):
        poly = [sum(poly[i] * base[k - i] for i in range(k + 1)) for k in range(s + 1)]
    value = poly[s] * math.factorial(s) ** 2
    assert value.denominator == 1
    return int(value)


def brute_diagonal(N, s):
    """Rearrangement pairs by enumeration: every ordered s-tuple is paired
    with each ordered tuple of the same sorted content, so the pair count is
    the sum of squared class sizes."""
    classes = Counter(tuple(sorted(t)) for t in itertools.product(range(1, N + 1), repeat=s))
    return sum(c * c for c in classes.values())


def brute_kernel(N, r, delta, Delta):
    """Direct expansion of the moment integral over all ordered r-tuple pairs."""
    scale3 = 1.0 / (delta * N**1.5)
    scale4 = 1.0 / (Delta * N**0.5)

    def kernel(theta):
        return 2.0 * np.sinc(2.0 * theta)

    total = 0.0
    tuples = list(itertools.product(range(1, N + 1), repeat=r))
    for p in tuples:
        for q in tuples:
            if sum(p) != sum(q) or sum(v * v for v in p) != sum(v * v for v in q):
                continue
            t3 = (sum(v**1.5 for v in p) - sum(v**1.5 for v in q)) * scale3
            t4 = (sum(math.sqrt(v) for v in p) - sum(math.sqrt(v) for v in q)) * scale4
            total += float(kernel(t3) * kernel(t4))
    return total


def reference_bands(N, size, bounds):
    """(key, w, d3, d4) of each band lo <= s1 <= hi in `bounds`, enumerated
    independently of `_band`: the tuples come from
    itertools.combinations_with_replacement in lexicographic order, the key
    (s1 - lo) * (size N^2 + 1) + s2 and the orderings size! / prod(m!) are
    Python ints, and the power sums are float sums added entry by entry."""
    span = size * N * N + 1
    band_of = {s1: b for b, (lo, hi) in enumerate(bounds) for s1 in range(lo, hi + 1)}
    out = [(array("q"), array("q"), array("d"), array("d")) for _ in bounds]
    for t in itertools.combinations_with_replacement(range(1, N + 1), size):
        s1 = sum(t)
        key, w, d3, d4 = out[band_of[s1]]
        key.append((s1 - bounds[band_of[s1]][0]) * span + sum(v * v for v in t))
        orderings = math.factorial(size)
        for _, run in itertools.groupby(t):
            orderings //= math.factorial(len(list(run)))
        w.append(orderings)
        a = b = 0.0
        for v in t:
            a += v * math.sqrt(v)
            b += math.sqrt(v)
        d3.append(a)
        d4.append(b)
    return [tuple(np.frombuffer(col, dtype=col.typecode) for col in band) for band in out]


def assert_bands_match_reference(N, size):
    """Every band `_map_shards` cuts holds exactly the reference arrays, bit
    for bit, and the bands tile the range of s1; returns the bands."""
    bands = _map_shards(N, size, lambda lo, hi: (lo, hi, _band(N, size, lo, hi)))
    bounds = [(lo, hi) for lo, hi, _ in bands]
    assert bounds[0][0] == size and bounds[-1][1] == size * N
    assert all(hi + 1 == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
    for (lo, hi, got), want in zip(bands, reference_bands(N, size, bounds)):
        assert got[0].dtype == np.int64 and got[2].dtype == got[3].dtype == np.float64
        for g, r in zip(got, want):
            assert g.tolist() == r.tolist() and g.astype(r.dtype).tobytes() == r.tobytes()
        key, w, d3, d4 = _band(N, size, lo, hi, powers=False)
        assert d3 is None and d4 is None
        assert key.tobytes() == got[0].tobytes() and w.tobytes() == got[1].tobytes()
    return bands


def kernel_shards(N, r):
    """(end, w, d3, d4) of each shard of r-multisets, in the sweep order of
    the kernel route."""
    return _map_shards(N, r, lambda lo, hi: _swept_band(N, r, lo, hi))


def loop_group_sums(end, w, d3, d4, scale3, scale4):
    """One float64 sum of the whole k x k block per group, group by group:
    the reference for `_kernel_group_sums`. Also returns, per group, the sum
    of the absolute block entries and the group size."""
    wf = w.astype(np.float64)
    sums, mags, sizes = [], [], []
    for a in _group_starts(end).tolist():
        d3g, d4g, wg = d3[a:end[a]], d4[a:end[a]], wf[a:end[a]]
        k3 = _interval_kernel((d3g[:, None] - d3g[None, :]) * scale3)
        k4 = _interval_kernel((d4g[:, None] - d4g[None, :]) * scale4)
        block = (wg[:, None] * wg[None, :]) * k3 * k4
        sums.append(float(block.sum()))
        mags.append(float(np.abs(block).sum()))
        sizes.append(d3g.size)
    return sums, mags, sizes


def two_argsort_order(key, d3):
    """The (key, d3) order as two argsorts: on d3, then stable on key."""
    order = np.argsort(d3)
    return order[np.argsort(key[order], kind="stable")]


def decimal_windowed(N, digits=50):
    """The default-window count with every window decided on `digits`-digit
    decimal square roots instead of float64, over the exact (s1, s2) groups
    of 6-multisets. Also returns the smallest distance of a defect from the
    window, which must dwarf 10^-digits for the decisions to be certain."""
    with localcontext() as ctx:
        ctx.prec = digits
        root = [Decimal(v).sqrt() for v in range(N + 1)]
        window = 1 / Decimal(N).sqrt()
        groups = defaultdict(list)
        for t in itertools.combinations_with_replacement(range(1, N + 1), 6):
            orderings = math.factorial(6)
            for c in Counter(t).values():
                orderings //= math.factorial(c)
            d3 = sum(v * root[v] for v in t)
            d4 = sum(root[v] for v in t)
            groups[sum(t), sum(v * v for v in t)].append((d3, d4, orderings))
        total, margin = 0, window
        for members in groups.values():
            for d3a, d4a, wa in members:
                for d3b, d4b, wb in members:
                    e3, e4 = abs(d3a - d3b), abs(d4a - d4b)
                    margin = min(margin, abs(e3 - window), abs(e4 - window))
                    if e3 <= window and e4 <= window:
                        total += wa * wb
    return total, margin


# ------------------------------------------------------------ windowed count


def test_windowed_single_point():
    res = count_windowed(1)
    assert res.integer_value == 1
    assert res.exact and res.stderr == 0.0


@pytest.mark.parametrize("N", [2, 3, 4])
def test_windowed_matches_full_enumeration(N):
    w = N**-0.5
    assert count_windowed(N).integer_value == brute_windowed(N, w, w)


def test_windowed_matches_enumeration_asymmetric_windows(N=4):
    assert count_windowed(N, 0.05, 0.9).integer_value == brute_windowed(N, 0.05, 0.9)


def test_windowed_infinite_windows_equal_two_constraint_count():
    # with both windows removed only the two exact equalities remain
    for N in (2, 3, 4):
        inf_count = count_windowed(N, math.inf, math.inf).integer_value
        assert inf_count == brute_windowed(N, math.inf, math.inf)


@pytest.mark.parametrize("N", [5, 6, 7, 8, 9])
def test_windowed_infinite_windows_halved_equal_unhalved(N):
    assert count_windowed(N, math.inf, math.inf).integer_value == unhalved_square_count(N, 6)


def test_windowed_diagonal_lower_bound():
    for N in (4, 8, 12):
        assert count_windowed(N).integer_value >= diagonal_count(N, 6) >= N**6


_window = st.one_of(st.floats(0.01, 2.0), st.just(math.inf))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.tuples(_window, _window).map(sorted), st.tuples(_window, _window).map(sorted))
@example(6, [0.2, 0.4], [0.2, 0.4])
def test_windowed_monotone_in_windows(N, w3, w4):
    # a pair inside the smaller windows is inside the larger ones
    base = count_windowed(N, w3[0], w4[0]).integer_value
    assert count_windowed(N, w3[1], w4[0]).integer_value >= base
    assert count_windowed(N, w3[0], w4[1]).integer_value >= base


def test_windowed_half_swap_symmetry():
    # swapping the tuple halves transposes the pair relation, which is
    # symmetric; verified on the enumerated relation matrix
    N, w = 3, 3**-0.5
    grids = np.meshgrid(*[np.arange(1, N + 1)] * 6, indexing="ij")
    tup = np.stack([g.ravel() for g in grids], axis=1).astype(np.float64)
    s1 = tup.sum(1)
    s2 = (tup**2).sum(1)
    d3 = (tup**1.5).sum(1)
    d4 = np.sqrt(tup).sum(1)
    rel = (
        (s1[:, None] == s1[None, :])
        & (s2[:, None] == s2[None, :])
        & (np.abs(d3[:, None] - d3[None, :]) <= w)
        & (np.abs(d4[:, None] - d4[None, :]) <= w)
    )
    assert (rel == rel.T).all()


def tenths(rng, n):
    """n values of 0 to 39 tenths, each summed one tenth at a time: on this
    grid fl(d3[i] + w3) and fl(d3[j] - w3) round differently, so some pairs
    pass the d3 test in one direction only (0.1 + 0.2 >= 0.30000000000000004
    but 0.30000000000000004 - 0.2 > 0.1)."""
    return np.array([sum([0.1] * int(k)) for k in rng.integers(0, 40, n)])


def loop_window_pairs(key, w, d3, d4, w3, w4):
    """The weighted ordered pairs (i, j) with equal key inside the windows,
    by a plain loop over the pairs of each key group, with the float64
    decisions of `count_windowed`: the reference for `_window_pair_count`."""
    groups = defaultdict(list)
    for row, k in enumerate(key.tolist()):
        groups[k].append(row)
    d3, d4, w = d3.tolist(), d4.tolist(), w.tolist()
    total = 0
    for rows in groups.values():
        for i in rows:
            for j in rows:
                if d3[i] - w3 <= d3[j] <= d3[i] + w3 and abs(d4[j] - d4[i]) <= w4:
                    total += w[i] * w[j]
    return total


def sweep_window_pairs(key, w, d3, d4, w3, w4):
    """`_window_pair_count` of the rows put in sweep order."""
    order, end = _sweep_order(key, d3)
    return _window_pair_count(end, w[order], d3[order], d4[order], w3, w4)


def grouped_rows(sizes, seed):
    """(key, w, d3, d4) of shuffled groups of the given sizes, d3 on the
    tenths grid, d4 on a coarser one and w in 1..720."""
    rng = np.random.default_rng(seed)
    key = np.repeat(rng.permutation(len(sizes)), sizes)
    rng.shuffle(key)
    n = key.size
    return key, rng.integers(1, 721, n), tenths(rng, n), rng.integers(0, 6, n) * 0.1


def test_window_pair_sweep_keeps_float_decisions():
    # the sweep must count each direction of a pair as the plain pair loop
    # does, also where fl(d3 +- w3) rounds asymmetrically
    rng = np.random.default_rng(3)
    n = 400
    key = rng.integers(0, 8, n)
    d3 = tenths(rng, n)
    d4 = rng.integers(0, 6, n) * 0.1
    w = rng.integers(1, 721, n)
    for w3, w4 in [(0.2, 0.3), (0.1, 0.2), (0.30000000000000004, math.inf), (math.inf, 0.1)]:
        expected = loop_window_pairs(key, w, d3, d4, w3, w4)
        assert sweep_window_pairs(key, w, d3, d4, w3, w4) == expected


@pytest.mark.parametrize("sizes,w3,w4,dense", [
    # all but six rows alone: the gathered phase from k = 1
    ([1] * 40 + [2, 3, 4], 0.3, 0.3, False),
    ([1] * 40, 0.3, 0.3, False),  # every row alone: no pair at all
    # one group: the dense phase until two thirds of the offsets, then the
    # gathered phase for the rest
    ([90], math.inf, math.inf, True),
    ([90], math.inf, 0.2, True),
    ([90], 0.5, 0.3, True),
    # mixed groups
    ([1] * 20 + [2, 5, 9, 30, 60], 0.2, 0.3, True),
    ([1] * 60 + [7, 25], 0.4, math.inf, False),
    ([1], 0.3, 0.3, False),  # n = 1
])
def test_window_pair_sweep_phases_match_group_loop(sizes, w3, w4, dense):
    key, w, d3, d4 = grouped_rows(sizes, seed=len(sizes))
    # the sweep stays dense at k = 1 when a third of the rows have a partner there
    assert (3 * sum(s - 1 for s in sizes) >= key.size) == dense
    expected = loop_window_pairs(key, w, d3, d4, w3, w4)
    assert sweep_window_pairs(key, w, d3, d4, w3, w4) == expected


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=12),
    st.sampled_from([0.1, 0.2, 0.30000000000000004, 1.0, math.inf]),
    st.sampled_from([0.1, 0.3, math.inf]),
    st.integers(0, 2**32 - 1),
)
def test_window_pair_sweep_matches_group_loop(sizes, w3, w4, seed):
    key, w, d3, d4 = grouped_rows(sizes, seed)
    assert sweep_window_pairs(key, w, d3, d4, w3, w4) == loop_window_pairs(key, w, d3, d4, w3, w4)


@pytest.mark.parametrize("N", range(2, 9))
def test_windowed_matches_decimal_window_oracle(N):
    # brute_windowed shares the float64 window logic; this oracle does not
    exact, margin = decimal_windowed(N)
    assert margin > Decimal(10) ** -30
    assert count_windowed(N).integer_value == exact


def test_windowed_guard_and_validation():
    with pytest.raises(GuardError) as exc:
        count_windowed(49)
    assert exc.value.guard == "meanvalue.windowed.N"
    with pytest.raises(ValueError):
        count_windowed(4, -0.1)
    with pytest.raises(ValueError):
        count_windowed(0)


# ------------------------------------------------------------------- shards


@pytest.mark.parametrize("N,size,limit", [
    (1, 6, 1), (7, 2, 1), (7, 2, 5), (9, 3, 1), (9, 3, 20), (12, 3, 64), (6, 6, 1), (8, 6, 100),
    (10, 6, 1 << 18),
])
def test_shards_enumerate_each_tuple_once_in_bands(monkeypatch, N, size, limit):
    monkeypatch.setattr(meanvalue, "SHARD_ROWS", limit)
    # the bands hold every non-decreasing tuple once, each band in
    # lexicographic order (the reference enumerates them that way)
    shards = assert_bands_match_reference(N, size)
    span = size * N * N + 1
    los = [lo for lo, _, _ in shards] + [size * N + 1]
    counts = Counter()
    for (lo, _, (key, _, _, _)), next_lo in zip(shards, los[1:]):
        sums = (key // span + lo).tolist()
        assert lo == min(sums) and max(sums) < next_lo
        assert len(sums) <= limit or len(set(sums)) == 1
        counts.update(sums)
    assert sum(counts.values()) == math.comb(N + size - 1, size)
    assert _sum_counts(N, size).tolist() == [counts[s1] for s1 in range(size * N + 1)]


@pytest.mark.parametrize("N,size", [
    (12, 6), (9, 6), (10, 6), (8, 6), (30, 3), (40, 2),  # SHARD_CASES
    (24, 6), (60, 3), (120, 3),  # the kernel bit-for-bit cases beyond them
])
def test_band_builder_matches_enumeration_bit_for_bit(N, size):
    assert_bands_match_reference(N, size)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 62), st.integers(1, 4000), st.integers(1, 4000), st.integers(0, 2**32 - 1))
@example(62, 4000, 3, 0)  # tie-heavy: three distinct keys, the largest of 62 bits
@example(1, 2000, 2, 1)
def test_radix_order_is_the_stable_argsort(bits, n, distinct, seed):
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 1 << bits, distinct)
    pool[0] = (1 << bits) - 1
    key = pool[rng.integers(0, distinct, n)]
    d3 = rng.integers(0, 40, n) * 0.1  # ties in d3 as well
    identity = np.arange(n, dtype=np.int32)
    assert np.array_equal(_radix_order(key, identity), np.argsort(key, kind="stable"))
    order, _ = _sweep_order(key, d3)
    assert order.dtype == np.int32 and np.array_equal(order, two_argsort_order(key, d3))


@pytest.mark.parametrize("lo,width", [(1, 1), (2, 70_000), (400_000, 131_072), (999_000, 1_000)])
def test_radix_order_on_r1_kernel_band_keys(lo, width):
    # one multiset per s1 at r = 1, so a band of 131,072 values at N = 10^6
    # spans keys of about 57 bits: four 16-bit passes
    N = 1_000_000
    key, w, d3, d4 = _band(N, 1, lo, min(lo + width - 1, N))
    assert key.size == min(width, N - lo + 1) and (w == 1).all()
    if width == 131_072:
        assert 48 < int(key.max()).bit_length() <= 64
    rng = np.random.default_rng(lo)
    perm = rng.permutation(key.size)
    key, d3 = key[perm], d3[perm]  # the builder's keys arrive sorted
    assert np.array_equal(_radix_order(key, np.arange(key.size, dtype=np.int32)), np.argsort(key, kind="stable"))
    order, _ = _sweep_order(key, d3)
    assert np.array_equal(order, two_argsort_order(key, d3))


def test_sweep_order_of_every_band_equals_two_argsorts():
    for N, size in [(12, 6), (30, 3), (40, 2), (24, 6)]:
        for key, _, d3, _ in _map_shards(N, size, lambda lo, hi: _band(N, size, lo, hi)):
            order, end = _sweep_order(key, d3)
            assert np.array_equal(order, two_argsort_order(key, d3))
            starts = _group_starts(key[order])
            assert np.array_equal(end, np.repeat(np.append(starts[1:], key.size), np.diff(starts, append=key.size)))


def assert_one_s1_band_is_general(N, size, s1):
    """_band(N, size, s1, s1), built in place at its last entry, holds bit
    for bit the rows of s1 in _band(N, size, s1, s1 + 1), which repeats and
    gathers: their keys are those below span, in the same order."""
    span = size * N * N + 1
    for powers in (True, False):
        got = _band(N, size, s1, s1, powers)
        both = _band(N, size, s1, s1 + 1, powers)
        mine = both[0] < span
        assert got[0].size == (_sum_counts(N, size)[s1] if size <= s1 <= size * N else 0)
        for g, b in zip(got, both):
            if b is None:
                assert g is None
            else:
                assert g.dtype == b.dtype and g.tobytes() == b[mine].tobytes()


@pytest.mark.parametrize("N,size,s1", [
    (40, 6, 123), (40, 6, 6), (40, 6, 240), (39, 6, 120),
    (40, 3, 3), (40, 3, 120), (39, 3, 60),
    (40, 2, 2), (40, 2, 80), (40, 2, 41),
    (40, 1, 1), (40, 1, 40), (39, 1, 20), (40, 1, 0), (40, 1, 41),
])
def test_one_s1_band_equals_the_general_build(N, size, s1):
    # s1 = 123 holds the most 6-multisets at N = 40 and is the middle of the
    # even 6 (N + 1); the size-1 bands at 0 and N + 1 hold no row
    assert_one_s1_band_is_general(N, size, s1)


def test_every_small_one_s1_band_equals_the_general_build():
    for size in (1, 2, 3, 6):
        for N in (1, 2, 5, 8):
            for s1 in range(size * N + 2):
                assert_one_s1_band_is_general(N, size, s1)


def test_one_s1_band_memory_per_row(traced_peak):
    # the largest one-s1 band at N = 40 (105,690 rows): 59.0 bytes per row
    # with the last entry added in place, 91.0 when it repeated every
    # prefix and gathered the parents' keys
    band, peak = traced_peak(_band, 40, 6, 123, 123)
    key = band[0]
    assert key.size == 105_690
    assert peak / key.size <= 60


def test_windowed_band_memory_per_multiset(monkeypatch, traced_peak):
    # one core: the largest band alone sets the peak; measured at 47.3 bytes
    # per multiset of that band, in the builder's last level and in the
    # pair sweep alike (55.0 before the last-level key and the in-place
    # weighted hits, 126 before the builder and the lean sweep)
    monkeypatch.setattr(meanvalue, "_cores", lambda: 1)
    largest = max(int(_sum_counts(24, 6)[lo:hi + 1].sum())
                  for lo, hi in _bands(_sum_counts(24, 6), meanvalue.SHARD_ROWS))
    result, peak = traced_peak(count_windowed, 24)
    assert result.integer_value == 488281573404
    assert peak / largest <= 48


SHARD_CASES = [
    lambda: count_windowed(12).integer_value,
    lambda: count_windowed(9, 0.05, 0.9).integer_value,
    lambda: count_windowed(10, math.inf, 0.3).integer_value,
    lambda: count_windowed(8, math.inf, math.inf).integer_value,
    lambda: vinogradov_count(30, 3).integer_value,
    lambda: vinogradov_count(40, 2).integer_value,
    lambda: moment_kernel_sum(MeanValueSpec(8, 6)).value,
    lambda: moment_kernel_sum(MeanValueSpec(30, 3, delta=0.05, Delta=0.2)).value,
]


def one_band_values(monkeypatch):
    """SHARD_CASES with every multiset in one band, on the calling thread."""
    monkeypatch.setattr(meanvalue, "SHARD_ROWS", 1 << 40)
    monkeypatch.setattr(meanvalue, "_cores", lambda: 1)
    whole = [case() for case in SHARD_CASES]
    monkeypatch.undo()
    return whole


@pytest.mark.parametrize("limit", [1, 1000], ids=["one_s1_per_shard", "several_s1_per_shard"])
def test_counts_independent_of_shard_size(monkeypatch, limit):
    whole = one_band_values(monkeypatch)
    # values of the earlier engine, which sorted one table of all multisets,
    # and of the count cases before the reflection halving
    assert whole[:6] == [3384230526, 174490401, 1342958770, 185121960, 211080, 3160]
    assert whole[6] == 348667592.79885393
    monkeypatch.setattr(meanvalue, "SHARD_ROWS", limit)
    assert [case() for case in SHARD_CASES] == whole  # floats bit for bit


def cached_pool(cores):
    """The executor `_shard_pool` holds, which must be one of `cores` threads."""
    hits = meanvalue._shard_pool.cache_info().hits
    pool = meanvalue._shard_pool(cores)
    assert meanvalue._shard_pool.cache_info().hits == hits + 1  # not a new one
    assert meanvalue._shard_pool.cache_info().currsize == 1 and pool._max_workers == cores
    return pool


@pytest.mark.parametrize("cores", [1, 2, 3, 7])
def test_counts_independent_of_core_count(monkeypatch, cores):
    # each band reduces exactly, so neither the band cut (SHARD_ROWS // cores)
    # nor the order in which the threads finish moves a bit
    whole = one_band_values(monkeypatch)
    monkeypatch.setattr(meanvalue, "SHARD_ROWS", 1000)
    monkeypatch.setattr(meanvalue, "_cores", lambda: cores)
    assert [case() for case in SHARD_CASES] == whole
    if cores > 1:  # one core reduces on the calling thread
        cached_pool(cores)


def test_shard_pool_is_kept_between_calls(monkeypatch):
    monkeypatch.setattr(meanvalue, "SHARD_ROWS", 1000)
    monkeypatch.setattr(meanvalue, "_cores", lambda: 2)
    # the first two bands meet at a barrier, so both workers have started
    first_two = _map_shards(40, 3, lambda lo, hi: lo)[:2]
    both = threading.Barrier(2, timeout=30)
    _map_shards(40, 3, lambda lo, hi: lo in first_two and both.wait())
    # threads of a pool replaced before this test may still be ending, so
    # the test compares sets of threads, not counts: no thread starts
    pool, threads = cached_pool(2), set(threading.enumerate())
    workers = set(pool._threads)
    for _ in range(5):
        assert vinogradov_count(40, 3).integer_value == 534136  # the unhalved engine's value
        assert vinogradov_count(40, 2).integer_value == 3160
    assert set(threading.enumerate()) <= threads
    assert cached_pool(2) is pool and pool._threads == workers
    assert len(workers) == 2 and all(thread.is_alive() for thread in workers)


def test_core_count_change_replaces_the_pool(monkeypatch):
    # a replaced pool is collected once no call holds it, and its threads
    # exit; the counts do not move
    whole = one_band_values(monkeypatch)
    monkeypatch.setattr(meanvalue, "SHARD_ROWS", 1000)
    meanvalue._shard_pool.cache_clear()  # every pool below is this test's own
    replaced, threads = None, []
    for cores in (2, 3, 7, 2):
        monkeypatch.setattr(meanvalue, "_cores", lambda: cores)
        assert [case() for case in SHARD_CASES] == whole
        pool = cached_pool(cores)
        assert replaced is None or replaced() is None  # the last pool is gone
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert pool._threads
        replaced, threads = weakref.ref(pool), list(pool._threads)
        del pool


def test_map_shards_keeps_tuples_in_flight_within_budget(monkeypatch):
    # single s1 values of 6-multisets from {1..8} hold up to 94 tuples, so
    # two such bands exceed the budget of 100 and must not run together; more
    # workers than cores and a short switch interval stress the wave rule
    monkeypatch.setattr(meanvalue, "SHARD_ROWS", 100)
    monkeypatch.setattr(meanvalue, "_cores", lambda: 7)
    share = 100 // 7
    lock = threading.Lock()
    state = {"rows": 0, "bands": 0, "large": 0, "most_rows": 0, "most_bands": 0}
    started, beside_large = [], []  # (lo, thread) in start order; overlaps

    def reduce(lo, hi):
        key, w, _, _ = _band(8, 6, lo, hi, powers=False)
        large = key.size > share
        with lock:
            started.append((lo, threading.get_ident()))
            if state["bands"] and (large or state["large"]):
                beside_large.append(lo)
            state["rows"] += min(key.size, 100)
            state["bands"] += 1
            state["large"] += large
            state["most_rows"] = max(state["most_rows"], state["rows"])
            state["most_bands"] = max(state["most_bands"], state["bands"])
        time.sleep(0.002)
        with lock:
            state["rows"] -= min(key.size, 100)
            state["bands"] -= 1
            state["large"] -= large
        return lo, hi, (key, w)

    result = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: result.append(_map_shards(8, 6, reduce)))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive() and len(result) == 1
    bands = result[0]
    assert max(key.size for _, _, (key, _) in bands) > 50
    assert state["most_rows"] <= 100
    assert state["most_bands"] >= 2  # the small bands did run side by side
    # no band runs beside a band past the share; the one run of such bands
    # starts in s1 order on one thread
    assert beside_large == []
    (run,) = [[lo for lo, _, _ in run] for large, run in
              itertools.groupby(bands, lambda band: band[2][0].size > share) if large]
    at = [lo for lo, _ in started].index(run[0])
    assert len(run) > 1 and [lo for lo, _ in started[at:at + len(run)]] == run == sorted(run)
    assert len({thread for _, thread in started[at:at + len(run)]}) == 1
    # the bands come back in order and hold every tuple once
    want = reference_bands(8, 6, [(lo, hi) for lo, hi, _ in bands])
    for (_, _, got), ref in zip(bands, want):
        assert got[0].tolist() == ref[0].tolist() and got[1].tolist() == ref[1].tolist()
    assert sum(key.size for _, _, (key, _) in bands) == math.comb(13, 6)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_pool(monkeypatch):
    # the child inherits no pool thread: it must not queue its bands on the
    # parent's pool, where no thread would run them
    monkeypatch.setattr(meanvalue, "SHARD_ROWS", 1000)
    monkeypatch.setattr(meanvalue, "_cores", lambda: 2)
    assert vinogradov_count(40, 3).integer_value == 534136  # the pool exists
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child writes its count; if it hangs, the alarm ends it
        try:
            signal.alarm(30)
            os.write(write, str(vinogradov_count(40, 3).integer_value).encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        got = pipe.read()
    os.waitpid(pid, 0)
    assert got == "534136"


def test_map_shards_raising_band_cancels_the_queued_bands(monkeypatch):
    # the bands that do not raise hold their worker until the failed call
    # has cancelled its queued bands and waits for its running ones, so no
    # band can start between the failure and the cancel, however slowly the
    # calling thread gets there; none may still run when the error arrives
    monkeypatch.setattr(meanvalue, "SHARD_ROWS", 20)
    monkeypatch.setattr(meanvalue, "_cores", lambda: 2)
    started, finished = [], []
    cancelled = threading.Event()
    wait = concurrent.futures.wait

    def cancelled_then_wait(futures, *args, **kwargs):
        assert all(f.done() or f.running() for f in futures)  # none left queued
        cancelled.set()
        return wait(futures, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "wait", cancelled_then_wait)

    def reduce(lo, hi):
        started.append(lo)
        try:
            if lo == 3:
                raise RuntimeError("band failed")
            assert cancelled.wait(timeout=30)
            return lo
        finally:
            finished.append(lo)

    with pytest.raises(RuntimeError, match="band failed"):
        _map_shards(9, 3, reduce)
    assert sorted(finished) == sorted(started)  # no band runs on
    assert len(started) <= 3  # the failed band and at most two beside it
    bands = _map_shards(9, 3, lambda lo, hi: lo)
    assert len(bands) > 10
    assert vinogradov_count(9, 3).integer_value == 4077  # the pool still serves


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("N", [1, 2, 7, 8, 63, 64])
def test_square_count_halved_equals_unhalved(N, size):
    # size (N + 1) takes both parities for size 3: with and without a middle s1
    assert _square_count(N, size) == unhalved_square_count(N, size)


@pytest.mark.parametrize("N,size", [(1, 2), (1, 3), (2, 3), (7, 3), (8, 3), (9, 6), (20, 6), (64, 3)])
def test_sum_counts_are_symmetric_under_reflection(N, size):
    c = _sum_counts(N, size)
    top = size * (N + 1)
    assert all(c[s1] == c[top - s1] for s1 in range(size, size * N + 1))
    assert c[:size].sum() == 0


def test_square_sum_refuses_an_int64_overflow():
    key = np.zeros(2, dtype=np.int64)
    assert _square_sum(key, np.array([2**30, 2**30 + 5])) == (2**31 + 5) ** 2
    with pytest.raises(OverflowError):
        _square_sum(key, np.array([2**31, 2**31]))  # the dot would wrap to 0


# --------------------------------------------------------------- kernel sums


def test_kernel_r1_is_4n():
    for N in (2, 3, 100, 10_000, 40_000):
        res = moment_kernel_sum(MeanValueSpec(N, 1))
        assert res.exact
        assert abs(res.value - 4.0 * N) <= 1e-9 * 4.0 * N


def test_kernel_r1_n3_value():
    assert moment_kernel_sum(MeanValueSpec(3, 1)).value == pytest.approx(12.0)


@pytest.mark.parametrize("N,r", [(2, 3), (3, 3), (4, 3), (2, 6), (3, 6)])
def test_kernel_matches_direct_expansion(N, r):
    spec = MeanValueSpec(N, r)
    direct = brute_kernel(N, r, spec.delta, spec.Delta)
    fast = moment_kernel_sum(spec).value
    assert fast == pytest.approx(direct, rel=1e-11)


def test_kernel_nondefault_scales_match_direct():
    spec = MeanValueSpec(3, 3, delta=0.5, Delta=0.75)
    assert moment_kernel_sum(spec).value == pytest.approx(
        brute_kernel(3, 3, 0.5, 0.75), rel=1e-11
    )


@pytest.mark.parametrize("N,r,delta,Delta", [
    (8, 6, 0.1, 0.3), (12, 6, 0.2, 0.5), (60, 3, 0.01, 0.1), (120, 3, 1e-3, 0.05), (24, 6, None, None),
])
def test_kernel_route_matches_group_loop_bit_for_bit(N, r, delta, Delta):
    # the sweep sums the diagonal and twice each pair (i, i + k) in another
    # order than the block, so each group sum is held to the block sum within
    # the rounding bound of a k^2-term sum; the fsum totals agree bit for bit
    spec = MeanValueSpec(N, r, delta, Delta)
    scales = 1.0 / (spec.delta * N**1.5), 1.0 / (spec.Delta * N**0.5)
    loop_sums, largest = [], 0
    for shard in kernel_shards(N, r):
        sums, mags, sizes = loop_group_sums(*shard, *scales)
        swept = _kernel_group_sums(*shard, *scales).tolist()
        assert len(swept) == len(sums)
        for got, want, mag, k in zip(swept, sums, mags, sizes):
            assert abs(got - want) <= k * k * np.finfo(float).eps * mag
        loop_sums += sums
        largest = max(largest, max(sizes))
    assert moment_kernel_sum(spec).value == math.fsum(loop_sums)
    if (N, r) == (24, 6):
        assert largest > 90  # groups past numpy's 8192-element buffer


def full_bin_group_sums(end, w, d3, d4, scale3, scale4):
    """The offset sweep of `_kernel_group_sums` with a bin per row at every
    offset, as the route was first vectorised: the bit-for-bit reference of
    its live-group binning."""
    wf = w.astype(np.float64)
    sums = np.bincount(end, weights=4.0 * wf * wf, minlength=end.size + 1)
    i = np.arange(end.size)
    k = 1
    while True:
        i = i[i + k < end[i]]
        if not i.size:
            return sums[end[_group_starts(end)]]
        j = i + k
        k3 = _interval_kernel((d3[i] - d3[j]) * scale3)
        k4 = _interval_kernel((d4[i] - d4[j]) * scale4)
        sums += np.bincount(end[i], weights=2.0 * ((wf[i] * wf[j]) * k3 * k4), minlength=end.size + 1)
        k += 1


@pytest.mark.parametrize("N,r,delta,Delta", [(8, 6, None, None), (30, 3, 0.05, 0.2), (16, 6, 0.1, 0.4)])
def test_kernel_group_sums_match_full_binning_bit_for_bit(monkeypatch, N, r, delta, Delta):
    spec = MeanValueSpec(N, r, delta, Delta)
    scales = 1.0 / (spec.delta * N**1.5), 1.0 / (spec.Delta * N**0.5)
    for shard in kernel_shards(N, r):
        got = _kernel_group_sums(*shard, *scales)
        assert got.tobytes() == full_bin_group_sums(*shard, *scales).tobytes()
    value = moment_kernel_sum(spec).value
    monkeypatch.setattr(meanvalue, "_kernel_group_sums", full_bin_group_sums)
    assert value == moment_kernel_sum(spec).value


def test_shard_case_kernel_values_pinned():
    # the kernel cases of SHARD_CASES, as the full binning computed them
    assert [case() for case in SHARD_CASES[6:]] == [348667592.79885393, 787412.3024183133]


def test_interval_kernel_has_the_bits_of_sinc():
    theta = np.random.default_rng(3).normal(0.0, 5.0, 4_000_000)
    theta = np.append(theta, [0.0, -0.0, 1e-9, -1e-9, -1e-300])
    want = 2.0 * np.sinc(2.0 * theta)
    got = _interval_kernel(theta.copy())
    assert got.tobytes() == want.tobytes()
    assert got[-5:-3].tolist() == [2.0, 2.0]


def test_kernel_value_pinned():
    # the value of the per-group loop before the route was vectorised
    spec = MeanValueSpec(120, 3, delta=1e-3, Delta=0.05)
    assert moment_kernel_sum(spec).value == 43484854.648295306


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(1, 3000), (3, 40), (6, 10)]).flatmap(
    lambda case: st.tuples(st.just(case[0]), st.integers(2, case[1]))))
def test_kernel_group_sums_at_zero_scale_count_pairs(case):
    # with both defect scales 0 every kernel factor is 2, so the group sums
    # add up to 4 times the ordered pairs sharing (s1, s2); every partial sum
    # is an integer below 2^53, hence exact
    r, N = case
    sums = [v for shard in kernel_shards(N, r) for v in _kernel_group_sums(*shard, 0.0, 0.0).tolist()]
    if r == 1:
        pairs = N
    elif r == 3:
        pairs = vinogradov_count(N, 3).integer_value
    else:
        pairs = count_windowed(N, math.inf, math.inf).integer_value
    assert math.fsum(sums) == 4 * pairs


def test_kernel_guards():
    with pytest.raises(ValueError):
        moment_kernel_sum(MeanValueSpec(4, 2))
    with pytest.raises(GuardError) as exc:
        moment_kernel_sum(MeanValueSpec(33, 6))
    assert exc.value.guard == "meanvalue.kernel.N"


# ---------------------------------------------------------------- quadrature


def test_quadrature_guard(monkeypatch):
    # samples times N terms, checked before anything is allocated
    with pytest.raises(GuardError) as exc:
        moment_monte_carlo(MeanValueSpec(10**12, 3), meanvalue.MIN_SAMPLES)
    assert exc.value.guard == "meanvalue.quadrature.terms"
    monkeypatch.setattr(meanvalue, "QUADRATURE_MAX_TERMS", 2 * meanvalue.MIN_SAMPLES)
    assert moment_monte_carlo(MeanValueSpec(2, 3), meanvalue.MIN_SAMPLES).value > 0
    with pytest.raises(GuardError):
        moment_monte_carlo(MeanValueSpec(2, 3), meanvalue.MIN_SAMPLES + 1)
    with pytest.raises(GuardError):
        moment_monte_carlo(MeanValueSpec(3, 3), meanvalue.MIN_SAMPLES)


def test_quadrature_r1_converges_to_4n():
    spec = MeanValueSpec(5, 1)
    res = moment_monte_carlo(spec, 60_000, seed=11)
    assert not res.exact and res.stderr > 0
    assert abs(res.value - 20.0) <= 3.0 * res.stderr


def test_quadrature_agrees_with_kernel_r6_n6():
    spec = MeanValueSpec(6, 6)
    kernel = moment_kernel_sum(spec).value
    mc = moment_monte_carlo(spec, 200_000, seed=5)
    assert abs(mc.value - kernel) <= 3.0 * mc.stderr


def test_quadrature_agrees_with_kernel_r3():
    spec = MeanValueSpec(8, 3)
    kernel = moment_kernel_sum(spec).value
    mc = moment_monte_carlo(spec, 150_000, seed=8)
    assert abs(mc.value - kernel) <= 3.0 * mc.stderr


def test_monte_carlo_integrand_matches_expsum():
    # the quadrature integrand is |eval_quadruple_sum|^{2r} after rescaling
    # the half-power frequencies: x3' = x3/(delta N^2), x4' = x4/(Delta N)
    from zetalab.expsum import eval_quadruple_sum

    N, r = 6, 3
    spec = MeanValueSpec(N, r, delta=0.25, Delta=0.5)
    x = (0.31, 0.77, -0.45, 0.9)
    n = np.arange(1, N + 1, dtype=np.float64)
    phases = (
        n * x[0]
        + n * n * x[1]
        + (n / N) ** 1.5 / spec.delta * x[2]
        + np.sqrt(n / N) / spec.Delta * x[3]
    )
    direct = abs(np.exp(2j * np.pi * phases).sum()) ** (2 * r)
    mapped = (x[0], x[1], x[2] / (spec.delta * N**2), x[3] / (spec.Delta * N))
    via_expsum = abs(eval_quadruple_sum(N, mapped)) ** (2 * r)
    assert direct == pytest.approx(via_expsum, rel=1e-10)


def test_quadrature_deterministic_under_seed():
    spec = MeanValueSpec(4, 6)
    a = moment_monte_carlo(spec, 5000, seed=3)
    b = moment_monte_carlo(spec, 5000, seed=3)
    assert a.value == b.value and a.stderr == b.stderr


def test_quadrature_validation():
    with pytest.raises(ValueError):
        moment_monte_carlo(MeanValueSpec(4, 1), 100)


def test_mean_value_spec_validation():
    with pytest.raises(ValueError):
        MeanValueSpec(1, 6)
    with pytest.raises(ValueError):
        MeanValueSpec(4, 0)
    with pytest.raises(ValueError):
        MeanValueSpec(4, 6, delta=2.0)
    with pytest.raises(ValueError):
        MeanValueSpec(4, 6, delta=1e-3)  # below N^-2 = 1/16
    with pytest.raises(ValueError):
        MeanValueSpec(4, 6, Delta=0.01)
    spec = MeanValueSpec(4, 6)
    assert spec.delta == pytest.approx(1 / 16)
    assert spec.Delta == pytest.approx(1 / 4)


# ------------------------------------------------------------------ J counts


def test_vinogradov_small_values():
    assert vinogradov_count(1, 3).integer_value == 1
    assert vinogradov_count(2, 3).integer_value == 20


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_vinogradov_matches_naive_loops(N):
    assert vinogradov_count(N, 3).integer_value == brute_vinogradov(N, 3)
    assert vinogradov_count(N, 2).integer_value == brute_vinogradov(N, 2)


def test_vinogradov_diagonal_bound():
    for N in (4, 16, 64):
        assert vinogradov_count(N, 3).integer_value >= N**3


def test_vinogradov_growth_slope():
    pts = [(N, vinogradov_count(N, 3).value) for N in (16, 32, 64, 128)]
    slope, _ = fit_growth_exponent(pts)
    assert 3.0 <= slope <= 3.4


def test_vinogradov_j22_closed_form():
    # J_{2,2}(N) = 2 N^2 - N: only the rearrangement pairs share both sums
    for N in range(1, 257):
        assert vinogradov_count(N, 2).integer_value == 2 * N * N - N


def test_vinogradov_validation():
    with pytest.raises(ValueError):
        vinogradov_count(4, 4)
    with pytest.raises(GuardError):
        vinogradov_count(1025, 3)


# ------------------------------------------------------------------ diagonal


@pytest.mark.parametrize("s", [3, 6])
def test_diagonal_count_matches_rearrangement_enumeration(s):
    for N in range(1, 6):
        assert diagonal_count(N, s) == brute_diagonal(N, s)


@pytest.mark.parametrize("s", [3, 6])
def test_diagonal_count_matches_multiset_weights(s):
    for N in range(1, 13):
        weights = [v for band in _map_shards(N, s, lambda lo, hi: _band(N, s, lo, hi, powers=False)[1].tolist())
                   for v in band]
        assert diagonal_count(N, s) == sum(v * v for v in weights)


def test_diagonal_count_ramps_to_factorial():
    # D_s(N) / N^s increases towards s! (the all-distinct orderings)
    ratios = [diagonal_count(N, 6) / N**6 for N in (8, 16, 32, 64)]
    assert all(a < b < math.factorial(6) for a, b in zip(ratios, ratios[1:]))


# ---------------------------------------------------------------- slope fits


def test_fit_exact_power():
    pts = [(N, float(N**6)) for N in (4, 8, 16, 32)]
    slope, err = fit_growth_exponent(pts)
    assert slope == pytest.approx(6.0, abs=1e-12)
    assert err == pytest.approx(0.0, abs=1e-12)


def test_fit_scaled_cubic():
    pts = [(N, 7.5 * N**3) for N in (3, 9, 27)]
    slope, _ = fit_growth_exponent(pts)
    assert slope == pytest.approx(3.0, abs=1e-12)


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_growth_exponent([(2, 4.0), (4, 16.0)])
    with pytest.raises(ValueError):
        fit_growth_exponent([(2, 4.0), (2, 4.0), (4, 16.0)])
    with pytest.raises(ValueError):
        fit_growth_exponent([(2, -4.0), (3, 9.0), (4, 16.0)])


def test_count_results_record_their_parameters():
    # each route records the N, r, delta, Delta and windows it ran with
    fields = ("N", "r", "delta", "Delta", "window3", "window4")
    cases = [
        (meanvalue.count_windowed(6), (6, 6, None, None, 6.0**-0.5, 6.0**-0.5)),
        (meanvalue.count_windowed(6, 0.3, math.inf), (6, 6, None, None, 0.3, math.inf)),
        (meanvalue.vinogradov_count(8, 3), (8, 3, None, None, None, None)),
        (meanvalue.moment_kernel_sum(MeanValueSpec(5, 3)), (5, 3, 5.0**-2, 0.2, None, None)),
        (meanvalue.moment_kernel_sum(MeanValueSpec(5, 1, 0.5, 0.25)), (5, 1, 0.5, 0.25, None, None)),
        (meanvalue.moment_monte_carlo(MeanValueSpec(4, 2), 1000, 1), (4, 2, 4.0**-2, 0.25, None, None)),
    ]
    for res, want in cases:
        assert tuple(getattr(res, f) for f in fields) == want


def test_count_result_validation():
    with pytest.raises(ValueError):
        CountResult(-1.0, True, 0.0, "windowed", 8, 6)
    with pytest.raises(ValueError):
        CountResult(1.0, True, 0.5, "windowed", 8, 6)
