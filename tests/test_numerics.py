"""The compensated sum: exactness against Fraction sums, its documented
bound, and its agreement with math.fsum; the e(.) kernel against mpmath;
the Halton block."""

import math
from fractions import Fraction

import numpy as np
import pytest

from zetalab import numerics
from zetalab.numerics import (
    MACHINE_EPS,
    SUM_WIDTH,
    UNIT_PHASE_BLOCK,
    UNIT_PHASE_K,
    NeumaierStream,
    halton,
    neumaier_sum,
    unit_phase,
)

W = SUM_WIDTH
LENGTHS = (0, 1, W - 1, W, 2 * W - 1, 2 * W, 2 * W + 1, (1 << 20) + 3)


def exact_sum(v) -> Fraction:
    """The exact sum of a float64 array: each value is an integer mantissa
    times a power of two, and the mantissas of one exponent add up exactly in
    a high and a low part."""
    mant, expo = np.frexp(np.asarray(v, dtype=np.float64))
    mant = (mant * 2.0**53).astype(np.int64)
    total = Fraction(0)
    for e in np.unique(expo).tolist():
        sel = mant[expo == e]
        whole = (int((sel >> 26).sum()) << 26) + int((sel & ((1 << 26) - 1)).sum())
        total += whole * Fraction(2) ** (e - 53)
    return total


def check(v):
    """Assert the documented bound and the 2 * eps * sum(|a|) contract."""
    got, exact = neumaier_sum(v), exact_sum(v)
    error = abs(Fraction(got) - exact)
    mass = float(np.abs(v).sum()) * (1 + v.size * MACHINE_EPS)
    rows = v.size // W if v.size >= 2 * W else 0
    # the docstring's bound, with the rounding of |S| to a float on top
    assert error <= Fraction(MACHINE_EPS / 2 * abs(float(exact)) * (1 + MACHINE_EPS) + rows**2 * MACHINE_EPS**2 * mass)
    assert error <= Fraction(2 * MACHINE_EPS * mass)
    return got, exact


def ill_conditioned(rng, size):
    # values spread over 80 binary orders of magnitude, each paired with its
    # negative, plus a small remainder: the sum is tiny against sum(|a|)
    half = rng.standard_normal(size // 2) * np.exp2(rng.integers(-40, 40, size // 2))
    v = np.concatenate([half, -half, rng.standard_normal(size - 2 * (size // 2))])
    return v[rng.permutation(size)]


def test_exact_sum_is_the_fraction_sum():
    rng = np.random.default_rng(0)
    v = ill_conditioned(rng, 301)
    v[:3] = [0.0, 5e-324, -1e300]
    assert exact_sum(v) == sum(map(Fraction, v.tolist()), Fraction(0))


@pytest.mark.parametrize("size", LENGTHS)
def test_cancelling_inputs_sum_exactly(size):
    # every fourth value survives the cancellation: the sum is k * (1 + 1e-3)
    # up to the rounding of the 1e-3 terms, which the compensation keeps
    pattern = np.array([1e16, 1.0, -1e16, 1e-3])
    v = np.resize(pattern, size)
    got, exact = check(v)
    assert got == float(exact)
    # shifted by one, so columns mix the large and the small values
    if size > 1:
        got, exact = check(np.resize(np.roll(pattern, 1), size))
        assert got == float(exact)


@pytest.mark.parametrize("size", LENGTHS)
def test_ill_conditioned_sums_within_bound(size):
    rng = np.random.default_rng(size)
    check(ill_conditioned(rng, size))


@pytest.mark.parametrize("size", LENGTHS)
def test_strided_views_match_contiguous_copies(size):
    rng = np.random.default_rng(7)
    z = rng.standard_normal(size) * 1e3 + 1j * ill_conditioned(rng, size)
    for part in (z.real, z.imag):
        assert not part.flags.c_contiguous or size <= 1
        assert np.float64(neumaier_sum(part)).tobytes() == np.float64(neumaier_sum(part.copy())).tobytes()


def test_strided_view_is_not_copied(traced_peak):
    z = np.exp(2j * np.pi * np.random.default_rng(3).random(1 << 20))
    _, peak = traced_peak(neumaier_sum, z.real)
    # a copy of the real parts alone would be 8 MB
    assert peak < (1 << 21)


def whole_array_neumaier(v):
    """The column-wise compensated sum on a whole array at once: rows of W
    down the columns, then math.fsum of s, c and the tail."""
    rows = v.size // W
    if rows < 2:
        return math.fsum(v.tolist())
    body = v[: rows * W].reshape(rows, W)
    s, c = body[0].copy(), np.zeros(W)
    for x in body[1:]:
        t = s + x
        z = t - s
        c += (s - (t - z)) + (x - z)
        s = t
    return math.fsum(np.concatenate((s, c, v[rows * W :])).tolist())


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def streamed(pieces):
    stream = NeumaierStream()
    for piece in pieces:
        stream.add(piece)
    return stream.total()


def random_split(rng, v):
    # cuts at random points, with runs of short pieces and pieces longer than W
    cuts = np.sort(rng.integers(0, v.size + 1, rng.integers(0, 12)))
    return np.split(v, cuts)


STREAM_LENGTHS = (0, 1, W - 1, W, W + 1, 2 * W - 1, 2 * W, 3 * W + 5)


@pytest.mark.parametrize("size", STREAM_LENGTHS)
def test_stream_matches_neumaier_sum_bit_for_bit(size):
    rng = np.random.default_rng(size + 1)
    v = ill_conditioned(rng, size)
    want = bits(neumaier_sum(v))
    assert want == bits(whole_array_neumaier(v))
    assert bits(streamed([v])) == want
    assert bits(streamed(np.split(v, range(1, size)))) == want  # one value at a time
    assert bits(streamed(np.split(v, range(W - 1, size, W)))) == want  # rows across pieces
    for _ in range(20):
        assert bits(streamed(random_split(rng, v))) == want


@pytest.mark.parametrize("size", STREAM_LENGTHS)
def test_stream_reads_strided_views(size):
    rng = np.random.default_rng(size + 2)
    z = rng.standard_normal(size) * 1e3 + 1j * ill_conditioned(rng, size)
    for part in (z.real, z.imag):
        want = bits(whole_array_neumaier(part.copy()))
        assert bits(streamed([part])) == want
        for _ in range(10):
            assert bits(streamed(random_split(rng, part))) == want


def test_stream_totals_along_the_way_and_signed_zeros():
    rng = np.random.default_rng(9)
    v = ill_conditioned(rng, 3 * W + 5)
    stream, seen = NeumaierStream(), 0
    for piece in random_split(rng, v):
        stream.add(piece)
        seen += piece.size
        assert bits(stream.total()) == bits(neumaier_sum(v[:seen]))
    for size in STREAM_LENGTHS:
        zeros = np.full(size, -0.0)
        assert bits(streamed(random_split(rng, zeros))) == bits(whole_array_neumaier(zeros))


def test_unit_phases_match_fsum():
    rng = np.random.default_rng(11)
    for _ in range(3):
        z = np.exp(2j * np.pi * rng.random(1 << 20))
        assert neumaier_sum(z.real) == math.fsum(z.real.tolist())
        assert neumaier_sum(z.imag) == math.fsum(z.imag.tolist())


def test_lists_and_short_arrays_are_fsum():
    assert neumaier_sum([]) == 0.0
    assert neumaier_sum([0.1] * 10) == math.fsum([0.1] * 10)
    v = np.random.default_rng(5).standard_normal(2 * W - 1)
    assert neumaier_sum(v) == math.fsum(v.tolist())


def unit_phase_error(theta, got):
    """max |got - e(theta)| in units of MACHINE_EPS, against 40-digit mpmath."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    worst = max(abs(mp.mpc(g) - mp.expjpi(2 * mp.mpf(t))) for t, g in zip(theta.tolist(), got.tolist()))
    return float(worst) / MACHINE_EPS


def test_unit_phase_within_its_bound():
    rng = np.random.default_rng(17)
    table = np.arange(numerics._TABLE_SIZE + 1) / numerics._TABLE_SIZE
    theta = np.concatenate([
        rng.random(20_000),
        [0.0, 5e-324, 0.5, math.nextafter(1.0, 0.0), 1.0],
        np.nextafter(table, 2.0)[:-1],  # k/1024 + 1 ulp
        np.nextafter(table, -1.0)[1:],  # k/1024 - 1 ulp
    ])
    assert unit_phase_error(theta, unit_phase(theta)) <= UNIT_PHASE_K


def test_unit_phase_table_is_correctly_rounded():
    # each part correctly rounded: |T[k] - e(k/M)| <= MACHINE_EPS / 2
    theta = np.arange(numerics._TABLE_SIZE) / numerics._TABLE_SIZE
    assert unit_phase_error(theta, numerics._UNIT_PHASE_TABLE) <= 0.5


@pytest.mark.parametrize("size", [1, UNIT_PHASE_BLOCK - 1, UNIT_PHASE_BLOCK, UNIT_PHASE_BLOCK + 1])
def test_unit_phase_block_edges(size):
    # every block, the last partial one included, gives the values of
    # one entry at a time
    theta = np.random.default_rng(size).random(size)
    got = unit_phase(theta)
    assert got.shape == (size,) and got.dtype == np.complex128
    assert got.tobytes() == b"".join(unit_phase(theta[i:i + 1]).tobytes() for i in range(size))
    assert np.max(np.abs(got - np.exp(2j * np.pi * theta))) <= (UNIT_PHASE_K + 4) * MACHINE_EPS


def test_unit_phase_keeps_shape_and_modulus():
    theta = np.random.default_rng(3).random((37, 300))
    got = unit_phase(theta)
    assert got.shape == theta.shape
    assert got.tobytes() == unit_phase(theta.ravel()).tobytes()
    assert unit_phase(theta.T).tobytes() == got.T.copy().tobytes()  # a strided input
    assert np.max(np.abs(np.abs(got) - 1.0)) <= 2 * MACHINE_EPS
    assert unit_phase(np.empty(0)).shape == (0,)


def radical_inverse(base, index):
    """Van der Corput radical inverse, one column at a time: the reference
    that `halton` reproduces bit for bit."""
    x = np.zeros(index.shape, dtype=np.float64)
    denom = 1.0
    i = index.astype(np.int64).copy()
    while np.any(i > 0):
        denom *= base
        i, digit = np.divmod(i, base)
        x += digit / denom
    return x


def halton_reference(dim, count):
    idx = np.arange(1, count + 1)
    return np.column_stack([radical_inverse((2, 3, 5, 7, 11, 13)[d], idx) for d in range(dim)])


@pytest.mark.parametrize("dim", range(1, 7))
def test_halton_matches_reference_bit_for_bit(dim):
    for count in (0, 1, 2, 3, 1000, 1 << 15):
        got, want = halton(dim, count), halton_reference(dim, count)
        assert got.shape == want.shape == (count, dim)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [0, 7])
def test_halton_dimension_is_validated(dim):
    with pytest.raises(ValueError):
        halton(dim, 4)


@pytest.mark.parametrize("dim, ratio", [(2, 2.6), (4, 1.8)])
def test_halton_peak_over_block(traced_peak, dim, ratio):
    # one (count, dim) block plus three count-length work arrays: 2.53 and
    # 1.77 times the block; stacking finished columns took 3.5 and 2.25
    block, peak = traced_peak(halton, dim, 1 << 17)
    assert peak <= ratio * block.nbytes
