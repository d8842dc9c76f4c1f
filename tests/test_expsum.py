"""Exponential-sum evaluators: trivial identities, high-precision oracles,
and stability invariants."""

import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab.errors import GuardError
from zetalab.expsum import (
    MAX_QUADRUPLE_N,
    PHASE_BLOCK,
    ComplexValue,
    dirichlet_sum,
    eval_dyadic_sum,
    eval_quadruple_sum,
    phase_sums,
    phase_terms,
)
from zetalab.numerics import (
    MACHINE_EPS,
    SUM_WIDTH,
    UNIT_PHASE_K,
    frac_in_place,
    frac_mul_int,
    frac_poly_phase,
    neumaier_sum,
    unit_phase,
)

# Lengths around the block and row edges of the streamed sums
W = SUM_WIDTH
BLOCK_EDGE_LENGTHS = (W - 1, W, W + 1, 2 * W - 1, 2 * W, 2 * W + 1, 3 * W + 1)


def whole_array_sum(values, weight, term_err=0.0):
    """ComplexValue of a whole term array summed at once by `neumaier_sum`,
    with the evaluators' `err`: the reference for their blocked sums."""
    err = (2.0 + UNIT_PHASE_K) * MACHINE_EPS * weight + term_err
    return ComplexValue(neumaier_sum(values.real), neumaier_sum(values.imag), err)


# 50-digit term-by-term oracle values (mpmath), frozen; the live oracle below
# regenerates them when mpmath is available.
QUADRUPLE_N8 = complex(-0.4694753964425900373, -1.7877962077270102206)
DYADIC_T1000_M100 = complex(-5.4349247203694720831, 0.33807017525475796258)


def hp_quadruple(N, x, digits=50):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = digits
    xs = [mp.mpf(v) for v in x]
    root = mp.sqrt(N)

    def e(z):
        return mp.e ** (2j * mp.pi * z)

    total = sum(
        e(n * xs[0] + n * n * xs[1] + root * mp.power(n, mp.mpf(3) / 2) * xs[2] + root * mp.sqrt(n) * xs[3])
        for n in range(1, N + 1)
    )
    return complex(total)


def test_all_zero_phases_sum_exactly():
    res = eval_quadruple_sum(5, (0.0, 0.0, 0.0, 0.0))
    assert res.re == 5.0 and res.im == 0.0
    assert res.err >= 0


def test_single_term():
    x = (0.37, -1.25, 0.6, 2.25)
    res = eval_quadruple_sum(1, x)
    expected = cmath.exp(2j * math.pi * sum(x))
    assert abs(res.value - expected) < 1e-14


def test_quadruple_against_high_precision_oracle():
    x = (0.3, 0.7, -0.2, 0.9)
    res = eval_quadruple_sum(8, x)
    assert abs(res.value - QUADRUPLE_N8) <= 1e-12
    # regenerate the frozen constant
    assert abs(hp_quadruple(8, x) - QUADRUPLE_N8) < 1e-15


def test_quadruple_input_validation():
    with pytest.raises(ValueError):
        eval_quadruple_sum(0, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        eval_quadruple_sum(4, (float("nan"), 0, 0, 0))
    with pytest.raises(GuardError) as exc:
        eval_quadruple_sum(MAX_QUADRUPLE_N + 1, (0, 0, 0, 0))
    assert exc.value.guard == "expsum.quadruple.N"


def test_err_contract():
    # err follows the compensated-summation contract 2*eps*sum|a_n| plus the
    # unit_phase bound K*eps*sum|a_n|, and in particular stays below 1e-9
    # relative for large N
    N = 200_000
    res = eval_quadruple_sum(N, (0.123, 0.456, 0.789, 0.321))
    assert res.err == pytest.approx((2 + UNIT_PHASE_K) * MACHINE_EPS * N)
    assert res.err <= 1e-9 * N
    with pytest.raises(ValueError):
        ComplexValue(0.0, 0.0, -1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=24),
    st.tuples(*[st.floats(-8, 8, allow_nan=False) for _ in range(4)]),
)
def test_triangle_inequality(N, x):
    res = eval_quadruple_sum(N, x)
    assert abs(res) <= N + res.err + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)
def test_periodicity_integer_shifts(N, k1, k2):
    # exactly representable base frequencies make the shifted evaluation
    # bit-identical after the internal mod-1 reduction
    x = (0.375, 0.8125, 0.0625, -0.25)
    shifted = (x[0] + k1, x[1] + k2, x[2], x[3])
    a = eval_quadruple_sum(N, x)
    b = eval_quadruple_sum(N, shifted)
    assert a.re == b.re and a.im == b.im


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.tuples(*[st.floats(-4, 4, allow_nan=False) for _ in range(4)]),
)
def test_conjugation(N, x):
    pos = eval_quadruple_sum(N, x)
    neg = eval_quadruple_sum(N, tuple(-v for v in x))
    assert abs(neg.value - pos.value.conjugate()) < 1e-10 * (1 + N)


def test_dyadic_zero_phase_counts_terms():
    for M in (2, 3, 10, 101):
        res = eval_dyadic_sum(0.0, M)
        assert res.re == M - M // 2
        assert res.im == 0.0


def test_dyadic_single_term():
    res = eval_dyadic_sum(123.456, 2, "log")
    # only m = 2 contributes and f(2) = T log(2/2) = 0
    assert abs(res.value - 1.0) < 1e-15


def test_dyadic_against_high_precision_oracle():
    res = eval_dyadic_sum(1000.0, 100, "log")
    rel = abs(res.value - DYADIC_T1000_M100) / abs(DYADIC_T1000_M100)
    assert rel <= 1e-10
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    hp = sum(mp.e ** (2j * mp.pi * (mp.mpf(1000) * mp.log(mp.mpf(m) / 100))) for m in range(51, 101))
    assert abs(complex(hp) - DYADIC_T1000_M100) < 1e-15


def test_dyadic_monomial():
    res = eval_dyadic_sum(3.0, 6, "monomial", exponent="3/2")
    expected = sum(cmath.exp(2j * math.pi * (3.0 * (m / 6) ** 1.5)) for m in range(4, 7))
    assert abs(res.value - expected) < 1e-12


def test_dyadic_validation():
    with pytest.raises(ValueError):
        eval_dyadic_sum(float("inf"), 10)
    with pytest.raises(ValueError):
        eval_dyadic_sum(1.0, 1)
    with pytest.raises(ValueError):
        eval_dyadic_sum(1.0, 10, "monomial")
    with pytest.raises(ValueError):
        eval_dyadic_sum(1.0, 10, "cubic")
    with pytest.raises(ValueError, match="no exponent"):  # it would change nothing
        eval_dyadic_sum(1.0, 10, "log", exponent="3/2")


def eval_curve_sum(coeffs, curve_samples, x) -> ComplexValue:
    """Sum_n a_n e(x . Phi_n) for explicitly sampled curve points Phi_n, one
    frequency at a time: the reference loop for `phase_sums`."""
    a = np.asarray(coeffs, dtype=np.complex128)
    phi = np.asarray(curve_samples, dtype=np.float64)
    if a.shape != (phi.shape[0],):
        raise ValueError("coefficients and curve samples must have the same length")
    phase = (phi @ np.asarray(x, dtype=np.float64)) % 1.0
    return whole_array_sum(a * np.exp((2j * math.pi) * phase), float(np.abs(a).sum()))


def test_curve_sum_unit_vector():
    phi = [(n / 16, (n / 16) ** 2, 0.0, 0.0) for n in range(1, 17)]
    a = np.zeros(16, dtype=complex)
    a[4] = 1.0
    x = (2.5, -7.75, 0.0, 3.0)
    res = eval_curve_sum(a, phi, x)
    expected = cmath.exp(2j * math.pi * (phi[4][0] * x[0] + phi[4][1] * x[1]))
    assert abs(res.value - expected) < 1e-13


def test_curve_sum_zero_frequency():
    phi = [(n / 8, (n / 8) ** 2, 0.0, 0.0) for n in range(1, 9)]
    a = np.arange(1, 9).astype(complex)
    res = eval_curve_sum(a, phi, (0.0, 0.0, 0.0, 0.0))
    assert abs(res.value - a.sum()) < 1e-12


def test_curve_sum_against_high_precision_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = np.random.default_rng(42)
    a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    phi = [(n / 16.0, (n / 16.0) ** 2, 0.0, 0.0) for n in range(1, 17)]
    x = (3.7, -11.25, 0.0, 5.0)
    hp = sum(
        mp.mpc(a[k]) * mp.e ** (2j * mp.pi * (mp.mpf(phi[k][0]) * x[0] + mp.mpf(phi[k][1]) * x[1]))
        for k in range(16)
    )
    res = eval_curve_sum(a, phi, x)
    assert abs(res.value - complex(hp)) <= 1e-12


def test_curve_sum_linearity():
    rng = np.random.default_rng(3)
    phi = [(n / 8, (n / 8) ** 2, (n / 8) ** 1.5, (n / 8) ** 0.5) for n in range(1, 9)]
    x = (1.5, -2.25, 0.5, 0.75)
    a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    lhs = eval_curve_sum(2.0 * a + 3.0 * b, phi, x).value
    rhs = 2.0 * eval_curve_sum(a, phi, x).value + 3.0 * eval_curve_sum(b, phi, x).value
    assert abs(lhs - rhs) < 1e-11


def test_curve_sum_length_mismatch():
    phi = [(0.1, 0.2, 0.0, 0.0)] * 4
    with pytest.raises(ValueError):
        eval_curve_sum([1.0, 2.0], phi, (0, 0, 0, 0))


# ------------------------------------------------------------ phase_sums


def loop_phase_sums(phi, coeffs, X):
    """The per-term loop that `phase_sums` replaces."""
    out = []
    for x in X:
        total = 0j
        for n, row in enumerate(phi):
            a = 1.0 if coeffs is None else coeffs[n]
            total += a * cmath.exp(2j * math.pi * (float(np.dot(row, x)) % 1.0))
        out.append(total)
    return np.array(out)


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("complex_coeffs", [False, True])
def test_phase_sums_match_term_loop(d, complex_coeffs):
    rng = np.random.default_rng(d)
    N = 40
    t = np.arange(1, N + 1) / N
    phi = np.column_stack([t, t**2, t**1.5, np.sqrt(t)])[:, :d] * 7.0
    # 3 * PHASE_BLOCK // N + 5 points: several blocks, the last one partial
    X = rng.uniform(-3.0, 3.0, size=(3 * PHASE_BLOCK // N + 5, d))
    a = rng.standard_normal(N) + 1j * rng.standard_normal(N) if complex_coeffs else None
    got = phase_sums(phi, a, X)
    picks = [0, 1, PHASE_BLOCK // N - 1, PHASE_BLOCK // N, X.shape[0] - 1]
    want = loop_phase_sums(phi, a, X[picks])
    weight = N if a is None else float(np.abs(a).sum())
    assert np.max(np.abs(got[picks] - want)) <= 1e-12 * weight


def test_phase_sums_one_point_per_block_beyond_block_size():
    N = PHASE_BLOCK + 3
    n = np.arange(1, N + 1, dtype=np.float64)
    phi = np.column_stack([n, n * n])
    X = np.array([[0.25, 0.0], [0.0, 0.5], [0.3, 1e-7]])
    got = phase_sums(phi, None, X)
    # e(n/4) cycles with period 4 and e(n^2/2) = (-1)^n
    assert abs(got[0] - sum(1j**k for k in range(1, N % 4 + 1))) < 1e-9
    assert abs(got[1] - (-1 if N % 2 else 0)) < 1e-9
    # phases stay below 1.2e4, so each term is good to about 1e-11
    ref = eval_curve_sum(np.ones(N), phi, X[2])
    assert abs(got[2] - ref.value) < 1e-6


def test_phase_sums_bit_identical_and_validated():
    rng = np.random.default_rng(11)
    phi = rng.standard_normal((12, 4))
    a = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    X = rng.standard_normal((5000, 4))
    first = phase_sums(phi, a, X)
    assert first.tobytes() == phase_sums(phi, a, X).tobytes()
    with pytest.raises(ValueError):
        phase_sums(phi, a, X[:, :3])
    with pytest.raises(ValueError):
        phase_sums(phi, a[:5], X)
    with pytest.raises(ValueError):
        phase_sums(np.zeros((3, 5)), None, np.zeros((2, 5)))


def test_phase_sums_coefficient_matrix_equals_row_calls():
    rng = np.random.default_rng(5)
    N = 40
    phi = rng.standard_normal((N, 3)) * 9.0
    rows = rng.standard_normal((5, N)) + 1j * rng.standard_normal((5, N))
    # several blocks, the last one partial
    X = rng.uniform(-2.0, 2.0, size=(2 * PHASE_BLOCK // N + 7, 3))
    got = phase_sums(phi, rows, X)
    assert got.shape == (5, X.shape[0])
    for r, row in enumerate(rows):
        assert got[r].tobytes() == phase_sums(phi, row, X).tobytes()
    # a transposed (non-contiguous) matrix gives the same bits
    assert phase_sums(phi, rows.T.copy().T, X).tobytes() == got.tobytes()
    with pytest.raises(ValueError):
        phase_sums(phi, rows[:, :-1], X)
    with pytest.raises(ValueError):
        phase_sums(phi, rows[None], X)


def in_order_phase_sums(phi, row, X):
    """Each point's terms added down n in order, one term at a time: the
    reference for every point of a `phase_sums` call of two or more points."""
    terms = phase_terms(phi, X) * row[:, None]
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


def _parabola_case(N, P, rows=3):
    rng = np.random.default_rng(N + P)
    n = np.arange(1, N + 1, dtype=np.float64)
    phi = np.column_stack([n, n * n])
    a = rng.standard_normal((rows, N)) + 1j * rng.standard_normal((rows, N))
    return phi, a, rng.random((P, 2))


@pytest.mark.parametrize("N, P", [
    (24, 3 * (PHASE_BLOCK // 24) + 1),
    (12, PHASE_BLOCK // 12 + 1),
    (48, 683),
    (40, 1),
    # more than PHASE_BLOCK // 2 terms: blocks of two points, the last of three
    (PHASE_BLOCK // 2 + 5, 9),
])
def test_phase_sums_follow_the_block_split(N, P):
    """Every block of two or more points is summed down n in order, whatever
    its width, so a call equals its pieces of two or more points, and each
    point equals the one-term-at-a-time loop; only a one-point call, a
    block of one point, is numpy's pairwise sum."""
    phi, a, X = _parabola_case(N, P)
    cuts = sorted({0, 2, P // 2, P - 2, P}) if P >= 8 else [0, P]
    assert min(hi - lo for lo, hi in zip(cuts, cuts[1:])) >= min(P, 2)
    for coeffs in (None, a[0], a):
        got = phase_sums(phi, coeffs, X)
        pieces = [phase_sums(phi, coeffs, X[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        assert got.tobytes() == np.concatenate(pieces, axis=-1).tobytes()
    got = phase_sums(phi, a[0], X)
    if P == 1:
        assert got[0] == np.sum(phase_terms(phi, X)[:, 0] * a[0])
    else:
        assert got.tobytes() == in_order_phase_sums(phi, a[0], X).tobytes()


@pytest.mark.parametrize("P", [4096, PHASE_BLOCK // 24 + 1, PHASE_BLOCK // 12 + 1, PHASE_BLOCK // 48 + 1, 904, 1])
def test_phase_sums_rows_with_fewer_terms_equal_their_own_calls(P):
    # one table per block, for the longest row, serves rows of 48, 24, 12
    # and 5 terms; entries beyond a row's count are never read
    phi, a, X = _parabola_case(48, P, rows=4)
    terms = [48, 24, 12, 5]
    for row, m in zip(a, terms):
        row[m:] = np.nan
    got = phase_sums(phi, a, X, terms)
    assert got.shape == (4, P)
    for r, m in enumerate(terms):
        assert got[r].tobytes() == phase_sums(phi[:m], a[r, :m], X).tobytes()
        if P > 1:
            assert got[r].tobytes() == in_order_phase_sums(phi[:m], a[r, :m], X).tobytes()


def test_phase_sums_terms_validated():
    phi, a, X = _parabola_case(8, 10)
    for coeffs, terms in ((None, [8]), (a[0], [8]), (a, [8, 8]), (a, [8, 8, 0]), (a, [8, 8, 9])):
        with pytest.raises(ValueError, match="terms"):
            phase_sums(phi, coeffs, X, terms)


def remainder_frac_mul_int(n, f):
    # frac_mul_int as written with % 1.0
    fhi = math.floor(f * 2.0**26) / 2.0**26
    return ((n * fhi) % 1.0 + n * (f - fhi)) % 1.0


def remainder_frac_poly_phase(n, x1, x2):
    # frac_poly_phase as written with % 1.0
    f2 = x2 % 1.0
    n2 = n * n
    hi = (n2 >> 26).astype(np.float64)
    lo = (n2 & ((1 << 26) - 1)).astype(np.float64)
    out = remainder_frac_mul_int(n.astype(np.float64), x1 % 1.0)
    out = out + remainder_frac_mul_int(hi, (f2 * 2.0**26) % 1.0) + remainder_frac_mul_int(lo, f2)
    return out % 1.0


def remainder_quadruple(N, x):
    # eval_quadruple_sum with its phases reduced by % 1.0
    x1, x2, x3, x4 = x
    n = np.arange(1, N + 1, dtype=np.int64)
    nf = n.astype(np.float64)
    sqrt_n = np.sqrt(nf)
    root_n = math.sqrt(N)
    phase = remainder_frac_poly_phase(n, x1, x2)
    phase = (phase + ((x3 * root_n) * (nf * sqrt_n)) % 1.0 + ((x4 * root_n) * sqrt_n) % 1.0) % 1.0
    return whole_array_sum(unit_phase(phase), float(N))


def remainder_dyadic(T, M, exponent):
    # eval_dyadic_sum with its phase reduced by % 1.0
    m = np.arange(M // 2 + 1, M + 1, dtype=np.float64)
    f = np.log(m / M) if exponent is None else (m / M) ** exponent
    return whole_array_sum(unit_phase((T * f) % 1.0), float(m.size))


def test_phase_reduction_matches_remainder_bit_for_bit():
    """Phases are reduced as x - floor(x), in place on fresh arrays; the
    former `x % 1.0` gives the same bits on every finite float."""
    special = [-0.0, 0.0, -1e-20, 1e-20, -3.0, 3.0, 2.0**40 + 0.5, -(2.0**40 + 0.5), -0.5, -2.75,
               -5e-324, 5e-324, 1e300, -1e300, math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0)]
    rng = np.random.default_rng(2)
    phases = np.concatenate([special, rng.standard_normal(3000) * 1e3, rng.standard_normal(3000) * 1e-9])
    phi = phases[:, None]
    # multiplying by +-1 and 2 is exact, so the kernel sees these phases
    X = np.array([[1.0], [-1.0], [2.0]])
    phase = phi[:, 0, None] * X[:, 0]
    terms = unit_phase(phase % 1.0)
    assert phase_sums(phi, None, X).tobytes() == terms.sum(axis=0).tobytes()
    a = rng.standard_normal(phases.size) + 1j * rng.standard_normal(phases.size)
    assert phase_sums(phi, a, X).tobytes() == (terms * a[:, None]).sum(axis=0).tobytes()
    assert frac_in_place(phases.copy()).tobytes() == (phases % 1.0).tobytes()
    # frac_mul_int, frac_poly_phase and the quadruple and dyadic phases reduce
    # fresh arrays in place the same way: negative frequencies, n up to 2**26
    rng = np.random.default_rng(4)
    n = np.concatenate([np.arange(1, 2000), rng.integers(1, 1 << 26, 20000), [(1 << 26) - 1, 1 << 26]])
    n = n.astype(np.int64)
    nf = n.astype(np.float64)
    for f in [0.0, 0.5, math.nextafter(1.0, 0.0), 5e-324, *rng.random(6)]:
        assert frac_mul_int(nf, f).tobytes() == remainder_frac_mul_int(nf, f).tobytes()
    xs = [(0.0, 0.0), (-0.25, -1e-9), (1e6 + 1 / 3, -7.5), (-math.pi, math.e), (-1e-20, 1e-20)]
    xs += [tuple(v) for v in rng.standard_normal((6, 2)) * 10.0 ** rng.integers(-8, 4, (6, 2))]
    for x1, x2 in xs:
        assert frac_poly_phase(n, x1, x2).tobytes() == remainder_frac_poly_phase(n, x1, x2).tobytes()
    points = [(-0.3, -0.7, -1e-3, -2.5), (1.5, -2.25, 3e-4, 0.1), tuple(rng.standard_normal(4) * 10.0)]
    for N in (1, 999, 5000, *BLOCK_EDGE_LENGTHS):
        for x in points:
            assert eval_quadruple_sum(N, x) == remainder_quadruple(N, x)
    # M - M // 2 terms: the block edges, then the same counts from odd M
    dyadic_Ms = (2, 301, 20000, *(2 * n for n in BLOCK_EDGE_LENGTHS), *(2 * n - 1 for n in BLOCK_EDGE_LENGTHS))
    for T in (-1234.5678, 0.25, 8765.4321):
        for M in dyadic_Ms:
            assert eval_dyadic_sum(T, M) == remainder_dyadic(T, M, None)
            assert eval_dyadic_sum(T, M, "monomial", "3/2") == remainder_dyadic(T, M, 1.5)


@functools.lru_cache(maxsize=None)
def hp_dirichlet_partials(sigma, t, checkpoints):
    """sum_{n<=m} n^{-sigma-it} at each m of `checkpoints`, in 30-digit mpmath."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    s = mp.mpc(sigma, t)
    total, out = mp.mpc(0), {}
    for n in range(1, max(checkpoints) + 1):
        total += mp.power(n, -s)
        if n in checkpoints:
            out[n] = complex(total)
    return out


DIRICHLET_LENGTHS = (1, 2, 100, *BLOCK_EDGE_LENGTHS, 1 << 14)


def whole_array_dirichlet(s, m):
    # dirichlet_sum with its phases, terms and weights built whole
    phase = np.log(np.arange(1, m + 1, dtype=np.float64))
    phase *= -s.imag / (2 * math.pi)
    values = unit_phase(phase % 1.0)
    weights = np.arange(1, m + 1, dtype=np.float64) ** -s.real
    values *= weights
    weight = float(weights.sum())
    return whole_array_sum(values, weight, MACHINE_EPS * weight * (2.0 + 4.0 * abs(s.imag) * math.log(m + 1.0)))


@pytest.mark.parametrize("sigma", [0.5, 2.0])
@pytest.mark.parametrize("t", [0.0, 50.0, -50.0, 1.0e4])
def test_dirichlet_sum_against_high_precision(sigma, t):
    # the sum at -t is the conjugate of the sum at t
    exact = hp_dirichlet_partials(sigma, abs(t), DIRICHLET_LENGTHS)
    for m in DIRICHLET_LENGTHS:
        want = exact[m] if t >= 0 else exact[m].conjugate()
        got = dirichlet_sum(complex(sigma, t), m)
        assert abs(got.value - want) <= got.err
        weight = math.fsum(n ** -sigma for n in range(1, m + 1))
        want_err = MACHINE_EPS * weight * (4 + UNIT_PHASE_K + 4 * abs(t) * math.log(m + 1))
        assert got.err == pytest.approx(want_err, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("s", [complex(0.5, 0.0), complex(0.5, -1.0e5), complex(0.75, 12345.678), complex(2.0, 50.0)])
def test_dirichlet_sum_matches_whole_array_bit_for_bit(s):
    for m in (0, *DIRICHLET_LENGTHS, 5 * W + 7):
        assert dirichlet_sum(s, m) == whole_array_dirichlet(s, m)


def test_dirichlet_sum_empty_and_trivial():
    assert dirichlet_sum(complex(0.5, 3.0), 0) == ComplexValue(0.0, 0.0, 0.0)
    assert dirichlet_sum(complex(0.5, 3.0), 1).value == 1.0
    assert dirichlet_sum(complex(0.5, 3.0), np.int64(1)).value == 1.0


@pytest.mark.parametrize("m", [-1, -5, 2.0, 2.5, "3", None])
def test_dirichlet_sum_refuses_a_bad_length(m):
    with pytest.raises(ValueError, match="nonnegative integer"):
        dirichlet_sum(complex(0.5, 3.0), m)


def test_dirichlet_sum_memory_per_term(traced_peak):
    # the weights are built whole for their pairwise sum, the phases and
    # terms in blocks: 8.75 bytes per term measured, 24.5 when the whole
    # complex term array was alive beside them
    terms = 1 << 20
    _, peak = traced_peak(dirichlet_sum, complex(0.5, 2.0 * terms), terms)
    assert peak / terms <= 9.0


@pytest.mark.parametrize("terms", [1 << 16, 1 << 20])
def test_long_sums_run_in_flat_memory(traced_peak, terms):
    # phases and terms in blocks of SUM_WIDTH into one stream per part:
    # 0.86 MB (quadruple) and 0.79 MB (dyadic) measured at every length;
    # the whole arrays took 48 and 24 bytes per term, 50 and 25 MB at 2**20
    _, peak = traced_peak(eval_quadruple_sum, terms, (0.1, -0.2, 0.3, 0.4))
    assert peak <= 1 << 20
    for args in [(), ("monomial", "3/2")]:
        _, peak = traced_peak(eval_dyadic_sum, 1234.5, 2 * terms, *args)
        assert peak <= 1 << 20
