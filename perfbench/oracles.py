"""Reference computations for the benchmark's output checks.

Nothing here imports zetalab. Each quantity is computed from its definition
by another route than the program's: dynamic programming over power sums or
sorting of ordered tuples instead of the multiset table, exact rationals,
`decimal` square roots, and mpmath for zeta. `test_perfbench_oracles.py`
checks each one against plain enumeration at small sizes.

Run as a script to recompute the stored reference values:

    python3 perfbench/oracles.py bilinear 32     # exact bilinear cube mean
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import defaultdict
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

MACHINE_EPS = float(np.finfo(np.float64).eps)


# ------------------------------------------------------------ tuple counts


def orderings(multiset) -> int:
    """Number of distinct orderings of a multiset given as a sequence."""
    total = math.factorial(len(multiset))
    for run in _runs(sorted(multiset)):
        total //= math.factorial(run)
    return total


def _runs(sorted_items):
    return [len(list(g)) for _, g in itertools.groupby(sorted_items)]


def diagonal_count(N: int, s: int) -> int:
    """D_s(N) = (s!)^2 [x^s] (sum_m x^m / (m!)^2)^N: the ordered pairs of
    s-tuples from {1..N} that are rearrangements of each other."""
    base = [Fraction(1, math.factorial(m) ** 2) for m in range(s + 1)]
    poly = [Fraction(1)] + [Fraction(0)] * s
    for _ in range(N):
        poly = [sum(poly[i] * base[k - i] for i in range(k + 1)) for k in range(s + 1)]
    value = poly[s] * math.factorial(s) ** 2
    if value.denominator != 1:
        raise ArithmeticError("diagonal count is not an integer")
    return int(value)


def power_sum_counts(N: int, s: int) -> np.ndarray:
    """c[a, b] = number of ordered s-tuples from {1..N} with sum a and sum of
    squares b, by adding one entry at a time (dense dynamic programming)."""
    c = np.zeros((s * N + 1, s * N * N + 1), dtype=np.int64)
    c[0, 0] = 1
    for k in range(s):
        nxt = np.zeros_like(c)
        src = c[: k * N + 1, : k * N * N + 1]
        for n in range(1, N + 1):
            nxt[n : n + k * N + 1, n * n : n * n + k * N * N + 1] += src
        c = nxt
    return c


def _sum_of_squares(counts: np.ndarray) -> int:
    return sum(v * v for v in counts[counts != 0].tolist())


def vinogradov_J(N: int, s: int) -> int:
    """J_{s,2}(N): ordered pairs of s-tuples from {1..N} with equal sums and
    equal sums of squares, from the dense table of power_sum_counts while it
    stays small and by sorting otherwise."""
    if (s * N + 1) * (s * N * N + 1) <= 4_000_000:
        return _sum_of_squares(power_sum_counts(N, s))
    return vinogradov_J_sorted(N, s)


def vinogradov_J_sorted(N: int, s: int) -> int:
    """J_{s,2}(N) by sorting the (sum, sum of squares) keys of all N^s
    ordered s-tuples and summing the squared run lengths."""
    if N**s > 1 << 25:
        raise ValueError(f"N^s = {N**s} ordered tuples are too many to sort")
    n = np.arange(1, N + 1, dtype=np.int64)
    single = n * (s * N * N + 1) + n * n
    keys = np.zeros(1, dtype=np.int64)
    for _ in range(s):
        keys = (keys[:, None] + single[None, :]).ravel()
    keys.sort()
    edges = np.flatnonzero(np.diff(keys)) + 1
    runs = np.diff(np.concatenate(([0], edges, [keys.size])))
    return int(np.dot(runs, runs))


def multisets(N: int, size: int):
    """(multiset, orderings) for every non-decreasing size-tuple from {1..N}."""
    for ms in itertools.combinations_with_replacement(range(1, N + 1), size):
        yield ms, orderings(ms)


def windowed_count_decimal(N: int, w3: float, w4: float, digits: int = 50) -> int:
    """The near-diagonal count of `meanvalue count` with every window test
    decided on `digits`-digit decimal square roots (the windows are the
    exact binary values of the floats)."""
    with localcontext() as ctx:
        ctx.prec = digits
        root = [Decimal(n).sqrt() for n in range(N + 1)]
        groups = defaultdict(list)
        for ms, w in multisets(N, 6):
            key = (sum(ms), sum(n * n for n in ms))
            groups[key].append((sum(n * root[n] for n in ms), sum(root[n] for n in ms), w))
        W3, W4 = Decimal(w3), Decimal(w4)
        total = 0
        for members in groups.values():
            for a3, a4, wa in members:
                for b3, b4, wb in members:
                    if abs(a3 - b3) <= W3 and abs(a4 - b4) <= W4:
                        total += wa * wb
    return total


def _interval_kernel(theta: float) -> float:
    """Integral of e(theta z) over z in [-1, 1]."""
    if theta == 0.0:
        return 2.0
    return math.sin(2.0 * math.pi * theta) / (math.pi * theta)


def kernel_sum(N: int, r: int, delta: float | None = None, Delta: float | None = None) -> tuple[float, float]:
    """The 2r-th moment integral of `meanvalue kernel` as a plain double loop
    over pairs of r-multisets with equal sum and sum of squares, each pair
    weighted by its orderings and the two interval kernels.

    Returns (value, mass), mass being the sum of the terms' absolute values,
    the scale of the rounding error of any summation order."""
    delta = float(N) ** -2 if delta is None else delta
    Delta = 1.0 / N if Delta is None else Delta
    scale3 = 1.0 / (delta * N**1.5)
    scale4 = 1.0 / (Delta * N**0.5)
    groups = defaultdict(list)
    for ms, w in multisets(N, r):
        key = (sum(ms), sum(n * n for n in ms))
        groups[key].append((math.fsum(n**1.5 for n in ms), math.fsum(math.sqrt(n) for n in ms), w))
    terms = []
    for members in groups.values():
        for a3, a4, wa in members:
            for b3, b4, wb in members:
                terms.append(wa * wb * _interval_kernel((a3 - b3) * scale3) * _interval_kernel((a4 - b4) * scale4))
    return math.fsum(terms), math.fsum(abs(v) for v in terms)


# ------------------------------------------------------------ decoupling


def parabola_sixth_moment(coeffs) -> float:
    """Mean of |sum_n a_n e(n u + n^2 v)|^6 over the unit square: the sum
    over keys (s1, s2) of |sum of a_n1 a_n2 a_n3 over ordered triples|^2."""
    a = np.asarray(coeffs, dtype=np.complex128)
    N = a.size
    n = np.arange(1, N + 1, dtype=np.int64)
    stride = 3 * N * N + 1
    single = n * stride + n * n
    keys = (single[:, None, None] + single[None, :, None] + single[None, None, :]).ravel()
    prod = (a[:, None, None] * a[None, :, None] * a[None, None, :]).ravel()
    _, inverse = np.unique(keys, return_inverse=True)
    re = np.bincount(inverse, weights=prod.real)
    im = np.bincount(inverse, weights=prod.imag)
    return math.fsum((re * re + im * im).tolist())


def _curve_points(N: int, lo: int, hi: int) -> np.ndarray:
    t = np.arange(lo, hi + 1, dtype=np.float64) / N
    return np.stack([t, t * t, t**1.5, np.sqrt(t)], axis=1)


def _triple_differences(phi: np.ndarray):
    """Phi(A) - Phi(B) over ordered pairs of 3-multisets (A, B) of the rows
    of phi, with weight orderings(A) * orderings(B)."""
    sums, weights = [], []
    for ms in itertools.combinations_with_replacement(range(phi.shape[0]), 3):
        sums.append(phi[list(ms)].sum(axis=0))
        weights.append(orderings(ms))
    sums = np.array(sums)
    weights = np.array(weights, dtype=np.float64)
    diff = (sums[:, None, :] - sums[None, :, :]).reshape(-1, 4)
    return diff, np.outer(weights, weights).ravel()


def bilinear_cube_mean(N: int, chunk: int = 64) -> float:
    """Exact mean of |S_1|^6 |S_2|^6 over the cube [-N/2, N/2]^4 for unit
    coefficients, S_j the sum of e(x . Phi_n) over the j-th quarter interval
    of {1..N} on the curve Phi_n = (t, t^2, t^{3/2}, t^{1/2}), t = n/N.

    Expanding the powers, each term e(x . v) averages to prod_c sinc(N v_c),
    so the mean is a finite double sum over pairs of multiset differences."""
    q = max(N // 4, 1)
    u, wu = _triple_differences(_curve_points(N, 1, q))
    v, wv = _triple_differences(_curve_points(N, N - q + 1, N))
    parts = []
    for a in range(0, u.shape[0], chunk):
        b = min(a + chunk, u.shape[0])
        vals = np.prod(np.sinc(N * (u[a:b, None, :] + v[None, :, :])), axis=2)
        parts.append(float(wu[a:b] @ vals @ wv))
    return math.fsum(parts)


# ------------------------------------------------------------ exponents


F = Fraction
HALF = F(1, 2)
TARGET = F(13, 84)

# The seven affine exponent bounds p(a) = u + v a: (tag, lo, hi, lo closed,
# hi closed, u, v), in tie-break order.
PIECES = (
    ("sieve-high", F(49, 114), HALF, False, True, F(53, 342), HALF),
    ("sieve-mid", F(5, 12), F(49, 114), True, True, F(1, 12), F(2, 3)),
    ("sieve-low", F(1, 3), F(5, 12), True, False, F(2, 9), F(1, 3)),
    ("main", F(17, 42), HALF, True, True, TARGET, HALF),
    ("resonance", F(12, 31), F(1), False, True, F(1, 32), F(103, 128)),
    ("pair", F(0), F(1), True, True, F(1, 9), F(11, 18)),
    ("trivial", F(0), F(1), True, True, F(0), F(1)),
)


def envelope(alpha: Fraction) -> tuple[Fraction, str]:
    best = None
    for tag, lo, hi, lo_closed, hi_closed, u, v in PIECES:
        inside = (lo < alpha or (lo_closed and alpha == lo)) and (alpha < hi or (hi_closed and alpha == hi))
        if inside and (best is None or u + v * alpha < best[0]):
            best = (u + v * alpha, tag)
    return best


def crossover(tag: str) -> Fraction:
    """Alpha where the tagged piece meets a/2 + 13/84 (for "main": where the
    piece starts, since it is the target itself)."""
    for t, lo, _, _, _, u, v in PIECES:
        if t == tag:
            return lo if tag == "main" else (TARGET - u) / (v - HALF)
    raise KeyError(tag)


def totients(limit: int) -> list[int]:
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def reduced_fractions_upto_half(Q: int) -> int:
    """#{p/q in lowest terms: 0 <= p/q <= 1/2, q <= Q}."""
    phi = totients(Q)
    return sum(1 if q <= 2 else phi[q] // 2 for q in range(1, Q + 1))


def farey_count(Q: int) -> int:
    """Number of reduced fractions in [0, 1] with denominator <= Q."""
    return 1 + sum(totients(Q)[1:])


def process_A(k: Fraction, l: Fraction) -> tuple[Fraction, Fraction]:
    d = 2 * k + 2
    return k / d, (k + l + 1) / d


def process_B(k: Fraction, l: Fraction) -> tuple[Fraction, Fraction]:
    return l - HALF, k + HALF


def apply_word(word: str, pair) -> tuple[Fraction, Fraction]:
    """Rightmost letter first."""
    k, l = pair
    for ch in reversed(word):
        k, l = process_A(k, l) if ch == "A" else process_B(k, l)
    return k, l


# ------------------------------------------------------------ phase sums


def quadruple_sum(N: int, x) -> tuple[complex, float]:
    """sum_{n<=N} e(n x1 + n^2 x2 + sqrt(N) n^{3/2} x3 + sqrt(N) n^{1/2} x4)
    for x1, x2 multiples of 2^-53 in [0, 1): the polynomial phase is reduced
    exactly in 64-bit integers and the half-power phases are formed in long
    double. Returns (value, phase_scale), where phase_scale is the root sum of
    squares of the float64 rounding unit of each term's half-power phases,
    the size of the deviation a float64 evaluation of those phases causes."""
    p1, p2 = (int(v * 2**53) for v in x[:2])
    if p1 != x[0] * 2**53 or p2 != x[1] * 2**53:
        raise ValueError("x1 and x2 must be multiples of 2^-53")
    n = np.arange(1, N + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        poly = (n * np.uint64(p1) + n * n * np.uint64(p2)) & np.uint64(2**53 - 1)
    nl = n.astype(np.longdouble)
    root = np.sqrt(np.longdouble(N))
    big3 = np.longdouble(x[2]) * root * nl * np.sqrt(nl)
    big4 = np.longdouble(x[3]) * root * np.sqrt(nl)
    frac = (poly.astype(np.longdouble) / np.longdouble(2**53) + big3 % 1 + big4 % 1) % 1
    angle = 2.0 * math.pi * frac.astype(np.float64)
    value = complex(math.fsum(np.cos(angle).tolist()), math.fsum(np.sin(angle).tolist()))
    ulp = MACHINE_EPS * (np.abs(big3) + np.abs(big4)).astype(np.float64)
    return value, float(np.sqrt(np.dot(ulp, ulp)))


def dyadic_log_sum(T: float, M: int) -> tuple[complex, float]:
    """sum_{M/2 < m <= M} e(T log(m/M)) with long-double phases; returns
    (value, phase_scale) as quadruple_sum does."""
    m = np.arange(M // 2 + 1, M + 1).astype(np.longdouble)
    big = np.longdouble(T) * np.log(m / np.longdouble(M))
    angle = 2.0 * math.pi * (big % 1).astype(np.float64)
    value = complex(math.fsum(np.cos(angle).tolist()), math.fsum(np.sin(angle).tolist()))
    ulp = MACHINE_EPS * (np.abs(big).astype(np.float64) + 1.0)
    return value, float(np.sqrt(np.dot(ulp, ulp)))


def zeta_abs(t: float, dps: int = 25) -> float:
    """|zeta(1/2 + i t)| by mpmath."""
    import mpmath

    with mpmath.workdps(dps):
        return float(abs(mpmath.zeta(mpmath.mpc(0.5, t))))


def afe_main_sum_abs(t: float, dps: int = 30) -> float:
    """|sum_{n <= sqrt(t / 2 pi)} n^{-1/2 + i t}| by mpmath."""
    import mpmath

    with mpmath.workdps(dps):
        m = int(math.sqrt(t / (2 * math.pi)) + 1e-12)
        s = mpmath.mpc(0.5, -t)
        return float(abs(mpmath.fsum(mpmath.power(n, -s) for n in range(1, m + 1))))


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "bilinear":
        sys.exit("usage: python3 perfbench/oracles.py bilinear N")
    print(repr(bilinear_cube_mean(int(sys.argv[2]))))
