"""Shared numerical primitives: compensated summation, exact-enough phase
reduction, low-discrepancy sampling, and log-log slope fitting.

`NeumaierStream` is the package's one compensated sum: it takes float64
values in pieces of any length, runs error-free TwoSum steps down SUM_WIDTH
columns in numpy and hands the column sums, their compensations and the
unfinished row to `math.fsum`, so no Python float list of the terms and no
array of them all is ever built. `neumaier_sum` is that stream fed one
array, bit for bit. `frac_in_place` reduces a freshly
computed phase array mod 1 as x - floor(x), which gives the same bits as
x % 1.0 on every finite float at a fraction of its cost. `unit_phase` is the
package's one evaluator of e(theta) = exp(2 pi i theta) on reduced phases: a
table gather and a short polynomial, within UNIT_PHASE_K * MACHINE_EPS."""

from __future__ import annotations

import math

import numpy as np

MACHINE_EPS = float(np.finfo(np.float64).eps)

_SPLIT = float(1 << 26)
_MASK26 = (1 << 26) - 1

_PRIMES = (2, 3, 5, 7, 11, 13)

# Columns of the compensated sum: wide enough that the per-row numpy calls
# cost little next to the arithmetic, small enough to stay in cache.
SUM_WIDTH = 4096

# `unit_phase` errs by at most UNIT_PHASE_K * MACHINE_EPS (proof in its
# docstring). Its table holds e(k / _TABLE_SIZE); it evaluates UNIT_PHASE_BLOCK
# entries at a time, in six scratch arrays of 192 kB. With blocks of 2**15
# (1.5 MB) the `sampled-moments` benchmark took 0.65-0.70 s against 0.51 s
# and peaked 1 MB higher (2-core host).
UNIT_PHASE_K = 2
UNIT_PHASE_BLOCK = 1 << 12
_TABLE_SIZE = 1 << 10
_STEP = 2.0 * math.pi / _TABLE_SIZE
# Taylor coefficients of cos and sin at x = r * _STEP, in powers of r
_COS2, _COS4 = -(_STEP**2) / 2.0, _STEP**4 / 24.0
_SIN1, _SIN3, _SIN5 = _STEP, -(_STEP**3) / 6.0, _STEP**5 / 120.0
# pi to 118 decimals, correctly rounded: the package's one source of pi
# beyond float64, for the `unit_phase` table and the `decimal` work of `zeta`
PI_DECIMAL = (
    "3.14159265358979323846264338327950288419716939937510"
    "58209749445923078164062862089986280348253421170679"
    "821480865132823066"
)


def _unit_phase_table() -> np.ndarray:
    """e(k / _TABLE_SIZE) for 0 <= k < _TABLE_SIZE, each part correctly
    rounded. The first octant, angles j pi/512 for j <= 128, is rotated out
    in 160-bit fixed point from cos and sin of pi/512 (Taylor series); each
    step adds a few units of 2**-160, so every value stays within 2**-150 of
    the exact one (2**-152.9 measured against mpmath), and `int / int`
    rounds it correctly. The other octants follow by the exact symmetries
    e(1/4 - a) = i conj(e(a)) and e(a + 1/4) = i e(a). (np.cos and np.sin
    carry no documented error bound; on the rounded angles j * (2 pi / M)
    they gave an octant off by up to 0.57 eps.)"""
    one = 1 << 160
    digits = PI_DECIMAL.replace(".", "")
    step = int(digits) * one // (10 ** (len(digits) - 1) * (_TABLE_SIZE // 2))
    cos_step, sin_step, term, power = one, 0, one, 1
    while term:
        term = (term * step >> 160) // power
        sign = 1 if power % 4 in (0, 1) else -1
        if power % 2:
            sin_step += sign * term
        else:
            cos_step += sign * term
        power += 1
    octant = [(one, 0)]
    for _ in range(_TABLE_SIZE // 8):
        c, s = octant[-1]
        octant.append(((c * cos_step - s * sin_step) >> 160, (c * sin_step + s * cos_step) >> 160))
    cos = np.array([c / one for c, _ in octant])
    sin = np.array([s / one for _, s in octant])
    # the first quadrant, k < 256: cos(2 pi k / M) = sin(2 pi (256 - k) / M)
    re = np.concatenate((cos, sin[-2:0:-1]))
    im = np.concatenate((sin, cos[-2:0:-1]))
    table = np.empty(_TABLE_SIZE, dtype=np.complex128)
    table.real = np.concatenate((re, -im, -re, im))
    table.imag = np.concatenate((im, re, -im, -re))
    return table


_UNIT_PHASE_TABLE = _unit_phase_table()


def neumaier_sum(values) -> float:
    """Compensated sum of a 1-D float64 array, column-wise: `NeumaierStream`
    fed the array once.

    The first rows * SUM_WIDTH values are read as rows of SUM_WIDTH in place
    (strided views such as `z.real` are not copied). Down each column,
    Neumaier's step s, c <- t, c + err runs, with the error of t = s + x
    taken by the branch-free TwoSum z = t - s, err = (s - (t - z)) + (x - z):
    exact for either order of |s| and |x|, like the branch on |s| >= |x|,
    and cheaper than evaluating both sides of that branch. The result is
    `math.fsum` of the column sums s, the compensations c and the tail.
    Arrays shorter than 2 * SUM_WIDTH go to `math.fsum` directly, with no
    stream allocated.

    Bound. Let u = MACHINE_EPS / 2, r = rows, S the exact sum and A the sum
    of |values|. Every TwoSum step is error-free, so the values of a column
    add up exactly to its s plus its errors. Its partial sums obey
    |s_k| <= (1 + u)^k sum(|x|), so its errors add up to at most
    r u (1 + 2 r u) sum(|x|) in absolute value, and adding them into c in
    float64 is off by at most 2 r u times that while r u <= 1/4. The column
    totals handed to `math.fsum` therefore miss S by d with
    |d| <= 3 r^2 u^2 A, and `math.fsum` rounds S - d correctly:

        |result - S| <= u |S| + (1 + u) |d|
                     <= MACHINE_EPS / 2 * |S| + rows^2 * MACHINE_EPS^2 * A.

    That meets the contract 2 * MACHINE_EPS * A for rows up to
    sqrt(1.5 / MACHINE_EPS), about 8e7, far past the 16,384 rows of the
    2**26 values that the package's guards admit. Below 2 * SUM_WIDTH
    values the result is correctly rounded.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2 * SUM_WIDTH:
        return math.fsum(v.tolist())
    stream = NeumaierStream()
    stream.add(v)
    return stream.total()


class NeumaierStream:
    """`neumaier_sum` of values that arrive in pieces.

    `add` takes 1-D float64 arrays of any length, strided views such as
    `z.real` among them, and `total` returns, bit for bit, `neumaier_sum` of
    their concatenation: the same rows of SUM_WIDTH values, the same TwoSum
    steps down the columns and the same final `math.fsum`, so the same
    bound. A row that a piece holds whole is read in place; only the values
    of an unfinished row are copied, into one row buffer. Memory is six rows
    of SUM_WIDTH floats, 192 kB, at any length; the work rows are allocated
    when the second row arrives.
    """

    def __init__(self) -> None:
        self._row = np.empty(SUM_WIDTH)  # the unfinished row
        self._filled = 0
        self._s = self._c = None  # column sums and compensations

    def add(self, values) -> None:
        v = np.asarray(values, dtype=np.float64)
        if self._filled:
            take = min(SUM_WIDTH - self._filled, v.size)
            self._row[self._filled : self._filled + take] = v[:take]
            self._filled += take
            if self._filled < SUM_WIDTH:
                return
            self._fold(self._row)
            v = v[take:]
        rows = v.size // SUM_WIDTH
        for x in v[: rows * SUM_WIDTH].reshape(rows, SUM_WIDTH):
            self._fold(x)
        self._filled = v.size - rows * SUM_WIDTH
        self._row[: self._filled] = v[rows * SUM_WIDTH :]

    def _fold(self, x: np.ndarray) -> None:
        """Neumaier's step s, c <- t, c + err down every column, for one full
        row x; the first row only starts s."""
        if self._s is None:
            self._s = x.copy()
            return
        if self._c is None:
            self._c = np.zeros(SUM_WIDTH)
            self._t, self._z, self._err = (np.empty(SUM_WIDTH) for _ in range(3))
        s, t, z, err = self._s, self._t, self._z, self._err
        np.add(s, x, out=t)
        np.subtract(t, s, out=z)
        np.subtract(t, z, out=err)
        np.subtract(s, err, out=err)
        np.subtract(x, z, out=z)
        err += z
        self._c += err
        self._s, self._t = t, s

    def total(self) -> float:
        """`math.fsum` of the column sums, their compensations and the
        unfinished row; the stream may go on taking values."""
        parts = [part for part in (self._s, self._c) if part is not None]
        parts.append(self._row[: self._filled])
        return math.fsum(np.concatenate(parts).tolist())


def frac_in_place(x: np.ndarray) -> np.ndarray:
    """Reduce x mod 1 in place as x - floor(x) and return it.

    Same bits as x % 1.0 on every finite float, in [0, 1]. Only for arrays
    the caller has just computed and owns: the input is overwritten.
    """
    x -= np.floor(x)
    return x


def unit_phase(theta) -> np.ndarray:
    """e(theta) = exp(2 pi i theta) for reduced phases theta in [0, 1], as a
    complex array of theta's shape, within UNIT_PHASE_K * MACHINE_EPS.

    Method. With M = 1024, y = theta * M is exact, k = rint(y), and r = y - k
    is exact (Sterbenz) with |r| <= 1/2, so e(theta) = e(k/M) e(r/M). With
    x = 2 pi r / M, |x| <= pi/1024, the result is the table entry T[k mod M]
    times p = c + i s, c = 1 - x^2/2 + x^4/24 and s = x - x^3/6 + x^5/120
    (Horner in r, the powers of 2 pi / M folded into the coefficients): one
    gather and one complex product, formed in the real and imaginary views
    of the output. Blocks of UNIT_PHASE_BLOCK entries keep the temporaries
    in cache, so memory beyond the output is constant. Every step is a
    correctly rounded real operation, so each entry depends on its theta
    alone, not on the length, the block split or the memory layout.

    Bound. Let u = MACHINE_EPS / 2.
    - Table: each part of T[k] is correctly rounded (`_unit_phase_table`,
      up to 2**-150), so |T[k] - e(k/M)| <= u + 2**-150 and |T[k]| <= 1 + u.
    - Polynomial: the truncation errors are x^6/720 < 0.011 u and
      x^7/5040 < 0.001 u. The last step of c, 1 + t, lands in
      [1 - 5e-6, 1], where half an ulp is u/2; t itself, of size below
      5e-6, is off by less than 6u relative (the rounded 2 pi and three
      roundings). s, of size below 3.1e-3, is off by less than 2.4u
      relative. So |p - e(r/M)| <= 0.53 u and |p| <= 1 + 0.53 u.
    - Product: a part of T p is fl(fl(a) -+ fl(b)) for two products a, b,
      off by at most u (|a| + |b| + |a -+ b|) + O(u^2). Over both parts that
      is at most u |T| |p| (sqrt(1 + 2 |s| / |p|) + 1) + O(u^2) <= 2.004 u.
    So fl(T p) - e(theta) = (fl(T p) - T p) + (T - e(k/M)) p
    + e(k/M) (p - e(r/M)) is at most 2.004 u + (1 + 0.53 u) u + 0.53 u
    < 3.54 u = 1.77 MACHINE_EPS, below UNIT_PHASE_K = 2. Gradual underflow,
    for |r| below 1e-150, adds at most 2**-1074 per step. Measured against
    mpmath: at most 0.96 eps over random and edge phases, where
    exp(2j pi theta) errs by up to 3.2 eps, since fl(2 pi theta) is
    already off by that much.

    Outside [0, 1] the table index wraps mod M, so the bound holds for any
    |theta| < 2**40; the package passes only reduced phases.
    """
    theta = np.asarray(theta, dtype=np.float64)
    out = np.empty(theta.shape, dtype=np.complex128)
    flat_theta, flat_out = theta.reshape(-1), out.reshape(-1)
    n = flat_theta.size
    size = min(UNIT_PHASE_BLOCK, n)
    r, k, r2, c, s = (np.empty(size) for _ in range(5))
    index = np.empty(size, dtype=np.intp)
    for start in range(0, n, UNIT_PHASE_BLOCK):
        m = min(UNIT_PHASE_BLOCK, n - start)
        rb, kb, r2b, cb, sb, ib = r[:m], k[:m], r2[:m], c[:m], s[:m], index[:m]
        np.multiply(flat_theta[start:start + m], _TABLE_SIZE, out=rb)
        np.rint(rb, out=kb)
        rb -= kb
        ib[...] = kb
        np.multiply(rb, rb, out=r2b)
        np.multiply(r2b, _COS4, out=cb)
        cb += _COS2
        cb *= r2b
        cb += 1.0
        np.multiply(r2b, _SIN5, out=sb)
        sb += _SIN3
        sb *= r2b
        sb += _SIN1
        sb *= rb
        dest = flat_out[start:start + m]
        np.take(_UNIT_PHASE_TABLE, ib, out=dest, mode="wrap")
        # T p in real arithmetic, in place (kb, free again, holds Im T * s):
        # numpy's complex multiply rounds differently on different paths
        # (fused or not, by length and layout)
        re, im = dest.real, dest.imag
        np.multiply(im, sb, out=kb)
        sb *= re
        re *= cb
        re -= kb
        im *= cb
        im += sb
    return out


def frac_mul_int(n: np.ndarray, f: float) -> np.ndarray:
    """Fractional part of n*f for integer-valued float n <= 2**26, f in [0,1).

    f is split into a 26-bit head (whose product with n is exact in double
    precision) and a tail below 2**-26, so the error stays at a few ulp no
    matter how large n*f gets.
    """
    fhi = math.floor(f * _SPLIT) / _SPLIT
    flo = f - fhi
    out = frac_in_place(n * fhi)
    out += n * flo
    return frac_in_place(out)


def frac_poly_phase(n: np.ndarray, x1: float, x2: float) -> np.ndarray:
    """Fractional part of n*x1 + n^2*x2 without large-argument cancellation.

    Valid for integer n up to 2**26 (so n^2 fits exactly in an int64 and the
    26-bit splits below stay exact).
    """
    f1 = x1 % 1.0
    f2 = x2 % 1.0
    out = frac_mul_int(n.astype(np.float64), f1)
    n2 = n * n
    hi = (n2 >> 26).astype(np.float64)
    lo = (n2 & _MASK26).astype(np.float64)
    del n2
    g = (f2 * _SPLIT) % 1.0  # frac(2**26 * f2), exact
    out += frac_mul_int(hi, g)
    out += frac_mul_int(lo, f2)
    return frac_in_place(out)


def halton(dim: int, count: int) -> np.ndarray:
    """The first `count` Halton points in [0,1)^dim, from index 1: column d
    is the radical inverse in base _PRIMES[d], added digit by digit into one
    (count, dim) block beside three work arrays of `count` entries."""
    if not 1 <= dim <= len(_PRIMES):
        raise ValueError(f"halton supports 1 to {len(_PRIMES)} dimensions")
    points = np.zeros((count, dim))
    digit = np.empty(count, dtype=np.int64)
    scaled = np.empty(count)
    for column, base in zip(points.T, _PRIMES):
        i = np.arange(1, count + 1, dtype=np.int64)
        denom = 1.0
        while i.any():
            denom *= base
            np.divmod(i, base, out=(i, digit))
            column += np.divide(digit, denom, out=scaled)
        del i  # before the next column's index is built
    return points


def fit_loglog(ns, values) -> tuple[float, float]:
    """Least-squares slope of log(value) against log(N) with standard error."""
    xs = np.log(np.asarray(ns, dtype=np.float64))
    ys = np.log(np.asarray(values, dtype=np.float64))
    n = xs.size
    xbar = float(xs.mean())
    ybar = float(ys.mean())
    sxx = float(((xs - xbar) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("degenerate fit: all N equal")
    slope = float(((xs - xbar) * (ys - ybar)).sum()) / sxx
    intercept = ybar - slope * xbar
    resid = ys - (intercept + slope * xs)
    dof = max(n - 2, 1)
    stderr = math.sqrt(float((resid**2).sum()) / dof / sxx)
    return slope, stderr
