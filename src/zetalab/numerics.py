"""Shared numerical primitives: compensated summation, exact-enough phase
reduction, low-discrepancy sampling, and log-log slope fitting.

`neumaier_sum` is the package's one compensated sum of a float64 array: it
runs error-free TwoSum steps down SUM_WIDTH columns in numpy and hands the
column sums, their compensations and the tail to `math.fsum`, so no Python
float list of the terms is ever built. `frac_in_place` reduces a freshly
computed phase array mod 1 as x - floor(x), which gives the same bits as
x % 1.0 on every finite float at a fraction of its cost."""

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


def neumaier_sum(values) -> float:
    """Compensated sum of a 1-D float64 array, column-wise.

    The first rows * SUM_WIDTH values are read as a (rows, SUM_WIDTH) view
    (strided views such as `z.real` are not copied). Down each column,
    Neumaier's step s, c <- t, c + err runs, with the error of t = s + x
    taken by the branch-free TwoSum z = t - s, err = (s - (t - z)) + (x - z):
    exact for either order of |s| and |x|, like the branch on |s| >= |x|,
    and cheaper than evaluating both sides of that branch. The result is
    `math.fsum` of the column sums s, the compensations c and the tail.
    Arrays shorter than 2 * SUM_WIDTH go to `math.fsum` directly.

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
    rows = v.size // SUM_WIDTH
    if rows < 2:
        return math.fsum(v.tolist())
    body = v[: rows * SUM_WIDTH].reshape(rows, SUM_WIDTH)
    s = body[0].copy()
    c = np.zeros(SUM_WIDTH)
    t = np.empty(SUM_WIDTH)
    z = np.empty(SUM_WIDTH)
    err = np.empty(SUM_WIDTH)
    for x in body[1:]:
        np.add(s, x, out=t)
        np.subtract(t, s, out=z)
        np.subtract(t, z, out=err)
        np.subtract(s, err, out=err)
        np.subtract(x, z, out=z)
        err += z
        c += err
        s, t = t, s
    return math.fsum(np.concatenate((s, c, v[rows * SUM_WIDTH :])).tolist())


def frac_in_place(x: np.ndarray) -> np.ndarray:
    """Reduce x mod 1 in place as x - floor(x) and return it.

    Same bits as x % 1.0 on every finite float, in [0, 1]. Only for arrays
    the caller has just computed and owns: the input is overwritten.
    """
    x -= np.floor(x)
    return x


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
