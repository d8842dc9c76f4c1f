"""Shared numerical primitives: compensated summation, exact-enough phase
reduction, low-discrepancy sampling, and log-log slope fitting."""

from __future__ import annotations

import math

import numpy as np

MACHINE_EPS = float(np.finfo(np.float64).eps)

_SPLIT = float(1 << 26)
_MASK26 = (1 << 26) - 1

_PRIMES = (2, 3, 5, 7, 11, 13)


def neumaier_sum(values) -> float:
    """Compensated (Neumaier) sum of an iterable of floats.

    The result differs from the exact sum by at most
    2 * MACHINE_EPS * sum(|values|), independent of length.
    """
    s = 0.0
    c = 0.0
    for v in values:
        t = s + v
        if abs(s) >= abs(v):
            c += (s - t) + v
        else:
            c += (v - t) + s
        s = t
    return s + c


def frac_mul_int(n: np.ndarray, f: float) -> np.ndarray:
    """Fractional part of n*f for integer-valued float n <= 2**26, f in [0,1).

    f is split into a 26-bit head (whose product with n is exact in double
    precision) and a tail below 2**-26, so the error stays at a few ulp no
    matter how large n*f gets.
    """
    fhi = math.floor(f * _SPLIT) / _SPLIT
    flo = f - fhi
    return ((n * fhi) % 1.0 + n * flo) % 1.0


def frac_poly_phase(n: np.ndarray, x1: float, x2: float) -> np.ndarray:
    """Fractional part of n*x1 + n^2*x2 without large-argument cancellation.

    Valid for integer n up to 2**26 (so n^2 fits exactly in an int64 and the
    26-bit splits below stay exact).
    """
    f1 = x1 % 1.0
    f2 = x2 % 1.0
    nf = n.astype(np.float64)
    out = frac_mul_int(nf, f1)
    n2 = n * n
    hi = (n2 >> 26).astype(np.float64)
    lo = (n2 & _MASK26).astype(np.float64)
    g = (f2 * _SPLIT) % 1.0  # frac(2**26 * f2), exact
    out = out + frac_mul_int(hi, g) + frac_mul_int(lo, f2)
    return out % 1.0


def radical_inverse(base: int, index: np.ndarray) -> np.ndarray:
    """Van der Corput radical inverse of positive integer indices."""
    x = np.zeros(index.shape, dtype=np.float64)
    denom = 1.0
    i = index.astype(np.int64).copy()
    while np.any(i > 0):
        denom *= base
        i, digit = np.divmod(i, base)
        x += digit / denom
    return x


def halton(dim: int, count: int) -> np.ndarray:
    """The first `count` Halton points in [0,1)^dim, from index 1."""
    if dim > len(_PRIMES):
        raise ValueError(f"halton supports at most {len(_PRIMES)} dimensions")
    idx = np.arange(1, count + 1)
    return np.column_stack([radical_inverse(_PRIMES[d], idx) for d in range(dim)])


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
