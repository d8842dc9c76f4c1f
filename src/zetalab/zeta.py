"""Critical-line zeta evaluation and growth scans.

The approximate-functional-equation main sum S(t) = sum_{n <= sqrt(t/2pi)}
n^{-1/2+it} witnesses the one-sided bound |zeta(1/2+it)| <= 2|S(t)| + O(1);
the O(1) is unquantified, so every check here is one-sided consistency with
a configurable slack, never equality.

The oracle, `zeta_oracle`, has two routes. Below RS_MIN_T it is
Euler-Maclaurin (`zeta_em_oracle`) with BERNOULLI_TERMS corrections, an
explicit truncation bound and about t/2 head terms. From RS_MIN_T up it is
Riemann-Siegel (`zeta_rs_oracle`): the same main sum S(t), rotated by
`siegel_theta`, plus Gabcke's corrections C_0..C_4 and his bound on the
remainder after them (Gabcke 1979), so about sqrt(t/2pi) terms; at
RS_MIN_T its error bound is already eight times below Euler-Maclaurin's.
`zeta_oracle` alone picks the route, for every leaf. The guards stay those
of Euler-Maclaurin: `zeta.oracle.terms` and `zeta.scan.terms` charge its
terms on either route, so from RS_MIN_T up they act as bounds on t, and
SCAN_MAX_T holds, because the float64 phases t log n of the main sum lose
their accuracy past t = 1e6.

Growth scans tabulate |zeta(1/2+it)| / t^{13/84} as a consistency
artifact (the asymptotic bound itself is not falsifiable at finite t).
The main sum and the Euler-Maclaurin head are both `expsum.dirichlet_sum`.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .errors import GuardError
from .expsum import ComplexValue, dirichlet_sum
from .numerics import MACHINE_EPS, PI_DECIMAL

CRITICAL_GROWTH_EXPONENT = 13.0 / 84.0

SCAN_MIN_T = 10.0
SCAN_MAX_T = 1.0e6

# Euler-Maclaurin's t/2 + 40 terms are charged on either route, and no leaf
# runs Euler-Maclaurin from RS_MIN_T up, so this is a bound on t at about
# 33,554,352 for `zeta value` and `zeta afe`. There Riemann-Siegel sums 2,310
# terms: `zeta value --t 33554352` took 3 ms and `zeta afe --t-min 3e7
# --t-max 33554352 --points 15` 7-11 ms in the leaf, each process 31 MB
# (fresh processes, 2-core host). `zeta_em_oracle(33554352)` sums 2^24
# terms of about 8 bytes each, the weights of `expsum.dirichlet_sum`: 0.5 s
# and 157 MB.
ORACLE_MAX_TERMS = 1 << 24
# A scan point is charged its Euler-Maclaurin terms, about 37 ns each at
# t = 1e6, plus about 50 us of Python at any t, the time of
# SCAN_POINT_TERMS terms: 100 points on [9e5, 1e6] took 2.1-3.0 s and
# 41 MB, and 100000 points on [10, 11] 6.1-6.3 s and 78 MB (`zeta scan`,
# fresh processes, 2-core host, before Riemann-Siegel took the points from
# RS_MIN_T up; the 100 points on [9e5, 1e6] now take 0.04 s and 36 MB).
# The guard keeps a scan within about 10 s, at any t.
SCAN_POINT_TERMS = 1500
SCAN_MAX_TERMS = 1 << 28

BERNOULLI_TERMS = 8
DEFAULT_SLACK = 2.0

# Riemann-Siegel from here up, Euler-Maclaurin below: the error bounds
# cross in between t = 500 (EM err 2.3e-10, Gabcke's remainder bound alone
# 6.4e-10) and t = 1000 (EM err 1.0e-9, RS err 1.3e-10).
RS_MIN_T = 1000.0
# Gabcke (1979): after C_0..C_4 the remainder of Z(t) is at most
# RS_REMAINDER * t^(-11/4) for t >= 200 (cited; against mpmath it is
# nearly attained, so it is used as stated).
RS_REMAINDER = 0.017
# Psi's Taylor coefficients in x = p - 1/2 are built in `decimal` at
# _PSI_DIGITS digits, from `numerics.PI_DECIMAL` rounded to them, up to
# degree _PSI_DEGREE: in float64 the series division loses them all (its
# degree-30 coefficient came out 2e5 times too large). The terms of
# degree 73 to 100 add less than 1e-27 to any C_k on |x| <= 1/2.
_PSI_DIGITS = 110
_PSI_DEGREE = 72
# C_k = sum of coefficient * Psi^(d) / pi^(2j), as (d, numerator,
# denominator, j) for k = 0..4.
_RS_CORRECTIONS = (
    ((0, 1, 1, 0),),
    ((3, -1, 96, 1),),
    ((2, 1, 64, 1), (6, 1, 18432, 2)),
    ((1, -1, 64, 1), (5, -1, 3840, 2), (9, -1, 5308416, 3)),
    ((0, 1, 128, 1), (4, 19, 24576, 2), (8, 11, 5898240, 3), (12, 1, 2038431744, 4)),
)
# Twice the first omitted term of `siegel_theta`, 127 / (430080 t^7).
_THETA_TRUNCATION = 2.0 * 127.0 / 430080.0

# B_{2k} for k = 1..BERNOULLI_TERMS + 1 (the last bounds the truncation)
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
)


def zeta_euler_maclaurin(s: complex, terms: int) -> ComplexValue:
    """zeta(s) by Euler-Maclaurin with `terms` head terms and BERNOULLI_TERMS
    Bernoulli corrections.

    Valid for Re(s) > 0, s != 1. Requires terms >= 10 + |Im s|/2 so the
    correction series decreases; err adds the classical truncation bound
    (|s+2K+1|/(sigma+2K+1) times the first omitted term) to the rounding
    bound of the head sum_{n<M} n^{-s}, which is `expsum.dirichlet_sum`,
    and the same rounding model for the tail terms at M.
    """
    s = complex(s)
    if s == 1:
        raise ValueError("zeta has a pole at s = 1")
    sigma, t = s.real, abs(s.imag)
    if sigma <= 0:
        raise ValueError("Euler-Maclaurin route requires Re(s) > 0")
    if terms < 10 + t / 2:
        raise ValueError(f"terms={terms} insufficient; need at least 10 + |t|/2 = {10 + t / 2:.1f}")
    K = BERNOULLI_TERMS
    M = int(terms)
    head = dirichlet_sum(s, M - 1)
    log_m = math.log(M)
    integral = cmath.exp((1 - s) * log_m) / (s - 1)  # M^{1-s}/(s-1)
    total = head.value + integral
    m_pow = cmath.exp(-s * log_m)  # M^{-s}
    total += 0.5 * m_pow

    # corrections: B_{2k}/(2k)! * s(s+1)...(s+2k-2) * M^{-s-2k+1}
    rising = s
    scale = m_pow / M  # M^{-s-1}
    fact = 2.0
    for k in range(1, K + 1):
        total += (_BERNOULLI[k - 1] / fact) * rising * scale
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        scale /= M * M
        fact *= (2 * k + 1) * (2 * k + 2)
    # after the loop: rising = s...(s+2K), scale = M^{-s-2K-1}, fact = (2K+2)!,
    # which is exactly the first omitted correction term.
    next_term = abs((_BERNOULLI[K] / fact) * rising * scale)
    trunc = next_term * abs(s + 2 * K + 1) / (sigma + 2 * K + 1)

    tail_abs = abs(integral) + abs(m_pow)
    rounding = head.err + MACHINE_EPS * tail_abs * (4.0 + 4.0 * t * math.log(M + 1.0))
    return ComplexValue(total.real, total.imag, trunc + rounding)


def default_oracle_terms(t: float) -> int:
    return int(abs(t) / 2) + 40


def oracle_terms(t: float) -> int:
    """Euler-Maclaurin's terms at t, about t/2 + 40, refused above
    ORACLE_MAX_TERMS; `zeta value` and `zeta afe` check it on either route,
    so from RS_MIN_T up it bounds t."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    terms = default_oracle_terms(t)
    GuardError.check("zeta.oracle.terms", terms, ORACLE_MAX_TERMS, f"{terms} Euler-Maclaurin terms at t={t:g}")
    return terms


def scan_terms(t_max: float, points: int) -> int:
    """The terms a scan of `points` points up to t_max is charged, each point
    at its Euler-Maclaurin terms at t_max (`oracle_terms`, so this checks
    that guard first) plus SCAN_POINT_TERMS, on either route; refused above
    SCAN_MAX_TERMS."""
    terms = points * (oracle_terms(t_max) + SCAN_POINT_TERMS)
    GuardError.check("zeta.scan.terms", terms, SCAN_MAX_TERMS, f"{terms} terms for {points} points up to t={t_max:g}")
    return terms


def zeta_em_oracle(t: float) -> ComplexValue:
    """zeta(1/2 + i t) via Euler-Maclaurin with `oracle_terms(t)` terms."""
    return zeta_euler_maclaurin(complex(0.5, t), oracle_terms(t))


def afe_cutoff(t: float) -> int:
    """The length floor(sqrt(t/2pi)) of the main sum, which is empty below 2*pi."""
    if not math.isfinite(t) or t < 2 * math.pi:
        raise ValueError("t must be at least 2*pi (the main sum is empty below)")
    return int(math.sqrt(t / (2 * math.pi)) + 1e-12)


def afe_main_sum(t: float) -> ComplexValue:
    """Main sum S(t) = sum_{n <= sqrt(t/2pi)} n^{-1/2 + it}.

    Bound witness only: |zeta(1/2+it)| <= 2|S(t)| + C with C an unquantified
    constant (slack handled by the consistency checks). err covers
    rounding of this sum, nothing else.
    """
    return dirichlet_sum(complex(0.5, -t), afe_cutoff(t))


def check_slack(slack: float) -> None:
    """Refuse a slack that is not finite: a NaN would pass every check."""
    if not math.isfinite(slack):
        raise ValueError(f"slack must be finite, got {slack}")


def afe_upper_bound(t: float, slack: float = DEFAULT_SLACK, main: ComplexValue | None = None) -> float:
    """2|S(t)| + slack, for a finite slack (`check_slack`). `main` is
    `afe_main_sum(t)` where the caller has it already."""
    check_slack(slack)
    if main is None:
        main = afe_main_sum(t)
    return 2.0 * abs(main) + slack


def afe_consistency_scan(
    t_min: float = 10.0,
    t_max: float = 1.0e4,
    points: int = 200,
    slack: float = DEFAULT_SLACK,
):
    """Check 2|S(t)| + slack >= |zeta(t)| - err on a log-spaced grid.

    Returns (rows, violations); rows are (t, bound, oracle_floor). Violations
    are reported, never silently swallowed. Each point sums S(t) once, for
    the bound and, from RS_MIN_T up, for the oracle.
    """
    if points < 2:
        raise ValueError("points must be >= 2")
    if not t_min < t_max:
        raise ValueError(f"need t_min < t_max, got [{t_min}, {t_max}]")
    scan_terms(t_max, points)
    check_slack(slack)
    ts = np.exp(np.linspace(math.log(t_min), math.log(t_max), points))
    rows = []
    for t in ts.tolist():
        main = afe_main_sum(t)
        bound = afe_upper_bound(t, slack, main)
        oracle = zeta_oracle(t, main)
        rows.append((t, bound, abs(oracle) - oracle.err))
    return rows, [row for row in rows if row[1] < row[2]]


def siegel_theta(t: float) -> float:
    """The rotation angle theta(t) making e^{i theta} zeta(1/2+it) real,
    by the standard asymptotic series (ample accuracy for t >= 10; its
    error is bounded by `_theta_err`)."""
    if t <= 0:
        raise ValueError("siegel_theta requires t > 0")
    return (
        0.5 * t * math.log(t / (2.0 * math.pi))
        - 0.5 * t
        - math.pi / 8.0
        + 1.0 / (48.0 * t)
        + 7.0 / (5760.0 * t**3)
        + 31.0 / (80640.0 * t**5)
    )


def _theta_err(t: float) -> float:
    """A bound on the error of `siegel_theta(t)`, t >= 10: the float64
    rounding of its leading terms, and twice its first omitted term."""
    return 2.0 * MACHINE_EPS * t * (abs(math.log(t / (2.0 * math.pi))) + 2.0) + _THETA_TRUNCATION * t**-7


@functools.cache
def _psi_taylor() -> tuple[Decimal, ...]:
    """The Taylor coefficients a_0.._PSI_DEGREE, in x = p - 1/2, of
    Psi(p) = cos(2pi(p^2 - p - 1/16)) / cos(2pi p) = -cos(2pi x^2 - 5pi/8) /
    cos(2pi x), by series division at _PSI_DIGITS digits. Psi is even and
    entire in x, so every odd a_n is 0. Built on the first call."""
    with localcontext() as ctx:
        ctx.prec = _PSI_DIGITS
        two = Decimal(2)
        cos_5pi_8 = -(two - two.sqrt()).sqrt() / 2
        sin_5pi_8 = (two + two.sqrt()).sqrt() / 2
        omega = 2 * +Decimal(PI_DECIMAL)
        scaled = [Decimal(1)]  # omega^j / j!
        for j in range(1, _PSI_DEGREE + 1):
            scaled.append(scaled[-1] * omega / j)
        # cos(omega x) and -cos(omega y - 5pi/8) at y = x^2, by powers of x
        den = [Decimal(0)] * (_PSI_DEGREE + 1)
        num = [Decimal(0)] * (_PSI_DEGREE + 1)
        for j in range(0, _PSI_DEGREE + 1, 2):
            den[j] = (-1) ** (j // 2) * scaled[j]
        for j in range(_PSI_DEGREE // 2 + 1):
            num[2 * j] = -((-1) ** (j // 2)) * scaled[j] * (sin_5pi_8 if j % 2 else cos_5pi_8)
        psi = []
        for n in range(_PSI_DEGREE + 1):  # den[0] = 1
            psi.append(num[n] - sum(den[k] * psi[n - k] for k in range(2, n + 1, 2)))
    return tuple(psi)


@functools.cache
def _rs_polynomials() -> tuple:
    """For k = 0..4, (poly, slope): C_k(p) as a polynomial in y = x^2,
    x = p - 1/2, its float coefficients from the highest degree down (for odd
    k, C_k = x * poly(y)), and a bound on |C_k'| over |x| <= 1/2."""
    psi = _psi_taylor()
    with localcontext() as ctx:
        ctx.prec = _PSI_DIGITS
        pi_squared = (+Decimal(PI_DECIMAL)) ** 2
        half = Decimal(1) / 2
        polys = []
        for k, parts in enumerate(_RS_CORRECTIONS):
            coeffs = [Decimal(0)] * (_PSI_DEGREE + 1)  # of x^i
            for d, numerator, denominator, j in parts:
                scale = Decimal(numerator) / (denominator * pi_squared**j)
                for i in range(_PSI_DEGREE + 1 - d):
                    coeffs[i] += scale * psi[i + d] * math.perm(i + d, d)
            slope = sum(abs(c) * i * half ** (i - 1) for i, c in enumerate(coeffs) if i)
            polys.append((tuple(float(c) for c in coeffs[k % 2::2][::-1]), float(slope)))
    return tuple(polys)


def riemann_siegel_z(t: float, main: ComplexValue | None = None) -> tuple[float, float]:
    """(Z(t), err) by the Riemann-Siegel formula, for t >= RS_MIN_T.

    With tau = t/2pi, m = afe_cutoff(t) and p = sqrt(tau) - m,
    Z = 2 Re(e^{-i theta} S) + (-1)^(m-1) tau^(-1/4) sum_{k<=4} C_k(p) tau^(-k/2),
    S = `afe_main_sum(t)`, or `main` where the caller has it. err adds
    Gabcke's bound RS_REMAINDER * t^(-11/4) on the remainder, twice the err
    of S, the error delta of theta times 2(|S| + err of S), since
    |e^(-i delta) - 1| <= |delta|, the rounding of the C_k
    (Horner, and the rounding of p, which `afe_cutoff` also lets reach
    -1e-12) and of the sum of the parts.
    """
    if not t >= RS_MIN_T:
        raise ValueError(f"the Riemann-Siegel route needs t >= {RS_MIN_T:g}, got {t}")
    if main is None:
        main = afe_main_sum(t)
    m = afe_cutoff(t)
    root = math.sqrt(t / (2.0 * math.pi))
    x = root - m - 0.5
    y = x * x
    inv_root = 1.0 / root
    power, corr, corr_abs, slope = 1.0, 0.0, 0.0, 0.0
    for k, (poly, poly_slope) in enumerate(_rs_polynomials()):
        value = bound = 0.0
        for c in poly:
            value = value * y + c
            bound = bound * y + abs(c)
        if k % 2:
            value *= x
            bound *= abs(x)
        corr += power * value
        corr_abs += power * bound * (len(poly) + 2)
        slope += power * poly_slope
        power *= inv_root
    quarter = math.sqrt(inv_root)
    sign = 1.0 if m % 2 else -1.0
    z = 2.0 * (cmath.exp(-1j * siegel_theta(t)) * main.value).real + sign * quarter * corr
    weight = 2.0 * math.sqrt(m)  # at least sum_{n <= m} n^(-1/2)
    dp = 4.0 * MACHINE_EPS * root + max(0.0, -(x + 0.5))
    err = (
        RS_REMAINDER * t**-2.75
        + 2.0 * main.err
        + 2.0 * (abs(main) + main.err) * _theta_err(t)
        + quarter * (4.0 * MACHINE_EPS * corr_abs + slope * dp)
        + 8.0 * MACHINE_EPS * weight
    )
    return z, err


def zeta_rs_oracle(t: float, main: ComplexValue | None = None) -> ComplexValue:
    """zeta(1/2 + i t) = e^{-i theta(t)} Z(t) by `riemann_siegel_z`, t >= RS_MIN_T;
    err adds |Z| times the errors of theta and of the rotation."""
    z, err = riemann_siegel_z(t, main)
    value = cmath.exp(-1j * siegel_theta(t)) * z
    return ComplexValue(value.real, value.imag, err + abs(z) * (_theta_err(t) + 2.0 * MACHINE_EPS))


def zeta_oracle(t: float, main: ComplexValue | None = None) -> ComplexValue:
    """zeta(1/2 + i t): `zeta_rs_oracle` from RS_MIN_T up, sharing `main` =
    `afe_main_sum(t)` where the caller has it, and `zeta_em_oracle` below."""
    if t >= RS_MIN_T:
        return zeta_rs_oracle(t, main)
    return zeta_em_oracle(t)


def z_function(t: float) -> float:
    """Z(t), real: `riemann_siegel_z` from RS_MIN_T up, and below it
    Re(e^{i theta(t)} zeta(1/2 + i t)) of Euler-Maclaurin."""
    if t >= RS_MIN_T:
        return riemann_siegel_z(t)[0]
    zv = zeta_em_oracle(t)
    return (cmath.exp(1j * siegel_theta(t)) * zv.value).real


def zero_bracket(lo: float, hi: float) -> bool:
    """True when Z changes sign on [lo, hi] (a zero of zeta is bracketed)."""
    return z_function(lo) * z_function(hi) < 0


def growth_row(t: float, em: ComplexValue) -> tuple:
    """The row (t, |zeta|, |zeta|/t^{13/84}, abs_err) of em = zeta(1/2 + i t)."""
    return (t, abs(em), abs(em) / t**CRITICAL_GROWTH_EXPONENT, em.err)


@dataclass(frozen=True)
class GrowthScan:
    """Rows (t, |zeta|, |zeta|/t^{13/84}, abs_err) on a jittered log grid."""

    rows: tuple
    running_max: float

    def __post_init__(self):
        ts = [r[0] for r in self.rows]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("scan grid must be strictly increasing")


def growth_scan(t_min: float, t_max: float, points: int, seed: int = 0) -> GrowthScan:
    """Tabulate |zeta(1/2+it)| / t^{13/84} with the running maximum.

    The grid is log-spaced with seeded jitter inside each cell (hence still
    strictly increasing, and bit-reproducible for a fixed seed).
    """
    if not (math.isfinite(t_min) and math.isfinite(t_max)):
        raise ValueError(f"t_min and t_max must be finite, got [{t_min}, {t_max}]")
    if not t_min < t_max:
        raise ValueError(f"need t_min < t_max, got [{t_min}, {t_max}]")
    if not (SCAN_MIN_T <= t_min < t_max <= SCAN_MAX_T):
        raise GuardError(
            "zeta.scan.range",
            f"need {SCAN_MIN_T} <= t_min < t_max <= {SCAN_MAX_T:g}, got [{t_min}, {t_max}]",
        )
    if points < 2:
        raise ValueError("points must be >= 2")
    scan_terms(t_max, points)
    rng = np.random.default_rng(seed)
    edges = np.linspace(math.log(t_min), math.log(t_max), points + 1)
    ts = np.exp(edges[:-1] + rng.random(points) * np.diff(edges))
    rows = [growth_row(t, zeta_oracle(t)) for t in ts.tolist()]
    return GrowthScan(tuple(rows), max(row[2] for row in rows))
