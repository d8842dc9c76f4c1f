"""Critical-line zeta evaluation and growth scans.

The approximate-functional-equation main sum S(t) = sum_{n <= sqrt(t/2pi)}
n^{-1/2+it} witnesses the one-sided bound |zeta(1/2+it)| <= 2|S(t)| + O(1);
the O(1) is unquantified, so every check here is one-sided consistency with
a configurable slack, never equality. The independent oracle is
Euler-Maclaurin with BERNOULLI_TERMS corrections and an explicit truncation
bound; growth scans tabulate |zeta(1/2+it)| / t^{13/84} as a consistency
artifact (the asymptotic bound itself is not falsifiable at finite t).
The main sum and the Euler-Maclaurin head are both `expsum.dirichlet_sum`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError
from .expsum import ComplexValue, dirichlet_sum
from .numerics import MACHINE_EPS

CRITICAL_GROWTH_EXPONENT = 13.0 / 84.0

SCAN_MIN_T = 10.0
SCAN_MAX_T = 1.0e6

# About 8 bytes per head term, the weights of `expsum.dirichlet_sum`; its
# phases and terms run in blocks. `zeta value` at the guard, t = 33554352,
# took 1.1 s and 159 MB in a fresh process (2-core host).
ORACLE_MAX_TERMS = 1 << 24
# A scan point costs its oracle terms, about 37 ns each at t = 1e6, plus
# about 50 us of Python at any t, the time of SCAN_POINT_TERMS terms: 100
# points on [9e5, 1e6] took 2.1-3.0 s and 41 MB, and 100000 points on
# [10, 11] 6.1-6.3 s and 78 MB (`zeta scan`, fresh processes, 2-core host).
# The guard keeps a scan within about 10 s, at any t.
SCAN_POINT_TERMS = 1500
SCAN_MAX_TERMS = 1 << 28

BERNOULLI_TERMS = 8
DEFAULT_SLACK = 2.0

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


def oracle_terms(t: float, terms: int | None = None) -> int:
    """`terms`, by default ~ t/2 + 40, refused above ORACLE_MAX_TERMS."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if terms is None:
        terms = default_oracle_terms(t)
    GuardError.check("zeta.oracle.terms", terms, ORACLE_MAX_TERMS, f"{terms} Euler-Maclaurin terms at t={t:g}")
    return terms


def scan_terms(t_max: float, points: int) -> int:
    """The terms a scan of `points` points up to t_max is charged, each point
    at its oracle terms at t_max plus SCAN_POINT_TERMS; refused above
    SCAN_MAX_TERMS."""
    terms = points * (oracle_terms(t_max) + SCAN_POINT_TERMS)
    GuardError.check("zeta.scan.terms", terms, SCAN_MAX_TERMS, f"{terms} terms for {points} points up to t={t_max:g}")
    return terms


def zeta_em_oracle(t: float, terms: int | None = None) -> ComplexValue:
    """zeta(1/2 + i t) via Euler-Maclaurin with `oracle_terms(t, terms)` terms."""
    return zeta_euler_maclaurin(complex(0.5, t), oracle_terms(t, terms))


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


def afe_upper_bound(t: float, slack: float = DEFAULT_SLACK) -> float:
    """2|S(t)| + slack, for a finite slack: a NaN would pass every check."""
    if not math.isfinite(slack):
        raise ValueError(f"slack must be finite, got {slack}")
    return 2.0 * abs(afe_main_sum(t)) + slack


def afe_consistency_scan(
    t_min: float = 10.0,
    t_max: float = 1.0e4,
    points: int = 200,
    slack: float = DEFAULT_SLACK,
):
    """Check 2|S(t)| + slack >= |zeta(t)| - err on a log-spaced grid.

    Returns (rows, violations); rows are (t, bound, oracle_floor). Violations
    are reported, never silently swallowed.
    """
    if points < 2:
        raise ValueError("points must be >= 2")
    if not t_min < t_max:
        raise ValueError(f"need t_min < t_max, got [{t_min}, {t_max}]")
    scan_terms(t_max, points)
    ts = np.exp(np.linspace(math.log(t_min), math.log(t_max), points))
    rows = []
    for t in ts.tolist():
        bound = afe_upper_bound(t, slack)
        em = zeta_em_oracle(t)
        rows.append((t, bound, abs(em) - em.err))
    return rows, [row for row in rows if row[1] < row[2]]


def siegel_theta(t: float) -> float:
    """The rotation angle theta(t) making e^{i theta} zeta(1/2+it) real,
    by the standard asymptotic series (ample accuracy for t >= 10)."""
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


def z_function(t: float) -> float:
    """Z(t) = Re(e^{i theta(t)} zeta(1/2 + i t)), real up to evaluation error."""
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
    rows = [growth_row(t, zeta_em_oracle(t)) for t in ts.tolist()]
    return GrowthScan(tuple(rows), max(row[2] for row in rows))
