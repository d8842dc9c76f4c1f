"""Exact piecewise-affine exponent bounds in alpha = log M / log T, block
parameter planning for dyadic smooth-phase sums, and the exact coverage check
that the bound envelope meets the critical-line target alpha/2 + 13/84 on all
of [0, 1/2].

Exponents are exact rationals throughout; on the grid of reduced fractions
they are int64 numerators over a common denominator. Epsilon losses and
absolute constants are suppressed (only exponents are falsifiable content
here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import GuardError
from .pairs import PAIR_13_84, ExponentPair, apply_word

HALF = Fraction(1, 2)
CRITICAL_EXPONENT = Fraction(13, 84)

# Largest grid of candidate points p/q (reduced or not) that
# `_rational_blocks` enumerates. At the edge (2-core host, fresh processes),
# `planner envelope` at Q = 1446 took 1.3-1.6 s and 42 MB with CSV output and
# 2.7-3.1 s and 43 MB with JSON, and `planner coverage` at Q = 2045 took
# 0.32-0.35 s and 36 MB.
GRID_MAX_POINTS = 1 << 20
# Candidate points of one block of `_rational_blocks`, so of one table and
# of the rows of `envelope_grid` made at once: each int64 temporary holds at
# most 512 KB, so coverage needs about 5 MB at any bound, and the envelope's
# rows of one block about 10 MB.
_TABLE_SLICE = 1 << 16

# Regimes for make_plan. The first three choose a block length N (and carry
# the R <= N <= R^2 validity checks); the last three are direct bounds.
REGIME_MAIN = "main"            # N = M * T^(-2/7)
REGIME_REFINED = "refined"      # N = max(M T^(-17/57), sqrt(M) T^(-1/12))
REGIME_COMPACT = "compact"      # N = sqrt(2 M^3 / (c T)), so N ~ R^2
REGIME_RESONANCE = "resonance"  # exponent (4 + 103 a)/128
REGIME_PAIR = "pair"            # classical (1/9, 13/18) exponent-pair bound
REGIME_TRIVIAL = "trivial"

_BLOCK_REGIMES = (REGIME_MAIN, REGIME_REFINED, REGIME_COMPACT)

# Piece tags (provenance of each affine bound).
TAG_SIEVE_HIGH = "sieve-high"
TAG_SIEVE_MID = "sieve-mid"
TAG_SIEVE_LOW = "sieve-low"
TAG_MAIN = "main"
TAG_RESONANCE = "resonance"
TAG_PAIR = "pair"
TAG_TRIVIAL = "trivial"


@dataclass(frozen=True)
class Piece:
    """Affine exponent bound p(a) = u + v*a on an alpha interval.

    `value` may be evaluated anywhere; `applies` enforces the interval with
    its printed open/closed endpoints.
    """

    tag: str
    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool
    u: Fraction
    v: Fraction

    def applies(self, alpha: Fraction) -> bool:
        if alpha < self.lo or alpha > self.hi:
            return False
        if alpha == self.lo and not self.lo_closed:
            return False
        if alpha == self.hi and not self.hi_closed:
            return False
        return True

    def value(self, alpha: Fraction) -> Fraction:
        return self.u + self.v * alpha


@dataclass(frozen=True)
class PiecewiseBound:
    pieces: tuple[Piece, ...]

    def __iter__(self):
        return iter(self.pieces)

    def by_tag(self, tag: str) -> Piece:
        for piece in self.pieces:
            if piece.tag == tag:
                return piece
        raise KeyError(tag)


def pair_piece(
    tag: str, pair: ExponentPair, lo: Fraction, hi: Fraction, lo_closed: bool, hi_closed: bool
) -> Piece:
    """The bound |S| << T^k M^(l - k) of an exponent pair (k, l) as the piece
    p = k + (l - k) a on the given alpha interval."""
    return Piece(tag, lo, hi, lo_closed, hi_closed, pair.k, pair.l - pair.k)


def exponent_bound_pieces() -> PiecewiseBound:
    """The seven affine bounds on the exponent p with |S| << T^(p + eps).

    Three cases of the sixth-power sieve bound, the synthesized main bound
    alpha/2 + 13/84 on [17/42, 1/2] from the pair (13/84, 55/84), the
    resonance-method bound, the classical exponent-pair bound from
    ABA^2B(0,1) = (1/9, 13/18), and the trivial bound p = alpha.
    """
    F = Fraction
    pieces = (
        # |S|^6 << M^3 T^(53/57): p = a/2 + 53/342 on (49/114, 1/2]
        Piece(TAG_SIEVE_HIGH, F(49, 114), HALF, False, True, F(53, 342), HALF),
        # |S|^6 << M^4 T^(1/2): p = 2a/3 + 1/12 on [5/12, 49/114]
        Piece(TAG_SIEVE_MID, F(5, 12), F(49, 114), True, True, F(1, 12), F(2, 3)),
        # |S|^6 << M^2 T^(4/3): p = a/3 + 2/9 on [1/3, 5/12)
        Piece(TAG_SIEVE_LOW, F(1, 3), F(5, 12), True, False, F(2, 9), F(1, 3)),
        # |S| << M^(1/2) T^(13/84): p = a/2 + 13/84 on [17/42, 1/2]
        pair_piece(TAG_MAIN, PAIR_13_84, F(17, 42), HALF, True, True),
        # |S| << T^((4 + 103 a)/128) on (12/31, 1]
        Piece(TAG_RESONANCE, F(12, 31), F(1), False, True, F(1, 32), F(103, 128)),
        # |S| << M^(11/18) T^(1/9) on [0, 1]
        pair_piece(TAG_PAIR, apply_word("ABAAB"), F(0), F(1), True, True),
        # |S| <= M
        Piece(TAG_TRIVIAL, F(0), F(1), True, True, F(0), F(1)),
    )
    return PiecewiseBound(pieces)


_PIECES = exponent_bound_pieces()


def envelope(alpha) -> tuple[Fraction, str]:
    """Pointwise minimum of all applicable pieces at a rational alpha in [0,1].

    Returns (exponent, witness tag); ties break by piece order.
    """
    a = Fraction(alpha)
    if not 0 <= a <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {a}")
    best = None
    witness = None
    for piece in _PIECES:
        if not piece.applies(a):
            continue
        v = piece.value(a)
        if best is None or v < best:
            best, witness = v, piece.tag
    assert best is not None and witness is not None
    return best, witness


def critical_line_target(alpha) -> Fraction:
    """The target exponent alpha/2 + 13/84."""
    return Fraction(alpha) / 2 + CRITICAL_EXPONENT


def solve_piece_meets_target(tag: str) -> Fraction:
    """Exact alpha where the tagged piece equals the critical-line target."""
    piece = _PIECES.by_tag(tag)
    num = piece.u - CRITICAL_EXPONENT
    den = HALF - piece.v
    if den == 0:
        raise ValueError(f"piece {tag!r} is parallel to the target")
    return num / den


@dataclass(frozen=True)
class CoverageReport:
    """Result of the exact critical-line coverage verification: `failures`
    are Fractions in ascending alpha, the grid's and then the crossovers'."""

    crossovers: dict
    points_checked: int
    failures: tuple
    coverage: bool


def _rational_blocks(max_denominator: int, upto=1):
    """The reduced fractions p/q in [0, upto] with q <= Q = max_denominator,
    as int64 arrays (p, q) by q and then p, in blocks over the alpha
    intervals [k w, (k + 1) w), the last closed at upto, each wholly below the
    next and of at most _TABLE_SLICE candidates p/q (reduced or not) while Q
    is below that. Refuses Q < 1, and a grid of more than GRID_MAX_POINTS
    candidates, when called; each block is built when it is reached."""
    if max_denominator < 1:
        raise ValueError(f"the denominator bound must be >= 1, got {max_denominator}")
    upto = Fraction(upto)
    # sum over q of (upto * q + 1), an upper bound on the candidates p/q,
    # taken before anything is allocated
    candidates = upto * max_denominator * (max_denominator + 1) / 2 + max_denominator
    GuardError.check("planner.grid.points", candidates, GRID_MAX_POINTS,
                     f"{math.floor(candidates)} grid points up to denominator {max_denominator}")
    # an interval of width w holds at most w q + 1 candidates of denominator q: w Q (Q + 1) / 2 + Q in all
    count = math.ceil((candidates - max_denominator) / max(_TABLE_SLICE - max_denominator, 1))
    q = np.arange(1, max_denominator + 1, dtype=np.int64)
    # the least numerator of each q at or past k upto / count, and past upto
    starts = [-(-upto.numerator * k * q // (upto.denominator * count)) for k in range(count)]
    starts.append(upto.numerator * q // upto.denominator + 1)

    def blocks():
        for lo, hi in zip(starts, starts[1:]):
            size = hi - lo
            p = np.arange(size.sum(), dtype=np.int64) + np.repeat(hi - np.cumsum(size), size)
            qs = np.repeat(q, size)
            keep = np.gcd(p, qs) == 1
            yield p[keep], qs[keep]

    return blocks()


def _envelope_table(max_denominator: int):
    """(L, table): table(p, q) is (num, witness), where the envelope at each
    p/q in [0, 1] with q <= max_denominator is num / (L q), attained first
    (in piece order) by the piece _PIECES[witness], decided by exact int64
    comparisons. Refuses, when called, a table that would leave int64.

    L is the lcm of every denominator of the pieces and of the target, so
    every piece bound and the target scale by L to integers; p/q applies to
    a piece when L p lies between (L lo) q and (L hi) q, and its value there
    is ((L u) q + (L v) p) / (L q).
    """
    L = math.lcm(
        HALF.denominator,
        CRITICAL_EXPONENT.denominator,
        *(x.denominator for piece in _PIECES for x in (piece.lo, piece.hi, piece.u, piece.v)),
    )
    scaled = [[int(L * getattr(piece, f)) for f in ("lo", "hi", "u", "v")] for piece in _PIECES]
    # Every number formed below, the target's too, is a sum of at most two
    # products c * p or c * q with |c| <= max(L, the scaled bounds) and p <= q.
    if 2 * max(L, *(abs(c) for row in scaled for c in row)) * max_denominator >= 1 << 63:
        raise OverflowError(f"the piece table scaled by L={L} leaves int64 at denominator {max_denominator}")

    def table(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        num = np.full(p.size, np.iinfo(np.int64).max, dtype=np.int64)
        witness = np.zeros(p.size, dtype=np.intp)
        a = L * p
        # one piece at a time; a strict < keeps the earlier piece on a tie,
        # the first minimum
        for k, (piece, (lo, hi, u, v)) in enumerate(zip(_PIECES, scaled)):
            low, high = lo * q, hi * q
            applies = (a >= low if piece.lo_closed else a > low) & (a <= high if piece.hi_closed else a < high)
            value = u * q + v * p
            better = applies & (value < num)
            np.copyto(num, value, where=better)
            np.copyto(witness, k, where=better)
        return num, witness

    return L, table


def envelope_grid(max_denominator: int) -> Iterator[tuple[int, int, int, int, str]]:
    """Rows (alpha_num, alpha_den, p_num, p_den, witness) of the envelope at
    every reduced fraction alpha = p/q in [0, 1] with q <= max_denominator, in
    ascending alpha: the values of `envelope(Fraction(p, q))`, ties broken by
    piece order. The grid guard and the int64 check of the table run when
    called; the rows then come for one pass, one block of `_rational_blocks`
    at a time, each sorted on its own."""
    blocks = _rational_blocks(max_denominator)
    L, table = _envelope_table(max_denominator)
    tags = np.array([piece.tag for piece in _PIECES], dtype=object)

    def rows():
        for p, q in blocks:
            # Exact: two distinct reduced fractions with denominators <= Q
            # differ by at least 1/Q^2, far above the float64 rounding of p/q
            # (2^-53) for any Q that the grid guard admits.
            order = np.argsort(p / q)
            p, q = p[order], q[order]
            num, witness = table(p, q)
            den = L * q
            g = np.gcd(num, den)
            yield from zip(*(c.tolist() for c in (p, q, num // g, den // g, tags[witness])))

    return rows()


def verify_critical_line_coverage(max_denominator: int = 1000) -> CoverageReport:
    """Check envelope(alpha) <= alpha/2 + 13/84 for every rational alpha in
    [0, 1/2] with denominator <= max_denominator, plus all exact crossover
    points, and re-derive the crossovers by exact affine solves.

    Crossovers: the resonance bound meets the target at 332/819, the
    exponent-pair bound at 11/28, the trivial bound at 13/42; the main bound
    starts at 17/42. Since 17/42 < 332/819, the pieces jointly cover [0, 1/2].
    The grid is decided in exact integers (`_envelope_table`), one block of
    `_rational_blocks` at a time, so it is never held whole.
    """
    crossovers = {
        TAG_RESONANCE: solve_piece_meets_target(TAG_RESONANCE),
        TAG_PAIR: solve_piece_meets_target(TAG_PAIR),
        TAG_TRIVIAL: solve_piece_meets_target(TAG_TRIVIAL),
        TAG_MAIN: _PIECES.by_tag(TAG_MAIN).lo,
    }
    # Verify each solve by substituting back into both sides.
    for tag in (TAG_RESONANCE, TAG_PAIR, TAG_TRIVIAL):
        a = crossovers[tag]
        if _PIECES.by_tag(tag).value(a) != critical_line_target(a):
            raise ArithmeticError(f"crossover {tag}: alpha = {a} does not meet the target")

    grid = _rational_blocks(max_denominator, HALF)
    L, table = _envelope_table(max(max_denominator, *(c.denominator for c in crossovers.values())))
    extra = [(c.numerator, c.denominator) for c in crossovers.values() if c <= HALF]
    tail = np.array(extra, dtype=np.int64).reshape(-1, 2).T
    points, failures = 0, []
    for blocks in (grid, [tail]):
        for p, q in blocks:
            num, _ = table(p, q)
            target = int(L * CRITICAL_EXPONENT) * q + int(L * HALF) * p
            failures += sorted(Fraction(int(p[i]), int(q[i])) for i in np.flatnonzero(num > target))
            points += p.size
    return CoverageReport(crossovers, points, tuple(failures), coverage=not failures)


@dataclass(frozen=True)
class Scenario:
    """A concrete (T, M) instance with the derivative constant c of the phase."""

    T: float
    M: int
    c: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 1):
            raise ValueError("T must be finite and > 1")
        if self.M < 2:
            raise ValueError("M must be an integer >= 2")
        if not 0 < self.c <= 1:
            raise ValueError("c must lie in (0, 1]")
        if self.M > self.T:
            raise ValueError("M must not exceed T (alpha <= 1)")

    @cached_property
    def alpha(self) -> float:
        return math.log(self.M) / math.log(self.T)

    def alpha_fraction(self) -> Fraction:
        """alpha as the nearest fraction with denominator at most 10^4."""
        return Fraction(self.alpha).limit_denominator(10**4)


def arc_modulus(T: float, M: int, N: float, c: float = 1.0) -> int:
    """Smallest integer R >= 1 with R^2 >= 2 M^3 / (c N T), by exact ceiling.

    Inputs are converted to exact rationals (floats convert exactly), so the
    ceiling never suffers from rounding at perfect squares.
    """
    for name, v in (("T", T), ("N", N), ("c", c)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive")
    if M < 1:
        raise ValueError("M must be a positive integer")
    ratio = 2 * Fraction(M) ** 3 / (Fraction(c) * Fraction(N) * Fraction(T))
    p, q = ratio.numerator, ratio.denominator
    r = math.isqrt(p // q)
    while r * r * q < p:
        r += 1
    return max(r, 1)


def choose_block_length(scenario: Scenario, regime: str) -> tuple[float, int]:
    """Block length N for the given machinery regime and its arc modulus R.

    main:    N = M T^(-2/7)
    refined: N = max(M T^(-17/57), sqrt(M) T^(-1/12)); the first branch wins
             exactly when alpha >= 49/114
    compact: N = sqrt(2 M^3 / (c T)), which forces N comparable to R^2
    """
    T, M, c = scenario.T, scenario.M, scenario.c
    if regime == REGIME_MAIN:
        N = M * T ** (-2.0 / 7.0)
    elif regime == REGIME_REFINED:
        N = max(M * T ** (-17.0 / 57.0), math.sqrt(M) * T ** (-1.0 / 12.0))
    elif regime == REGIME_COMPACT:
        N = math.sqrt(2.0 * M**3 / (c * T))
    else:
        raise ValueError(f"unknown block-length regime {regime!r}")
    return N, arc_modulus(T, M, N, c)


@dataclass(frozen=True)
class Plan:
    """A planned run: regime, predicted exponent, block parameters, validity."""

    regime: str
    predicted_exponent: Fraction
    witness: str
    alpha: Fraction
    N: float | None
    R: int | None
    valid: bool
    reasons: tuple[str, ...]


def make_plan(scenario: Scenario, t_threshold: float = 1.0e6) -> Plan:
    """Select a regime from alpha, compute block parameters where the regime
    uses them, and predict the envelope exponent.

    `t_threshold` stands in for the unquantified "T sufficiently large"
    requirement of the block machinery and is configuration, not a claim.
    """
    if not math.isfinite(t_threshold):
        raise ValueError(f"t_threshold must be finite, got {t_threshold}")
    a = scenario.alpha_fraction()
    p, witness = envelope(a)

    if Fraction(3, 7) <= a <= HALF:
        regime = REGIME_MAIN
    elif Fraction(5, 12) <= a < Fraction(3, 7):
        regime = REGIME_REFINED
    elif Fraction(17, 42) <= a < Fraction(5, 12):
        regime = REGIME_COMPACT
    elif witness == TAG_RESONANCE:
        regime = REGIME_RESONANCE
    elif witness == TAG_PAIR:
        regime = REGIME_PAIR
    else:
        regime = REGIME_TRIVIAL

    N = R = None
    reasons = []
    if regime in _BLOCK_REGIMES:
        N, R = choose_block_length(scenario, regime)
        reasons = [
            reason
            for failed, reason in (
                (R > N, f"R={R} exceeds N={N:.6g}"),
                (N > R * R, f"N={N:.6g} exceeds R^2={R * R}"),
                (not 1 < N < scenario.M, f"N={N:.6g} outside (1, M)"),
                (scenario.T < t_threshold, f"T={scenario.T:.6g} below threshold {t_threshold:.6g}"),
            )
            if failed
        ]
    quiet = "ok" if N is not None else "no block parameters required"
    return Plan(regime, p, witness, a, N, R, valid=not reasons, reasons=tuple(reasons) or (quiet,))
