"""Numerically stable evaluation of the exponential sums used across the
package: quadruple-phase sums with unit coefficients, dyadic-block sums with
log or monomial phase, the Dirichlet polynomial sum_{n<=m} n^{-s} of `zeta`,
and `phase_sums`, the batched kernel that evaluates one sum, with or without
coefficients, or one sum per row of a coefficient matrix (rows may sum
fewer leading terms), at many points.

Conventions. e(z) = exp(2*pi*i*z). Phase arguments are reduced mod 1 before
evaluating e(.); for the polynomial part n*x1 + n^2*x2 the reduction is done
in exact head/tail form so no precision is lost up to the size guard
N <= 2**26 (beyond that an extended-precision path would be required, which
is out of scope). Phases are reduced in place as x - floor(x), the same
bits as x % 1.0, and every reduced phase goes through `numerics.unit_phase`,
the one evaluator of e(.), within UNIT_PHASE_K * machine_eps of the exact
e(theta). Summation is compensated (`zeta` sums through `dirichlet_sum`):
a sum of 2 * SUM_WIDTH terms or more forms its phases and terms in blocks
of SUM_WIDTH = UNIT_PHASE_BLOCK = 4,096 and feeds the real and imaginary
views of each block to a `numerics.NeumaierStream`, so no array as long as
the sum is built and memory stays flat in its length (`dirichlet_sum` keeps
its weights whole, 8 bytes per term); a shorter sum is one block, summed by
`numerics.neumaier_sum`. Either way the result is the bits of
`neumaier_sum` on the whole term array. The reported `err` covers both steps:
(2 + UNIT_PHASE_K) * machine_eps * sum(|a_n|), the summation contract plus
the evaluation of each term. It does not cover the float64 rounding of the
phases before they are reduced: a phase of size P is off by about eps * P
cycles, which matters for the half-power phases of `eval_quadruple_sum` at
large N; only `dirichlet_sum` models it. `phase_sums` carries no bound and
is not compensated: numpy sums each point down n in order, pairwise only in
a one-point call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import GuardError
from .numerics import (
    MACHINE_EPS,
    SUM_WIDTH,
    UNIT_PHASE_K,
    NeumaierStream,
    frac_in_place,
    frac_poly_phase,
    neumaier_sum,
    unit_phase,
)

# The quadruple and dyadic sums run in blocks (`_sum_terms`), in under 1 MB
# beyond the interpreter at any length. At the guards, fresh processes
# peaked at 31 MB, as `import zetalab.cli` does: `expsum quadruple` at
# N = 2**26 in 3.7 s, `expsum dyadic` at 2**24 terms in 0.8 s (2-core host).
MAX_QUADRUPLE_N = 1 << 26
DYADIC_MAX_TERMS = 1 << 24
# Entries (terms x points) in one block of `phase_sums`.
PHASE_BLOCK = 1 << 15


@dataclass(frozen=True)
class ComplexValue:
    """A complex value with an absolute error bound: the rounding of a sum,
    plus the truncation error where a series is cut off."""

    re: float
    im: float
    err: float

    def __post_init__(self):
        if self.err < 0:
            raise ValueError("err must be nonnegative")

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)

    def __abs__(self) -> float:
        return abs(self.value)


def _sum_terms(count: int, block_terms, weight: float, term_err: float = 0.0) -> ComplexValue:
    """The compensated sum of `count` terms a_n e(theta_n) with
    sum |a_n| = weight, where block_terms(start, stop) returns the complex
    terms of the indices start <= i < stop.

    Under 2 * SUM_WIDTH terms one block goes to `neumaier_sum`, whose
    `math.fsum` path allocates no stream. Longer sums run in blocks of
    SUM_WIDTH, each fed to two `NeumaierStream`s through its real and
    imaginary views, so no array as long as the sum is built. Each term
    depends on its index alone, so both paths give the bits of
    `neumaier_sum` on the whole term array. `err` is
    (2 + UNIT_PHASE_K) eps * weight, the summation contract of
    `neumaier_sum` plus the `unit_phase` bound on each term, plus term_err,
    a caller's bound on the other roundings of its terms."""
    if count < 2 * SUM_WIDTH:
        values = block_terms(0, count)
        re, im = neumaier_sum(values.real), neumaier_sum(values.imag)
    else:
        re_sum, im_sum = NeumaierStream(), NeumaierStream()
        for start in range(0, count, SUM_WIDTH):
            values = block_terms(start, min(start + SUM_WIDTH, count))
            re_sum.add(values.real)
            im_sum.add(values.imag)
        re, im = re_sum.total(), im_sum.total()
    return ComplexValue(re, im, (2.0 + UNIT_PHASE_K) * MACHINE_EPS * weight + term_err)


def phase_terms(phi, X) -> np.ndarray:
    """The (N, P) table e((x . Phi_n) mod 1), terms down and points across,
    for phi and X shaped as in `phase_sums`. Each phase is accumulated over
    the columns in order, without BLAS, and reduced as phase - floor(phase),
    which equals phase % 1.0 bit for bit on every finite float and costs
    less."""
    phase = phi[:, 0, None] * X[:, 0]
    for j in range(1, phi.shape[1]):
        phase += phi[:, j, None] * X[:, j]
    return unit_phase(frac_in_place(phase))


def phase_sums(phi, coeffs, X, terms=None) -> np.ndarray:
    """Sum_n a_n e((x . Phi_n) mod 1) for each row x of X.

    phi is an (N, d) array of phase vectors with d <= 4, X a (P, d) array of
    frequency points, and coeffs None (a_n = 1), a length-N vector or an
    (R, N) matrix of coefficient rows. With a matrix, `terms` may give each
    row's count m_r <= N of leading terms: row r then sums n < m_r only, and
    its entries beyond m_r are never read. Terms run down and points across
    blocks of PHASE_BLOCK // N points, at least two, a last point joining
    the block before it. Each block evaluates `phase_terms` once and reduces
    its first m rows against every coefficient row by an elementwise
    product and numpy's sum over n, which runs down n in order for a block
    of two or more points and pairwise for a one-point call, the only block
    of one point. So row r of a matrix call equals, bit for bit, the call
    with phi[:m_r] and that row alone; a call equals the concatenation of
    calls on its pieces of two or more points, whatever the block split;
    a one-point call differs from the same point inside a longer call in
    the last bits; and the result does not depend on threading. Returns a
    length-P complex array, or (R, P) for a matrix.
    """
    phi = np.asarray(phi, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if phi.ndim != 2 or not 1 <= phi.shape[1] <= 4:
        raise ValueError("phi must be an (N, d) array with d <= 4")
    if X.ndim != 2 or X.shape[1] != phi.shape[1]:
        raise ValueError(f"X must be a (P, {phi.shape[1]}) array, got shape {X.shape}")
    N = phi.shape[0]
    P = X.shape[0]
    a = None if coeffs is None else np.asarray(coeffs, dtype=np.complex128)
    if a is not None and (a.ndim not in (1, 2) or a.shape[-1] != N):
        raise ValueError(f"coeffs must have length {N} or shape (R, {N}), got shape {a.shape}")
    if terms is None:
        terms = [N] * (1 if a is None or a.ndim == 1 else len(a))
    elif a is None or a.ndim != 2 or len(terms) != len(a) or not all(1 <= m <= N for m in terms):
        raise ValueError(f"terms must give each of the coefficient rows a count in [1, {N}]")
    per = max(PHASE_BLOCK // max(N, 1), 2)
    out = np.empty((P,) if a is None else a.shape[:-1] + (P,), dtype=np.complex128)
    start = 0
    while start < P:
        stop = P if P - start <= per + 1 else start + per
        table = phase_terms(phi, X[start:stop])
        if a is None:
            out[start:stop] = table.sum(axis=0)
        else:
            for row, m, dest in zip(np.atleast_2d(a), terms, np.atleast_2d(out)):
                dest[start:stop] = (table[:m] * row[:m, None]).sum(axis=0)
        start = stop
    return out


def eval_quadruple_sum(N: int, x: Sequence[float]) -> ComplexValue:
    """Sum_{1<=n<=N} e(n x1 + n^2 x2 + sqrt(N) n^{3/2} x3 + sqrt(N) n^{1/2} x4).

    The polynomial phases are reduced mod 1 exactly; the half-integer power
    phases are double precision, each off by about eps * sqrt(N) n^{3/2} |x3|
    cycles. `err` bounds the summation and the evaluation of e(.), not this
    phase rounding: at N = 2**20 those phases reach 2**40 |x3|, and for x3
    of order 1 the sum is off by about 0.05 while `err` reads 9.3e-10.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    GuardError.check("expsum.quadruple.N", N, MAX_QUADRUPLE_N, f"N={N}")
    x1, x2, x3, x4 = (float(v) for v in x)
    if not all(math.isfinite(v) for v in (x1, x2, x3, x4)):
        raise ValueError("phase frequencies must be finite")
    root_n = math.sqrt(N)

    def block_terms(start: int, stop: int) -> np.ndarray:
        n = np.arange(start + 1, stop + 1, dtype=np.int64)
        phase = frac_poly_phase(n, x1, x2)
        nf = n.astype(np.float64)
        sqrt_n = np.sqrt(nf)
        phase += frac_in_place((x3 * root_n) * (nf * sqrt_n))
        phase += frac_in_place((x4 * root_n) * sqrt_n)
        return unit_phase(frac_in_place(phase))

    return _sum_terms(N, block_terms, float(N))


def eval_dyadic_sum(T: float, M: int, kind: str = "log", exponent=None) -> ComplexValue:
    """Sum_{M/2 < m <= M} e(T * F(m/M)) with F = log (no exponent) or the
    monomial u^exponent.

    T is in cycle units: e(T log(m/M)) = (m/M)^{it} with t = 2*pi*T.
    """
    if not math.isfinite(T):
        raise ValueError("T must be finite")
    if M < 2:
        raise ValueError("M must be >= 2")
    GuardError.check("expsum.dyadic.terms", M - M // 2, DYADIC_MAX_TERMS, f"{M - M // 2} terms at M={M}")
    if kind == "log":
        if exponent is not None:
            raise ValueError("the log phase takes no exponent")
    elif kind == "monomial":
        if exponent is None:
            raise ValueError("monomial phase requires an exponent")
        power = float(Fraction(exponent))
    else:
        raise ValueError(f"unknown dyadic phase kind {kind!r}")
    first = M // 2 + 1

    def block_terms(start: int, stop: int) -> np.ndarray:
        phase = np.arange(first + start, first + stop, dtype=np.float64)
        phase /= M  # m/M, then F(m/M), then T F(m/M) mod 1, all in place
        if kind == "log":
            np.log(phase, out=phase)
        else:
            phase **= power
        phase *= T
        return unit_phase(frac_in_place(phase))

    return _sum_terms(M - M // 2, block_terms, float(M - M // 2))


def dirichlet_sum(s: complex, m: int) -> ComplexValue:
    """Sum_{1<=n<=m} n^{-s} = sum n^{-sigma} e(-(t/2pi) log n), s = sigma + it,
    for the AFE main sum and the Euler-Maclaurin head of `zeta`; m is a
    nonnegative integer. The weights n^{-sigma} are built whole, 8 bytes per
    term, because `err` takes their numpy (pairwise) sum; the phases and
    terms run in blocks through `_sum_terms`.
    `err` = eps * sum(n^{-sigma}) * (4 + UNIT_PHASE_K + 4|t| log(m+1)): the
    summation and e(.) bounds of `_sum_terms`, 2 eps for the weights and
    their product, and a model of the rounding of (t/2pi) log n before its
    reduction.
    """
    if not isinstance(m, numbers.Integral) or m < 0:
        raise ValueError(f"m must be a nonnegative integer, got {m!r}")
    m = int(m)
    weights = np.arange(1, m + 1, dtype=np.float64)
    np.power(weights, -s.real, out=weights)
    weight = float(weights.sum())
    scale = -s.imag / (2 * math.pi)

    def block_terms(start: int, stop: int) -> np.ndarray:
        phase = np.arange(start + 1, stop + 1, dtype=np.float64)
        np.log(phase, out=phase)
        phase *= scale
        values = unit_phase(frac_in_place(phase))
        values *= weights[start:stop]
        return values

    return _sum_terms(m, block_terms, weight, MACHINE_EPS * weight * (2.0 + 4.0 * abs(s.imag) * math.log(m + 1.0)))
