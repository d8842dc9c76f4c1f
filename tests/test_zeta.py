"""Zeta oracle calibration, AFE consistency, zero bracketing, growth scans,
and the Riemann-Siegel route against mpmath and Euler-Maclaurin."""

import cmath
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zetalab import zeta
from zetalab.errors import GuardError
from zetalab.expsum import ComplexValue
from zetalab.zeta import (
    RS_MIN_T,
    GrowthScan,
    afe_consistency_scan,
    afe_main_sum,
    afe_upper_bound,
    default_oracle_terms,
    growth_scan,
    riemann_siegel_z,
    siegel_theta,
    z_function,
    zero_bracket,
    zeta_em_oracle,
    zeta_euler_maclaurin,
    zeta_oracle,
    zeta_rs_oracle,
)

ZETA_HALF = -1.4603545088  # classical value of zeta(1/2), 10 digits


def test_calibration_at_two():
    res = zeta_euler_maclaurin(complex(2.0, 0.0), 60)
    assert abs(res.value - math.pi**2 / 6) <= res.err


def test_value_at_half():
    res = zeta_em_oracle(0.0)
    assert abs(res.value - ZETA_HALF) <= res.err + 5e-10
    # independent term count agrees within both error bounds
    other = zeta_euler_maclaurin(complex(0.5, 0.0), 200)
    assert abs(res.value - other.value) <= res.err + other.err


@pytest.mark.parametrize("t", [5.0, 14.134725, 100.0, 1000.0])
def test_oracle_against_mpmath(t):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    res = zeta_em_oracle(t)
    true = complex(mp.zeta(mp.mpc(0.5, t)))
    assert abs(res.value - true) <= res.err


def test_conjugate_symmetry():
    a = zeta_euler_maclaurin(complex(0.5, 50.0), 120)
    b = zeta_euler_maclaurin(complex(0.5, -50.0), 120)
    assert abs(b.value - a.value.conjugate()) <= 2.0 * (a.err + b.err)


def test_doubling_terms_within_reported_error():
    for t in (20.0, 300.0):
        base = zeta_em_oracle(t)
        fine = zeta_euler_maclaurin(complex(0.5, t), 2 * default_oracle_terms(t))
        assert abs(base.value - fine.value) <= base.err


def test_em_validation():
    with pytest.raises(ValueError):
        zeta_euler_maclaurin(complex(1.0, 0.0), 50)
    with pytest.raises(ValueError):
        zeta_euler_maclaurin(complex(0.5, 100.0), 20)  # needs >= 10 + t/2
    with pytest.raises(ValueError):
        zeta_euler_maclaurin(complex(-0.5, 10.0), 50)


def test_afe_main_sum_at_two_pi():
    res = afe_main_sum(2 * math.pi)
    assert res.value == 1.0 + 0.0j


def test_afe_main_sum_requires_nonempty():
    with pytest.raises(ValueError):
        afe_main_sum(6.0)


def test_afe_main_sum_against_high_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    t = 1000.0
    cut = int(mp.sqrt(mp.mpf(t) / (2 * mp.pi)))
    hp = sum(mp.power(n, mp.mpc(-0.5, t)) for n in range(1, cut + 1))
    own = afe_main_sum(t)
    assert abs(own.value - complex(hp)) <= 1e-9


def test_afe_main_sum_bits_are_pinned():
    # the bits of the main sum with e(.) from `numerics.unit_phase`; with
    # np.exp it read (0.5079599941572488, -0.40109815218053313)
    res = afe_main_sum(1000.0)
    assert (res.re, res.im) == (0.507959994157249, -0.4010981521805334)
    old = complex(0.5079599941572488, -0.40109815218053313)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    t, cut = 1000.0, 12
    true = sum(mp.power(n, mp.mpc(-0.5, t)) for n in range(1, cut + 1))
    assert abs(res.value - complex(true)) <= res.err
    # both values are off from the true sum by about 2.7e-13, the rounding of
    # the phases (t / 2 pi) log n before their reduction, which no e(.)
    # evaluator sees; against the exact sum of the reduced float phases and
    # float weights that are actually summed, unit_phase is the closer
    phase = np.log(np.arange(1, cut + 1, dtype=np.float64)) * (t / (2 * math.pi)) % 1.0
    weight = np.arange(1, cut + 1, dtype=np.float64) ** -0.5
    summed = sum(mp.mpf(w) * mp.expjpi(2 * mp.mpf(p)) for w, p in zip(weight.tolist(), phase.tolist()))
    assert abs(mp.mpc(res.value) - summed) <= abs(mp.mpc(old) - summed)


def test_afe_one_sided_bound_at_100():
    em = zeta_em_oracle(100.0)
    assert afe_upper_bound(100.0, slack=2.0) >= abs(em.value) - em.err


def test_afe_consistency_scan_clean():
    rows, violations = afe_consistency_scan(10.0, 1.0e3, 60, slack=2.0)
    assert len(rows) == 60
    assert violations == []


def test_afe_consistency_scan_refuses_an_empty_range():
    for t_min, t_max in ((1.0e3, 100.0), (100.0, 100.0), (math.nan, 100.0)):
        with pytest.raises(ValueError, match="t_min < t_max") as exc:
            afe_consistency_scan(t_min, t_max, 3)
        assert not isinstance(exc.value, GuardError)


def test_non_finite_slack_is_refused():
    # a NaN or infinite slack would make every bound pass the one-sided check
    for slack in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="slack must be finite"):
            afe_upper_bound(100.0, slack)
        with pytest.raises(ValueError, match="slack must be finite"):
            afe_consistency_scan(10.0, 100.0, 3, slack)


def test_growth_scan_refuses_an_empty_range():
    # an empty range is a usage error, not the range guard, even outside it
    for t_min, t_max in ((100.0, 50.0), (100.0, 100.0), (1.0e7, 20.0)):
        with pytest.raises(ValueError, match="t_min < t_max") as exc:
            growth_scan(t_min, t_max, 10)
        assert not isinstance(exc.value, GuardError)


def test_growth_scan_non_finite_range_is_a_value_error():
    for t_min, t_max in ((math.nan, 100.0), (10.0, math.nan), (10.0, math.inf), (-math.inf, 100.0)):
        with pytest.raises(ValueError, match="must be finite") as exc:
            growth_scan(t_min, t_max, 3)
        assert not isinstance(exc.value, GuardError)


def test_growth_rows_have_one_builder():
    scan = growth_scan(10.0, 200.0, 5, seed=2)
    assert scan.rows == tuple(zeta.growth_row(row[0], zeta_em_oracle(row[0])) for row in scan.rows)
    em = zeta_em_oracle(100.0)
    assert zeta.growth_row(100.0, em) == (100.0, abs(em.value), abs(em.value) / 100.0 ** (13 / 84), em.err)


def test_scan_terms_guard():
    # each point is charged its oracle terms at t_max plus SCAN_POINT_TERMS
    per_point = zeta.default_oracle_terms(1.0e6) + zeta.SCAN_POINT_TERMS
    most = zeta.SCAN_MAX_TERMS // per_point
    assert zeta.scan_terms(1.0e6, most) == most * per_point
    assert zeta.scan_terms(1.0e6, 24) < zeta.SCAN_MAX_TERMS // 20  # the benchmark's scan
    for scan in (lambda: zeta.scan_terms(1.0e6, most + 1),
                 lambda: growth_scan(10.0, 100.0, 10**12),
                 lambda: afe_consistency_scan(10.0, 100.0, 10**12)):
        with pytest.raises(GuardError) as exc:
            scan()
        assert exc.value.guard == "zeta.scan.terms"


def test_siegel_theta_against_loggamma():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for t in (10.0, 14.13, 50.0, 500.0):
        true = float(mp.im(mp.loggamma(mp.mpc(0.25, t / 2)))) - t / 2 * math.log(math.pi)
        assert siegel_theta(t) == pytest.approx(true, abs=1e-8)


def test_z_function_is_real_rotation():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    t = 30.0
    em = zeta_em_oracle(t)
    rotated = cmath.exp(1j * siegel_theta(t)) * em.value
    assert abs(rotated.imag) < 1e-8
    assert z_function(t) == pytest.approx(rotated.real)


def test_first_zero_bracketed():
    assert zero_bracket(14.12, 14.15)
    assert not zero_bracket(14.15, 14.5)  # no zero in this window


def test_growth_scan_deterministic_and_increasing():
    s1 = growth_scan(10.0, 1.0e3, 100, seed=13)
    s2 = growth_scan(10.0, 1.0e3, 100, seed=13)
    assert s1 == s2
    ts = [row[0] for row in s1.rows]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert s1.running_max == max(row[2] for row in s1.rows)
    assert s1.running_max > 0


def test_growth_scan_constant_mode_closed_form(monkeypatch):
    # with |zeta| replaced by 1 the pipeline must reproduce t^{-13/84}
    monkeypatch.setattr(zeta, "zeta_em_oracle", lambda t: ComplexValue(1.0, 0.0, 0.0))
    scan = growth_scan(10.0, 1.0e3, 50, seed=0)
    for t, az, ratio, err in scan.rows:
        assert az == 1.0 and err == 0.0
        assert ratio == pytest.approx(t ** (-13.0 / 84.0), rel=1e-12)
    # ratio decreasing, so the maximum sits at the smallest t
    assert scan.running_max == scan.rows[0][2]


def test_growth_scan_guards():
    with pytest.raises(GuardError):
        growth_scan(5.0, 100.0, 10)
    with pytest.raises(GuardError):
        growth_scan(10.0, 2.0e6, 10)
    with pytest.raises(ValueError):
        growth_scan(10.0, 100.0, 1)


def test_growth_scan_row_monotonicity_enforced():
    with pytest.raises(ValueError):
        GrowthScan(((15.0, 1.0, 1.0, 0.0), (12.0, 1.0, 1.0, 0.0)), 1.0)


# ------------------------------------------------------------ Riemann-Siegel


def _psi(mp, p):
    return mp.cos(2 * mp.pi * (p * p - p - mp.mpf(1) / 16)) / mp.cos(2 * mp.pi * p)


def _t_at(m, p):
    """The t where sqrt(t / 2 pi) = m + p."""
    return 2.0 * math.pi * (m + p) ** 2


# p = sqrt(t / 2 pi) - m at its ends and quarters; p = 0 is rounded to just
# below or above an integer
EDGE_PS = (0.0, 1e-9, 0.25, 0.75, 1.0 - 1e-9)


def _rs_grid(t_max, points, ms):
    inner = np.exp(np.linspace(math.log(RS_MIN_T), math.log(t_max), points)).tolist()[1:-1]
    edges = [_t_at(m, p) for m in ms for p in EDGE_PS]
    assert all(RS_MIN_T <= t <= t_max for t in edges)
    return sorted([RS_MIN_T, *inner, *edges, t_max])


def test_psi_taylor_coefficients_against_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        ref = mp.taylor(lambda x: _psi(mp, x + mp.mpf(1) / 2), 0, zeta._PSI_DEGREE)
    psi = zeta._psi_taylor()
    assert len(psi) == len(ref) == 73
    for n, (own, want) in enumerate(zip(psi, ref)):
        if n % 2:
            assert own == 0 and abs(want) < 1e-50
        else:
            assert float(own) == float(want), n


def test_rs_corrections_against_psi_derivatives():
    # C_0..C_4 as Gabcke's combinations of the derivatives of Psi, by
    # mpmath's Taylor expansion at p, against the folded float polynomials
    mp = pytest.importorskip("mpmath")
    polys = zeta._rs_polynomials()
    for p in (0.0, 0.1, 0.37, 0.5, 0.93, 1.0):
        with mp.workdps(40):
            d = [c * mp.factorial(k) for k, c in enumerate(mp.taylor(lambda q: _psi(mp, q), p, 12))]
            pi = mp.pi
            want = (
                d[0],
                -d[3] / (96 * pi**2),
                d[2] / (64 * pi**2) + d[6] / (18432 * pi**4),
                -d[1] / (64 * pi**2) - d[5] / (3840 * pi**4) - d[9] / (5308416 * pi**6),
                d[0] / (128 * pi**2) + 19 * d[4] / (24576 * pi**4) + 11 * d[8] / (5898240 * pi**6)
                + d[12] / (2038431744 * pi**8),
            )
        x = p - 0.5
        for k, ((poly, slope), c) in enumerate(zip(polys, want)):
            value = 0.0
            for coeff in poly:
                value = value * x * x + coeff
            value *= x if k % 2 else 1.0
            assert abs(value - float(c)) <= 1e-14, (p, k)
            assert slope > 0


def test_rs_against_mpmath():
    # at least 200 values of t on [RS_MIN_T, 1e6]: Z against mpmath's Z from
    # its zeta and theta at every point and against mpmath.siegelz at every
    # fourth point and every edge of p; zeta as a complex value and in modulus
    mp = pytest.importorskip("mpmath")
    ts = _rs_grid(1.0e6, 182, (13, 40, 126, 397))
    assert len(ts) >= 200
    edges = {_t_at(m, p) for m in (13, 40, 126, 397) for p in EDGE_PS} | {RS_MIN_T, 1.0e6}
    with mp.workdps(15):
        for i, t in enumerate(ts):
            z, err = riemann_siegel_z(t)
            value = zeta_rs_oracle(t)
            assert value.err >= err
            true = mp.zeta(mp.mpc(0.5, t))
            true_z = mp.re(mp.expj(mp.siegeltheta(t)) * true)
            assert abs(z - true_z) <= err, t
            if i % 4 == 0 or t in edges:
                assert abs(z - mp.siegelz(t)) <= err, t
            assert abs(value.value - complex(true)) <= value.err, t
            assert abs(abs(value) - float(abs(true))) <= value.err, t


def test_rs_theta_error_is_charged_against_the_main_sum():
    # the error of theta moves 2 Re(e^{-i theta} S) by at most twice |S| + err
    # of S times it, not twice 2 sqrt(m) times it (9.0e-7 for Z at 1e6)
    assert riemann_siegel_z(1.0e6)[1] <= 5.0e-7 and zeta_rs_oracle(1.0e6).err <= 5.0e-7


def test_rs_remainder_bound_is_nearly_attained():
    # where Gabcke's remainder dominates err (m = 13..15, t in [1062, 1608]),
    # the error of Z stays within it, up to 1e-11 of float rounding, and
    # reaches more than 60% of it: a tighter constant would not hold
    mp = pytest.importorskip("mpmath")
    ratios = []
    with mp.workdps(15):
        for m in (13, 14, 15):
            for p in [i / 20 for i in range(20)] + [1.0 - 1e-9]:
                t = _t_at(m, p)
                z, err = riemann_siegel_z(t)
                remainder = zeta.RS_REMAINDER * t**-2.75
                diff = abs(z - mp.siegelz(t))
                assert diff <= remainder + 1e-11 and remainder <= err, t
                ratios.append(diff / remainder)
    assert max(ratios) > 0.6


def test_rs_against_euler_maclaurin():
    ts = _rs_grid(1.0e5, 40, (13, 40, 125))
    for t in ts:
        rs, em = zeta_rs_oracle(t), zeta_em_oracle(t)
        assert abs(rs.value - em.value) <= rs.err + em.err, t
        # the crossover: from RS_MIN_T up the Riemann-Siegel bound is the tighter
        assert rs.err < em.err


def test_rs_refuses_below_its_range():
    for t in (RS_MIN_T - 1e-9, 100.0, math.nan):
        with pytest.raises(ValueError, match="Riemann-Siegel"):
            riemann_siegel_z(t)


def test_oracle_dispatch_calls_the_em_global(monkeypatch):
    # below RS_MIN_T the oracle is `zeta.zeta_em_oracle`, looked up at each
    # call, so patching the module attribute (as the benchmark's tracer
    # does) reaches it; from RS_MIN_T up it is never called
    calls = []

    def em(t):
        calls.append(t)
        return ComplexValue(1.0, 0.0, 0.0)

    monkeypatch.setattr(zeta, "zeta_em_oracle", em)
    assert zeta_oracle(999.0) == ComplexValue(1.0, 0.0, 0.0)
    assert zeta_oracle(RS_MIN_T) == zeta_rs_oracle(RS_MIN_T)
    assert zeta_oracle(5.0e5, afe_main_sum(5.0e5)) == zeta_rs_oracle(5.0e5)
    assert calls == [999.0]


def test_growth_scan_rows_are_the_oracle_rows():
    scan = growth_scan(300.0, 3.0e4, 8, seed=4)
    ts = [row[0] for row in scan.rows]
    assert min(ts) < RS_MIN_T < max(ts)
    assert scan.rows == tuple(zeta.growth_row(t, zeta_oracle(t)) for t in ts)


def test_afe_scan_sums_each_main_sum_once(monkeypatch):
    calls = []
    main_sum = zeta.afe_main_sum

    def counted(t):
        calls.append(t)
        return main_sum(t)

    monkeypatch.setattr(zeta, "afe_main_sum", counted)
    rows, violations = afe_consistency_scan(100.0, 1.0e5, 12, slack=2.0)
    assert violations == []
    assert calls == [row[0] for row in rows]
    monkeypatch.setattr(zeta, "afe_main_sum", main_sum)
    for t, bound, floor in rows:
        oracle = zeta_oracle(t)
        assert bound == afe_upper_bound(t, 2.0)
        assert floor == abs(oracle) - oracle.err


def test_z_function_takes_riemann_siegel_from_its_threshold():
    mp = pytest.importorskip("mpmath")
    for t in (RS_MIN_T, 2000.0, 5.0e4):
        z, err = riemann_siegel_z(t)
        assert z_function(t) == z
        em = zeta_em_oracle(t)
        assert abs(z - (cmath.exp(1j * siegel_theta(t)) * em.value).real) <= err + 2 * em.err
    # the first zero above RS_MIN_T is the 650th, as N(1000) = 649
    with mp.workdps(20):
        gamma = float(mp.im(mp.zetazero(650)))
    assert RS_MIN_T < gamma < RS_MIN_T + 2
    assert zero_bracket(gamma - 0.01, gamma + 0.01)
    assert not zero_bracket(gamma + 0.01, gamma + 0.05)


def test_rs_tables_are_built_on_first_use():
    src = Path(zeta.__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from zetalab import cli, zeta; "
            "print(zeta._psi_taylor.cache_info().currsize, zeta._rs_polynomials.cache_info().currsize); "
            "zeta.zeta_oracle(2000.0); print(zeta._rs_polynomials.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "1"]
