"""Zeta oracle calibration, AFE consistency, zero bracketing, growth scans."""

import cmath
import math

import numpy as np
import pytest

from zetalab import zeta
from zetalab.errors import GuardError
from zetalab.expsum import ComplexValue
from zetalab.zeta import (
    GrowthScan,
    afe_consistency_scan,
    afe_main_sum,
    afe_upper_bound,
    default_oracle_terms,
    growth_scan,
    siegel_theta,
    z_function,
    zero_bracket,
    zeta_em_oracle,
    zeta_euler_maclaurin,
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
        fine = zeta_em_oracle(t, terms=2 * default_oracle_terms(t))
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
