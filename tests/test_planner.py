"""Piecewise exponent bounds, envelope, coverage, and run planning."""

import csv
import math
from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import cli, planner
from zetalab.planner import (
    Scenario,
    arc_modulus,
    choose_block_length,
    critical_line_target,
    envelope,
    exponent_bound_pieces,
    make_plan,
    solve_piece_meets_target,
    verify_critical_line_coverage,
)

PIECES = exponent_bound_pieces()


def test_piece_count_and_tags():
    tags = [p.tag for p in PIECES]
    assert tags == ["sieve-high", "sieve-mid", "sieve-low", "main", "resonance", "pair", "trivial"]


def test_mid_piece_values():
    mid = PIECES.by_tag("sieve-mid")
    assert mid.value(F(5, 12)) == F(13, 36)
    # affine evaluation at 17/42 undercuts the target there: 89/252 <= 90/252
    assert mid.value(F(17, 42)) == F(89, 252)
    assert critical_line_target(F(17, 42)) == F(90, 252)


def test_sieve_low_meets_target_at_main_edge():
    low = PIECES.by_tag("sieve-low")
    assert low.value(F(17, 42)) == critical_line_target(F(17, 42))


def test_envelope_values():
    assert envelope(F(0)) == (F(0), "trivial")
    p, witness = envelope(F(1, 2))
    assert p == F(1, 4) + F(13, 84) == F(17, 42)
    assert witness == "main"
    p, witness = envelope(F(2, 5))
    assert witness in ("resonance", "pair")
    assert p <= critical_line_target(F(2, 5))


def test_envelope_domain():
    with pytest.raises(ValueError):
        envelope(F(3, 2))
    with pytest.raises(ValueError):
        envelope(F(-1, 10))


@settings(max_examples=500, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=997))
def test_envelope_is_pointwise_min(alpha):
    p, witness = envelope(alpha)
    applicable = [piece for piece in PIECES if piece.applies(alpha)]
    assert applicable
    assert p == min(piece.value(alpha) for piece in applicable)
    assert p <= alpha  # never worse than trivial


def test_crossovers_exact():
    assert solve_piece_meets_target("resonance") == F(332, 819)
    assert solve_piece_meets_target("pair") == F(11, 28)
    assert solve_piece_meets_target("trivial") == F(13, 42)
    # substituting back gives identical rationals on both sides
    for tag in ("resonance", "pair", "trivial"):
        a = solve_piece_meets_target(tag)
        assert PIECES.by_tag(tag).value(a) == critical_line_target(a)


def test_coverage_refuses_a_wrong_crossover_solve(monkeypatch):
    # the substitution check must hold under python -O as well
    monkeypatch.setattr(planner, "solve_piece_meets_target", lambda tag: F(1, 3))
    with pytest.raises(ArithmeticError, match="does not meet the target"):
        verify_critical_line_coverage(max_denominator=10)


def joined_blocks(max_denominator, upto=1):
    """The blocks of `planner._rational_blocks`, joined into one list of
    Fractions in ascending alpha, after checking each block: int64 arrays by
    q and then p, at most `_TABLE_SLICE` candidate points p/q (reduced or
    not) between its least and greatest fraction, and wholly below the next
    block."""
    grid = []
    for p, q in planner._rational_blocks(max_denominator, upto):
        assert p.dtype == q.dtype == np.int64
        pairs = list(zip(q.tolist(), p.tolist()))
        assert pairs == sorted(pairs)
        block = sorted(F(a, b) for b, a in pairs)
        if not block:
            continue
        lo, hi = block[0], block[-1]
        candidates = sum(math.floor(hi * b) - math.ceil(lo * b) + 1 for b in range(1, max_denominator + 1))
        assert candidates <= planner._TABLE_SLICE
        assert not grid or grid[-1] < lo
        grid += block
    return grid


def farey(max_denominator, upto=1):
    return sorted(F(p, q) for q in range(1, max_denominator + 1) for p in range(math.floor(upto * q) + 1)
                  if math.gcd(p, q) == 1)


def test_rationals_are_the_reduced_grid():
    assert joined_blocks(4) == [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]
    assert joined_blocks(4, F(1, 2)) == [F(0), F(1, 4), F(1, 3), F(1, 2)]
    assert joined_blocks(200) == farey(200)
    # the half grid plus the four crossovers, all of them below 1/2
    assert verify_critical_line_coverage(max_denominator=200).points_checked == len(farey(200, F(1, 2))) + 4


def fraction_scan(max_denominator):
    """(points checked, failures): the per-point Fraction scan that the
    integer table of `verify_critical_line_coverage` replaced, kept as its
    reference. It reads the pieces from `planner._PIECES`. The failures come
    in ascending alpha, the grid's first and then the crossovers'."""
    pieces = planner._PIECES
    crossovers = [solve_piece_meets_target(tag) for tag in ("resonance", "pair", "trivial")]
    crossovers.append(pieces.by_tag("main").lo)
    crossovers = [a for a in crossovers if a <= F(1, 2)]
    grid = farey(max_denominator, F(1, 2))

    def fails(a):
        return not any(piece.applies(a) and piece.value(a) <= critical_line_target(a) for piece in pieces)

    return len(grid) + len(crossovers), (*filter(fails, grid), *sorted(filter(fails, crossovers)))


@pytest.mark.parametrize("bound", [1, 2, 20, 200])
def test_coverage_table_matches_the_fraction_scan(bound):
    rep = verify_critical_line_coverage(max_denominator=bound)
    assert (rep.points_checked, rep.failures) == fraction_scan(bound)
    assert rep.coverage


@dataclass(frozen=True)
class _WithoutMain(planner.PiecewiseBound):
    """The pieces without `main`; by_tag still finds it, so its crossover
    point (the start of the main bound) stays on the checked list."""

    def __iter__(self):
        return (piece for piece in self.pieces if piece.tag != "main")


def test_coverage_table_reports_the_fraction_scan_failures(monkeypatch):
    monkeypatch.setattr(planner, "_PIECES", _WithoutMain(PIECES.pieces))
    rep = verify_critical_line_coverage(max_denominator=60)
    points, failures = fraction_scan(60)
    assert failures  # (17/42, 332/819) is no longer covered
    assert (rep.points_checked, rep.failures, rep.coverage) == (points, failures, False)


@pytest.mark.parametrize("pieces", [PIECES, _WithoutMain(PIECES.pieces)], ids=["all", "without-main"])
def test_coverage_over_many_blocks_is_the_fraction_scan(monkeypatch, pieces):
    # 64 candidates a block: denominators up to 60 span about 15 blocks, so
    # the counts and the order of the failures cross block boundaries
    monkeypatch.setattr(planner, "_PIECES", pieces)
    monkeypatch.setattr(planner, "_TABLE_SLICE", 64)
    rep = verify_critical_line_coverage(max_denominator=60)
    points, failures = fraction_scan(60)
    assert (rep.points_checked, rep.failures, rep.coverage) == (points, failures, not failures)


@pytest.mark.parametrize("upto", [1, F(1, 2)])
def test_blocks_join_to_the_grid(monkeypatch, upto):
    monkeypatch.setattr(planner, "_TABLE_SLICE", 64)
    assert len(list(planner._rational_blocks(60, upto))) > 10
    assert joined_blocks(60, upto) == farey(60, upto)


# the same bound at both ends: the grid is never whole, and the table holds
# one slice of one piece at a time (the whole grid with the (pieces x points)
# table took 15 MB at 600 and 38 MB at 2045)
@pytest.mark.parametrize("bound", [600, 2045])
def test_coverage_memory_is_flat_in_the_bound(traced_peak, bound):
    rep, peak = traced_peak(verify_critical_line_coverage, bound)
    assert rep.coverage
    assert peak < 8 << 20


# 120 reaches the open ends 12/31 and 49/114 as well as 5/12
@pytest.mark.parametrize("bound", [24, 120])
def test_envelope_leaf_rows_are_the_fraction_envelope(tmp_path, bound):
    dest = tmp_path / "envelope.csv"
    assert cli.main(["--out", str(dest), "planner", "envelope", "--denominator-bound", str(bound)]) == cli.EXIT_OK
    with open(dest) as fh:
        rows = list(csv.DictReader(fh))
    alphas = [F(int(row["alpha_num"]), int(row["alpha_den"])) for row in rows]
    assert alphas == sorted(F(p, q) for q in range(1, bound + 1) for p in range(q + 1) if math.gcd(p, q) == 1)
    for alpha, row in zip(alphas, rows):
        p, witness = envelope(alpha)
        assert (row["p_num"], row["p_den"], row["witness"]) == (str(p.numerator), str(p.denominator), witness)


@pytest.mark.parametrize("pieces", [PIECES, _WithoutMain(PIECES.pieces)], ids=["all", "without-main"])
def test_envelope_rows_over_many_blocks_are_the_fraction_envelope(monkeypatch, pieces):
    # 64 candidates a block: each block is sorted on its own, and the rows
    # still ascend across block boundaries
    monkeypatch.setattr(planner, "_PIECES", pieces)
    monkeypatch.setattr(planner, "_TABLE_SLICE", 64)
    rows = []
    for alpha in farey(60):
        p, witness = envelope(alpha)
        rows.append((alpha.numerator, alpha.denominator, p.numerator, p.denominator, witness))
    assert list(planner.envelope_grid(60)) == rows


# the rows of one block at a time: about 10 MB at either bound (the whole
# sorted grid and its table took 11 MB at 600 and 44 MB at 1446)
@pytest.mark.parametrize("bound, rows", [(600, 109_501), (1446, 635_621)])
def test_envelope_memory_is_flat_in_the_bound(traced_peak, bound, rows):
    count, peak = traced_peak(lambda: sum(1 for _ in planner.envelope_grid(bound)))
    assert count == rows  # the Farey count, 1 + phi(1) + ... + phi(bound)
    assert peak < 12 << 20


def test_table_refuses_to_leave_int64(monkeypatch):
    # a piece with a denominator near 2^61 scales the table past int64 even
    # at denominator bound 2; the check refuses before any product wraps
    huge = planner.Piece("huge", F(0), F(1), True, True, F(1, 2**61 - 1), F(0))
    monkeypatch.setattr(planner, "_PIECES", planner.PiecewiseBound((*PIECES.pieces, huge)))
    with pytest.raises(OverflowError, match="leaves int64"):
        verify_critical_line_coverage(max_denominator=2)
    with pytest.raises(OverflowError, match="leaves int64"):
        planner.envelope_grid(2)


@pytest.mark.parametrize("bound", [0, -5])
def test_rationals_refuse_a_bound_below_one(bound):
    with pytest.raises(ValueError, match="denominator bound"):
        planner._rational_blocks(bound)
    with pytest.raises(ValueError, match="denominator bound"):
        planner.envelope_grid(bound)
    with pytest.raises(ValueError, match="denominator bound"):
        verify_critical_line_coverage(max_denominator=bound)


def test_coverage_report():
    rep = verify_critical_line_coverage(max_denominator=200)
    assert rep.coverage
    assert not rep.failures
    assert rep.crossovers["resonance"] == F(332, 819)
    assert rep.crossovers["pair"] == F(11, 28)
    assert rep.crossovers["trivial"] == F(13, 42)
    assert rep.crossovers["main"] == F(17, 42)
    # interval overlap that makes the union work
    assert F(17, 42) < F(332, 819)


def test_arc_modulus_exact_square():
    # 2 M^3 = c N T makes the ratio exactly 1
    assert arc_modulus(T=64.0, M=4, N=2.0, c=1.0) == 1
    assert arc_modulus(T=32.0, M=4, N=2.0, c=1.0) == 2  # ratio 2 -> ceil(sqrt(2))


def test_arc_modulus_halving_c():
    T, M, N, c = 1.0e6, 1000, 19.0, 0.8
    r_exact = math.sqrt(2 * M**3 / (c * N * T))
    R2 = arc_modulus(T, M, N, c / 2)
    target = math.ceil(math.sqrt(2) * r_exact)
    assert target - 1 <= R2 <= target + 1


def test_arc_modulus_validation():
    with pytest.raises(ValueError):
        arc_modulus(float("inf"), 10, 1.0)
    with pytest.raises(ValueError):
        arc_modulus(100.0, 10, -1.0)


def test_block_length_main_regime():
    sc = Scenario(T=1.0e6, M=1000)
    N, R = choose_block_length(sc, planner.REGIME_MAIN)
    assert math.isclose(N, 1000 * 1.0e6 ** (-2 / 7), rel_tol=1e-12)
    assert R <= N <= R * R
    assert 1 < N < sc.M


def test_block_length_main_at_sqrt_t():
    # M = sqrt(T) means N = T^(3/14)
    sc = Scenario(T=1.0e6, M=1000)
    N, R = choose_block_length(sc, planner.REGIME_MAIN)
    assert math.isclose(N, 1.0e6 ** (3 / 14), rel_tol=1e-12)
    assert R <= N <= R * R
    assert 1 < N < sc.M


def test_refined_branch_crossover_exact():
    # M T^(-17/57) >= sqrt(M) T^(-1/12) exactly when alpha >= 49/114:
    # solve a - 17/57 = a/2 - 1/12 in exact rationals
    a = (F(17, 57) - F(1, 12)) / F(1, 2)
    assert a == F(49, 114)


def test_compact_regime_tracks_r_squared():
    sc = Scenario(T=1.0e7, M=int(1.0e7 ** 0.41))
    N, R = choose_block_length(sc, planner.REGIME_COMPACT)
    assert N <= R * R <= 4 * N
    assert R <= N
    assert 1 < N < sc.M


def test_choose_block_length_rejects_unknown():
    with pytest.raises(ValueError):
        choose_block_length(Scenario(T=100.0, M=10), "bogus")


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(T=0.5, M=10)
    with pytest.raises(ValueError):
        Scenario(T=100.0, M=1)
    with pytest.raises(ValueError):
        Scenario(T=100.0, M=10, c=0.0)
    with pytest.raises(ValueError):
        Scenario(T=100.0, M=200)  # alpha > 1


def test_make_plan_main():
    plan = make_plan(Scenario(T=1.0e6, M=1000))
    assert plan.regime == planner.REGIME_MAIN
    assert plan.alpha == F(1, 2)
    assert plan.predicted_exponent == F(17, 42)
    assert plan.valid
    assert plan.R <= plan.N <= plan.R**2


def test_make_plan_pair_regime():
    # alpha ~ 0.35: the exponent-pair bound is the envelope witness
    plan = make_plan(Scenario(T=1.0e6, M=126))
    assert plan.regime == planner.REGIME_PAIR
    assert plan.N is None and plan.R is None
    assert plan.valid


def test_make_plan_trivial_regime():
    plan = make_plan(Scenario(T=1.0e6, M=4))
    assert plan.regime == planner.REGIME_TRIVIAL
    assert plan.predicted_exponent == plan.alpha


def test_make_plan_t_threshold():
    plan = make_plan(Scenario(T=1.0e4, M=100), t_threshold=1.0e6)
    assert plan.regime == planner.REGIME_MAIN
    assert not plan.valid
    assert any("threshold" in r for r in plan.reasons)


def test_make_plan_refuses_a_non_finite_threshold():
    # a NaN threshold would never flag T as below it, in any regime
    for scenario in (Scenario(T=10, M=5), Scenario(T=1.0e6, M=126)):
        for threshold in (math.nan, math.inf):
            with pytest.raises(ValueError, match="t_threshold must be finite"):
                make_plan(scenario, t_threshold=threshold)


def test_make_plan_reasons_keep_their_text_and_order():
    plan = make_plan(Scenario(T=20, M=4))
    assert plan.regime == planner.REGIME_MAIN
    assert not plan.valid
    assert plan.reasons == ("R=2 exceeds N=1.69956", "T=20 below threshold 1e+06")
    assert make_plan(Scenario(T=1.0e6, M=1000)).reasons == ("ok",)
    assert make_plan(Scenario(T=1.0e6, M=126)).reasons == ("no block parameters required",)


def assert_arc_modulus(T, M, N, R):
    """R is the least integer >= 1 with R^2 >= 2 M^3 / (N T), decided exactly."""
    bound = 2 * F(M) ** 3 / (F(N) * F(T))
    assert R * R >= bound and (R == 1 or (R - 1) ** 2 < bound)


def test_make_plan_refined_regime():
    # alpha = 21/50 in [5/12, 49/114): the second branch of max(...) wins
    T, M = 2.0**100, 2**42
    plan = make_plan(Scenario(T=T, M=M))
    assert plan.alpha == F(21, 50)
    assert (plan.regime, plan.witness) == (planner.REGIME_REFINED, planner.TAG_SIEVE_MID)
    assert plan.predicted_exponent == envelope(plan.alpha)[0]
    assert M * T ** (-17 / 57) < math.sqrt(M) * T ** (-1 / 12) == plan.N
    assert_arc_modulus(T, M, plan.N, plan.R)
    assert plan.valid


def test_make_plan_compact_regime():
    # alpha = 41/100 in [17/42, 5/12): N = sqrt(2 M^3 / T) = 2^12 = R^2
    T, M = 2.0**100, 2**41
    plan = make_plan(Scenario(T=T, M=M))
    assert plan.alpha == F(41, 100)
    assert (plan.regime, plan.witness) == (planner.REGIME_COMPACT, planner.TAG_SIEVE_LOW)
    assert plan.predicted_exponent == envelope(plan.alpha)[0]
    assert plan.N == math.sqrt(2.0 * M**3 / T) == 4096
    assert_arc_modulus(T, M, plan.N, plan.R)
    assert plan.R == 64 and plan.valid


def test_make_plan_resonance_regime():
    # alpha = 2/5 in (12/31, 17/42): the resonance bound is the envelope
    plan = make_plan(Scenario(T=2.0**100, M=2**40))
    assert plan.alpha == F(2, 5)
    assert (plan.regime, plan.witness) == (planner.REGIME_RESONANCE, planner.TAG_RESONANCE)
    assert plan.predicted_exponent == envelope(plan.alpha)[0] == F(1, 32) + F(103, 128) * F(2, 5)
    assert plan.N is None and plan.R is None
    assert plan.valid and plan.reasons == ("no block parameters required",)


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=0, max_value=F(1, 2), max_denominator=499))
def test_envelope_meets_critical_target_on_half_interval(alpha):
    p, _ = envelope(alpha)
    assert p <= critical_line_target(alpha)
