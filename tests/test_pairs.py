"""Exponent-pair calculus: anchors, exact properties, word search."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import pairs
from zetalab.errors import GuardError
from zetalab.pairs import (
    BASE_PAIR,
    PAIR_13_84,
    ExponentPair,
    SearchResult,
    apply_A,
    apply_B,
    apply_word,
    in_region,
    make_pair,
    parse_word,
    search_words,
    zeta_exponent,
)


def region_pairs():
    """Random exact rationals inside the admissible region.

    The region is {0 <= k <= 1/2, 1/2 <= l <= 1 - k}, so draw k and then
    interpolate l across its admissible range; no filtering needed.
    """
    k_st = st.fractions(min_value=0, max_value=F(1, 2), max_denominator=32)
    t_st = st.fractions(min_value=0, max_value=1, max_denominator=32)
    return st.builds(lambda k, t: make_pair(k, F(1, 2) + t * (F(1, 2) - k)), k_st, t_st)


def test_b_process_values():
    assert apply_B(make_pair(0, 1)).as_tuple() == (F(1, 2), F(1, 2))
    assert apply_B(make_pair(F(1, 14), F(11, 14))).as_tuple() == (F(2, 7), F(4, 7))
    p = make_pair(F(2, 7), F(4, 7))
    assert apply_B(apply_B(p)).as_tuple() == p.as_tuple()


def test_a_process_values():
    assert apply_A(make_pair(0, 1)).as_tuple() == (F(0), F(1))  # fixed point
    assert apply_A(make_pair(F(1, 2), F(1, 2))).as_tuple() == (F(1, 6), F(2, 3))
    assert apply_A(make_pair(F(2, 7), F(4, 7))).as_tuple() == (F(1, 9), F(13, 18))


def test_word_anchor():
    p = apply_word("ABAAB")
    assert p.as_tuple() == (F(1, 9), F(13, 18))
    assert p.word == "ABAAB"


def test_empty_word_is_identity():
    assert apply_word("", BASE_PAIR).as_tuple() == (F(0), F(1))


def test_word_rejects_bad_letters():
    with pytest.raises(ValueError):
        apply_word("ABC")


def test_parse_word():
    assert parse_word("ABA AB") == "ABAAB"
    assert parse_word("ABA^2B") == "ABAAB"
    assert parse_word("ABA2B") == "ABAAB"
    with pytest.raises(ValueError):
        parse_word("2AB")
    with pytest.raises(ValueError):
        parse_word("AxB")


@pytest.mark.parametrize("text", ["A0", "BA0B", "AB^0"])
def test_parse_word_rejects_exponent_zero(text):
    with pytest.raises(ValueError):
        parse_word(text)


def test_zeta_exponent_values():
    assert zeta_exponent(PAIR_13_84) == F(13, 84)
    assert zeta_exponent(make_pair(F(1, 9), F(13, 18))) == F(1, 6)
    assert zeta_exponent(make_pair(F(1, 2), F(1, 2))) == F(1, 4)


def test_monotone_flag():
    assert PAIR_13_84.monotone  # 55/84 - 13/84 = 1/2
    assert make_pair(0, 1).monotone
    assert not make_pair(F(1, 2), F(1, 2)).monotone


def test_pair_region_validation():
    with pytest.raises(ValueError):
        make_pair(F(3, 4), F(3, 4))
    with pytest.raises(ValueError):
        make_pair(F(1, 4), F(1, 4))


@settings(max_examples=1000, deadline=None)
@given(region_pairs())
def test_b_is_involution(p):
    assert apply_B(apply_B(p)).as_tuple() == p.as_tuple()


@settings(max_examples=1000, deadline=None)
@given(region_pairs())
def test_processes_preserve_region(p):
    # construction re-validates the region, so reaching here is the assertion;
    # check the invariants explicitly anyway
    for q in (apply_A(p), apply_B(p)):
        assert in_region(q.k, q.l)


@settings(max_examples=300, deadline=None)
@given(region_pairs())
def test_b_preserves_k_plus_l(p):
    q = apply_B(p)
    assert q.k + q.l == p.k + p.l


@settings(max_examples=300, deadline=None)
@given(region_pairs())
def test_a_keeps_sum_above_half(p):
    q = apply_A(p)
    assert q.k + q.l - F(1, 2) >= 0


def test_search_seed_only():
    res = search_words(5, objective="zeta_exponent", include_axiom=False)
    assert res.value <= F(1, 6)
    # theta = 1/6 is already reached at length 2 by AB(0,1) = (1/6, 2/3); the
    # shortest-word tie-break therefore prefers AB over ABAAB
    assert res.value == F(1, 6)
    assert res.best.word == "AB"
    assert zeta_exponent(apply_word("ABAAB")) == res.value


def test_search_with_axiom():
    res = search_words(5, objective="zeta_exponent")
    assert res.value <= F(13, 84)
    assert res.best.word == "X"


def test_search_length_zero():
    res = search_words(0, include_axiom=False)
    assert res.best.as_tuple() == (F(0), F(1))
    assert res.value == F(1, 4)


def test_search_objectives():
    res = search_words(3, objective="k_plus_l", include_axiom=False)
    assert res.value == F(5, 6)  # AB(0,1) = (1/6, 2/3)
    for name in ("affine", "nonsense"):
        with pytest.raises(ValueError):
            search_words(3, objective=name)


def test_search_guard():
    with pytest.raises(GuardError) as exc:
        search_words(25)
    assert exc.value.guard == "pairs.search_words.max_len"


def unpruned_search(max_len, seeds, include_axiom):
    """The breadth-first word search that applies A and B to every fresh
    pair: the pairs it scores, in order."""
    level = list(seeds) + ([PAIR_13_84] if include_axiom else [])
    seen, scored = set(), []
    for _ in range(max_len + 1):
        fresh = []
        for p in level:
            if p.as_tuple() not in seen:
                seen.add(p.as_tuple())
                fresh.append(p)
        if not fresh:
            break
        scored += fresh
        level = [apply_A(p) for p in fresh] + [apply_B(p) for p in fresh]
    return scored


@pytest.mark.parametrize("include_axiom", [True, False])
@pytest.mark.parametrize("seeds", [
    [BASE_PAIR],
    # seeds whose words begin with B: their B-children must still be made
    [apply_word("BA")],
    [apply_B(PAIR_13_84), apply_word("AB")],
])
def test_search_skips_b_after_b_without_changing_the_search(monkeypatch, seeds, include_axiom):
    """B is an involution, so the B-child of a pair the search made with B
    is a pair already seen; skipping it leaves the scored pairs, their order
    and the result as in the unpruned search."""
    scored = []
    steps = []

    def recording_levels(max_len, pool):
        for fresh in levels(max_len, pool):
            scored.extend(fresh)
            yield fresh

    def counting(fn):
        def counted(t):
            steps.append(t)
            return fn(t)
        return counted

    levels = pairs._levels
    monkeypatch.setattr(pairs, "_levels", recording_levels)
    monkeypatch.setattr(pairs, "_step_A", counting(pairs._step_A))
    monkeypatch.setattr(pairs, "_step_B", counting(pairs._step_B))
    for max_len in range(13):
        scored.clear()
        res = search_words(max_len, seeds, include_axiom=include_axiom)
        want = unpruned_search(max_len, seeds, include_axiom)
        assert [(F(a, d), F(b, d), word) for (a, b, d), word, _ in scored] == [(p.k, p.l, p.word) for p in want]
        best = min(want, key=zeta_exponent)
        assert (res.best, res.value) == (best, zeta_exponent(best))
    steps.clear()
    search_words(4)
    assert len(steps) == 19  # 22 without the skip; 30 when the unscored length-5 children were built


def fraction_search(max_len, seeds=None, objective="zeta_exponent", include_axiom=True):
    """The word search on `Fraction` pairs, with its own copies of A, B and
    the objectives: the reference the triple search must reproduce."""
    def step_a(p):
        d = 2 * p.k + 2
        return ExponentPair(p.k / d, (p.k + p.l + 1) / d, "A" + p.word)

    def step_b(p):
        return ExponentPair(p.l - F(1, 2), p.k + F(1, 2), "B" + p.word)

    score = {"zeta_exponent": lambda p: (p.k + p.l) / 2 - F(1, 4), "k_plus_l": lambda p: p.k + p.l}[objective]
    pool = list(seeds) if seeds is not None else [BASE_PAIR]
    if include_axiom:
        pool = pool + [PAIR_13_84]
    best = best_value = None
    seen = set()
    level = [(p, False) for p in pool]
    for _ in range(max_len + 1):
        fresh = []
        for p, by_b in level:
            if p.as_tuple() in seen:
                continue
            seen.add(p.as_tuple())
            fresh.append((p, by_b))
            v = score(p)
            if best_value is None or v < best_value:
                best, best_value = p, v
        if not fresh:
            break
        level = [(step_a(p), False) for p, _ in fresh] + [(step_b(p), True) for p, by_b in fresh if not by_b]
    return SearchResult(best, best_value)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(region_pairs(), min_size=1, max_size=3),
    st.sampled_from(pairs.OBJECTIVES),
    st.booleans(),
    st.integers(min_value=0, max_value=10),
)
def test_search_matches_fraction_search(seeds, objective, include_axiom, max_len):
    got = search_words(max_len, seeds, objective, include_axiom)
    want = fraction_search(max_len, seeds, objective, include_axiom)
    assert got == want
    assert (got.best.word, type(got.value), type(got.best.k), type(got.best.l)) == (want.best.word, F, F, F)


@pytest.mark.parametrize("max_len, include_axiom, word, value", [
    (16, True, "X", F(13, 84)),
    (20, True, "X", F(13, 84)),
    (16, False, "ABAAABAABABABAAB", F(1399, 8504)),
    (20, False, "ABAAABAABABABAABAAB", F(585, 3556)),
])
def test_search_pinned_results(max_len, include_axiom, word, value):
    res = search_words(max_len, include_axiom=include_axiom)
    assert (res.best.word, res.value) == (word, value)
    assert res.best == (PAIR_13_84 if word == "X" else apply_word(word))
    assert zeta_exponent(res.best) == value
