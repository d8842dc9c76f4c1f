"""Exact exponent-pair calculus.

Van der Corput A/B processes on pairs (k, l), word evaluation (rightmost
letter applied first), the critical-line exponent theta(k, l) delivered by a
pair, and an exhaustive word search. All arithmetic is exact; no floating
point enters this module.

Inside, a pair is the canonical integer triple (a, b, d) with k = a/d,
l = b/d, d > 0 and gcd(a, b, d) = 1, so equal pairs have equal triples. The
processes, the region check and the objectives are integer formulas on
triples; the API speaks `Fraction`s, and the word search turns only its
winner back into an `ExponentPair`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Sequence

from .errors import GuardError

HALF = Fraction(1, 2)

# Longest word the search admits. With the axiom, one fresh process each on a
# 2-core host: length 22 takes 0.18-0.22 s and 46 MB, 24 takes 0.52-0.77 s
# and 90 MB, 26 takes 1.7-2.7 s and 239 MB. Words with no BB, and so the levels
# and the `seen` set, grow by about the golden ratio per letter.
MAX_WORD_SEARCH_LEN = 24

Triple = tuple[int, int, int]


def _triple(k: Fraction, l: Fraction) -> Triple:
    """The canonical triple of (k, l): d = lcm of the reduced denominators."""
    d = lcm(k.denominator, l.denominator)
    return k.numerator * (d // k.denominator), l.numerator * (d // l.denominator), d


def _checked(a: int, b: int, d: int) -> Triple:
    """(a, b, d) divided by its gcd; ValueError outside the admissible region
    of `in_region`, here in integers."""
    if not (0 <= 2 * a <= d <= 2 * b <= 2 * d and d <= 2 * (a + b) <= 2 * d):
        raise ValueError(f"pair ({Fraction(a, d)}, {Fraction(b, d)}) outside the admissible region")
    g = gcd(a, b, d)
    return a // g, b // g, d // g


def _step_A(t: Triple) -> Triple:
    """A on a triple: (a, b, d) -> (a, a + b + d, 2a + 2d)."""
    a, b, d = t
    return _checked(a, a + b + d, 2 * (a + d))


def _step_B(t: Triple) -> Triple:
    """B on a triple: (a, b, d) -> (2b - d, 2a + d, 2d)."""
    a, b, d = t
    return _checked(2 * b - d, 2 * a + d, 2 * d)


def _theta(t: Triple) -> tuple[int, int]:
    """theta = (2(a + b) - d) / (4d), as (numerator, positive denominator)."""
    a, b, d = t
    return 2 * (a + b) - d, 4 * d


def _k_plus_l(t: Triple) -> tuple[int, int]:
    """k + l = (a + b) / d, as (numerator, positive denominator)."""
    a, b, d = t
    return a + b, d


_OBJECTIVES = {"zeta_exponent": _theta, "k_plus_l": _k_plus_l}
OBJECTIVES = tuple(_OBJECTIVES)


def in_region(k: Fraction, l: Fraction) -> bool:
    """Admissible region: 0 <= k <= 1/2 <= l <= 1 and 1/2 <= k + l <= 1."""
    try:
        _checked(*_triple(k, l))
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class ExponentPair:
    """An exponent pair (k, l) plus the word that produced it from a seed pair.

    Epsilon losses are never stored; reports append them textually where
    they matter.
    """

    k: Fraction
    l: Fraction
    word: str = ""

    def __post_init__(self):
        if not in_region(self.k, self.l):
            raise ValueError(f"pair ({self.k}, {self.l}) outside the admissible region")

    @property
    def monotone(self) -> bool:
        """True when l - k >= 1/2, i.e. the M = sqrt(T) extremal case applies."""
        return self.l - self.k >= HALF

    def as_tuple(self) -> tuple[Fraction, Fraction]:
        return (self.k, self.l)


def make_pair(k, l, word: str = "") -> ExponentPair:
    return ExponentPair(Fraction(k), Fraction(l), word)


#: The trivial seed pair.
BASE_PAIR = make_pair(0, 1)

#: The sharpened pair injected as an axiom (word "X"); its derivation is not
#: re-done here, only its consequences are used.
PAIR_13_84 = make_pair(Fraction(13, 84), Fraction(55, 84), word="X")


def _pair(t: Triple, word: str) -> ExponentPair:
    a, b, d = t
    return ExponentPair(Fraction(a, d), Fraction(b, d), word)


def apply_B(p: ExponentPair) -> ExponentPair:
    """B-process: (k, l) -> (l - 1/2, k + 1/2). An involution preserving k+l."""
    return _pair(_step_B(_triple(p.k, p.l)), "B" + p.word)


def apply_A(p: ExponentPair) -> ExponentPair:
    """A-process: (k, l) -> (k/(2k+2), (k+l+1)/(2k+2))."""
    return _pair(_step_A(_triple(p.k, p.l)), "A" + p.word)


def parse_word(text: str) -> str:
    """Normalize a word: drop spaces and carets, expand single-digit powers
    ("ABA2B" -> "ABAAB")."""
    out: list[str] = []
    prev = ""
    for ch in text.replace(" ", "").replace("^", ""):
        if ch in "AB":
            out.append(ch)
            prev = ch
        elif ch.isdigit():
            if not prev:
                raise ValueError(f"exponent digit with no preceding process in {text!r}")
            if ch == "0":
                raise ValueError(f"exponent 0 in word {text!r} (powers run from 1 to 9)")
            out.extend(prev * (int(ch) - 1))
            prev = ""
        else:
            raise ValueError(f"invalid process letter {ch!r} in word {text!r}")
    return "".join(out)


def apply_word(word: str, seed: ExponentPair | tuple = BASE_PAIR) -> ExponentPair:
    """Apply a word over {A, B} to a seed pair, rightmost letter first."""
    p = seed if isinstance(seed, ExponentPair) else make_pair(*seed)
    for ch in reversed(word):
        if ch == "A":
            p = apply_A(p)
        elif ch == "B":
            p = apply_B(p)
        else:
            raise ValueError(f"invalid process letter {ch!r} (expected A or B)")
    return p


def zeta_exponent(p: ExponentPair) -> Fraction:
    """Critical-line exponent theta(k, l) = (k + l)/2 - 1/4 delivered by a pair.

    The extremal-case validity flag lives on the pair itself
    (ExponentPair.monotone).
    """
    return Fraction(*_theta(_triple(p.k, p.l)))


@dataclass(frozen=True)
class SearchResult:
    best: ExponentPair
    value: Fraction


def _levels(max_len: int, pool: Sequence[tuple[Triple, str]]) -> Iterator[list[tuple[Triple, str, bool]]]:
    """The levels of the word search from the (triple, word) seeds: for each
    word length up to max_len, the pairs not seen before, as
    (triple, word, made by B in this search), first occurrence kept. The
    children of the last level are never built."""
    seen: set[Triple] = set()
    level = [(t, word, False) for t, word in pool]
    for length in range(max_len + 1):
        fresh = []
        for item in level:
            if item[0] not in seen:
                seen.add(item[0])
                fresh.append(item)
        if not fresh:
            return
        yield fresh
        if length == max_len:
            return
        # A-children of the whole level before B-children keeps each level in
        # lexicographic word order. B is an involution, so the B-child of a
        # pair this search made with B is the pair two levels up, already
        # seen; a seed keeps its B-child whatever its word.
        level = [(_step_A(t), "A" + word, False) for t, word, _ in fresh]
        level += [(_step_B(t), "B" + word, True) for t, word, by_b in fresh if not by_b]


def search_words(
    max_len: int,
    seeds: Sequence[ExponentPair] | None = None,
    objective: str = "zeta_exponent",
    include_axiom: bool = True,
) -> SearchResult:
    """Exact global minimum of the objective over all words of length <= max_len.

    Words are applied to every seed (the axiom pair (13/84, 55/84) is included
    unless disabled). Ties break toward the shorter word, then the
    lexicographically smaller one, then seed order; distinct words reaching
    the same pair are collapsed onto the first occurrence, which is exactly
    the tie-break winner. The search runs on integer triples and compares
    objective values by cross-multiplication; only the winner becomes an
    `ExponentPair` and a `Fraction` value.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    GuardError.check("pairs.search_words.max_len", max_len, MAX_WORD_SEARCH_LEN, f"max_len={max_len}")
    if objective not in _OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r} (expected one of {OBJECTIVES})")
    score = _OBJECTIVES[objective]
    pool = list(seeds) if seeds is not None else [BASE_PAIR]
    if include_axiom:
        pool = pool + [PAIR_13_84]
    if not pool:
        raise ValueError("no seeds to search from")

    best: tuple[Triple, str] | None = None
    best_num, best_den = 0, 0
    for fresh in _levels(max_len, [(_triple(p.k, p.l), p.word) for p in pool]):
        for t, word, _ in fresh:
            num, den = score(t)
            # num/den < best_num/best_den with both denominators positive
            if best is None or num * best_den < best_num * den:
                best, best_num, best_den = (t, word), num, den
    assert best is not None
    return SearchResult(_pair(*best), Fraction(best_num, best_den))
