"""Exact exponent-pair calculus.

Van der Corput A/B processes on pairs (k, l), word evaluation (rightmost
letter applied first), the critical-line exponent theta(k, l) delivered by a
pair, and an exhaustive word search. All arithmetic is exact rational; no
floating point enters this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import GuardError

HALF = Fraction(1, 2)

MAX_WORD_SEARCH_LEN = 20

OBJECTIVES = ("zeta_exponent", "k_plus_l")


def in_region(k: Fraction, l: Fraction) -> bool:
    """Admissible region: 0 <= k <= 1/2 <= l <= 1 and 1/2 <= k + l <= 1."""
    return 0 <= k <= HALF <= l <= 1 and HALF <= k + l <= 1


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


def apply_B(p: ExponentPair) -> ExponentPair:
    """B-process: (k, l) -> (l - 1/2, k + 1/2). An involution preserving k+l."""
    return ExponentPair(p.l - HALF, p.k + HALF, "B" + p.word)


def apply_A(p: ExponentPair) -> ExponentPair:
    """A-process: (k, l) -> (k/(2k+2), (k+l+1)/(2k+2))."""
    d = 2 * p.k + 2
    return ExponentPair(p.k / d, (p.k + p.l + 1) / d, "A" + p.word)


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
    return (p.k + p.l) / 2 - Fraction(1, 4)


@dataclass(frozen=True)
class SearchResult:
    best: ExponentPair
    value: Fraction


def _objective(name: str) -> Callable[[ExponentPair], Fraction]:
    if name == "zeta_exponent":
        return zeta_exponent
    if name == "k_plus_l":
        return lambda p: p.k + p.l
    raise ValueError(f"unknown objective {name!r} (expected one of {OBJECTIVES})")


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
    the tie-break winner.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if max_len > MAX_WORD_SEARCH_LEN:
        raise GuardError(
            "pairs.search_words.max_len",
            f"max_len={max_len} exceeds the word-search guard {MAX_WORD_SEARCH_LEN}",
        )
    score = _objective(objective)
    pool = list(seeds) if seeds is not None else [BASE_PAIR]
    if include_axiom:
        pool = pool + [PAIR_13_84]
    if not pool:
        raise ValueError("no seeds to search from")

    best: ExponentPair | None = None
    best_value: Fraction | None = None
    seen: set[tuple[Fraction, Fraction]] = set()
    # (pair, made by apply_B in this search)
    level = [(p, False) for p in pool]
    for _ in range(max_len + 1):
        fresh = []
        for p, by_b in level:
            key = p.as_tuple()
            if key in seen:
                continue
            seen.add(key)
            fresh.append((p, by_b))
            v = score(p)
            if best_value is None or v < best_value:
                best, best_value = p, v
        if not fresh:
            break
        # A-children of the whole level before B-children keeps each level in
        # lexicographic word order. B is an involution, so the B-child of a
        # pair this search made with B is the pair two levels up, already
        # seen; a seed keeps its B-child whatever its word.
        level = [(apply_A(p), False) for p, _ in fresh] + [(apply_B(p), True) for p, by_b in fresh if not by_b]
    assert best is not None and best_value is not None
    return SearchResult(best, best_value)
