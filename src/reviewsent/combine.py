"""The dual (positive, negative) score and its reduction to one value on
the -5..+5 scale.

A :class:`SentimentScore` holds two ``int`` strengths, positive in [1,5]
and negative in [-5,-1]; building one otherwise raises. This module
imports only the record base from the package, so the store and the
reports read scores without loading the scorer.

The positive strength wins when it outweighs the negative one and vice
versa. Balanced scores are neutral (0) when weak, and unclassifiable
when both sides are strong (p = -n with p >= 4); unclassifiable is
modeled as ``None`` and serialized as the literal string "undefined".
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .records import Checked, mistyped

POSITIVE_RANGE = (1, 5)
NEGATIVE_RANGE = (-5, -1)

UNDEFINED_LITERAL = "undefined"

# p = -n pairs that cannot be classified
UNDEFINED_THRESHOLD = 4


class Polarity(Enum):
    POSITIVE = "positive"
    NEUTRAL = "neutral"
    NEGATIVE = "negative"
    UNDEFINED = "undefined"


class _SentimentScore(NamedTuple):
    positive: int
    negative: int


class SentimentScore(Checked, _SentimentScore):
    """Dual sentiment strengths: ints, positive in [1,5], negative in [-5,-1]."""

    __slots__ = ()

    def __new__(cls, positive, negative):
        score = tuple.__new__(cls, (positive, negative))
        if not type(positive) is type(negative) is int:
            raise ValueError(mistyped("score", score))
        if not POSITIVE_RANGE[0] <= positive <= POSITIVE_RANGE[1]:
            raise ValueError(f"positive strength {positive} outside [1,5]")
        if not NEGATIVE_RANGE[0] <= negative <= NEGATIVE_RANGE[1]:
            raise ValueError(f"negative strength {negative} outside [-5,-1]")
        return score


def combine(score: SentimentScore) -> int | None:
    """Combined sentiment of a dual score; ``None`` means unclassifiable."""
    p, n = score.positive, score.negative
    total = p + n
    if total > 0:
        return p
    if total < 0:
        return n
    return None if p >= UNDEFINED_THRESHOLD else 0


def polarity_class(combined: int | None) -> Polarity:
    """Polarity bucket of a combined sentiment."""
    if combined is None:
        return Polarity.UNDEFINED
    if combined > 0:
        return Polarity.POSITIVE
    if combined < 0:
        return Polarity.NEGATIVE
    return Polarity.NEUTRAL


def format_combined(combined: int | None) -> str:
    """Serialized form: the integer, or "undefined"."""
    return UNDEFINED_LITERAL if combined is None else str(combined)


def parse_combined(text: str) -> int | None:
    """Inverse of :func:`format_combined`."""
    if text == UNDEFINED_LITERAL:
        return None
    value = int(text)
    if not -5 <= value <= 5:
        raise ValueError(f"combined sentiment {value} outside [-5, 5]")
    return value
