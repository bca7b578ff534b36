"""Tokenizer and dual-polarity scorer for informal review text.

Every text receives a positive strength in [1,5] and a negative
strength in [-5,-1]. Token scores come from dictionary lookups
(sentiment terms by normalized form after slang resolution, emoticons
by raw surface); the text score is the maximum positive and minimum
negative token score. Booster words deepen or soften the next
sentiment-bearing token within a two-token window.

Tokenization is deliberately minimal: emoticons from the lexicon are
recognized greedily (longest first) before anything else, the rest is
split on whitespace with leading/trailing punctuation peeled off into
punctuation tokens. Normalized word forms are lowercased with letter
runs of three or more collapsed to two ("soooo" -> "soo").
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Iterator

from .emojis import EmojiLexicon, substitute_emojis
from .lexicon import Lexicon

if TYPE_CHECKING:
    from .store import Review

POSITIVE_RANGE = (1, 5)
NEGATIVE_RANGE = (-5, -1)

# how many tokens ahead a booster may reach
BOOSTER_WINDOW = 2

_REPEATED_LETTERS = re.compile(r"([^\W\d_])\1{2,}", re.UNICODE)
_CHUNK = re.compile(r"\S+")


class TokenKind(Enum):
    WORD = "word"
    EMOTICON = "emoticon"
    PUNCTUATION = "punctuation"


@dataclass(frozen=True)
class Token:
    surface: str
    normalized: str
    kind: TokenKind
    start: int  # offset into the source text


@dataclass(frozen=True)
class TokenStream:
    """Tokens of one text, with enough positions to rebuild the input."""

    text: str
    tokens: tuple[Token, ...]

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def reconstruct(self) -> str:
        """Source text rebuilt from token surfaces and the gaps between them."""
        parts: list[str] = []
        pos = 0
        for token in self.tokens:
            parts.append(self.text[pos : token.start])
            parts.append(token.surface)
            pos = token.start + len(token.surface)
        parts.append(self.text[pos:])
        return "".join(parts)


@dataclass(frozen=True)
class SentimentScore:
    """Dual sentiment strengths: positive in [1,5], negative in [-5,-1]."""

    positive: int
    negative: int

    def __post_init__(self):
        if not POSITIVE_RANGE[0] <= self.positive <= POSITIVE_RANGE[1]:
            raise ValueError(f"positive strength {self.positive} outside [1,5]")
        if not NEGATIVE_RANGE[0] <= self.negative <= NEGATIVE_RANGE[1]:
            raise ValueError(f"negative strength {self.negative} outside [-5,-1]")


def _normalize_word(surface: str) -> str:
    return _REPEATED_LETTERS.sub(r"\1\1", surface.lower())


def _is_punctuation(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _emoticon_pattern(emoticons: Iterable[str]) -> re.Pattern[str] | None:
    faces = sorted(emoticons, key=lambda f: (-len(f), f))
    if not faces:
        return None
    return re.compile("|".join(re.escape(face) for face in faces))


def tokenize(text: str, emoticons: Iterable[str] = ()) -> TokenStream:
    """Split a text into word, emoticon, and punctuation tokens.

    Emoticon strings are matched anywhere in the text, longest first,
    before word splitting, so "nice:)" yields a word and an emoticon.
    """
    tokens: list[Token] = []
    pattern = _emoticon_pattern(emoticons)
    spans = (
        [(m.start(), m.end()) for m in pattern.finditer(text)] if pattern else []
    )
    pos = 0
    for start, end in spans + [(len(text), len(text))]:
        _tokenize_words(text, pos, start, tokens)
        if start < end:
            surface = text[start:end]
            tokens.append(Token(surface, surface, TokenKind.EMOTICON, start))
        pos = end
    return TokenStream(text=text, tokens=tuple(tokens))


def _tokenize_words(text: str, lo: int, hi: int, out: list[Token]) -> None:
    for match in _CHUNK.finditer(text, lo, hi):
        chunk = match.group()
        base = match.start()
        i, j = 0, len(chunk)
        while i < j and _is_punctuation(chunk[i]):
            i += 1
        while j > i and _is_punctuation(chunk[j - 1]):
            j -= 1
        if i > 0:
            out.append(Token(chunk[:i], chunk[:i], TokenKind.PUNCTUATION, base))
        if i < j:
            word = chunk[i:j]
            out.append(Token(word, _normalize_word(word), TokenKind.WORD, base + i))
        if i < j < len(chunk):
            out.append(Token(chunk[j:], chunk[j:], TokenKind.PUNCTUATION, base + j))


def _clamp(value: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, value))


def _token_score(lexicon: Lexicon, token: Token) -> int:
    """Dictionary score of one token, 0 when unknown."""
    if token.kind is TokenKind.EMOTICON:
        return lexicon.emoticons.get(token.surface, 0)
    term = token.normalized
    term = lexicon.slang.get(term, term)
    return lexicon.sentiment_terms.get(term, 0)


def score_text(lexicon: Lexicon, text: str) -> SentimentScore:
    """Score a text: maximum positive and minimum negative token score.

    Boosters add their value to the magnitude of the next
    sentiment-bearing token within two tokens (punctuation does not
    count toward the distance); several boosters aiming at one token
    accumulate before a single clamp back into range. A text with no
    scored tokens is (1, -1).
    """
    stream = tokenize(text, lexicon.emoticons)
    scoring = [t for t in stream if t.kind is not TokenKind.PUNCTUATION]
    base = [_token_score(lexicon, token) for token in scoring]

    boosts = [0] * len(scoring)
    for i, token in enumerate(scoring):
        if token.kind is not TokenKind.WORD:
            continue
        boost = lexicon.boosters.get(token.normalized)
        if boost is None:
            continue
        for j in range(i + 1, min(i + BOOSTER_WINDOW, len(scoring) - 1) + 1):
            if base[j] != 0:
                boosts[j] += boost
                break

    positive, negative = 1, -1
    for score, boost in zip(base, boosts):
        if score > 0:
            positive = max(positive, _clamp(score + boost, 1, 5))
        elif score < 0:
            negative = min(negative, _clamp(score - boost, -5, -1))
    return SentimentScore(positive, negative)


def score_review(
    lexicon: Lexicon,
    review: "Review",
    emoji_lexicon: EmojiLexicon | None = None,
) -> SentimentScore:
    """Score one review, or any object with ``.title`` and ``.body``:
    title and body joined by a space.

    When an emoji lexicon is given, emojis are rewritten to emoticon
    tokens before scoring.
    """
    text = f"{review.title} {review.body}"
    if emoji_lexicon is not None:
        text = substitute_emojis(text, emoji_lexicon)
    return score_text(lexicon, text)
