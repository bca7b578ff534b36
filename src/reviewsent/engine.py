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

``score_text`` applies these rules in a single pass and builds no
tokens: one scan finds the emoticons, ``str.split`` cuts the text
between them into whitespace chunks, and each chunk maps to the
(score, boost) of the one word it holds, or to nothing when it is all
punctuation. That mapping is remembered per lexicon in a memo of at
most ``CHUNK_MEMO_LIMIT`` chunks. ``tokenize`` and ``TokenStream`` give
the same tokens explicitly, for inspection and debugging.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Iterator

from .emojis import EmojiLexicon, substitute_emojis
from .lexicon import Lexicon, emoticon_pattern

if TYPE_CHECKING:
    from .store import Review

POSITIVE_RANGE = (1, 5)
NEGATIVE_RANGE = (-5, -1)

# how many tokens ahead a booster may reach
BOOSTER_WINDOW = 2

# distinct chunks remembered per lexicon; an unbounded memo grows with
# the vocabulary of everything scored (40 MiB for 300k chunks)
CHUNK_MEMO_LIMIT = 1 << 14

_REPEATED_LETTERS = re.compile(r"([^\W\d_])\1{2,}", re.UNICODE)
_CHUNK = re.compile(r"\S+")
_UNSEEN = object()


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


def _two_letters(match: re.Match) -> str:
    # a callable, because Python 3.11 expands a template such as r"\1\1"
    # in Python on every match
    return match[1] * 2


def _normalize_word(surface: str) -> str:
    word = surface.lower()
    if _REPEATED_LETTERS.search(word):
        word = _REPEATED_LETTERS.sub(_two_letters, word)
    return word


def _is_punctuation(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def tokenize(text: str, emoticons: Iterable[str] = ()) -> TokenStream:
    """Split a text into word, emoticon, and punctuation tokens.

    Emoticon strings are matched anywhere in the text, longest first,
    before word splitting, so "nice:)" yields a word and an emoticon.
    """
    tokens: list[Token] = []
    pattern = emoticon_pattern(emoticons)
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


def _chunk_entry(lexicon: Lexicon, chunk: str) -> tuple[int, int | None] | None:
    """(score, boost) of the word in a whitespace chunk, None when the
    chunk is all punctuation. Peels and normalizes as ``tokenize`` does;
    the boost is None unless the word is a booster."""
    i, j = 0, len(chunk)
    if not chunk[0].isalnum():  # no letter or digit is punctuation
        while i < j and _is_punctuation(chunk[i]):
            i += 1
    if not chunk[-1].isalnum():
        while j > i and _is_punctuation(chunk[j - 1]):
            j -= 1
    if i == j:
        return None
    term = _normalize_word(chunk[i:j])
    score = lexicon.sentiment_terms.get(lexicon.slang.get(term, term), 0)
    return score, lexicon.boosters.get(term)


def score_text(lexicon: Lexicon, text: str) -> SentimentScore:
    """Score a text: maximum positive and minimum negative token score.

    Boosters add their value to the magnitude of the next
    sentiment-bearing token within two tokens (punctuation does not
    count toward the distance); several boosters aiming at one token
    accumulate before a single clamp back into range. A text with no
    scored tokens is (1, -1).
    """
    pattern, memo = lexicon._compiled
    # even parts lie between emoticons, odd parts are emoticons
    parts = pattern.split(text) if pattern is not None else (text,)
    scores: list[int] = []  # of the tokens that are not punctuation
    boosters: list[tuple[int, int]] = []  # (token index, boost)
    for k, part in enumerate(parts):
        if k & 1:
            scores.append(lexicon.emoticons[part])
            continue
        for chunk in part.split():
            entry = memo.get(chunk, _UNSEEN)
            if entry is _UNSEEN:
                entry = _chunk_entry(lexicon, chunk)
                if len(memo) >= CHUNK_MEMO_LIMIT:
                    memo.clear()
                memo[chunk] = entry
            if entry is not None:
                score, boost = entry
                if boost is not None:
                    boosters.append((len(scores), boost))
                scores.append(score)

    last = len(scores) - 1
    boosts: dict[int, int] = {}
    for i, boost in boosters:
        for j in range(i + 1, min(i + BOOSTER_WINDOW, last) + 1):
            if scores[j] != 0:
                boosts[j] = boosts.get(j, 0) + boost
                break
    for j, boost in boosts.items():
        score = scores[j]
        scores[j] = _clamp(score + boost, 1, 5) if score > 0 else _clamp(score - boost, -5, -1)
    return SentimentScore(max(1, max(scores, default=1)), min(-1, min(scores, default=-1)))


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
