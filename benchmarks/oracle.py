"""A short, independent implementation of the scoring rules in README.md.

The benchmark generator builds every review from pieces and uses this
module to know each piece's (positive, negative) score before the
program under test ever sees the text. It shares no code with
``reviewsent``: lexicons are plain dicts and the rules are re-derived
from the README.

- Emojis in the selected emoji map are replaced, longest sequence first,
  by their polarity's emoticon token, standing alone between spaces.
- Emoticons are matched longest first anywhere in a chunk; what lies
  between them splits on whitespace and loses leading and trailing
  punctuation (Unicode category P*).
- Words are lowercased and letter runs of 3+ collapse to 2. Slang
  resolves before the sentiment lookup; boosters match the word itself.
- A booster adds its value to the magnitude of the next scored token at
  most two scoring tokens ahead; boosts accumulate, then clamp.
- Text score: max positive and min negative token score, (1, -1) if none.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field

SUBSTITUTION_TOKENS = {1: ":)", -1: ":(", 0: ":|"}
BOOSTER_REACH = 2


@dataclass
class OracleLexicon:
    """Plain dictionaries: words already lowercased, emoticons verbatim."""

    sentiment: dict[str, int]
    boosters: dict[str, int]
    emoticons: dict[str, int]
    slang: dict[str, str]
    emojis: dict[str, int] = field(default_factory=dict)  # selected emoji -> polarity

    def __post_init__(self):
        self._emoji_lengths = sorted({len(e) for e in self.emojis}, reverse=True)
        self._face_lengths = sorted({len(f) for f in self.emoticons}, reverse=True)


def substitute(text: str, lex: OracleLexicon) -> tuple[str, int]:
    """Text with selected emojis replaced, and the number replaced."""
    out: list[str] = []
    replaced = 0
    i = 0
    while i < len(text):
        for length in lex._emoji_lengths:
            polarity = lex.emojis.get(text[i : i + length])
            if polarity is not None:
                out.append(f" {SUBSTITUTION_TOKENS[polarity]} ")
                replaced += 1
                i += length
                break
        else:
            out.append(text[i])
            i += 1
    return "".join(out), replaced


def normalize(word: str) -> str:
    """Lowercased, with runs of 3+ equal letters cut to 2."""
    out: list[str] = []
    for ch in word.lower():
        if ch.isalpha() and len(out) >= 2 and out[-1] == ch and out[-2] == ch:
            continue
        out.append(ch)
    return "".join(out)


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch)[0] == "P"


def _words(segment: str) -> list[tuple[str, str]]:
    tokens = []
    for chunk in segment.split():
        i, j = 0, len(chunk)
        while i < j and _is_punct(chunk[i]):
            i += 1
        while j > i and _is_punct(chunk[j - 1]):
            j -= 1
        if i < j:
            tokens.append(("word", normalize(chunk[i:j])))
    return tokens


def _tokens(text: str, lex: OracleLexicon) -> list[tuple[str, str]]:
    """Scoring tokens (kind, key) in order; punctuation is dropped."""
    tokens: list[tuple[str, str]] = []
    for chunk in text.split():
        start = i = 0
        while i < len(chunk):
            face = next(
                (
                    chunk[i : i + n]
                    for n in lex._face_lengths
                    if chunk[i : i + n] in lex.emoticons
                ),
                None,
            )
            if face is None:
                i += 1
                continue
            tokens.extend(_words(chunk[start:i]))
            tokens.append(("face", face))
            i += len(face)
            start = i
        tokens.extend(_words(chunk[start:]))
    return tokens


def score(text: str, lex: OracleLexicon) -> tuple[int, int]:
    """Expected (positive, negative) of a text under the README rules."""
    text, _ = substitute(text, lex)
    tokens = _tokens(text, lex)
    base = [
        lex.emoticons[key]
        if kind == "face"
        else lex.sentiment.get(lex.slang.get(key, key), 0)
        for kind, key in tokens
    ]
    boost = [0] * len(tokens)
    for i, (kind, key) in enumerate(tokens):
        if kind == "word" and key in lex.boosters:
            for j in range(i + 1, min(i + BOOSTER_REACH + 1, len(tokens))):
                if base[j]:
                    boost[j] += lex.boosters[key]
                    break
    positive, negative = 1, -1
    for value, extra in zip(base, boost):
        if value > 0:
            positive = max(positive, min(5, max(1, value + extra)))
        elif value < 0:
            negative = min(negative, max(-5, min(-1, value - extra)))
    return positive, negative


def merge(scores) -> tuple[int, int]:
    """Score of a text made of pieces that cannot interact."""
    positive, negative = 1, -1
    for p, n in scores:
        positive, negative = max(positive, p), min(negative, n)
    return positive, negative


def combined(positive: int, negative: int) -> int | None:
    """Combined sentiment; None is undefined (balanced and strong)."""
    total = positive + negative
    if total > 0:
        return positive
    if total < 0:
        return negative
    return None if positive >= 4 else 0
