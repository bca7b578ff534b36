"""Emoji sentiment lexicon and pre-scoring text substitution.

Emojis carry a coarse polarity (-1, 0, +1). Before scoring, each emoji
known to the lexicon is rewritten to an ASCII emoticon token the scorer
understands; everything else in the text is left byte-identical. Multi
codepoint emojis (variation selectors, skin tones, ZWJ sequences) are
matched longest-first so no partial replacement can corrupt the text.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Mapping

from .lexicon import LexiconError

POLARITIES = (-1, 0, 1)

# ":|" must stay absent from the emoticon dictionary so neutral emojis
# score (1, -1)
DEFAULT_SUBSTITUTIONS: Mapping[int, str] = {1: ":)", -1: ":(", 0: ":|"}

DEFAULT_MIN_OCCURRENCES = 100


class EmojiLexiconError(LexiconError):
    """Malformed emoji lexicon input."""


@dataclass(frozen=True)
class EmojiEntry:
    emoji: str  # full codepoint sequence
    occurrences: int
    polarity: int

    def __post_init__(self):
        if not self.emoji:
            raise EmojiLexiconError("empty emoji codepoint sequence")
        if self.occurrences < 0:
            raise EmojiLexiconError(f"negative occurrence count for {self.emoji!r}")
        if self.polarity not in POLARITIES:
            raise EmojiLexiconError(
                f"polarity {self.polarity} for {self.emoji!r} not in {{-1, 0, 1}}"
            )


@dataclass(frozen=True)
class EmojiLexicon:
    entries: tuple[EmojiEntry, ...] = ()
    substitutions: Mapping[int, str] = field(
        default_factory=lambda: dict(DEFAULT_SUBSTITUTIONS)
    )

    def __post_init__(self):
        seen: set[str] = set()
        for entry in self.entries:
            if entry.emoji in seen:
                raise EmojiLexiconError(f"duplicate emoji {entry.emoji!r}")
            seen.add(entry.emoji)
        missing = [p for p in POLARITIES if p not in self.substitutions]
        if missing:
            raise EmojiLexiconError(f"substitutions missing polarities {missing}")

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def _polarity_by_emoji(self) -> dict[str, int]:
        return {entry.emoji: entry.polarity for entry in self.entries}

    @cached_property
    def _pattern(self) -> re.Pattern[str] | None:
        if not self.entries:
            return None
        # longest sequence first so modifier/ZWJ variants win over bases
        ordered = sorted((e.emoji for e in self.entries), key=lambda s: (-len(s), s))
        return re.compile("|".join(re.escape(emoji) for emoji in ordered))


def load_emoji_lexicon(
    stream: IO[str],
    substitutions: Mapping[int, str] | None = None,
) -> EmojiLexicon:
    """Read an emoji lexicon from CSV with header ``emoji,occurrences,polarity``."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise EmojiLexiconError("empty stream, expected a header row") from None
    if [column.strip().lower() for column in header] != ["emoji", "occurrences", "polarity"]:
        raise EmojiLexiconError(
            f"expected header 'emoji,occurrences,polarity', got {','.join(header)!r}"
        )
    entries: list[EmojiEntry] = []
    seen: set[str] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise EmojiLexiconError(f"expected 3 columns, got {len(row)}", line=lineno)
        emoji = row[0]
        try:
            occurrences = int(row[1])
            polarity = int(row[2])
        except ValueError:
            raise EmojiLexiconError(
                f"non-integer occurrences/polarity in {row!r}", line=lineno
            ) from None
        if emoji in seen:
            raise EmojiLexiconError(f"duplicate emoji {emoji!r}", line=lineno)
        seen.add(emoji)
        try:
            entries.append(EmojiEntry(emoji, occurrences, polarity))
        except EmojiLexiconError as exc:
            raise EmojiLexiconError(str(exc), line=lineno) from None
    return EmojiLexicon(
        entries=tuple(entries),
        substitutions=dict(substitutions or DEFAULT_SUBSTITUTIONS),
    )


def select_frequent(
    lexicon: EmojiLexicon, min_occurrences: int = DEFAULT_MIN_OCCURRENCES
) -> EmojiLexicon:
    """Keep only entries observed strictly more than ``min_occurrences`` times."""
    if min_occurrences < 0:
        raise ValueError(f"min_occurrences must be >= 0, got {min_occurrences}")
    kept = tuple(e for e in lexicon.entries if e.occurrences > min_occurrences)
    return EmojiLexicon(entries=kept, substitutions=dict(lexicon.substitutions))


def substitute_emojis(text: str, lexicon: EmojiLexicon) -> str:
    """Replace every lexicon emoji with its polarity's emoticon token.

    Tokens are separated from adjacent non-whitespace by single spaces
    so the scorer sees them as standalone emoticons; all non-emoji
    characters are preserved in order.
    """
    pattern = lexicon._pattern
    if pattern is None:
        return text
    polarity_of = lexicon._polarity_by_emoji
    pieces: list[str] = []
    tail = ""  # last character emitted so far
    pos = 0
    for match in pattern.finditer(text):
        lead = text[pos : match.start()]
        if lead:
            pieces.append(lead)
            tail = lead[-1]
        if tail and not tail.isspace():
            pieces.append(" ")
        token = lexicon.substitutions[polarity_of[match.group()]]
        pieces.append(token)
        tail = token[-1] if token else tail
        following = text[match.end() : match.end() + 1]
        if following and not following.isspace():
            pieces.append(" ")
            tail = " "
        pos = match.end()
    pieces.append(text[pos:])
    return "".join(pieces)


def load_builtin_emoji_lexicon() -> EmojiLexicon:
    """Load the small seed emoji lexicon shipped with the package."""
    from importlib.resources import files

    resource = files("reviewsent") / "data" / "emoji_lexicon.csv"
    with resource.open("r", encoding="utf-8") as stream:
        return load_emoji_lexicon(stream)
