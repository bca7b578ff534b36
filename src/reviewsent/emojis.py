"""Emoji sentiment lexicon and pre-scoring text substitution.

Emojis carry a coarse polarity (-1, 0, +1). Before scoring, each emoji
known to the lexicon is rewritten to an ASCII emoticon token the scorer
understands; everything else in the text is left byte-identical. Multi
codepoint emojis (variation selectors, skin tones, ZWJ sequences) are
matched longest-first so no partial replacement can corrupt the text.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import IO, Mapping, NamedTuple

from .lexicon import LexiconError
from .records import Checked
from .tables import read_rows

POLARITIES = (-1, 0, 1)

# ":|" must stay absent from the emoticon dictionary so neutral emojis
# score (1, -1)
SUBSTITUTIONS: Mapping[int, str] = {1: ":)", -1: ":(", 0: ":|"}

DEFAULT_MIN_OCCURRENCES = 100

EMOJI_HEADER = ["emoji", "occurrences", "polarity"]


class EmojiLexiconError(LexiconError):
    """Malformed emoji lexicon input."""


class _EmojiEntry(NamedTuple):
    emoji: str  # full codepoint sequence
    occurrences: int
    polarity: int


class EmojiEntry(Checked, _EmojiEntry):
    __slots__ = ()

    def __new__(cls, emoji, occurrences, polarity):
        if not emoji:
            raise EmojiLexiconError("empty emoji codepoint sequence")
        if occurrences < 0:
            raise EmojiLexiconError(f"negative occurrence count for {emoji!r}")
        if polarity not in POLARITIES:
            raise EmojiLexiconError(f"polarity {polarity} for {emoji!r} not in {{-1, 0, 1}}")
        return tuple.__new__(cls, (emoji, occurrences, polarity))


class _EmojiLexicon(NamedTuple):
    entries: tuple[EmojiEntry, ...]


class EmojiLexicon(Checked, _EmojiLexicon):
    """The entries, each emoji once. Its length is the entry count, not
    the one field's; it keeps a ``__dict__`` for the scanner's caches."""

    def __new__(cls, entries=()):
        seen: set[str] = set()
        for entry in entries:
            if entry.emoji in seen:
                raise EmojiLexiconError(f"duplicate emoji {entry.emoji!r}")
            seen.add(entry.emoji)
        return tuple.__new__(cls, (entries,))

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def _polarity_by_emoji(self) -> dict[str, int]:
        return {entry.emoji: entry.polarity for entry in self.entries}

    @cached_property
    def _scanner(self) -> tuple[re.Pattern[str], dict[str, tuple[int, ...]]] | None:
        """A pattern for one character in the range of first codepoints,
        and the entry lengths (longest first) by first character.

        Keep it to one range: ``re`` scans text against a single range
        some thirty times faster than against an alternation of every
        emoji or a class of many separate ranges.
        """
        if not self.entries:
            return None
        lengths: dict[str, set[int]] = {}
        for entry in self.entries:
            lengths.setdefault(entry.emoji[0], set()).add(len(entry.emoji))
        first = f"[{re.escape(min(lengths))}-{re.escape(max(lengths))}]"
        return re.compile(first), {
            char: tuple(sorted(sizes, reverse=True)) for char, sizes in lengths.items()
        }


def load_emoji_lexicon(stream: IO[str]) -> EmojiLexicon:
    """Read an emoji lexicon from CSV with header ``emoji,occurrences,polarity``."""
    entries: list[EmojiEntry] = []
    seen: set[str] = set()
    for lineno, row in read_rows(stream, EMOJI_HEADER, "stream", EmojiLexiconError):
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
    return EmojiLexicon(entries=tuple(entries))


def select_frequent(
    lexicon: EmojiLexicon, min_occurrences: int = DEFAULT_MIN_OCCURRENCES
) -> EmojiLexicon:
    """Keep only entries observed strictly more than ``min_occurrences`` times."""
    if min_occurrences < 0:
        raise ValueError(f"min_occurrences must be >= 0, got {min_occurrences}")
    kept = tuple(e for e in lexicon.entries if e.occurrences > min_occurrences)
    return EmojiLexicon(entries=kept)


def substitute_emojis(text: str, lexicon: EmojiLexicon) -> str:
    """Replace every lexicon emoji with its polarity's emoticon token.

    Tokens are separated from adjacent non-whitespace by single spaces
    so the scorer sees them as standalone emoticons; all non-emoji
    characters are preserved in order.
    """
    scanner = lexicon._scanner
    if scanner is None:
        return text
    pattern, lengths_of = scanner
    search = pattern.search
    polarity_of = lexicon._polarity_by_emoji
    pieces: list[str] = []
    tail = ""  # last character emitted so far
    pos = 0
    hit = search(text)
    while hit is not None:
        start = hit.start()
        # the longest entry at ``start`` wins, as modifier/ZWJ variants
        # must win over their bases
        for length in lengths_of.get(text[start], ()):
            emoji = text[start : start + length]
            polarity = polarity_of.get(emoji)
            if polarity is not None:
                break
        else:
            hit = search(text, start + 1)
            continue
        end = start + len(emoji)
        lead = text[pos:start]
        if lead:
            pieces.append(lead)
            tail = lead[-1]
        if tail and not tail.isspace():
            pieces.append(" ")
        token = SUBSTITUTIONS[polarity]
        pieces.append(token)
        tail = token[-1]
        following = text[end : end + 1]
        if following and not following.isspace():
            pieces.append(" ")
            tail = " "
        pos = end
        hit = search(text, end)
    pieces.append(text[pos:])
    return "".join(pieces)


def load_builtin_emoji_lexicon() -> EmojiLexicon:
    """Load the small seed emoji lexicon shipped with the package."""
    from importlib.resources import files

    resource = files("reviewsent") / "data" / "emoji_lexicon.csv"
    with resource.open("r", encoding="utf-8") as stream:
        return load_emoji_lexicon(stream)
