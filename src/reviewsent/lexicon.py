"""Sentiment lexicon model and plain-text dictionary loading.

A lexicon bundles four dictionaries: scored sentiment terms, booster
words, scored emoticons, and a slang-to-canonical lookup table. Each
dictionary lives in its own UTF-8 text file with one ``term<TAB>value``
entry per line; blank lines and ``#`` comments are ignored. A JSON
manifest names the file for each role so dictionaries can be swapped
without code changes.

Word terms (sentiment, boosters, slang) are lowercased on load because
the scorer looks tokens up by their lowercased normalized form.
Emoticons are kept verbatim and matched on the raw surface.

The scorer keeps per-lexicon caches (``Lexicon._compiled`` and
``Lexicon._vocabulary``) that are built on the first ``score_text``
call, never at load, and assume the dictionaries are not mutated
afterwards.
"""

from __future__ import annotations

import json
import logging
import re
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, NamedTuple

from .records import NEW_DICT, Checked

log = logging.getLogger(__name__)

MAX_TERM_SCORE = 5
MAX_BOOST = 2

MANIFEST_ROLES = ("sentiment", "boosters", "emoticons", "slang")


def emoticon_pattern(faces: Iterable[str]) -> re.Pattern[str] | None:
    """One capturing alternation of ``faces``, longest first; None without faces.

    At each position the first alternative that matches wins, so the
    longest face is taken: ":((" before ":(".
    """
    ordered = sorted(faces, key=lambda f: (-len(f), f))
    if not ordered:
        return None
    return re.compile("(" + "|".join(re.escape(face) for face in ordered) + ")")


class Compiled(NamedTuple):
    """The scorer's per-lexicon cache."""

    emoticons: re.Pattern[str] | None
    # whitespace chunk -> None (punctuation only) or (score, boost); the
    # scorer bounds its size
    chunks: dict[str, tuple[int, int | None] | None]


class LexiconError(ValueError):
    """Malformed lexicon input. Carries the offending line number if known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class _Lexicon(NamedTuple):
    sentiment_terms: Mapping[str, int]
    boosters: Mapping[str, int]
    emoticons: Mapping[str, int]
    slang: Mapping[str, str]


class Lexicon(Checked, _Lexicon):
    """Immutable dictionaries used by the scorer.

    Sentiment and emoticon scores are ints in [-5,-1] or [1,5] and
    booster values ints in [-2,2], so every score built from them is a
    ``SentimentScore``. A term may not appear in both the sentiment and
    booster dictionaries. It keeps a ``__dict__`` for the scorer's cache.
    """

    def __new__(
        cls, sentiment_terms=NEW_DICT, boosters=NEW_DICT, emoticons=NEW_DICT, slang=NEW_DICT
    ):
        maps = [{} if m is NEW_DICT else m for m in (sentiment_terms, boosters, emoticons, slang)]
        sentiment_terms, boosters, emoticons, slang = maps
        for mapping in maps:
            if any(not term for term in mapping):
                raise LexiconError("empty terms are not allowed")
        for term, score in sentiment_terms.items():
            _check_score(f"sentiment term {term!r}", score)
        for term, boost in boosters.items():
            _check_boost(f"booster {term!r}", boost)
        for face, score in emoticons.items():
            _check_score(f"emoticon {face!r}", score)
        for term, target in slang.items():
            if not target:
                raise LexiconError(f"slang {term!r} maps to an empty term")
        overlap = sorted(set(sentiment_terms) & set(boosters))
        if overlap:
            raise LexiconError(
                f"terms present in both sentiment and booster dictionaries: {overlap}"
            )
        return tuple.__new__(cls, maps)

    @cached_property
    def _compiled(self) -> Compiled:
        return Compiled(emoticon_pattern(self.emoticons), {})

    @cached_property
    def _vocabulary(self) -> frozenset[str]:
        """Every word the scorer can give a score or a boost: the
        sentiment terms, the slang and the boosters."""
        return frozenset().union(self.sentiment_terms, self.slang, self.boosters)


def _check_score(what: str, score: int) -> None:
    if type(score) is not int:
        raise LexiconError(f"{what} has score {score!r}, expected an int")
    if score == 0 or abs(score) > MAX_TERM_SCORE:
        raise LexiconError(f"{what} has score {score}, expected [-5,-1] or [1,5]")


def _check_boost(what: str, boost: int) -> None:
    if type(boost) is not int:
        raise LexiconError(f"{what} has boost {boost!r}, expected an int")
    if abs(boost) > MAX_BOOST:
        raise LexiconError(f"{what} has boost {boost}, expected [-2,2]")


def _iter_entries(stream: IO[str], role: str) -> Iterator[tuple[int, str, str]]:
    """Yield (line number, term, value) for each data line of a dictionary file."""
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise LexiconError(
                f"{role}: expected 'term<TAB>value', got {line!r}", line=lineno
            )
        term, value = parts[0].strip(), parts[1].strip()
        if not term:
            raise LexiconError(f"{role}: empty term", line=lineno)
        yield lineno, term, value


def _parse_scored(stream: IO[str], role: str, check, lower: bool = True) -> dict[str, int]:
    """The scores of a dictionary file, keyed by term, lowercased unless
    ``lower`` is false; a repeated key warns and its last entry wins."""
    entries: dict[str, int] = {}
    for lineno, term, value in _iter_entries(stream, role):
        try:
            score = int(value)
        except ValueError:
            raise LexiconError(
                f"{role}: non-integer score {value!r} for {term!r}", line=lineno
            ) from None
        try:
            check(f"{role} term {term!r}", score)
        except LexiconError as exc:
            raise LexiconError(str(exc), line=lineno) from None
        key = term.lower() if lower else term
        if key in entries:
            log.warning(
                "%s: duplicate term %r at line %d, last entry wins", role, term, lineno
            )
        entries[key] = score
    return entries


def _parse_slang(stream: IO[str]) -> dict[str, str]:
    """The lowercased canonical form of each lowercased slang term."""
    entries: dict[str, str] = {}
    for lineno, term, value in _iter_entries(stream, "slang"):
        if not value:
            raise LexiconError(f"slang: empty target for {term!r}", line=lineno)
        key = term.lower()
        if key in entries:
            log.warning(
                "slang: duplicate term %r at line %d, last entry wins", term, lineno
            )
        entries[key] = value.lower()
    return entries


def load_lexicon(
    sentiment: IO[str] | None = None,
    boosters: IO[str] | None = None,
    emoticons: IO[str] | None = None,
    slang: IO[str] | None = None,
) -> Lexicon:
    """Build a Lexicon from up to four readable text streams.

    Word terms are lowercased, emoticons kept verbatim. Missing streams
    yield empty dictionaries; an entirely empty lexicon is valid and
    scores every text (1, -1).
    """
    return Lexicon(
        sentiment_terms=_parse_scored(sentiment, "sentiment", _check_score) if sentiment else {},
        boosters=_parse_scored(boosters, "boosters", _check_boost) if boosters else {},
        emoticons=_parse_scored(emoticons, "emoticons", _check_score, lower=False)
        if emoticons
        else {},
        slang=_parse_slang(slang) if slang else {},
    )


def load_lexicon_manifest(path: str | Path) -> Lexicon:
    """Load a lexicon from a JSON manifest mapping roles to file names.

    File names are resolved relative to the manifest's directory. All
    four roles (sentiment, boosters, emoticons, slang) must be named.
    """
    manifest_path = Path(path)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise LexiconError(f"manifest {manifest_path}: invalid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise LexiconError(f"manifest {manifest_path}: expected a JSON object")
    missing = [role for role in MANIFEST_ROLES if role not in manifest]
    if missing:
        raise LexiconError(f"manifest {manifest_path}: missing roles {missing}")
    base = manifest_path.parent
    streams: dict[str, IO[str]] = {}
    try:
        for role in MANIFEST_ROLES:
            streams[role] = (base / manifest[role]).open(encoding="utf-8")
        return load_lexicon(
            sentiment=streams["sentiment"],
            boosters=streams["boosters"],
            emoticons=streams["emoticons"],
            slang=streams["slang"],
        )
    finally:
        for stream in streams.values():
            stream.close()


def builtin_lexicon_manifest() -> Path:
    """Path of the seed lexicon manifest shipped with the package."""
    from importlib.resources import files

    return Path(str(files("reviewsent") / "data" / "manifest.json"))


def load_builtin_lexicon() -> Lexicon:
    """Load the small seed lexicon shipped with the package."""
    return load_lexicon_manifest(builtin_lexicon_manifest())
