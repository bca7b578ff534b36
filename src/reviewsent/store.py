"""Data model and line-delimited persistence for apps, reviews, releases, scores.

An archive is a plain JSON-lines file: one entity per line with a
``kind`` discriminator. Loading reproduces the persisted entities
exactly; corrupt lines are skipped and reported instead of aborting the
load. Writers take an exclusive lock file next to the archive so only
one process mutates it at a time.

Next to a fully scored archive a scored-view sidecar
(``<archive>.view``) holds the table the reports read, keyed by the
archive's byte length and CRC-32, so a report can skip parsing the
archive while the two match. It has one builder, ``Archive.scored_view``,
and one writer, ``_write_view``, with two callers: ``write_archive``
after the archive's last line, and a report that finds no current
sidecar, parses the archive and, when no line was skipped, writes the
sidecar for the bytes it parsed, best effort and without the lock, so
that the next report skips the parse.
"""

from __future__ import annotations

import datetime as dt
import json
import logging
import math
import os
import sys
import zlib
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from functools import cache
from itertools import chain
from json.encoder import encode_basestring
from pathlib import Path
from typing import IO, Iterator, Mapping, NamedTuple

from .combine import SentimentScore, combine, format_combined, parse_combined
from .tables import read_rows

log = logging.getLogger(__name__)


class ArchiveError(ValueError):
    """Unusable archive input or operation."""


class ArchiveLockedError(ArchiveError):
    """Another writer holds the archive lock."""


@dataclass(frozen=True, slots=True)
class AppRecord:
    """One store listing. ``raw_details`` keeps the store payload verbatim."""

    app_id: str
    name: str
    primary_category: str
    price: float
    current_version: str = ""
    raw_details: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not self.app_id:
            raise ArchiveError("app_id must be nonempty")
        if not math.isfinite(self.price):
            raise ArchiveError(f"app {self.app_id}: price {self.price} is not finite")
        if self.price < 0:
            raise ArchiveError(f"app {self.app_id}: price {self.price} < 0")

    @property
    def is_free(self) -> bool:
        return self.price == 0


@dataclass(frozen=True, slots=True)
class Review:
    """One user review. ``raw`` keeps the feed payload verbatim."""

    review_id: str
    app_id: str
    author: str
    title: str
    body: str
    rating: int
    date: dt.date
    helpful_votes: int = 0
    app_version: str = ""
    raw: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not self.review_id or not self.app_id:
            raise ArchiveError("review_id and app_id must be nonempty")
        if not 1 <= self.rating <= 5:
            raise ArchiveError(
                f"review {self.review_id}: rating {self.rating} outside [1,5]"
            )
        if self.helpful_votes < 0:
            raise ArchiveError(
                f"review {self.review_id}: helpful_votes {self.helpful_votes} < 0"
            )

    @property
    def text_length(self) -> int:
        """Characters in title plus body."""
        return len(self.title) + len(self.body)


@dataclass(frozen=True, slots=True)
class Release:
    app_id: str
    version: str
    date: dt.date
    notes: str = ""

    def __post_init__(self):
        if not self.app_id or not self.version:
            raise ArchiveError("release app_id and version must be nonempty")


class ScoredRow(NamedTuple):
    """One scored review joined with its app: the table every report reads."""

    app_id: str
    category: str
    is_free: bool
    price: float
    rating: int
    date: dt.date
    combined: int | None
    text_length: int


@dataclass(frozen=True, slots=True)
class ScoredView:
    """What the reports read from an archive: its scored rows, app ids and releases.

    ``Archive.scored_view()`` builds it from a loaded archive and
    ``load_scored_view`` from the sidecar; every report function takes one.
    """

    rows: list[ScoredRow]
    apps: frozenset[str]
    releases: dict[tuple[str, str], Release]  # without notes


@dataclass(repr=False)
class Archive:
    """In-memory collection of apps, reviews, releases, and scores.

    Keys are natural identities (app_id; app_id+review_id; app_id+version),
    so re-adding the same entity is idempotent. Equality ignores
    ``load_skips``.
    """

    apps: dict[str, AppRecord] = field(default_factory=dict)
    reviews: dict[tuple[str, str], Review] = field(default_factory=dict)
    releases: dict[tuple[str, str], Release] = field(default_factory=dict)
    scores: dict[tuple[str, str], SentimentScore] = field(default_factory=dict)
    load_skips: list[tuple[int, str]] = field(default_factory=list, compare=False)

    def add_app(self, app: AppRecord) -> None:
        self.apps[app.app_id] = app

    def add_review(self, review: Review) -> None:
        self.reviews[(review.app_id, review.review_id)] = review

    def add_release(self, release: Release) -> None:
        self.releases[(release.app_id, release.version)] = release

    def set_score(self, app_id: str, review_id: str, score: SentimentScore) -> None:
        if (app_id, review_id) not in self.reviews:
            raise ArchiveError(f"no review {review_id!r} for app {app_id!r}")
        self.scores[(app_id, review_id)] = score

    def merge(self, other: "Archive") -> None:
        """Absorb another archive; colliding identities take the other's entity."""
        self.apps.update(other.apps)
        self.reviews.update(other.reviews)
        self.releases.update(other.releases)
        for key, score in other.scores.items():
            if key not in self.reviews:
                raise ArchiveError(f"merge: score for unknown review {key}")
            self.scores[key] = score

    def scored_view(self) -> ScoredView:
        """Every review joined with its app and combined score, in key
        order, with the app ids and the releases without notes.

        Raises when any review is unscored or names an app that is not
        in the archive, so no report runs on a partial table.
        """
        reviews, scores = self.reviews, self.scores
        if not scores.keys() >= reviews.keys():
            unscored = len(reviews.keys() - scores.keys())
            raise ArchiveError(f"{unscored} reviews have no score; run score first")
        # before any row is built, so that no other review's field raises first
        missing_apps = {r.app_id for r in reviews.values()} - self.apps.keys()
        if missing_apps:
            raise ArchiveError(f"reviews reference unknown apps: {sorted(missing_apps)}")
        # an app's columns once per app, and combine once per score object:
        # a loaded archive shares one object per distinct score
        app_columns = {
            app_id: (app.app_id, app.primary_category, app.is_free, app.price)
            for app_id, app in self.apps.items()
        }
        distinct = {id(score): score for score in scores.values()}
        combined = {at: combine(score) for at, score in distinct.items()}
        rows: list[ScoredRow] = []
        for key in sorted(reviews):
            review = reviews[key]
            # positional: keyword arguments make building the view ~1.6x slower
            rows.append(
                ScoredRow(
                    *app_columns[review.app_id],
                    review.rating,
                    review.date,
                    combined[id(scores[key])],
                    review.text_length,
                )
            )
        return ScoredView(
            rows,
            frozenset(self.apps),
            {key: Release(r.app_id, r.version, r.date) for key, r in self.releases.items()},
        )

    def counts(self) -> dict[str, int]:
        return {
            "apps": len(self.apps),
            "reviews": len(self.reviews),
            "releases": len(self.releases),
            "scores": len(self.scores),
        }


# --- persistence -----------------------------------------------------------


@cache  # fields() on every line made encoding 12k review lines ~15% slower
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _entity_to_json(kind: str, entity, **extra) -> dict:
    """An archive line: ``kind``, every dataclass field of ``entity``, ``extra``."""
    line = {name: getattr(entity, name) for name in _field_names(type(entity))}
    line.update(kind=kind, **extra)
    return line


def _app_record_from_json(obj: dict) -> AppRecord:
    # positional here and below: keyword arguments make loading slower
    app = AppRecord(
        str(obj["app_id"]),
        str(obj["name"]),
        str(obj["primary_category"]),
        float(obj["price"]),
        str(obj["current_version"]),
        obj.get("raw_details", {}),
    )
    if bool(obj.get("is_free", app.is_free)) != app.is_free:
        raise ArchiveError(f"app {app.app_id}: is_free contradicts price {app.price}")
    return app


def _review_from_json(obj: dict) -> Review:
    return Review(
        str(obj["review_id"]),
        str(obj["app_id"]),
        str(obj["author"]),
        str(obj["title"]),
        str(obj["body"]),
        int(obj["rating"]),
        dt.date.fromisoformat(obj["date"]),
        int(obj.get("helpful_votes", 0)),
        str(obj.get("app_version", "")),
        obj.get("raw", {}),
    )


def _release_from_json(obj: dict) -> Release:
    return Release(
        str(obj["app_id"]),
        str(obj["version"]),
        dt.date.fromisoformat(obj["date"]),
        str(obj.get("notes", "")),
    )


def _score_from_json(obj: dict) -> SentimentScore:
    """The dual score of a score line, checked against its stored combined value."""
    score = SentimentScore(int(obj["positive"]), int(obj["negative"]))
    if parse_combined(str(obj["combined"])) != combine(score):
        raise ArchiveError(
            f"combined {obj['combined']!r} does not match ({score.positive}, {score.negative})"
        )
    return score


def lock_path(path: str | Path) -> Path:
    """The writer lock of an archive: ``<archive>.lock``."""
    return Path(f"{path}.lock")


@contextmanager
def archive_lock(path: str | Path):
    """Exclusive writer lock: a sibling ``.lock`` file created O_EXCL."""
    lock = lock_path(path)
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ArchiveLockedError(
            f"archive {path} is locked by another writer ({lock} exists)"
        ) from None
    try:
        yield
    finally:
        os.close(fd)
        lock.unlink(missing_ok=True)


def save_archive(archive: Archive, path: str | Path) -> None:
    """Persist an archive under its writer lock; see ``write_archive``."""
    with archive_lock(path):
        write_archive(archive, path)


def write_archive(archive: Archive, path: str | Path) -> None:
    """Persist an archive as sorted JSON lines (deterministic bytes).

    The caller holds ``archive_lock(path)``, from before it loaded what
    it changes, so that no other writer's update is lost. When every
    review is scored and names a known app, the scored-view sidecar is
    rewritten for the new bytes; otherwise it is removed.
    """
    path = Path(path)
    sidecar = view_path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    sidecar_tmp = sidecar.with_suffix(sidecar.suffix + ".tmp")
    view = None
    try:
        with tmp.open("w", encoding="utf-8", newline="\n") as out:
            out.writelines(_archive_lines(archive))
        with suppress(ArchiveError):  # an unscored review, or one of an unknown app
            view = archive.scored_view()
        if view is not None:
            with tmp.open("rb") as written:
                _write_view(view, _stream_key(written), sidecar_tmp)
    except BaseException:
        tmp.unlink(missing_ok=True)
        sidecar_tmp.unlink(missing_ok=True)
        raise
    # a crash between the two steps leaves a sidecar whose key no longer
    # matches, which readers ignore
    tmp.replace(path)
    if view is not None:
        sidecar_tmp.replace(sidecar)
    else:
        sidecar.unlink(missing_ok=True)


def _json_value(value: object) -> object:
    """Dates as ISO strings and other mappings as dicts; JSON has neither."""
    if isinstance(value, dt.date):
        return value.isoformat()
    if isinstance(value, Mapping):
        return dict(value)
    raise TypeError(f"cannot archive {type(value).__name__}")


_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, default=_json_value)
# the C string quoting that _ENCODER applies, as ensure_ascii=False selects it
_quote = encode_basestring


def _encode(obj: object) -> str:
    try:
        return _ENCODER.encode(obj)
    except RecursionError:
        pass
    # a loaded raw payload may nest almost as deep as the recursion limit
    # allows above the loader's frames: the retry has that whole limit
    # above this frame, so every payload the loader accepts is written
    limit, depth, frame = sys.getrecursionlimit(), 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    sys.setrecursionlimit(limit + depth + 8)  # the encoder's own Python frames
    try:
        return _ENCODER.encode(obj)
    except RecursionError:
        raise ArchiveError("a raw payload is nested too deeply to save") from None
    finally:
        sys.setrecursionlimit(limit)


def _archive_lines(archive: Archive) -> Iterator[str]:
    """The archive's lines in key order: apps, reviews, releases, scores.

    A review or score line whose fields hold exactly their declared types
    (``str``, ``int`` and not ``bool``, ``date`` and not ``datetime``, a
    ``dict`` raw payload) comes from one f-string in the encoder's sorted
    key order; any other line is encoded whole, as are app and release
    lines.
    """
    apps, reviews = archive.apps, archive.reviews
    for app_id in sorted(apps):
        app = apps[app_id]
        yield _encode(_entity_to_json("app", app, is_free=app.is_free)) + "\n"

    quote, date = _quote, dt.date
    for key in sorted(reviews):
        r = reviews[key]
        if (
            type(r) is Review
            and type(r.app_id) is type(r.app_version) is type(r.author) is str
            and type(r.body) is type(r.review_id) is type(r.title) is str
            and type(r.rating) is type(r.helpful_votes) is int
            and type(r.date) is date
            and type(r.raw) is dict
        ):
            yield (
                f'{{"app_id": {quote(r.app_id)}, "app_version": {quote(r.app_version)}, '
                f'"author": {quote(r.author)}, "body": {quote(r.body)}, '
                f'"date": "{r.date.isoformat()}", "helpful_votes": {r.helpful_votes}, '
                f'"kind": "review", "rating": {r.rating}, '
                f'"raw": {_encode(r.raw) if r.raw else "{}"}, '
                f'"review_id": {quote(r.review_id)}, "title": {quote(r.title)}}}\n'
            )
        else:
            yield _encode(_entity_to_json("review", r)) + "\n"

    for key in sorted(archive.releases):
        yield _encode(_entity_to_json("release", archive.releases[key])) + "\n"

    texts = {}  # id(score) -> its combined text: one combine per score object
    for (app_id, review_id), score in sorted(archive.scores.items()):
        combined = texts.get(id(score))
        if combined is None:
            combined = texts[id(score)] = format_combined(combine(score))
        if (
            type(score) is SentimentScore
            and type(score.positive) is type(score.negative) is int
            and type(app_id) is type(review_id) is str
        ):
            yield (
                f'{{"app_id": {quote(app_id)}, "combined": "{combined}", "kind": "score", '
                f'"negative": {score.negative}, "positive": {score.positive}, '
                f'"review_id": {quote(review_id)}}}\n'
            )
        else:
            line = _entity_to_json(
                "score", score, app_id=app_id, review_id=review_id, combined=combined
            )
            yield _encode(line) + "\n"


def load_archive(path: str | Path) -> Archive:
    """Load an archive, skipping corrupt lines.

    Skipped lines are reported in ``archive.load_skips`` as
    (line number, reason) pairs; a line that is not UTF-8 is one of
    them. Score lines are validated against the combined-sentiment rule
    before being accepted. When a key repeats, the last accepted line
    wins and each line it supersedes is reported.
    """
    with open(path, "rb") as stream:
        return _read_archive(stream, path)


def _text_lines(data: bytes) -> list[bytes]:
    """The lines that text mode reads from ``data``, a line of a binary
    stream that holds a ``\\r``: ``\\r\\n`` and a lone ``\\r`` end a
    line too, and read as ``\\n``."""
    return [
        line.rstrip(b"\r\n") + b"\n" if line.endswith((b"\r", b"\n")) else line
        for line in data.splitlines(keepends=True)
    ]


def _read_archive(stream: IO[bytes], path: str | Path) -> Archive:
    """``load_archive`` of ``stream``, the archive file ``path`` open in binary."""
    archive = Archive()
    tables = {
        "app": archive.apps,
        "review": archive.reviews,
        "release": archive.releases,
        "score": archive.scores,
    }
    skips = archive.load_skips
    # the line of each key's accepted entity, in its table's key order: a
    # key -> line dict raised the peak RSS of a report loading 12k reviews
    # by ~2.5 MiB, and repeats are rare, so keys are mapped to positions
    # only on a kind's first repeat
    lines_of: dict[str, list[int]] = {kind: [] for kind in tables}
    positions: dict[str, dict[object, int]] = {}

    def accept(kind: str, key: object, lineno: int) -> None:
        """Record the line of an accepted entity; when its key repeats,
        report the line it supersedes."""
        table, kind_lines = tables[kind], lines_of[kind]
        if len(table) > len(kind_lines):  # a new key, which the table appended last
            kind_lines.append(lineno)
            if kind in positions:
                positions[kind][key] = len(kind_lines) - 1
            return
        if kind not in positions:
            positions[kind] = {k: i for i, k in enumerate(table)}
        at = positions[kind][key]
        skips.append((kind_lines[at], f"duplicate {kind} key {key!r}, superseded by line {lineno}"))
        kind_lines[at] = lineno

    scan = json.JSONDecoder().scan_once
    pending_scores: list[tuple[int, dict]] = []
    lineno = 0
    # binary, so that a line that is not UTF-8 is skipped like any other
    # corrupt line; a binary stream ends lines at b"\n" only
    for line in chain.from_iterable(
        _text_lines(data) if b"\r" in data else (data,) for data in stream
    ):
        lineno += 1
        try:
            raw = line.decode("utf-8")
            try:
                try:
                    obj, end = scan(raw, 0)
                except (StopIteration, ValueError):
                    end = None
                # anything but one value up to the newline (blank lines, white
                # space, CRLF, a BOM, trailing text, errors) takes the slow path
                if end is None or raw[end:] != "\n":
                    if not raw.strip():
                        continue
                    obj = json.loads(raw)
            except RecursionError:
                raise ArchiveError("JSON nested too deeply") from None
            if not isinstance(obj, dict):
                raise ArchiveError("expected a JSON object")
            kind = obj.get("kind")
            if kind == "review":
                entity = _review_from_json(obj)
                key = (entity.app_id, entity.review_id)
            elif kind == "score":
                pending_scores.append((lineno, obj))
                continue
            elif kind == "app":
                entity = _app_record_from_json(obj)
                key = entity.app_id
            elif kind == "release":
                entity = _release_from_json(obj)
                key = (entity.app_id, entity.version)
            else:
                raise ArchiveError(f"unknown kind {kind!r}")
            tables[kind][key] = entity
            accept(kind, key, lineno)
        except UnicodeDecodeError as exc:
            skips.append((lineno, f"invalid UTF-8 at byte {exc.start}: {exc.reason}"))
        except (ArchiveError, KeyError, TypeError, ValueError, OverflowError) as exc:
            skips.append((lineno, str(exc) or repr(exc)))

    # each distinct (positive, negative, combined) is checked once; its
    # score is shared, which a frozen dataclass allows. Exact types only:
    # True == 1 and hashes alike, but str(True) != str(1).
    checked: dict[tuple[int, int, str], SentimentScore] = {}
    for lineno, obj in pending_scores:
        try:
            positive, negative = obj.get("positive"), obj.get("negative")
            combined = obj.get("combined")
            app_id, review_id = obj.get("app_id"), obj.get("review_id")
            if (
                type(positive) is type(negative) is int
                and type(combined) is type(app_id) is type(review_id) is str
            ):
                triple = (positive, negative, combined)
                score = checked.get(triple)
                if score is None:
                    score = checked[triple] = _score_from_json(obj)
                key = (app_id, review_id)
            else:
                score = _score_from_json(obj)
                key = (str(obj["app_id"]), str(obj["review_id"]))
            archive.set_score(*key, score)
            accept("score", key, lineno)
        except (ArchiveError, KeyError, TypeError, ValueError, OverflowError) as exc:
            skips.append((lineno, str(exc) or repr(exc)))
    if skips:
        log.warning("archive %s: skipped %d corrupt lines", path, len(skips))
    return archive


# --- scored-view sidecar ---------------------------------------------------

VIEW_VERSION = 1


def view_path(path: str | Path) -> Path:
    """The scored-view sidecar of an archive: ``<archive>.view``."""
    return Path(f"{path}.view")


def _stream_key(stream: IO[bytes]) -> list[int]:
    """Byte length and CRC-32 of an open file from its start, read in 64 KiB chunks.

    The key detects a stale sidecar, not tampering: whoever can rewrite
    the archive can rewrite the sidecar too.
    """
    stream.seek(0)
    size = crc = 0
    while chunk := stream.read(1 << 16):
        size += len(chunk)
        crc = zlib.crc32(chunk, crc)
    return [size, crc]


def _write_view(view: ScoredView, key: list[int], path: Path) -> None:
    """The sidecar of ``view`` for the archive bytes ``key`` describes: the
    ``ScoredRow`` columns, the sorted app ids and the ``(app_id, version,
    date)`` of each release in key order."""
    columns = list(zip(*view.rows)) or [()] * len(ScoredRow._fields)
    payload = {
        "version": VIEW_VERSION,
        "key": key,
        "columns": dict(zip(ScoredRow._fields, columns)),
        "apps": sorted(view.apps),
        "releases": [(r.app_id, r.version, r.date) for _, r in sorted(view.releases.items())],
    }
    with path.open("w", encoding="utf-8", newline="\n") as out:
        out.write(_ENCODER.encode(payload))


def _read_view(path: Path) -> ScoredView:
    """The archive's view from its sidecar; raises unless the sidecar is current."""
    with view_path(path).open(encoding="utf-8") as stream:
        payload = json.load(stream)
    if not isinstance(payload, dict) or payload.get("version") != VIEW_VERSION:
        raise ArchiveError("unknown sidecar version")
    with path.open("rb") as stream:
        key = _stream_key(stream)
    if payload["key"] != key:
        raise ArchiveError("sidecar describes other archive bytes")
    columns = payload["columns"]
    if not isinstance(columns, dict) or set(columns) != set(ScoredRow._fields):
        raise ArchiveError("sidecar columns do not match ScoredRow")
    table = [columns[name] for name in ScoredRow._fields]
    if not all(isinstance(column, list) for column in table) or len(set(map(len, table))) > 1:
        raise ArchiveError("sidecar columns are not lists of one length")
    dates = ScoredRow._fields.index("date")
    table[dates] = map(dt.date.fromisoformat, table[dates])
    apps = payload["apps"]
    if not isinstance(apps, list) or not all(isinstance(a, str) for a in apps):
        raise ArchiveError("sidecar apps are not a list of ids")
    releases = [
        Release(app_id, version, dt.date.fromisoformat(date))
        for app_id, version, date in payload["releases"]
    ]
    return ScoredView(
        list(map(ScoredRow, *table)),
        frozenset(apps),
        {(r.app_id, r.version): r for r in releases},
    )


def load_scored_view(path: str | Path) -> ScoredView:
    """The scored view of an archive, from its sidecar while that is current.

    A sidecar that is missing, unreadable, malformed or keyed to other
    bytes is ignored: the archive is then parsed once, as ``load_archive``
    parses it, with its warning and its "run score first" error. When
    that parse skipped no line, the sidecar is written for the bytes it
    read, so that the next report skips the parse; see ``_cache_view``.
    """
    path = Path(path)
    try:
        return _read_view(path)
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:  # ArchiveError too
        log.debug("archive %s: sidecar not used (%s)", path, exc)
    with open(path, "rb") as stream:
        archive = _read_archive(stream, path)
        view = archive.scored_view()
        clean = not archive.load_skips
        del archive  # freed before the sidecar is encoded, which would raise the peak RSS
        if clean:
            _cache_view(view, stream, path)
    return view


def _cache_view(view: ScoredView, stream: IO[bytes], path: Path) -> None:
    """Write the sidecar of ``view``, parsed from ``stream``, the open archive
    ``path``, keyed to the bytes of that open file: if a writer replaced the
    archive since, the key names the old bytes and readers ignore it.

    Best effort, so that reports run on read-only archives too: no lock is
    taken, nothing is written while a writer holds one, the sidecar goes
    through a ``.tmp`` file of its own, and a failure is logged at DEBUG
    level only. The bytes are those ``write_archive`` writes.
    """
    if lock_path(path).exists():
        log.debug("archive %s: locked by a writer, sidecar not written", path)
        return
    sidecar = view_path(path)
    tmp = Path(f"{sidecar}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        _write_view(view, _stream_key(stream), tmp)
        os.replace(tmp, sidecar)
    except (OSError, ValueError) as exc:  # a lone surrogate raises UnicodeEncodeError
        log.debug("archive %s: sidecar not written (%s)", path, exc)
        with suppress(OSError):
            tmp.unlink(missing_ok=True)


# --- release import --------------------------------------------------------

RELEASE_HEADER = ["app_id", "version", "date", "notes"]


def import_releases(stream: IO[str]) -> tuple[list[Release], list[tuple[int, str]]]:
    """Parse a release CSV (header ``app_id,version,date,notes``).

    Returns accepted releases plus (line number, reason) for rejected
    rows. Within one import, duplicate (app_id, version) pairs and
    per-app date regressions (a row dated before an earlier accepted row
    for the same app) are rejected.
    """
    releases: list[Release] = []
    rejects: list[tuple[int, str]] = []
    seen: set[tuple[str, str]] = set()
    latest: dict[str, dt.date] = {}
    for lineno, row in read_rows(stream, RELEASE_HEADER, "release file", ArchiveError):
        if len(row) != 4:
            rejects.append((lineno, f"expected 4 columns, got {len(row)}"))
            continue
        app_id, version, date_text, notes = row
        try:
            date = dt.date.fromisoformat(date_text)
        except ValueError:
            rejects.append((lineno, f"bad date {date_text!r}, expected YYYY-MM-DD"))
            continue
        key = (app_id, version)
        if key in seen:
            rejects.append((lineno, f"duplicate release {app_id} {version}"))
            continue
        if app_id in latest and date < latest[app_id]:
            rejects.append(
                (lineno, f"date {date} regresses before {latest[app_id]} for {app_id}")
            )
            continue
        try:
            release = Release(app_id=app_id, version=version, date=date, notes=notes)
        except ArchiveError as exc:
            rejects.append((lineno, str(exc)))
            continue
        seen.add(key)
        latest[app_id] = date
        releases.append(release)
    return releases, rejects
