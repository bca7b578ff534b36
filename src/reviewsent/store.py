"""Data model and line-delimited persistence for apps, reviews, releases, scores.

An archive is a plain JSON-lines file: one entity per line with a
``kind`` discriminator. Loading reproduces the persisted entities
exactly; corrupt lines are skipped and reported instead of aborting the
load. Writers take an exclusive lock file next to the archive so only
one process mutates it at a time.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Mapping, NamedTuple

from .combine import combine, format_combined, parse_combined
from .engine import SentimentScore

log = logging.getLogger(__name__)


class ArchiveError(ValueError):
    """Unusable archive input or operation."""


class ArchiveLockedError(ArchiveError):
    """Another writer holds the archive lock."""


@dataclass(frozen=True)
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
        if self.price < 0:
            raise ArchiveError(f"app {self.app_id}: price {self.price} < 0")

    @property
    def is_free(self) -> bool:
        return self.price == 0


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


class Archive:
    """In-memory collection of apps, reviews, releases, and scores.

    Keys are natural identities (app_id; app_id+review_id; app_id+version),
    so re-adding the same entity is idempotent.
    """

    def __init__(self):
        self.apps: dict[str, AppRecord] = {}
        self.reviews: dict[tuple[str, str], Review] = {}
        self.releases: dict[tuple[str, str], Release] = {}
        self.scores: dict[tuple[str, str], SentimentScore] = {}
        self.load_skips: list[tuple[int, str]] = []

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Archive):
            return NotImplemented
        return (
            self.apps == other.apps
            and self.reviews == other.reviews
            and self.releases == other.releases
            and self.scores == other.scores
        )

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

    def scored_rows(self) -> list[ScoredRow]:
        """Every review joined with its app and combined score, in key order.

        Raises when any review is unscored or names an app that is not
        in the archive, so no report runs on a partial table.
        """
        unscored = len(self.reviews.keys() - self.scores.keys())
        if unscored:
            raise ArchiveError(f"{unscored} reviews have no score; run score first")
        missing_apps = {r.app_id for r in self.reviews.values()} - self.apps.keys()
        if missing_apps:
            raise ArchiveError(f"reviews reference unknown apps: {sorted(missing_apps)}")
        rows: list[ScoredRow] = []
        for key in sorted(self.reviews):
            review = self.reviews[key]
            app = self.apps[review.app_id]
            # positional: keyword arguments make building the view ~1.6x slower
            rows.append(
                ScoredRow(
                    app.app_id,
                    app.primary_category,
                    app.is_free,
                    app.price,
                    review.rating,
                    review.date,
                    combine(self.scores[key]),
                    review.text_length,
                )
            )
        return rows

    def counts(self) -> dict[str, int]:
        return {
            "apps": len(self.apps),
            "reviews": len(self.reviews),
            "releases": len(self.releases),
            "scores": len(self.scores),
        }


# --- persistence -----------------------------------------------------------


def _app_record_to_json(app: AppRecord) -> dict:
    return {
        "kind": "app",
        "app_id": app.app_id,
        "name": app.name,
        "primary_category": app.primary_category,
        "price": app.price,
        "is_free": app.is_free,
        "current_version": app.current_version,
        "raw_details": dict(app.raw_details),
    }


def _review_to_json(review: Review) -> dict:
    return {
        "kind": "review",
        "review_id": review.review_id,
        "app_id": review.app_id,
        "author": review.author,
        "title": review.title,
        "body": review.body,
        "rating": review.rating,
        "date": review.date.isoformat(),
        "helpful_votes": review.helpful_votes,
        "app_version": review.app_version,
        "raw": dict(review.raw),
    }


def _release_to_json(release: Release) -> dict:
    return {
        "kind": "release",
        "app_id": release.app_id,
        "version": release.version,
        "date": release.date.isoformat(),
        "notes": release.notes,
    }


def _score_to_json(key: tuple[str, str], score: SentimentScore) -> dict:
    return {
        "kind": "score",
        "app_id": key[0],
        "review_id": key[1],
        "positive": score.positive,
        "negative": score.negative,
        "combined": format_combined(combine(score)),
    }


def _app_record_from_json(obj: dict) -> AppRecord:
    app = AppRecord(
        app_id=str(obj["app_id"]),
        name=str(obj["name"]),
        primary_category=str(obj["primary_category"]),
        price=float(obj["price"]),
        current_version=str(obj["current_version"]),
        raw_details=obj.get("raw_details", {}),
    )
    if bool(obj.get("is_free", app.is_free)) != app.is_free:
        raise ArchiveError(f"app {app.app_id}: is_free contradicts price {app.price}")
    return app


def _review_from_json(obj: dict) -> Review:
    return Review(
        review_id=str(obj["review_id"]),
        app_id=str(obj["app_id"]),
        author=str(obj["author"]),
        title=str(obj["title"]),
        body=str(obj["body"]),
        rating=int(obj["rating"]),
        date=dt.date.fromisoformat(obj["date"]),
        helpful_votes=int(obj.get("helpful_votes", 0)),
        app_version=str(obj.get("app_version", "")),
        raw=obj.get("raw", {}),
    )


def _release_from_json(obj: dict) -> Release:
    return Release(
        app_id=str(obj["app_id"]),
        version=str(obj["version"]),
        date=dt.date.fromisoformat(obj["date"]),
        notes=str(obj.get("notes", "")),
    )


@contextmanager
def archive_lock(path: str | Path):
    """Exclusive writer lock: a sibling ``.lock`` file created O_EXCL."""
    lock_path = Path(f"{path}.lock")
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ArchiveLockedError(
            f"archive {path} is locked by another writer ({lock_path} exists)"
        ) from None
    try:
        yield
    finally:
        os.close(fd)
        lock_path.unlink(missing_ok=True)


def save_archive(archive: Archive, path: str | Path) -> None:
    """Persist an archive as sorted JSON lines (deterministic bytes)."""
    path = Path(path)
    with archive_lock(path):
        tmp = path.with_suffix(path.suffix + ".tmp")
        with tmp.open("w", encoding="utf-8", newline="\n") as out:
            for app_id in sorted(archive.apps):
                _write_line(out, _app_record_to_json(archive.apps[app_id]))
            for key in sorted(archive.reviews):
                _write_line(out, _review_to_json(archive.reviews[key]))
            for key in sorted(archive.releases):
                _write_line(out, _release_to_json(archive.releases[key]))
            for key in sorted(archive.scores):
                _write_line(out, _score_to_json(key, archive.scores[key]))
        tmp.replace(path)


def _write_line(out: IO[str], obj: dict) -> None:
    out.write(json.dumps(obj, sort_keys=True, ensure_ascii=False))
    out.write("\n")


def load_archive(path: str | Path) -> Archive:
    """Load an archive, skipping corrupt lines.

    Skipped lines are reported in ``archive.load_skips`` as
    (line number, reason) pairs. Score lines are validated against the
    combined-sentiment rule before being accepted.
    """
    archive = Archive()
    pending_scores: list[tuple[int, dict]] = []
    with open(path, encoding="utf-8") as stream:
        for lineno, raw in enumerate(stream, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
                kind = obj.get("kind")
                if kind == "app":
                    archive.add_app(_app_record_from_json(obj))
                elif kind == "review":
                    archive.add_review(_review_from_json(obj))
                elif kind == "release":
                    archive.add_release(_release_from_json(obj))
                elif kind == "score":
                    pending_scores.append((lineno, obj))
                else:
                    raise ArchiveError(f"unknown kind {kind!r}")
            except (ArchiveError, KeyError, TypeError, ValueError) as exc:
                archive.load_skips.append((lineno, str(exc) or repr(exc)))
    for lineno, obj in pending_scores:
        try:
            score = SentimentScore(int(obj["positive"]), int(obj["negative"]))
            stored_combined = parse_combined(str(obj["combined"]))
            if stored_combined != combine(score):
                raise ArchiveError(
                    f"combined {obj['combined']!r} does not match "
                    f"({score.positive}, {score.negative})"
                )
            archive.set_score(str(obj["app_id"]), str(obj["review_id"]), score)
        except (ArchiveError, KeyError, TypeError, ValueError) as exc:
            archive.load_skips.append((lineno, str(exc) or repr(exc)))
    if archive.load_skips:
        log.warning("archive %s: skipped %d corrupt lines", path, len(archive.load_skips))
    return archive


# --- release import --------------------------------------------------------

RELEASE_HEADER = ["app_id", "version", "date", "notes"]


def import_releases(stream: IO[str]) -> tuple[list[Release], list[tuple[int, str]]]:
    """Parse a release CSV (header ``app_id,version,date,notes``).

    Returns accepted releases plus (line number, reason) for rejected
    rows. Within one import, duplicate (app_id, version) pairs and
    per-app date regressions (a row dated before an earlier accepted row
    for the same app) are rejected.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ArchiveError("empty release file, expected a header row") from None
    if [column.strip().lower() for column in header] != RELEASE_HEADER:
        raise ArchiveError(
            f"expected header 'app_id,version,date,notes', got {','.join(header)!r}"
        )
    releases: list[Release] = []
    rejects: list[tuple[int, str]] = []
    seen: set[tuple[str, str]] = set()
    latest: dict[str, dt.date] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
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
