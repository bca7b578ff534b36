"""Shared builders for archive-based tests, the stub store endpoint, and
the reference scorer, emoji substitution, archive loader and archive
writer that the fast paths in ``reviewsent`` are checked against."""

from __future__ import annotations

import array
import datetime as dt
import functools
import io
import json
import logging
import os
import random
import re
import signal
import struct
import subprocess
import sys
import tempfile
import time
import unicodedata
import zlib
from collections.abc import Iterator, Mapping
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from typing import NamedTuple
from urllib.parse import parse_qs, urlparse

from hypothesis import strategies as st

from reviewsent import AppRecord, Archive, Review, SentimentScore, engine
from reviewsent.combine import combine, format_combined, parse_combined
from reviewsent.emojis import SUBSTITUTIONS, EmojiLexicon
from reviewsent.engine import BOOSTER_WINDOW
from reviewsent.lexicon import Lexicon, emoticon_pattern
from reviewsent.store import (
    UNDEFINED_COMBINED,
    ArchiveError,
    Release,
    ScoredView,
    save_archive,
)

# A dual score whose combined sentiment is the given value. Note that
# +1 and -1 are unreachable: p + n > 0 forces p >= 2, symmetrically for n.
COMBINED_TO_SCORE = {
    5: (5, -1),
    4: (4, -1),
    3: (3, -1),
    2: (2, -1),
    0: (2, -2),
    -2: (1, -2),
    -3: (1, -3),
    -4: (1, -4),
    -5: (1, -5),
    None: (4, -4),
}

WINDOW_START = dt.date(2016, 1, 4)
WINDOW_END = dt.date(2016, 12, 18)


def score_for_combined(combined: int | None) -> SentimentScore:
    return SentimentScore(*COMBINED_TO_SCORE[combined])


def make_app(
    app_id: str = "app1",
    category: str = "Games",
    price: float = 0.0,
    name: str | None = None,
) -> AppRecord:
    return AppRecord(
        app_id=app_id,
        name=name or f"App {app_id}",
        primary_category=category,
        price=price,
        current_version="1.0",
        raw_details={"trackId": app_id},
    )


def make_review(
    app_id: str,
    review_id: str,
    rating: int = 3,
    date: dt.date = WINDOW_START,
    title: str = "a title",
    body: str = "a body",
) -> Review:
    return Review(
        review_id=review_id,
        app_id=app_id,
        author=f"user-{review_id}",
        title=title,
        body=body,
        rating=rating,
        date=date,
    )


def add_scored_review(
    archive: Archive,
    app_id: str,
    review_id: str,
    combined: int | None,
    rating: int = 3,
    date: dt.date = WINDOW_START,
    title: str = "a title",
    body: str = "a body",
) -> None:
    archive.add_review(make_review(app_id, review_id, rating, date, title, body))
    archive.set_score(app_id, review_id, score_for_combined(combined))


def archive_with_combined(
    values: list[int | None],
    app_id: str = "app1",
    category: str = "Games",
    price: float = 0.0,
    ratings: list[int] | None = None,
) -> Archive:
    """One-app archive whose reviews carry exactly these combined values."""
    archive = Archive()
    archive.add_app(make_app(app_id, category, price))
    for i, combined in enumerate(values):
        rating = ratings[i] if ratings else 3
        add_scored_review(archive, app_id, f"r{i:04d}", combined, rating=rating)
    return archive


def random_archive(rng: random.Random, n_apps: int = 3, n_reviews: int = 60) -> Archive:
    """Randomized scored archive with dates across the 2016 window."""
    archive = Archive()
    categories = ["Games", "Finance", "Music", "News"]
    for a in range(n_apps):
        archive.add_app(
            make_app(
                f"app{a}",
                category=rng.choice(categories),
                price=rng.choice([0.0, 0.99, 4.99]),
            )
        )
    combined_pool = list(COMBINED_TO_SCORE)
    span = (WINDOW_END - WINDOW_START).days
    for i in range(n_reviews):
        app_id = f"app{rng.randrange(n_apps)}"
        date = WINDOW_START + dt.timedelta(days=rng.randrange(span + 1))
        add_scored_review(
            archive,
            app_id,
            f"r{i:05d}",
            rng.choice(combined_pool),
            rating=rng.randint(1, 5),
            date=date,
            title="t" * rng.randint(0, 10),
            body="b" * rng.randint(0, 200),
        )
    return archive


# review texts with a spread of seed-lexicon hits, fillers, and emojis
TEXT_POOL = [
    ("Love it", "this app is awesome and very good", 5),
    ("Great app", "works fine and looks nice", 5),
    ("Extremely good", "best tool on my phone", 5),
    ("Solid", "it opens and does the thing", 4),
    ("Nothing special", "meh whatever it runs ok", 3),
    ("Mixed feelings", "I hate that u need wifi but it is great.", 3),
    ("So annoying", "ads everywhere now", 2),
    ("Very sad", "I would be very sad without it but the update is bad", 2),
    ("I hate this", "terrible after the redesign", 1),
    ("Worst update", "broken and useless now 😡", 1),
    ("Happy 😀", "works again, love the new look", 5),
    ("Why", "slow and boring lately", 2),
]


def unscored_text_archive(
    rng: random.Random, n_apps: int = 3, n_reviews: int = 200
) -> Archive:
    """Archive of raw (unscored) reviews with real text to exercise scoring."""
    archive = Archive()
    categories = ["Games", "Finance", "News"]
    for a in range(n_apps):
        archive.add_app(
            make_app(
                f"app{a}",
                category=categories[a % len(categories)],
                price=[0.0, 0.99, 4.99][a % 3],
            )
        )
    span = (WINDOW_END - WINDOW_START).days
    for i in range(n_reviews):
        title, body, rating = TEXT_POOL[rng.randrange(len(TEXT_POOL))]
        archive.add_review(
            Review(
                review_id=f"r{i:05d}",
                app_id=f"app{rng.randrange(n_apps)}",
                author=f"user{i}",
                title=title,
                body=body,
                rating=rating,
                date=WINDOW_START + dt.timedelta(days=rng.randrange(span + 1)),
                helpful_votes=rng.randrange(3),
                app_version="1.0",
            )
        )
    return archive


# --- scoring across processes -------------------------------------------------


def force_split(monkeypatch, cpus: int) -> list[int]:
    """Make ``engine.score_reviews`` split any batch across up to ``cpus``
    processes, as far as ``engine._slice_bounds`` cuts it into slices.
    The returned list records the pid of every worker it forks."""
    pids: list[int] = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    monkeypatch.setattr(engine, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(engine, "MIN_CHARS_PER_PROCESS", 1)
    return pids


def children_left() -> bool:
    """Whether this process has a child it has not reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


class UnformattableTitle(str):
    """A title that ``len`` measures but an f-string cannot format, so a
    text holding it fails only where it is scored. A ``Review`` takes only
    ``str``: score it as the title of any object with a body."""

    def __format__(self, spec):
        raise LookupError(f"cannot format {str(self)!r}")


class KillingTitle(str):
    """A title that SIGKILLs the process that formats it when that is not
    the process that made it (a forked worker), as the OOM killer would.
    Like ``UnformattableTitle``, the title of an object with a body."""

    def __new__(cls, value):
        title = super().__new__(cls, value)
        title.maker = os.getpid()
        return title

    def __format__(self, spec):
        if os.getpid() != self.maker:
            os.kill(os.getpid(), signal.SIGKILL)
        return str(self)


# A forked worker inherits every stand-in patched into ``engine``: a
# stand-in that calls the function it replaces must call the one bound
# before the patch, never ``engine.<name>``, which is the stand-in itself.


def kill_worker(*args):
    """Stands in for ``engine._score_slice``: the worker dies on its first task."""
    os.kill(os.getpid(), signal.SIGKILL)


def late(score_slice, seconds: float):
    """A stand-in for ``engine._score_slice``, the ``score_slice`` given,
    that starts scoring ``seconds`` late."""

    def slow(*args):
        time.sleep(seconds)
        return score_slice(*args)

    return slow


def run_python(script: str, *args, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports ``reviewsent``
    from ``src`` and these helpers. A run past ``timeout`` seconds raises
    ``subprocess.TimeoutExpired``, so a hang fails the test instead of
    blocking it."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


# --- stub store endpoint -------------------------------------------------------

REVIEWS_PATH = re.compile(r"^/apps/([^/]+)/reviews$")


class Stub:
    """Configurable in-process store endpoint for client and CLI tests."""

    def __init__(self):
        self.app_payloads = {}  # app_id -> lookup result object
        self.review_pages = {}  # app_id -> list of pages (lists of review dicts)
        self.fail_remaining = {}  # path -> number of 500s to serve first
        self.fail_pages = {}  # path -> set of review pages that always 500
        self.throttle_remaining = {}  # path -> number of 429s to serve first
        self.retry_after = "0"  # Retry-After header sent with each 429
        self.requests = []
        self.base_url = ""

    def handler(self):
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _send(self, code, payload, headers=()):
                body = json.dumps(payload).encode("utf-8")
                self.send_response(code)
                for name, value in headers:
                    self.send_header(name, value)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                parsed = urlparse(self.path)
                stub.requests.append(self.path)
                if stub.throttle_remaining.get(parsed.path, 0) > 0:
                    stub.throttle_remaining[parsed.path] -= 1
                    headers = [("Retry-After", stub.retry_after)]
                    self._send(429, {"error": "slow down"}, headers)
                    return
                if stub.fail_remaining.get(parsed.path, 0) > 0:
                    stub.fail_remaining[parsed.path] -= 1
                    self._send(500, {"error": "flaky"})
                    return
                if parsed.path == "/lookup":
                    app_id = parse_qs(parsed.query).get("id", [""])[0]
                    payload = stub.app_payloads.get(app_id)
                    if payload is None:
                        self._send(200, {"resultCount": 0, "results": []})
                    else:
                        self._send(200, {"resultCount": 1, "results": [payload]})
                    return
                match = REVIEWS_PATH.match(parsed.path)
                if match:
                    app_id = match.group(1)
                    page = int(parse_qs(parsed.query).get("page", ["1"])[0])
                    if page in stub.fail_pages.get(parsed.path, set()):
                        self._send(500, {"error": "broken page"})
                        return
                    pages = stub.review_pages.get(app_id, [])
                    items = pages[page - 1] if 1 <= page <= len(pages) else []
                    self._send(200, {"reviews": items, "more": page < len(pages)})
                    return
                self._send(404, {"error": "no route"})

        return Handler


def feed_item(i: int, date: str = "2016-06-01", rating: int = 4) -> dict:
    return {
        "id": f"rev-{i:04d}",
        "author": f"user{i}",
        "title": f"title {i}",
        "body": f"body {i}",
        "rating": rating,
        "date": date,
        "votes": 0,
        "version": "1.0",
    }


def lookup_payload(app_id: str, n_keys: int = 44) -> dict:
    payload = {
        "trackId": app_id,
        "trackName": f"App {app_id}",
        "primaryGenreName": "Games",
        "price": 0.0,
        "version": "2.3",
    }
    i = 0
    while len(payload) < n_keys:
        payload[f"extra_{i}"] = i
        i += 1
    return payload


# --- reference scorer and emoji substitution ----------------------------------


def _reference_tokens(text: str, emoticons) -> Iterator[tuple[str, str, str]]:
    """(kind, surface, normalized) of each token of ``text``: emoticons
    anywhere, longest first, then whitespace chunks with their leading
    and trailing punctuation peeled off into punctuation tokens."""
    pattern = emoticon_pattern(emoticons)
    spans = [m.span() for m in pattern.finditer(text)] if pattern else []
    pos = 0
    for start, end in spans + [(len(text), len(text))]:
        for chunk in re.findall(r"\S+", text[pos:start]):
            i, j = 0, len(chunk)
            while i < j and unicodedata.category(chunk[i]).startswith("P"):
                i += 1
            while j > i and unicodedata.category(chunk[j - 1]).startswith("P"):
                j -= 1
            if i > 0:
                yield "punctuation", chunk[:i], chunk[:i]
            if i < j:
                word = chunk[i:j]
                yield "word", word, re.sub(r"([^\W\d_])\1{2,}", r"\1\1", word.lower())
            if i < j < len(chunk):
                yield "punctuation", chunk[j:], chunk[j:]
        if start < end:
            yield "emoticon", text[start:end], text[start:end]
        pos = end


def reference_score_text(lexicon: Lexicon, text: str) -> SentimentScore:
    """``score_text`` spelled out over an explicit token stream."""
    scoring = [
        (kind, normalized)
        for kind, _, normalized in _reference_tokens(text, lexicon.emoticons)
        if kind != "punctuation"
    ]
    base = []
    for kind, normalized in scoring:
        if kind == "emoticon":
            base.append(lexicon.emoticons.get(normalized, 0))
        else:
            term = lexicon.slang.get(normalized, normalized)
            base.append(lexicon.sentiment_terms.get(term, 0))

    boosts = [0] * len(scoring)
    for i, (kind, normalized) in enumerate(scoring):
        if kind != "word":
            continue
        boost = lexicon.boosters.get(normalized)
        if boost is None:
            continue
        for j in range(i + 1, min(i + BOOSTER_WINDOW, len(scoring) - 1) + 1):
            if base[j] != 0:
                boosts[j] += boost
                break

    positive, negative = 1, -1
    for score, boost in zip(base, boosts):
        if score > 0:
            positive = max(positive, max(1, min(5, score + boost)))
        elif score < 0:
            negative = min(negative, max(-5, min(-1, score - boost)))
    return SentimentScore(positive, negative)


def reference_memo_entry(lexicon: Lexicon, chunk: str) -> tuple[int, int | None] | None:
    """What the scorer may remember for a whitespace chunk that holds no
    emoticon: None when it is all punctuation, else the (score, boost) of
    the one word it holds."""
    words = [normalized for kind, _, normalized in _reference_tokens(chunk, {}) if kind == "word"]
    if not words:
        return None
    (term,) = words
    return lexicon.sentiment_terms.get(lexicon.slang.get(term, term), 0), lexicon.boosters.get(term)


def reference_substitute_emojis(text: str, lexicon: EmojiLexicon) -> str:
    """``substitute_emojis`` over one alternation of every entry, longest first."""
    if not lexicon.entries:
        return text
    ordered = sorted((e.emoji for e in lexicon.entries), key=lambda s: (-len(s), s))
    pattern = re.compile("|".join(re.escape(emoji) for emoji in ordered))
    polarity_of = {e.emoji: e.polarity for e in lexicon.entries}
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
        token = SUBSTITUTIONS[polarity_of[match.group()]]
        pieces.append(token)
        tail = token[-1] if token else tail
        following = text[match.end() : match.end() + 1]
        if following and not following.isspace():
            pieces.append(" ")
            tail = " "
        pos = match.end()
    pieces.append(text[pos:])
    return "".join(pieces)


# --- reference archive loader --------------------------------------------------


def _reference_app(obj: dict) -> AppRecord:
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


def _reference_review(obj: dict) -> Review:
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


def _reference_release(obj: dict) -> Release:
    return Release(
        app_id=str(obj["app_id"]),
        version=str(obj["version"]),
        date=dt.date.fromisoformat(obj["date"]),
        notes=str(obj.get("notes", "")),
    )


def reference_load_archive(path) -> Archive:
    """``store.load_archive`` as one plain loop: text mode, ``json.loads``
    and keyword construction on every line, every score line checked on
    its own, and one bookkeeping call per accepted line. It raises on a
    line that is not UTF-8, which the fast loader skips."""
    archive = Archive()
    pending_scores: list[tuple[int, dict]] = []
    tables = {
        "app": archive.apps,
        "review": archive.reviews,
        "release": archive.releases,
        "score": archive.scores,
    }
    lines: dict[str, list[int]] = {kind: [] for kind in tables}
    positions: dict[str, dict[object, int]] = {}

    def accept(kind: str, key: object, lineno: int) -> None:
        table, kind_lines = tables[kind], lines[kind]
        if len(table) > len(kind_lines):  # a new key, which the table appended last
            kind_lines.append(lineno)
            if kind in positions:
                positions[kind][key] = len(kind_lines) - 1
            return
        if kind not in positions:
            positions[kind] = {k: i for i, k in enumerate(table)}
        at = positions[kind][key]
        archive.load_skips.append(
            (kind_lines[at], f"duplicate {kind} key {key!r}, superseded by line {lineno}")
        )
        kind_lines[at] = lineno

    with open(path, encoding="utf-8") as stream:
        for lineno, raw in enumerate(stream, start=1):
            if not raw.strip():
                continue
            try:
                try:
                    obj = json.loads(raw)
                except RecursionError:
                    raise ArchiveError("JSON nested too deeply") from None
                if not isinstance(obj, dict):
                    raise ArchiveError("expected a JSON object")
                kind = obj.get("kind")
                if kind == "app":
                    app = _reference_app(obj)
                    archive.add_app(app)
                    accept(kind, app.app_id, lineno)
                elif kind == "review":
                    review = _reference_review(obj)
                    archive.add_review(review)
                    accept(kind, (review.app_id, review.review_id), lineno)
                elif kind == "release":
                    release = _reference_release(obj)
                    archive.add_release(release)
                    accept(kind, (release.app_id, release.version), lineno)
                elif kind == "score":
                    pending_scores.append((lineno, obj))
                else:
                    raise ArchiveError(f"unknown kind {kind!r}")
            except (ArchiveError, KeyError, TypeError, ValueError, OverflowError) as exc:
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
            key = (str(obj["app_id"]), str(obj["review_id"]))
            archive.set_score(*key, score)
            accept("score", key, lineno)
        except (ArchiveError, KeyError, TypeError, ValueError, OverflowError) as exc:
            archive.load_skips.append((lineno, str(exc) or repr(exc)))
    if archive.load_skips:
        logging.getLogger("reviewsent.store").warning(
            "archive %s: skipped %d corrupt lines", path, len(archive.load_skips)
        )
    return archive


class ScoredRow(NamedTuple):
    """One scored review joined with its app: a row of a ``ScoredView``."""

    app_id: str
    category: str
    is_free: bool
    price: float
    rating: int
    date: dt.date
    combined: int | None
    text_length: int


def view_rows(view: ScoredView) -> list[ScoredRow]:
    """The rows of a view's columns joined with its app table, in review key order."""
    rows = []
    for app, app_id in enumerate(view.apps):
        price = view.price[app]
        for at in range(view.starts[app], view.starts[app + 1]):
            combined = view.combined[at]
            rows.append(
                ScoredRow(
                    app_id=app_id,
                    category=view.category[app],
                    is_free=price == 0,
                    price=price,
                    rating=view.rating[at],
                    date=dt.date.fromordinal(view.day[at]),
                    combined=None if combined == UNDEFINED_COMBINED else combined,
                    text_length=view.text_length[at],
                )
            )
    assert len(rows) == len(view.combined) == view.starts[-1]
    return rows


def reference_scored_rows(archive: Archive) -> list[ScoredRow]:
    """The rows of ``Archive.scored_view()`` with every check and lookup spelled out per row."""
    unscored = len(archive.reviews.keys() - archive.scores.keys())
    if unscored:
        raise ArchiveError(f"{unscored} reviews have no score; run score first")
    missing_apps = {r.app_id for r in archive.reviews.values()} - archive.apps.keys()
    if missing_apps:
        raise ArchiveError(f"reviews reference unknown apps: {sorted(missing_apps)}")
    rows = []
    for key in sorted(archive.reviews):
        review = archive.reviews[key]
        app = archive.apps[review.app_id]
        rows.append(
            ScoredRow(
                app_id=app.app_id,
                category=app.primary_category,
                is_free=app.is_free,
                price=app.price,
                rating=review.rating,
                date=review.date,
                combined=combine(archive.scores[key]),
                text_length=review.text_length,
            )
        )
    return rows


def _reference_json_value(value: object) -> object:
    if isinstance(value, dt.date):
        return value.isoformat()
    if isinstance(value, Mapping):
        return dict(value)
    raise TypeError(f"cannot archive {type(value).__name__}")


def _reference_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, default=_reference_json_value)


def _reference_line(kind: str, entity, **extra) -> str:
    line = {name: getattr(entity, name) for name in entity._fields}
    line.update(kind=kind, **extra)
    try:
        return _reference_json(line)
    except RecursionError:
        raise ArchiveError("a raw payload is nested too deeply to save") from None


def reference_archive_text(archive: Archive) -> tuple[str, bytes | None]:
    """The archive text that ``store.save_archive`` writes, and its
    sidecar's bytes (``None`` when the archive has no scored view), made
    one whole ``json.dumps`` line at a time: every entity's record
    fields, ``kind`` and the extras. Each line is written to a UTF-8 text
    stream as it is made, so a string that UTF-8 cannot encode (a lone
    surrogate) raises as a text-mode archive file raises."""
    buffer = io.BytesIO()
    out = io.TextIOWrapper(buffer, encoding="utf-8", newline="\n")

    def write(line: str) -> None:
        out.write(line)
        out.write("\n")

    for app_id in sorted(archive.apps):
        app = archive.apps[app_id]
        write(_reference_line("app", app, is_free=app.is_free))
    for key in sorted(archive.reviews):
        write(_reference_line("review", archive.reviews[key]))
    for key in sorted(archive.releases):
        write(_reference_line("release", archive.releases[key]))
    for (app_id, review_id), score in sorted(archive.scores.items()):
        combined = format_combined(combine(score))
        write(_reference_line("score", score, app_id=app_id, review_id=review_id, combined=combined))
    out.flush()
    data = buffer.getvalue()
    try:
        rows = reference_scored_rows(archive)
    except ArchiveError:
        return data.decode("utf-8"), None
    return data.decode("utf-8"), reference_sidecar(archive, rows, [len(data), zlib.crc32(data)])


# the sidecar's review columns and the struct format (= array typecode) of a value
REFERENCE_COLUMNS = {"rating": "b", "day": "i", "combined": "b", "text_length": "q"}


def reference_sidecar(archive: Archive, rows: list[ScoredRow], key: list[int]) -> bytes:
    """The version-2 sidecar of ``rows`` for the archive bytes ``key``
    describes, packed value by value with ``struct``."""
    values = {
        "rating": [row.rating for row in rows],
        "day": [row.date.toordinal() for row in rows],
        "combined": [UNDEFINED_COMBINED if row.combined is None else row.combined for row in rows],
        "text_length": [row.text_length for row in rows],
    }
    apps = sorted(archive.apps)
    starts = [sum(1 for row in rows if row.app_id < app_id) for app_id in apps] + [len(rows)]
    header = {
        "version": 2,
        "key": key,
        "byteorder": sys.byteorder,
        "columns": [[name, code, len(rows)] for name, code in REFERENCE_COLUMNS.items()],
        "apps": apps,
        "category": [archive.apps[app_id].primary_category for app_id in apps],
        "price": [archive.apps[app_id].price for app_id in apps],
        "starts": starts,
        "releases": [
            (r.app_id, r.version, r.date.toordinal()) for _, r in sorted(archive.releases.items())
        ],
    }
    data = _reference_json(header).encode("utf-8") + b"\n" + b"".join(
        struct.pack(f"={len(rows)}{code}", *values[name])
        for name, code in REFERENCE_COLUMNS.items()
    )
    return data + struct.pack("<I", zlib.crc32(data))


def version1_sidecar(path: Path) -> str:
    """The JSON sidecar that a version-1 writer put next to the archive
    ``path``: its key matches the archive, its columns are lists."""
    archive = reference_load_archive(path)
    rows = reference_scored_rows(archive)
    data = path.read_bytes()
    return _reference_json({
        "version": 1,
        "key": [len(data), zlib.crc32(data)],
        "columns": {name: [getattr(row, name) for row in rows] for name in ScoredRow._fields},
        "apps": sorted(archive.apps),
        "releases": [(r.app_id, r.version, r.date) for _, r in sorted(archive.releases.items())],
    })


def sealed(body: bytes) -> bytes:
    """A sidecar body with its CRC-32 trailer, so that only the later checks can refuse it."""
    return body + struct.pack("<I", zlib.crc32(body))


def sidecar_parts(data: bytes) -> tuple[dict, list[array.array]]:
    """A version-2 sidecar's header and review columns."""
    body = data[:-4]
    end = body.index(b"\n")
    header = json.loads(body[:end])
    columns, at = [], end + 1
    for _, typecode, n in header["columns"]:
        column = array.array(typecode)
        column.frombytes(body[at : at + n * column.itemsize])
        at += n * column.itemsize
        columns.append(column)
    return header, columns


def sidecar_of(header: dict, columns: list[array.array]) -> bytes:
    """The sealed sidecar bytes of a header and review columns."""
    return sealed(_reference_json(header).encode("utf-8") + b"\n" + b"".join(columns))


def _other_byte_order(data: bytes) -> bytes:
    header, columns = sidecar_parts(data)
    header["byteorder"] = {"little": "big", "big": "little"}[header["byteorder"]]
    for column in columns:
        column.byteswap()
    return sidecar_of(header, columns)


def _flip_bit(data: bytes) -> bytes:
    """One bit of the last review's combined value flipped; the trailer kept."""
    header, columns = sidecar_parts(data)
    at = len(data) - 4 - columns[3].itemsize * len(columns[3]) - 1
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]


# damage a current sidecar can take, each a function of its bytes and its
# archive's path; the CLI must treat each as a miss
SIDECAR_DAMAGE = {
    "truncated": lambda data, path: data[: len(data) // 2],
    "bit flipped": lambda data, path: _flip_bit(data),
    "padded": lambda data, path: sealed(data[:-4] + bytes(8)),
    "other byte order": lambda data, path: _other_byte_order(data),
    "version 1 JSON": lambda data, path: version1_sidecar(path).encode("utf-8"),
}


# --- generated and byte-mutated archives -------------------------------------

# few ids, so that keys repeat and scores meet their reviews; "1" and
# "True" are what the ids 1 and true read as
IDS = ["ü 😀", "1", "True"]
WORDS = ["", "a body", "ünï 😀 ✓", 'q"uote\\', "two\nlines", "cr\r\nlf", "\u2028"]
SCALARS = [True, 3, 3.0, "3", "x", None, [], -1, 0, 7, 10**30, 10**400, float("inf")]
# combined values from few scores, so that the same score meets itself
# written as a string, an int and a float
COMBINED = [3, 3, -4, -4, None, *COMBINED_TO_SCORE]
ODD_LINES = ["", "   ", "\t", "\x0b", "[1, 2]", "null", "NaN", "1" * 4400, '"text"', "{", "{}",
             "[" * 100_000, '{"kind": ' * 100_000]


def _archive_object(rng: random.Random, odds: int) -> dict:
    """An app, review, release or score line; about one field in ``odds``
    is odd and one line in ``odds`` misses a field."""

    def field(valid, *odd):
        return rng.choice(odd + tuple(SCALARS)) if rng.randrange(odds) == 0 else valid

    kind = rng.choice(["app", "review", "review", "release", "score", "score", "?"])
    app_id = field(rng.choice(IDS), 1, True)
    date = field(dt.date(2016, 1, 4) + dt.timedelta(days=rng.randrange(400)), "2016-13-01", "")
    date = date.isoformat() if isinstance(date, dt.date) else date
    if kind == "app":
        price = rng.choice([0.0, 0.99, 4.99, -1.0])
        obj = {"app_id": app_id, "name": rng.choice(WORDS), "primary_category": rng.choice(WORDS),
               "price": field(price, "1.5"), "current_version": "1.0",
               "is_free": field(price == 0, price != 0), "raw_details": {"id": 7}}
    elif kind == "review":
        obj = {"review_id": field(rng.choice(IDS), 1, True), "app_id": app_id,
               "author": rng.choice(WORDS), "title": rng.choice(WORDS), "body": rng.choice(WORDS),
               "rating": field(rng.randint(1, 5), 0, 6, "4"), "date": date,
               "helpful_votes": field(rng.randint(0, 3), -2),
               "app_version": "1.0", "raw": {"k": [1, "two"]}}
    elif kind == "release":
        obj = {"app_id": app_id, "version": field(rng.choice(IDS), ""), "date": date,
               "notes": rng.choice(WORDS)}
    elif kind == "score":
        combined = rng.choice(COMBINED)
        positive, negative = COMBINED_TO_SCORE[combined]
        as_read = ("undefined",) if combined is None else (combined, float(combined))
        obj = {"app_id": app_id, "review_id": field(rng.choice(IDS), 1, True),
               "positive": field(positive, 3.0, 0, 6, float("nan")),
               "negative": field(negative, -4.0, "-2", 0, -6),
               "combined": field(format_combined(combined), *as_read, "2", "6", "-0")}
    else:
        obj = {}
    obj = {**obj, "kind": kind}
    if rng.randrange(odds) == 0:
        del obj[rng.choice(sorted(obj))]
    return obj


def _archive_line(rng: random.Random, odds: int, obj: dict) -> str:
    """``obj`` as an archive line with its ending; one line in ``odds``
    is altered or replaced by an odd one."""
    text = json.dumps(obj, ensure_ascii=rng.random() < 0.5, sort_keys=rng.random() < 0.5)
    if rng.randrange(odds) == 0:
        form = rng.choice(["bom", "leading", "trailing", "text", "cut", "odd"])
        if form == "bom":
            text = "\ufeff" + text
        elif form == "leading":
            text = " " + text
        elif form == "trailing":
            text += " \t"
        elif form == "text":
            text += " x"
        elif form == "cut":
            text = text[: rng.randrange(1, len(text))]
        else:
            text = rng.choice(ODD_LINES)
    return text + rng.choice(["\n"] * 8 + ["\r\n", "\r"])


@st.composite
def archive_files(draw) -> str:
    """Archive text: lines valid, altered or odd, repeated keys, scores
    before and after their reviews, the last line with or without its
    newline."""
    rng = draw(st.randoms(use_true_random=True))
    odds = rng.choice([3, 30])  # messy or mostly valid
    objects = [_archive_object(rng, odds) for _ in range(draw(st.integers(0, 40)))]
    reviews = [
        o for o in objects if o.get("kind") == "review" and {"app_id", "review_id"} <= o.keys()
    ]
    for at, obj in enumerate(objects):
        if obj.get("kind") == "score" and reviews and rng.randrange(5):
            review = rng.choice(reviews)  # its key, as read or as written
            objects[at] = {**obj, "app_id": review["app_id"], "review_id": review["review_id"]}
    text = "".join(_archive_line(rng, odds, obj) for obj in objects)
    return text if rng.random() < 0.5 else text.rstrip("\n")


@functools.cache
def small_scored_archive() -> bytes:
    """The bytes of a saved 4-review scored archive, to be mutated."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "archive.jsonl"
        save_archive(random_archive(random.Random(3), n_apps=2, n_reviews=4), path)
        return path.read_bytes()


# (offset, byte, how): the byte is written over, put before, or removed;
# the offset wraps around the archive's length
BYTE_EDITS = st.tuples(
    st.integers(0, 1 << 16),
    st.sampled_from(b'[]{}",:-.0159eEInfty \n\r\xff'),
    st.sampled_from(["replace", "insert", "delete"]),
)


def mutated(data: bytes, edits: list[tuple[int, int, str]]) -> bytes:
    """``data`` with each of ``BYTE_EDITS``'s edits applied in turn."""
    data = bytearray(data)
    for offset, byte, how in edits:
        offset %= len(data)
        if how == "replace":
            data[offset] = byte
        elif how == "insert":
            data.insert(offset, byte)
        elif len(data) > 1:
            del data[offset]
    return bytes(data)
