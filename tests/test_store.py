"""Archive model, persistence round-trips, and release import."""

import dataclasses
import datetime as dt
import io
import json
import logging
import random
import tempfile
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reviewsent import store
from reviewsent.combine import combine, format_combined
from reviewsent.engine import SentimentScore
from reviewsent.store import (
    AppRecord,
    Archive,
    ArchiveError,
    ArchiveLockedError,
    Release,
    Review,
    archive_lock,
    import_releases,
    load_archive,
    load_scored_view,
    save_archive,
    view_path,
)

from helpers import (
    COMBINED_TO_SCORE,
    make_app,
    make_review,
    random_archive,
    reference_archive_text,
    reference_load_archive,
    reference_scored_rows,
    score_for_combined,
)


def test_review_validation():
    with pytest.raises(ArchiveError):
        make_review("app1", "r1", rating=0)
    with pytest.raises(ArchiveError):
        make_review("app1", "r1", rating=6)
    with pytest.raises(ArchiveError):
        Review(
            review_id="r1",
            app_id="app1",
            author="a",
            title="t",
            body="b",
            rating=3,
            date=dt.date(2016, 1, 1),
            helpful_votes=-1,
        )


def test_app_is_free_tracks_price():
    assert make_app("a", price=0.0).is_free
    assert not make_app("a", price=0.99).is_free
    with pytest.raises(ArchiveError):
        make_app("a", price=-1.0)


def test_set_score_requires_review():
    archive = Archive()
    with pytest.raises(ArchiveError):
        archive.set_score("app1", "missing", SentimentScore(1, -1))


def test_scored_rows_follow_key_order_with_combined_and_length():
    archive = Archive()
    archive.add_app(make_app("app2", category="News", price=0.99))
    archive.add_app(make_app("app1"))
    archive.add_review(make_review("app2", "r0", rating=1, title="", body="xyz"))
    archive.add_review(make_review("app1", "r2", rating=4, title="ab", body="cde"))
    archive.add_review(make_review("app1", "r1", rating=5))
    scores = {
        ("app2", "r0"): SentimentScore(4, -4),
        ("app1", "r2"): SentimentScore(3, -4),
        ("app1", "r1"): SentimentScore(5, -1),
    }
    for (app_id, review_id), score in scores.items():
        archive.set_score(app_id, review_id, score)
    rows = archive.scored_rows()
    assert [(row.app_id, row.rating) for row in rows] == [
        ("app1", 5),
        ("app1", 4),
        ("app2", 1),
    ]
    assert [row.combined for row in rows] == [
        combine(scores[key]) for key in sorted(scores)
    ] == [5, -4, None]
    assert [row.text_length for row in rows] == [len("a title") + len("a body"), 5, 3]
    assert (rows[2].category, rows[2].is_free, rows[2].price) == ("News", False, 0.99)
    assert rows[0].date == make_review("app1", "r1").date
    assert Archive().scored_rows() == []


def test_scored_rows_refuse_unscored_review_and_unknown_app():
    archive = Archive()
    archive.add_app(make_app("app1"))
    archive.add_review(make_review("app1", "r1"))
    archive.add_review(make_review("app1", "r2"))
    archive.set_score("app1", "r1", SentimentScore(2, -1))
    with pytest.raises(ArchiveError, match="1 reviews have no score; run score first"):
        archive.scored_rows()
    archive.scores[("app1", "gone")] = SentimentScore(2, -1)  # as many scores as reviews
    with pytest.raises(ArchiveError, match="1 reviews have no score; run score first"):
        archive.scored_rows()

    del archive.scores[("app1", "gone")]
    archive.set_score("app1", "r2", SentimentScore(2, -1))
    archive.add_review(make_review("ghost", "r3"))
    archive.set_score("ghost", "r3", SentimentScore(2, -1))
    with pytest.raises(ArchiveError, match=r"unknown apps: \['ghost'\]"):
        archive.scored_rows()


def test_roundtrip_identity(tmp_path):
    rng = random.Random(7)
    archive = random_archive(rng, n_apps=4, n_reviews=80)
    archive.add_release(Release("app0", "2.0", dt.date(2016, 6, 1), "notes, with commas"))
    archive.add_release(Release("app1", "1.1", dt.date(2016, 3, 15), "unicode ✓ emoji 😀"))
    path = tmp_path / "archive.jsonl"
    save_archive(archive, path)
    loaded = load_archive(path)
    assert loaded == archive
    assert loaded.load_skips == []


def test_roundtrip_identity_randomized(tmp_path):
    for seed in range(10):
        rng = random.Random(seed)
        archive = random_archive(rng, n_apps=2, n_reviews=20)
        path = tmp_path / f"archive-{seed}.jsonl"
        save_archive(archive, path)
        assert load_archive(path) == archive


def test_persisted_bytes_deterministic(tmp_path):
    rng = random.Random(11)
    archive = random_archive(rng)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_archive(archive, a)
    save_archive(archive, b)
    assert a.read_bytes() == b.read_bytes()


def test_idempotent_ingestion(tmp_path):
    archive = Archive()
    archive.add_app(make_app("app1"))
    review = make_review("app1", "r1")
    archive.add_review(review)
    archive.add_review(review)  # same feed twice
    assert len(archive.reviews) == 1
    merged = Archive()
    merged.merge(archive)
    merged.merge(archive)
    assert merged == archive


def test_archive_line_keys_per_kind(tmp_path):
    archive = Archive()
    archive.add_app(dataclasses.replace(make_app("app1"), raw_details=MappingProxyType({})))
    archive.add_review(make_review("app1", "r1"))
    archive.add_release(Release("app1", "1.0", dt.date(2016, 1, 4)))
    archive.set_score("app1", "r1", SentimentScore(3, -4))
    path = tmp_path / "archive.jsonl"
    save_archive(archive, path)
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    keys = {line["kind"]: set(line) for line in lines}
    assert keys == {
        "app": {
            "kind", "app_id", "name", "primary_category", "price", "is_free",
            "current_version", "raw_details",
        },
        "review": {
            "kind", "review_id", "app_id", "author", "title", "body", "rating",
            "date", "helpful_votes", "app_version", "raw",
        },
        "release": {"kind", "app_id", "version", "date", "notes"},
        "score": {"kind", "app_id", "review_id", "positive", "negative", "combined"},
    }
    app, review, release, score = lines
    assert (app["is_free"], app["raw_details"]) == (True, {})
    assert (review["date"], release["date"]) == ("2016-01-04", "2016-01-04")
    assert (score["positive"], score["negative"], score["combined"]) == (3, -4, "-4")
    assert load_archive(path) == archive


def test_archive_equality_ignores_load_skips():
    skipped = Archive()
    skipped.load_skips.append((1, "expected a JSON object"))
    assert skipped == Archive()
    assert repr(skipped).startswith("<reviewsent.store.Archive object at ")


def test_corrupt_lines_skipped_with_report(tmp_path):
    archive = Archive()
    archive.add_app(make_app("app1"))
    archive.add_review(make_review("app1", "r1"))
    path = tmp_path / "archive.jsonl"
    save_archive(archive, path)
    app, review = path.read_bytes().splitlines()
    path.write_bytes(
        b"".join(
            [
                app + b"\n",
                b"{not json\n",
                b'{"kind": "app", "name": "caf\xff"}\r\n',  # not UTF-8
                review + b"\r",  # a lone CR ends a line too
                json.dumps({"kind": "mystery"}).encode() + b"\r\n",
                # missing fields
                json.dumps({"kind": "review", "review_id": "bad"}).encode() + b"\n",
                b"[1, 2]\nnull\n",  # valid JSON, but not objects
                b"[" * 100_000 + b"\n",  # deeper than the decoder recurses
                # a price that is not finite
                app.replace(b'"price": 0.0', b'"price": Infinity') + b"\n",
                app.replace(b'"price": 0.0', b'"price": NaN') + b"\n",
                # non-finite numbers in int fields
                review.replace(b'"rating": 3', b'"rating": Infinity') + b"\n",
                b'{"kind": "score", "app_id": "app1", "review_id": "r1", "positive": Infinity,'
                b' "negative": -1, "combined": "5"}\n',
            ]
        )
    )
    loaded = load_archive(path)
    assert [lineno for lineno, _ in loaded.load_skips] == [2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13]
    assert loaded.load_skips[1] == (3, "invalid UTF-8 at byte 28: invalid start byte")
    assert loaded.load_skips[4:] == [
        (7, "expected a JSON object"),
        (8, "expected a JSON object"),
        (9, "JSON nested too deeply"),
        (10, "app app1: price inf is not finite"),
        (11, "app app1: price nan is not finite"),
        (12, "cannot convert float infinity to integer"),
        (13, "cannot convert float infinity to integer"),
    ]
    assert loaded.apps == archive.apps
    assert loaded.reviews == archive.reviews


def test_score_combined_rechecked_on_load(tmp_path):
    archive = Archive()
    archive.add_app(make_app("app1"))
    archive.add_review(make_review("app1", "r1"))
    archive.set_score("app1", "r1", SentimentScore(3, -4))
    path = tmp_path / "archive.jsonl"
    save_archive(archive, path)
    tampered = path.read_text(encoding="utf-8").replace('"combined": "-4"', '"combined": "3"')
    path.write_text(tampered, encoding="utf-8")
    loaded = load_archive(path)
    assert loaded.scores == {}
    assert len(loaded.load_skips) == 1
    assert "does not match" in loaded.load_skips[0][1]


def test_undefined_combined_serialized_as_literal(tmp_path):
    archive = Archive()
    archive.add_app(make_app("app1"))
    archive.add_review(make_review("app1", "r1"))
    archive.set_score("app1", "r1", score_for_combined(None))
    path = tmp_path / "archive.jsonl"
    save_archive(archive, path)
    assert '"combined": "undefined"' in path.read_text(encoding="utf-8")
    assert load_archive(path) == archive


def test_archive_lock_blocks_second_writer(tmp_path):
    path = tmp_path / "archive.jsonl"
    with archive_lock(path):
        with pytest.raises(ArchiveLockedError):
            save_archive(Archive(), path)
    save_archive(Archive(), path)  # lock released


def test_failed_save_keeps_old_archive_and_leaves_no_tmp(tmp_path, monkeypatch):
    path = tmp_path / "archive.jsonl"
    save_archive(random_archive(random.Random(3), n_reviews=20), path)
    before = path.read_bytes()
    view_before = store.view_path(path).read_bytes()

    quote = store._quote
    calls = 0

    def failing_quote(text):
        nonlocal calls
        calls += 1
        if calls == 10:  # partway through the review lines: six strings in each
            raise OSError("disk full")
        return quote(text)

    monkeypatch.setattr(store, "_quote", failing_quote)
    replacement = random_archive(random.Random(4), n_reviews=20)
    with pytest.raises(OSError, match="disk full"):
        save_archive(replacement, path)
    assert calls == 10
    assert path.read_bytes() == before
    assert store.view_path(path).read_bytes() == view_before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["archive.jsonl", "archive.jsonl.view"]

    monkeypatch.setattr(store, "_quote", quote)
    save_archive(replacement, path)  # lock released
    assert load_archive(path) == replacement


def test_repeated_keys_last_line_wins_and_superseded_lines_reported(tmp_path):
    archive = Archive()
    archive.add_app(make_app("app1"))
    archive.add_review(make_review("app1", "r1"))
    archive.add_release(Release("app1", "1.0", dt.date(2016, 1, 4)))
    archive.set_score("app1", "r1", SentimentScore(3, -4))
    path = tmp_path / "archive.jsonl"
    save_archive(archive, path)
    app, review, release, score = path.read_text(encoding="utf-8").splitlines()
    lines = [
        app.replace("App app1", "Old name"),  # 1, superseded by 5
        review.replace("a body", "old body"),  # 2, superseded by 7
        release,  # 3, superseded by 8
        score.replace('"positive": 3', '"positive": 2'),  # 4, superseded by 9
        app,  # 5
        json.dumps({"kind": "review", "review_id": "r1"}),  # 6: corrupt, supersedes nothing
        review,  # 7
        release.replace('"notes": ""', '"notes": "again"'),  # 8
        score,  # 9
        review.replace('"r1"', '"r2"'),  # 10: a new key after the first repeat, superseded by 11
        review.replace('"r1"', '"r2"').replace("a body", "r2 body"),  # 11
        review.replace("a body", "third body"),  # 12: r1 a third time, supersedes 7
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded = load_archive(path)
    assert loaded.apps["app1"].name == "App app1"
    assert loaded.reviews[("app1", "r1")].body == "third body"
    assert loaded.reviews[("app1", "r2")].body == "r2 body"
    assert loaded.releases[("app1", "1.0")].notes == "again"
    assert loaded.scores[("app1", "r1")] == SentimentScore(3, -4)
    assert sorted(loaded.load_skips)[:2] == [
        (1, "duplicate app key 'app1', superseded by line 5"),
        (2, "duplicate review key ('app1', 'r1'), superseded by line 7"),
    ]
    assert sorted(loaded.load_skips)[2:] == [
        (3, "duplicate release key ('app1', '1.0'), superseded by line 8"),
        (4, "duplicate score key ('app1', 'r1'), superseded by line 9"),
        (6, "'app_id'"),
        (7, "duplicate review key ('app1', 'r1'), superseded by line 12"),
        (10, "duplicate review key ('app1', 'r2'), superseded by line 11"),
    ]



def _entity_line(kind: str, k: int) -> tuple[object, str]:
    """An archive line of one of a few apps, reviews or releases, and its key."""
    if kind == "app":
        app = make_app(f"a{k}")
        return app.app_id, store._ENCODER.encode(
            store._entity_to_json("app", app, is_free=app.is_free)
        )
    if kind == "review":
        key, entity = ("a0", f"r{k}"), make_review("a0", f"r{k}")
    else:
        key, entity = ("a0", f"v{k}"), Release("a0", f"v{k}", dt.date(2016, 1, 4))
    return key, store._ENCODER.encode(store._entity_to_json(kind, entity))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["app", "review", "release"]), st.integers(0, 3))))
def test_superseded_lines_match_a_map_of_every_key(entries):
    lines, expected, line_of = [], [], {}
    for lineno, (kind, k) in enumerate(entries, start=1):
        key, line = _entity_line(kind, k)
        lines.append(line)
        if (kind, key) in line_of:
            expected.append(
                (line_of[kind, key], f"duplicate {kind} key {key!r}, superseded by line {lineno}")
            )
        line_of[kind, key] = lineno
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "archive.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert sorted(load_archive(path).load_skips) == sorted(expected)

# --- the loader against its reference -------------------------------------------

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


class _Warnings(logging.Handler):
    """The messages the store logs at WARNING while in use."""

    def __enter__(self):
        self.messages = []
        logging.getLogger("reviewsent.store").addHandler(self)
        return self.messages

    def __exit__(self, *exc):
        logging.getLogger("reviewsent.store").removeHandler(self)

    def emit(self, record):
        if record.levelno >= logging.WARNING:
            self.messages.append(record.getMessage())


def _rows_or_error(rows):
    try:
        return rows()
    except ArchiveError as exc:
        return str(exc)


@settings(max_examples=600, deadline=None)
@given(archive_files())
def test_loader_equals_reference_loader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "archive.jsonl"
        path.write_bytes(text.encode("utf-8"))
        with _Warnings() as expected_warnings:
            expected = reference_load_archive(path)
        with _Warnings() as warnings:
            loaded = load_archive(path)
    assert loaded == expected
    assert loaded.load_skips == expected.load_skips
    for table in "apps", "reviews", "releases", "scores":
        assert list(getattr(loaded, table)) == list(getattr(expected, table))
    assert _rows_or_error(loaded.scored_rows) == _rows_or_error(
        lambda: reference_scored_rows(expected)
    )
    assert warnings == expected_warnings


# --- scored-view sidecar ---------------------------------------------------------

TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.sampled_from(["", "two\nlines", "crlf\r\nend", "ünï 😀 ✓", "a,b;\"c\""]),
)
DATES = st.dates(dt.date(2015, 1, 1), dt.date(2017, 12, 31))


@st.composite
def scored_archives(draw) -> Archive:
    """Apps with and without reviews, free and paid, every combined value, releases."""
    archive = Archive()
    n_apps = draw(st.integers(1, 4))
    for a in range(n_apps):
        archive.add_app(
            AppRecord(
                app_id=f"app{a}{draw(TEXT)}",
                name=draw(TEXT),
                primary_category=draw(TEXT),
                price=draw(st.sampled_from([0.0, 0.99, 4.99, 1e-7, 1234.5])),
            )
        )
    app_ids = sorted(archive.apps)
    for i in range(draw(st.integers(0, 12))):
        app_id = draw(st.sampled_from(app_ids))
        review_id = f"r{i}{draw(TEXT)}"
        archive.add_review(
            Review(
                review_id=review_id,
                app_id=app_id,
                author=draw(TEXT),
                title=draw(TEXT),
                body=draw(TEXT),
                rating=draw(st.integers(1, 5)),
                date=draw(DATES),
            )
        )
        combined = draw(st.sampled_from(list(COMBINED_TO_SCORE)))
        archive.set_score(app_id, review_id, score_for_combined(combined))
    for _ in range(draw(st.integers(0, 3))):
        version = draw(st.text(min_size=1, max_size=5).filter(lambda v: "\x00" not in v))
        archive.add_release(
            Release(draw(st.sampled_from(app_ids)), version, draw(DATES), draw(TEXT))
        )
    return archive


@settings(max_examples=60, deadline=None)
@given(scored_archives())
def test_sidecar_view_equals_full_load_view(archive):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "archive.jsonl"
        save_archive(archive, path)
        expected = load_archive(path).scored_view()
        assert store._read_view(path) == expected  # the sidecar itself, no fallback
        assert load_scored_view(path) == expected


@settings(max_examples=60, deadline=None)
@given(scored_archives())
def test_scored_rows_equal_reference_rows(archive):
    expected = reference_scored_rows(archive)
    assert archive.scored_rows() == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "archive.jsonl"
        save_archive(archive, path)
        # a loaded archive shares one score object per distinct score
        assert load_archive(path).scored_rows() == expected


# --- the writer against its reference ---------------------------------------


class TextSubclass(str):
    """A str subclass: JSON writes its text, but the writer's fast path takes only str."""


@dataclasses.dataclass(frozen=True, slots=True)
class TaggedReview(Review):
    """A review with one field more, which its archive line holds too."""

    tag: str = "t"


@dataclasses.dataclass(frozen=True, slots=True)
class TaggedScore(SentimentScore):
    """A score with one field more, which its archive line holds too."""

    tag: str = "t"


WRITER_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    st.sampled_from(["", "ünï 😀", "\u2028 \u2029", "\x00\x1f\x7f\x9f", '"\\/', "a\nb\rc\td"]),
)
BIG_INTS = st.sampled_from([2**63, -(2**100), 10**1000])
JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), BIG_INTS, st.floats(), WRITER_TEXT)
RAW = st.one_of(
    st.just({}),
    st.dictionaries(WRITER_TEXT, JSON_LEAVES, max_size=3),
    st.dictionaries(st.integers(-3, 3), JSON_LEAVES, max_size=2),  # keys JSON converts
    st.recursive(
        st.dictionaries(WRITER_TEXT, JSON_LEAVES, max_size=2),
        lambda inner: st.dictionaries(
            WRITER_TEXT, inner | st.lists(inner, max_size=2) | inner.map(MappingProxyType),
            max_size=2,
        ),
        max_leaves=6,
    ),
    st.dictionaries(WRITER_TEXT, JSON_LEAVES, max_size=2).map(MappingProxyType),
)
ODD_REVIEW_FIELDS = st.sampled_from([
    # lone surrogates, which UTF-8 cannot encode
    ("title", "\udc80"), ("author", "x\ud800y"), ("body", "\udfff\ud800"),
    ("raw", {"\udc80": 0}),
    ("raw", {0: 0, "x": 1}),  # keys that cannot be sorted together
    # 10**4300, one digit more than str() allows, built when drawn: its repr raises
    ("helpful_votes", 4300),
    # values of other types than declared, which the encoder writes as they are
    ("app_id", 7), ("app_version", None), ("author", 7), ("body", None), ("review_id", 7),
    ("title", None), ("date", "2016-01-04"), ("date", None), ("raw", None), ("raw", []),
]).map(lambda odd: ("helpful_votes", 10**4300) if odd == ("helpful_votes", 4300) else odd)
WRITER_DATES = st.one_of(
    st.dates(), st.dates(), st.datetimes(dt.datetime(1, 1, 1), dt.datetime(2100, 1, 1))
)


@st.composite
def writer_text(draw) -> str:
    """Mostly str, now and then a str subclass."""
    return _rarely(draw, WRITER_TEXT, WRITER_TEXT.map(TextSubclass))


def _rarely(draw, usual, odd):
    """A value drawn from ``usual``, or now and then from ``odd``."""
    # a value inside the range: hypothesis draws the ends of a range often
    return draw(odd if draw(st.integers(0, 5)) == 3 else usual)


@st.composite
def writer_archives(draw) -> Archive:
    """Entities holding every value the fast path must hand to the reference
    encoding: non-ASCII, control characters, U+2028, lone surrogates, str
    subclasses, bools and big ints in int fields, datetimes in dates,
    empty, flat, nested and non-dict raw mappings, values of undeclared
    types, and subclasses of ``Review`` and ``SentimentScore`` with a
    field more. Some reviews are unscored or name an app that is not in
    the archive."""
    archive = Archive()
    for a in range(draw(st.integers(0, 3))):
        archive.add_app(
            AppRecord(
                app_id=f"app{a}{draw(WRITER_TEXT)}",
                name=draw(writer_text()),
                primary_category=draw(writer_text()),
                price=draw(st.sampled_from([0.0, 0.99, 1e-7, 1234.5])),
                current_version=draw(writer_text()),
                raw_details=draw(RAW),
            )
        )
    app_ids = sorted(archive.apps) + ["no such app"] * draw(st.integers(0, 1)) or ["no app"]
    scores = [
        _rarely(draw, st.just(SentimentScore), st.just(TaggedScore))(
            _rarely(draw, st.integers(1, 5), st.just(True)),
            # JSON cannot write a Fraction
            _rarely(draw, st.integers(-5, -1), st.integers(-5, -1) | st.just(Fraction(-2))),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    # about one review in four holds an odd field value; when two do, the
    # first one's error must be the one raised
    odd = [
        draw(ODD_REVIEW_FIELDS) if draw(st.booleans()) and draw(st.booleans()) else None
        for _ in range(draw(st.integers(0, 8)))
    ]
    for i in range(len(odd)):
        review = _rarely(draw, st.just(Review), st.just(TaggedReview))(
            review_id=_rarely(draw, st.just(f"r{i}"), st.just(TextSubclass(f"r{i}"))),
            app_id=_rarely(draw, st.sampled_from(app_ids), st.sampled_from(app_ids).map(TextSubclass)),
            author=draw(writer_text()),
            title=draw(writer_text()),
            body=draw(writer_text()),
            rating=_rarely(draw, st.integers(1, 5), st.just(True)),
            date=draw(WRITER_DATES),
            helpful_votes=_rarely(draw, st.integers(0, 9), st.booleans() | BIG_INTS.map(abs)),
            app_version=draw(writer_text()),
            raw=draw(RAW),
        )
        if odd[i] is not None:
            review = dataclasses.replace(review, **dict([odd[i]]))
        archive.add_review(review)
        if draw(st.integers(0, 9)):  # the odd review stays unscored
            archive.set_score(review.app_id, review.review_id, draw(st.sampled_from(scores)))
    for _ in range(draw(st.integers(0, 2))):
        archive.add_release(
            Release(
                draw(st.sampled_from(app_ids)),
                f"v{draw(writer_text())}",
                draw(WRITER_DATES),
                draw(writer_text()),
            )
        )
    return archive


def _outcome(write):
    try:
        return write()
    except Exception as exc:  # the outcome compared: the exception's type and text
        return type(exc), str(exc)


def _saved(archive: Archive, path: Path) -> tuple[str, str | None]:
    save_archive(archive, path)
    sidecar = view_path(path)
    view = sidecar.read_bytes().decode("utf-8") if sidecar.exists() else None
    return path.read_bytes().decode("utf-8"), view


def _one_review(score: SentimentScore | None = SentimentScore(3, -2), **fields) -> Archive:
    """A one-review archive, its review holding ``fields``; unscored when
    ``score`` is None."""
    archive = Archive()
    archive.add_app(make_app("app1"))
    review = dataclasses.replace(make_review("app1", "r1"), **fields)
    archive.add_review(review)
    if score is not None:
        archive.set_score(review.app_id, review.review_id, score)
    return archive


# one value the writer's fast path must refuse per guard: a lone review
# has no other review's key to fail sorting against, and an unscored one
# no text length to measure
@example(_one_review(app_id=7))
@example(_one_review(app_version=None))
@example(_one_review(author=7))
@example(_one_review(score=None, body=None))
@example(_one_review(review_id=7))
@example(_one_review(score=None, title=None))
@example(_one_review(rating=True))
@example(_one_review(helpful_votes=True))
@example(_one_review(date="2016-01-04"))
@example(_one_review(raw=None))
@example(_one_review(score=SentimentScore(True, -2)))
@example(_one_review(score=SentimentScore(3, Fraction(-2))))
@settings(max_examples=300, deadline=None)
@given(writer_archives())
def test_save_writes_the_reference_bytes_or_raises_its_error(archive):
    expected = _outcome(lambda: reference_archive_text(archive))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "archive.jsonl"
        assert _outcome(lambda: _saved(archive, path)) == expected
        if isinstance(expected[0], type):  # a failed save leaves nothing behind
            assert list(Path(tmp).iterdir()) == []


def _flip_rating(path: Path) -> None:
    """Change one archive byte, keeping its length: the first review's rating."""
    data = path.read_bytes()
    at = data.index(b'"rating": ') + len(b'"rating": ')
    path.write_bytes(data[:at] + (b"5" if data[at:at + 1] != b"5" else b"1") + data[at + 1:])


def _edit_sidecar(change):
    def edit(path: Path) -> None:
        sidecar = view_path(path)
        sidecar.write_text(change(sidecar.read_text(encoding="utf-8")), encoding="utf-8")

    return edit


STALE_SIDECARS = {
    "archive byte changed": _flip_rating,
    "sidecar truncated": _edit_sidecar(lambda text: text[: len(text) // 2]),
    "sidecar not an object": _edit_sidecar(lambda text: "[" + text + "]"),
    "sidecar version": _edit_sidecar(lambda text: text.replace('"version": 1', '"version": 2')),
    "sidecar columns": _edit_sidecar(lambda text: text.replace('"rating"', '"stars"')),
    "sidecar missing": lambda path: view_path(path).unlink(),
    "sidecar nested too deep": _edit_sidecar(lambda text: "[" * 100_000),
}


@pytest.mark.parametrize("stale", sorted(STALE_SIDECARS))
def test_stale_sidecar_falls_back_to_full_load(tmp_path, monkeypatch, stale):
    path = tmp_path / "archive.jsonl"
    save_archive(random_archive(random.Random(5), n_reviews=30), path)
    STALE_SIDECARS[stale](path)
    expected = load_archive(path).scored_view()
    loads = []
    monkeypatch.setattr(store, "load_archive", lambda p: loads.append(p) or load_archive(p))
    assert load_scored_view(path) == expected
    assert loads == [path]


def test_unscored_save_removes_sidecar_and_view_refuses(tmp_path):
    path = tmp_path / "archive.jsonl"
    archive = random_archive(random.Random(6), n_reviews=10)
    save_archive(archive, path)
    assert view_path(path).is_file()
    archive.add_review(make_review("app0", "unscored"))
    save_archive(archive, path)
    assert not view_path(path).exists()
    with pytest.raises(ArchiveError, match="1 reviews have no score; run score first"):
        load_scored_view(path)


def test_failed_sidecar_write_keeps_old_archive_and_leaves_no_tmp(tmp_path, monkeypatch):
    path = tmp_path / "archive.jsonl"
    save_archive(random_archive(random.Random(7), n_reviews=10), path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def failing_write_view(*args):
        raise OSError("disk full")

    monkeypatch.setattr(store, "_write_view", failing_write_view)
    with pytest.raises(OSError, match="disk full"):
        save_archive(random_archive(random.Random(8), n_reviews=10), path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# --- release import ------------------------------------------------------------


def test_import_releases_valid_rows():
    stream = io.StringIO(
        "app_id,version,date,notes\n"
        "app1,5.0.5,2016-11-21,fixes\n"
        "app1,5.0.6,2016-11-30,Select multiple messages\n"
    )
    releases, rejects = import_releases(stream)
    assert rejects == []
    assert [r.version for r in releases] == ["5.0.5", "5.0.6"]
    assert releases[1].date == dt.date(2016, 11, 30)


def test_import_releases_duplicate_rejected():
    stream = io.StringIO(
        "app_id,version,date,notes\n"
        "app1,1.0,2016-01-01,first\n"
        "app1,1.0,2016-02-01,again\n"
    )
    releases, rejects = import_releases(stream)
    assert len(releases) == 1
    assert len(rejects) == 1
    assert rejects[0][0] == 3
    assert "duplicate" in rejects[0][1]


def test_import_releases_bad_date_rejected():
    stream = io.StringIO("app_id,version,date,notes\napp1,1.0,30-11-2016,x\n")
    releases, rejects = import_releases(stream)
    assert releases == []
    assert rejects[0][0] == 2
    assert "bad date" in rejects[0][1]


def test_import_releases_date_regression_rejected():
    stream = io.StringIO(
        "app_id,version,date,notes\n"
        "app1,2.0,2016-06-01,x\n"
        "app1,2.1,2016-05-01,regresses\n"
        "app2,1.0,2016-01-01,other app unaffected\n"
    )
    releases, rejects = import_releases(stream)
    assert [r.version for r in releases] == ["2.0", "1.0"]
    assert len(rejects) == 1


def test_import_releases_header_required():
    with pytest.raises(ArchiveError):
        import_releases(io.StringIO("app1,1.0,2016-01-01,x\n"))
