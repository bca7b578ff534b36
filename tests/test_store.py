"""Archive model, persistence round-trips, and release import."""

import datetime as dt
import io
import json
import logging
import os
import random
import tempfile
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reviewsent import store
from reviewsent.combine import combine
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
    lock_path,
    load_archive,
    load_scored_view,
    save_archive,
    view_path,
)

from helpers import (
    BYTE_EDITS,
    COMBINED_TO_SCORE,
    SIDECAR_DAMAGE,
    archive_files,
    make_app,
    make_review,
    mutated,
    random_archive,
    reference_archive_text,
    reference_load_archive,
    reference_scored_rows,
    score_for_combined,
    sealed,
    sidecar_of,
    sidecar_parts,
    small_scored_archive,
    view_rows,
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
    archive.add_review(make_review("app1", "r1"))
    # a tuple of the same values is no score: only a SentimentScore was checked
    message = "^review 'r1': score must be a SentimentScore, not tuple$"
    with pytest.raises(ArchiveError, match=message):
        archive.set_score("app1", "r1", (3, -2))
    assert archive.scores == {}


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
    rows = view_rows(archive.scored_view())
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
    assert view_rows(Archive().scored_view()) == []


def test_scored_rows_refuse_unscored_review_and_unknown_app():
    archive = Archive()
    archive.add_app(make_app("app1"))
    archive.add_review(make_review("app1", "r1"))
    archive.add_review(make_review("app1", "r2"))
    archive.set_score("app1", "r1", SentimentScore(2, -1))
    with pytest.raises(ArchiveError, match="1 reviews have no score; run score first"):
        view_rows(archive.scored_view())
    archive.scores[("app1", "gone")] = SentimentScore(2, -1)  # as many scores as reviews
    with pytest.raises(ArchiveError, match="1 reviews have no score; run score first"):
        view_rows(archive.scored_view())

    del archive.scores[("app1", "gone")]
    archive.set_score("app1", "r2", SentimentScore(2, -1))
    archive.add_review(make_review("ghost", "r3"))
    archive.set_score("ghost", "r3", SentimentScore(2, -1))
    with pytest.raises(ArchiveError, match=r"unknown apps: \['ghost'\]"):
        view_rows(archive.scored_view())


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


@pytest.mark.parametrize(
    "change",
    [
        {"title": "new title"},
        {"body": "new body"},
        {"title": "a body", "body": "a title"},  # the text moved between the two
    ],
)
def test_a_review_replaced_with_another_text_loses_its_score(change):
    # a score is of its review's title and body: a new text needs a new score
    archive = Archive()
    archive.add_app(make_app("app1"))
    for review_id in ("r1", "r2", "r3"):
        archive.add_review(make_review("app1", review_id))
        archive.set_score("app1", review_id, SentimentScore(4, -1))
    archive.add_review(make_review("app1", "r1")._replace(**change))
    archive.add_review(make_review("app1", "r2"))  # the same review again
    other_fields = {"rating": 1, "author": "x", "helpful_votes": 7, "raw": {"k": 1}}
    archive.add_review(make_review("app1", "r3")._replace(**other_fields))
    assert archive.scores == {("app1", k): SentimentScore(4, -1) for k in ("r2", "r3")}
    assert archive.reviews[("app1", "r1")] == make_review("app1", "r1")._replace(**change)


def test_merge_keeps_a_score_only_for_the_text_it_scored():
    archive = Archive()
    archive.add_app(make_app("app1"))
    for review_id in ("r1", "r2", "r3"):
        archive.add_review(make_review("app1", review_id, title="love it", body="great app"))
        archive.set_score("app1", review_id, SentimentScore(4, -1))
    other = Archive()
    for review_id in ("r1", "r3"):  # both edited, only r3 scored again
        other.add_review(make_review("app1", review_id, 1, title="hate it", body="awful"))
    other.add_review(make_review("app1", "r2", 1, title="love it", body="great app"))
    other.set_score("app1", "r3", SentimentScore(1, -5))
    archive.merge(other)
    assert archive.reviews == other.reviews
    assert archive.scores == {
        ("app1", "r2"): SentimentScore(4, -1),
        ("app1", "r3"): SentimentScore(1, -5),
    }
    with pytest.raises(ArchiveError, match="^1 reviews have no score; run score first$"):
        archive.scored_view()


def test_archive_line_keys_per_kind(tmp_path):
    archive = Archive()
    archive.add_app(make_app("app1")._replace(raw_details=MappingProxyType({})))
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
    assert _rows_or_error(lambda: view_rows(loaded.scored_view())) == _rows_or_error(
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
        # a report that misses writes the bytes the writer wrote
        written = view_path(path).read_bytes()
        view_path(path).unlink()
        assert load_scored_view(path) == expected
        assert view_path(path).read_bytes() == written


@settings(max_examples=60, deadline=None)
@given(scored_archives())
def test_scored_rows_equal_reference_rows(archive):
    expected = reference_scored_rows(archive)
    assert view_rows(archive.scored_view()) == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "archive.jsonl"
        save_archive(archive, path)
        # a loaded archive shares one score object per distinct score
        assert view_rows(load_archive(path).scored_view()) == expected


# --- the writer against its reference ---------------------------------------


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
    # raw payloads that are not mappings, which the encoder writes as they are
    ("raw", None), ("raw", []), ("raw", ""), ("raw", 0),
]).map(lambda odd: ("helpful_votes", 10**4300) if odd == ("helpful_votes", 4300) else odd)


def _rarely(draw, usual, odd):
    """A value drawn from ``usual``, or now and then from ``odd``."""
    # a value inside the range: hypothesis draws the ends of a range often
    return draw(odd if draw(st.integers(0, 5)) == 3 else usual)


@st.composite
def writer_archives(draw) -> Archive:
    """Entities holding every value the writer must hand to the reference
    encoding: non-ASCII, control characters, U+2028, lone surrogates, big
    ints, and empty, flat, nested and non-dict raw payloads. Some reviews
    are unscored or name an app that is not in the archive."""
    archive = Archive()
    for a in range(draw(st.integers(0, 3))):
        archive.add_app(
            AppRecord(
                app_id=f"app{a}{draw(WRITER_TEXT)}",
                name=draw(WRITER_TEXT),
                primary_category=draw(WRITER_TEXT),
                price=draw(st.sampled_from([0.0, 0.99, 1e-7, 1234.5])),
                current_version=draw(WRITER_TEXT),
                raw_details=draw(RAW),
            )
        )
    app_ids = sorted(archive.apps) + ["no such app"] * draw(st.integers(0, 1)) or ["no app"]
    scores = [
        SentimentScore(draw(st.integers(1, 5)), draw(st.integers(-5, -1)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    # about one review in four holds an odd field value; when two do, the
    # first one's error must be the one raised
    odd = [
        draw(ODD_REVIEW_FIELDS) if draw(st.booleans()) and draw(st.booleans()) else None
        for _ in range(draw(st.integers(0, 8)))
    ]
    for i in range(len(odd)):
        review = Review(
            review_id=f"r{i}",
            app_id=draw(st.sampled_from(app_ids)),
            author=draw(WRITER_TEXT),
            title=draw(WRITER_TEXT),
            body=draw(WRITER_TEXT),
            rating=draw(st.integers(1, 5)),
            date=draw(st.dates()),
            helpful_votes=_rarely(draw, st.integers(0, 9), BIG_INTS.map(abs)),
            app_version=draw(WRITER_TEXT),
            raw=draw(RAW),
        )
        if odd[i] is not None:
            review = review._replace(**dict([odd[i]]))
        archive.add_review(review)
        if draw(st.integers(0, 9)):  # the odd review stays unscored
            archive.set_score(review.app_id, review.review_id, draw(st.sampled_from(scores)))
    for _ in range(draw(st.integers(0, 2))):
        archive.add_release(
            Release(
                draw(st.sampled_from(app_ids)),
                f"v{draw(WRITER_TEXT)}",
                draw(st.dates()),
                draw(WRITER_TEXT),
            )
        )
    return archive


def _outcome(write):
    try:
        return write()
    except Exception as exc:  # the outcome compared: the exception's type and text
        return type(exc), str(exc)


def _saved(archive: Archive, path: Path) -> tuple[str, bytes | None]:
    save_archive(archive, path)
    sidecar = view_path(path)
    view = sidecar.read_bytes() if sidecar.exists() else None
    return path.read_bytes().decode("utf-8"), view


def _one_review(score: SentimentScore | None = SentimentScore(3, -2), **fields) -> Archive:
    """A one-review archive, its review holding ``fields``; unscored when
    ``score`` is None."""
    archive = Archive()
    archive.add_app(make_app("app1"))
    review = make_review("app1", "r1")._replace(**fields)
    archive.add_review(review)
    if score is not None:
        archive.set_score(review.app_id, review.review_id, score)
    return archive


# a raw payload writes "{}" only when it is an empty mapping
@example(_one_review(raw=None))
@example(_one_review(raw=[]))
@example(_one_review(raw=MappingProxyType({})))
@settings(max_examples=300, deadline=None)
@given(writer_archives())
def test_save_writes_the_reference_bytes_or_raises_its_error(archive):
    expected = _outcome(lambda: reference_archive_text(archive))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "archive.jsonl"
        assert _outcome(lambda: _saved(archive, path)) == expected
        if isinstance(expected[0], type):  # a failed save leaves nothing behind
            assert list(Path(tmp).iterdir()) == []


# --- save and load are inverse ---------------------------------------------

KEY_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | WRITER_TEXT,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(WRITER_TEXT, inner, max_size=2),
    max_leaves=5,
)
PAYLOADS = st.dictionaries(WRITER_TEXT, JSON_VALUES, max_size=2) | JSON_VALUES
# values that some typed field of an archived record may not hold
MISTYPED = st.sampled_from([7, None, True, 2.0, "2016-01-04", dt.datetime(2016, 1, 4, 12, 30)])


@st.composite
def record_drafts(draw) -> dict[str, list[dict | None]]:
    """The fields of an archive's apps, reviews, releases and scores (one
    per review, or None when it is unscored), for the test to build: in
    about one draw in three, one typed field holds a value of another type
    (a datetime date, an int id, a bool rating, an int price ...)."""
    apps = [
        dict(
            app_id=draw(KEY_TEXT), name=draw(WRITER_TEXT), primary_category=draw(WRITER_TEXT),
            price=draw(st.floats(0, 1e6)), current_version=draw(WRITER_TEXT),
            raw_details=draw(PAYLOADS),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    app_ids = [app["app_id"] for app in apps] + [draw(KEY_TEXT)]  # the last one unknown
    reviews = [
        dict(
            review_id=draw(KEY_TEXT), app_id=draw(st.sampled_from(app_ids)),
            author=draw(WRITER_TEXT), title=draw(WRITER_TEXT), body=draw(WRITER_TEXT),
            rating=draw(st.integers(1, 5)), date=draw(st.dates()),
            helpful_votes=draw(st.integers(0, 10**30)), app_version=draw(WRITER_TEXT),
            raw=draw(PAYLOADS),
        )
        for _ in range(draw(st.integers(0, 6)))
    ]
    scores = [
        draw(st.none() | st.fixed_dictionaries(
            {"positive": st.integers(1, 5), "negative": st.integers(-5, -1)}
        ))
        for _ in reviews
    ]
    releases = [
        dict(
            app_id=draw(st.sampled_from(app_ids)), version=draw(KEY_TEXT),
            date=draw(st.dates()), notes=draw(WRITER_TEXT),
        )
        for _ in range(draw(st.integers(0, 2)))
    ]
    drafts = {"app": apps, "review": reviews, "score": scores, "release": releases}
    records = [fields for table in drafts.values() for fields in table if fields is not None]
    if records and draw(st.integers(0, 2)) == 0:
        fields = draw(st.sampled_from(records))
        name = draw(st.sampled_from(sorted(fields.keys() - {"raw", "raw_details"})))
        fields[name] = draw(MISTYPED)
    return drafts


def _built(drafts: dict[str, list[dict | None]]) -> Archive:
    archive = Archive()
    for fields in drafts["app"]:
        archive.add_app(AppRecord(**fields))
    for fields, score in zip(drafts["review"], drafts["score"]):
        review = Review(**fields)
        archive.add_review(review)
        if score is not None:
            archive.set_score(review.app_id, review.review_id, SentimentScore(**score))
    for fields in drafts["release"]:
        archive.add_release(Release(**fields))
    return archive


def _saved_bytes(path: Path) -> tuple[bytes, bytes | None]:
    sidecar = view_path(path)
    return path.read_bytes(), sidecar.read_bytes() if sidecar.exists() else None


@settings(max_examples=200, deadline=None)
@given(record_drafts())
def test_saved_archive_loads_equal_and_saves_the_same_bytes(drafts):
    try:
        archive = _built(drafts)
    except ValueError:  # ArchiveError too: a field that holds another type
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.jsonl", Path(tmp) / "second.jsonl"
        save_archive(archive, first)
        loaded = load_archive(first)
        assert loaded.load_skips == []
        assert loaded == archive
        save_archive(loaded, second)
        assert _saved_bytes(second) == _saved_bytes(first)


def _flip_rating(path: Path) -> None:
    """Change one archive byte, keeping its length: the first review's rating."""
    data = path.read_bytes()
    at = data.index(b'"rating": ') + len(b'"rating": ')
    path.write_bytes(data[:at] + (b"5" if data[at:at + 1] != b"5" else b"1") + data[at + 1:])


def _edit_sidecar(change):
    """Replace the sidecar's bytes by ``change(bytes, archive path)``."""
    def edit(path: Path) -> None:
        sidecar = view_path(path)
        sidecar.write_bytes(change(sidecar.read_bytes(), path))

    return edit


def _edit_header(change):
    """Change the sidecar's header in place and seal it again, so that the
    check of that header field, not the trailer, refuses it."""
    def edit(data: bytes, path: Path) -> bytes:
        header, columns = sidecar_parts(data)
        change(header)
        return sidecar_of(header, columns)

    return _edit_sidecar(edit)


def _short_column(data: bytes, path: Path) -> bytes:
    """The sidecar with its last combined value dropped: every other column
    keeps one value more."""
    header, columns = sidecar_parts(data)
    columns[2].pop()
    header["columns"][2][2] -= 1
    return sidecar_of(header, columns)


def _header_line(change):
    """Replace the sidecar's header line by ``change(line)`` and seal it again."""
    def edit(data: bytes, path: Path) -> bytes:
        end = data.index(b"\n")
        return sealed(change(data[:end]) + data[end:-4])

    return _edit_sidecar(edit)


STALE_SIDECARS = {
    "archive byte changed": _flip_rating,
    **{f"sidecar {name}": _edit_sidecar(damage) for name, damage in SIDECAR_DAMAGE.items()},
    "sidecar not an object": _header_line(lambda line: b"[" + line + b"]"),
    "sidecar version": _edit_header(lambda header: header.update(version=1)),
    "sidecar columns": _edit_header(lambda header: header["columns"][0].__setitem__(0, "stars")),
    "sidecar typecode": _edit_header(lambda header: header["columns"][3].__setitem__(1, "l")),
    "sidecar column short": _edit_sidecar(_short_column),
    "sidecar starts not monotone": _edit_header(
        lambda header: header["starts"].__setitem__(1, header["starts"][-1] + 1)
    ),
    "sidecar release day not an int": _edit_header(
        lambda header: header.update(releases=[["app0", "1.0", "2016-01-04"]])
    ),
    "sidecar missing": lambda path: view_path(path).unlink(),
    "sidecar nested too deep": _header_line(lambda line: b"[" * 100_000),
}


@pytest.mark.parametrize("stale", sorted(STALE_SIDECARS))
def test_stale_sidecar_falls_back_to_full_load(tmp_path, monkeypatch, stale):
    path = tmp_path / "archive.jsonl"
    save_archive(random_archive(random.Random(5), n_reviews=30), path)
    STALE_SIDECARS[stale](path)
    expected = load_archive(path).scored_view()
    parses = []
    read_archive = store._read_archive
    monkeypatch.setattr(store, "_read_archive", lambda *a: parses.append(a[1]) or read_archive(*a))
    assert load_scored_view(path) == expected
    assert parses == [path]
    # the miss wrote a current sidecar: the next view parses nothing
    assert store._read_view(path) == expected
    assert load_scored_view(path) == expected
    assert parses == [path]


@st.composite
def archive_bytes(draw) -> bytes:
    """Generated archive text, or a saved scored archive with byte edits."""
    if draw(st.booleans()):
        return draw(archive_files()).encode("utf-8")
    return mutated(small_scored_archive(), draw(st.lists(BYTE_EDITS, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(archive_bytes())
def test_scored_view_equals_full_load_and_caches_only_clean_loads(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "archive.jsonl"
        path.write_bytes(data)
        with _Warnings() as expected_warnings:
            archive = load_archive(path)
        expected = _outcome(archive.scored_view)
        cached = not archive.load_skips and isinstance(expected, store.ScoredView)
        files = ["archive.jsonl", "archive.jsonl.view"] if cached else ["archive.jsonl"]
        for _ in range(2):
            with _Warnings() as warnings:
                assert _outcome(lambda: load_scored_view(path)) == expected
            # no sidecar hides a skipped line: each call parses and warns again
            assert warnings == expected_warnings
            assert sorted(p.name for p in Path(tmp).iterdir()) == files
        if cached:
            assert store._read_view(path) == expected
            # on bytes the writer would write, the sidecar is the writer's too
            canonical = Path(tmp) / "canonical.jsonl"
            save_archive(archive, canonical)
            if canonical.read_bytes() == data:
                assert view_path(canonical).read_bytes() == view_path(path).read_bytes()


def test_unwritable_view_is_returned_without_sidecar(tmp_path):
    path = tmp_path / "archive.jsonl"
    archive = random_archive(random.Random(9), n_reviews=5)
    save_archive(archive, path)
    view_path(path).unlink()
    # an app id that is a lone surrogate loads, but UTF-8 cannot write it
    line = '{"kind": "app", "app_id": "\\ud800", "name": "", "primary_category": "Games", ' \
        '"price": 0.0, "current_version": ""}\n'
    path.write_text(line + path.read_text(encoding="utf-8"), encoding="utf-8")
    archive.add_app(make_app("\ud800"))
    assert load_scored_view(path) == archive.scored_view()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["archive.jsonl"]


def _after_first_call(monkeypatch, name: str, hook) -> None:
    """Run ``hook()`` just after the first call of ``store.<name>`` returns."""
    original, pending = getattr(store, name), [hook]

    def wrapper(*args):
        result = original(*args)
        if pending:
            pending.pop()()
        return result

    monkeypatch.setattr(store, name, wrapper)


# a writer replaces the archive once the miss has parsed it, or once the
# sidecar is written but not yet in place
@pytest.mark.parametrize("after", ["_read_archive", "_write_view"])
def test_archive_replaced_during_a_miss_is_never_hidden(tmp_path, monkeypatch, after):
    path = tmp_path / "archive.jsonl"
    old, new = random_archive(random.Random(10)), random_archive(random.Random(11))
    save_archive(old, path)
    view_path(path).unlink()
    _after_first_call(monkeypatch, after, lambda: save_archive(new, path))
    assert load_scored_view(path) == old.scored_view()  # what it parsed
    assert load_scored_view(path) == new.scored_view()
    assert store._read_view(path) == new.scored_view()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["archive.jsonl", "archive.jsonl.view"]


def test_reports_that_miss_at_once_each_write_their_own_tmp_file(tmp_path, monkeypatch, caplog):
    path = tmp_path / "archive.jsonl"
    archive = random_archive(random.Random(14), n_reviews=20)
    save_archive(archive, path)
    view_path(path).unlink()
    replace = os.replace

    def second_report_first(*args):  # the first report's sidecar is written, not yet moved
        monkeypatch.setattr(os, "replace", replace)
        assert load_scored_view(path) == archive.scored_view()
        return replace(*args)

    monkeypatch.setattr(os, "replace", second_report_first)
    with caplog.at_level(logging.DEBUG, logger="reviewsent.store"):
        assert load_scored_view(path) == archive.scored_view()
    assert not [r for r in caplog.records if "not written" in r.getMessage()]
    assert store._read_view(path) == archive.scored_view()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["archive.jsonl", "archive.jsonl.view"]


def test_miss_under_a_writers_lock_writes_no_sidecar_and_keeps_the_lock(tmp_path):
    path = tmp_path / "archive.jsonl"
    archive = random_archive(random.Random(12), n_reviews=20)
    save_archive(archive, path)
    view_path(path).unlink()
    with archive_lock(path):
        lock = lock_path(path).stat()
        assert load_scored_view(path) == archive.scored_view()
        assert lock_path(path).stat() == lock
        assert sorted(p.name for p in tmp_path.iterdir()) == ["archive.jsonl", "archive.jsonl.lock"]
    assert load_scored_view(path) == archive.scored_view()  # no lock: the miss writes
    assert sorted(p.name for p in tmp_path.iterdir()) == ["archive.jsonl", "archive.jsonl.view"]


@pytest.mark.parametrize("fails", ["_write_view", "replace"])
def test_failed_sidecar_write_of_a_miss_changes_nothing(tmp_path, monkeypatch, caplog, fails):
    path = tmp_path / "archive.jsonl"
    archive = random_archive(random.Random(13), n_reviews=20)
    save_archive(archive, path)
    view_path(path).unlink()
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def fail(*args):
        raise PermissionError("read-only")

    monkeypatch.setattr(*((store, "_write_view") if fails == "_write_view" else (store.os, "replace")), fail)
    with caplog.at_level(logging.DEBUG, logger="reviewsent.store"):
        assert load_scored_view(path) == archive.scored_view()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before  # no .tmp left
    assert [r.levelno for r in caplog.records if "not written" in r.getMessage()] == [logging.DEBUG]
    if fails == "_write_view":  # the writer's one sidecar writer fails it too
        with pytest.raises(PermissionError, match="read-only"):
            save_archive(random_archive(random.Random(14), n_reviews=20), path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


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


def test_lone_surrogate_past_256k_characters_fails_the_save_as_text_mode_does(tmp_path):
    # far enough in that a writer encoding ~2^18 characters at a time has
    # written a chunk before the line that cannot be encoded
    path = tmp_path / "archive.jsonl"
    save_archive(random_archive(random.Random(9), n_reviews=10), path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    archive = Archive()
    archive.add_app(make_app("app0"))
    for i in range(300):
        archive.add_review(make_review("app0", f"r{i:03}", body="ünï 😀 " * 150))
        archive.set_score("app0", f"r{i:03}", score_for_combined(2))
    assert sum(r.text_length for r in archive.reviews.values()) > 1 << 18
    archive.add_review(make_review("app0", "r999", body="lone \ud800 surrogate"))
    archive.set_score("app0", "r999", score_for_combined(-3))
    with pytest.raises(UnicodeEncodeError) as expected:
        reference_archive_text(archive)
    with pytest.raises(UnicodeEncodeError) as raised:
        save_archive(archive, path)
    assert str(raised.value) == str(expected.value)  # the character and its position
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
