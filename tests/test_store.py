"""Archive model, persistence round-trips, and release import."""

import datetime as dt
import io
import json
import random

import pytest

from reviewsent.combine import combine
from reviewsent.engine import SentimentScore
from reviewsent.store import (
    Archive,
    ArchiveError,
    ArchiveLockedError,
    Release,
    Review,
    archive_lock,
    import_releases,
    load_archive,
    save_archive,
)

from helpers import make_app, make_review, random_archive, score_for_combined


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


def test_corrupt_lines_skipped_with_report(tmp_path):
    archive = Archive()
    archive.add_app(make_app("app1"))
    archive.add_review(make_review("app1", "r1"))
    path = tmp_path / "archive.jsonl"
    save_archive(archive, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.insert(1, "{not json")
    lines.append(json.dumps({"kind": "mystery"}))
    lines.append(json.dumps({"kind": "review", "review_id": "bad"}))  # missing fields
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded = load_archive(path)
    assert len(loaded.load_skips) == 3
    assert [lineno for lineno, _ in loaded.load_skips] == [2, 4, 5]
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
