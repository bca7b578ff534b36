"""Command-line pipeline: wiring, determinism, and failure modes."""

import random

import pytest

from reviewsent.cli import main
from reviewsent.store import load_archive, save_archive

from helpers import feed_item, lookup_payload, unscored_text_archive


@pytest.fixture
def fixture_archive(tmp_path):
    """Unscored 40-review archive persisted to disk."""
    archive = unscored_text_archive(random.Random(12), n_apps=3, n_reviews=40)
    path = tmp_path / "archive.jsonl"
    save_archive(archive, path)
    return path


def run(args) -> int:
    return main([str(a) for a in args])


def test_ingest_requires_a_source(tmp_path, capsys):
    rc = run(["ingest", "--archive", tmp_path / "a.jsonl"])
    assert rc == 1
    assert "nothing to ingest" in capsys.readouterr().err


def test_ingest_import_archive(tmp_path, fixture_archive, capsys):
    target = tmp_path / "merged.jsonl"
    rc = run(["ingest", "--archive", target, "--import-archive", fixture_archive])
    assert rc == 0
    assert "40 reviews" in capsys.readouterr().out
    assert load_archive(target) == load_archive(fixture_archive)


def test_ingest_releases(tmp_path, fixture_archive, capsys):
    releases = tmp_path / "releases.csv"
    releases.write_text(
        "app_id,version,date,notes\n"
        "app0,2.0,2016-06-01,redesign\n"
        "app0,2.0,2016-06-02,duplicate\n",
        encoding="utf-8",
    )
    rc = run(
        [
            "ingest",
            "--archive",
            fixture_archive,
            "--releases",
            releases,
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "rejected line 3" in captured.err
    assert load_archive(fixture_archive).releases[("app0", "2.0")].notes == "redesign"


def test_ingest_from_stub_store_with_env_overrides(
    tmp_path, stub_server, monkeypatch, capsys
):
    stub_server.app_payloads["a1"] = lookup_payload("a1")
    stub_server.review_pages["a1"] = [[feed_item(i) for i in range(5)]]
    monkeypatch.setenv("REVIEWSENT_BASE_URL", stub_server.base_url)
    monkeypatch.setenv("REVIEWSENT_RATE_LIMIT", "10000")
    target = tmp_path / "fetched.jsonl"
    rc = run(["ingest", "--archive", target, "--app-id", "a1"])
    assert rc == 0
    archive = load_archive(target)
    assert len(archive.apps) == 1
    assert len(archive.reviews) == 5
    assert len(archive.apps["a1"].raw_details) == 44


def test_score_then_summarize(tmp_path, fixture_archive, capsys):
    assert run(["score", "--archive", fixture_archive]) == 0
    out = capsys.readouterr().out
    assert "scored 40 reviews" in out
    report = tmp_path / "summary.csv"
    assert run(["summarize", "--archive", fixture_archive, "--out", report]) == 0
    lines = report.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("category,")
    assert lines[-1].startswith("ALL,")
    # shares sum to 1 on every row
    for line in lines[1:]:
        parts = line.split(",")
        shares = sum(float(x) for x in parts[7:11])
        assert abs(shares - 1.0) < 1e-9


def test_summarize_before_score_fails(fixture_archive, capsys):
    rc = run(["summarize", "--archive", fixture_archive])
    assert rc == 1
    assert "run score first" in capsys.readouterr().err


def test_timeline_before_score_fails(fixture_archive, capsys):
    rc = run(
        [
            "timeline",
            "--archive",
            fixture_archive,
            "--app-id",
            "app0",
            "--from",
            "2016-01-04",
            "--to",
            "2016-12-18",
        ]
    )
    assert rc == 1
    assert "run score first" in capsys.readouterr().err


def test_timeline_refuses_unscored_review_of_another_app(fixture_archive, capsys):
    from helpers import make_review

    assert run(["score", "--archive", fixture_archive]) == 0
    archive = load_archive(fixture_archive)
    archive.add_review(make_review("app1", "late"))
    save_archive(archive, fixture_archive)
    rc = run(
        [
            "timeline",
            "--archive",
            fixture_archive,
            "--app-id",
            "app0",
            "--from",
            "2016-01-04",
            "--to",
            "2016-12-18",
        ]
    )
    assert rc == 1
    assert "run score first" in capsys.readouterr().err


def test_correlate_monotone_fixture(tmp_path, capsys):
    # texts chosen so combined sentiment rises strictly with the rating
    from helpers import make_app
    from reviewsent.store import Archive, Review
    import datetime as dt

    texts = [
        (1, "I hate this", "x"),
        (2, "So annoying", "x"),
        (3, "Nothing here", "x"),
        (4, "Good stuff", "x"),
        (5, "Excellent app", "x"),
    ]
    archive = Archive()
    archive.add_app(make_app("app0"))
    for rating, title, body in texts:
        archive.add_review(
            Review(
                review_id=f"r{rating}",
                app_id="app0",
                author="u",
                title=title,
                body=body,
                rating=rating,
                date=dt.date(2016, 5, 1),
            )
        )
    path = tmp_path / "mono.jsonl"
    save_archive(archive, path)
    assert run(["score", "--archive", path]) == 0
    report = tmp_path / "corr.csv"
    assert (
        run(["correlate", "--archive", path, "--target", "rating", "--out", report])
        == 0
    )
    lines = report.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "target,n,pearson,spearman"
    target, n, _pearson, spearman_text = lines[1].split(",")
    assert target == "rating"
    assert n == "5"
    assert float(spearman_text) == pytest.approx(1.0, abs=1e-9)


def test_correlate_price_all_free_fails(tmp_path, fixture_archive, capsys):
    # fixture apps include paid ones; build an all-free archive instead
    archive = unscored_text_archive(random.Random(5), n_apps=1, n_reviews=10)
    path = tmp_path / "free.jsonl"
    save_archive(archive, path)
    assert run(["score", "--archive", path]) == 0
    rc = run(["correlate", "--archive", path, "--target", "price"])
    assert rc == 1
    assert "constant" in capsys.readouterr().err


def test_topics_command(tmp_path, capsys):
    labeled = tmp_path / "labeled.csv"
    labeled.write_text(
        "id,topic,title,body\n"
        "1,BugReport,I hate this,crashes constantly\n"
        "2,BugReport,Great app,but it is broken\n"
        "3,FeatureRequest,Good idea,pls add dark mode\n"
        "4,UserExperience,Love it,very good flow\n"
        "5,Rating,Excellent,五つ星\n"
        "6,Nonsense,skip,me\n",
        encoding="utf-8",
    )
    report = tmp_path / "topics.csv"
    rc = run(["topics", "--labeled", labeled, "--out", report])
    captured = capsys.readouterr()
    assert rc == 0
    assert "rejected line 7" in captured.err
    lines = report.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "topic,n,range,iqr,sd"
    assert lines[1].startswith("BugReport,2,")


def test_timeline_command(tmp_path, fixture_archive):
    assert run(["score", "--archive", fixture_archive]) == 0
    report = tmp_path / "timeline.csv"
    rc = run(
        [
            "timeline",
            "--archive",
            fixture_archive,
            "--app-id",
            "app0",
            "--from",
            "2016-01-04",
            "--to",
            "2016-12-18",
            "--out",
            report,
        ]
    )
    assert rc == 0
    lines = report.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "week,mean,n,mean_length,releases"
    assert len(lines) == 51


def test_patterns_command(tmp_path, fixture_archive):
    assert run(["score", "--archive", fixture_archive]) == 0
    report = tmp_path / "patterns.csv"
    rc = run(
        [
            "patterns",
            "--archive",
            fixture_archive,
            "--from",
            "2016-01-04",
            "--to",
            "2016-12-18",
            "--min-reviews",
            "5",
            "--out",
            report,
        ]
    )
    assert rc == 0
    lines = report.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "app_id,labels"
    assert len(lines) >= 2
    for line in lines[1:]:
        app_id, labels = line.split(",")
        assert labels  # never empty


def test_reports_byte_identical_across_runs(tmp_path, fixture_archive):
    assert run(["score", "--archive", fixture_archive]) == 0
    first_archive = fixture_archive.read_bytes()
    assert run(["score", "--archive", fixture_archive]) == 0
    assert fixture_archive.read_bytes() == first_archive

    outputs = {}
    for round_no in ("one", "two"):
        summary = tmp_path / f"summary-{round_no}.csv"
        timeline = tmp_path / f"timeline-{round_no}.csv"
        assert run(["summarize", "--archive", fixture_archive, "--out", summary]) == 0
        assert (
            run(
                [
                    "timeline",
                    "--archive",
                    fixture_archive,
                    "--app-id",
                    "app1",
                    "--from",
                    "2016-01-04",
                    "--to",
                    "2016-12-18",
                    "--out",
                    timeline,
                ]
            )
            == 0
        )
        outputs[round_no] = (summary.read_bytes(), timeline.read_bytes())
    assert outputs["one"] == outputs["two"]


def test_missing_archive_path_fails(tmp_path, capsys):
    rc = run(["summarize", "--archive", tmp_path / "nope.jsonl"])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_bad_date_flag_fails(fixture_archive, capsys):
    rc = run(
        [
            "timeline",
            "--archive",
            fixture_archive,
            "--app-id",
            "app0",
            "--from",
            "January 4",
            "--to",
            "2016-12-18",
        ]
    )
    assert rc == 2  # argparse usage error
    assert "bad date" in capsys.readouterr().err


def test_score_with_no_emoji_flag(tmp_path, fixture_archive):
    assert run(["score", "--archive", fixture_archive, "--no-emoji"]) == 0
    assert load_archive(fixture_archive).scores
