"""Command-line pipeline: wiring, determinism, and failure modes."""

import multiprocessing
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewsent import cli, store
from reviewsent.cli import main
from reviewsent.store import Archive, load_archive, save_archive

from helpers import (
    BYTE_EDITS,
    add_scored_review,
    feed_item,
    force_split,
    lookup_payload,
    make_app,
    mutated,
    random_archive,
    run_python,
    small_scored_archive,
    unscored_text_archive,
)


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


NETWORK_MODULES = ("requests", "urllib3", "http.client", "ssl")

IMPORT_BUDGET_SCRIPT = """
import sys
import reviewsent.cli as cli
rc = cli.main(["summarize", "--archive", sys.argv[1], "--out", sys.argv[2]])
print(rc, *sorted(m for m in sys.argv[3:] if m in sys.modules))
"""


def test_offline_command_loads_no_network_modules(tmp_path, fixture_archive):
    # ``import requests`` costs every CLI process time and memory; only
    # ``ingest --app-id`` may pay for it
    assert run(["score", "--archive", fixture_archive]) == 0
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = tmp_path / "summary.csv"
    argv = [str(fixture_archive), str(out), *NETWORK_MODULES]
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_BUDGET_SCRIPT, *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == ["0"]
    assert out.read_text(encoding="utf-8").startswith("category,")


SCORER_MODULES = (
    "reviewsent.engine",
    "reviewsent.emojis",
    "reviewsent.lexicon",
    "reviewsent.client",
)

REPORT_IMPORTS_SCRIPT = """
import sys
import reviewsent.analytics, reviewsent.combine, reviewsent.store
import reviewsent.tables, reviewsent.temporal
print(*sorted(m for m in sys.argv[1:] if m in sys.modules))
"""


def test_report_modules_load_no_scorer():
    # the archive and the reports read scores through the leaf ``combine``
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", REPORT_IMPORTS_SCRIPT, *SCORER_MODULES],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == []


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


LABELED = (
    "id,topic,title,body\n"
    "1,BugReport,I hate this,crashes constantly\n"
    "2,BugReport,Great app,but it is broken\n"
    "3,FeatureRequest,Good idea,pls add dark mode\n"
    "4,UserExperience,Love it,very good flow\n"
    "5,Rating,Excellent,五つ星\n"
    "6,Nonsense,skip,me\n"
)


def test_topics_command(tmp_path, capsys):
    labeled = tmp_path / "labeled.csv"
    labeled.write_text(LABELED, encoding="utf-8")
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


def _pattern_labels(tmp_path, archive, *flags) -> dict[str, str]:
    report = tmp_path / "patterns.csv"
    window = ["--from", "2016-01-04", "--to", "2016-12-18", "--min-reviews", "5"]
    rc = run(["patterns", "--archive", archive, *window, "--out", report, *flags])
    assert rc == 0
    header, *rows = report.read_text(encoding="utf-8").splitlines()
    assert header == "app_id,labels"
    return dict(row.split(",") for row in rows)


def test_pattern_flags_reach_pattern_config(tmp_path, fixture_archive, capsys):
    assert run(["score", "--archive", fixture_archive]) == 0
    capsys.readouterr()
    window = ["--from", "2016-01-04", "--to", "2016-12-18"]
    rc = run(["patterns", "--archive", fixture_archive, *window, "--min-weekly-reviews", "0"])
    assert rc == 1
    assert "min_weekly_reviews must be >= 1" in capsys.readouterr().err
    rc = run(["patterns", "--archive", fixture_archive, *window, "--window", "2.5"])
    assert rc == 2  # argparse usage error: the field is an int
    assert "--window: invalid int value: '2.5'" in capsys.readouterr().err

    default = _pattern_labels(tmp_path, fixture_archive)
    high = _pattern_labels(tmp_path, fixture_archive, "--jump-threshold", "10")
    assert default.keys() == high.keys() == {"app0", "app1", "app2"}
    assert any("Jump" in labels or "Drop" in labels for labels in default.values())
    # no windowed shift in 40 reviews reaches 10 combined units
    assert set(high.values()) == {"InconsistentEmotion"}


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


# --- scoring split across processes ----------------------------------------------


def test_score_writes_identical_bytes_when_split(tmp_path, fixture_archive, capsys, monkeypatch):
    serial = tmp_path / "serial.jsonl"
    shutil.copy(fixture_archive, serial)
    assert run(["score", "--archive", serial]) == 0
    expected = capsys.readouterr()
    pools = force_split(monkeypatch, cpus=2)
    assert run(["score", "--archive", fixture_archive]) == 0
    assert pools == ["fork"]
    assert capsys.readouterr() == expected
    assert fixture_archive.read_bytes() == serial.read_bytes()
    assert Path(f"{fixture_archive}.view").read_bytes() == Path(f"{serial}.view").read_bytes()
    assert multiprocessing.active_children() == []


def test_topics_writes_identical_bytes_when_split(tmp_path, capsys, monkeypatch):
    labeled = tmp_path / "labeled.csv"
    labeled.write_text(LABELED, encoding="utf-8")
    assert run(["topics", "--labeled", labeled, "--out", tmp_path / "serial.csv"]) == 0
    expected = capsys.readouterr()
    pools = force_split(monkeypatch, cpus=2)
    assert run(["topics", "--labeled", labeled, "--out", tmp_path / "split.csv"]) == 0
    assert pools == ["fork"]
    assert capsys.readouterr() == expected
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


DYING_WORKER_CLI_SCRIPT = """
import multiprocessing
import sys

from helpers import kill_worker
from reviewsent import cli, engine

engine.usable_cpus = lambda: 2
engine.MIN_CHARS_PER_PROCESS = 1
engine._score_slice = kill_worker
code = cli.main(sys.argv[1:])
print(f"exit {code}, children left: {len(multiprocessing.active_children())}")
"""


@pytest.mark.parametrize("command", ["score", "topics"])
def test_dead_worker_fails_the_command_and_changes_nothing(tmp_path, fixture_archive, command):
    assert run(["score", "--archive", fixture_archive]) == 0
    labeled = tmp_path / "labeled.csv"
    labeled.write_text(
        "id,topic,title,body\n" + "".join(f"{i},Rating,Good,fine app\n" for i in range(40)),
        encoding="utf-8",
    )
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    argv = {
        "score": ["score", "--archive", fixture_archive],
        "topics": ["topics", "--labeled", labeled, "--out", tmp_path / "topics.csv"],
    }[command]
    # in a child interpreter, so that a hang fails the test as a timeout
    result = run_python(DYING_WORKER_CLI_SCRIPT, *argv, timeout=60)
    assert result.stdout == "exit 1, children left: 0\n"
    assert result.stderr.splitlines()[-1:] == [
        "error: a scoring worker process ended abruptly (killed, out of memory, or failed to"
        " start); no score was kept"
    ]
    assert result.stderr.count("error:") == 1 and "Traceback" not in result.stderr
    # archive and sidecar unchanged; no report, lock or .tmp file
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


# --- scored-view sidecar ---------------------------------------------------------

WINDOW = ["--from", "2016-01-04", "--to", "2016-12-18"]
REPORTS = {
    "summarize": ["summarize"],
    "correlate_rating": ["correlate", "--target", "rating"],
    "correlate_price": ["correlate", "--target", "price"],
    "timeline": ["timeline", "--app-id", "app0", *WINDOW],
    "patterns": ["patterns", *WINDOW, "--min-reviews", "5"],
}


def _scored_with_releases(tmp_path, archive) -> Path:
    releases = tmp_path / "releases.csv"
    releases.write_text(
        "app_id,version,date,notes\napp0,1.1,2016-03-01,x\napp0,2.0,2016-06-01,y\n",
        encoding="utf-8",
    )
    assert run(["ingest", "--archive", archive, "--releases", releases]) == 0
    assert run(["score", "--archive", archive]) == 0
    return archive


def _reports(archive, out_dir, capsys) -> dict[str, tuple[bytes, str, str]]:
    """Each report's CSV, stdout and stderr; every report must exit 0."""
    out_dir.mkdir()
    outputs = {}
    for name, (command, *flags) in REPORTS.items():
        out = out_dir / f"{name}.csv"
        capsys.readouterr()
        assert run([command, "--archive", archive, *flags, "--out", out]) == 0
        outputs[name] = (out.read_bytes(), *capsys.readouterr())
    return outputs


def _listing(directory) -> dict[str, int]:
    return {path.name: path.stat().st_mtime_ns for path in directory.iterdir()}


def _scored_data_dir(tmp_path) -> Path:
    """A scored archive with releases, alone in its own directory."""
    data = tmp_path / "data"
    data.mkdir()
    archive = data / "archive.jsonl"
    save_archive(unscored_text_archive(random.Random(12), n_apps=3, n_reviews=40), archive)
    return _scored_with_releases(tmp_path, archive)


def _forbid_parse(monkeypatch) -> None:
    def no_parse(*args):
        raise AssertionError(f"archive parsed: {args}")

    for module, name in (store, "_read_archive"), (store, "load_archive"), (cli, "load_archive"):
        monkeypatch.setattr(module, name, no_parse)


def test_reports_identical_with_and_without_sidecar(tmp_path, fixture_archive, monkeypatch, capsys):
    archive = _scored_with_releases(tmp_path, fixture_archive)
    sidecar = Path(f"{archive}.view")
    written = sidecar.read_bytes()  # by score
    with_sidecar = _reports(archive, tmp_path / "hit", capsys)
    sidecar.unlink()
    parses = []
    read_archive = store._read_archive
    monkeypatch.setattr(store, "_read_archive", lambda *a: parses.append(a[1]) or read_archive(*a))
    without_sidecar = _reports(archive, tmp_path / "miss", capsys)
    # the first report parsed and wrote the sidecar that score wrote; the others hit it
    assert parses == [archive]
    assert sidecar.read_bytes() == written
    _forbid_parse(monkeypatch)
    rewritten_sidecar = _reports(archive, tmp_path / "rewritten", capsys)
    assert len(with_sidecar) == 5
    assert with_sidecar == without_sidecar == rewritten_sidecar


def test_reports_in_read_only_directory_succeed_unchanged(tmp_path, capsys):
    archive = _scored_data_dir(tmp_path)
    sidecar = Path(f"{archive}.view")
    written = sidecar.read_bytes()
    expected = _reports(archive, tmp_path / "hit", capsys)
    sidecar.unlink()  # a miss is where a report writes
    before = _listing(archive.parent)
    archive.parent.chmod(0o555)
    try:
        reports = _reports(archive, tmp_path / "out", capsys)
    finally:
        archive.parent.chmod(0o755)
    assert reports == expected
    # root ignores the mode: then the sidecar appears, as score wrote it
    after = _listing(archive.parent)
    if after.pop(sidecar.name, None) is not None:
        assert sidecar.read_bytes() == written
    assert after == before


@pytest.mark.parametrize("fails", ["_write_view", "replace"])
def test_reports_whose_sidecar_write_fails_change_nothing(tmp_path, monkeypatch, capsys, fails):
    archive = _scored_data_dir(tmp_path)
    expected = _reports(archive, tmp_path / "hit", capsys)
    Path(f"{archive}.view").unlink()
    before = _listing(archive.parent)

    def fail(*args):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(*((store, "_write_view") if fails == "_write_view" else (os, "replace")), fail)
    assert _reports(archive, tmp_path / "miss", capsys) == expected
    assert _listing(archive.parent) == before  # no sidecar and no .tmp file
    if fails == "_write_view":  # score writes the sidecar through it too, and fails
        assert run(["score", "--no-emoji", "--archive", archive]) == 1
        assert "error: [Errno 13] Permission denied" in capsys.readouterr().err
        assert _listing(archive.parent) == before


def test_reports_under_a_writers_lock_write_no_sidecar_and_keep_it(tmp_path, capsys):
    archive = _scored_data_dir(tmp_path)
    expected = _reports(archive, tmp_path / "hit", capsys)
    Path(f"{archive}.view").unlink()
    Path(f"{archive}.lock").touch()
    before = _listing(archive.parent)
    assert _reports(archive, tmp_path / "locked", capsys) == expected
    assert _listing(archive.parent) == before


def test_ingest_during_a_reports_sidecar_write_succeeds(tmp_path, monkeypatch, capsys):
    archive = _scored_data_dir(tmp_path)
    Path(f"{archive}.view").unlink()
    part = Archive()
    part.add_app(make_app("new"))
    for i in range(5):
        add_scored_review(part, "new", f"r{i}", 2)
    save_archive(part, tmp_path / "part.jsonl")
    ingest = ["ingest", "--archive", archive, "--import-archive", tmp_path / "part.jsonl"]
    codes = []
    write_view = store._write_view

    def ingest_first(*args):
        if not codes:  # the report's write; the ingest's own write passes through
            codes.append(None)
            codes[0] = run(ingest)
        return write_view(*args)

    monkeypatch.setattr(store, "_write_view", ingest_first)
    assert run(["summarize", "--archive", archive]) == 0
    assert codes == [0]
    assert "45 reviews" in capsys.readouterr().out
    # the report's sidecar names the bytes it parsed, so it cannot hide the ingest
    view = store.load_scored_view(archive)
    assert len(view.rows) == 45 and view == load_archive(archive).scored_view()
    assert sorted(p.name for p in archive.parent.iterdir()) == ["archive.jsonl", "archive.jsonl.view"]


def test_summarize_on_current_sidecar_never_parses_archive(tmp_path, fixture_archive, monkeypatch):
    assert run(["score", "--archive", fixture_archive]) == 0
    expected = tmp_path / "expected.csv"
    assert run(["summarize", "--archive", fixture_archive, "--out", expected]) == 0
    _forbid_parse(monkeypatch)
    report = tmp_path / "summary.csv"
    assert run(["summarize", "--archive", fixture_archive, "--out", report]) == 0
    assert report.read_bytes() == expected.read_bytes()


# each writer imports the CLI, then waits for the start signal on stdin
CONCURRENT_INGEST = "import sys; from reviewsent.cli import main; sys.stdin.read(); sys.exit(main())"


def test_concurrent_ingests_lose_no_update(tmp_path):
    archive, logs = tmp_path / "archive.jsonl", tmp_path / "logs"
    logs.mkdir()
    save_archive(random_archive(random.Random(1), n_reviews=2000), archive)
    writers = []
    # imports of different sizes: without the lock held from load to write,
    # a writer that loaded the archive before another saved it saves later
    # and drops that writer's reviews
    for k, size in enumerate([20, 4000, 16000]):
        part = Archive()
        part.add_app(make_app(f"new{k}"))
        for i in range(size):
            add_scored_review(part, f"new{k}", f"r{i}", 2)
        save_archive(part, logs / f"import{k}.jsonl")
        argv = ["ingest", "--archive", archive, "--import-archive", logs / f"import{k}.jsonl"]
        with (logs / f"out{k}").open("w") as out, (logs / f"err{k}").open("w") as err:
            process = subprocess.Popen(
                [sys.executable, "-c", CONCURRENT_INGEST, *map(str, argv)],
                stdin=subprocess.PIPE, stdout=out, stderr=err,
                env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
            )
        writers.append((part, process))
    time.sleep(0.5)  # until every writer waits, so that they race
    for _, process in writers:
        process.stdin.close()
    final_exits = [process.wait(timeout=60) for _, process in writers]
    final = load_archive(archive)
    for k, ((part, _), code) in enumerate(zip(writers, final_exits)):
        if code == 0:
            assert part.reviews.keys() <= final.reviews.keys()
        else:
            assert code == 1
            assert "locked by another writer" in (logs / f"err{k}").read_text()
            assert not part.reviews.keys() & final.reviews.keys()
    assert 0 in final_exits
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "archive.jsonl", "archive.jsonl.view", "logs"
    ]


@pytest.mark.parametrize("sidecar", ["current", "deleted"])
def test_report_on_archive_without_reviews_fails(tmp_path, capsys, sidecar):
    from helpers import make_app
    from reviewsent.store import Archive

    archive = Archive()
    archive.add_app(make_app("app0"))
    path = tmp_path / "apps-only.jsonl"
    save_archive(archive, path)
    assert Path(f"{path}.view").is_file()  # nothing is unscored
    if sidecar == "deleted":
        Path(f"{path}.view").unlink()
    assert run(["summarize", "--archive", path]) == 1
    assert "archive has no reviews; run ingest first" in capsys.readouterr().err


def test_ingest_of_unscored_reviews_removes_sidecar(tmp_path, fixture_archive, capsys):
    from helpers import make_review

    assert run(["score", "--archive", fixture_archive]) == 0
    sidecar = Path(f"{fixture_archive}.view")
    assert sidecar.is_file()
    extra = load_archive(fixture_archive)
    extra.add_review(make_review("app1", "late"))
    extra_path = tmp_path / "extra.jsonl"
    save_archive(extra, extra_path)
    assert not Path(f"{extra_path}.view").exists()
    assert run(["ingest", "--archive", fixture_archive, "--import-archive", extra_path]) == 0
    assert not sidecar.exists()
    capsys.readouterr()
    assert run(["summarize", "--archive", fixture_archive]) == 1
    assert "1 reviews have no score; run score first" in capsys.readouterr().err


def test_ingest_prints_every_feed_error(tmp_path, stub_server, monkeypatch, capsys):
    stub_server.app_payloads["a1"] = lookup_payload("a1")
    stub_server.review_pages["a1"] = [
        [feed_item(0), {"id": "no-rating", "date": "2016-03-01"}],
        [feed_item(1, date="March 1")],
    ]
    monkeypatch.setenv("REVIEWSENT_RATE_LIMIT", "10000")
    target = tmp_path / "fetched.jsonl"
    rc = run(["ingest", "--archive", target, "--app-id", "a1", "--base-url", stub_server.base_url])
    assert rc == 0
    err = capsys.readouterr().err
    assert "app a1: page 1: bad review payload ('rating')" in err
    assert "app a1: page 2: bad review payload (Invalid isoformat string: 'March 1')" in err


# --- hostile archives --------------------------------------------------------

HOSTILE_LINES = {
    "nested too deep": b"[" * 100_000,
    "infinite score": b'{"kind": "score", "app_id": "app0", "review_id": "r00000",'
    b' "positive": Infinity, "negative": -1, "combined": "5"}',
    "infinite rating": b'{"kind": "review", "app_id": "app0", "review_id": "x", "author": "",'
    b' "title": "", "body": "", "rating": Infinity, "date": "2016-02-01"}',
    "infinite helpful votes": b'{"kind": "review", "app_id": "app0", "review_id": "x",'
    b' "author": "", "title": "", "body": "", "rating": 3, "date": "2016-02-01",'
    b' "helpful_votes": -Infinity}',
    "infinite price": b'{"kind": "app", "app_id": "app0", "name": "", "primary_category": "Games",'
    b' "price": Infinity, "current_version": ""}',
    "NaN price": b'{"kind": "app", "app_id": "app0", "name": "", "primary_category": "Games",'
    b' "price": NaN, "current_version": ""}',
}

WINDOW = ["--from", "2016-01-04", "--to", "2016-12-18"]


def _run_every_command(archive: Path) -> list[int]:
    """Exit codes of ``ingest --import-archive`` from ``archive``, then of
    every report before and after ``score`` rewrites ``archive``; each
    must be 0 or 1, and no command may leave a lock or temporary file."""
    reports = [
        ["summarize"],
        ["correlate", "--target", "rating"],
        ["correlate", "--target", "price"],
        ["timeline", "--app-id", "app0", *WINDOW],
        ["patterns", "--min-reviews", "0", *WINDOW],
    ]
    imported = archive.with_name("imported.jsonl")
    commands = [
        ["ingest", "--archive", imported, "--import-archive", archive],
        *[[*report, "--archive", archive] for report in reports],
        ["score", "--no-emoji", "--archive", archive],
        *[[*report, "--archive", archive] for report in reports],
    ]
    codes = [run(command) for command in commands]
    assert set(codes) <= {0, 1}, codes
    assert not [p.name for p in archive.parent.iterdir() if p.suffix in (".lock", ".tmp")]
    return codes


@pytest.mark.parametrize("hostile", sorted(HOSTILE_LINES))
def test_hostile_line_is_skipped_by_every_command(fixture_archive, capsys, hostile):
    assert run(["score", "--no-emoji", "--archive", fixture_archive]) == 0
    with fixture_archive.open("ab") as out:
        out.write(HOSTILE_LINES[hostile] + b"\n")
    lineno = len(fixture_archive.read_bytes().splitlines())
    assert _run_every_command(fixture_archive) == [0] * 12
    if "deep" in hostile:
        reason = "JSON nested too deeply"
    elif "price" in hostile:
        reason = "app app0: price"  # inf or nan, then "is not finite"
    else:
        reason = "cannot convert float infinity"
    assert f"import: skipped line {lineno}: {reason}" in capsys.readouterr().err


def test_raw_payload_at_any_depth_ends_every_command_cleanly(tmp_path):
    # near the recursion limit a payload may decode but fail to encode
    review = b'{"kind": "review", "app_id": "app0", "review_id": "x", "author": "",' \
        b' "title": "", "body": "", "rating": 3, "date": "2016-02-01", "raw": %s}\n'
    for depth in range(800, 1001, 4):
        archive = tmp_path / str(depth) / "archive.jsonl"
        archive.parent.mkdir()
        archive.write_bytes(review % (b"[" * depth + b"]" * depth))
        _run_every_command(archive)


# a review line as the writer makes it, the raw payload nested N deep
NESTED_RAW = {
    "list": lambda depth: b"[" * depth + b"]" * depth,
    "dict": lambda depth: b'{"k": ' * (depth - 1) + b"{}" + b"}" * (depth - 1),
}


@pytest.mark.parametrize("shape", sorted(NESTED_RAW))
def test_raw_payload_the_loader_accepts_is_saved_at_every_depth(tmp_path, capsys, shape):
    # a list raw payload takes the writer's whole-line path, a dict one its f-string
    outcomes = set()
    for depth in range(800, 1001):
        source, imported = tmp_path / f"{depth}.jsonl", tmp_path / f"imported{depth}.jsonl"
        source.write_bytes(
            b'{"app_id": "app0", "app_version": "", "author": "", "body": "", "date": "2016-02-01",'
            b' "helpful_votes": 0, "kind": "review", "rating": 3, "raw": %s, "review_id": "x",'
            b' "title": ""}\n' % NESTED_RAW[shape](depth)
        )
        capsys.readouterr()
        assert run(["ingest", "--archive", imported, "--import-archive", source]) == 0
        skipped = "import: skipped line 1: JSON nested too deeply" in capsys.readouterr().err
        outcomes.add(skipped)
        if not skipped:
            assert imported.read_bytes() == source.read_bytes()
            assert not load_archive(imported).load_skips
    assert outcomes == {False, True}  # the range spans the loader's limit


@settings(max_examples=25, deadline=None)
@given(st.lists(BYTE_EDITS, min_size=1, max_size=6))
def test_mutated_archive_never_raises(edits):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "archive.jsonl"
        path.write_bytes(mutated(small_scored_archive(), edits))
        _run_every_command(path)
