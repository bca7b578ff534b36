"""Byte identity of every CLI output, checked against a recorded table.

Small versions of the three benchmark workloads (``benchmarks/gen.py``,
each ``Spec`` shrunk with ``dataclasses.replace``) run through every
command: ``ingest`` of the archive and of a release CSV, a report before
``score``, ``score``, every report, and ``topics`` on reviews labeled
from the archive. After each step the test hashes the exit code, stdout,
stderr and every file the step wrote, changed or removed (archive,
sidecar, CSVs); the generated inputs are hashed too, so a change to
``gen.py`` shows as an input change rather than as a program change.

``outputs_checksums.json`` holds the table. A change that moves an
output must update it and say which output moved and why; on a
mismatch the assertion prints the whole observed table.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from reviewsent.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
import gen  # noqa: E402

TABLE = Path(__file__).with_name("outputs_checksums.json")
SEED = 15
SMALL = {
    "score_pipeline": {"n_reviews": 400, "n_apps": 6},
    "report_many_apps": {"n_reviews": 400, "n_apps": 12},
    "score_long_tail": {"n_reviews": 60, "n_apps": 3},
}
TOPICS = ("BugReport", "FeatureRequest", "UserExperience", "Rating")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree(where: Path) -> dict[str, str]:
    return {
        path.relative_to(where).as_posix(): _sha(path.read_bytes())
        for path in sorted(where.rglob("*"))
        if path.is_file()
    }


def _write_releases(inputs: gen.Inputs, path: Path) -> None:
    """Each app's generated releases with new notes, one new version per
    app, and one row that ``import_releases`` rejects."""
    with path.open("w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["app_id", "version", "date", "notes"])
        for app_id, releases in sorted(inputs.releases.items()):
            for version, date in releases:
                writer.writerow([app_id, version, date.isoformat(), f"notes, {version}"])
            writer.writerow([app_id, "2.0", gen.WINDOW_END.isoformat(), "ünïcode   notes"])
        writer.writerow([app_id, "3.0", "2016-13-01", "bad date"])


def _write_labeled(inputs: gen.Inputs, path: Path) -> None:
    """Topic labels for the archive's first 120 reviews, and one bad topic."""
    with inputs.archive.open(encoding="utf-8") as stream:
        reviews = [obj for obj in map(json.loads, stream) if obj["kind"] == "review"]
    with path.open("w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["id", "topic", "title", "body"])
        for i, review in enumerate(reviews[:120]):
            writer.writerow([review["review_id"], TOPICS[i % 4], review["title"], review["body"]])
        writer.writerow(["x", "NoSuchTopic", "title", "body"])


def _chain(inputs: gen.Inputs, work: Path, given: Path) -> list[list[str]]:
    archive = str(work / "archive.jsonl")
    lexicon = []
    if inputs.lexicon_manifest is not None:
        lexicon = ["--lexicon", str(inputs.lexicon_manifest),
                   "--emoji-lexicon", str(inputs.emoji_csv)]
    window = ["--from", gen.WINDOW_START.isoformat(), "--to", gen.WINDOW_END.isoformat()]

    def out(name: str) -> list[str]:
        return ["--out", str(work / f"{name}.csv")]

    return [
        ["ingest", "--archive", archive, "--import-archive", str(inputs.archive)],
        ["ingest", "--archive", archive, "--releases", str(given / "releases.csv")],
        ["summarize", "--archive", archive, *out("summarize_before_score")],
        ["score", "--archive", archive, *lexicon],
        ["summarize", "--archive", archive, *out("summarize")],
        ["correlate", "--archive", archive, "--target", "rating", *out("correlate_rating")],
        ["correlate", "--archive", archive, "--target", "price", "--exclude-neutral",
         *out("correlate_price")],
        ["timeline", "--archive", archive, "--app-id", inputs.timeline_app, *window,
         *out("timeline")],
        ["patterns", "--archive", archive, *window, "--min-reviews", str(inputs.min_reviews),
         *out("patterns")],
        ["topics", "--labeled", str(given / "labeled.csv"), *lexicon, *out("topics")],
        ["summarize", "--archive", archive],  # to stdout
    ]


def _observe(workload: str, tmp_path: Path) -> dict:
    given, work = tmp_path / "given", tmp_path / "work"
    inputs = gen.generate(workload, SEED, given)
    _write_releases(inputs, given / "releases.csv")
    _write_labeled(inputs, given / "labeled.csv")
    work.mkdir()

    def normalized(text: str) -> bytes:
        return text.replace(str(tmp_path), "TMP").encode("utf-8")

    steps = []
    before: dict[str, str] = {}
    for argv in _chain(inputs, work, given):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        after = _tree(work)
        files = {name: sha for name, sha in after.items() if before.get(name) != sha}
        files.update({name: None for name in before.keys() - after.keys()})
        before = after
        steps.append({
            "argv": " ".join(argv).replace(str(tmp_path), "TMP"),
            "exit": code,
            "stdout": _sha(normalized(stdout.getvalue())),
            "stderr": _sha(normalized(stderr.getvalue())),
            "files": dict(sorted(files.items())),
        })
    return {"inputs": _tree(given), "steps": steps}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_outputs_match_recorded_checksums(workload, tmp_path, monkeypatch):
    monkeypatch.setitem(
        gen.SPECS, workload, dataclasses.replace(gen.SPECS[workload], **SMALL[workload])
    )
    observed = _observe(workload, tmp_path)
    recorded = json.loads(TABLE.read_text(encoding="utf-8"))[workload]
    assert observed["inputs"] == recorded["inputs"], "the generated inputs changed"
    assert observed == recorded, json.dumps({workload: observed}, indent=1)
