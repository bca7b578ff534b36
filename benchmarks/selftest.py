"""The benchmark's own tests: generator, oracle and traced runs.

    python3 -m pytest benchmarks/selftest.py -q

The file is not named ``test_*.py``, so the repository's test suite
does not collect it; run it by path. Workloads are shrunk here so the
whole file takes seconds.
"""

from __future__ import annotations

import dataclasses
import io
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from reviewsent import (  # noqa: E402
    load_builtin_emoji_lexicon,
    load_builtin_lexicon,
    load_emoji_lexicon,
    load_lexicon_manifest,
    score_text,
    select_frequent,
    substitute_emojis,
)

SMALL = {
    "score_pipeline": {"n_reviews": 300, "n_apps": 6},
    "report_many_apps": {"n_reviews": 300, "n_apps": 8},
    "score_long_tail": {"n_reviews": 40, "n_apps": 3},
}


@pytest.fixture
def small_specs(monkeypatch):
    for name, changes in SMALL.items():
        monkeypatch.setitem(gen.SPECS, name, dataclasses.replace(gen.SPECS[name], **changes))


def _files(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _program_lexicons(inputs: gen.Inputs):
    if inputs.lexicon_manifest is None:
        return load_builtin_lexicon(), select_frequent(load_builtin_emoji_lexicon())
    with inputs.emoji_csv.open(encoding="utf-8") as stream:
        emoji = select_frequent(load_emoji_lexicon(stream))
    return load_lexicon_manifest(inputs.lexicon_manifest), emoji


def _oracle_lexicon(inputs: gen.Inputs) -> oracle.OracleLexicon:
    if inputs.lexicon_manifest is None:
        data = gen.BUILTIN_DATA
        return gen._read_lexicon(data / "manifest.json", data / "emoji_lexicon.csv")
    return gen._read_lexicon(inputs.lexicon_manifest, inputs.emoji_csv)


# --- generator -------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(gen.SPECS))
def test_generator_is_deterministic(small_specs, tmp_path, workload):
    first = gen.generate(workload, 7, tmp_path / "a")
    again = gen.generate(workload, 7, tmp_path / "b")
    other = gen.generate(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["archive.jsonl"] != _files(tmp_path / "c")["archive.jsonl"]
    assert first.expected == again.expected
    assert first.properties["reviews"] == gen.SPECS[workload].n_reviews


def test_generated_emoji_lexicon_has_the_papers_selection_shape(tmp_path):
    gen._write_generated_lexicon(random.Random(1), tmp_path)
    rows = gen._emoji_rows(tmp_path / "emoji.csv")
    assert len(rows) == 751
    assert sum(1 for _, occurrences, _ in rows if occurrences > 100) == 214
    assert any("‍" in emoji for emoji, _, _ in rows)  # ZWJ sequences
    assert any("\U0001F3FB" <= emoji[-1] <= "\U0001F3FF" for emoji, _, _ in rows)  # skin tones


@pytest.mark.parametrize("workload", sorted(gen.SPECS))
def test_pieces_stay_local(small_specs, tmp_path, workload):
    """Scoring a whole review gives the merge of its pieces' scores."""
    inputs = gen.generate(workload, 3, tmp_path)
    lex = _oracle_lexicon(inputs)
    with inputs.archive.open(encoding="utf-8") as stream:
        reviews = [json.loads(line) for line in stream]
    reviews = [r for r in reviews if r["kind"] == "review"]
    assert reviews
    for review in reviews:
        text = f"{review['title']} {review['body']}"
        assert oracle.score(text, lex) == inputs.expected[(review["app_id"], review["review_id"])]


# --- oracle ----------------------------------------------------------------------

ZWJ_CSV = (
    "emoji,occurrences,polarity\n"
    "\U0001F469,500,1\n"
    "\U0001F469‍\U0001F4BB,300,-1\n"
    "\U0001F44D,400,1\n"
    "\U0001F44D\U0001F3FD,50,-1\n"
)


@pytest.mark.parametrize(
    "text",
    [
        "very nice",  # booster right before the term
        "very zorp nice",  # booster two tokens ahead
        "very zorp blip nice",  # out of reach
        "extremely very excellent",  # clamps at +5
        "extremely absolutely worst",  # clamps at -5
        "slightly somewhat nice",  # softened below 1, clamps at 1
        "goooood",  # elongation collapses to "good"
        "GREAT!!",  # case and punctuation
        "(terrible)...",
        "luv it",  # slang
        "u h8 this",
        "nice:)",  # word and emoticon in one chunk
        "so sad:'(",
        "very :D",
        "\U0001F469‍\U0001F4BB shipped",  # ZWJ sequence beats its first emoji
        "\U0001F469‍\U0001F4BBgood",
        "\U0001F44D\U0001F3FD",  # unselected skin tone: its base is replaced
        "\U0001F44D\U0001F44D hate",
    ],
)
def test_oracle_agrees_with_score_text(text):
    lexicon = load_builtin_lexicon()
    emoji = select_frequent(load_emoji_lexicon(io.StringIO(ZWJ_CSV)))
    data = gen.BUILTIN_DATA
    lex = gen._read_lexicon(data / "manifest.json", data / "emoji_lexicon.csv")
    lex = dataclasses.replace(
        lex, emojis={e.emoji: e.polarity for e in emoji.entries}
    )
    got = score_text(lexicon, substitute_emojis(text, emoji))
    assert oracle.score(text, lex) == (got.positive, got.negative)


@pytest.mark.parametrize("workload", ["score_pipeline", "score_long_tail"])
def test_oracle_agrees_on_generated_pieces(small_specs, tmp_path, workload):
    inputs = gen.generate(workload, 5, tmp_path)
    lexicon, emoji = _program_lexicons(inputs)
    lex = _oracle_lexicon(inputs)
    rows = gen._emoji_rows(inputs.emoji_csv or gen.BUILTIN_DATA / "emoji_lexicon.csv")
    model = gen.TextModel(random.Random(9), lex, rows, gen.SPECS[workload].long_tail)
    for _ in range(400):
        for piece in (model.word_piece(), model.emoji_piece(), model.filler()):
            got = score_text(lexicon, substitute_emojis(piece, emoji))
            assert oracle.score(piece, lex) == (got.positive, got.negative), piece


# --- traced runs -----------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(gen.SPECS))
def test_traced_and_untraced_runs_agree(small_specs, tmp_path, workload):
    inputs = gen.generate(workload, 2, tmp_path / "inputs")
    expect = run.Expect.of(inputs)
    rep, produced, differences = run.run_rep(
        inputs, expect, tmp_path / "rep", 0, trace=True, reference=None
    )
    assert differences == []
    assert all(step["exit"] == 0 and not step["problems"] for step in rep.steps)
    assert rep.mismatches == 0
    layers = rep.layers
    assert set(layers) == set(run.PER_LAYER)
    if workload == "report_many_apps":
        assert layers["engine.calls"] == 0
        assert layers["store.save_calls"] == 0
        assert layers["temporal.apps_classified"] == len(expect.qualifying) > 0
    else:
        assert layers["temporal.aggregate_calls"] == 0
        assert layers["engine.calls"] == len(inputs.expected)


def test_every_binding_site_is_wrapped(tmp_path):
    spec = {"run_id": "sites", "trace": True, "log": str(tmp_path / "log"), "steps": []}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    code, _, _ = run.spawn(
        [sys.executable, str(BENCH / "traced.py"), str(spec_path), str(tmp_path / "out.json")],
        tmp_path / "traced.log",
    )
    assert code == 0
    sites = set(json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))["sites"])
    assert {
        "reviewsent.cli.score_review",
        "reviewsent.cli.score_text",
        "reviewsent.cli.combine",
        "reviewsent.cli.load_archive",
        "reviewsent.cli.save_archive",
        "reviewsent.engine.substitute_emojis",
        "reviewsent.engine.score_text",
        "reviewsent.store.combine",
        "reviewsent.analytics.combine",
        "reviewsent.temporal.combine",
        "reviewsent.emojis.select_frequent",
        "reviewsent.temporal.weekly_aggregate",
    } <= sites


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(gen.SPECS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
