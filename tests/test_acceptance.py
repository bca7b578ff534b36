"""Acceptance suite: one test per release criterion, stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion. Criteria tied to external datasets (the published emoji
lexicon, the full review dataset) are skipped when the files are not
available; everything else gates the build.
"""

import datetime as dt
import io
import math
import os
import random
import time

import pytest

from reviewsent.analytics import pearson, spearman, summarize_by_category
from reviewsent.cli import main as cli_main
from reviewsent.combine import combine
from reviewsent.emojis import (
    load_emoji_lexicon,
    select_frequent,
    substitute_emojis,
)
from reviewsent.engine import SentimentScore, score_text
from reviewsent.lexicon import Lexicon, load_builtin_lexicon
from reviewsent.store import load_archive, save_archive
from reviewsent.temporal import (
    DEFAULT_PATTERN_CONFIG,
    PatternLabel,
    classify_patterns,
    weekly_aggregate,
)

from helpers import (
    WINDOW_END,
    WINDOW_START,
    random_archive,
    unscored_text_archive,
)
from test_temporal import make_series

PUBLISHED_EMOJI_LEXICON = os.environ.get("REVIEWSENT_EMOJI_LEXICON", "")
PAPER_DATASET_ARCHIVE = os.environ.get("REVIEWSENT_PAPER_DATASET", "")


def _pass(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number} PASS: {message}")


def test_criterion_01_combined_score_oracle():
    started = time.perf_counter()

    def literal(p, n):
        if p + n > 0:
            return p
        if p + n < 0:
            return n
        return 0 if p < 4 else None

    for p in range(1, 6):
        for n in range(-5, 0):
            assert combine(SentimentScore(p, n)) == literal(p, n), (p, n)
    assert combine(SentimentScore(3, -4)) == -4
    assert combine(SentimentScore(2, -2)) == 0
    assert combine(SentimentScore(4, -4)) is None
    assert combine(SentimentScore(5, -5)) is None
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _pass(1, f"all 25 (p,n) pairs match the literal clauses ({elapsed:.3f}s)")


def test_criterion_02_worked_scoring_examples():
    lexicon = load_builtin_lexicon()
    assert score_text(
        lexicon, "I hate that u need wifi but it is great."
    ) == SentimentScore(3, -4)
    assert score_text(lexicon, "I would be very sad without it") == SentimentScore(1, -5)
    assert score_text(lexicon, "extremely good").positive == 5
    _pass(2, "seed lexicon reproduces the worked scoring examples exactly")


def test_criterion_03_emoji_pipeline():
    fixture = io.StringIO(
        "emoji,occurrences,polarity\n"
        "😀,101,1\n"
        "😡,100,-1\n"  # exactly at the threshold: must be excluded
        "😐,150,0\n"
        "😭,99,-1\n"
    )
    lexicon = load_emoji_lexicon(fixture)
    selected = select_frequent(lexicon, 100)
    assert [e.emoji for e in selected.entries] == ["😀", "😐"]

    scorer = Lexicon(
        sentiment_terms={"nice": 2}, emoticons={":)": 2, ":(": -2}
    )
    for text, manual in [("nice 😀", "nice :)"), ("😀😀", ":) :)"), ("a😐b", "a :| b")]:
        substituted = substitute_emojis(text, selected)
        assert substituted == manual
        assert substitute_emojis(substituted, selected) == substituted  # idempotent
        assert score_text(scorer, substituted) == score_text(scorer, manual)
    _pass(3, "strict >100 selection, idempotent and score-equivalent substitution")


@pytest.mark.skipif(
    not PUBLISHED_EMOJI_LEXICON,
    reason="published 751-emoji lexicon not available "
    "(set REVIEWSENT_EMOJI_LEXICON to its CSV)",
)
def test_criterion_03_published_emoji_lexicon_counts():
    with open(PUBLISHED_EMOJI_LEXICON, encoding="utf-8") as stream:
        lexicon = load_emoji_lexicon(stream)
    assert len(lexicon) == 751
    assert len(select_frequent(lexicon, 100)) == 214
    _pass(3, "published lexicon: 751 entries, 214 above 100 occurrences")


def test_criterion_04_correlation_oracles():
    started = time.perf_counter()

    def pearson_oracle(xs, ys):
        n = len(xs)
        sx, sy = sum(xs), sum(ys)
        sxx = sum(x * x for x in xs)
        syy = sum(y * y for y in ys)
        sxy = sum(x * y for x, y in zip(xs, ys))
        return (n * sxy - sx * sy) / math.sqrt(
            (n * sxx - sx * sx) * (n * syy - sy * sy)
        )

    def ranks_oracle(values):
        return [
            sum(1 for w in values if w < v)
            + (sum(1 for w in values if w == v) + 1) / 2
            for v in values
        ]

    rng = random.Random(4242)
    checked = 0
    while checked < 20:
        n = rng.randint(5, 100)
        xs = [rng.randint(0, 25) for _ in range(n)]
        ys = [rng.randint(0, 25) for _ in range(n)]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        checked += 1
        assert abs(pearson(xs, ys) - pearson_oracle(xs, ys)) <= 1e-12
        assert (
            abs(spearman(xs, ys) - pearson_oracle(ranks_oracle(xs), ranks_oracle(ys)))
            <= 1e-12
        )

    assert abs(pearson([1, 2, 3], [10, 20, 30]) - 1.0) <= 1e-12
    assert abs(pearson([1, 2, 3], [30, 20, 10]) + 1.0) <= 1e-12
    assert abs(spearman([1, 2, 3, 9], [2, 7, 11, 400]) - 1.0) <= 1e-12
    assert abs(spearman([1, 2, 3, 9], [400, 11, 7, 2]) + 1.0) <= 1e-12
    # hand-ranked tie fixture: ranks of [1,2,2,3] are [1, 2.5, 2.5, 4]
    assert abs(spearman([1, 2, 2, 3], [1, 2, 3, 4]) - 3 / math.sqrt(10)) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _pass(4, f"20 seeded datasets within 1e-12 of the textbook oracle ({elapsed:.3f}s)")


def test_criterion_05_analytics_reconciliation():
    for seed in range(12):
        archive = random_archive(random.Random(seed), n_apps=4, n_reviews=60)
        per_category_totals = {}
        per_category_undefined = {}
        per_category_defined = {}
        for key, review in archive.reviews.items():
            category = archive.apps[review.app_id].primary_category
            value = combine(archive.scores[key])
            per_category_totals[category] = per_category_totals.get(category, 0) + 1
            if value is None:
                per_category_undefined[category] = (
                    per_category_undefined.get(category, 0) + 1
                )
            else:
                per_category_defined.setdefault(category, []).append(value)
        for summary in summarize_by_category(archive.scored_view()):
            total = per_category_totals[summary.category]
            shares_sum = (
                summary.share_positive
                + summary.share_neutral
                + summary.share_negative
                + summary.share_undefined
            )
            assert abs(shares_sum - 1.0) <= 1e-9
            assert (
                summary.n_scored + per_category_undefined.get(summary.category, 0)
                == total
            )
            values = sorted(per_category_defined.get(summary.category, []))
            if not values:
                assert summary.median is None and summary.sd is None
                continue
            n = len(values)
            expected_median = (
                values[n // 2] if n % 2 else (values[n // 2 - 1] + values[n // 2]) / 2
            )
            assert abs(summary.median - expected_median) <= 1e-9
            mean = sum(values) / n
            expected_sd = (
                math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
                if n > 1
                else 0.0
            )
            assert abs(summary.sd - expected_sd) <= 1e-9
    _pass(5, "shares sum to 1, counts reconcile, median/SD match the sort oracle")


def test_criterion_06_pattern_suite():
    started = time.perf_counter()
    config = DEFAULT_PATTERN_CONFIG

    constant = make_series([2.0] * 50)
    assert classify_patterns(constant, config) == {PatternLabel.CONSISTENT_EMOTION}

    step_down = make_series([2.0] * 25 + [-2.0] * 25)
    assert classify_patterns(step_down, config) == {PatternLabel.SENTIMENT_DROP}

    step_up = make_series([-2.0] * 25 + [2.0] * 25)
    assert classify_patterns(step_up, config) == {PatternLabel.SENTIMENT_JUMP}

    ramp_up = make_series([-2.0 + 0.08 * t for t in range(50)])
    assert classify_patterns(ramp_up, config) == {PatternLabel.STEADY_INCREASE}

    ramp_down = make_series([2.0 - 0.08 * t for t in range(50)])
    assert classify_patterns(ramp_down, config) == {PatternLabel.STEADY_DECREASE}

    rng = random.Random(1)
    noise = make_series([rng.gauss(0.0, 0.8) for _ in range(50)])
    assert classify_patterns(noise, config) == {PatternLabel.INCONSISTENT_EMOTION}

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _pass(6, f"archetype series map to their exact label sets ({elapsed:.3f}s)")


def test_criterion_07_aggregation_conservation():
    cases = 0
    for seed in range(100):
        rng = random.Random(seed)
        archive = random_archive(rng, n_apps=2, n_reviews=rng.randint(10, 50))
        app_id = f"app{rng.randrange(2)}"
        series = weekly_aggregate(archive.scored_view(), app_id, WINDOW_START, WINDOW_END)
        expected = sum(
            1
            for key, review in archive.reviews.items()
            if review.app_id == app_id
            and WINDOW_START <= review.date <= WINDOW_END
            and combine(archive.scores[key]) is not None
        )
        assert series.total_reviews == expected

        shuffled_keys = list(archive.reviews)
        rng.shuffle(shuffled_keys)
        from reviewsent.store import Archive

        reordered = Archive()
        for other_app in archive.apps.values():
            reordered.add_app(other_app)
        for key in shuffled_keys:
            reordered.add_review(archive.reviews[key])
            reordered.set_score(key[0], key[1], archive.scores[key])
        assert weekly_aggregate(reordered.scored_view(), app_id, WINDOW_START, WINDOW_END) == series
        cases += 1
    assert cases == 100
    _pass(7, "100 seeded archives conserve counts and ignore insertion order")


def test_criterion_08_ingestion_robustness(stub_server, tmp_path):
    from reviewsent.client import ClientConfig, StoreClient

    from helpers import feed_item

    pages = [[feed_item(i, date="2016-06-01") for i in range(page * 50, page * 50 + 50)] for page in range(3)]
    pages[2][10] = dict(pages[2][10], id="rev-0001")  # duplicate
    stub_server.review_pages["a1"] = pages
    config = ClientConfig(
        base_url=stub_server.base_url, rate_limit=10_000, max_retries=1, backoff=0.01
    )
    with StoreClient(config) as client:
        drained = client.fetch_reviews("a1")
        assert len(drained.reviews) == 149
        assert drained.duplicates == 1

        stub_server.review_pages["a2"] = [
            [feed_item(1, date="2016-06-01"), feed_item(2, date="2016-01-01")]
        ]
        cut = client.fetch_reviews("a2", since=dt.date(2016, 3, 1))
        assert [r.review_id for r in cut.reviews] == ["rev-0001"]

    for seed in range(10):
        archive = random_archive(random.Random(seed), n_apps=2, n_reviews=30)
        path = tmp_path / f"roundtrip-{seed}.jsonl"
        save_archive(archive, path)
        assert load_archive(path) == archive
    _pass(8, "pagination, dedup, since-cutoff, and round-trips behave per contract")


def test_criterion_09_end_to_end_determinism(tmp_path):
    started = time.perf_counter()
    fixture = unscored_text_archive(random.Random(2016), n_apps=3, n_reviews=200)
    source = tmp_path / "fixture.jsonl"
    save_archive(fixture, source)

    outputs = []
    for run_dir in ("run1", "run2"):
        base = tmp_path / run_dir
        base.mkdir()
        archive_path = base / "archive.jsonl"
        summary_path = base / "summary.csv"
        patterns_path = base / "patterns.csv"
        assert (
            cli_main(
                [
                    "ingest",
                    "--archive",
                    str(archive_path),
                    "--import-archive",
                    str(source),
                ]
            )
            == 0
        )
        assert cli_main(["score", "--archive", str(archive_path)]) == 0
        assert (
            cli_main(
                [
                    "summarize",
                    "--archive",
                    str(archive_path),
                    "--out",
                    str(summary_path),
                ]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "patterns",
                    "--archive",
                    str(archive_path),
                    "--from",
                    "2016-01-04",
                    "--to",
                    "2016-12-18",
                    "--min-reviews",
                    "30",
                    "--out",
                    str(patterns_path),
                ]
            )
            == 0
        )
        outputs.append(
            (
                archive_path.read_bytes(),
                summary_path.read_bytes(),
                patterns_path.read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]
    # the pipeline actually produced content
    assert len(outputs[0][1].splitlines()) >= 2
    assert len(outputs[0][2].splitlines()) >= 2
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _pass(9, f"two identical pipeline runs over 200 reviews ({elapsed:.2f}s)")


@pytest.mark.skipif(
    not PAPER_DATASET_ARCHIVE,
    reason="full review dataset not available "
    "(set REVIEWSENT_PAPER_DATASET to a scored archive); reported side-by-side, "
    "not pass/fail gated",
)
def test_criterion_10_full_dataset_report():
    archive = load_archive(PAPER_DATASET_ARCHIVE)
    from reviewsent.analytics import overall_summary, sentiment_vs_rating

    result = sentiment_vs_rating(archive.scored_view())
    overall = overall_summary(archive.scored_view())
    print("\nfull dataset: reference Pearson 0.5699, reference mean 1.544")
    print(f"computed: pearson={result.pearson:.4f} spearman={result.spearman:.6f}")
    print(f"computed: mean combined={overall.mean:.3f} over n={overall.n_scored}")
    for summary in summarize_by_category(archive.scored_view()):
        print(
            f"{summary.category}: n={summary.n_free + summary.n_paid} mean={summary.mean:.3f} "
            f"sd={summary.sd:.3f} median={summary.median:.1f}"
        )
    _pass(10, "side-by-side report computed (no tolerance gate by design)")
