"""Statistics oracles: summaries, correlations, boxes, dispersion."""

import io
import math
import random
from collections import Counter

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewsent.analytics import (
    DispersionStats,
    Topic,
    average_ranks,
    counted_sd,
    dispersion_by_topic,
    overall_summary,
    parse_topic_rows,
    pearson,
    quantile,
    sample_sd,
    sentiment_by_rating,
    sentiment_vs_price,
    sentiment_vs_rating,
    spearman,
    summarize_by_category,
    write_category_report,
)
from reviewsent.combine import Polarity, polarity_class
from reviewsent.store import Archive

from helpers import COMBINED_TO_SCORE, archive_with_combined, make_app, add_scored_review, random_archive


# --- independent oracles ---------------------------------------------------


def pearson_oracle(xs, ys):
    """Raw-sums textbook formula."""
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    syy = sum(y * y for y in ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    return (n * sxy - sx * sy) / math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))


def ranks_oracle(values):
    """Counting-based average ranks, independent of the sort-based path."""
    return [
        sum(1 for w in values if w < v) + (sum(1 for w in values if w == v) + 1) / 2
        for v in values
    ]


# --- scalar statistics --------------------------------------------------------


def test_quantile_matches_numpy_linear():
    rng = random.Random(3)
    for _ in range(50):
        values = [rng.uniform(-5, 5) for _ in range(rng.randint(1, 40))]
        for q in (0.0, 0.25, 0.5, 0.75, 1.0, rng.random()):
            assert quantile(values, q) == pytest.approx(
                float(np.quantile(values, q)), abs=1e-9
            )


def test_quantile_rejects_bad_input():
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)


def test_sample_sd_conventions():
    assert sample_sd([5.0]) == 0.0
    assert sample_sd([1.0, 1.0, 1.0]) == 0.0
    assert sample_sd([1.0, 3.0]) == pytest.approx(math.sqrt(2), abs=1e-12)


# --- correlations ----------------------------------------------------------------


DEFINED_COMBINED = [value for value in COMBINED_TO_SCORE if value is not None]


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.lists(st.sampled_from(DEFINED_COMBINED), min_size=1, max_size=50),
        # few distinct values with large counts, as in a big category
        st.dictionaries(st.sampled_from(DEFINED_COMBINED), st.integers(1, 3000), min_size=1)
        .map(lambda counts: [v for v, c in counts.items() for _ in range(c)]),
    )
)
def test_counted_sd_is_sample_sd(values):
    assert counted_sd(Counter(values)) == sample_sd(values)


def test_counted_sd_conventions():
    assert counted_sd({4: 1}) == 0.0
    assert counted_sd({-3: 7}) == 0.0
    with pytest.raises(ValueError):
        counted_sd({})


def test_pearson_perfect_linear():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)


def test_pearson_perfect_anti_linear():
    assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_textbook_fixture():
    # raw-sums formula gives exactly 16/20 = 0.8 for this fixture
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_pearson_errors_not_nan():
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1], [2])
    with pytest.raises(ValueError):
        pearson([1, 1, 1], [1, 2, 3])


def test_spearman_monotone_is_one():
    assert spearman([1, 2, 5, 9], [10, 20, 21, 400]) == pytest.approx(1.0, abs=1e-12)
    assert spearman([1, 2, 5, 9], [400, 21, 20, 10]) == pytest.approx(-1.0, abs=1e-12)


def test_spearman_tie_handling_hand_ranked():
    # xs = [1,2,2,3] has ranks [1, 2.5, 2.5, 4]; pearson of those against
    # [1,2,3,4] is 3/sqrt(10)
    expected = 3 / math.sqrt(10)
    assert spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(expected, abs=1e-12)


def test_average_ranks_with_ties():
    assert average_ranks([10, 20, 20, 30]) == [1.0, 2.5, 2.5, 4.0]
    assert average_ranks([7, 7, 7]) == [2.0, 2.0, 2.0]


def test_correlations_match_oracles_on_seeded_data():
    rng = random.Random(565_976)
    checked = 0
    while checked < 25:
        n = rng.randint(5, 100)
        xs = [rng.randint(0, 20) for _ in range(n)]
        ys = [rng.randint(0, 20) for _ in range(n)]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        checked += 1
        assert pearson(xs, ys) == pytest.approx(pearson_oracle(xs, ys), abs=1e-12)
        assert spearman(xs, ys) == pytest.approx(
            pearson_oracle(ranks_oracle(xs), ranks_oracle(ys)), abs=1e-12
        )
        # third opinion
        assert pearson(xs, ys) == pytest.approx(
            scipy.stats.pearsonr(xs, ys).statistic, abs=1e-12
        )
        assert spearman(xs, ys) == pytest.approx(
            scipy.stats.spearmanr(xs, ys).statistic, abs=1e-12
        )


# --- category summaries -------------------------------------------------------------


def test_summarize_hand_computed_example():
    archive = archive_with_combined([3, 3, -3, 0])
    (summary,) = summarize_by_category(archive.scored_view())
    assert summary.category == "Games"
    assert summary.n_scored == 4
    assert summary.mean == pytest.approx(0.75)
    assert summary.median == pytest.approx(1.5)
    assert summary.share_positive == pytest.approx(0.5)
    assert summary.share_neutral == pytest.approx(0.25)
    assert summary.share_negative == pytest.approx(0.25)
    assert summary.share_undefined == 0.0


def test_summarize_single_review():
    archive = archive_with_combined([5])
    (summary,) = summarize_by_category(archive.scored_view())
    assert summary.mean == 5
    assert summary.median == 5
    assert summary.sd == 0.0


def test_summarize_all_undefined_category():
    archive = archive_with_combined([None, None])
    (summary,) = summarize_by_category(archive.scored_view())
    assert summary.n_scored == 0
    assert summary.mean is None
    assert summary.sd is None
    assert summary.median is None
    assert summary.share_undefined == 1.0


def test_summarize_splits_free_and_paid():
    archive = Archive()
    archive.add_app(make_app("free1", category="Games", price=0.0))
    archive.add_app(make_app("paid1", category="Games", price=4.99))
    add_scored_review(archive, "free1", "r1", 3)
    add_scored_review(archive, "paid1", "r2", -3)
    add_scored_review(archive, "paid1", "r3", 0)
    (summary,) = summarize_by_category(archive.scored_view())
    assert summary.n_free == 1
    assert summary.n_paid == 2


def test_summarize_requires_scores():
    archive = archive_with_combined([3])
    from helpers import make_review

    archive.add_review(make_review("app1", "unscored"))
    with pytest.raises(ValueError, match="run score first"):
        summarize_by_category(archive.scored_view())


def test_shares_sum_and_counts_reconcile_on_random_archives():
    for seed in range(20):
        archive = random_archive(random.Random(seed), n_apps=4, n_reviews=50)
        undefined_per_category = {}
        total_per_category = {}
        for key, review in archive.reviews.items():
            category = archive.apps[review.app_id].primary_category
            total_per_category[category] = total_per_category.get(category, 0) + 1
            from reviewsent.combine import combine

            if combine(archive.scores[key]) is None:
                undefined_per_category[category] = (
                    undefined_per_category.get(category, 0) + 1
                )
        for summary in summarize_by_category(archive.scored_view()):
            shares = (
                summary.share_positive
                + summary.share_neutral
                + summary.share_negative
                + summary.share_undefined
            )
            assert abs(shares - 1.0) <= 1e-9
            total = total_per_category[summary.category]
            assert summary.n_free + summary.n_paid == total
            assert summary.n_scored + undefined_per_category.get(summary.category, 0) == total


def test_one_category_archive_equals_overall():
    archive = archive_with_combined([5, 3, 0, -2, None, 4])
    (per_category,) = summarize_by_category(archive.scored_view())
    overall = overall_summary(archive.scored_view())
    assert overall.category == "ALL"
    for field in (
        "n_free",
        "n_paid",
        "n_scored",
        "mean",
        "sd",
        "median",
        "share_positive",
        "share_neutral",
        "share_negative",
        "share_undefined",
    ):
        assert getattr(per_category, field) == getattr(overall, field)


def test_summarize_median_and_sd_match_sort_oracle():
    rng = random.Random(99)
    archive = random_archive(rng, n_apps=3, n_reviews=80)
    from reviewsent.combine import combine

    for summary in summarize_by_category(archive.scored_view()):
        values = sorted(
            combine(archive.scores[key])
            for key, review in archive.reviews.items()
            if archive.apps[review.app_id].primary_category == summary.category
            and combine(archive.scores[key]) is not None
        )
        if not values:
            continue
        n = len(values)
        expected_median = (
            values[n // 2] if n % 2 else (values[n // 2 - 1] + values[n // 2]) / 2
        )
        assert summary.median == pytest.approx(expected_median, abs=1e-9)
        mean = sum(values) / n
        expected_sd = (
            math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1)) if n > 1 else 0.0
        )
        assert summary.sd == pytest.approx(expected_sd, abs=1e-9)


# --- per-star boxes --------------------------------------------------------------


def test_rating_boxes_match_numpy_quartiles():
    # +/-1 are unreachable combined values, so the fixture avoids them
    values = [-5, -3, -2, 0, 0, 2, 4, 5]
    archive = archive_with_combined(values, ratings=[3] * len(values))
    summary = sentiment_by_rating(archive.scored_view())[3]
    assert summary.n == 8
    assert summary.q1 == pytest.approx(-2.25, abs=1e-12)
    assert summary.median == pytest.approx(0.0, abs=1e-12)
    assert summary.q3 == pytest.approx(2.5, abs=1e-12)
    assert summary.minimum == -5 and summary.maximum == 5
    assert summary.n_strong_negative == 1  # only the -5


def test_rating_boxes_single_value_bucket_degenerate():
    archive = archive_with_combined([4], ratings=[5])
    summary = sentiment_by_rating(archive.scored_view())[5]
    assert (
        summary.minimum
        == summary.q1
        == summary.median
        == summary.q3
        == summary.maximum
        == 4
    )
    assert summary.n_outliers == 0


def test_rating_boxes_empty_archive_absent():
    archive = Archive()
    archive.add_app(make_app("app1"))
    assert sentiment_by_rating(archive.scored_view()) == {}


def test_rating_boxes_outlier_count():
    # tight cluster plus one far point: fences put -5 outside
    values = [2, 2, 2, 2, 3, 3, 3, 3, -5]
    archive = archive_with_combined(values, ratings=[5] * len(values))
    summary = sentiment_by_rating(archive.scored_view())[5]
    q1, q3 = np.quantile(values, 0.25), np.quantile(values, 0.75)
    fence = 1.5 * (q3 - q1)
    expected = sum(1 for v in values if v < q1 - fence or v > q3 + fence)
    assert summary.n_outliers == expected == 1
    assert summary.whisker_low == 2
    assert summary.whisker_high == 3


def test_undefined_excluded_from_rating_boxes():
    archive = archive_with_combined([None, 3], ratings=[5, 5])
    summary = sentiment_by_rating(archive.scored_view())[5]
    assert summary.n == 1


# --- correlation over archives -----------------------------------------------------


def test_sentiment_vs_rating_monotone():
    archive = archive_with_combined(
        [-4, -2, 0, 2, 4], ratings=[1, 2, 3, 4, 5]
    )
    result = sentiment_vs_rating(archive.scored_view())
    assert result.n == 5
    assert result.spearman == pytest.approx(1.0, abs=1e-12)


def test_exclude_neutral_flag():
    archive = archive_with_combined([-4, -2, 0, 2, 4], ratings=[1, 2, 3, 4, 5])
    result = sentiment_vs_rating(archive.scored_view(), include_neutral=False)
    assert result.n == 4


def test_sentiment_vs_price_all_free_errors():
    archive = archive_with_combined([3, -3, 0], price=0.0)
    with pytest.raises(ValueError, match="constant"):
        sentiment_vs_price(archive.scored_view())


def test_sentiment_vs_price_constructed_zero_correlation():
    archive = Archive()
    archive.add_app(make_app("free", price=0.0))
    archive.add_app(make_app("paid", price=1.0))
    for app_id in ("free", "paid"):
        add_scored_review(archive, app_id, f"{app_id}-neg", -2)
        add_scored_review(archive, app_id, f"{app_id}-pos", 2)
    result = sentiment_vs_price(archive.scored_view())
    assert abs(result.pearson) < 1e-12
    assert abs(result.spearman) < 1e-12


def test_sentiment_vs_price_monotone_toy_set():
    archive = Archive()
    for i, price in enumerate([0.0, 0.99, 4.99]):
        archive.add_app(make_app(f"a{i}", price=price))
        add_scored_review(archive, f"a{i}", f"r{i}", [-3, 0, 3][i])
    result = sentiment_vs_price(archive.scored_view())
    assert result.spearman == pytest.approx(1.0, abs=1e-12)


def test_undefined_excluded_from_correlations():
    archive = archive_with_combined([None, -3, 0, 3], ratings=[1, 1, 3, 5])
    assert sentiment_vs_rating(archive.scored_view()).n == 3


# --- per-topic dispersion -------------------------------------------------------------


def test_dispersion_full_scale_range_is_ten():
    labeled = [(Topic.BUG_REPORT, v) for v in [-5, -3, 0, 2, 5]]
    stats = dispersion_by_topic(labeled)[Topic.BUG_REPORT]
    assert stats.value_range == 10.0


def test_dispersion_constant_values():
    labeled = [(Topic.RATING, 2)] * 5
    stats = dispersion_by_topic(labeled)[Topic.RATING]
    assert stats == DispersionStats(n=5, value_range=0.0, iqr=0.0, sd=0.0)


def test_dispersion_eight_value_iqr_from_sort_oracle():
    values = [-5, -3, -2, 0, 0, 2, 4, 5]
    labeled = [(Topic.FEATURE_REQUEST, v) for v in values]
    stats = dispersion_by_topic(labeled)[Topic.FEATURE_REQUEST]
    assert stats.iqr == pytest.approx(4.75, abs=1e-12)  # 2.5 - (-2.25)
    assert stats.sd == pytest.approx(float(np.std(values, ddof=1)), abs=1e-12)


def test_dispersion_ignores_undefined():
    labeled = [(Topic.USER_EXPERIENCE, None), (Topic.USER_EXPERIENCE, 1)]
    stats = dispersion_by_topic(labeled)[Topic.USER_EXPERIENCE]
    assert stats.n == 1


def test_parse_topic_rows_rejects_unknown_topic():
    stream = io.StringIO(
        "id,topic,title,body\n"
        "1,BugReport,crashes,app crashes\n"
        "2,Complaint,bad,not a topic\n"
        "3,Rating,five stars,love it\n"
    )
    rows, rejects = parse_topic_rows(stream)
    assert [r.topic for r in rows] == [Topic.BUG_REPORT, Topic.RATING]
    assert rejects == [(3, "unknown topic 'Complaint'")]


# --- report format ----------------------------------------------------------------


def test_category_report_six_decimals():
    archive = archive_with_combined([3, -3])
    out = io.StringIO()
    write_category_report(summarize_by_category(archive.scored_view()), out)
    # the columns are the CategorySummary fields: pinned, so a rename shows here
    assert out.getvalue().splitlines() == [
        "category,n_free,n_paid,n_scored,mean,sd,median,"
        "share_positive,share_neutral,share_negative,share_undefined",
        "Games,2,0,2,0.000000,4.242641,0.000000,0.500000,0.000000,0.500000,0.000000",
    ]


def test_polarity_shares_align_with_polarity_class():
    archive = archive_with_combined([5, 0, -5, None])
    (summary,) = summarize_by_category(archive.scored_view())
    assert summary.share_positive == 0.25
    assert polarity_class(5) is Polarity.POSITIVE
