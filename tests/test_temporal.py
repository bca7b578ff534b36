"""Weekly aggregation, pattern classification, release impact, timeline."""

import datetime as dt
import io
import random

import pytest

from reviewsent.store import Archive, Release
from reviewsent.temporal import (
    PatternConfig,
    PatternLabel,
    WeeklySeries,
    classify_patterns,
    qualifying_apps,
    release_impact,
    weekly_aggregate,
    weekly_aggregates,
    write_pattern_report,
    write_timeline,
)

from helpers import (
    WINDOW_END,
    WINDOW_START,
    add_scored_review,
    make_app,
    random_archive,
)


def make_series(
    means,
    volumes=None,
    lengths=None,
    releases=(),
    app_id="app1",
) -> WeeklySeries:
    """Series from a list of weekly means (None = empty week)."""
    weeks = range(len(means))
    empty = [mean is None for mean in means]
    return WeeklySeries(
        app_id=app_id,
        start_date=WINDOW_START,
        n_reviews=tuple(0 if empty[w] else volumes[w] if volumes else 5 for w in weeks),
        mean_combined=tuple(None if empty[w] else float(means[w]) for w in weeks),
        mean_length=tuple(
            None if empty[w] else float(lengths[w]) if lengths else 100.0 for w in weeks
        ),
        releases=tuple(releases),
    )


# --- weekly aggregation -----------------------------------------------------


def test_bin_arithmetic_two_weeks():
    archive = Archive()
    archive.add_app(make_app("app1"))
    start = dt.date(2016, 1, 4)
    add_scored_review(archive, "app1", "r0", 3, date=start)
    add_scored_review(archive, "app1", "r1", -3, date=start + dt.timedelta(days=7))
    series = weekly_aggregate(archive.scored_view(), "app1", start, start + dt.timedelta(days=13))
    assert len(series.n_reviews) == 2
    assert (series.mean_combined[0], series.n_reviews[0], series.mean_length[0]) == (
        3.0, 1, pytest.approx(13.0)
    )
    assert series.mean_combined[1] == -3.0


def test_paper_window_has_50_bins():
    archive = Archive()
    archive.add_app(make_app("app1"))
    add_scored_review(archive, "app1", "r0", 2, date=WINDOW_START)
    series = weekly_aggregate(archive.scored_view(), "app1", WINDOW_START, WINDOW_END)
    assert len(series.n_reviews) == len(series.mean_combined) == len(series.mean_length) == 50


def test_empty_weeks_have_no_fabricated_means():
    archive = Archive()
    archive.add_app(make_app("app1"))
    add_scored_review(archive, "app1", "r0", 2, date=WINDOW_START)
    series = weekly_aggregate(
        archive.scored_view(), "app1", WINDOW_START, WINDOW_START + dt.timedelta(days=20)
    )
    assert series.mean_combined[1] is None
    assert series.n_reviews[1] == 0
    assert series.mean_length[1] is None


def test_undefined_reviews_not_counted():
    archive = Archive()
    archive.add_app(make_app("app1"))
    add_scored_review(archive, "app1", "r0", None, date=WINDOW_START)
    add_scored_review(archive, "app1", "r1", 4, date=WINDOW_START)
    series = weekly_aggregate(
        archive.scored_view(), "app1", WINDOW_START, WINDOW_START + dt.timedelta(days=6)
    )
    assert series.n_reviews[0] == 1
    assert series.mean_combined[0] == 4.0


def test_review_count_conservation_and_order_invariance():
    from reviewsent.combine import combine

    span = (WINDOW_END - WINDOW_START).days
    for seed in range(10):
        rng = random.Random(seed)
        archive = random_archive(rng, n_apps=4, n_reviews=120)
        for i in range(12):
            # some releases fall outside the window on either side
            date = WINDOW_START + dt.timedelta(days=rng.randrange(-30, span + 30))
            archive.add_release(Release(f"app{rng.randrange(4)}", f"1.{i}", date, ""))
        app_ids = sorted(archive.apps)
        all_series = weekly_aggregates(archive.scored_view(), app_ids, WINDOW_START, WINDOW_END)
        assert [series.app_id for series in all_series] == app_ids
        for app_id, series in zip(app_ids, all_series):
            counts = [0] * len(series.n_reviews)
            for key, review in archive.reviews.items():
                if (
                    review.app_id == app_id
                    and WINDOW_START <= review.date <= WINDOW_END
                    and combine(archive.scores[key]) is not None
                ):
                    counts[(review.date - WINDOW_START).days // 7] += 1
            assert list(series.n_reviews) == counts
            assert list(series.releases) == sorted(
                ((release.date - WINDOW_START).days // 7, release.version)
                for release in archive.releases.values()
                if release.app_id == app_id
                and WINDOW_START <= release.date <= WINDOW_END
            )
            assert weekly_aggregate(archive.scored_view(), app_id, WINDOW_START, WINDOW_END) == series

        # rebuild the archive in a shuffled insertion order
        shuffled = Archive()
        items = list(archive.reviews.items())
        rng.shuffle(items)
        releases = list(archive.releases.values())
        rng.shuffle(releases)
        for app_id in reversed(app_ids):
            shuffled.add_app(archive.apps[app_id])
        for key, review in items:
            shuffled.add_review(review)
            shuffled.set_score(key[0], key[1], archive.scores[key])
        for release in releases:
            shuffled.add_release(release)
        assert weekly_aggregates(shuffled.scored_view(), app_ids, WINDOW_START, WINDOW_END) == all_series


def test_releases_mapped_to_bins():
    archive = Archive()
    archive.add_app(make_app("app1"))
    add_scored_review(archive, "app1", "r0", 2, date=WINDOW_START)
    archive.add_release(
        Release("app1", "5.0.6", WINDOW_START + dt.timedelta(days=38 * 7 + 2), "")
    )
    archive.add_release(Release("app1", "9.9", dt.date(2017, 5, 1), "outside"))
    series = weekly_aggregate(archive.scored_view(), "app1", WINDOW_START, WINDOW_END)
    assert series.releases == ((38, "5.0.6"),)


def test_unknown_app_rejected():
    archive = Archive()
    with pytest.raises(ValueError, match="not in archive"):
        weekly_aggregate(archive.scored_view(), "ghost", WINDOW_START, WINDOW_END)


def test_unscored_review_rejected():
    from helpers import make_review

    archive = Archive()
    archive.add_app(make_app("app1"))
    archive.add_review(make_review("app1", "r0", date=WINDOW_START))
    with pytest.raises(ValueError, match="run score first"):
        weekly_aggregate(archive.scored_view(), "app1", WINDOW_START, WINDOW_END)


def test_start_after_end_rejected():
    archive = Archive()
    archive.add_app(make_app("app1"))
    with pytest.raises(ValueError):
        weekly_aggregate(archive.scored_view(), "app1", WINDOW_END, WINDOW_START)


# --- pattern classification ---------------------------------------------------


def test_constant_series_is_consistent():
    series = make_series([2.0] * 50)
    assert classify_patterns(series) == {PatternLabel.CONSISTENT_EMOTION}


def test_step_down_is_drop_only():
    series = make_series([2.0] * 25 + [-2.0] * 25)
    assert classify_patterns(series) == {PatternLabel.SENTIMENT_DROP}


def test_step_up_is_jump_only():
    series = make_series([-2.0] * 25 + [2.0] * 25)
    assert classify_patterns(series) == {PatternLabel.SENTIMENT_JUMP}


def test_ramp_up_is_steady_increase():
    series = make_series([-2.0 + 0.08 * t for t in range(50)])
    assert classify_patterns(series) == {PatternLabel.STEADY_INCREASE}


def test_ramp_down_is_steady_decrease():
    series = make_series([2.0 - 0.08 * t for t in range(50)])
    assert classify_patterns(series) == {PatternLabel.STEADY_DECREASE}


def test_seeded_white_noise_is_inconsistent():
    rng = random.Random(1)
    series = make_series([rng.gauss(0.0, 0.8) for _ in range(50)])
    assert classify_patterns(series) == {PatternLabel.INCONSISTENT_EMOTION}


def test_insufficient_data_rejected():
    series = make_series([1.0] * 7)
    with pytest.raises(ValueError, match="insufficient data"):
        classify_patterns(series)


def test_empty_weeks_skipped_not_interpolated():
    means = [2.0, None, 2.0, None, 2.0, None, 2.0, None, 2.0, 2.0, 2.0, 2.0]
    series = make_series(means)
    assert classify_patterns(series) == {PatternLabel.CONSISTENT_EMOTION}


def test_low_volume_weeks_ignored():
    # one-review weeks carry an outlier mean; min_weekly_reviews filters them
    means = [1.0] * 12
    volumes = [5] * 12
    means[6] = -5.0
    volumes[6] = 1
    series = make_series(means, volumes=volumes)
    config = PatternConfig(min_weekly_reviews=2)
    assert classify_patterns(series, config) == {PatternLabel.CONSISTENT_EMOTION}


def test_result_never_empty_on_random_series():
    for seed in range(30):
        rng = random.Random(seed)
        means = [rng.uniform(-5, 5) for _ in range(rng.randint(8, 60))]
        labels = classify_patterns(make_series(means))
        assert labels
        assert not (
            PatternLabel.CONSISTENT_EMOTION in labels
            and PatternLabel.INCONSISTENT_EMOTION in labels
        )


def test_shift_invariance():
    rng = random.Random(5)
    means = [rng.uniform(-2, 2) for _ in range(40)]
    base = classify_patterns(make_series(means))
    shifted = classify_patterns(make_series([m + 1.5 for m in means]))
    assert base == shifted


def test_scaling_up_cannot_remove_jump():
    means = [-2.0] * 25 + [2.0] * 25
    base = classify_patterns(make_series(means))
    assert PatternLabel.SENTIMENT_JUMP in base
    scaled = classify_patterns(make_series([1.25 * m for m in means]))
    assert PatternLabel.SENTIMENT_JUMP in scaled


def test_config_validation():
    with pytest.raises(ValueError):
        PatternConfig(jump_threshold=0)
    with pytest.raises(ValueError):
        PatternConfig(window=0)
    with pytest.raises(ValueError):
        PatternConfig(fit_threshold=1.5)
    for threshold in "jump_threshold", "slope_threshold", "low_variance":
        with pytest.raises(ValueError, match=threshold):  # NaN would turn its labels off
            PatternConfig(**{threshold: float("nan")})


# --- release impact -------------------------------------------------------------


def test_release_impact_volume_shift():
    # 126 reviews/week before, 1017 after, as around a major redesign
    volumes = [126] * 10 + [1017] * 10
    means = [1.0] * 10 + [-1.0] * 10
    lengths = [145.0] * 10 + [273.0] * 10
    series = make_series(means, volumes=volumes, lengths=lengths)
    impact = release_impact(series, release_week=10, window=5)
    assert impact.pre_volume == pytest.approx(126.0)
    assert impact.post_volume == pytest.approx(1017.0)
    assert impact.post_volume / impact.pre_volume == pytest.approx(8.07, abs=0.01)
    assert impact.pre_length == pytest.approx(145.0)
    assert impact.post_length == pytest.approx(273.0)
    assert impact.delta == pytest.approx(-2.0)
    assert not impact.truncated


def test_release_impact_symmetric_delta_zero():
    means = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
    series = make_series(means)
    impact = release_impact(series, release_week=3, window=3)
    assert impact.delta == pytest.approx(0.0)


def test_release_impact_truncation_flag():
    series = make_series([1.0] * 6)
    impact = release_impact(series, release_week=1, window=3)
    assert impact.truncated
    assert impact.pre_mean == pytest.approx(1.0)  # computed over available weeks


def test_release_impact_bad_week_rejected():
    series = make_series([1.0] * 6)
    with pytest.raises(ValueError):
        release_impact(series, release_week=6, window=2)
    with pytest.raises(ValueError):
        release_impact(series, release_week=2, window=0)


# --- timeline and report files -----------------------------------------------------


def test_timeline_one_point():
    out = io.StringIO()
    write_timeline(make_series([2.0]), out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "week,mean,n,mean_length,releases"
    assert len(lines) == 2
    assert lines[1].startswith("0,2.000000,5,")


def test_timeline_50_rows_and_release_flag():
    means = [1.0] * 50
    series = make_series(means, releases=((38, "2.1"), (38, "2.2"), (40, "3.0")))
    out = io.StringIO()
    write_timeline(series, out)
    lines = out.getvalue().splitlines()
    assert len(lines) == 51
    assert lines[1 + 38].endswith("2.1;2.2")
    assert lines[1 + 40].endswith("3.0")
    assert lines[1 + 39].endswith(",")  # no release in week 39


def test_timeline_empty_week_blank_mean():
    out = io.StringIO()
    write_timeline(make_series([2.0, None]), out)
    lines = out.getvalue().splitlines()
    assert lines[2].startswith("1,,0,,")


def test_pattern_report_format():
    out = io.StringIO()
    write_pattern_report(
        [
            ("app1", {PatternLabel.SENTIMENT_DROP, PatternLabel.SENTIMENT_JUMP}),
            ("app2", {PatternLabel.CONSISTENT_EMOTION}),
        ],
        out,
    )
    assert out.getvalue().splitlines() == [
        "app_id,labels",
        "app1,SentimentDrop;SentimentJump",
        "app2,ConsistentEmotion",
    ]


def test_qualifying_apps_strict_threshold():
    archive = Archive()
    archive.add_app(make_app("busy"))
    archive.add_app(make_app("quiet"))
    for i in range(11):
        add_scored_review(archive, "busy", f"b{i}", 2, date=WINDOW_START)
    for i in range(10):
        add_scored_review(archive, "quiet", f"q{i}", 2, date=WINDOW_START)
    assert qualifying_apps(archive.scored_view(), WINDOW_START, WINDOW_END, min_reviews=10) == ["busy"]
