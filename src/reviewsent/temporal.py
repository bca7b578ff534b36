"""Weekly sentiment series, release annotation, and emotion pattern labels.

Reviews are grouped into consecutive 7-day bins from a window start
date; each bin carries the mean combined sentiment, review volume, and
mean review length, one column each. A series is classified into
recurring emotion patterns: abrupt jumps/drops (windowed mean shifts),
steady trends (least-squares slope with a fit requirement), consistent
(low variance), or inconsistent (none of the above). Thresholds are configuration, not
claims; the defaults reproduce the archetype shapes.

Weeks without reviews stay in the series as empty points and are
skipped, never interpolated, when classifying.
"""

from __future__ import annotations

import datetime as dt
from bisect import bisect_left
from enum import Enum
from typing import IO, Iterable, NamedTuple, Sequence

# combine is unused here but stays bound: benchmarks/selftest.py asserts that
# benchmarks/traced.py finds and wraps this binding
from .combine import combine  # noqa: F401
from .records import Checked
from .store import UNDEFINED_COMBINED, ScoredView
from .tables import fmt, writer

MIN_PATTERN_POINTS = 8
DEFAULT_QUALIFYING_REVIEWS = 1000


class PatternLabel(Enum):
    CONSISTENT_EMOTION = "ConsistentEmotion"
    INCONSISTENT_EMOTION = "InconsistentEmotion"
    SENTIMENT_DROP = "SentimentDrop"
    SENTIMENT_JUMP = "SentimentJump"
    STEADY_DECREASE = "SteadyDecrease"
    STEADY_INCREASE = "SteadyIncrease"


class _PatternConfig(NamedTuple):
    jump_threshold: float
    window: int
    slope_threshold: float
    fit_threshold: float
    low_variance: float
    min_weekly_reviews: int


class PatternConfig(Checked, _PatternConfig):
    """Thresholds for pattern classification.

    jump_threshold: windowed mean shift (combined units) that counts as
    a jump or drop; window: weeks per side of the shift comparison;
    slope_threshold: trend slope per week; fit_threshold: minimum OLS
    R-squared for a trend; low_variance: SD at or below which a series
    is consistent; min_weekly_reviews: weeks with fewer reviews are
    ignored when classifying.
    """

    __slots__ = ()

    def __new__(
        cls, jump_threshold=2.0, window=3, slope_threshold=0.03, fit_threshold=0.5,
        low_variance=0.5, min_weekly_reviews=1,
    ):
        # written so that NaN fails each comparison: a NaN threshold would
        # switch its labels off
        if not jump_threshold > 0:
            raise ValueError("jump_threshold must be > 0")
        if window < 1:
            raise ValueError("window must be >= 1")
        if not slope_threshold > 0:
            raise ValueError("slope_threshold must be > 0")
        if not 0 <= fit_threshold <= 1:
            raise ValueError("fit_threshold must be in [0,1]")
        if not low_variance >= 0:
            raise ValueError("low_variance must be >= 0")
        if min_weekly_reviews < 1:
            raise ValueError("min_weekly_reviews must be >= 1")
        values = (
            jump_threshold, window, slope_threshold, fit_threshold, low_variance, min_weekly_reviews
        )
        return tuple.__new__(cls, values)


DEFAULT_PATTERN_CONFIG = PatternConfig()


class _WeeklySeries(NamedTuple):
    app_id: str
    start_date: dt.date
    n_reviews: tuple[int, ...]
    mean_combined: tuple[float | None, ...]
    mean_length: tuple[float | None, ...]
    releases: tuple[tuple[int, str], ...]


class WeeklySeries(Checked, _WeeklySeries):
    """One app's weekly series, one column per bin field: week ``w`` (from
    the window start) holds ``n_reviews[w]`` reviews, with their mean
    combined sentiment and mean text length, or ``None`` for both when it
    is empty. ``releases`` are ``(week, version)`` pairs."""

    __slots__ = ()

    def __new__(cls, app_id, start_date, n_reviews, mean_combined, mean_length, releases):
        if not len(n_reviews) == len(mean_combined) == len(mean_length):
            raise ValueError("weekly columns differ in length")
        if [n == 0 for n in n_reviews] != [m is None for m in mean_combined]:
            raise ValueError("a week's mean must be absent exactly when it is empty")
        return tuple.__new__(
            cls, (app_id, start_date, n_reviews, mean_combined, mean_length, releases)
        )

    @property
    def total_reviews(self) -> int:
        return sum(self.n_reviews)


class ReleaseImpact(NamedTuple):
    pre_mean: float | None
    post_mean: float | None
    delta: float | None
    pre_volume: float
    post_volume: float
    pre_length: float | None
    post_length: float | None
    truncated: bool


def weekly_aggregate(
    view: ScoredView, app_id: str, start: dt.date, end: dt.date
) -> WeeklySeries:
    """Weekly series of one app over [start, end]; see :func:`weekly_aggregates`."""
    return weekly_aggregates(view, [app_id], start, end)[0]


def weekly_aggregates(
    view: ScoredView, app_ids: Sequence[str], start: dt.date, end: dt.date
) -> list[WeeklySeries]:
    """Weekly series of each app over [start, end], consecutive 7-day bins.

    Each app's row range of the view is binned by day ordinal; only
    reviews with a defined combined sentiment contribute. The view's
    releases inside the window are mapped to the same bins.
    """
    if start > end:
        raise ValueError(f"start {start} after end {end}")
    ranges = [_rows(view, app_id) for app_id in app_ids]
    first, last = start.toordinal(), end.toordinal()
    n_weeks = (last - first) // 7 + 1
    releases: dict[str, list[tuple[int, str]]] = {app_id: [] for app_id in app_ids}
    for app_id, version, day in view.releases:
        if app_id in releases and first <= day <= last:
            releases[app_id].append(((day - first) // 7, version))
    series = []
    for app_id, rows in zip(app_ids, ranges):
        # review count, combined sum and text length sum of each week
        count, combined_sum, length_sum = [0] * n_weeks, [0.0] * n_weeks, [0] * n_weeks
        for day, combined, text_length in zip(
            view.day[rows], view.combined[rows], view.text_length[rows]
        ):
            if combined != UNDEFINED_COMBINED and first <= day <= last:
                week = (day - first) // 7
                count[week] += 1
                combined_sum[week] += combined
                length_sum[week] += text_length
        series.append(
            WeeklySeries(
                app_id=app_id,
                start_date=start,
                n_reviews=tuple(count),
                mean_combined=tuple([s / n if n else None for s, n in zip(combined_sum, count)]),
                mean_length=tuple([s / n if n else None for s, n in zip(length_sum, count)]),
                releases=tuple(sorted(releases[app_id])),
            )
        )
    return series


def _rows(view: ScoredView, app_id: str) -> slice:
    """The view's rows of one app's reviews."""
    at = bisect_left(view.apps, app_id)
    if at == len(view.apps) or view.apps[at] != app_id:
        raise ValueError(f"app {app_id!r} not in archive")
    return slice(view.starts[at], view.starts[at + 1])


# --- pattern classification -------------------------------------------------


def _ols(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope and R-squared of ys against xs."""
    import statistics  # here, not at the top: timeline never needs it, and it loads slowly

    slope = statistics.linear_regression(xs, ys).slope
    try:
        r = statistics.correlation(xs, ys)
    except statistics.StatisticsError:
        return slope, 0.0  # constant ys: no variance to explain
    return slope, r * r


def _shift_extremes(means: Sequence[float], window: int) -> tuple[float, float]:
    """Smallest and largest shift between adjacent mean windows."""
    # the mean of each run of `window` weeks: the shift after week t compares
    # the run ending at t with the run starting at t + 1
    runs = [sum(means[i : i + window]) / window for i in range(len(means) - window + 1)]
    shifts = [0.0, *(post - pre for pre, post in zip(runs, runs[window:]))]
    return min(shifts), max(shifts)


def classify_patterns(
    series: WeeklySeries, config: PatternConfig = DEFAULT_PATTERN_CONFIG
) -> set[PatternLabel]:
    """Pattern labels of a weekly series; never empty.

    Jump/drop: some adjacent pair of w-week mean windows shifts by at
    least the jump threshold. Steady increase/decrease: trend slope and
    fit clear their thresholds and no jump/drop fired (an abrupt shift
    masquerades as a steep trend, so shifts take precedence). Consistent:
    low overall variance and no jump/drop. Inconsistent: nothing else.
    """
    usable = [
        (week, mean)
        for week, (n, mean) in enumerate(zip(series.n_reviews, series.mean_combined))
        if n >= config.min_weekly_reviews and mean is not None
    ]
    if len(usable) < MIN_PATTERN_POINTS:
        raise ValueError(
            f"insufficient data: {len(usable)} usable weeks, need {MIN_PATTERN_POINTS}"
        )
    import statistics

    weeks = [float(week) for week, _ in usable]
    means = [mean for _, mean in usable]

    labels: set[PatternLabel] = set()
    lo_shift, hi_shift = _shift_extremes(means, config.window)
    if hi_shift >= config.jump_threshold:
        labels.add(PatternLabel.SENTIMENT_JUMP)
    if lo_shift <= -config.jump_threshold:
        labels.add(PatternLabel.SENTIMENT_DROP)

    abrupt = bool(labels)
    if not abrupt:
        slope, r_squared = _ols(weeks, means)
        if r_squared >= config.fit_threshold:
            if slope >= config.slope_threshold:
                labels.add(PatternLabel.STEADY_INCREASE)
            elif slope <= -config.slope_threshold:
                labels.add(PatternLabel.STEADY_DECREASE)
    # at least MIN_PATTERN_POINTS means, so the sample SD is defined
    if not abrupt and statistics.stdev(means) <= config.low_variance:
        labels.add(PatternLabel.CONSISTENT_EMOTION)
    if not labels:
        labels.add(PatternLabel.INCONSISTENT_EMOTION)
    return labels


# --- release impact ----------------------------------------------------------


def release_impact(series: WeeklySeries, release_week: int, window: int) -> ReleaseImpact:
    """Compare the weeks before a release with the weeks from it onward.

    The pre window is the ``window`` weeks before the release week; the
    post window starts at the release week itself (the release initiates
    the period under observation). Windows clipped at the series
    boundary are flagged truncated.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    last = len(series.n_reviews) - 1
    if not 0 <= release_week <= last:
        raise ValueError(f"release week {release_week} outside series 0..{last}")
    pre_lo = release_week - window
    pre_hi = release_week - 1
    post_lo = release_week
    post_hi = release_week + window - 1
    truncated = pre_lo < 0 or post_hi > last
    pre = slice(max(pre_lo, 0), pre_hi + 1)
    post = slice(post_lo, min(post_hi, last) + 1)
    pre_mean = _window_mean(series.mean_combined[pre])
    post_mean = _window_mean(series.mean_combined[post])
    return ReleaseImpact(
        pre_mean=pre_mean,
        post_mean=post_mean,
        delta=None if pre_mean is None or post_mean is None else post_mean - pre_mean,
        pre_volume=_window_volume(series.n_reviews[pre]),
        post_volume=_window_volume(series.n_reviews[post]),
        pre_length=_window_length(series.mean_length[pre], series.n_reviews[pre]),
        post_length=_window_length(series.mean_length[post], series.n_reviews[post]),
        truncated=truncated,
    )


def _window_mean(means: Sequence[float | None]) -> float | None:
    import statistics

    defined = [mean for mean in means if mean is not None]
    return statistics.fmean(defined) if defined else None


def _window_volume(counts: Sequence[int]) -> float:
    import statistics

    return statistics.fmean(counts) if counts else 0.0


def _window_length(lengths: Sequence[float | None], counts: Sequence[int]) -> float | None:
    total_chars = sum(
        length * n for length, n in zip(lengths, counts) if length is not None
    )
    total_reviews = sum(counts)
    return total_chars / total_reviews if total_reviews else None


# --- report writers -----------------------------------------------------------


def write_timeline(series: WeeklySeries, stream: IO[str]) -> None:
    """Plot data: ``week,mean,n,mean_length,releases`` rows, one per week."""
    releases_by_week: dict[int, list[str]] = {}
    for week, version in series.releases:
        releases_by_week.setdefault(week, []).append(version)
    out = writer(stream)
    out.writerow(["week", "mean", "n", "mean_length", "releases"])
    columns = zip(series.mean_combined, series.n_reviews, series.mean_length)
    for week, (mean, n, length) in enumerate(columns):
        out.writerow(
            [week, fmt(mean), n, fmt(length), ";".join(releases_by_week.get(week, []))]
        )


def write_pattern_report(
    rows: Iterable[tuple[str, set[PatternLabel]]], stream: IO[str]
) -> None:
    """Pattern report: ``app_id,labels`` with labels semicolon-joined."""
    out = writer(stream)
    out.writerow(["app_id", "labels"])
    for app_id, labels in rows:
        out.writerow([app_id, ";".join(sorted(label.value for label in labels))])


def qualifying_apps(
    view: ScoredView,
    start: dt.date,
    end: dt.date,
    min_reviews: int = DEFAULT_QUALIFYING_REVIEWS,
) -> list[str]:
    """Apps with more than ``min_reviews`` of the view's reviews inside the
    window; an app with none there never qualifies."""
    first, last = start.toordinal(), end.toordinal()
    day, starts = view.day, view.starts
    threshold = max(min_reviews, 0)
    return [
        app_id
        for at, app_id in enumerate(view.apps)
        if sum(first <= d <= last for d in day[starts[at] : starts[at + 1]]) > threshold
    ]
