"""Weekly sentiment series, release annotation, and emotion pattern labels.

Reviews are grouped into consecutive 7-day bins from a window start
date; each bin carries the mean combined sentiment, review volume, and
mean review length. A series is classified into recurring emotion
patterns: abrupt jumps/drops (windowed mean shifts), steady trends
(least-squares slope with a fit requirement), consistent (low variance),
or inconsistent (none of the above). Thresholds are configuration, not
claims; the defaults reproduce the archetype shapes.

Weeks without reviews stay in the series as empty points and are
skipped, never interpolated, when classifying.
"""

from __future__ import annotations

import datetime as dt
import statistics
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Sequence

from .analytics import sample_sd
# combine is unused here but stays bound: benchmarks/selftest.py asserts that
# benchmarks/traced.py finds and wraps this binding
from .combine import combine  # noqa: F401
from .store import ScoredView
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


@dataclass(frozen=True)
class PatternConfig:
    """Thresholds for pattern classification.

    jump_threshold: windowed mean shift (combined units) that counts as
    a jump or drop; window: weeks per side of the shift comparison;
    slope_threshold: trend slope per week; fit_threshold: minimum OLS
    R-squared for a trend; low_variance: SD at or below which a series
    is consistent; min_weekly_reviews: weeks with fewer reviews are
    ignored when classifying.
    """

    jump_threshold: float = 2.0
    window: int = 3
    slope_threshold: float = 0.03
    fit_threshold: float = 0.5
    low_variance: float = 0.5
    min_weekly_reviews: int = 1

    def __post_init__(self):
        # written so that NaN fails each comparison: a NaN threshold would
        # switch its labels off
        if not self.jump_threshold > 0:
            raise ValueError("jump_threshold must be > 0")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not self.slope_threshold > 0:
            raise ValueError("slope_threshold must be > 0")
        if not 0 <= self.fit_threshold <= 1:
            raise ValueError("fit_threshold must be in [0,1]")
        if not self.low_variance >= 0:
            raise ValueError("low_variance must be >= 0")
        if self.min_weekly_reviews < 1:
            raise ValueError("min_weekly_reviews must be >= 1")


DEFAULT_PATTERN_CONFIG = PatternConfig()


@dataclass(frozen=True)
class WeekPoint:
    week_index: int
    mean_combined: float | None
    n_reviews: int
    mean_length: float | None

    def __post_init__(self):
        if (self.n_reviews == 0) != (self.mean_combined is None):
            raise ValueError(
                f"week {self.week_index}: mean must be absent exactly when empty"
            )


@dataclass(frozen=True)
class WeeklySeries:
    app_id: str
    start_date: dt.date
    points: tuple[WeekPoint, ...]
    releases: tuple[tuple[int, str], ...]  # (week_index, version)

    def __post_init__(self):
        indices = [p.week_index for p in self.points]
        if indices != sorted(set(indices)):
            raise ValueError("week indices must be strictly increasing")

    @property
    def total_reviews(self) -> int:
        return sum(p.n_reviews for p in self.points)


@dataclass(frozen=True)
class ReleaseImpact:
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

    One pass over the view's columns bins every app's reviews; only reviews
    with a defined combined sentiment contribute. The view's releases
    inside the window are mapped to the same bins.
    """
    if start > end:
        raise ValueError(f"start {start} after end {end}")
    for app_id in app_ids:
        if app_id not in view.apps:
            raise ValueError(f"app {app_id!r} not in archive")
    n_weeks = (end - start).days // 7 + 1
    # per app: review count, combined sum and text length sum of each week
    bins = {app_id: ([0] * n_weeks, [0.0] * n_weeks, [0] * n_weeks) for app_id in app_ids}
    columns = zip(view.app_id, view.date, view.combined, view.text_length)
    for app_id, date, combined, text_length in columns:
        app_bins = bins.get(app_id)
        if app_bins is None or combined is None or not start <= date <= end:
            continue
        count, combined_sum, length_sum = app_bins
        week = (date - start).days // 7
        count[week] += 1
        combined_sum[week] += combined
        length_sum[week] += text_length
    releases: dict[str, list[tuple[int, str]]] = {app_id: [] for app_id in app_ids}
    for app_id, version, date in view.releases:
        if app_id in releases and start <= date <= end:
            releases[app_id].append(((date - start).days // 7, version))
    series = []
    for app_id in app_ids:
        count, combined_sum, length_sum = bins[app_id]
        points = tuple(
            WeekPoint(
                week_index=week,
                mean_combined=combined_sum[week] / count[week] if count[week] else None,
                n_reviews=count[week],
                mean_length=length_sum[week] / count[week] if count[week] else None,
            )
            for week in range(n_weeks)
        )
        series.append(
            WeeklySeries(
                app_id=app_id,
                start_date=start,
                points=points,
                releases=tuple(sorted(releases[app_id])),
            )
        )
    return series


# --- pattern classification -------------------------------------------------


def _ols(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope and R-squared of ys against xs."""
    slope = statistics.linear_regression(xs, ys).slope
    try:
        r = statistics.correlation(xs, ys)
    except statistics.StatisticsError:
        return slope, 0.0  # constant ys: no variance to explain
    return slope, r * r


def _shift_extremes(means: Sequence[float], window: int) -> tuple[float, float]:
    """Smallest and largest shift between adjacent mean windows."""
    lo, hi = 0.0, 0.0
    for t in range(window - 1, len(means) - window):
        pre = sum(means[t - window + 1 : t + 1]) / window
        post = sum(means[t + 1 : t + window + 1]) / window
        shift = post - pre
        lo = min(lo, shift)
        hi = max(hi, shift)
    return lo, hi


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
        (p.week_index, p.mean_combined)
        for p in series.points
        if p.n_reviews >= config.min_weekly_reviews and p.mean_combined is not None
    ]
    if len(usable) < MIN_PATTERN_POINTS:
        raise ValueError(
            f"insufficient data: {len(usable)} usable weeks, need {MIN_PATTERN_POINTS}"
        )
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
    if not abrupt and sample_sd(means) <= config.low_variance:
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
    last = len(series.points) - 1
    if not 0 <= release_week <= last:
        raise ValueError(f"release week {release_week} outside series 0..{last}")
    pre_lo = release_week - window
    pre_hi = release_week - 1
    post_lo = release_week
    post_hi = release_week + window - 1
    truncated = pre_lo < 0 or post_hi > last
    pre = series.points[max(pre_lo, 0) : pre_hi + 1]
    post = series.points[post_lo : min(post_hi, last) + 1]
    pre_mean = _window_mean(pre)
    post_mean = _window_mean(post)
    return ReleaseImpact(
        pre_mean=pre_mean,
        post_mean=post_mean,
        delta=None if pre_mean is None or post_mean is None else post_mean - pre_mean,
        pre_volume=_window_volume(pre),
        post_volume=_window_volume(post),
        pre_length=_window_length(pre),
        post_length=_window_length(post),
        truncated=truncated,
    )


def _window_mean(points: Sequence[WeekPoint]) -> float | None:
    means = [p.mean_combined for p in points if p.mean_combined is not None]
    return statistics.fmean(means) if means else None


def _window_volume(points: Sequence[WeekPoint]) -> float:
    return statistics.fmean([p.n_reviews for p in points]) if points else 0.0


def _window_length(points: Sequence[WeekPoint]) -> float | None:
    total_chars = sum(
        p.mean_length * p.n_reviews for p in points if p.mean_length is not None
    )
    total_reviews = sum(p.n_reviews for p in points)
    return total_chars / total_reviews if total_reviews else None


# --- report writers -----------------------------------------------------------


def write_timeline(series: WeeklySeries, stream: IO[str]) -> None:
    """Plot data: ``week,mean,n,mean_length,releases`` rows, one per week."""
    releases_by_week: dict[int, list[str]] = {}
    for week, version in series.releases:
        releases_by_week.setdefault(week, []).append(version)
    out = writer(stream)
    out.writerow(["week", "mean", "n", "mean_length", "releases"])
    for point in series.points:
        out.writerow(
            [
                point.week_index,
                fmt(point.mean_combined),
                point.n_reviews,
                fmt(point.mean_length),
                ";".join(releases_by_week.get(point.week_index, [])),
            ]
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
    """Apps with more than ``min_reviews`` of the view's reviews inside the window."""
    counts: dict[str, int] = {}
    for app_id, date in zip(view.app_id, view.date):
        if start <= date <= end:
            counts[app_id] = counts.get(app_id, 0) + 1
    return sorted(app_id for app_id, n in counts.items() if n > min_reviews)
