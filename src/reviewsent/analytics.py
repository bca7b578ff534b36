"""Descriptive statistics over scored archives.

Covers the per-category summary table (counts, mean, SD, median,
polarity shares), sentiment-versus-rating and sentiment-versus-price
correlations, per-star box statistics, and dispersion per review topic.

Conventions pinned here so results are reproducible: SD is the sample
standard deviation (n-1) with the n=1 case defined as 0; quartiles use
linear interpolation between order statistics; unclassifiable reviews
are excluded from means, medians, correlations, and dispersion but
counted in the polarity shares.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, fields
from enum import Enum
from typing import IO, Callable, Iterable, Mapping, Sequence

# combine is unused here but stays bound: benchmarks/selftest.py asserts that
# benchmarks/traced.py finds and wraps this binding
from .combine import Polarity, combine, polarity_class  # noqa: F401
from .store import Archive, ScoredRow, ScoredView
from .tables import fmt, read_rows, writer

STRONG_NEGATIVE_CUTOFF = -4  # combined <= -4 counts as strongly negative
OVERALL_CATEGORY = "ALL"


class Topic(Enum):
    BUG_REPORT = "BugReport"
    FEATURE_REQUEST = "FeatureRequest"
    USER_EXPERIENCE = "UserExperience"
    RATING = "Rating"


@dataclass(frozen=True)
class CategorySummary:
    category: str
    n_free: int
    n_paid: int
    n_scored: int  # reviews with a defined combined sentiment
    mean: float | None
    sd: float | None
    median: float | None
    share_positive: float
    share_neutral: float
    share_negative: float
    share_undefined: float

    @property
    def n_total(self) -> int:
        return self.n_free + self.n_paid


@dataclass(frozen=True)
class RatingSummary:
    rating: int
    n: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_low: float
    whisker_high: float
    n_outliers: int
    n_strong_negative: int


@dataclass(frozen=True)
class CorrelationResult:
    pearson: float
    spearman: float
    n: int


@dataclass(frozen=True)
class DispersionStats:
    n: int
    value_range: float
    iqr: float
    sd: float


# --- scalar statistics -----------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Quantile by linear interpolation between order statistics."""
    if not values:
        raise ValueError("quantile of empty data")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0,1], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    h = (len(ordered) - 1) * q
    lo = math.floor(h)
    hi = math.ceil(h)
    if lo == hi:
        return float(ordered[lo])
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def sample_sd(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1); a single observation has SD 0."""
    if not values:
        raise ValueError("sd of empty data")
    if len(values) == 1:
        return 0.0
    return statistics.stdev(values)


def _check_pairs(xs: Sequence[float], ys: Sequence[float]) -> None:
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError(f"need at least 2 pairs, got {len(xs)}")


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Product-moment correlation; errors out instead of returning NaN."""
    _check_pairs(xs, ys)
    try:
        return statistics.correlation(xs, ys)
    except statistics.StatisticsError as exc:
        raise ValueError(f"pearson undefined: {exc}") from None


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; tied values share the mean of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rank correlation: pearson over average-ranked data."""
    _check_pairs(xs, ys)
    try:
        return statistics.correlation(average_ranks(xs), average_ranks(ys))
    except statistics.StatisticsError as exc:
        raise ValueError(f"spearman undefined: {exc}") from None


# --- archive aggregation ---------------------------------------------------


def summarize_by_category(archive: Archive | ScoredView) -> list[CategorySummary]:
    """Per-category counts, central statistics, and polarity shares."""
    by_category: dict[str, list[ScoredRow]] = {}
    for row in archive.scored_rows():
        by_category.setdefault(row.category, []).append(row)
    return [
        _summarize_category(category, members)
        for category, members in sorted(by_category.items())
    ]


def overall_summary(archive: Archive | ScoredView) -> CategorySummary:
    """One summary row over the whole archive, labeled ``ALL``."""
    return _summarize_category(OVERALL_CATEGORY, archive.scored_rows())


def _summarize_category(category: str, members: list[ScoredRow]) -> CategorySummary:
    total = len(members)
    n_free = sum(1 for row in members if row.is_free)
    defined = [row.combined for row in members if row.combined is not None]
    # count each combined value, then classify the few distinct values:
    # hashing a Polarity member per row cost an eighth of `summarize`
    shares = {polarity: 0 for polarity in Polarity}
    for combined, count in Counter(row.combined for row in members).items():
        shares[polarity_class(combined)] += count
    return CategorySummary(
        category=category,
        n_free=n_free,
        n_paid=total - n_free,
        n_scored=len(defined),
        mean=statistics.fmean(defined) if defined else None,
        sd=sample_sd(defined) if defined else None,
        median=quantile(defined, 0.5) if defined else None,
        share_positive=shares[Polarity.POSITIVE] / total if total else 0.0,
        share_neutral=shares[Polarity.NEUTRAL] / total if total else 0.0,
        share_negative=shares[Polarity.NEGATIVE] / total if total else 0.0,
        share_undefined=shares[Polarity.UNDEFINED] / total if total else 0.0,
    )


def sentiment_by_rating(archive: Archive | ScoredView) -> dict[int, RatingSummary]:
    """Box statistics of combined sentiment per star rating (1..5).

    Stars with no defined sentiment are absent from the result.
    """
    buckets: dict[int, list[int]] = {}
    for row in archive.scored_rows():
        if row.combined is not None:
            buckets.setdefault(row.rating, []).append(row.combined)
    summaries: dict[int, RatingSummary] = {}
    for rating, values in sorted(buckets.items()):
        q1 = quantile(values, 0.25)
        q3 = quantile(values, 0.75)
        fence = 1.5 * (q3 - q1)
        inside = [v for v in values if q1 - fence <= v <= q3 + fence]
        whisker_low = float(min(inside))
        whisker_high = float(max(inside))
        summaries[rating] = RatingSummary(
            rating=rating,
            n=len(values),
            minimum=float(min(values)),
            q1=q1,
            median=quantile(values, 0.5),
            q3=q3,
            maximum=float(max(values)),
            whisker_low=whisker_low,
            whisker_high=whisker_high,
            n_outliers=sum(1 for v in values if v < whisker_low or v > whisker_high),
            n_strong_negative=sum(1 for v in values if v <= STRONG_NEGATIVE_CUTOFF),
        )
    return summaries


def sentiment_vs_rating(
    archive: Archive | ScoredView, include_neutral: bool = True
) -> CorrelationResult:
    """Correlation of star rating with combined sentiment, review-level pairs."""
    return _correlate(archive, lambda row: float(row.rating), include_neutral)


def sentiment_vs_price(
    archive: Archive | ScoredView, include_neutral: bool = True
) -> CorrelationResult:
    """Correlation of app price with combined sentiment, review-level pairs."""
    return _correlate(archive, lambda row: row.price, include_neutral)


def _correlate(
    archive: Archive | ScoredView,
    x_of: Callable[[ScoredRow], float],
    include_neutral: bool,
) -> CorrelationResult:
    rows = [
        row
        for row in archive.scored_rows()
        if row.combined is not None and (include_neutral or row.combined != 0)
    ]
    xs = [x_of(row) for row in rows]
    ys = [float(row.combined) for row in rows]
    return CorrelationResult(pearson=pearson(xs, ys), spearman=spearman(xs, ys), n=len(rows))


# --- per-topic dispersion --------------------------------------------------


def dispersion_by_topic(
    labeled: Iterable[tuple[Topic, int | None]],
) -> dict[Topic, DispersionStats]:
    """Range, IQR, and SD of combined sentiment per topic.

    Unclassifiable values (None) are ignored; topics with no usable
    values are absent from the result.
    """
    values: dict[Topic, list[int]] = {}
    for topic, combined in labeled:
        if combined is not None:
            values.setdefault(topic, []).append(combined)
    stats: dict[Topic, DispersionStats] = {}
    for topic, combined_values in values.items():
        stats[topic] = DispersionStats(
            n=len(combined_values),
            value_range=float(max(combined_values) - min(combined_values)),
            iqr=quantile(combined_values, 0.75) - quantile(combined_values, 0.25),
            sd=sample_sd(combined_values),
        )
    return stats


@dataclass(frozen=True)
class TopicRow:
    row_id: str
    topic: Topic
    title: str
    body: str


TOPIC_HEADER = ["id", "topic", "title", "body"]


def parse_topic_rows(stream: IO[str]) -> tuple[list[TopicRow], list[tuple[int, str]]]:
    """Parse a labeled-topic CSV (header ``id,topic,title,body``).

    Rows with an unknown topic literal are rejected and reported with
    their line numbers.
    """
    rows: list[TopicRow] = []
    rejects: list[tuple[int, str]] = []
    for lineno, row in read_rows(stream, TOPIC_HEADER, "labeled file", ValueError):
        if len(row) != 4:
            rejects.append((lineno, f"expected 4 columns, got {len(row)}"))
            continue
        row_id, topic_text, title, body = row
        try:
            topic = Topic(topic_text)
        except ValueError:
            rejects.append((lineno, f"unknown topic {topic_text!r}"))
            continue
        rows.append(TopicRow(row_id=row_id, topic=topic, title=title, body=body))
    return rows, rejects


# --- CSV report writers ----------------------------------------------------


def write_category_report(
    summaries: Iterable[CategorySummary], stream: IO[str]
) -> None:
    """One column per ``CategorySummary`` field, in declaration order."""
    columns = fields(CategorySummary)
    out = writer(stream)
    out.writerow([column.name for column in columns])
    for s in summaries:
        out.writerow(
            [
                fmt(getattr(s, column.name))
                if column.type.startswith("float")
                else getattr(s, column.name)
                for column in columns
            ]
        )


def write_correlation_report(
    result: CorrelationResult, target: str, stream: IO[str]
) -> None:
    out = writer(stream)
    out.writerow(["target", "n", "pearson", "spearman"])
    out.writerow([target, result.n, fmt(result.pearson), fmt(result.spearman)])


def write_dispersion_report(
    stats: Mapping[Topic, DispersionStats], stream: IO[str]
) -> None:
    out = writer(stream)
    out.writerow(["topic", "n", "range", "iqr", "sd"])
    for topic in Topic:
        if topic in stats:
            s = stats[topic]
            out.writerow([topic.value, s.n, fmt(s.value_range), fmt(s.iqr), fmt(s.sd)])
