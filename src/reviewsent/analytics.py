"""Descriptive statistics over scored archives.

Covers the per-category summary table (counts, mean, SD, median,
polarity shares), sentiment-versus-rating and sentiment-versus-price
correlations, per-star box statistics, and dispersion per review topic.
The archive reports take a ``ScoredView`` (from ``Archive.scored_view()``
or ``store.load_scored_view``) and read its columns: each app's reviews
are one row range, and the per-category statistics come from counts of
the few distinct combined values.

Conventions pinned here so results are reproducible: SD is the sample
standard deviation (n-1) with the n=1 case defined as 0; quartiles use
linear interpolation between order statistics; unclassifiable reviews
are excluded from means, medians, correlations, and dispersion but
counted in the polarity shares.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from itertools import compress
from typing import IO, Iterable, Mapping, NamedTuple, Sequence

# combine is unused here but stays bound: benchmarks/selftest.py asserts that
# benchmarks/traced.py finds and wraps this binding
from .combine import Polarity, combine, polarity_class  # noqa: F401
from .store import UNDEFINED_COMBINED, ScoredView
from .tables import fmt, read_rows, writer

STRONG_NEGATIVE_CUTOFF = -4  # combined <= -4 counts as strongly negative
OVERALL_CATEGORY = "ALL"


class Topic(Enum):
    BUG_REPORT = "BugReport"
    FEATURE_REQUEST = "FeatureRequest"
    USER_EXPERIENCE = "UserExperience"
    RATING = "Rating"


class CategorySummary(NamedTuple):
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


class RatingSummary(NamedTuple):
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


class CorrelationResult(NamedTuple):
    pearson: float
    spearman: float
    n: int


class DispersionStats(NamedTuple):
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


def counted_quantile(counts: Mapping[int, int], q: float) -> float:
    """``quantile`` of the integers that ``counts`` maps to their counts,
    to the same float, without listing them."""
    n = sum(counts.values())
    if not n:
        raise ValueError("quantile of empty data")
    h = (n - 1) * q
    lo, hi = math.floor(h), math.ceil(h)
    below, low = 0, None
    for value, count in sorted(counts.items()):  # to the order statistics at lo and hi
        below += count
        if low is None and lo < below:
            low = value
        if hi < below:
            break
    return float(low) if lo == hi else low + (h - lo) * (value - low)


def sample_sd(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1); a single observation has SD 0."""
    if not values:
        raise ValueError("sd of empty data")
    if len(values) == 1:
        return 0.0
    import statistics  # here, not at the top: summarize never needs it, and it loads slowly

    return statistics.stdev(values)


def counted_sd(counts: Mapping[int, int]) -> float:
    """``sample_sd`` of the integers that ``counts`` maps to their counts, to
    the same float: the exact sum of squared deviations, then the correctly
    rounded square root that ``statistics.stdev`` takes (Python 3.11+). The
    cost grows with the distinct values, not with their count."""
    n = sum(counts.values())
    if not n:
        raise ValueError("sd of empty data")
    if n == 1:
        return 0.0
    total = sum(value * count for value, count in counts.items())
    squares = sum(value * value * count for value, count in counts.items())
    # variance = (n * squares - total**2) / (n * (n - 1)), as a fraction num / den
    num, den = n * squares - total * total, n * (n - 1)
    # round to odd on 2 * 53 + 3 bits, then once to float: correctly rounded
    shift = (num.bit_length() - den.bit_length() - 109) // 2
    if shift >= 0:
        return float(_isqrt_round_to_odd(num, den << 2 * shift) << shift)
    return _isqrt_round_to_odd(num << -2 * shift, den) / (1 << -shift)


def _isqrt_round_to_odd(num: int, den: int) -> int:
    """sqrt(num / den) rounded down, with its last bit set when inexact."""
    root = math.isqrt(num // den)
    return root | (root * root * den != num)


def _check_pairs(xs: Sequence[float], ys: Sequence[float]) -> None:
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError(f"need at least 2 pairs, got {len(xs)}")


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Product-moment correlation; errors out instead of returning NaN."""
    _check_pairs(xs, ys)
    import statistics

    try:
        return statistics.correlation(xs, ys)
    except statistics.StatisticsError as exc:
        raise ValueError(f"pearson undefined: {exc}") from None


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; tied values share the mean of their positions.

    Ranked by value counts: a value preceded by ``below`` smaller ones and
    held ``count`` times has rank ``(2 * below + count - 1) / 2 + 1``.
    """
    counts = Counter(values)
    rank_of, below = {}, 0
    for value in sorted(counts):
        count = counts[value]
        rank_of[value] = (2 * below + count - 1) / 2 + 1
        below += count
    return list(map(rank_of.__getitem__, values))


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rank correlation: pearson over average-ranked data."""
    _check_pairs(xs, ys)
    import statistics

    try:
        return statistics.correlation(average_ranks(xs), average_ranks(ys))
    except statistics.StatisticsError as exc:
        raise ValueError(f"spearman undefined: {exc}") from None


# --- archive aggregation ---------------------------------------------------


def summarize_by_category(view: ScoredView) -> list[CategorySummary]:
    """Per-category counts, central statistics, and polarity shares of the view's reviews."""
    counts: dict[str, Counter] = {}  # each category's combined values, counted
    free: dict[str, int] = {}
    combined, price, starts = view.combined, view.price, view.starts
    for app, category in enumerate(view.category):
        lo, hi = starts[app], starts[app + 1]
        if lo == hi:  # an app without reviews adds no category
            continue
        counts.setdefault(category, Counter()).update(combined[lo:hi])
        free[category] = free.get(category, 0) + (hi - lo if price[app] == 0 else 0)
    return [
        _summarize_category(category, free[category], counts[category])
        for category in sorted(counts)
    ]


def overall_summary(view: ScoredView) -> CategorySummary:
    """One summary row over all of the view's reviews, labeled ``ALL``."""
    starts = view.starts
    n_free = sum(
        starts[app + 1] - starts[app] for app, price in enumerate(view.price) if price == 0
    )
    return _summarize_category(OVERALL_CATEGORY, n_free, Counter(view.combined))


def _summarize_category(category: str, n_free: int, counts: Counter) -> CategorySummary:
    """The summary of reviews whose combined values ``counts`` counts:
    the same floats as ``statistics.fmean``, ``sample_sd`` and ``quantile``
    of their defined values."""
    total = sum(counts.values())
    shares = {polarity: 0 for polarity in Polarity}
    for value, count in counts.items():
        shares[polarity_class(None if value == UNDEFINED_COMBINED else value)] += count
    counts.pop(UNDEFINED_COMBINED, None)
    n_scored = sum(counts.values())
    # fmean sums with fsum, which rounds the exact integer sum once, as float() does
    total_combined = float(sum(value * count for value, count in counts.items()))
    return CategorySummary(
        category=category,
        n_free=n_free,
        n_paid=total - n_free,
        n_scored=n_scored,
        mean=total_combined / n_scored if n_scored else None,
        sd=counted_sd(counts) if n_scored else None,
        median=counted_quantile(counts, 0.5) if n_scored else None,
        share_positive=shares[Polarity.POSITIVE] / total if total else 0.0,
        share_neutral=shares[Polarity.NEUTRAL] / total if total else 0.0,
        share_negative=shares[Polarity.NEGATIVE] / total if total else 0.0,
        share_undefined=shares[Polarity.UNDEFINED] / total if total else 0.0,
    )


def sentiment_by_rating(view: ScoredView) -> dict[int, RatingSummary]:
    """Box statistics of combined sentiment per star rating (1..5).

    Stars with no defined sentiment are absent from the result.
    """
    buckets: dict[int, list[int]] = {}
    for rating, combined in zip(view.rating, view.combined):
        if combined != UNDEFINED_COMBINED:
            buckets.setdefault(rating, []).append(combined)
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


def sentiment_vs_rating(view: ScoredView, include_neutral: bool = True) -> CorrelationResult:
    """Correlation of star rating with combined sentiment, review-level pairs."""
    kept = _kept(view.combined, include_neutral)
    return _correlate(list(compress(view.rating, kept)), view.combined, kept)


def sentiment_vs_price(view: ScoredView, include_neutral: bool = True) -> CorrelationResult:
    """Correlation of app price with combined sentiment, review-level pairs."""
    kept = _kept(view.combined, include_neutral)
    starts, prices = view.starts, []
    for app, price in enumerate(view.price):
        prices += [price] * sum(kept[starts[app] : starts[app + 1]])
    return _correlate(prices, view.combined, kept)


def _kept(combined: Sequence[int], include_neutral: bool) -> list[bool]:
    """Which reviews enter a correlation: those with a defined sentiment,
    nonzero unless ``include_neutral``."""
    dropped = {UNDEFINED_COMBINED} if include_neutral else {UNDEFINED_COMBINED, 0}
    return [value not in dropped for value in combined]


def _correlate(xs: list[float], combined: Sequence[int], kept: list[bool]) -> CorrelationResult:
    """Both correlations of ``xs`` with the kept combined values, in review order."""
    xs = list(map(float, xs))
    ys = list(map(float, compress(combined, kept)))
    return CorrelationResult(pearson=pearson(xs, ys), spearman=spearman(xs, ys), n=len(ys))


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


class TopicRow(NamedTuple):
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
    """One column per ``CategorySummary`` field, in declaration order: the
    category and its three counts as they are, then each statistic
    through ``fmt``."""
    out = writer(stream)
    out.writerow(CategorySummary._fields)
    for s in summaries:
        out.writerow([*s[:4], *map(fmt, s[4:])])


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
