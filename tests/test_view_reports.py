"""Every report read from the columnar scored view, against the same
report computed row by row from ``helpers.reference_scored_rows``.

The archives are generated (apps without reviews, undefined scores,
releases and reviews outside the window) or a saved scored archive with
byte edits. Each report is taken from ``Archive.scored_view()`` and from
the sidecar the save wrote, and its CSV text, or its error, must equal
the reference's.
"""

from __future__ import annotations

import datetime as dt
import io
import statistics
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from reviewsent import analytics, store, temporal
from reviewsent.combine import Polarity, polarity_class
from reviewsent.store import AppRecord, Archive, ArchiveError, load_archive, save_archive
from reviewsent.tables import fmt, writer

from helpers import (
    BYTE_EDITS,
    COMBINED_TO_SCORE,
    WINDOW_END,
    WINDOW_START,
    ScoredRow,
    add_scored_review,
    mutated,
    reference_scored_rows,
    small_scored_archive,
    view_rows,
)
from test_store import scored_archives

QUIET_APP = "~quiet"  # sorts after every generated app id; it has no reviews
WINDOWS = [(WINDOW_START, WINDOW_END), (dt.date(2015, 6, 1), dt.date(2015, 6, 1))]


def _outcome(report) -> str:
    """A report's CSV text, or its error as the CLI prints it."""
    out = io.StringIO()
    try:
        report(out)
    except ValueError as exc:
        return f"error: {exc}"
    return out.getvalue()


# --- the reports, row by row ------------------------------------------------------


def _reference_summary(category: str, rows: list[ScoredRow]) -> analytics.CategorySummary:
    defined = [row.combined for row in rows if row.combined is not None]
    shares = {polarity: 0 for polarity in Polarity}
    for row in rows:
        shares[polarity_class(row.combined)] += 1
    total = len(rows)
    n_free = sum(row.is_free for row in rows)
    return analytics.CategorySummary(
        category=category,
        n_free=n_free,
        n_paid=total - n_free,
        n_scored=len(defined),
        mean=statistics.fmean(defined) if defined else None,
        sd=(statistics.stdev(defined) if len(defined) > 1 else 0.0) if defined else None,
        median=float(statistics.median(defined)) if defined else None,
        **{
            f"share_{polarity.value}": shares[polarity] / total if total else 0.0
            for polarity in Polarity
        },
    )


def reference_summarize(rows: list[ScoredRow], out) -> None:
    categories = sorted({row.category for row in rows})
    summaries = [
        _reference_summary(c, [row for row in rows if row.category == c]) for c in categories
    ]
    summaries.append(_reference_summary("ALL", rows))
    analytics.write_category_report(summaries, out)


def _reference_ranks(values: list[float]) -> list[float]:
    """1-based ranks by sorting, ties sharing the mean of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def reference_correlate(rows: list[ScoredRow], target: str, include_neutral: bool, out) -> None:
    pairs = [
        (float(getattr(row, target)), float(row.combined))
        for row in rows
        if row.combined is not None and (include_neutral or row.combined != 0)
    ]
    if len(pairs) < 2:
        raise ValueError(f"need at least 2 pairs, got {len(pairs)}")
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    results = []
    for name, (left, right) in ("pearson", (xs, ys)), (
        "spearman", (_reference_ranks(xs), _reference_ranks(ys))
    ):
        try:
            results.append(statistics.correlation(left, right))
        except statistics.StatisticsError as exc:
            raise ValueError(f"{name} undefined: {exc}") from None
    result = analytics.CorrelationResult(*results, n=len(pairs))
    analytics.write_correlation_report(result, target, out)


def _reference_weeks(rows, app_id, start, end) -> tuple[list[int], list, list]:
    """Per week of the window: the app's reviews with a defined score, and
    their mean combined value and mean text length."""
    n_weeks = (end - start).days // 7 + 1
    members = [[] for _ in range(n_weeks)]
    for row in rows:
        if row.app_id == app_id and row.combined is not None and start <= row.date <= end:
            members[(row.date - start).days // 7].append(row)
    counts = [len(week) for week in members]
    means = [sum(r.combined for r in week) / len(week) if week else None for week in members]
    lengths = [sum(r.text_length for r in week) / len(week) if week else None for week in members]
    return counts, means, lengths


def reference_timeline(rows, apps, releases, app_id, start, end, out) -> None:
    if start > end:
        raise ValueError(f"start {start} after end {end}")
    if app_id not in apps:
        raise ValueError(f"app {app_id!r} not in archive")
    counts, means, lengths = _reference_weeks(rows, app_id, start, end)
    flagged = sorted(
        ((date - start).days // 7, version)
        for release_app, version, date in releases
        if release_app == app_id and start <= date <= end
    )
    table = writer(out)
    table.writerow(["week", "mean", "n", "mean_length", "releases"])
    for week, n in enumerate(counts):
        versions = ";".join(version for at, version in flagged if at == week)
        table.writerow([week, fmt(means[week]), n, fmt(lengths[week]), versions])


def reference_patterns(rows, start, end, min_reviews, config, out) -> list[str]:
    """Writes the pattern report; returns the messages of the dropped apps."""
    in_window = {}
    for row in rows:
        if start <= row.date <= end:
            in_window[row.app_id] = in_window.get(row.app_id, 0) + 1
    labeled, dropped = [], []
    for app_id in sorted(app for app, n in in_window.items() if n > min_reviews):
        counts, means, lengths = _reference_weeks(rows, app_id, start, end)
        series = temporal.WeeklySeries(
            app_id, start, tuple(counts), tuple(means), tuple(lengths), ()
        )
        try:
            labeled.append((app_id, temporal.classify_patterns(series, config)))
        except ValueError as exc:
            dropped.append(f"app {app_id}: {exc}")
    temporal.write_pattern_report(labeled, out)
    return dropped


# --- the reports from a view, as the commands run them ------------------------------


def view_summarize(view, out) -> None:
    summaries = analytics.summarize_by_category(view)
    summaries.append(analytics.overall_summary(view))
    analytics.write_category_report(summaries, out)


def view_correlate(view, target: str, include_neutral: bool, out) -> None:
    if target == "rating":
        result = analytics.sentiment_vs_rating(view, include_neutral=include_neutral)
    else:
        result = analytics.sentiment_vs_price(view, include_neutral=include_neutral)
    analytics.write_correlation_report(result, target, out)


def view_patterns(view, start, end, min_reviews, config, out) -> list[str]:
    labeled, dropped = [], []
    apps = temporal.qualifying_apps(view, start, end, min_reviews)
    for series in temporal.weekly_aggregates(view, apps, start, end):
        try:
            labeled.append((series.app_id, temporal.classify_patterns(series, config)))
        except ValueError as exc:
            dropped.append(f"app {series.app_id}: {exc}")
    temporal.write_pattern_report(labeled, out)
    return dropped


# --- the property ---------------------------------------------------------------------

PATTERN_CONFIGS = [
    temporal.PatternConfig(),
    temporal.PatternConfig(jump_threshold=9.0, low_variance=5.0, window=1),
]


def assert_reports_match_reference(archive: Archive, views: list[store.ScoredView]) -> None:
    rows = reference_scored_rows(archive)
    releases = [(r.app_id, r.version, r.date) for r in archive.releases.values()]
    for view in views:
        assert view_rows(view) == rows
        assert _outcome(lambda out: view_summarize(view, out)) == _outcome(
            lambda out: reference_summarize(rows, out)
        )
        for target in "rating", "price":
            for neutral in True, False:
                assert _outcome(lambda out: view_correlate(view, target, neutral, out)) == _outcome(
                    lambda out: reference_correlate(rows, target, neutral, out)
                ), (target, neutral)
        for start, end in WINDOWS:
            for app_id in sorted(archive.apps):
                assert _outcome(
                    lambda out: temporal.write_timeline(
                        temporal.weekly_aggregate(view, app_id, start, end), out
                    )
                ) == _outcome(
                    lambda out: reference_timeline(
                        rows, archive.apps, releases, app_id, start, end, out
                    )
                ), app_id
            for min_reviews, config in zip((0, 2), PATTERN_CONFIGS):
                got, want = io.StringIO(), io.StringIO()
                assert view_patterns(view, start, end, min_reviews, config, got) == (
                    reference_patterns(rows, start, end, min_reviews, config, want)
                )
                assert got.getvalue() == want.getvalue()


def _saved_views(archive: Archive, tmp: Path) -> list[store.ScoredView]:
    """The view built in memory, and the view the save's sidecar holds."""
    path = tmp / "archive.jsonl"
    save_archive(archive, path)
    return [archive.scored_view(), store._read_view(path)]


@settings(max_examples=60, deadline=None)
@given(scored_archives(), st.lists(st.sampled_from(list(COMBINED_TO_SCORE)), max_size=24))
def test_generated_archives_report_as_the_reference(archive, weekly):
    archive.add_app(AppRecord(QUIET_APP, "quiet", "Quiet", 0.0))
    # one review a week for the first app, so that some apps have a pattern,
    # and reviews on and next to the edges of each window
    app_id = sorted(archive.apps)[0]
    for week, combined in enumerate(weekly):
        date = WINDOW_START + dt.timedelta(days=7 * week + week % 7)
        add_scored_review(archive, app_id, f"weekly{week:02}", combined, date=date)
    one_day = dt.timedelta(days=1)
    edges = [day + step * one_day for window in WINDOWS for day in window for step in (-1, 0, 1)]
    for at, date in enumerate(edges):
        combined = weekly[at] if at < len(weekly) else 2
        add_scored_review(archive, app_id, f"edge{at:02}", combined, date=date)
    with tempfile.TemporaryDirectory() as tmp:
        assert_reports_match_reference(archive, _saved_views(archive, Path(tmp)))


@settings(max_examples=150, deadline=None)
@given(st.lists(BYTE_EDITS, max_size=6))
def test_mutated_archives_report_as_the_reference(edits):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.jsonl"
        path.write_bytes(mutated(small_scored_archive(), edits))
        archive = load_archive(path)
        try:
            views = _saved_views(archive, Path(tmp))
        except ArchiveError:  # unscored, or a review of an unknown app
            return
        assert_reports_match_reference(archive, views)
