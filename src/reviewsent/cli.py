"""Batch command-line front end: ingest, score, and report.

Subcommands wire the pipeline together: ``ingest`` pulls app details
and reviews (or merges an existing archive file) into a JSON-lines
archive, ``score`` attaches dual sentiment scores, and the reporting
commands (``summarize``, ``correlate``, ``topics``, ``timeline``,
``patterns``) emit deterministic CSV. Re-running a command on unchanged
inputs produces byte-identical output.
"""

from __future__ import annotations

import argparse
import datetime as dt
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import IO

from . import analytics, emojis, temporal
from .client import ClientConfig, ClientError, StoreClient
from .combine import combine
# score_review and score_text are unused here (commands score through
# score_reviews) but stay bound: benchmarks/selftest.py asserts that
# benchmarks/traced.py finds and wraps these bindings
from .engine import score_review, score_reviews, score_text  # noqa: F401
from .lexicon import (
    Lexicon,
    LexiconError,
    builtin_lexicon_manifest,
    load_lexicon_manifest,
)
# save_archive is unused here (ingest and score hold the lock from load to
# write_archive) but stays bound: benchmarks/selftest.py asserts that
# benchmarks/traced.py finds and wraps this binding
from .store import (  # noqa: F401
    Archive,
    ArchiveError,
    ScoredView,
    archive_lock,
    import_releases,
    load_archive,
    load_scored_view,
    save_archive,
    write_archive,
)

log = logging.getLogger(__name__)

ENV_BASE_URL = "REVIEWSENT_BASE_URL"
ENV_RATE_LIMIT = "REVIEWSENT_RATE_LIMIT"
NO_REVIEWS = "archive has no reviews; run ingest first"


class CliError(RuntimeError):
    """User-facing command failure with a diagnostic message."""


def _parse_date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad date {text!r}, expected YYYY-MM-DD"
        ) from None


def _require_file(path: str, what: str) -> Path:
    resolved = Path(path)
    if not resolved.is_file():
        raise CliError(f"{what} not found: {path}")
    return resolved


def _load_view(args) -> ScoredView:
    """The scored view of the archive named by ``--archive``; it must hold reviews."""
    view = load_scored_view(_require_file(args.archive, "archive"))
    if not view.rows:
        raise CliError(NO_REVIEWS)
    return view


def _load_lexicon(args) -> Lexicon:
    manifest = args.lexicon or str(builtin_lexicon_manifest())
    return load_lexicon_manifest(_require_file(manifest, "lexicon manifest"))


def _load_emoji_lexicon(args) -> emojis.EmojiLexicon | None:
    if args.no_emoji:
        return None
    if args.emoji_lexicon:
        with _require_file(args.emoji_lexicon, "emoji lexicon").open(
            encoding="utf-8"
        ) as stream:
            lexicon = emojis.load_emoji_lexicon(stream)
    else:
        lexicon = emojis.load_builtin_emoji_lexicon()
    selected = emojis.select_frequent(lexicon, args.min_occurrences)
    print(
        f"emoji lexicon: {len(lexicon)} entries, {len(selected)} above "
        f"{args.min_occurrences} occurrences",
        file=sys.stderr,
    )
    return selected


def _client_config(args) -> ClientConfig:
    base_url = args.base_url or os.environ.get(ENV_BASE_URL) or ClientConfig.base_url
    rate = args.rate_limit
    if rate is None:
        env_rate = os.environ.get(ENV_RATE_LIMIT)
        rate = float(env_rate) if env_rate else ClientConfig.rate_limit
    return ClientConfig(base_url=base_url, rate_limit=rate)


def _open_out(args) -> IO[str]:
    if args.out:
        return open(args.out, "w", encoding="utf-8", newline="\n")
    return sys.stdout


def _write_report(args, write) -> None:
    stream = _open_out(args)
    try:
        write(stream)
    finally:
        if stream is not sys.stdout:
            stream.close()


# --- subcommands -------------------------------------------------------------


def cmd_ingest(args) -> int:
    if not (args.app_id or args.import_archive or args.releases):
        raise CliError("nothing to ingest: pass --app-id, --import-archive, or --releases")
    config = _client_config(args) if args.app_id else None
    archive_path = Path(args.archive)
    # held from load to write, so that no concurrent writer's update is lost
    with archive_lock(archive_path):
        archive = load_archive(archive_path) if archive_path.exists() else Archive()
        _ingest_into(archive, args, config)
        write_archive(archive, archive_path)
    counts = archive.counts()
    print(
        f"archive {archive_path}: {counts['apps']} apps, {counts['reviews']} reviews, "
        f"{counts['releases']} releases, {counts['scores']} scores"
    )
    return 0


def _ingest_into(archive: Archive, args, config: ClientConfig | None) -> None:
    if args.import_archive:
        imported = load_archive(_require_file(args.import_archive, "import archive"))
        for lineno, reason in imported.load_skips:
            print(f"import: skipped line {lineno}: {reason}", file=sys.stderr)
        archive.merge(imported)

    if args.releases:
        with _require_file(args.releases, "release file").open(encoding="utf-8") as stream:
            releases, rejects = import_releases(stream)
        for lineno, reason in rejects:
            print(f"releases: rejected line {lineno}: {reason}", file=sys.stderr)
        for release in releases:
            archive.add_release(release)

    if config is not None:
        with StoreClient(config) as client:
            details = client.fetch_app_details(list(args.app_id))
            for app_id, reason in details.errors.items():
                print(f"app {app_id}: {reason}", file=sys.stderr)
            for app in details.records:
                archive.add_app(app)
                feed = client.fetch_reviews(app.app_id, since=args.since)
                for reason in feed.errors:
                    print(f"app {app.app_id}: {reason}", file=sys.stderr)
                if feed.duplicates:
                    print(
                        f"app {app.app_id}: dropped {feed.duplicates} duplicate reviews",
                        file=sys.stderr,
                    )
                for review in feed.reviews:
                    archive.add_review(review)


def cmd_score(args) -> int:
    lexicon = _load_lexicon(args)
    emoji_lexicon = _load_emoji_lexicon(args)
    path = _require_file(args.archive, "archive")
    # held from load to write, so that no concurrent writer's update is lost
    with archive_lock(path):
        archive = load_archive(path)
        if not archive.reviews:
            raise CliError(NO_REVIEWS)
        keys = sorted(archive.reviews)
        scores = score_reviews(lexicon, [archive.reviews[key] for key in keys], emoji_lexicon)
        for (app_id, review_id), score in zip(keys, scores):
            archive.set_score(app_id, review_id, score)
        write_archive(archive, path)
    total = len(archive.scores)
    undefined = sum(1 for s in archive.scores.values() if combine(s) is None)
    print(
        f"scored {total} reviews ({total - undefined} classified, "
        f"{undefined} undefined = {undefined / total:.4%})"
    )
    return 0


def cmd_summarize(args) -> int:
    view = _load_view(args)
    summaries = analytics.summarize_by_category(view)
    summaries.append(analytics.overall_summary(view))
    _write_report(args, lambda out: analytics.write_category_report(summaries, out))
    return 0


def cmd_correlate(args) -> int:
    view = _load_view(args)
    include_neutral = not args.exclude_neutral
    if args.target == "rating":
        result = analytics.sentiment_vs_rating(view, include_neutral=include_neutral)
    else:
        result = analytics.sentiment_vs_price(view, include_neutral=include_neutral)
    _write_report(
        args, lambda out: analytics.write_correlation_report(result, args.target, out)
    )
    return 0


def cmd_topics(args) -> int:
    lexicon = _load_lexicon(args)
    emoji_lexicon = _load_emoji_lexicon(args)
    with _require_file(args.labeled, "labeled file").open(encoding="utf-8") as stream:
        rows, rejects = analytics.parse_topic_rows(stream)
    for lineno, reason in rejects:
        print(f"labeled: rejected line {lineno}: {reason}", file=sys.stderr)
    scores = score_reviews(lexicon, rows, emoji_lexicon)
    labeled = [(row.topic, combine(score)) for row, score in zip(rows, scores)]
    stats = analytics.dispersion_by_topic(labeled)
    _write_report(args, lambda out: analytics.write_dispersion_report(stats, out))
    return 0


def cmd_timeline(args) -> int:
    view = _load_view(args)
    series = temporal.weekly_aggregate(
        view, args.app_id, args.window_start, args.window_end
    )
    _write_report(args, lambda out: temporal.write_timeline(series, out))
    return 0


def cmd_patterns(args) -> int:
    view = _load_view(args)
    config = temporal.PatternConfig(
        **{f.name: getattr(args, f.name) for f in fields(temporal.PatternConfig)}
    )
    app_ids = temporal.qualifying_apps(
        view, args.window_start, args.window_end, args.min_reviews
    )
    rows = []
    for series in temporal.weekly_aggregates(
        view, app_ids, args.window_start, args.window_end
    ):
        try:
            rows.append((series.app_id, temporal.classify_patterns(series, config)))
        except ValueError as exc:
            print(f"app {series.app_id}: {exc}", file=sys.stderr)
    _write_report(args, lambda out: temporal.write_pattern_report(rows, out))
    return 0


# --- parser -------------------------------------------------------------------


def _add_archive_flag(parser) -> None:
    parser.add_argument("--archive", required=True, help="JSON-lines archive path")


def _add_lexicon_flags(parser) -> None:
    parser.add_argument(
        "--lexicon", help="lexicon manifest JSON (default: built-in seed lexicon)"
    )
    parser.add_argument(
        "--emoji-lexicon",
        help="emoji lexicon CSV (default: built-in seed lexicon)",
    )
    parser.add_argument(
        "--min-occurrences",
        type=int,
        default=emojis.DEFAULT_MIN_OCCURRENCES,
        help="keep emojis with strictly more occurrences (default %(default)s)",
    )
    parser.add_argument(
        "--no-emoji", action="store_true", help="skip emoji substitution"
    )


def _add_out_flag(parser) -> None:
    parser.add_argument("--out", help="output CSV path (default: stdout)")


def _add_window_flags(parser) -> None:
    parser.add_argument(
        "--from",
        dest="window_start",
        required=True,
        type=_parse_date,
        metavar="DATE",
        help="window start (YYYY-MM-DD)",
    )
    parser.add_argument(
        "--to",
        dest="window_end",
        required=True,
        type=_parse_date,
        metavar="DATE",
        help="window end (YYYY-MM-DD), inclusive",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reviewsent",
        description="Sentiment scoring and analysis of app store reviews.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="fetch or import apps, reviews, and releases")
    _add_archive_flag(p)
    p.add_argument("--app-id", action="append", default=[], help="app id to fetch")
    p.add_argument("--import-archive", help="merge an existing archive file")
    p.add_argument("--releases", help="release CSV (app_id,version,date,notes)")
    p.add_argument("--base-url", help=f"store endpoint (env {ENV_BASE_URL})")
    p.add_argument(
        "--rate-limit",
        type=float,
        help=f"max requests per second (env {ENV_RATE_LIMIT}, default 1)",
    )
    p.add_argument(
        "--since", type=_parse_date, metavar="DATE", help="skip reviews older than this"
    )
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("score", help="attach dual sentiment scores to all reviews")
    _add_archive_flag(p)
    _add_lexicon_flags(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("summarize", help="per-category summary table CSV")
    _add_archive_flag(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("correlate", help="sentiment correlation with rating or price")
    _add_archive_flag(p)
    p.add_argument("--target", choices=["rating", "price"], required=True)
    p.add_argument(
        "--exclude-neutral",
        action="store_true",
        help="drop neutral (0) sentiments from the pairs",
    )
    _add_out_flag(p)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("topics", help="dispersion per review topic from a labeled CSV")
    p.add_argument("--labeled", required=True, help="CSV id,topic,title,body")
    _add_lexicon_flags(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_topics)

    p = sub.add_parser("timeline", help="weekly series plot data for one app")
    _add_archive_flag(p)
    p.add_argument("--app-id", required=True)
    _add_window_flags(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("patterns", help="emotion pattern labels per qualifying app")
    _add_archive_flag(p)
    _add_window_flags(p)
    p.add_argument(
        "--min-reviews",
        type=int,
        default=temporal.DEFAULT_QUALIFYING_REVIEWS,
        help="apps need strictly more reviews in the window (default %(default)s)",
    )
    for f in fields(temporal.PatternConfig):
        p.add_argument(
            f"--{f.name.replace('_', '-')}",
            type=type(f.default),
            default=f.default,
            help="PatternConfig.%(dest)s (default %(default)s)",
        )
    _add_out_flag(p)
    p.set_defaults(func=cmd_patterns)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, LexiconError, ArchiveError, ClientError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
