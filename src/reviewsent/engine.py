"""Tokenizer and dual-polarity scorer for informal review text.

Every text receives a positive strength in [1,5] and a negative
strength in [-5,-1]. Each token's score comes from dictionary lookups
(sentiment terms by normalized form after slang resolution, emoticons
by raw surface); the text score is the maximum positive and minimum
negative token score. Booster words deepen or soften the next
sentiment-bearing token within a two-token window.

Tokenization is deliberately minimal: emoticons from the lexicon are
recognized greedily (longest first) before anything else, the rest is
split on whitespace with leading/trailing punctuation peeled off into
punctuation tokens. Normalized word forms are lowercased with letter
runs of three or more collapsed to two ("soooo" -> "soo").

``score_text`` applies these rules in a single pass and builds no
tokens: one scan finds the emoticons, ``str.split`` cuts the text
between them into whitespace chunks, and each chunk maps to the
(score, boost) of the one word it holds, or to nothing when it is all
punctuation. That mapping is remembered per lexicon in a memo of at
most ``CHUNK_MEMO_LIMIT`` chunks. A chunk the memo lacks holds its
token's place until the pass ends; then the text's unseen words are
normalized together, joined by "\n", looked up and remembered.

``score_reviews`` scores a batch. When its text is long enough to pay
for starting workers, it splits the batch across the CPUs the process
may use: the calling process scores tasks from the front of the batch
and hands tasks from the back to the workers, at most three unfinished
per worker, until the two ends meet.
"""

from __future__ import annotations

import os
import re
import unicodedata
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, pairwise
from typing import TYPE_CHECKING, Sequence

from .emojis import EmojiEntry, EmojiLexicon, substitute_emojis
from .lexicon import Lexicon

if TYPE_CHECKING:
    from .store import Review

POSITIVE_RANGE = (1, 5)
NEGATIVE_RANGE = (-5, -1)

# how many tokens ahead a booster may reach
BOOSTER_WINDOW = 2

# distinct chunks remembered per lexicon; an unbounded memo grows with
# the vocabulary of everything scored (40 MiB for 300k chunks)
CHUNK_MEMO_LIMIT = 1 << 14

# Review text (title + body characters) each process must get before
# ``score_reviews`` splits a batch: worker start-up times scorer
# throughput. A spawned worker takes about 0.05 s to start, import the
# package and score a first small task (0.045-0.053 s). In that time the
# scorer, emoji substitution included, reads about 0.5 M characters of
# long reviews with rare words (10.7 M chars/s, score_long_tail) or 0.9 M
# of short, repetitive ones (17.5 M chars/s, score_pipeline); 2-vCPU VM,
# Python 3.11.7, medians of 5 (BENCH_19.json, "split_constants"). The
# upper end keeps cheap text serial: score_pipeline (about 1.44 M
# characters) stays in one process, where a forced split takes 0.094 s
# against 0.082 s serial; score_long_tail (about 3.19 M) splits in two,
# 0.233 s against 0.298 s serial.
MIN_CHARS_PER_PROCESS = 1_000_000

# Review text in one task of a split batch: about 6 ms of scoring at
# 10.7 M chars/s. A worker holds at most three unfinished tasks, so after
# its own share this process waits about three tasks at most (0.000-0.014
# s, median 0.004 s, over 10 runs of score_long_tail: 49 tasks, 16-20 of
# them scored by the worker, 2 processes, 2-vCPU VM).
CHARS_PER_TASK = 64_000

_REPEATED_LETTERS = re.compile(r"([^\W\d_])\1{2,}", re.UNICODE)
_RUNS = re.compile(r"(.)\1\1+")
_UNSEEN = object()


@dataclass(frozen=True, slots=True)
class SentimentScore:
    """Dual sentiment strengths: positive in [1,5], negative in [-5,-1]."""

    positive: int
    negative: int

    def __post_init__(self):
        if not POSITIVE_RANGE[0] <= self.positive <= POSITIVE_RANGE[1]:
            raise ValueError(f"positive strength {self.positive} outside [1,5]")
        if not NEGATIVE_RANGE[0] <= self.negative <= NEGATIVE_RANGE[1]:
            raise ValueError(f"negative strength {self.negative} outside [-5,-1]")


def _collapse_run(match: re.Match) -> str:
    run = match[0]
    return match[1] * 2 if _REPEATED_LETTERS.match(run) else run


def _normalize(text: str) -> str:
    """Lowercase ``text`` and collapse its letter runs of three or more to
    two. Words joined by "\n" normalize as each would alone: "\n" is
    neither cased nor case-ignorable, so the final-sigma rule of
    ``str.lower`` stops there, and no run crosses it."""
    # any character's runs are cheap to find; only the letters' shrink
    return _RUNS.sub(_collapse_run, text.lower())


def _is_punctuation(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _clamp(value: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, value))


def _peel(chunk: str) -> str:
    """The word a whitespace chunk holds once its leading and trailing
    punctuation is peeled off; empty when the chunk is all punctuation."""
    i, j = 0, len(chunk)
    if not chunk[0].isalnum():  # no letter or digit is punctuation
        while i < j and _is_punctuation(chunk[i]):
            i += 1
    if not chunk[-1].isalnum():
        while j > i and _is_punctuation(chunk[j - 1]):
            j -= 1
    return chunk[i:j]


def score_text(lexicon: Lexicon, text: str) -> SentimentScore:
    """Score a text: maximum positive and minimum negative token score.

    Boosters add their value to the magnitude of the next
    sentiment-bearing token within two tokens (punctuation does not
    count toward the distance); several boosters aiming at one token
    accumulate before a single clamp back into range. A text with no
    scored tokens is (1, -1).
    """
    pattern, memo = lexicon._compiled
    # even parts lie between emoticons, odd parts are emoticons
    parts = pattern.split(text) if pattern is not None else (text,)
    scores: list[int] = []  # of the tokens that are not punctuation
    boosters: list[tuple[int, int]] = []  # (token index, boost)
    # chunks the memo lacks, resolved together after the loop: each one's
    # token index, the chunk and the word it holds
    slots: list[int] = []
    chunks: list[str] = []
    words: list[str] = []
    for k, part in enumerate(parts):
        if k & 1:
            scores.append(lexicon.emoticons[part])
            continue
        for chunk in part.split():
            entry = memo.get(chunk, _UNSEEN)
            if entry is _UNSEEN:
                word = chunk if chunk[0].isalnum() and chunk[-1].isalnum() else _peel(chunk)
                if not word:
                    if len(memo) >= CHUNK_MEMO_LIMIT:
                        memo.clear()
                    memo[chunk] = None
                    continue
                slots.append(len(scores))
                chunks.append(chunk)
                words.append(word)
                scores.append(0)
            elif entry is not None:
                score, boost = entry
                if boost is not None:
                    boosters.append((len(scores), boost))
                scores.append(score)

    if words:
        terms, slang, booster_terms = lexicon.sentiment_terms, lexicon.slang, lexicon.boosters
        for slot, chunk, term in zip(slots, chunks, _normalize("\n".join(words)).split("\n")):
            score = terms.get(slang.get(term, term), 0)
            boost = booster_terms.get(term)
            if len(memo) >= CHUNK_MEMO_LIMIT:
                memo.clear()
            memo[chunk] = score, boost
            scores[slot] = score
            if boost is not None:
                boosters.append((slot, boost))

    last = len(scores) - 1
    boosts: dict[int, int] = {}
    for i, boost in boosters:
        for j in range(i + 1, min(i + BOOSTER_WINDOW, last) + 1):
            if scores[j] != 0:
                boosts[j] = boosts.get(j, 0) + boost
                break
    for j, boost in boosts.items():
        score = scores[j]
        scores[j] = _clamp(score + boost, 1, 5) if score > 0 else _clamp(score - boost, -5, -1)
    return SentimentScore(max(1, max(scores, default=1)), min(-1, min(scores, default=-1)))


def score_review(
    lexicon: Lexicon,
    review: "Review",
    emoji_lexicon: EmojiLexicon | None = None,
) -> SentimentScore:
    """Score one review, or any object with ``.title`` and ``.body``:
    title and body joined by a space.

    When an emoji lexicon is given, emojis are rewritten to emoticon
    tokens before scoring.
    """
    return score_text(lexicon, _review_text(review.title, review.body, emoji_lexicon))


def _review_text(title: str, body: str, emoji_lexicon: EmojiLexicon | None) -> str:
    text = f"{title} {body}"
    if emoji_lexicon is not None:
        text = substitute_emojis(text, emoji_lexicon)
    return text


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on macOS and Windows
        return os.cpu_count() or 1


def score_reviews(
    lexicon: Lexicon,
    reviews: Sequence["Review"],
    emoji_lexicon: EmojiLexicon | None = None,
) -> list[SentimentScore]:
    """``score_review`` of each review, in input order.

    With more than one usable CPU and at least ``MIN_CHARS_PER_PROCESS``
    characters of title and body per process, the reviews are cut into
    contiguous tasks of about ``CHARS_PER_TASK`` characters. This process
    scores them from the start of the batch. Before each task it hands
    tasks from the end of the batch to spawned workers, while fewer than
    three per worker are unfinished, until the two ends meet; so each
    process scores as much as its speed allows. The workers are gone when
    the call returns. A worker's exception is raised here with its own
    type; a worker that ends abruptly (killed, out of memory, or failed
    to start) raises ``ChildProcessError`` within about one task.
    """
    sizes = [len(review.title) + len(review.body) for review in reviews]
    chars = sum(sizes)
    processes = min(usable_cpus(), chars // MIN_CHARS_PER_PROCESS)
    if processes < 2:
        return [score_review(lexicon, review, emoji_lexicon) for review in reviews]

    # imported here: a serial call should not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    tables = tuple(
        dict(table)
        for table in (lexicon.sentiment_terms, lexicon.boosters, lexicon.emoticons, lexicon.slang)
    )
    entries = None if emoji_lexicon is None else [
        (entry.emoji, entry.occurrences, entry.polarity) for entry in emoji_lexicon.entries
    ]
    tasks = list(pairwise(_slice_bounds(sizes, chars // CHARS_PER_TASK)))
    pool = ProcessPoolExecutor(
        processes - 1,
        # spawn, not fork: forking a process that runs threads is unsafe
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_start_worker,
        initargs=(tables, entries),
    )
    # one task running and two queued per worker, so a worker rarely
    # waits for this process to hand it the next one
    depth = 3 * (processes - 1)
    handed = []  # futures of tasks[back:], last task first
    front, back = 0, len(tasks)
    scores: list[SentimentScore] = []
    try:
        while front < back:
            busy = sum(not future.done() for future in handed)
            while busy < depth and back > front + 1:
                back -= 1
                lo, hi = tasks[back]
                pairs = [(r.title, r.body) for r in reviews[lo:hi]]
                handed.append(pool.submit(_score_pairs, pairs))
                busy += 1
            lo, hi = tasks[front]
            scores += [score_review(lexicon, r, emoji_lexicon) for r in reviews[lo:hi]]
            front += 1
        for future in reversed(handed):
            scores += [SentimentScore(p, n) for p, n in future.result()]
    except BrokenProcessPool as exc:
        raise ChildProcessError(
            "a scoring worker process ended abruptly (killed, out of memory, or failed"
            " to start); no score was kept"
        ) from exc
    finally:
        pool.shutdown(cancel_futures=True)
    return scores


def _slice_bounds(sizes: list[int], parts: int) -> list[int]:
    """Bounds of at most ``parts`` contiguous, non-empty slices that hold
    about equal sums of ``sizes``; ``[0, len(sizes)]`` is one slice, the
    bounds for ``parts`` below 2."""
    ends = list(accumulate(sizes))
    cuts = {bisect_left(ends, ends[-1] * k / parts) + 1 for k in range(1, parts)}
    return [0, *sorted(cuts - {len(sizes)}), len(sizes)]


# a worker's lexicons, set once by ``_start_worker``
_worker_state: tuple[Lexicon, EmojiLexicon | None] | None = None


def _start_worker(
    tables: tuple[dict, dict, dict, dict],
    emoji_entries: list[tuple[str, int, int]] | None,
) -> None:
    """Pool initializer of ``score_reviews``: the lexicons from plain data."""
    global _worker_state
    _worker_state = (
        Lexicon(*tables),
        None if emoji_entries is None else EmojiLexicon(
            tuple(EmojiEntry(*entry) for entry in emoji_entries)
        ),
    )


def _score_pairs(pairs: list[tuple[str, str]]) -> list[tuple[int, int]]:
    """Worker side of ``score_reviews``: (positive, negative) of each
    (title, body) pair of a task."""
    lexicon, emoji_lexicon = _worker_state
    scores = []
    for title, body in pairs:
        score = score_text(lexicon, _review_text(title, body, emoji_lexicon))
        scores.append((score.positive, score.negative))
    return scores
