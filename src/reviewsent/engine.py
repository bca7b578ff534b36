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
for starting workers, and the process may fork safely, it cuts the
batch into one contiguous slice per CPU the process may use: forked
workers score every slice but the first, which the calling process
scores itself.
"""

from __future__ import annotations

import os
import re
import sys
import threading
import unicodedata
from bisect import bisect_left
from itertools import accumulate, pairwise
from typing import TYPE_CHECKING, Sequence

from .combine import SentimentScore
from .emojis import EmojiLexicon, substitute_emojis
from .lexicon import Lexicon

if TYPE_CHECKING:
    from .store import Review

# how many tokens ahead a booster may reach
BOOSTER_WINDOW = 2

# distinct chunks remembered per lexicon; an unbounded memo grows with
# the vocabulary of everything scored (40 MiB for 300k chunks)
CHUNK_MEMO_LIMIT = 1 << 14

# Review text (title + body characters) each process must get before
# ``score_reviews`` splits a batch: worker start-up times scorer
# throughput. A forked worker starts on its slice 0.020-0.029 s into the
# call (median 0.024 s). In that time the scorer, emoji substitution
# included, reads about 0.25 M characters of long reviews with rare words
# (10.4 M chars/s, score_long_tail) or 0.45 M of short, repetitive ones
# (18.3 M chars/s, score_pipeline); 2-vCPU VM, Python 3.11.7
# (BENCH_20.json). score_pipeline (about 1.44 M characters) stays in one
# process: a forced split takes 0.074 s against 0.079 s serial, inside
# the spread of both; score_long_tail (about 3.19 M) splits in two,
# 0.177 s against 0.308 s serial.
MIN_CHARS_PER_PROCESS = 1_000_000

_REPEATED_LETTERS = re.compile(r"([^\W\d_])\1{2,}", re.UNICODE)
_RUNS = re.compile(r"(.)\1\1+")
_UNSEEN = object()


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
    one contiguous slice per process of about equal characters. Forked
    workers inherit the lexicons and the reviews and score every slice
    but the first; this process scores the first, then collects theirs.
    It forks only on Linux and only while this process runs a single
    thread, since forking a process that runs threads is unsafe;
    otherwise it scores the batch here. The workers are gone when the
    call returns. A worker's exception is raised here with its own type;
    a worker that ends abruptly (killed, out of memory, or failed to
    start) raises ``ChildProcessError`` once this process has scored its
    own slice.
    """
    sizes = [len(review.title) + len(review.body) for review in reviews]
    processes = min(usable_cpus(), sum(sizes) // MIN_CHARS_PER_PROCESS)
    slices = list(pairwise(_slice_bounds(sizes, processes)))
    if len(slices) < 2 or sys.platform != "linux" or threading.active_count() > 1:
        return [score_review(lexicon, review, emoji_lexicon) for review in reviews]

    # imported here: a serial call should not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        len(slices) - 1,
        # fork shares the lexicons and reviews without pickling them
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(lexicon, reviews, emoji_lexicon),
    )
    try:
        handed = [pool.submit(_score_slice, lo, hi) for lo, hi in slices[1:]]
        lo, hi = slices[0]
        scores = [score_review(lexicon, review, emoji_lexicon) for review in reviews[lo:hi]]
        for future in handed:
            scores += future.result()
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


# a forked worker's lexicons and reviews, set once by ``_start_worker``
_worker_state: tuple[Lexicon, Sequence["Review"], EmojiLexicon | None] | None = None


def _start_worker(
    lexicon: Lexicon, reviews: Sequence["Review"], emoji_lexicon: EmojiLexicon | None
) -> None:
    """Pool initializer of ``score_reviews``: keep what the fork inherited."""
    global _worker_state
    _worker_state = lexicon, reviews, emoji_lexicon


def _score_slice(lo: int, hi: int) -> list[SentimentScore]:
    """Worker side of ``score_reviews``: the scores of ``reviews[lo:hi]``."""
    lexicon, reviews, emoji_lexicon = _worker_state
    return [score_review(lexicon, review, emoji_lexicon) for review in reviews[lo:hi]]
