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
normalized together, joined by "\n", and intersected with the lexicon's
vocabulary in one set operation. Most are in no dictionary and are
remembered together as one shared miss; only the rest are looked up
one by one.

``score_reviews`` scores a batch. When its text is long enough to pay
for starting workers, and the process may fork safely, it cuts the
batch into one contiguous slice per CPU the process may use. Workers
made by a bare ``os.fork`` score every slice but the first, which the
calling process scores itself, and send their scores back through a
pipe, two bytes per review. A worker starts on its slice about 4 ms
into the call, since it imports nothing.
"""

from __future__ import annotations

import os
import re
import sys
import threading
import unicodedata
from array import array
from bisect import bisect_left
from itertools import accumulate, chain, compress, pairwise
from typing import TYPE_CHECKING, BinaryIO, Sequence

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
# ``score_reviews`` splits a batch. A forked worker starts on its slice
# 2.8-4.5 ms into the call (median 4.0 ms, score_long_tail), in which the
# scorer reads only 15-40 k characters (4.5-10 M chars/s, emoji
# substitution included; 2-vCPU VM, Python 3.11.7), so start-up alone
# would allow a far lower threshold. It stays at 1 M, which keeps
# score_pipeline (about 1.44 M characters of short, repetitive reviews)
# in one process, until paired benchmark runs show that a lower one pays
# there: a forced split of it won 9 of 12 fresh ``score`` steps, median
# 0.53 s against 0.67 s, on a noisy host (BENCH_27.json).
# score_long_tail (about 3.19 M) splits in two.
MIN_CHARS_PER_PROCESS = 1_000_000

_REPEATED_LETTERS = re.compile(r"([^\W\d_])\1{2,}", re.UNICODE)
_RUNS = re.compile(r"(.)\1\1+")
_UNSEEN = object()
# the memo entry of a word in no dictionary
_MISS = (0, None)


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
        # most unseen words are in no dictionary: one set intersection finds
        # the few that are, and every other chunk maps to the shared miss
        terms = _normalize("\n".join(words)).split("\n")
        known = lexicon._vocabulary.intersection(terms)
        fresh = dict.fromkeys(chunks, _MISS)
        if known:
            sentiment, slang = lexicon.sentiment_terms, lexicon.slang
            booster_terms = lexicon.boosters
            for i in compress(range(len(terms)), map(known.__contains__, terms)):
                term, slot = terms[i], slots[i]
                score = sentiment.get(slang.get(term, term), 0)
                boost = booster_terms.get(term)
                fresh[chunks[i]] = score, boost
                scores[slot] = score
                if boost is not None:
                    boosters.append((slot, boost))
        if len(memo) + len(fresh) > CHUNK_MEMO_LIMIT:
            memo.clear()
        if len(fresh) <= CHUNK_MEMO_LIMIT:
            memo.update(fresh)

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
    but the first; this process scores the first, then reads theirs from
    a pipe each. It forks only on Linux and only while this process runs
    a single thread, since forking a process that runs threads is unsafe;
    otherwise it scores the batch here. The workers are gone when the
    call returns. A worker's exception is raised here with its own type,
    chained to the worker's traceback; a worker that ends abruptly
    (killed, out of memory, or failed to start) raises
    ``ChildProcessError`` once this process has scored its own slice.
    """
    sizes = [len(review.title) + len(review.body) for review in reviews]
    processes = min(usable_cpus(), sum(sizes) // MIN_CHARS_PER_PROCESS)
    slices = list(pairwise(_slice_bounds(sizes, processes)))
    if len(slices) < 2 or sys.platform != "linux" or threading.active_count() > 1:
        return [score_review(lexicon, review, emoji_lexicon) for review in reviews]

    workers: list[tuple[int, BinaryIO]] = []  # pid and read end of its pipe
    try:
        for lo, hi in slices[1:]:
            workers.append(_fork_worker(lexicon, reviews[lo:hi], emoji_lexicon))
        lo, hi = slices[0]
        scores = [score_review(lexicon, review, emoji_lexicon) for review in reviews[lo:hi]]
        for (lo, hi), (_, pipe) in zip(slices[1:], workers):
            scores += _received_scores(pipe.readall(), hi - lo)
    except BaseException:
        from signal import SIGKILL

        for pid, _ in workers:
            os.kill(pid, SIGKILL)  # one that has exited stays a zombie until reaped
        raise
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.waitpid(pid, 0)
    return scores


def _slice_bounds(sizes: list[int], parts: int) -> list[int]:
    """Bounds of at most ``parts`` contiguous, non-empty slices that hold
    about equal sums of ``sizes``; ``[0, len(sizes)]`` is one slice, the
    bounds for ``parts`` below 2."""
    ends = list(accumulate(sizes))
    cuts = {bisect_left(ends, ends[-1] * k / parts) + 1 for k in range(1, parts)}
    return [0, *sorted(cuts - {len(sizes)}), len(sizes)]


_WORKER_ENDED = (
    "a scoring worker process ended abruptly (killed, out of memory, or failed to start);"
    " no score was kept"
)


class _WorkerTraceback(Exception):
    """The traceback text of an exception raised in a scoring worker."""


def _fork_worker(
    lexicon: Lexicon, reviews: Sequence["Review"], emoji_lexicon: EmojiLexicon | None
) -> tuple[int, BinaryIO]:
    """Fork a worker that scores ``reviews``: its pid, and the read end of
    the pipe that carries its ``_worker_payload``."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:  # the worker, which never returns
        try:
            os.close(read_end)
            payload = memoryview(_worker_payload(lexicon, reviews, emoji_lexicon))
            while payload:
                payload = payload[os.write(write_end, payload) :]
        finally:
            os._exit(0)
    os.close(write_end)
    return pid, open(read_end, "rb", buffering=0)


def _worker_payload(
    lexicon: Lexicon, reviews: Sequence["Review"], emoji_lexicon: EmojiLexicon | None
) -> bytes:
    """What a worker sends: b"s" and its scores as (positive, negative)
    bytes, or b"e" and its pickled exception with its traceback text."""
    try:
        scores = _score_slice(lexicon, reviews, emoji_lexicon)
        return b"s" + array("b", chain.from_iterable(scores)).tobytes()
    except BaseException as exc:
        import pickle
        import traceback

        text = "".join(traceback.format_exception(exc))
        try:
            sent = pickle.dumps((exc, text))
            pickle.loads(sent)  # some exceptions pickle but do not unpickle
        except Exception as error:
            stand_in = ChildProcessError(
                f"a scoring worker raised {type(exc).__qualname__}, which could not be"
                f" sent back: {error}"
            )
            sent = pickle.dumps((stand_in, text))
        return b"e" + sent


def _received_scores(payload: bytes, count: int) -> list[SentimentScore]:
    """The ``count`` scores in a worker's payload, each distinct pair built
    once; a worker's exception is raised here."""
    if payload[:1] == b"e":
        import pickle

        try:
            exc, text = pickle.loads(payload[1:])  # bytes a worker of this call wrote
        except Exception:  # cut short: the worker died while sending
            raise ChildProcessError(_WORKER_ENDED) from None
        raise exc from _WorkerTraceback(text)
    if payload[:1] != b"s" or len(payload) != 1 + 2 * count:
        raise ChildProcessError(_WORKER_ENDED)
    values = array("b", payload[1:])
    pairs = list(zip(values[::2], values[1::2]))
    made = {pair: SentimentScore(*pair) for pair in set(pairs)}
    return [made[pair] for pair in pairs]


def _score_slice(
    lexicon: Lexicon, reviews: Sequence["Review"], emoji_lexicon: EmojiLexicon | None
) -> list[SentimentScore]:
    """Worker side of ``score_reviews``: the scores of ``reviews``."""
    return [score_review(lexicon, review, emoji_lexicon) for review in reviews]
