"""Tokenization rules and dual-polarity scoring."""

import os
import random
import threading
import time
from itertools import pairwise
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reviewsent import engine
from reviewsent.engine import SentimentScore, score_review, score_reviews, score_text
from reviewsent.emojis import EmojiEntry, EmojiLexicon
from reviewsent.lexicon import Lexicon, load_builtin_lexicon

from helpers import (
    UnformattableTitle,
    children_left,
    force_split,
    late,
    make_review,
    reference_memo_entry,
    reference_score_text,
    run_python,
)

WORKED_LEXICON = Lexicon(
    sentiment_terms={"hate": -4, "great": 3, "sad": -3, "good": 3, "love": 4},
    boosters={"very": 2, "extremely": 2, "slightly": -1},
    emoticons={":)": 2, ":(": -2, ":((": -3},
    slang={"u": "you", "luv": "love"},
)


# --- tokenization, seen through the score ------------------------------------
# Each text scores differently unless the tokenizer keeps the rule named.


def test_whitespace_split():
    assert score_text(WORKED_LEXICON, "I hate\tthat\ngreat") == SentimentScore(3, -4)


def test_letter_runs_collapse_to_two():
    # "gooood" reads as "good", not "god"
    assert score_text(WORKED_LEXICON, "Sooo GOOOOD") == SentimentScore(3, -1)


def test_emoticon_recognized_before_word_splitting():
    # ":)" alone would be a punctuation chunk
    assert score_text(WORKED_LEXICON, "nice :)") == SentimentScore(2, -1)


def test_emoticon_greedy_longest_first():
    # ":(" first would score -2 and leave "(" as punctuation
    assert score_text(WORKED_LEXICON, "meh :((") == SentimentScore(1, -3)


def test_emoticon_inside_word_run():
    assert score_text(WORKED_LEXICON, "sad:)") == SentimentScore(2, -3)


def test_punctuation_stripped_to_tokens():
    assert score_text(WORKED_LEXICON, '"Great!" app.') == SentimentScore(3, -1)


def test_interior_apostrophe_kept():
    lexicon = Lexicon(sentiment_terms={"don't": -2, "don": -4})
    assert score_text(lexicon, "'Don't' stop") == SentimentScore(1, -2)


def test_empty_text_gives_empty_stream():
    assert score_text(WORKED_LEXICON, "") == SentimentScore(1, -1)


# --- score_text --------------------------------------------------------------


def test_worked_example_title_and_body():
    score = score_text(WORKED_LEXICON, "I hate that u need wifi but it is great.")
    assert score == SentimentScore(3, -4)


def test_booster_deepens_negative():
    assert score_text(WORKED_LEXICON, "I would be very sad without it") == SentimentScore(1, -5)


def test_booster_deepens_positive():
    assert score_text(WORKED_LEXICON, "extremely good") == SentimentScore(5, -1)


def test_negative_boost_softens():
    assert score_text(WORKED_LEXICON, "slightly sad") == SentimentScore(1, -2)


def test_empty_text_is_neutral():
    assert score_text(WORKED_LEXICON, "") == SentimentScore(1, -1)


def test_unmatched_tokens_are_neutral():
    assert score_text(WORKED_LEXICON, "nothing matches here") == SentimentScore(1, -1)


def test_empty_lexicon_scores_neutral():
    assert score_text(Lexicon(), "great hate love") == SentimentScore(1, -1)


def test_slang_resolution_before_lookup():
    assert score_text(WORKED_LEXICON, "i luv it") == SentimentScore(4, -1)


def test_booster_reaches_over_one_neutral_token():
    # "very" ... one neutral token ... "sad": within the 2-token window
    assert score_text(WORKED_LEXICON, "very much sad") == SentimentScore(1, -5)


def test_booster_beyond_window_does_nothing():
    assert score_text(WORKED_LEXICON, "very much too sad") == SentimentScore(1, -3)


def test_unconsumed_booster_contributes_nothing():
    assert score_text(WORKED_LEXICON, "very nothing") == SentimentScore(1, -1)


def test_trailing_booster_contributes_nothing():
    assert score_text(WORKED_LEXICON, "good very") == SentimentScore(3, -1)


def test_boost_clamped_into_range():
    lex = Lexicon(sentiment_terms={"stellar": 5}, boosters={"very": 2})
    assert score_text(lex, "very stellar") == SentimentScore(5, -1)


def test_punctuation_does_not_consume_booster_distance():
    # comma becomes a punctuation token and does not count toward the window
    assert score_text(WORKED_LEXICON, "very, very sad") == SentimentScore(1, -5)


def test_emoticons_scored_by_surface():
    assert score_text(WORKED_LEXICON, "ok :(") == SentimentScore(1, -2)


LETTER_RUNS = st.lists(st.tuples(st.characters(), st.integers(1, 5))).map(
    lambda parts: "".join(ch * n for ch, n in parts)
)


@given(st.one_of(st.text(), LETTER_RUNS))
def test_letter_run_collapse_matches_template_substitution(word):
    expected = engine._REPEATED_LETTERS.sub(r"\1\1", word.lower())
    assert engine._normalize(word) == expected


def test_elongated_word_matches_after_collapse():
    # "goooood" normalizes to "good"
    assert score_text(WORKED_LEXICON, "goooood") == SentimentScore(3, -1)


def test_score_review_joins_title_and_body():
    review = make_review(
        "app1", "r1", title="I hate that u need wifi", body="but it is great."
    )
    assert score_review(WORKED_LEXICON, review) == SentimentScore(3, -4)


def test_score_review_single_token_title():
    review = make_review("app1", "r1", title="Great", body="")
    assert score_review(WORKED_LEXICON, review) == SentimentScore(3, -1)


def test_score_review_empty():
    review = make_review("app1", "r1", title="", body="")
    assert score_review(WORKED_LEXICON, review) == SentimentScore(1, -1)


def test_dual_score_range_validated():
    with pytest.raises(ValueError):
        SentimentScore(0, -1)
    with pytest.raises(ValueError):
        SentimentScore(6, -1)
    with pytest.raises(ValueError):
        SentimentScore(1, 0)
    with pytest.raises(ValueError):
        SentimentScore(1, -6)


# --- properties ---------------------------------------------------------------

WORDS = ["great", "hate", "sad", "good", "love", "wifi", "app", "the", "ok", "meh"]


@settings(max_examples=200)
@given(st.lists(st.sampled_from(WORDS), max_size=12))
def test_scores_always_in_range(tokens):
    score = score_text(WORKED_LEXICON, " ".join(tokens))
    assert 1 <= score.positive <= 5
    assert -5 <= score.negative <= -1


NO_BOOSTER_LEXICON = Lexicon(
    sentiment_terms={"great": 3, "hate": -4, "sad": -3, "love": 4, "meh": -1, "fine": 1}
)


@settings(max_examples=200)
@given(
    st.lists(st.sampled_from(WORDS), max_size=8),
    st.lists(st.sampled_from(WORDS), max_size=8),
)
def test_concatenation_takes_extremes_without_boosters(left, right):
    a, b = " ".join(left), " ".join(right)
    joined = score_text(NO_BOOSTER_LEXICON, a + " " + b)
    sa = score_text(NO_BOOSTER_LEXICON, a)
    sb = score_text(NO_BOOSTER_LEXICON, b)
    assert joined.positive == max(sa.positive, sb.positive)
    assert joined.negative == min(sa.negative, sb.negative)


@settings(max_examples=200)
@given(st.lists(st.sampled_from(WORDS), max_size=10), st.randoms(use_true_random=False))
def test_permutation_invariance_without_boosters(tokens, rnd):
    shuffled = list(tokens)
    rnd.shuffle(shuffled)
    assert score_text(NO_BOOSTER_LEXICON, " ".join(tokens)) == score_text(
        NO_BOOSTER_LEXICON, " ".join(shuffled)
    )


def test_determinism():
    text = "I hate that u need wifi but it is great. :("
    assert score_text(WORKED_LEXICON, text) == score_text(WORKED_LEXICON, text)


def test_brute_force_oracle_equivalence():
    """Max/min over per-token lookups matches the engine on plain texts."""
    rng = random.Random(20160104)
    vocabulary = ["alpha", "beta", "gamma", "delta", "zeta", "eta", "theta", "iota", "kappa", "mu"]
    for _ in range(300):
        terms = rng.sample(vocabulary, rng.randint(1, 10))
        lexicon_terms = {
            t: rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]) for t in terms
        }
        lexicon = Lexicon(sentiment_terms=lexicon_terms)
        words = [rng.choice(vocabulary + ["noise"]) for _ in range(rng.randint(0, 6))]
        text = " ".join(words)
        scores = [lexicon_terms.get(w, 0) for w in words]
        expected_p = max([1] + [s for s in scores if s > 0])
        expected_n = min([-1] + [s for s in scores if s < 0])
        assert score_text(lexicon, text) == SentimentScore(expected_p, expected_n)


# --- single-pass scorer against the token-based reference ----------------------

PROPERTY_LEXICON = Lexicon(
    sentiment_terms={"hate": -4, "great": 3, "sad": -3, "good": 3, "love": 4, "zoo": 2},
    boosters={"very": 2, "extremely": 2, "slightly": -1, "so": 1},
    # ":(" is a prefix of ":((", ": )" holds a space, "xd" is also a word
    emoticons={":)": 2, ":(": -2, ":((": -3, ": )": 1, "xD": 3, "<3": 4},
    # onto a sentiment term, onto a booster, and from a booster
    slang={"u": "you", "luv": "love", "gr8": "great", "vry": "very", "so": "good"},
)
PIECES = [
    "great", "Great", "GREAT", "hate", "sad", "good", "love", "zoo", "meh", "app", "xd",
    "luv", "gr8", "vry", "u", "very", "extremely", "slightly", "so",
    ":)", ":(", ":((", ": )", "xD", "<3", ":",
    "goooood", "Sooooo", "haaate", "zzzoo", "LOOOVE", "ßßß", "İİİ",
    "¿", "«", "…", "»", "!", ",", '"', "'", "-", "...",
    "\U0001D518", "\U0001F600", "\u0301",
]
SEPARATORS = ["", "", " ", " ", "  ", "\t", "\n", "\u00a0", "\u2028", "\x1c", "\u3000"]
PIECED_TEXT = st.lists(
    st.tuples(st.sampled_from(PIECES), st.sampled_from(SEPARATORS)), max_size=16
).map(lambda parts: "".join(piece + sep for piece, sep in parts))


@settings(max_examples=500)
@given(st.one_of(PIECED_TEXT, st.text(max_size=40)))
def test_score_text_matches_token_reference(text):
    assert score_text(PROPERTY_LEXICON, text) == reference_score_text(PROPERTY_LEXICON, text)


@pytest.mark.parametrize(
    "text",
    [
        "very very very sad",  # third booster sits outside the window
        "very meh meh sad",
        "very, « so » sad",
        "so so so",  # boosters that also score
        "vry sad",  # slang onto a booster does not boost
        "very :( extremely :((",
        "goodxD:((great",
        "« very »\u00a0…\u2028sad\x1c!!",
        "¿Loooove?",
    ],
)
def test_score_text_matches_reference_on_edge_cases(text):
    assert score_text(PROPERTY_LEXICON, text) == reference_score_text(PROPERTY_LEXICON, text)


def test_chunk_memo_stays_within_limit(monkeypatch):
    monkeypatch.setattr(engine, "CHUNK_MEMO_LIMIT", 8)
    lexicon = PROPERTY_LEXICON._replace()  # a fresh, empty memo
    rng = random.Random(4401)
    for _ in range(200):
        words = [rng.choice(PIECES) + str(rng.randrange(50)) for _ in range(rng.randint(0, 12))]
        text = " ".join(words + [rng.choice(PIECES)])
        assert score_text(lexicon, text) == reference_score_text(lexicon, text)
        assert len(lexicon._compiled.chunks) <= 8


@settings(max_examples=300)
@given(st.lists(PIECED_TEXT, min_size=1, max_size=6))
def test_memo_entries_equal_each_chunks_own_resolution(texts):
    # a memo of four chunks is cleared often, so texts meet it empty,
    # partly filled and full; every chunk in it must resolve as it would
    # alone, a lexicon word as much as a miss or a punctuation run
    lexicon = PROPERTY_LEXICON._replace()  # a fresh, empty memo
    with mock.patch.object(engine, "CHUNK_MEMO_LIMIT", 4):
        for text in texts:
            assert score_text(lexicon, text) == reference_score_text(lexicon, text)
            memo = lexicon._compiled.chunks
            assert len(memo) <= 4
            for chunk, entry in memo.items():
                assert entry == reference_memo_entry(lexicon, chunk), chunk


# Pieces whose lowercasing or run collapse depends on their neighbours: the
# scorer normalizes the unseen words of a text joined by "\n" in one go.
EDGE_PIECES = [
    "ΟΔΟΣ", "Σ", "(ΣΑΣ).", "ΣΣΣ", "ΣΣ.ΣΣΣ",  # final sigma at word edges
    "İ", "İ.", "(İ", "«İİİ»",
    "1111", "____", "x____", "²²²", "x²²²", "ⅫⅫⅫ",  # runs that are not letters
    "\u0301good", "good\u0301", "\u02b0\u02b0\u02b0", "good\u02b0", "\u02bcok",  # marks, modifier letters
    "aa.aaa", "oo!ooo", "zz-zzz", "zzz.zz",  # runs cut by punctuation
]
EDGE_LEXICON = PROPERTY_LEXICON._replace(
    sentiment_terms={
        **PROPERTY_LEXICON.sentiment_terms,
        "οδος": -2, "σ": 1, "σας": -5, "σσς": 5, "i\u0307": 2, "1111": 4, "x____": -1,
        "²²": 3, "x²²": -3, "ⅻⅻ": 1, "aa.aa": 3, "oo!oo": -4, "zz.zz": 5,
    },
    boosters={**PROPERTY_LEXICON.boosters, "\u02b0\u02b0": 2, "\u02bcok": -1},
)
EDGE_TEXT = st.lists(
    st.tuples(st.sampled_from(EDGE_PIECES + PIECES), st.sampled_from(SEPARATORS)), max_size=16
).map(lambda parts: "".join(piece + sep for piece, sep in parts))


@given(EDGE_TEXT)
# a final sigma that a cased neighbour would turn medial if the join let it
@example("ΟΔΟΣ GREAT (ΣΑΣ). Great ΣΣΣ\tzoo")
@example("«İİİ» ΣΣ.ΣΣΣ\u00a0ΟΔΟΣ goodgreat")
def test_batched_words_match_token_reference(text):
    lexicon = EDGE_LEXICON._replace()  # a fresh, empty memo
    expected = reference_score_text(lexicon, text)
    assert score_text(lexicon, text) == expected  # every word unseen
    assert score_text(lexicon, text) == expected  # every word from the memo


def test_text_with_more_unseen_words_than_the_memo_holds(monkeypatch):
    monkeypatch.setattr(engine, "CHUNK_MEMO_LIMIT", 8)
    lexicon = PROPERTY_LEXICON._replace()  # a fresh, empty memo
    rng = random.Random(1907)
    # distinct chunks that still hold lexicon words: "go{n}d" is "good",
    # "zo{n}" is "zoo", and punctuation peels off the rest
    shapes = [
        lambda n: "g" + "o" * n + "d",
        lambda n: "z" + "o" * n,
        lambda n: "very" + "!" * n,
        lambda n: "(" * n + "sad",
        lambda n: "«" * n + "so" + "»" * n,
        lambda n: "meh" + "." * n,
    ]
    for _ in range(50):
        words = [rng.choice(shapes)(rng.randint(3, 40)) for _ in range(rng.randint(9, 40))]
        text = " ".join(words)
        assert len(set(words)) > 8
        assert score_text(lexicon, text) == reference_score_text(lexicon, text)
        assert len(lexicon._compiled.chunks) <= 8


def test_lexicon_compiles_on_first_score_not_on_load():
    lexicon = load_builtin_lexicon()
    assert "_compiled" not in vars(lexicon)
    score_text(lexicon, "great :)")
    assert "_compiled" in vars(lexicon)


# --- score_reviews: one batch, split across processes when it pays --------------

EMOJI = EmojiLexicon((EmojiEntry("\U0001F600", 500, 1), EmojiEntry("\u2639", 500, -1)))


def _uneven_reviews() -> list:
    """Reviews from empty to thousands of words, emojis among them."""
    rng = random.Random(7101)
    reviews = []
    for i, words in enumerate([0, 1, 2500, 3, 0, 40, 1200, 1, 7, 300, 0, 2]):
        text = " ".join(rng.choice(PIECES + ["\u2639"]) for _ in range(words))
        reviews.append(make_review("app1", f"r{i}", title=text[:25], body=text[25:]))
    return reviews


def _scored_here(monkeypatch) -> list:
    """Record each review that ``score_review`` scores in this process; a
    forked worker appends to its own copy of the list."""
    scored = []

    def counting_score_review(lexicon, review, emoji_lexicon=None):
        scored.append(review)
        return score_review(lexicon, review, emoji_lexicon)

    monkeypatch.setattr(engine, "score_review", counting_score_review)
    return scored


def test_split_scores_equal_serial_scores_on_uneven_reviews(monkeypatch):
    reviews = _uneven_reviews()
    serial = [score_review(PROPERTY_LEXICON, review, EMOJI) for review in reviews]
    bounds = engine._slice_bounds([len(r.title) + len(r.body) for r in reviews], 3)
    assert len(bounds) == 4  # three slices, so two workers
    forks = force_split(monkeypatch, cpus=3)
    scored_here = _scored_here(monkeypatch)
    assert score_reviews(PROPERTY_LEXICON, reviews, EMOJI) == serial
    assert len(forks) == 2
    # this process scored the first slice, the workers the others
    assert scored_here == reviews[: bounds[1]]
    assert not children_left()


def _no_fork():
    raise AssertionError("score_reviews forked a worker")


@pytest.mark.parametrize("cpus, extra_chars", [(1, 0), (4, 1)], ids=["one_cpu", "short_text"])
def test_no_pool_on_one_cpu_or_below_the_threshold(monkeypatch, cpus, extra_chars):
    reviews = _uneven_reviews()
    chars = sum(len(review.title) + len(review.body) for review in reviews)
    # one character short of two processes' worth of text, or one CPU
    monkeypatch.setattr(engine, "MIN_CHARS_PER_PROCESS", chars // 2 + extra_chars or 1)
    monkeypatch.setattr(engine, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", _no_fork)
    expected = [score_review(PROPERTY_LEXICON, review, None) for review in reviews]
    assert score_reviews(PROPERTY_LEXICON, reviews) == expected


def test_no_pool_while_another_thread_runs(monkeypatch):
    reviews = _uneven_reviews()
    serial = [score_review(PROPERTY_LEXICON, review, EMOJI) for review in reviews]
    force_split(monkeypatch, cpus=2)
    monkeypatch.setattr(os, "fork", _no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert score_reviews(PROPERTY_LEXICON, reviews, EMOJI) == serial
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_no_pool_for_a_batch_of_one_slice(monkeypatch):
    # two processes' worth of text, but one review cannot be cut in two
    review = make_review("app1", "only", body="good " * 100)
    forks = force_split(monkeypatch, cpus=2)
    assert score_reviews(PROPERTY_LEXICON, [review]) == [score_review(PROPERTY_LEXICON, review)]
    assert forks == []


@pytest.mark.parametrize("in_worker", [True, False], ids=["worker", "this_process"])
def test_scoring_error_reaches_caller_with_its_type(monkeypatch, in_worker):
    bad = SimpleNamespace(title=UnformattableTitle("bad"), body="x")
    middle = make_review("app1", "middle", body="sad " * 3000)
    other = make_review("app1", "other", body="x")
    # two slices: the first two reviews, scored here, and the last one
    reviews = [other, middle, bad] if in_worker else [bad, middle, other]
    forks = force_split(monkeypatch, cpus=2)
    with pytest.raises(LookupError, match="cannot format 'bad'") as raised:
        score_reviews(PROPERTY_LEXICON, reviews)
    if in_worker:
        # chained to the worker's traceback, which names where it was raised
        cause = str(raised.value.__cause__)
        assert type(raised.value.__cause__).__name__ == "_WorkerTraceback"
        assert "in _score_slice" in cause and "in __format__" in cause
        assert cause.endswith("LookupError: cannot format 'bad'\n")
    else:
        assert raised.value.__cause__ is None
    assert len(forks) == 1
    assert not children_left()


def test_error_in_this_process_kills_and_reaps_the_worker(monkeypatch):
    bad = SimpleNamespace(title=UnformattableTitle("bad"), body="x")
    middle = make_review("app1", "middle", body="sad " * 3000)
    # two slices: the first two reviews, scored here, and the last one
    reviews = [bad, middle, make_review("app1", "other", body="x")]
    forks = force_split(monkeypatch, cpus=2)
    # a worker that would score for a minute unless killed
    monkeypatch.setattr(engine, "_score_slice", late(engine._score_slice, 60))
    started = time.monotonic()
    with pytest.raises(LookupError, match="cannot format 'bad'"):
        score_reviews(PROPERTY_LEXICON, reviews)
    assert time.monotonic() - started < 30
    assert len(forks) == 1
    assert not children_left()


WORKER_ENDED = (
    "a scoring worker process ended abruptly (killed, out of memory, or failed to start);"
    " no score was kept"
)
# a child interpreter whose third review kills the worker that scores it,
# once the worker has scored the review before it
DYING_WORKER_SCRIPT = """
from types import SimpleNamespace
from helpers import KillingTitle, children_left
from reviewsent import engine
from reviewsent.lexicon import load_builtin_lexicon

engine.usable_cpus = lambda: 2
engine.MIN_CHARS_PER_PROCESS = 1
titles = ["t", "t", "t", KillingTitle("t")]
reviews = [SimpleNamespace(title=t, body="good " * 1000) for t in titles]
try:
    engine.score_reviews(load_builtin_lexicon(), reviews)
except ChildProcessError as exc:
    print(f"{exc}; children left: {children_left()}")
"""


def test_dead_worker_raises_instead_of_hanging():
    # in a child interpreter, so that a hang fails the test as a timeout
    result = run_python(DYING_WORKER_SCRIPT, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == WORKER_ENDED + "; children left: False\n"


UNPICKLABLE_ERROR_SCRIPT = """
from helpers import children_left, make_review
from reviewsent import engine
from reviewsent.lexicon import load_builtin_lexicon


def unpicklable(*args):
    raise LookupError(lambda: None)  # a function defined in place does not pickle


engine.usable_cpus = lambda: 2
engine.MIN_CHARS_PER_PROCESS = 1
engine._score_slice = unpicklable
reviews = [make_review("app1", f"r{i}", body="good " * 1000) for i in range(4)]
try:
    engine.score_reviews(load_builtin_lexicon(), reviews)
except ChildProcessError as exc:
    print(exc)
    print("traceback sent:", "in unpicklable" in str(exc.__cause__))
    print("children left:", children_left())
"""


def test_unpicklable_worker_error_raises_instead_of_hanging():
    # in a child interpreter, so that a hang fails the test as a timeout
    result = run_python(UNPICKLABLE_ERROR_SCRIPT, timeout=60)
    assert result.returncode == 0, result.stderr
    message, *rest = result.stdout.splitlines()
    assert message.startswith("a scoring worker raised LookupError, which could not be sent back:")
    assert rest == ["traceback sent: True", "children left: False"]


def test_late_worker_still_yields_serial_scores(monkeypatch):
    reviews = [make_review("app1", f"r{i:02d}", body="good day") for i in range(12)]
    serial = [score_review(PROPERTY_LEXICON, review) for review in reviews]
    forks = force_split(monkeypatch, cpus=2)
    monkeypatch.setattr(engine, "_score_slice", late(engine._score_slice, 1))
    scored_here = _scored_here(monkeypatch)
    assert score_reviews(PROPERTY_LEXICON, reviews) == serial
    # the worker scored its half once it had started; this process, only its own
    assert len(forks) == 1
    assert scored_here == reviews[:6]
    assert not children_left()


def test_usable_cpus_follows_affinity_else_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert engine.usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert engine.usable_cpus() == os.cpu_count()


@given(
    st.lists(st.integers(0, 60), min_size=1, max_size=30).filter(any), st.integers(2, 5)
)
def test_slice_bounds_split_text_evenly_into_non_empty_slices(sizes, parts):
    bounds = engine._slice_bounds(sizes, parts)
    assert bounds[0] == 0 and bounds[-1] == len(sizes)
    assert all(lo < hi for lo, hi in pairwise(bounds))
    assert len(bounds) - 1 <= parts
    shares = [sum(sizes) * k / parts for k in range(1, parts)]
    for cut in bounds[1:-1]:
        # a slice ends at the first review that reaches a share of the text
        assert any(sum(sizes[: cut - 1]) < share <= sum(sizes[:cut]) for share in shares)


def test_slice_bounds_examples():
    assert engine._slice_bounds([1] * 10, 2) == [0, 5, 10]
    assert engine._slice_bounds([1] * 10, 3) == [0, 4, 7, 10]
    assert engine._slice_bounds([1, 100, 1], 2) == [0, 2, 3]
    assert engine._slice_bounds([1, 100], 2) == [0, 2]  # one slice: scored here
    assert engine._slice_bounds([3, 4], 1) == [0, 2]
    assert engine._slice_bounds([], 0) == [0, 0]
