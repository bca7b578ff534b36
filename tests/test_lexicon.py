"""Lexicon file parsing and invariants."""

import io
import logging

import pytest

from reviewsent.lexicon import (
    Lexicon,
    LexiconError,
    load_builtin_lexicon,
    load_lexicon,
    load_lexicon_manifest,
)


def test_parses_sentiment_terms():
    lex = load_lexicon(sentiment=io.StringIO("hate\t-4\ngreat\t3"))
    assert lex.sentiment_terms == {"hate": -4, "great": 3}


def test_empty_streams_give_empty_lexicon():
    lex = load_lexicon()
    assert lex.sentiment_terms == {}
    assert lex.boosters == {}
    assert lex.emoticons == {}
    assert lex.slang == {}


def test_score_zero_rejected_with_line_number():
    with pytest.raises(LexiconError) as excinfo:
        load_lexicon(sentiment=io.StringIO("good\t0"))
    assert excinfo.value.line == 1
    assert "score 0" in str(excinfo.value)


def test_score_out_of_range_rejected():
    with pytest.raises(LexiconError) as excinfo:
        load_lexicon(sentiment=io.StringIO("fine\t2\nwow\t6"))
    assert excinfo.value.line == 2


def test_boost_out_of_range_rejected():
    with pytest.raises(LexiconError):
        load_lexicon(boosters=io.StringIO("mega\t3"))


def test_non_integer_score_rejected():
    with pytest.raises(LexiconError) as excinfo:
        load_lexicon(sentiment=io.StringIO("good\tthree"))
    assert "non-integer" in str(excinfo.value)


def test_wrong_column_count_rejected():
    with pytest.raises(LexiconError) as excinfo:
        load_lexicon(sentiment=io.StringIO("good 3"))
    assert excinfo.value.line == 1


def test_comments_and_blank_lines_ignored():
    lex = load_lexicon(sentiment=io.StringIO("# header\n\nlove\t4\n  \n# tail\n"))
    assert lex.sentiment_terms == {"love": 4}


def test_duplicate_term_last_wins_with_warning(caplog):
    with caplog.at_level(logging.WARNING):
        lex = load_lexicon(sentiment=io.StringIO("good\t2\ngood\t3"))
    assert lex.sentiment_terms == {"good": 3}
    assert any("duplicate" in r.message for r in caplog.records)


@pytest.mark.parametrize(
    "role, field, text, expected",
    [
        ("sentiment", "sentiment_terms", "Good\t3\ngood\t-2", {"good": -2}),
        ("boosters", "boosters", "VERY\t2\nvery\t1", {"very": 1}),
        ("slang", "slang", "Gr8\tgreat\ngr8\tGrand", {"gr8": "grand"}),
    ],
)
def test_case_variant_terms_are_duplicates(caplog, role, field, text, expected):
    with caplog.at_level(logging.WARNING):
        lex = load_lexicon(**{role: io.StringIO(text)})
    assert getattr(lex, field) == expected
    (term,) = expected
    assert [r.message for r in caplog.records] == [
        f"{role}: duplicate term {term!r} at line 2, last entry wins"
    ]


def test_case_variant_emoticons_stay_apart(caplog):
    with caplog.at_level(logging.WARNING):
        lex = load_lexicon(emoticons=io.StringIO(":D\t3\n:d\t2"))
    assert lex.emoticons == {":D": 3, ":d": 2}
    assert caplog.records == []


def test_terms_lowercased_on_load():
    lex = load_lexicon(
        sentiment=io.StringIO("Great\t3"), slang=io.StringIO("Gr8\tGreat")
    )
    assert lex.sentiment_terms == {"great": 3}
    assert lex.slang == {"gr8": "great"}


def test_emoticons_kept_verbatim():
    lex = load_lexicon(emoticons=io.StringIO(":D\t3"))
    assert lex.emoticons == {":D": 3}


def test_term_in_both_sentiment_and_boosters_rejected():
    with pytest.raises(LexiconError) as excinfo:
        Lexicon(sentiment_terms={"very": 2}, boosters={"very": 1})
    assert "both" in str(excinfo.value)


def test_empty_term_rejected():
    with pytest.raises(LexiconError):
        Lexicon(emoticons={"": 2})


def test_slang_to_empty_target_rejected():
    with pytest.raises(LexiconError):
        load_lexicon(slang=io.StringIO("u\t \n"))


def test_manifest_roundtrip(tmp_path):
    (tmp_path / "s.txt").write_text("nice\t2\n", encoding="utf-8")
    (tmp_path / "b.txt").write_text("very\t2\n", encoding="utf-8")
    (tmp_path / "e.txt").write_text(":)\t2\n", encoding="utf-8")
    (tmp_path / "g.txt").write_text("u\tyou\n", encoding="utf-8")
    (tmp_path / "manifest.json").write_text(
        '{"sentiment": "s.txt", "boosters": "b.txt", "emoticons": "e.txt", "slang": "g.txt"}',
        encoding="utf-8",
    )
    lex = load_lexicon_manifest(tmp_path / "manifest.json")
    assert lex.sentiment_terms == {"nice": 2}
    assert lex.boosters == {"very": 2}
    assert lex.emoticons == {":)": 2}
    assert lex.slang == {"u": "you"}


def test_manifest_missing_role_rejected(tmp_path):
    (tmp_path / "manifest.json").write_text('{"sentiment": "s.txt"}', encoding="utf-8")
    with pytest.raises(LexiconError) as excinfo:
        load_lexicon_manifest(tmp_path / "manifest.json")
    assert "missing roles" in str(excinfo.value)


def test_builtin_lexicon_covers_worked_examples():
    lex = load_builtin_lexicon()
    assert lex.sentiment_terms["hate"] == -4
    assert lex.sentiment_terms["great"] == 3
    assert lex.sentiment_terms["sad"] == -3
    assert lex.sentiment_terms["good"] == 3
    assert lex.sentiment_terms["love"] == 4
    assert lex.boosters["very"] == 2
    assert lex.boosters["extremely"] == 2
    # ":|" is reserved as the neutral emoji token and must not score
    assert ":|" not in lex.emoticons


def test_builtin_lexicon_has_no_software_domain_terms():
    # general-purpose dictionaries treat domain words like "bug" or
    # "crash" as neutral; the seed keeps that behavior
    lex = load_builtin_lexicon()
    for term in ("bug", "buggy", "crash", "crashes"):
        assert term not in lex.sentiment_terms
    from reviewsent.engine import SentimentScore, score_text

    text = "This app is really buggy and crashes all the time on my phone"
    assert score_text(lex, text) == SentimentScore(1, -1)
