"""Emoji lexicon loading, frequency selection, and substitution."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewsent.emojis import (
    EmojiEntry,
    EmojiLexicon,
    EmojiLexiconError,
    load_builtin_emoji_lexicon,
    load_emoji_lexicon,
    select_frequent,
    substitute_emojis,
)
from reviewsent.engine import score_text
from reviewsent.lexicon import Lexicon

from helpers import reference_substitute_emojis


def lexicon_from_csv(text: str) -> EmojiLexicon:
    return load_emoji_lexicon(io.StringIO(text))


THREE_ROWS = "emoji,occurrences,polarity\n😀,500,1\n😐,300,0\n😡,400,-1\n"


def test_loads_three_polarities():
    lex = lexicon_from_csv(THREE_ROWS)
    assert len(lex) == 3
    assert {e.polarity for e in lex.entries} == {-1, 0, 1}


def test_duplicate_emoji_rejected_with_line():
    with pytest.raises(EmojiLexiconError) as excinfo:
        lexicon_from_csv("emoji,occurrences,polarity\n😀,500,1\n😀,400,1\n")
    assert "line 3" in str(excinfo.value)


def test_polarity_out_of_range_rejected():
    with pytest.raises(EmojiLexiconError):
        lexicon_from_csv("emoji,occurrences,polarity\n😀,500,2\n")


def test_bad_header_rejected():
    with pytest.raises(EmojiLexiconError):
        lexicon_from_csv("emoji,count,polarity\n😀,500,1\n")


def test_negative_occurrences_rejected():
    with pytest.raises(EmojiLexiconError):
        lexicon_from_csv("emoji,occurrences,polarity\n😀,-1,1\n")


def test_select_frequent_is_strict():
    lex = lexicon_from_csv("emoji,occurrences,polarity\n😀,100,1\n😡,101,-1\n")
    kept = select_frequent(lex, 100)
    assert [e.emoji for e in kept.entries] == ["😡"]


def test_select_frequent_threshold_zero_keeps_everything_seen():
    lex = lexicon_from_csv(THREE_ROWS)
    assert select_frequent(lex, 0).entries == lex.entries


def test_select_frequent_counts_by_brute_force():
    lex = lexicon_from_csv(THREE_ROWS)
    for threshold in range(0, 600, 50):
        expected = sum(1 for e in lex.entries if e.occurrences > threshold)
        assert len(select_frequent(lex, threshold)) == expected


def test_substitution_positive():
    lex = lexicon_from_csv(THREE_ROWS)
    assert substitute_emojis("nice 😀", lex) == "nice :)"


def test_substitution_negative_pair():
    lex = lexicon_from_csv(THREE_ROWS)
    assert substitute_emojis("😡😡", lex) == ":( :("


def test_substitution_neutral_token():
    lex = lexicon_from_csv(THREE_ROWS)
    assert substitute_emojis("hm 😐", lex) == "hm :|"


def test_text_without_emojis_identical():
    lex = lexicon_from_csv(THREE_ROWS)
    text = "no emojis here :) !!"
    assert substitute_emojis(text, lex) == text


def test_unknown_emoji_left_untouched():
    lex = lexicon_from_csv(THREE_ROWS)
    assert substitute_emojis("strange 🦖", lex) == "strange 🦖"


def test_embedded_emoji_padded_with_spaces():
    lex = lexicon_from_csv(THREE_ROWS)
    assert substitute_emojis("a😀b", lex) == "a :) b"


def test_multi_codepoint_longest_sequence_first():
    # bare heart and variation-selector heart are distinct entries
    lex = lexicon_from_csv(
        "emoji,occurrences,polarity\n❤,200,1\n❤️,300,1\n👍🏽,150,1\n👍,150,-1\n"
        "1\ufe0f\u20e3,120,-1\n"  # a keycap starts with an ASCII digit
    )
    assert substitute_emojis("x ❤️ y", lex) == "x :) y"
    assert substitute_emojis("x 👍🏽 y", lex) == "x :) y"
    assert substitute_emojis("x 👍 y", lex) == "x :( y"
    assert substitute_emojis("11\ufe0f\u20e31", lex) == "1 :( 1"


def test_substitution_idempotent_on_examples():
    lex = lexicon_from_csv(THREE_ROWS)
    for text in ["nice 😀", "😡😡", "a😀b", "plain", "😀 😐 😡"]:
        once = substitute_emojis(text, lex)
        assert substitute_emojis(once, lex) == once


def test_scoring_equivalence_with_manual_replacement():
    emoji_lex = lexicon_from_csv(THREE_ROWS)
    scorer = Lexicon(
        sentiment_terms={"nice": 2, "awful": -3},
        emoticons={":)": 2, ":(": -2},
    )
    cases = [
        ("nice 😀", "nice :)"),
        ("awful 😡😡", "awful :( :("),
        ("😐 fine", ":| fine"),
    ]
    for text, manual in cases:
        assert score_text(scorer, substitute_emojis(text, emoji_lex)) == score_text(
            scorer, manual
        )


def test_double_negative_emoji_scores_negative():
    emoji_lex = lexicon_from_csv(THREE_ROWS)
    scorer = Lexicon(emoticons={":)": 2, ":(": -2})
    score = score_text(scorer, substitute_emojis("😡😡", emoji_lex))
    assert score.negative <= -2
    assert score == score_text(scorer, ":( :(")


def test_entry_validation():
    with pytest.raises(EmojiLexiconError):
        EmojiEntry("", 10, 1)
    with pytest.raises(EmojiLexiconError):
        EmojiEntry("😀", 10, 3)


def test_builtin_lexicon_loads():
    lex = load_builtin_emoji_lexicon()
    assert len(lex) > 0
    frequent = select_frequent(lex)
    assert 0 < len(frequent) < len(lex)


# --- properties ----------------------------------------------------------------

EMOJIS = ["😀", "😐", "😡"]


@settings(max_examples=200)
@given(st.lists(st.sampled_from(EMOJIS + ["word", " ", "x!"]), max_size=10))
def test_idempotence_property(parts):
    lex = lexicon_from_csv(THREE_ROWS)
    text = "".join(parts)
    once = substitute_emojis(text, lex)
    assert substitute_emojis(once, lex) == once


@settings(max_examples=200)
@given(st.text(alphabet=st.sampled_from(list("ab .!😀😐😡🦖")), max_size=30))
def test_non_emoji_characters_preserved_in_order(text):
    lex = lexicon_from_csv(THREE_ROWS)
    result = substitute_emojis(text, lex)
    replaced = set("😀😐😡")
    kept = [ch for ch in text if ch not in replaced]
    # strip substitution tokens and inserted padding, compare what remains
    stripped = result
    for token in (":)", ":(", ":|"):
        stripped = stripped.replace(token, "\x00")
    survivors = [ch for ch in stripped if ch != "\x00"]
    # spaces may be inserted next to tokens; drop spaces on both sides
    assert [c for c in survivors if c != " "] == [c for c in kept if c != " "]


# bases, skin tones and ZWJ sequences that are prefixes of one another
NESTED_ROWS = [
    ("\U0001F44D", -1), ("\U0001F44D\U0001F3FD", 1), ("\u2764", 1), ("\u2764\ufe0f", 0),
    ("\U0001F469", 0), ("\U0001F469\u200d\U0001F4BB", 1), ("\U0001F600", 1),
]
KEYCAP_ROWS = [("1\ufe0f\u20e3", 1), ("#\ufe0f\u20e3", -1)]


def emoji_lexicon(rows) -> EmojiLexicon:
    return EmojiLexicon(entries=tuple(EmojiEntry(e, 200, p) for e, p in rows))


SUBSTITUTION_LEXICONS = [
    emoji_lexicon(NESTED_ROWS),
    emoji_lexicon(NESTED_ROWS + KEYCAP_ROWS),
    emoji_lexicon(KEYCAP_ROWS),
]
# lexicon characters, parts of sequences on their own, and characters that
# fall inside the prefilter range without starting any entry
SUBSTITUTION_ALPHABET = [
    "\U0001F44D", "\U0001F3FD", "\u2764", "\ufe0f", "\U0001F469", "\u200d",
    "\U0001F4BB", "\U0001F600", "1", "#", "\u20e3", "\U0001F996", "\u2615", "\U0001F44E",
    "a", "Z", " ", "\n", "!",
]


@settings(max_examples=400)
@given(
    st.sampled_from(SUBSTITUTION_LEXICONS),
    st.lists(st.sampled_from(SUBSTITUTION_ALPHABET), max_size=24).map("".join),
)
def test_substitution_matches_alternation_reference(lexicon, text):
    assert substitute_emojis(text, lexicon) == reference_substitute_emojis(text, lexicon)


@settings(max_examples=200)
@given(st.text(max_size=30))
def test_substitution_matches_reference_on_any_text(text):
    for lexicon in SUBSTITUTION_LEXICONS:
        assert substitute_emojis(text, lexicon) == reference_substitute_emojis(text, lexicon)


def test_emoji_lexicon_prepares_scan_on_first_use():
    lexicon = select_frequent(load_builtin_emoji_lexicon())
    assert "_scanner" not in vars(lexicon)
    substitute_emojis("plain text", lexicon)
    assert "_scanner" in vars(lexicon)
