"""The package's public surface: a change to it shows up as a diff here."""

import reviewsent

PUBLIC_NAMES = [
    "AppRecord",
    "Archive",
    "EmojiEntry",
    "EmojiLexicon",
    "Lexicon",
    "LexiconError",
    "Polarity",
    "Release",
    "Review",
    "SentimentScore",
    "__version__",
    "combine",
    "import_releases",
    "load_archive",
    "load_builtin_emoji_lexicon",
    "load_builtin_lexicon",
    "load_emoji_lexicon",
    "load_lexicon",
    "load_lexicon_manifest",
    "polarity_class",
    "save_archive",
    "score_review",
    "score_text",
    "select_frequent",
    "substitute_emojis",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(reviewsent.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(reviewsent, name)] == []
