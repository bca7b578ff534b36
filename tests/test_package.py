"""The package's public surface: a change to it shows up as a diff here."""

import importlib

import pytest

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


def test_each_public_name_is_its_home_modules_object():
    for name in PUBLIC_NAMES:
        if name == "__version__":
            continue
        value = getattr(reviewsent, name)
        home = importlib.import_module(value.__module__)
        assert home is not reviewsent and getattr(home, name) is value, name


def test_combine_stays_the_function_after_submodule_imports():
    # ``combine`` names both a function and the submodule that defines it:
    # importing other submodules must not rebind the package attribute
    import reviewsent.engine
    import reviewsent.store

    assert reviewsent.combine is importlib.import_module("reviewsent.combine").combine


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        reviewsent.no_such_name
