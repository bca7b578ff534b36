"""Lexicon-based dual-polarity sentiment analysis for app store reviews.

The pipeline: load a lexicon, rewrite emojis to emoticon tokens, score
each review with a positive strength in [1,5] and a negative strength
in [-5,-1], reduce the pair to one combined sentiment on the -5..+5
scale, then analyze archives: per-category statistics, correlations
with rating and price, per-topic dispersion, and weekly emotion
patterns aligned with release dates.

Each public name loads its submodule on first use (PEP 562), so code
that only reads archives never loads the scorer, and a bare ``import
reviewsent`` binds no submodule as an attribute until it is imported.
"""

from importlib import import_module

# the function shares its name with its leaf submodule; importing it here
# keeps ``reviewsent.combine`` the function
from .combine import combine

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    "AppRecord": "store",
    "Archive": "store",
    "EmojiEntry": "emojis",
    "EmojiLexicon": "emojis",
    "Lexicon": "lexicon",
    "LexiconError": "lexicon",
    "Polarity": "combine",
    "Release": "store",
    "Review": "store",
    "SentimentScore": "combine",
    "combine": "combine",
    "import_releases": "store",
    "load_archive": "store",
    "load_builtin_emoji_lexicon": "emojis",
    "load_builtin_lexicon": "lexicon",
    "load_emoji_lexicon": "emojis",
    "load_lexicon": "lexicon",
    "load_lexicon_manifest": "lexicon",
    "polarity_class": "combine",
    "save_archive": "store",
    "score_review": "engine",
    "score_text": "engine",
    "select_frequent": "emojis",
    "substitute_emojis": "emojis",
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    # an unknown name must raise AttributeError: ``from reviewsent import
    # engine`` then falls back to importing the submodule
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{home}", __name__), name)
