"""Lexicon-based dual-polarity sentiment analysis for app store reviews.

The pipeline: load a lexicon, rewrite emojis to emoticon tokens, score
each review with a positive strength in [1,5] and a negative strength
in [-5,-1], reduce the pair to one combined sentiment on the -5..+5
scale, then analyze archives: per-category statistics, correlations
with rating and price, per-topic dispersion, and weekly emotion
patterns aligned with release dates.
"""

from .combine import Polarity, combine, polarity_class
from .emojis import (
    EmojiEntry,
    EmojiLexicon,
    load_builtin_emoji_lexicon,
    load_emoji_lexicon,
    select_frequent,
    substitute_emojis,
)
from .engine import SentimentScore, score_review, score_text
from .lexicon import (
    Lexicon,
    LexiconError,
    load_builtin_lexicon,
    load_lexicon,
    load_lexicon_manifest,
)
from .store import (
    AppRecord,
    Archive,
    Release,
    Review,
    import_releases,
    load_archive,
    save_archive,
)

__version__ = "0.1.0"

__all__ = [
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
    "__version__",
]
