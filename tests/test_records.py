"""The contract of every record type: how it checks, copies, pickles and prints.

Each record is a NamedTuple; a checked one is a subclass whose ``__new__``
checks the values. Whichever way a record is built, an invalid value
raises the same exception with the same text, each record gets its own
default dicts, its fields are read-only, it survives ``pickle``, and its
``repr`` names each field.
"""

import datetime as dt
import pickle
from array import array

import pytest

from reviewsent.analytics import (
    CategorySummary,
    CorrelationResult,
    DispersionStats,
    RatingSummary,
    Topic,
    TopicRow,
)
from reviewsent.combine import SentimentScore
from reviewsent.emojis import EmojiEntry, EmojiLexicon, EmojiLexiconError
from reviewsent.lexicon import Lexicon, LexiconError
from reviewsent.store import AppRecord, ArchiveError, Release, Review, ScoredView
from reviewsent.temporal import PatternConfig, ReleaseImpact, WeeklySeries

DAY = dt.date(2016, 1, 4)
SMILE = EmojiEntry("\U0001F600", 120, 1)

# type, (field, value) pairs in declaration order, and the repr of that record
RECORDS = [
    (
        SentimentScore,
        [("positive", 3), ("negative", -2)],
        "SentimentScore(positive=3, negative=-2)",
    ),
    (
        AppRecord,
        [
            ("app_id", "a1"), ("name", "App"), ("primary_category", "Games"),
            ("price", 0.99), ("current_version", "1.0"), ("raw_details", {"k": 1}),
        ],
        "AppRecord(app_id='a1', name='App', primary_category='Games', price=0.99, "
        "current_version='1.0', raw_details={'k': 1})",
    ),
    (
        Review,
        [
            ("review_id", "r1"), ("app_id", "a1"), ("author", "u"), ("title", "t"),
            ("body", "b"), ("rating", 4), ("date", DAY), ("helpful_votes", 2),
            ("app_version", "1.0"), ("raw", {}),
        ],
        "Review(review_id='r1', app_id='a1', author='u', title='t', body='b', rating=4, "
        "date=datetime.date(2016, 1, 4), helpful_votes=2, app_version='1.0', raw={})",
    ),
    (
        Release,
        [("app_id", "a1"), ("version", "2.0"), ("date", DAY), ("notes", "n")],
        "Release(app_id='a1', version='2.0', date=datetime.date(2016, 1, 4), notes='n')",
    ),
    (
        EmojiEntry,
        [("emoji", "\U0001F600"), ("occurrences", 120), ("polarity", 1)],
        "EmojiEntry(emoji='\U0001F600', occurrences=120, polarity=1)",
    ),
    (
        EmojiLexicon,
        [("entries", (SMILE,))],
        "EmojiLexicon(entries=(EmojiEntry(emoji='\U0001F600', occurrences=120, polarity=1),))",
    ),
    (
        Lexicon,
        [
            ("sentiment_terms", {"good": 3}), ("boosters", {"very": 1}),
            ("emoticons", {":)": 2}), ("slang", {"gr8": "great"}),
        ],
        "Lexicon(sentiment_terms={'good': 3}, boosters={'very': 1}, emoticons={':)': 2}, "
        "slang={'gr8': 'great'})",
    ),
    (
        PatternConfig,
        [
            ("jump_threshold", 2.0), ("window", 3), ("slope_threshold", 0.03),
            ("fit_threshold", 0.5), ("low_variance", 0.5), ("min_weekly_reviews", 1),
        ],
        "PatternConfig(jump_threshold=2.0, window=3, slope_threshold=0.03, "
        "fit_threshold=0.5, low_variance=0.5, min_weekly_reviews=1)",
    ),
    (
        WeeklySeries,
        [
            ("app_id", "a1"), ("start_date", DAY), ("n_reviews", (2, 0)),
            ("mean_combined", (1.5, None)), ("mean_length", (10.0, None)),
            ("releases", ((0, "2.0"),)),
        ],
        "WeeklySeries(app_id='a1', start_date=datetime.date(2016, 1, 4), n_reviews=(2, 0), "
        "mean_combined=(1.5, None), mean_length=(10.0, None), releases=((0, '2.0'),))",
    ),
    (
        ScoredView,
        [
            ("rating", array("b", [4])), ("day", array("i", [736000])),
            ("combined", array("b", [-128])), ("text_length", array("q", [12])),
            ("apps", ["a1"]), ("category", ["Games"]), ("price", [0.0]),
            ("starts", [0, 1]), ("releases", [("a1", "2.0", 736000)]),
        ],
        "ScoredView(rating=array('b', [4]), day=array('i', [736000]), "
        "combined=array('b', [-128]), text_length=array('q', [12]), apps=['a1'], "
        "category=['Games'], price=[0.0], starts=[0, 1], releases=[('a1', '2.0', 736000)])",
    ),
    (
        CategorySummary,
        [
            ("category", "Games"), ("n_free", 1), ("n_paid", 2), ("n_scored", 3),
            ("mean", None), ("sd", 0.5), ("median", 1.0), ("share_positive", 0.25),
            ("share_neutral", 0.25), ("share_negative", 0.25), ("share_undefined", 0.25),
        ],
        "CategorySummary(category='Games', n_free=1, n_paid=2, n_scored=3, mean=None, "
        "sd=0.5, median=1.0, share_positive=0.25, share_neutral=0.25, share_negative=0.25, "
        "share_undefined=0.25)",
    ),
    (
        RatingSummary,
        [
            ("rating", 5), ("n", 4), ("minimum", -1.0), ("q1", 1.0), ("median", 2.0),
            ("q3", 3.0), ("maximum", 5.0), ("whisker_low", -1.0), ("whisker_high", 5.0),
            ("n_outliers", 0), ("n_strong_negative", 0),
        ],
        "RatingSummary(rating=5, n=4, minimum=-1.0, q1=1.0, median=2.0, q3=3.0, "
        "maximum=5.0, whisker_low=-1.0, whisker_high=5.0, n_outliers=0, n_strong_negative=0)",
    ),
    (
        CorrelationResult,
        [("pearson", 0.5), ("spearman", 0.25), ("n", 9)],
        "CorrelationResult(pearson=0.5, spearman=0.25, n=9)",
    ),
    (
        DispersionStats,
        [("n", 3), ("value_range", 4.0), ("iqr", 2.0), ("sd", 1.5)],
        "DispersionStats(n=3, value_range=4.0, iqr=2.0, sd=1.5)",
    ),
    (
        TopicRow,
        [("row_id", "1"), ("topic", Topic.RATING), ("title", "t"), ("body", "b")],
        "TopicRow(row_id='1', topic=<Topic.RATING: 'Rating'>, title='t', body='b')",
    ),
    (
        ReleaseImpact,
        [
            ("pre_mean", 1.0), ("post_mean", None), ("delta", None), ("pre_volume", 2.0),
            ("post_volume", 0.0), ("pre_length", 12.5), ("post_length", None),
            ("truncated", True),
        ],
        "ReleaseImpact(pre_mean=1.0, post_mean=None, delta=None, pre_volume=2.0, "
        "post_volume=0.0, pre_length=12.5, post_length=None, truncated=True)",
    ),
]

# a checked type, one field and an invalid value for it, and what building raises
INVALID = [
    (SentimentScore, "positive", 0, ValueError, "positive strength 0 outside [1,5]"),
    (SentimentScore, "negative", 0, ValueError, "negative strength 0 outside [-5,-1]"),
    (SentimentScore, "positive", True, ValueError, "score: positive must be int, not bool"),
    (SentimentScore, "negative", -2.0, ValueError, "score: negative must be int, not float"),
    (AppRecord, "app_id", "", ArchiveError, "app_id must be nonempty"),
    (AppRecord, "price", float("nan"), ArchiveError, "app a1: price nan is not finite"),
    (AppRecord, "price", -1.0, ArchiveError, "app a1: price -1.0 < 0"),
    (AppRecord, "app_id", 7, ArchiveError, "app 7: app_id must be str, not int"),
    (AppRecord, "name", None, ArchiveError, "app a1: name must be str, not NoneType"),
    (AppRecord, "price", 0, ArchiveError, "app a1: price must be float, not int"),
    (AppRecord, "current_version", 1.0, ArchiveError,
     "app a1: current_version must be str, not float"),
    (Review, "app_id", "", ArchiveError, "review_id and app_id must be nonempty"),
    (Review, "rating", 6, ArchiveError, "review r1: rating 6 outside [1,5]"),
    (Review, "helpful_votes", -1, ArchiveError, "review r1: helpful_votes -1 < 0"),
    (Review, "review_id", 7, ArchiveError, "review 7: review_id must be str, not int"),
    (Review, "app_id", 7, ArchiveError, "review r1: app_id must be str, not int"),
    (Review, "title", None, ArchiveError, "review r1: title must be str, not NoneType"),
    (Review, "rating", True, ArchiveError, "review r1: rating must be int, not bool"),
    (Review, "rating", 4.0, ArchiveError, "review r1: rating must be int, not float"),
    (Review, "date", dt.datetime(2016, 1, 4), ArchiveError,
     "review r1: date must be date, not datetime"),
    (Review, "date", "2016-01-04", ArchiveError, "review r1: date must be date, not str"),
    (Review, "helpful_votes", True, ArchiveError,
     "review r1: helpful_votes must be int, not bool"),
    (Review, "app_version", None, ArchiveError,
     "review r1: app_version must be str, not NoneType"),
    (Release, "version", "", ArchiveError, "release app_id and version must be nonempty"),
    (Release, "app_id", 7, ArchiveError, "release 7 2.0: app_id must be str, not int"),
    (Release, "date", dt.datetime(2016, 1, 4), ArchiveError,
     "release a1 2.0: date must be date, not datetime"),
    (Release, "notes", None, ArchiveError, "release a1 2.0: notes must be str, not NoneType"),
    (EmojiEntry, "emoji", "", EmojiLexiconError, "empty emoji codepoint sequence"),
    (EmojiEntry, "occurrences", -1, EmojiLexiconError,
     "negative occurrence count for '\U0001F600'"),
    (EmojiEntry, "polarity", 2, EmojiLexiconError, "polarity 2 for '\U0001F600' not in {-1, 0, 1}"),
    (EmojiLexicon, "entries", (SMILE, SMILE), EmojiLexiconError, "duplicate emoji '\U0001F600'"),
    (Lexicon, "slang", {"": "x"}, LexiconError, "empty terms are not allowed"),
    (Lexicon, "sentiment_terms", {"good": 0}, LexiconError,
     "sentiment term 'good' has score 0, expected [-5,-1] or [1,5]"),
    (Lexicon, "boosters", {"very": 3}, LexiconError, "booster 'very' has boost 3, expected [-2,2]"),
    (Lexicon, "emoticons", {":)": 6}, LexiconError,
     "emoticon ':)' has score 6, expected [-5,-1] or [1,5]"),
    (Lexicon, "slang", {"gr8": ""}, LexiconError, "slang 'gr8' maps to an empty term"),
    (Lexicon, "boosters", {"good": 1}, LexiconError,
     "terms present in both sentiment and booster dictionaries: ['good']"),
    (Lexicon, "sentiment_terms", {"good": 2.5}, LexiconError,
     "sentiment term 'good' has score 2.5, expected an int"),
    (Lexicon, "sentiment_terms", {"good": True}, LexiconError,
     "sentiment term 'good' has score True, expected an int"),
    (Lexicon, "boosters", {"very": 1.0}, LexiconError,
     "booster 'very' has boost 1.0, expected an int"),
    (Lexicon, "emoticons", {":)": True}, LexiconError,
     "emoticon ':)' has score True, expected an int"),
    (PatternConfig, "jump_threshold", float("nan"), ValueError, "jump_threshold must be > 0"),
    (PatternConfig, "window", 0, ValueError, "window must be >= 1"),
    (PatternConfig, "slope_threshold", 0.0, ValueError, "slope_threshold must be > 0"),
    (PatternConfig, "fit_threshold", 1.5, ValueError, "fit_threshold must be in [0,1]"),
    (PatternConfig, "low_variance", -0.1, ValueError, "low_variance must be >= 0"),
    (PatternConfig, "min_weekly_reviews", 0, ValueError, "min_weekly_reviews must be >= 1"),
    (WeeklySeries, "mean_length", (10.0,), ValueError, "weekly columns differ in length"),
    (WeeklySeries, "mean_combined", (1.5, 0.0), ValueError,
     "a week's mean must be absent exactly when it is empty"),
]

# a checked type, the fields it may be built without, and the dict each defaults to
DICT_DEFAULTS = [
    (AppRecord, ["current_version", "raw_details"], ["raw_details"]),
    (Review, ["helpful_votes", "app_version", "raw"], ["raw"]),
    (Lexicon, ["sentiment_terms", "boosters", "emoticons", "slang"],
     ["sentiment_terms", "boosters", "emoticons", "slang"]),
]

FIELDS = {cls: fields for cls, fields, _ in RECORDS}


def _record(cls):
    return cls(**dict(FIELDS[cls]))


def _ids(cases):
    return [case[0].__name__ for case in cases]


def _invalid_id(cls, field, value, *_):
    """``Type.field``, then each type in ``value`` (or in the mapping
    ``value``'s values) that the field's valid value does not hold."""
    valid = dict(FIELDS[cls])[field]
    if isinstance(valid, dict):
        value, valid = value.values(), valid.values()
    else:
        value, valid = [value], [valid]
    odd = sorted({type(v).__name__ for v in value} - {type(v).__name__ for v in valid})
    return "-".join([f"{cls.__name__}.{field}", *odd])


@pytest.mark.parametrize(
    "cls, field, value, error, message",
    INVALID,
    ids=[_invalid_id(*case) for case in INVALID],
)
def test_every_way_of_building_checks_the_same(cls, field, value, error, message):
    kwargs = dict(FIELDS[cls], **{field: value})
    values = list(kwargs.values())
    for build in (
        lambda: cls(*values),
        lambda: cls(**kwargs),
        lambda: cls._make(values),
        lambda: _record(cls)._replace(**{field: value}),
    ):
        with pytest.raises(error) as caught:
            build()
        assert type(caught.value) is error
        assert str(caught.value) == message


@pytest.mark.parametrize("cls, fields, repr_text", RECORDS, ids=_ids(RECORDS))
def test_positional_keyword_make_and_replace_agree(cls, fields, repr_text):
    record = _record(cls)
    values = [value for _, value in fields]
    assert cls(*values) == record
    assert cls._make(values) == record
    assert type(cls._make(values)) is cls
    changed = record._replace(**dict([fields[0]]))
    assert type(changed) is cls
    assert changed == record
    assert changed is not record


@pytest.mark.parametrize("cls, optional, dicts", DICT_DEFAULTS, ids=_ids(DICT_DEFAULTS))
def test_each_record_gets_its_own_default_dicts(cls, optional, dicts):
    kwargs = {name: value for name, value in FIELDS[cls] if name not in optional}
    first, second = cls(**kwargs), cls(**kwargs)
    for name in dicts:
        assert getattr(first, name) == {}
        assert getattr(first, name) is not getattr(second, name)
        assert type(getattr(first, name)) is dict
    # an explicit value is kept as it is, even one that is not a dict
    if cls is not Lexicon:  # whose maps are checked
        assert getattr(cls(**kwargs, **{dicts[0]: None}), dicts[0]) is None


@pytest.mark.parametrize("cls, fields, repr_text", RECORDS, ids=_ids(RECORDS))
def test_fields_are_read_only(cls, fields, repr_text):
    record = _record(cls)
    for name, value in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert record == _record(cls)


@pytest.mark.parametrize("cls, fields, repr_text", RECORDS, ids=_ids(RECORDS))
def test_pickle_round_trips(cls, fields, repr_text):
    record = _record(cls)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is cls
        assert copy == record
        assert [getattr(copy, name) for name, _ in fields] == [value for _, value in fields]


@pytest.mark.parametrize("cls, fields, repr_text", RECORDS, ids=_ids(RECORDS))
def test_repr_names_each_field(cls, fields, repr_text):
    assert repr(_record(cls)) == repr_text


def test_lexicon_caches_stay_per_instance():
    # the scorer's memo and the emoji scanner live in the record's __dict__:
    # a copy made with _replace starts empty
    lexicon = _record(Lexicon)
    memo = lexicon._compiled.chunks
    memo["x"] = None
    assert lexicon._compiled.chunks is memo
    assert lexicon._replace()._compiled.chunks == {}
    emojis = _record(EmojiLexicon)
    assert emojis._polarity_by_emoji == {"\U0001F600": 1}
    # its length counts the entries, not its one field
    assert len(emojis) == 1 and len(EmojiLexicon((SMILE, EmojiEntry(":)", 0, 0)))) == 2
    assert pickle.loads(pickle.dumps(emojis))._scanner is not None
