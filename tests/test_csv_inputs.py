"""The contract shared by the three CSV inputs: emoji lexicon, releases
and labeled topics.

Each reader checks the header trimmed and case-insensitive, skips blank
rows while still counting them in line numbers, and reports a row of the
wrong width at the file line where it starts. The emoji lexicon stops at
that row; releases and topics reject it and read on.
"""

import io
from dataclasses import dataclass
from typing import Callable

import pytest

from reviewsent.analytics import parse_topic_rows
from reviewsent.emojis import EmojiLexiconError, load_emoji_lexicon
from reviewsent.store import ArchiveError, import_releases


def _emojis(stream):
    return [entry.emoji for entry in load_emoji_lexicon(stream).entries], []


def _releases(stream):
    releases, rejects = import_releases(stream)
    return [release.version for release in releases], rejects


def _topics(stream):
    rows, rejects = parse_topic_rows(stream)
    return [row.row_id for row in rows], rejects


@dataclass(frozen=True)
class Reader:
    read: Callable  # stream -> (keys of accepted rows, rejects)
    header: str
    rows: tuple[str, str]  # two valid data rows
    keys: list[str]  # what ``read`` returns for those two rows
    spanning: str  # the first row again, with one field quoted across two lines
    error: type
    empty: str  # the whole message for an empty input
    aborts: bool  # a row of the wrong width raises instead of being rejected

    @property
    def width(self) -> int:
        return len(self.header.split(","))


READERS = {
    "emoji_lexicon": Reader(
        _emojis,
        "emoji,occurrences,polarity",
        ("😀,500,1", "😡,400,-1"),
        ["😀", "😡"],
        '😀,"500\n",1',
        EmojiLexiconError,
        "empty stream, expected a header row",
        aborts=True,
    ),
    "releases": Reader(
        _releases,
        "app_id,version,date,notes",
        ("app1,1.0,2016-01-01,first", "app1,1.1,2016-02-01,second"),
        ["1.0", "1.1"],
        'app1,1.0,2016-01-01,"first\nline"',
        ArchiveError,
        "empty release file, expected a header row",
        aborts=False,
    ),
    "labeled_topics": Reader(
        _topics,
        "id,topic,title,body",
        ("t1,BugReport,crash,on start", "t2,Rating,five,stars"),
        ["t1", "t2"],
        't1,BugReport,crash,"on\nstart"',
        ValueError,
        "empty labeled file, expected a header row",
        aborts=False,
    ),
}


def _raises(reader: Reader, text: str) -> str:
    with pytest.raises(reader.error) as excinfo:
        reader.read(io.StringIO(text))
    assert type(excinfo.value) is reader.error
    return str(excinfo.value)


@pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
def test_csv_reader_contract(reader):
    first, second = reader.rows

    assert _raises(reader, "") == reader.empty

    wrong = ",".join(reversed(reader.header.split(",")))
    assert _raises(reader, f"{wrong}\n{first}\n") == (
        f"expected header '{reader.header}', got '{wrong}'"
    )

    padded = ", ".join(f" {column.upper()}" for column in reader.header.split(",")) + " "
    assert reader.read(io.StringIO(f"{padded}\n{first}\n{second}\n")) == (reader.keys, [])

    # lines: 1 header, 2 blank, 3 spaces, 4 first, 5 tab, 6 second
    blanks = f"{reader.header}\n\n   \n{first}\n\t\n{second}\n"
    assert reader.read(io.StringIO(blanks)) == (reader.keys, [])

    for width in (2, reader.width + 1):
        # lines: 1 header, 2 blank, 3 first, 4 bad width, 5 second
        text = f"{reader.header}\n\n{first}\n{','.join(['x'] * width)}\n{second}\n"
        if reader.aborts:
            assert _raises(reader, text) == (
                f"line 4: expected {reader.width} columns, got {width}"
            )
        else:
            assert reader.read(io.StringIO(text)) == (
                reader.keys,
                [(4, f"expected {reader.width} columns, got {width}")],
            )

    # lines: 1 header, 2-3 first, 4 bad width, 5 second
    text = f"{reader.header}\n{reader.spanning}\n{','.join(['x'] * 2)}\n{second}\n"
    if reader.aborts:
        assert _raises(reader, text) == f"line 4: expected {reader.width} columns, got 2"
    else:
        assert reader.read(io.StringIO(text)) == (
            reader.keys,
            [(4, f"expected {reader.width} columns, got 2")],
        )
