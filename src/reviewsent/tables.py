"""The CSV format of every table the package reads or writes.

Input headers are compared trimmed and lowercased; blank rows are
skipped but counted, so messages carry file line numbers. Reports end
lines with ``"\\n"`` and print floats with six decimals.
"""

from __future__ import annotations

import csv
from typing import IO, Callable, Iterator


def read_rows(
    stream: IO[str],
    header: list[str],
    what: str,
    error: Callable[[str], Exception],
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(first line number, row)`` for each nonblank row after ``header``.

    ``error`` builds the exception for an empty ``what`` or a wrong header.
    """
    reader = csv.reader(stream)
    try:
        found = next(reader)
    except StopIteration:
        raise error(f"empty {what}, expected a header row") from None
    if [column.strip().lower() for column in found] != header:
        raise error(f"expected header '{','.join(header)}', got {','.join(found)!r}")
    # a quoted field may span lines: a row starts on the line after the last one read
    lineno = reader.line_num + 1
    for row in reader:
        if row and (len(row) > 1 or row[0].strip()):
            yield lineno, row
        lineno = reader.line_num + 1


def writer(stream: IO[str]):
    """A ``csv.writer`` that ends every line with ``"\\n"``."""
    return csv.writer(stream, lineterminator="\n")


def fmt(value: float | None) -> str:
    """A report cell: six decimals, or empty for an absent value."""
    return "" if value is None else f"{value:.6f}"
