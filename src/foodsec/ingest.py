"""Readers and the one writer of the pipeline's CSV interchange files.

All files are UTF-8 (a file that is not is a :class:`FormatError`),
comma-separated, header row mandatory. Timestamps are
ISO 8601; a trailing ``Z`` or an explicit offset is accepted, and each is
read as one int64 of UTC microseconds since 1970-01-01, on which the
observation period is checked. Monetary amounts stay exact: a top-up file
whose every amount is written ``D+.DD`` is carried as int64 cents, any
other as ``Decimal`` values (see :class:`TopUpColumns`), and so is a money
column of ``user_features.csv``; :func:`_money_column` decides the layout
once, from the amounts of the whole column.

``cdr.csv`` and ``topup.csv`` are read in one pass each into int-coded
columns (:class:`CallColumns`, :class:`TopUpColumns`): IDs are interned to
codes in first-seen order, and each call keeps only what the features use,
its codes and whether its local time of day fell in the night window.

The data readers (``survey.csv`` too) share one chunk reader,
:func:`_read_chunks`, which owns the row structure: blank lines, the
header's field count, empty IDs and line numbers. A chunk free of quotes,
carriage returns, NULs and such row faults is split in bulk, any other
goes through the csv row loop; either way one typed rule per reader, built
on :func:`_timestamps` and :func:`_numbers`, turns the rows' field texts
into columns and names the rows it refuses, so a timestamp of the fixed
layout is decoded in bulk on both paths. An open handle should split lines
as the csv module asks (``newline=""``): a row-wise chunk ends a line at a
lone carriage return, as a file the reader opens itself does.

Malformed data rows are quarantined into a :class:`RowErrorLog` and parsing
continues; structural problems (bad header, conflicting tower map rows) raise
:class:`FormatError`. ``records_out + row_errors == data_rows_in`` always
holds: no row is silently dropped.

Every other file, the small inputs and the files the stages hand each other,
goes through the same chunk reader as string columns (:func:`read_table`),
and its numbers through :func:`parse_number`, :func:`parse_column` or
:func:`parse_money`: exact header, blank lines skipped, the header's field
count on every row, and numbers finite and written without ``_``. Any
breach there is a :class:`FormatError`, as is a field over the csv field
limit in any file.
"""

from __future__ import annotations

import csv
import io
import logging
import re
from array import array
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from datetime import datetime, time, timedelta, timezone
from decimal import Decimal, InvalidOperation
from itertools import chain, compress, islice
from math import isfinite, isinf, nan
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .config import ConfigError

log = logging.getLogger(__name__)

CDR_HEADER = ["caller_id", "callee_id", "tower_id", "timestamp"]
TOPUP_HEADER = ["user_id", "amount", "timestamp"]
TOWER_HEADER = ["tower_id", "sector_id"]
POVERTY_HEADER = ["sector_id", "headcount", "intensity"]
SURVEY_META_HEADER = ["variable", "category"]
SURVEY_ID_COLUMNS = ["household_id", "sector_id"]

#: Allowed survey variable category tags.
SURVEY_CATEGORIES = frozenset({"V1", "V2", "V3", "food_group", "poverty"})


class FormatError(Exception):
    """Fatal problem with an input file: bad header, conflicting rows, etc."""


class StrictModeError(FormatError):
    """A quarantined row error promoted to fatal under strict mode."""


#: Night window for home-tower detection: 18:00-08:00 local time.
DEFAULT_NIGHT_WINDOW = (time(18, 0), time(8, 0))


@dataclass(frozen=True)
class CallColumns:
    """``cdr.csv`` as columns, one entry per accepted row in file order.

    Callers and callees share one code space, ``users[code]`` being the ID;
    towers have their own. Codes number IDs in first-seen order. ``night``
    marks calls whose local time of day falls in the night window.
    """

    users: list[str]
    towers: list[str]
    caller: np.ndarray  # int32 codes into users
    callee: np.ndarray  # int32 codes into users
    tower: np.ndarray  # int32 codes into towers
    night: np.ndarray  # bool

    def __len__(self) -> int:
        return len(self.caller)


@dataclass(frozen=True)
class TopUpColumns:
    """``topup.csv`` as columns, one entry per accepted row in file order.

    ``amount`` is a money column: int64 cents when every amount in the file
    is written ``D+.DD`` and their total stays below 2**53 cents, else an
    object array of the exact ``Decimal`` values. The layout is decided per
    file because a ``Decimal`` keeps its exponent: ``10`` + ``10.00`` prints
    differently from ``10.00`` + ``10.00``.
    """

    users: list[str]
    user: np.ndarray  # int32 codes into users, first-seen order
    day: np.ndarray  # int32 ordinal of the UTC date (date.toordinal)
    amount: np.ndarray  # money column

    def __len__(self) -> int:
        return len(self.user)


# Money columns hold int64 cents or Decimal objects; the functions below are
# the only places that tell the two apart.

#: amounts written D+.DD with at most 15 integer digits, one per line
_CENTS_LINES = re.compile(r"(?:[0-9]{1,15}\.[0-9]{2}\n)*")
#: a cents column's total stays below this, so every partial sum is exact in float64
_CENTS_LIMIT = 2**53
_scaled = np.frompyfunc(lambda cents: Decimal(cents).scaleb(-2), 1, 1)


def _money(texts: list[str]) -> tuple[np.ndarray, dict[int, str]]:
    """The amounts as int64 cents if each is written ``D+.DD``, else as
    ``Decimal`` objects, and the faulty ones as :func:`_numbers` gives them."""
    joined = "\n".join(texts) + "\n"  # a quoted text may hold a newline of its own
    if _CENTS_LINES.fullmatch(joined) and joined.count("\n") == len(texts):
        return np.fromstring(joined.replace(".", ""), dtype=np.int64, sep="\n"), {}
    values, faults = _numbers(texts, Decimal)
    return np.array(values, dtype=object), faults


def money_decimals(values: np.ndarray) -> np.ndarray:
    """A money column (any shape) as ``Decimal`` objects; cents come with two
    decimal places, as ``Decimal`` reads them from their text."""
    return values if values.dtype == object else _scaled(values.astype(object))


def money_floats(values: np.ndarray) -> np.ndarray:
    """A money column as float64, each value correctly rounded."""
    # below 2**53 cents both operands are exact, so the quotient rounds once
    return values.astype(np.float64) if values.dtype == object else values / 100


def money_texts(values: np.ndarray) -> Iterator[str]:
    """A money column printed as ``str(Decimal)`` prints it."""
    if values.dtype == object:
        return map(str, values)
    whole, cents = np.divmod(values, 100)
    return (f"{w}.{c:02d}" for w, c in zip(whole.tolist(), cents.tolist()))


def money_zeros(shape, like: np.ndarray) -> np.ndarray:
    """Zeros of ``like``'s money type: 0 cents, or ``Decimal(0)``, whose
    exponent 0 then shows in a sum of nothing."""
    return np.full(shape, Decimal(0) if like.dtype == object else 0, dtype=like.dtype)


def _money_column(parts: list[np.ndarray]) -> np.ndarray:
    """The accepted amounts of a file, given as the money arrays of its
    batches, as one column: int64 cents when every part is cents and their
    total stays below the limit, else ``Decimal`` values."""
    # the total is of Python ints: an int64 sum could wrap
    if all(p.dtype != object for p in parts) and sum(sum(p.tolist()) for p in parts) < _CENTS_LIMIT:
        return np.concatenate(parts) if parts else np.zeros(0, np.int64)
    return np.concatenate([money_decimals(p) for p in parts])


@dataclass(frozen=True)
class RowError:
    line: int
    message: str


@dataclass
class RowErrorLog:
    """Collects per-row parse errors; in strict mode the first error raises."""

    strict: bool = False
    keep: int = 50
    count: int = 0
    errors: list[RowError] = field(default_factory=list)

    def report(self, line: int, message: str) -> None:
        self.count += 1
        if len(self.errors) < self.keep:
            self.errors.append(RowError(line, message))
        if self.strict:
            raise StrictModeError(f"line {line}: {message}")

    def summary(self) -> str:
        if not self.count:
            return "no row errors"
        first = "; ".join(f"line {e.line}: {e.message}" for e in self.errors[:5])
        return f"{self.count} row error(s), first: {first}"


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO 8601 timestamp to a naive UTC datetime; ValueError if it
    is none, or if its UTC time falls outside years 1..9999."""
    dt = datetime.fromisoformat(text[:-1] if text.endswith(("Z", "z")) else text)
    if dt.tzinfo is not None:
        try:
            dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
        except OverflowError:
            raise ValueError(f"{text!r} is outside the UTC range") from None
    return dt


@contextmanager
def _open_text(source) -> Iterator[IO[str]]:
    """``source`` as a ``with`` target: an open handle is left open on exit,
    a path is opened and then closed. Text in it that is not UTF-8 is a
    :class:`FormatError` naming the file."""
    is_handle = hasattr(source, "read")
    try:
        with nullcontext(source) if is_handle else open(source, encoding="utf-8", newline="") as f:
            yield f
    except UnicodeDecodeError as exc:
        name = getattr(source, "name", "input") if is_handle else source
        raise FormatError(f"{name}: not UTF-8 text ({exc.reason})") from None


#: Characters read per chunk; a chunk then runs on to the end of its last line.
_CHUNK_CHARS = 1 << 15

_NL = ord("\n")
_EPOCH = datetime(1970, 1, 1)
_EPOCH_DAY = _EPOCH.toordinal()
_US = timedelta(microseconds=1)
_DAY_US = 86_400 * 10**6
# A timestamp of the fixed layout YYYY-MM-DDTHH:MM:SSZ, the Z folded to lower
# case. Byte bounds check the layout and the tens digits of month, day, hour,
# minute and second, so minute and second are in range.
_TS_WIDTH = 20
_TS_LO = np.frombuffer(b"0000-00-00T00:00:00z", np.uint8)
_TS_HI = np.frombuffer(b"9999-19-39T29:59:59z", np.uint8)
# digit place values giving year, month, day and microsecond of the day
_TS_PLACES = np.zeros((19, 4))
_TS_PLACES[0:4, 0] = 1000, 100, 10, 1
_TS_PLACES[5:7, 1] = 10, 1
_TS_PLACES[8:10, 2] = 10, 1
_TS_PLACES[[11, 12, 14, 15, 17, 18], 3] = np.array([36_000, 3_600, 600, 60, 10, 1]) * 10**6
_TS_ZERO = ord("0") * _TS_PLACES.sum(axis=0)
# the bound on the microsecond of the day keeps the hour below 24
_TS_MIN = np.array([1, 1, 1, 0])
_TS_MAX = np.array([9999, 12, 31, _DAY_US - 10**6])
# calendar tables as in date.toordinal; rows of the month tables: common, leap year
_YEARS = np.arange(10_000)
_LEAP = ((_YEARS % 4 == 0) & ((_YEARS % 100 != 0) | (_YEARS % 400 == 0))).astype(np.intp)
_DAYS_BEFORE_YEAR = (
    365 * (_YEARS - 1) + (_YEARS - 1) // 4 - (_YEARS - 1) // 100 + (_YEARS - 1) // 400
)
_MONTH_DAYS = np.array([[0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31],
                        [0, 31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]])
_DAYS_BEFORE_MONTH = np.cumsum(_MONTH_DAYS, axis=1) - _MONTH_DAYS


def _split_chunk(text: str, n_fields: int, ids: int) -> list[str] | None:
    """The fields of ``text``, row after row, each line holding ``n_fields``;
    None if it holds a carriage return (a line end of its own when lone) or
    NUL (an error to csv before Python 3.11), a line with another number of
    fields (blank lines included), an empty field among the first ``ids``,
    or a field longer than the csv field limit. Quotes never get here."""
    if "\r" in text or "\0" in text:
        return None
    if n_fields == 1 and (text.startswith("\n") or "\n\n" in text):
        return None  # a blank line: with one field a line has no comma, as it has
    if not text.endswith("\n"):
        text += "\n"
    raw = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    newline = raw == _NL
    ends = np.flatnonzero(newline | (raw == ord(",")))
    rows = np.count_nonzero(newline)
    if len(ends) != rows * n_fields:
        return None
    ends = ends.reshape(rows, n_fields)
    # rows newlines, each closing a row: every line has n_fields - 1 commas
    if not (raw[ends[:, -1]] == _NL).all():
        return None
    # a row starts after the newline of the row before it
    before = np.r_[-1, ends[:-1, -1]][:, None]
    if ids and not (np.diff(ends[:, :ids], axis=1, prepend=before) > 1).all():
        return None
    limit = csv.field_size_limit()
    if len(raw) > limit and np.diff(ends.ravel(), prepend=-1).max() > limit + 1:
        return None
    fields = text.replace("\n", ",").split(",")
    fields.pop()  # after the final newline
    return fields


def _fixed_timestamps(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """UTC microseconds since 1970-01-01 of ``texts``, and whether each is a
    valid ``YYYY-MM-DDTHH:MM:SSZ`` (or ``z``); the microseconds of a text
    that is not are meaningless."""
    # numpy's own ISO parser (astype("datetime64[us]")) is not used: numpy 2.4.6
    # crashed with SIGSEGV converting 511 or more S19 stamps among which one
    # held an impossible date (2012-02-30T10:00:00)
    fits = np.fromiter(map(len, texts), np.intp, len(texts)) == _TS_WIDTH
    # one byte per character, a non-ASCII one "?"; a row of another length
    # stays zeros: both fail the bounds
    stamp = np.zeros((len(texts), _TS_WIDTH), np.uint8)
    joined = "".join(texts if fits.all() else compress(texts, fits)).encode("ascii", "replace")
    stamp[fits] = np.frombuffer(joined, np.uint8).reshape(-1, _TS_WIDTH)
    stamp[:, -1] |= 0x20
    parts = (stamp[:, :-1] @ _TS_PLACES - _TS_ZERO).astype(np.int64)
    tests = (stamp >= _TS_LO) & (stamp <= _TS_HI), (parts >= _TS_MIN) & (parts <= _TS_MAX)
    # rows are searched only when the batch as a whole fails
    fixed = tests[0].all() and tests[1].all() or tests[0].all(axis=1) & tests[1].all(axis=1)
    parts[~fixed] = _TS_MIN  # a valid date to index the tables with
    year, month, day, micros = parts.T
    leap = _LEAP[year]
    fixed = fixed & (day <= _MONTH_DAYS[leap, month])
    days = _DAYS_BEFORE_YEAR[year] + _DAYS_BEFORE_MONTH[leap, month] + day - _EPOCH_DAY
    return days * _DAY_US + micros, fixed


def _timestamps(fields: list[str], width: int, period) -> tuple[np.ndarray, dict[int, str]]:
    """UTC microseconds since 1970-01-01 of the timestamps that end the rows
    of ``width`` ``fields``, and ``{row: message}`` for those that are none
    or lie outside ``period`` (``[start, end)``) when it is given: the fixed
    layout in bulk, any other stamp alone; the period is then checked once,
    on the column."""
    texts = fields[width - 1::width]
    micros, fixed = _fixed_timestamps(texts)
    rows = [] if fixed.all() else np.flatnonzero(~fixed).tolist()
    bad = {}
    for i in rows:
        text = texts[i]
        try:
            micros[i] = (parse_timestamp(text) - _EPOCH) // _US
        except ValueError:
            bad[i] = f"unparsable timestamp {text!r}"
    if period is not None:
        start, end = ((p - _EPOCH) // _US for p in period)
        for i in np.flatnonzero((micros < start) | (micros >= end)).tolist():
            bad.setdefault(i, "timestamp outside observation period")
    return micros, bad


def _night_flags(micros, offset: timedelta, window: tuple[time, time]) -> np.ndarray:
    """Whether each local time of day falls in ``window``, half-open
    [start, end) and wrapping midnight when start > end, from UTC
    microseconds (since 1970-01-01, or of the day: only the time of day
    counts); local time is UTC + ``offset``."""
    t = (np.asarray(micros, dtype=np.int64) + offset // _US) % _DAY_US
    start, end = (((w.hour * 60 + w.minute) * 60 + w.second) * 10**6 + w.microsecond
                  for w in window)
    if start <= end:
        return (t >= start) & (t < end)
    return (t >= start) | (t < end)


def _codes() -> defaultdict[str, int]:
    """An ID table whose lookup gives each new ID the next code, in first-seen order."""
    table: defaultdict[str, int] = defaultdict()
    table.default_factory = table.__len__
    return table


@contextmanager
def _csv_errors(what: str, reader, line: int = 0) -> Iterator[None]:
    """Turn what ``reader``, whose line 1 is file line ``line + 1``, raises
    (a field longer than the csv field limit) into a :class:`FormatError`."""
    try:
        yield
    except csv.Error as exc:
        raise FormatError(f"{what}: {exc} at line {line + reader.line_num}") from None


def _header(handle: IO[str], what: str) -> tuple[list[str] | None, int]:
    """The header row and the number of lines it took (a quoted name may
    span lines)."""
    reader = csv.reader(iter(handle.readline, ""))
    with _csv_errors(what, reader):
        return next(reader, None), reader.line_num


#: Rows of a row-wise chunk, refused ones included, handled at once: few enough to stay in cache.
_TAKE_ROWS = 512


def _read_chunks(handle: IO[str], what: str, line: int, report: Callable,
                 shape: tuple[int, int, str], rule: Callable, take: Callable) -> None:
    """Read the data rows after the header, which ends at file line ``line``,
    into a reader's columns, chunk by chunk.

    ``shape`` is ``(width, ids, empty)``: the header's field count, how many
    leading ID fields may not be empty, and the row error for one that is.
    A chunk that :func:`_split_chunk` splits is one batch. Any other is read
    row by row, skipping blank lines and refusing rows of another width or
    with an empty ID, in batches of up to ``_TAKE_ROWS`` rows; so is the rest
    of the input from the first quote on, since a quoted field may hold a
    newline. ``rule(fields)`` gets a batch's fields row after row, on either
    path, and returns its columns and ``{row: message}`` for the rows it
    refuses. Refused rows go to ``report(line, message)`` in line order, the
    others to ``take(lines, *columns)`` with their file line numbers.
    """
    width, ids, empty = shape

    def batch(lines: Sequence[int], fields: list[str], faults) -> None:
        columns, refused = rule(fields) if lines else ([], {})
        if faults or refused:
            for at, message in sorted([*faults, *((lines[i], m) for i, m in refused.items())]):
                report(at, message)
        if refused:  # the spans of rows between refused ones
            cuts = [-1, *sorted(refused), len(lines)]
            spans = [slice(start + 1, end) for start, end in zip(cuts, cuts[1:])]
            lines, *columns = [np.concatenate([c[s] for s in spans]) if isinstance(c, np.ndarray)
                               else list(chain.from_iterable(c[s] for s in spans))
                               for c in (lines, *columns)]
        if lines:
            take(lines, *columns)

    while text := handle.read(_CHUNK_CHARS):
        if not text.endswith("\n"):
            text += handle.readline()
        quoted = '"' in text
        fields = None if quoted else _split_chunk(text, width, ids)
        if fields is not None:
            rows = len(fields) // width
            batch(range(line + 1, line + 1 + rows), fields, [])
            line += rows
            continue
        lines = io.StringIO(text, newline="")
        reader = csv.reader(chain(lines, handle) if quoted else lines)
        at: list[int] = []  # the line of each row of the batch
        block: list[str] = []  # the fields of the rows, row after row
        faults: list[tuple[int, str]] = []  # the rows refused since the last batch
        with _csv_errors(what, reader, line):
            try:
                for row in reader:
                    if len(row) == width and ("" not in row or all(row[:ids])):
                        at.append(line + reader.line_num)
                        block += row
                    elif row:  # not a blank line
                        faults.append((line + reader.line_num, empty if len(row) == width
                                       else f"expected {width} fields, got {len(row)}"))
                    if len(at) + len(faults) == _TAKE_ROWS:  # refused rows count too
                        batch(at, block, faults)
                        at, block, faults = [], [], []
            except csv.Error:  # a field over the limit: the rows before it come first
                batch(at, block, faults)
                raise
        batch(at, block, faults)
        line += reader.line_num


def _check_header(got: list[str] | None, want: list[str], what: str) -> None:
    if got != want:
        raise FormatError(
            f"{what}: expected header {','.join(want)!r}, got "
            f"{','.join(got) if got else '<empty file>'!r}"
        )


def read_table(source, what: str, header: list[str] | Callable,
               ids: int = 0, unique: int = 0) -> tuple[list[str], list[int], list[list[str]]]:
    """The header row, the line numbers of the data rows and their fields
    as string columns, of a CSV file that is not ``cdr``, ``topup`` or
    ``survey``.

    ``source`` is a path or an open text handle. The header must equal
    ``header``, or pass it when that is a function that raises a
    :class:`FormatError` on a wrong one; it is checked before any row is
    read. Blank lines are skipped; any other row with a field count other
    than the header's, or an empty field among the first ``ids``, raises
    :class:`FormatError` ``"{what}: malformed row at line N"``; so does a
    row whose first ``unique`` fields repeat an earlier row's, as
    ``"{what}: duplicate '...' at line N"``.
    """
    with _open_text(source) as handle:
        got, line = _header(handle, what)
        if callable(header):
            header(got)
        else:
            _check_header(got, header, what)
        width = len(got)
        lines, columns = [], [[] for _ in range(width)]

        def malformed(at: int, _message: str):  # the first bad row is fatal
            raise FormatError(f"{what}: malformed row at line {at}")

        def take(at, *cells) -> None:
            lines.extend(at)
            for column, new in zip(columns, cells):
                column.extend(new)

        _read_chunks(handle, what, line, malformed, (width, ids, ""),
                     lambda fields: ([fields[i::width] for i in range(width)], {}), take)
    seen: set = set()
    keys = columns[0] if unique == 1 else zip(*columns[:unique])  # none without a key
    for at, key in zip(lines, keys):
        if key in seen:
            raise FormatError(f"{what}: duplicate {key!r} at line {at}")
        seen.add(key)
    return got, lines, columns


#: what float, int and Decimal raise on text that is no number
_NOT_A_NUMBER = (ValueError, InvalidOperation)
#: a quick test that the numbers of each type are all finite: a float sum
#: overflows only on huge terms, which then go to the search; an int always is
_FINITE = {
    float: lambda values: isfinite(sum(values)),
    Decimal: lambda values: all(map(Decimal.is_finite, values)),
}


def _numbers(cells: Sequence[str], parse: Callable = float, optional: bool = False,
             blank=None) -> tuple[list, dict[int, str]]:
    """Each cell read by ``parse`` (float, int or Decimal), ``blank`` for a
    blank one with ``optional``, and ``{index: fault}`` in cell order for the
    cells that are no finite number written without ``_`` (``1_5`` and
    ``nan`` parse): ``"non-numeric"`` or ``"non-finite"``, their values None.
    The cells are read as a whole, and searched by halves only when that fails."""
    finite, blanks = _FINITE.get(parse), optional and not all(cells)
    try:
        values = [parse(c) if c else blank for c in cells] if blanks else list(map(parse, cells))
    except _NOT_A_NUMBER:
        values = None
    if values is not None and "_" not in "".join(cells) and (
            not finite or finite(compress(values, cells) if blanks else values)):
        return values, {}
    if len(cells) == 1:
        return [None], {0: "non-numeric" if values is None or "_" in cells[0] else "non-finite"}
    half = len(cells) // 2  # search each half
    (values, faults), (rest, more) = (_numbers(part, parse, optional, blank)
                                      for part in (cells[:half], cells[half:]))
    faults.update((half + i, fault) for i, fault in more.items())
    return values + rest, faults


def parse_number(what: str, line: int, text: str, parse: Callable = float):
    """``text`` on ``line`` read by ``parse`` (float, int or Decimal) as
    :func:`parse_column` reads a cell."""
    return parse_column(what, [line], [text], parse)[0]


def split_list(key: str, text: str) -> list[str]:
    """The entries of the comma list option ``key``, read as one CSV record
    and each stripped of the spaces around it, so that a quoted entry may
    hold a comma: ``"a,b", c`` is ``["a,b", "c"]``. Text that is not one
    record is a :class:`ConfigError`."""
    try:
        (fields,) = csv.reader([text], skipinitialspace=True)
    except csv.Error as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc
    return [f.strip() for f in fields]


def _valid(what: str, lines: Sequence[int], cells: Sequence[str], read: tuple[list, dict]):
    """The values of ``read``, the cells' ``(values, faults)``, unless a cell is faulty."""
    values, faults = read
    if faults:
        raise FormatError(f"{what}: bad number {cells[min(faults)]!r} at line {lines[min(faults)]}")
    return values


def parse_column(
    what: str,
    lines: Sequence[int],
    cells: Sequence[str],
    parse: Callable = float,
    optional: bool = False,
) -> list:
    """Each cell read by ``parse`` (float, int or Decimal), the one on
    ``lines[i]`` being ``cells[i]``; with ``optional``, a blank cell reads
    as None. A cell that is no finite number written without ``_`` (see
    :func:`_numbers`) is a :class:`FormatError` ``"{what}: bad number '...'
    at line N"``."""
    return _valid(what, lines, cells, _numbers(cells, parse, optional))


def parse_money(what: str, lines: Sequence[int], cells: Sequence[str]) -> np.ndarray:
    """The cells as a money column laid out as a top-up file's (see
    :class:`TopUpColumns`), each a number as :func:`parse_number` reads it."""
    return _money_column([_valid(what, lines, cells, _money(cells))])


def read_cdr(
    source,
    errors: RowErrorLog | None = None,
    night_window: tuple[time, time] = DEFAULT_NIGHT_WINDOW,
    utc_offset_minutes: int = 0,
    period: tuple[datetime, datetime] | None = None,
) -> CallColumns:
    """Read ``cdr.csv``-format data into :class:`CallColumns`.

    ``source`` is a path or an open text handle. Malformed rows are reported
    to ``errors`` with their line number and skipped; so are rows outside
    ``period`` (``[start, end)``, UTC) when it is given. Local time is UTC
    plus ``utc_offset_minutes``. Memory grows by 13 bytes per accepted row
    plus one entry per distinct ID.
    """
    users, towers = _codes(), _codes()
    caller, callee, tower = array("i"), array("i"), array("i")
    night = bytearray()
    offset = timedelta(minutes=utc_offset_minutes)

    def rule(fields: list[str]):
        micros, bad = _timestamps(fields, 4, period)
        return [fields[0::4], fields[1::4], fields[2::4], micros], bad

    def take(_lines, callers, callees, tower_ids, micros) -> None:
        ids = [*callers, *callees]
        ids[0::2], ids[1::2] = callers, callees  # as the rows meet them
        codes = list(map(users.__getitem__, ids))
        caller.fromlist(codes[0::2])
        callee.fromlist(codes[1::2])
        tower.fromlist(list(map(towers.__getitem__, tower_ids)))
        night.extend(_night_flags(micros, offset, night_window).tobytes())

    with _open_text(source) as handle:
        header, line = _header(handle, "cdr")
        _check_header(header, CDR_HEADER, "cdr")
        _read_chunks(handle, "cdr", line, (errors or RowErrorLog()).report,
                     (4, 3, "empty identifier field"), rule, take)
    return CallColumns(
        users=list(users),
        towers=list(towers),
        caller=np.frombuffer(caller, dtype=np.int32),
        callee=np.frombuffer(callee, dtype=np.int32),
        tower=np.frombuffer(tower, dtype=np.int32),
        night=np.frombuffer(night, dtype=np.bool_),
    )


def read_topups(
    source,
    errors: RowErrorLog | None = None,
    period: tuple[datetime, datetime] | None = None,
) -> TopUpColumns:
    """Read ``topup.csv``-format data into :class:`TopUpColumns`; amounts
    are exact (cents or decimals, see there) and must be positive."""
    users = _codes()
    user, day = array("i"), array("i")
    amounts: list[np.ndarray] = []  # per batch

    def rule(fields: list[str]):
        micros, bad = _timestamps(fields, 3, period)
        texts = fields[1::3]
        values, faults = _money(texts)
        if faults:  # refused below, with the message of their fault
            values[list(faults)] = 0
        for i in np.flatnonzero(values <= 0).tolist():
            wrong = "non-numeric" if faults.get(i) == "non-numeric" else "non-positive"
            bad[i] = f"{wrong} amount {texts[i]!r}"  # before the timestamp's
        if bad and values.dtype == object:  # the layout is that of the accepted amounts
            values, _ = _money(["1.00" if i in bad else t for i, t in enumerate(texts)])
        return [fields[0::3], values, micros], bad

    def take(_lines, user_ids, values, micros) -> None:
        user.fromlist(list(map(users.__getitem__, user_ids)))
        amounts.append(values)
        day.frombytes((micros // _DAY_US + _EPOCH_DAY).astype(np.int32).tobytes())

    with _open_text(source) as handle:
        header, line = _header(handle, "topup")
        _check_header(header, TOPUP_HEADER, "topup")
        _read_chunks(handle, "topup", line, (errors or RowErrorLog()).report,
                     (3, 1, "empty user_id"), rule, take)
    return TopUpColumns(
        users=list(users),
        user=np.frombuffer(user, dtype=np.int32),
        day=np.frombuffer(day, dtype=np.int32),
        amount=_money_column(amounts),
    )


def load_tower_map(source) -> dict[str, str]:
    """Load ``towers.csv`` as a tower_id -> sector_id dict. A tower mapped to
    two different sectors is fatal; an exact duplicate row is accepted with a
    warning."""
    entries: dict[str, str] = {}
    duplicates = 0
    _, _, columns = read_table(source, "towers", TOWER_HEADER, ids=2)
    for tower, sector in zip(*columns):
        known = entries.get(tower)
        if known is None:
            entries[tower] = sector
        elif known == sector:
            duplicates += 1
        else:
            raise FormatError(f"towers: tower {tower!r} mapped to both {known!r} and {sector!r}")
    if duplicates:
        log.warning("towers: %d duplicate identical mapping(s) ignored", duplicates)
    return entries


@dataclass
class SurveyTable:
    """Wide household survey table with per-variable category tags.

    ``values`` is (n_households, n_variables) float64; NaN marks a missing
    answer. Food-group-frequency columns are validated to integers in [0, 7]
    at load time.
    """

    household_ids: list[str]
    sector_ids: list[str]
    variables: list[str]
    categories: dict[str, str]
    values: np.ndarray

    def column(self, variable: str) -> np.ndarray:
        return self.values[:, self.variables.index(variable)]

    def __len__(self) -> int:
        return len(self.household_ids)


def load_survey_metadata(source) -> dict[str, str]:
    """Load ``survey_meta.csv`` mapping each variable to its category tag."""
    categories: dict[str, str] = {}
    _, _, columns = read_table(source, "survey_meta", SURVEY_META_HEADER)
    for variable, category in zip(*columns):
        if category not in SURVEY_CATEGORIES:
            raise FormatError(
                f"survey_meta: unknown category {category!r} for {variable!r} "
                f"(allowed: {', '.join(sorted(SURVEY_CATEGORIES))})"
            )
        if variable in categories and categories[variable] != category:
            raise FormatError(f"survey_meta: conflicting categories for {variable!r}")
        categories[variable] = category
    return categories


def load_survey(source, metadata, errors: RowErrorLog | None = None) -> SurveyTable:
    """Load ``survey.csv`` with category tags from ``metadata``, a path/handle
    for ``survey_meta.csv``.

    A data variable missing from the metadata is fatal (silent category
    misassignment is worse than a crash); bad cells (not a number, written
    with ``_``, not finite, or a food-group frequency outside 0..7)
    quarantine the whole row. Blank cells are missing.
    """
    categories = load_survey_metadata(metadata)
    with _open_text(source) as handle:
        header, line = _header(handle, "survey")
        if header is None or header[:2] != SURVEY_ID_COLUMNS:
            raise FormatError(
                f"survey: header must start with {','.join(SURVEY_ID_COLUMNS)!r}"
            )
        variables = header[2:]
        if len(set(variables)) != len(variables):
            raise FormatError("survey: duplicate column names")
        missing = [v for v in variables if v not in categories]
        if missing:
            raise FormatError(
                f"survey: variable(s) absent from metadata: {', '.join(missing[:10])}"
            )
        unused = set(categories) - set(variables)
        if unused:
            log.debug("survey: %d metadata variable(s) not present in data", len(unused))
        food_cols = [i for i, v in enumerate(variables) if categories[v] == "food_group"]
        width = len(header)

        household_ids: list[str] = []
        sector_ids: list[str] = []
        values = array("d")  # row-major

        def rule(fields: list[str]):
            cells = fields[:]
            del cells[0::width]  # household IDs
            del cells[0::width - 1]  # sector IDs
            numbers, faults = _numbers(cells, optional=True, blank=nan)
            parsed = np.array(numbers, dtype=np.float64).reshape(len(fields) // width, -1)
            bad = {}
            for i, fault in faults.items():  # the first faulty cell of a row names it
                row, j = divmod(i, len(variables))
                bad.setdefault(row, f"{fault} value {cells[i]!r} in {variables[j]!r}")
            food = parsed[:, food_cols]
            wrong = ~(np.isnan(food) | ((food >= 0) & (food <= 7) & (food == np.floor(food))))
            for row, j in np.argwhere(wrong).tolist():  # row by row, columns in order
                v, name = float(food[row, j]), variables[food_cols[j]]
                bad.setdefault(row, f"food-group frequency {v!r} in {name!r} outside 0..7")
            return [fields[0::width], fields[1::width], parsed], bad

        def take(_lines, households, sectors, rows) -> None:
            household_ids.extend(households)
            sector_ids.extend(sectors)
            values.frombytes(rows.tobytes())

        _read_chunks(handle, "survey", line, (errors or RowErrorLog()).report,
                     (width, 2, "empty household_id or sector_id"), rule, take)
        return SurveyTable(
            household_ids=household_ids,
            sector_ids=sector_ids,
            variables=variables,
            categories={v: categories[v] for v in variables},
            values=np.frombuffer(values, dtype=np.float64).reshape(
                len(household_ids), len(variables)
            ),
        )


def format_number(x: float | None) -> str:
    """Shortest exact decimal form, integers without ``.0``; None and NaN
    (undefined) give ""; an infinite value is a :class:`FormatError`."""
    if x is None or x != x:
        return ""
    x = float(x)
    if isinf(x):
        raise FormatError(f"non-finite number {x!r}")
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


#: Rows per block of :func:`write_table`.
_WRITE_ROWS = 256


def write_table(path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write ``header`` and ``rows`` (sequences of str) to the CSV file
    ``path``, ``\\n``-terminated, quoting a field that holds a comma, a quote
    or a line break (RFC 4180) so that :func:`read_table` reads it back as
    written; a block of rows that needs no quotes goes out as joined text. A
    :class:`FormatError` raised while the rows are made names the file."""
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="") as f:
        try:
            block = [header, *islice(rows, _WRITE_ROWS)]
            while block:
                text = "\n".join(map(",".join, block)) + "\n"
                if (len(header) < 2 or '"' in text or "\r" in text
                        or text.count(",") + text.count("\n") != len(header) * len(block)):
                    text = "".join((",".join(map(_quoted, row)) or '""') + "\n" for row in block)
                f.write(text)
                block = list(islice(rows, _WRITE_ROWS))
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from None


def _quoted(field: str) -> str:
    # csv.writer is not used: with a "\n" line end it leaves a lone "\r" bare
    return '"' + field.replace('"', '""') + '"' if any(c in field for c in ',"\r\n') else field
