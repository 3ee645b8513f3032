"""Readers and the one writer of the pipeline's CSV interchange files.

All files are UTF-8, comma-separated, header row mandatory. Timestamps are
ISO 8601; a trailing ``Z`` or an explicit offset is accepted and normalized
to naive UTC internally. Monetary amounts stay exact: a top-up file whose
every amount is written ``D+.DD`` is carried as int64 cents, any other as
``Decimal`` values (see :class:`TopUpColumns`).

``cdr.csv`` and ``topup.csv`` are read in one pass each into int-coded
columns (:class:`CallColumns`, :class:`TopUpColumns`): IDs are interned to
codes in first-seen order, and each call keeps only what the features use,
its codes and whether its local time of day fell in the night window.

The data readers (``survey.csv`` too) share one chunk reader,
:func:`_read_chunks`, which owns the row structure: blank lines, the
header's field count, empty IDs and line numbers. Each reader gives it its
typed rules as three closures: ``fast`` checks and splits a clean chunk
(no quote, carriage return or NUL, fixed-layout ``...Z`` timestamps, valid
amounts and cells) in bulk, ``check`` reads one row of any other chunk, and
``take`` appends the columns of either path. From the first quote on, the
rest of the input goes row by row. An open handle should split lines as
the csv module asks (``newline=""``): a row-wise chunk ends a line at a
lone carriage return, as a file the reader opens itself does.

Malformed data rows are quarantined into a :class:`RowErrorLog` and parsing
continues; structural problems (bad header, conflicting tower map rows) raise
:class:`FormatError`. ``records_out + row_errors == data_rows_in`` always
holds: no row is silently dropped.

Every other file, the small inputs and the files the stages hand each other,
goes through the same chunk reader as string columns (:func:`read_table`),
and its numbers through :func:`parse_number` or :func:`parse_column`: exact
header, blank lines skipped, the header's field count on every row, and
numbers finite and written without ``_``. Any breach there is a
:class:`FormatError`, as is a field over the csv field limit in any file.
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
from itertools import chain, islice
from math import isfinite, isinf, nan
from typing import IO, Callable, ContextManager, Iterable, Iterator, NamedTuple, Sequence

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


def _money(texts: list[str]) -> np.ndarray:
    """The amounts as int64 cents if each is written ``D+.DD``, else as
    ``Decimal`` objects; InvalidOperation if one is no number."""
    joined = "\n".join(texts) + "\n"
    if not _CENTS_LINES.fullmatch(joined):
        return np.array(list(map(Decimal, texts)), dtype=object)
    return np.fromstring(joined.replace(".", ""), dtype=np.int64, sep="\n")


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


class _Amounts:
    """The accepted amounts of one file in order: cents until a column breaks
    the layout or the total reaches the limit, from then on ``Decimal`` values."""

    def __init__(self) -> None:
        self.cents = array("q")
        self.total = 0
        self.exact: list[Decimal] | None = None

    def add(self, values: np.ndarray) -> None:
        """Append positive finite amounts as :func:`_money` reads them."""
        if self.exact is None and values.dtype != object:
            self.total += sum(values.tolist())  # an int64 sum could wrap
            if self.total < _CENTS_LIMIT:
                self.cents.frombytes(values.tobytes())
                return
        if self.exact is None:
            self.exact = money_decimals(np.frombuffer(self.cents, np.int64)).tolist()
            self.cents = array("q")
        self.exact.extend(money_decimals(values).tolist())

    def column(self) -> np.ndarray:
        if self.exact is None:
            return np.frombuffer(self.cents, dtype=np.int64)
        return np.array(self.exact, dtype=object)


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


class _BadRow(Exception):
    """A data row that a reader refuses; the message is its row error."""


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


def _open_text(source) -> ContextManager[IO[str]]:
    """``source`` as a ``with`` target: an open handle is left open on exit,
    a path is opened and then closed."""
    if hasattr(source, "read"):
        return nullcontext(source)
    return open(source, "r", encoding="utf-8", newline="")


#: Characters read per chunk; a chunk then runs on to the end of its last line.
_CHUNK_CHARS = 1 << 15

_NL = ord("\n")
_EPOCH = datetime(1970, 1, 1)
_US = timedelta(microseconds=1)
_DAY_US = 86_400 * 10**6
# A timestamp field of a clean chunk: its comma, then YYYY-MM-DDTHH:MM:SSZ with
# the Z folded to lower case. Byte bounds check the layout and the tens digits
# of month, day, hour, minute and second, so minute and second are in range.
_TS_BACK = np.arange(-21, 0)
_TS_LO = np.frombuffer(b",0000-00-00T00:00:00z", np.uint8)
_TS_HI = np.frombuffer(b",9999-19-39T29:59:59z", np.uint8)
# digit place values giving year, month, day and second of day
_TS_PLACES = np.zeros((19, 4))
_TS_PLACES[0:4, 0] = 1000, 100, 10, 1
_TS_PLACES[5:7, 1] = 10, 1
_TS_PLACES[8:10, 2] = 10, 1
_TS_PLACES[[11, 12, 14, 15, 17, 18], 3] = 36_000, 3_600, 600, 60, 10, 1
_TS_ZERO = ord("0") * _TS_PLACES.sum(axis=0)
# the second-of-day bound keeps the hour below 24
_TS_MIN = np.array([1, 1, 1, 0])
_TS_MAX = np.array([9999, 12, 31, 86_399])
# calendar tables as in date.toordinal; rows of the month tables: common, leap year
_YEARS = np.arange(10_000)
_LEAP = ((_YEARS % 4 == 0) & ((_YEARS % 100 != 0) | (_YEARS % 400 == 0))).astype(np.intp)
_DAYS_BEFORE_YEAR = (
    365 * (_YEARS - 1) + (_YEARS - 1) // 4 - (_YEARS - 1) // 100 + (_YEARS - 1) // 400
)
_MONTH_DAYS = np.array([[0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31],
                        [0, 31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]])
_DAYS_BEFORE_MONTH = np.cumsum(_MONTH_DAYS, axis=1) - _MONTH_DAYS


class _Chunk(NamedTuple):
    """A chunk whose lines all have the same number of fields."""

    raw: np.ndarray  # the chunk's UTF-8 bytes
    ends: np.ndarray  # (rows, n_fields) byte offset of the separator after each field
    fields: list[str]  # row-major


def _split_chunk(text: str, n_fields: int, ids: int) -> _Chunk | None:
    """``text`` split into ``n_fields`` fields per line, or None if it holds a
    carriage return (a line end of its own when lone) or NUL (an error to
    csv before Python 3.11), a line with another number of fields (blank
    lines included), an empty field among the first ``ids``, or a field
    longer than the csv field limit. Quotes never get here."""
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
    return _Chunk(raw, ends, fields)


def _fixed_timestamps(chunk: _Chunk, period) -> tuple[np.ndarray, np.ndarray] | None:
    """Day ordinals (``date.toordinal``) and seconds of day of the chunk's
    last field, or None unless every one is a valid ``YYYY-MM-DDTHH:MM:SSZ``
    (or ``z``) inside ``period`` (``[start, end)``) when that is given."""
    if chunk.ends[0, -1] < len(_TS_BACK):
        return None  # too short a first line; its bytes would index from the end
    stamp = chunk.raw[chunk.ends[:, -1:] + _TS_BACK]
    stamp[:, -1] |= 0x20
    if not ((stamp >= _TS_LO) & (stamp <= _TS_HI)).all():
        return None
    parts = (stamp[:, 1:-1] @ _TS_PLACES - _TS_ZERO).astype(np.int64)
    if not ((parts >= _TS_MIN) & (parts <= _TS_MAX)).all():
        return None
    year, month, day, second = parts.T
    leap = _LEAP[year]
    if not (day <= _MONTH_DAYS[leap, month]).all():
        return None
    ordinal = _DAYS_BEFORE_YEAR[year] + _DAYS_BEFORE_MONTH[leap, month] + day
    if period is not None:
        start, end = ((p - _EPOCH) // _US for p in period)
        when = ((ordinal - _EPOCH.toordinal()) * 86_400 + second) * 10**6
        if not ((when >= start) & (when < end)).all():
            return None
    return ordinal, second


def _utc(text: str, period: tuple[datetime, datetime] | None) -> datetime:
    """One row's timestamp ``text`` as a naive UTC datetime; a
    :class:`_BadRow` if it is none or lies outside ``period``."""
    try:
        when = parse_timestamp(text)
    except ValueError:
        raise _BadRow(f"unparsable timestamp {text!r}") from None
    if period is not None and not (period[0] <= when < period[1]):
        raise _BadRow("timestamp outside observation period")
    return when


def _night_flags(micros, offset: timedelta, window: tuple[time, time]) -> np.ndarray:
    """Whether each local time of day falls in ``window``, half-open
    [start, end) and wrapping midnight when start > end, from UTC
    microseconds of the day; local time is UTC + ``offset``."""
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


#: Accepted rows of a row-wise chunk handed to ``take`` at once, few enough to stay in cache.
_TAKE_ROWS = 512


def _read_chunks(handle: IO[str], what: str, line: int, report: Callable,
                 shape: tuple[int, int, str], fast: Callable, check: Callable,
                 take: Callable) -> None:
    """Read the data rows after the header, which ends at file line ``line``,
    into a reader's columns, chunk by chunk.

    ``shape`` is ``(width, ids, empty)``: the header's field count, how many
    leading ID fields may not be empty, and the row error for one that is.
    A chunk that :func:`_split_chunk` splits and that ``fast(chunk)`` turns
    into columns (None refuses it) goes to ``take(lines, *columns)`` whole,
    ``lines`` being the file line number of each row. Other chunks are read
    row by row: blank lines are skipped; a row of another width, with an
    empty ID or that ``check(*fields)`` refuses with a :class:`_BadRow` goes
    to ``report(line, message)``; the values ``check`` returns, one per field,
    reach ``take`` as columns of up to ``_TAKE_ROWS`` rows. From the first
    quote on the rest of the input goes row by row, since a quoted field may
    hold a newline that straddles chunks.
    """
    width, ids, empty = shape
    limit = _TAKE_ROWS * width
    while text := handle.read(_CHUNK_CHARS):
        if not text.endswith("\n"):
            text += handle.readline()
        quoted = '"' in text
        chunk = None if quoted else _split_chunk(text, width, ids)
        columns = None if chunk is None else fast(chunk)
        if columns is not None:
            rows = len(chunk.ends)
            take(range(line + 1, line + 1 + rows), *columns)
            line += rows
            continue
        lines = io.StringIO(text, newline="")
        reader = csv.reader(chain(lines, handle) if quoted else lines)
        at: list[int] = []  # the line of each row of the block
        block: list = []  # the values of the rows, row after row
        with _csv_errors(what, reader, line):
            for row in reader:
                try:
                    if len(row) != width:
                        if not row:
                            continue
                        raise _BadRow(f"expected {width} fields, got {len(row)}")
                    if "" in row and not all(row[:ids]):
                        raise _BadRow(empty)
                    values = check(*row)
                except _BadRow as exc:
                    report(line + reader.line_num, str(exc))
                    continue
                at.append(line + reader.line_num)
                block += values
                if len(block) == limit:
                    take(at, *(block[i::width] for i in range(width)))
                    at, block = [], []
        if block:
            take(at, *(block[i::width] for i in range(width)))
        line += reader.line_num


def _check_header(got: list[str] | None, want: list[str], what: str) -> None:
    if got != want:
        raise FormatError(
            f"{what}: expected header {','.join(want)!r}, got "
            f"{','.join(got) if got else '<empty file>'!r}"
        )


def read_table(source, what: str, header: list[str] | Callable,
               ids: int = 0, unique: bool = False) -> tuple[list[str], list[int], list[list[str]]]:
    """The header row, the line numbers of the data rows and their fields
    as string columns, of a CSV file that is not ``cdr``, ``topup`` or
    ``survey``.

    ``source`` is a path or an open text handle. The header must equal
    ``header``, or pass it when that is a function that raises a
    :class:`FormatError` on a wrong one; it is checked before any row is
    read. Blank lines are skipped; any other row with a field count other
    than the header's, or an empty field among the first ``ids``, raises
    :class:`FormatError` ``"{what}: malformed row at line N"``; with
    ``unique``, so does a first field that repeats an earlier row's, as
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
                     lambda chunk: [chunk.fields[i::width] for i in range(width)],
                     lambda *fields: fields, take)
    if unique:
        seen: set[str] = set()
        for at, key in zip(lines, columns[0]):
            if key in seen:
                raise FormatError(f"{what}: duplicate {key!r} at line {at}")
            seen.add(key)
    return got, lines, columns


#: what float, int and Decimal raise on text that is no number
_NOT_A_NUMBER = (ValueError, InvalidOperation)
#: the finiteness test of each number type; an int is always finite
_FINITE = {float: isfinite, Decimal: Decimal.is_finite}


def parse_number(what: str, line: int, text: str, parse: Callable = float):
    """``text`` read by ``parse`` (float, int or Decimal) if it is a finite
    number written without ``_``, else :class:`FormatError`
    ``"{what}: bad number '...' at line N"``. All three parsers take ``1_5``
    as 15, and float and Decimal take ``nan`` and ``inf``."""
    if "_" not in text:
        try:
            value = parse(text)
        except _NOT_A_NUMBER:
            pass
        else:
            finite = _FINITE.get(parse)
            if finite is None or finite(value):
                return value
    raise FormatError(f"{what}: bad number {text!r} at line {line}")


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


def parse_column(
    what: str,
    lines: Sequence[int],
    cells: Sequence[str],
    parse: Callable = float,
    optional: bool = False,
) -> list:
    """:func:`parse_number` of each cell, the one on ``lines[i]`` being
    ``cells[i]``; with ``optional``, a blank cell reads as None. The column
    is checked as a whole, and searched cell by cell only when it fails."""
    given = [c for c in cells if c] if optional else cells
    try:
        values = list(map(parse, given))
    except _NOT_A_NUMBER:
        values = None
    finite = _FINITE.get(parse)
    if values is None or "_" in "".join(given) or finite and not all(map(finite, values)):
        for line, cell in zip(lines, cells):
            if cell or not optional:
                parse_number(what, line, cell, parse)
    if len(given) < len(cells):
        numbers = iter(values)
        values = [next(numbers) if c else None for c in cells]
    return values


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

    def fast(chunk: _Chunk):
        stamps = _fixed_timestamps(chunk, period)
        if stamps is None:
            return None
        return chunk.fields[0::4], chunk.fields[1::4], chunk.fields[2::4], stamps[1] * 10**6

    def check(caller_id: str, callee_id: str, tower_id: str, stamp: str):
        since = _utc(stamp, period) - _EPOCH  # whole days apart: seconds are of the day
        return caller_id, callee_id, tower_id, since.seconds * 10**6 + since.microseconds

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
                     (4, 3, "empty identifier field"), fast, check, take)
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
    amounts = _Amounts()

    def fast(chunk: _Chunk):
        stamps = _fixed_timestamps(chunk, period)
        if stamps is None:
            return None
        texts = chunk.fields[1::3]
        try:
            values = _money(texts)
        except InvalidOperation:
            return None
        if values.dtype == object and (  # the rule of check, in bulk
                "_" in "".join(texts) or not all(map(Decimal.is_finite, values))):
            return None
        if not (values > 0).all():
            return None
        return chunk.fields[0::3], values, stamps[0]

    def check(user_id: str, text: str, stamp: str):
        try:
            amount = Decimal(text)
        except InvalidOperation:
            amount = None
        if amount is None or "_" in text:
            raise _BadRow(f"non-numeric amount {text!r}")
        if not amount.is_finite() or amount <= 0:
            raise _BadRow(f"non-positive amount {text!r}")
        return user_id, text, _utc(stamp, period).toordinal()

    def take(_lines, user_ids, values, days) -> None:
        user.fromlist(list(map(users.__getitem__, user_ids)))
        # a clean chunk brings its amounts parsed, a row-wise block their texts
        amounts.add(values if isinstance(values, np.ndarray) else _money(values))
        day.frombytes(np.asarray(days, dtype=np.int32).tobytes())

    with _open_text(source) as handle:
        header, line = _header(handle, "topup")
        _check_header(header, TOPUP_HEADER, "topup")
        _read_chunks(handle, "topup", line, (errors or RowErrorLog()).report,
                     (3, 1, "empty user_id"), fast, check, take)
    return TopUpColumns(
        users=list(users),
        user=np.frombuffer(user, dtype=np.int32),
        day=np.frombuffer(day, dtype=np.int32),
        amount=amounts.column(),
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
    """Load ``survey.csv`` with category tags from ``metadata``.

    ``metadata`` is a path/handle for ``survey_meta.csv`` or an already-loaded
    ``{variable: category}`` mapping. A data variable missing from the
    metadata is fatal (silent category misassignment is worse than a crash);
    bad cells (not a number, written with ``_``, not finite, or a food-group
    frequency outside 0..7) quarantine the whole row. Blank cells are missing.
    """
    categories = metadata if isinstance(metadata, dict) else load_survey_metadata(metadata)
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

        def fast(chunk: _Chunk):
            cells = chunk.fields[:]
            del cells[0::width]  # household IDs
            del cells[0::width - 1]  # sector IDs
            try:
                parsed = np.array([float(c) if c else nan for c in cells], dtype=np.float64)
            except ValueError:
                return None
            # only blank cells may read as NaN
            nan_cells = len(parsed) - np.count_nonzero(np.isfinite(parsed))
            if nan_cells != cells.count("") or "_" in "".join(cells):
                return None
            parsed = parsed.reshape(len(chunk.ends), -1)
            food = parsed[:, food_cols]
            if not (np.isnan(food) | ((food >= 0) & (food <= 7) & (food == np.floor(food)))).all():
                return None
            return chunk.fields[0::width], chunk.fields[1::width], parsed

        def check(household: str, sector: str, *cells: str):
            try:
                parsed = [float(c) if c else nan for c in cells]
            except ValueError:
                parsed = []
            if sum(map(isfinite, parsed)) + cells.count("") != len(cells) or "_" in "".join(cells):
                for name, cell in zip(variables, cells):  # search for the first bad cell
                    try:
                        value = float(cell) if cell else nan
                    except ValueError:
                        value = None
                    if value is None or "_" in cell:
                        raise _BadRow(f"non-numeric value {cell!r} in {name!r}")
                    if cell and not isfinite(value):
                        raise _BadRow(f"non-finite value {cell!r} in {name!r}")
            for i in food_cols:
                v = parsed[i]
                if v == v and not (v.is_integer() and 0 <= v <= 7):
                    raise _BadRow(f"food-group frequency {v!r} in {variables[i]!r} outside 0..7")
            return household, sector, *parsed

        def take(_lines, households, sectors, *cells) -> None:
            household_ids.extend(households)
            sector_ids.extend(sectors)
            # a clean chunk brings one row-major matrix, a row-wise block columns
            rows = cells[0] if cells and isinstance(cells[0], np.ndarray) else np.array(cells).T
            values.frombytes(rows.tobytes())

        _read_chunks(handle, "survey", line, (errors or RowErrorLog()).report,
                     (width, 2, "empty household_id or sector_id"), fast, check, take)
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
