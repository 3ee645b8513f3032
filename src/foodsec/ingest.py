"""Readers for the pipeline's CSV interchange files.

All files are UTF-8, comma-separated, header row mandatory. Timestamps are
ISO 8601; a trailing ``Z`` or an explicit offset is accepted and normalized
to naive UTC internally. Monetary amounts are carried as ``Decimal`` so
multi-month sums stay exact.

``cdr.csv`` and ``topup.csv`` are read in one pass each into int-coded
columns (:class:`CallColumns`, :class:`TopUpColumns`): IDs are interned to
codes in first-seen order, and each call keeps only what the features use,
its codes and whether it fell in the night window.

Malformed data rows are quarantined into a :class:`RowErrorLog` and parsing
continues; structural problems (bad header, conflicting tower map rows) raise
:class:`FormatError`. ``records_out + row_errors == data_rows_in`` always
holds: no row is silently dropped.
"""

from __future__ import annotations

import csv
import logging
from array import array
from dataclasses import dataclass, field
from datetime import datetime, time, timedelta, timezone
from decimal import Decimal, InvalidOperation
from typing import IO

import numpy as np

log = logging.getLogger(__name__)

CDR_HEADER = ["caller_id", "callee_id", "tower_id", "timestamp"]
TOPUP_HEADER = ["user_id", "amount", "timestamp"]
TOWER_HEADER = ["tower_id", "sector_id"]
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
    """``topup.csv`` as columns, one entry per accepted row in file order."""

    users: list[str]
    user: np.ndarray  # int32 codes into users, first-seen order
    day: np.ndarray  # int32 ordinal of the UTC date (date.toordinal)
    amount: list[Decimal]

    def __len__(self) -> int:
        return len(self.user)


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
    """Parse an ISO 8601 timestamp to a naive UTC datetime."""
    if text.endswith(("Z", "z")):
        text = text[:-1]
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return dt


def in_night_window(t: time, window: tuple[time, time] = DEFAULT_NIGHT_WINDOW) -> bool:
    """Half-open [start, end) check; a window with start > end wraps midnight."""
    start, end = window
    if start <= end:
        return start <= t < end
    return t >= start or t < end


def _open_text(source) -> tuple[IO[str], bool]:
    if hasattr(source, "read"):
        return source, False
    return open(source, "r", encoding="utf-8", newline=""), True


def _check_header(got: list[str] | None, want: list[str], what: str) -> None:
    if got != want:
        raise FormatError(
            f"{what}: expected header {','.join(want)!r}, got "
            f"{','.join(got) if got else '<empty file>'!r}"
        )


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
    if errors is None:
        errors = RowErrorLog()
    users: dict[str, int] = {}
    towers: dict[str, int] = {}
    caller, callee, tower = array("i"), array("i"), array("i")
    night = bytearray()
    offset = timedelta(minutes=utc_offset_minutes)
    handle, owned = _open_text(source)
    try:
        reader = csv.reader(handle)
        _check_header(next(reader, None), CDR_HEADER, "cdr")
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                errors.report(reader.line_num, f"expected 4 fields, got {len(row)}")
                continue
            caller_id, callee_id, tower_id, ts = row
            if not caller_id or not callee_id or not tower_id:
                errors.report(reader.line_num, "empty identifier field")
                continue
            try:
                when = parse_timestamp(ts)
            except ValueError:
                errors.report(reader.line_num, f"unparsable timestamp {ts!r}")
                continue
            if period is not None and not (period[0] <= when < period[1]):
                errors.report(reader.line_num, "timestamp outside observation period")
                continue
            caller.append(users.setdefault(caller_id, len(users)))
            callee.append(users.setdefault(callee_id, len(users)))
            tower.append(towers.setdefault(tower_id, len(towers)))
            night.append(in_night_window((when + offset).time(), night_window))
    finally:
        if owned:
            handle.close()
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
    are parsed as exact decimals and must be positive."""
    if errors is None:
        errors = RowErrorLog()
    users: dict[str, int] = {}
    user, day = array("i"), array("i")
    amounts: list[Decimal] = []
    handle, owned = _open_text(source)
    try:
        reader = csv.reader(handle)
        _check_header(next(reader, None), TOPUP_HEADER, "topup")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                errors.report(reader.line_num, f"expected 3 fields, got {len(row)}")
                continue
            user_id, amount_text, ts = row
            if not user_id:
                errors.report(reader.line_num, "empty user_id")
                continue
            try:
                amount = Decimal(amount_text)
            except InvalidOperation:
                errors.report(reader.line_num, f"non-numeric amount {amount_text!r}")
                continue
            if not amount.is_finite() or amount <= 0:
                errors.report(reader.line_num, f"non-positive amount {amount_text!r}")
                continue
            try:
                when = parse_timestamp(ts)
            except ValueError:
                errors.report(reader.line_num, f"unparsable timestamp {ts!r}")
                continue
            if period is not None and not (period[0] <= when < period[1]):
                errors.report(reader.line_num, "timestamp outside observation period")
                continue
            user.append(users.setdefault(user_id, len(users)))
            day.append(when.toordinal())
            amounts.append(amount)
    finally:
        if owned:
            handle.close()
    return TopUpColumns(
        users=list(users),
        user=np.frombuffer(user, dtype=np.int32),
        day=np.frombuffer(day, dtype=np.int32),
        amount=amounts,
    )


def load_tower_map(source) -> dict[str, str]:
    """Load ``towers.csv`` as a tower_id -> sector_id dict. A tower mapped to
    two different sectors is fatal; an exact duplicate row is accepted with a
    warning."""
    handle, owned = _open_text(source)
    try:
        reader = csv.reader(handle)
        _check_header(next(reader, None), TOWER_HEADER, "towers")
        entries: dict[str, str] = {}
        duplicates = 0
        for row in reader:
            if not row:
                continue
            if len(row) != 2 or not row[0] or not row[1]:
                raise FormatError(f"towers: malformed row at line {reader.line_num}")
            tower, sector = row
            known = entries.get(tower)
            if known is None:
                entries[tower] = sector
            elif known == sector:
                duplicates += 1
            else:
                raise FormatError(
                    f"towers: tower {tower!r} mapped to both {known!r} and {sector!r}"
                )
        if duplicates:
            log.warning("towers: %d duplicate identical mapping(s) ignored", duplicates)
        return entries
    finally:
        if owned:
            handle.close()


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
    handle, owned = _open_text(source)
    try:
        reader = csv.reader(handle)
        _check_header(next(reader, None), SURVEY_META_HEADER, "survey_meta")
        categories: dict[str, str] = {}
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise FormatError(f"survey_meta: malformed row at line {reader.line_num}")
            variable, category = row
            if category not in SURVEY_CATEGORIES:
                raise FormatError(
                    f"survey_meta: unknown category {category!r} for {variable!r} "
                    f"(allowed: {', '.join(sorted(SURVEY_CATEGORIES))})"
                )
            if variable in categories and categories[variable] != category:
                raise FormatError(f"survey_meta: conflicting categories for {variable!r}")
            categories[variable] = category
        return categories
    finally:
        if owned:
            handle.close()


def load_survey(source, metadata, errors: RowErrorLog | None = None) -> SurveyTable:
    """Load ``survey.csv`` with category tags from ``metadata``.

    ``metadata`` is a path/handle for ``survey_meta.csv`` or an already-loaded
    ``{variable: category}`` mapping. A data variable missing from the
    metadata is fatal (silent category misassignment is worse than a crash);
    bad cells quarantine the whole row.
    """
    if errors is None:
        errors = RowErrorLog()
    categories = metadata if isinstance(metadata, dict) else load_survey_metadata(metadata)
    handle, owned = _open_text(source)
    try:
        reader = csv.reader(handle)
        header = next(reader, None)
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

        household_ids: list[str] = []
        sector_ids: list[str] = []
        rows: list[list[float]] = []
        width = len(header)
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != width:
                errors.report(line, f"expected {width} fields, got {len(row)}")
                continue
            household, sector = row[0], row[1]
            if not household or not sector:
                errors.report(line, "empty household_id or sector_id")
                continue
            parsed: list[float] = []
            bad = None
            for name, cell in zip(variables, row[2:]):
                if cell == "":
                    parsed.append(float("nan"))
                    continue
                try:
                    parsed.append(float(cell))
                except ValueError:
                    bad = f"non-numeric value {cell!r} in {name!r}"
                    break
            if bad is None:
                for i in food_cols:
                    v = parsed[i]
                    if v == v and not (v.is_integer() and 0 <= v <= 7):
                        bad = f"food-group frequency {v!r} in {variables[i]!r} outside 0..7"
                        break
            if bad is not None:
                errors.report(line, bad)
                continue
            household_ids.append(household)
            sector_ids.append(sector)
            rows.append(parsed)

        values = (
            np.array(rows, dtype=np.float64)
            if rows
            else np.empty((0, len(variables)), dtype=np.float64)
        )
        return SurveyTable(
            household_ids=household_ids,
            sector_ids=sector_ids,
            variables=variables,
            categories={v: categories[v] for v in variables},
            values=values,
        )
    finally:
        if owned:
            handle.close()


def format_number(x: float) -> str:
    """Shortest exact decimal form; integers lose the trailing ``.0``."""
    x = float(x)
    if x != x:
        return ""
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)
