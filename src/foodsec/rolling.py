"""Rolling-window top-up expenditure series per sector.

For every day-aligned window of ``window_days`` days that fits inside the
observation period, the series value is the sum of top-ups made by the
sector's users inside the window, divided by the number of the sector's
users with at least one top-up anywhere in the period (so the denominator
does not jump between windows; a config switch changes it to per-window
active users). The point is labeled with the window's middle day: a 30-day
window starting 1 Dec is labeled 15 Dec.

Sums are exact over daily buckets, in the amounts' own type (int64 cents or
``Decimal``, see :class:`foodsec.ingest.TopUpColumns`), so the slide from
one window to the next (add the entering day, subtract the leaving day)
equals a naive per-window recomputation. The value is one ``Decimal``
division per window at context precision; a window with no users under the
per-window denominator has no value and is written as an empty field.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import date, timedelta
from decimal import Decimal
from functools import lru_cache
from itertools import chain, count
from typing import Iterable, Iterator, Mapping

import numpy as np

from .ingest import (
    FormatError,
    TopUpColumns,
    format_number,
    money_decimals,
    money_zeros,
    parse_number,
    read_table,
    write_table,
)

log = logging.getLogger(__name__)

ROLLING_HEADER = ["sector_id", "label_date", "value", "n_users"]
OVERLAY_HEADER = ["date", "source", "label", "value"]
DEFAULT_WINDOW_DAYS = 30


class PeriodError(FormatError, ValueError):
    """The top-ups do not fit the observation period: one falls outside it,
    or the period is shorter than one window."""


@dataclass(frozen=True)
class SectorSeries:
    sector_id: str
    n_users: int
    first_label: date
    values_text: str  # each window's value as written, one per line, daily step

    def text_points(self) -> Iterator[tuple[str, str]]:
        """Each point's label and value as the writers print them."""
        first = self.first_label.toordinal()
        labels = (_day_text(first + w) for w in count())
        return zip(labels, self.values_text.split("\n"))

    @property
    def points(self) -> tuple[tuple[date, Decimal | None], ...]:
        """(label_date, value) per window; the value of a window without
        users is None."""
        return tuple((date.fromisoformat(label), Decimal(value) if value else None)
                     for label, value in self.text_points())


# every sector's series carries the same label dates
@lru_cache(maxsize=4096)
def _day_text(ordinal: int) -> str:
    return date.fromordinal(ordinal).isoformat()


def window_label(start: date, window_days: int) -> date:
    """Middle-of-window label: day ceil(w/2) of the window, so a 30-day
    window over the 1st..30th is labeled the 15th."""
    return start + timedelta(days=(window_days + 1) // 2 - 1)


def rolling_sector_series(
    topups: TopUpColumns,
    home: Mapping[str, str],
    period: tuple[date, date] | None = None,
    window_days: int = DEFAULT_WINDOW_DAYS,
    denominator: str = "period",
) -> list[SectorSeries]:
    """Per-sector rolling expenditure series.

    ``home`` maps user_id to home sector; top-ups from users without a home
    are skipped (and counted in a warning). ``period`` is [start, end) in
    whole days and must cover at least one window; when omitted it is
    inferred as the day span of the observed top-ups. ``denominator`` is
    ``"period"`` (users with >= 1 top-up anywhere, the default) or
    ``"window"`` (users active inside each window; a window with none has
    no value). Raises :class:`PeriodError` when the top-ups do not fit the
    period.
    """
    if window_days < 1:
        raise ValueError("window_days must be >= 1")
    if denominator not in ("period", "window"):
        raise ValueError("denominator must be 'period' or 'window'")

    sectors = sorted({home[u] for u in topups.users if u in home})
    index = {sector: i for i, sector in enumerate(sectors)}
    sector_of = np.array([index.get(home.get(u), -1) for u in topups.users] + [-1])
    row_sector = sector_of[topups.user]
    kept = row_sector >= 0
    skipped = len(kept) - int(kept.sum())
    if skipped:
        log.warning("rolling: %d top-up(s) from users without a home sector skipped", skipped)
    row_sector, days, users = row_sector[kept], topups.day[kept], topups.user[kept]

    if period is not None:
        start, end = period[0].toordinal(), period[1].toordinal()
        outside = (days < start) | (days >= end)
        if outside.any():
            day = date.fromordinal(int(days[outside.argmax()]))
            raise PeriodError(f"top-up on {day} outside the observation period")
    elif not len(days):
        return []
    else:
        start, end = int(days.min()), int(days.max()) + 1
    n_days = end - start
    if n_days < window_days:
        raise PeriodError(f"period of {n_days} day(s) shorter than the {window_days}-day window")

    # daily sums in file order, one row of days per sector
    n_sectors, n_windows = len(sectors), n_days - window_days + 1
    cells = row_sector.astype(np.int64) * n_days + (days - start)
    daily = money_zeros(n_sectors * n_days, topups.amount)
    np.add.at(daily, cells, topups.amount[kept])
    daily = daily.reshape(n_sectors, n_days)
    # each window's sum slides from the last, adding the day that enters and
    # subtracting the one that leaves, as exact decimals would
    steps = np.concatenate([money_zeros((n_sectors, 1), daily), daily[:, :window_days],
                            daily[:, window_days:] - daily[:, :-window_days]], axis=1)
    sums = np.cumsum(steps, axis=1)[:, window_days:]
    # a decimal sum keeps exponent 0 until the sector's first top-up enters
    rows = np.bincount(cells, minlength=n_sectors * n_days).reshape(n_sectors, n_days)
    entered = np.cumsum(rows, axis=1)[:, window_days - 1:] > 0

    n_codes = len(topups.users)
    members = np.unique(row_sector.astype(np.int64) * n_codes + users) // n_codes
    n_users = np.bincount(members, minlength=n_sectors)
    if denominator == "window":
        active = _window_users(row_sector, days - start, users, n_sectors, n_codes, n_days,
                               window_days)
    else:
        active = np.broadcast_to(n_users[:, None], (n_sectors, n_windows))

    first_label = window_label(date.fromordinal(start), window_days)
    series: list[SectorSeries] = []
    for i, sector in enumerate(sectors):
        total = np.where(entered[i], money_decimals(sums[i]), Decimal(0))
        divisor = active[i]
        value = total / np.maximum(divisor, 1)
        texts = ["" if d == 0 else str(v) for v, d in zip(value.tolist(), divisor.tolist())]
        series.append(SectorSeries(sector, int(n_users[i]), first_label, "\n".join(texts)))
    return series


def _window_users(sector: np.ndarray, day: np.ndarray, user: np.ndarray, n_sectors: int,
                  n_codes: int, n_days: int, window_days: int) -> np.ndarray:
    """Distinct users per (sector, window), from top-ups by ``user`` code on
    ``day`` of the period, counted from 0, in ``sector``.

    A user active on day d is in the windows that start on days
    d - window_days + 1 .. d. Each of their active days, taken in order,
    adds the windows that their previous active day did not cover, so a
    user counts once per window: O(distinct user-days) in all.
    """
    key = (sector.astype(np.int64) * n_codes + user) * n_days + day
    member, day = np.divmod(np.unique(key), n_days)
    repeat = np.r_[False, member[1:] == member[:-1]]
    uncovered = np.where(repeat, np.r_[0, day[:-1] + 1], 0)
    first = np.maximum(day - window_days + 1, uncovered)
    row = member // n_codes * (n_days + 1)
    size = n_sectors * (n_days + 1)
    change = np.bincount(row + first, minlength=size) - np.bincount(row + day + 1, minlength=size)
    return np.cumsum(change.reshape(n_sectors, n_days + 1), axis=1)[:, :n_days - window_days + 1]


def write_rolling(series: Iterable[SectorSeries], path) -> None:
    write_table(path, ROLLING_HEADER, (
        (s.sector_id, label, value, n_users)
        for s in series
        for n_users in [str(s.n_users)]  # formatted once per series
        for label, value in s.text_points()
    ))


def load_stock_series(source) -> list[tuple[date, str, float]]:
    """External food-stock overlay input: ``date,label,percentage`` rows.
    Any unparsable content is fatal (the overlay is optional but never
    silently wrong)."""
    what = "stock series"
    out: list[tuple[date, str, float]] = []
    _, lines, columns = read_table(source, what, ["date", "label", "percentage"])
    for line, day, label, value in zip(lines, *columns):
        try:
            when = date.fromisoformat(day)
        except ValueError as exc:
            raise FormatError(f"{what}: line {line}: {exc}")
        out.append((when, label, parse_number(what, line, value)))
    return out


def emit_overlay(
    series: Iterable[SectorSeries],
    path,
    stock_rows: Iterable[tuple[date, str, float]] | None = None,
) -> None:
    """Merged long-format file for side-by-side external plotting. No
    statistics are computed across the two sources."""
    write_table(path, OVERLAY_HEADER, chain(
        ((label, "topup_rolling", s.sector_id, value)
         for s in series for label, value in s.text_points()),
        ((d.isoformat(), "food_stock", label, format_number(value))
         for d, label, value in stock_rows or ()),
    ))
