"""Rolling-window top-up expenditure series per sector.

For every day-aligned window of ``window_days`` days that fits inside the
observation period, the series value is the sum of top-ups made by the
sector's users inside the window, divided by the number of the sector's
users with at least one top-up anywhere in the period (so the denominator
does not jump between windows; a config switch changes it to per-window
active users). The point is labeled with the window's middle day: a 30-day
window starting 1 Dec is labeled 15 Dec.

Sums are exact decimal arithmetic over daily buckets, so the incremental
slide (add the entering day, subtract the leaving day) equals a naive
per-window recomputation bit for bit. The per-window user count slides the
same way: each user's number of active days inside the window goes up as a
day enters and down as it leaves.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from datetime import date, timedelta
from decimal import Decimal
from functools import cached_property, lru_cache
from itertools import chain, compress
from typing import Iterable, Iterator, Mapping

import numpy as np

from .ingest import FormatError, TableReader, TopUpColumns, format_number, parse_number, write_table

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
    window_days: int
    n_users: int
    points: tuple[tuple[date, Decimal], ...]  # (label_date, value), daily step

    @cached_property
    def _values_text(self) -> str:
        # formatted once for both writers; one joined string keeps it small
        return "\n".join(str(value) for _, value in self.points)

    def text_points(self) -> Iterator[tuple[str, str]]:
        """Each point's label and value as the writers print them."""
        labels = (_day_text(label) for label, _ in self.points)
        return zip(labels, self._values_text.split("\n"))


# every sector's series carries the same label dates
_day_text = lru_cache(maxsize=4096)(date.isoformat)


def window_label(start: date, window_days: int) -> date:
    """Middle-of-window label: day ceil(w/2) of the window, so a 30-day
    window over the 1st..30th is labeled the 15th."""
    return start + timedelta(days=(window_days + 1) // 2 - 1)


def _window_user_counts(users_on: list[list[int]], window_days: int) -> list[int]:
    """Distinct users per window, where ``users_on[d]`` lists the users active
    on day ``d``: each user's count of active days in the sliding window goes
    up as a day enters and down as it leaves, O(days + user-days) in all."""
    days_in: Counter = Counter()
    counts: list[int] = []
    for d, entering in enumerate(users_on):
        for user in entering:
            days_in[user] += 1
        if d >= window_days:
            for user in users_on[d - window_days]:
                days_in[user] -= 1
                if not days_in[user]:
                    del days_in[user]
        if d >= window_days - 1:
            counts.append(len(days_in))
    return counts


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
    ``"window"`` (users active inside each window). Raises
    :class:`PeriodError` when the top-ups do not fit the period.
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

    # daily sums in file order, as exact decimals, one flat run of days per sector
    zero = Decimal(0)
    buckets = [zero] * (len(sectors) * n_days)
    cells = row_sector.astype(np.int64) * n_days + (days - start)
    for cell, amount in zip(cells.tolist(), compress(topups.amount, kept.tolist())):
        buckets[cell] += amount
    n_codes = len(topups.users)
    members = np.unique(row_sector.astype(np.int64) * n_codes + users) // n_codes
    n_users = np.bincount(members, minlength=len(sectors)).tolist()
    users_on: list[list[int]] | None = None
    if denominator == "window":
        users_on = [[] for _ in buckets]
        active = np.unique(cells * n_codes + users)  # distinct (sector, day, user)
        for cell, user in zip((active // n_codes).tolist(), (active % n_codes).tolist()):
            users_on[cell].append(user)

    n_windows = n_days - window_days + 1
    labels = [window_label(date.fromordinal(start + w), window_days) for w in range(n_windows)]
    series: list[SectorSeries] = []
    for i, sector in enumerate(sectors):
        days_of = slice(i * n_days, (i + 1) * n_days)
        sums = buckets[days_of]
        window_users = (
            _window_user_counts(users_on[days_of], window_days) if users_on is not None else None
        )
        points: list[tuple[date, Decimal]] = []
        window_sum = sum(sums[:window_days], zero)
        for w in range(n_windows):
            if w > 0:
                window_sum += sums[w + window_days - 1] - sums[w - 1]
            if window_users is not None:
                count = window_users[w]
                value = window_sum / count if count else zero
            else:
                value = window_sum / n_users[i]
            points.append((labels[w], value))
        series.append(
            SectorSeries(
                sector_id=sector,
                window_days=window_days,
                n_users=n_users[i],
                points=tuple(points),
            )
        )
    return series


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
    table = TableReader(source, what, ["date", "label", "percentage"])
    for day, label, value in table:
        try:
            when = date.fromisoformat(day)
        except ValueError as exc:
            raise FormatError(f"{what}: line {table.line_num}: {exc}")
        out.append((when, label, parse_number(what, table.line_num, value)))
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
