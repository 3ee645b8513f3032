"""Sector-level aggregation of the user features.

Groups users by home sector and reduces each feature column with mean,
median, sample standard deviation, and coefficient of variation. The result
is a :class:`SectorMatrix`, the row-per-sector / column-per-variable shape
shared with the survey side; NaN cells mark undefined values (never zero)
so downstream correlation can exclude them pairwise.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import check_names
from .features import UserFeatures
from .ingest import (
    FormatError,
    format_number,
    money_floats,
    parse_column,
    read_table,
    write_table,
)

log = logging.getLogger(__name__)

AGGREGATORS = ("mean", "median", "std", "cv")
USER_FEATURES = ("topup_sum", "topup_mean", "topup_min", "topup_max", "social_diversity")
MOBILE_COLUMNS = tuple(f"{feat}.{agg}" for feat in USER_FEATURES for agg in AGGREGATORS)
DEFAULT_MIN_USERS = 30


@dataclass
class SectorMatrix:
    """Rows = sectors, columns = named variables, plus a per-sector count.

    ``values`` is float64 with NaN marking undefined cells.
    """

    sectors: list[str]
    columns: list[str]
    values: np.ndarray
    counts: np.ndarray

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]

    def __len__(self) -> int:
        return len(self.sectors)


def aggregate_sector(values: Sequence[float]) -> dict:
    """Reduce one sector's values by each of ``AGGREGATORS``; undefined
    results come back as None.

    std uses the sample (n-1) denominator, so it needs n >= 2; cv = std/mean
    is undefined when the mean is 0. The median of an even count is the
    midpoint of the two middle values. The values are reduced in sorted
    order, which ``build_sector_matrix`` already hands over.
    """
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise ValueError("empty sector")
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size >= 2 else None
    mid = arr.size // 2
    # the mean of the middle one or two values, summed from 0.0 as np.median does
    median = 0.0 + arr[mid] if arr.size % 2 else (0.0 + arr[mid - 1] + arr[mid]) / 2
    return {
        "mean": mean,
        "median": float(median),
        "std": std,
        "cv": None if (std is None or mean == 0.0) else std / mean,
    }


def build_sector_matrix(
    features: UserFeatures,
    min_users: int = DEFAULT_MIN_USERS,
    columns: Sequence[str] | None = None,
) -> tuple[SectorMatrix, dict[str, int]]:
    """Sector x mobile-variable matrix from the user features.

    Sectors with fewer than ``min_users`` users are excluded and returned in
    the second element as {sector_id: user_count}. The default column set is
    ``MOBILE_COLUMNS``, the full cross of the user features with the four
    aggregators; pass ``columns`` (a subset of it) to prune it.
    """
    wanted = list(MOBILE_COLUMNS)
    if columns is not None:
        check_names("columns", columns, wanted, "column")
        wanted = [c for c in wanted if c in columns]

    n_users = np.bincount(features.home, minlength=len(features.sectors)).tolist()
    excluded = {s: n for s, n in zip(features.sectors, n_users) if n < min_users}
    if excluded:
        log.warning(
            "%d sector(s) below the %d-user minimum excluded", len(excluded), min_users
        )
    kept = [i for i, n in enumerate(n_users) if n >= min_users]
    sectors = [features.sectors[i] for i in kept]

    values = np.full((len(sectors), len(wanted)), np.nan, dtype=np.float64)
    counts = np.array([n_users[i] for i in kept], dtype=np.int64)
    needed = sorted({c.split(".", 1)[0] for c in wanted})
    col_index = {c: j for j, c in enumerate(wanted)}
    flagged = 0
    for feat in needed:
        floats = getattr(features, feat)
        if feat != "social_diversity":
            # the mean is the float of its Decimal quotient, which can differ
            # from the float sum divided by the count
            floats = money_floats(floats)
        defined = np.flatnonzero(~np.isnan(floats))
        # one sort by (sector, value): each sector's values come out in a
        # fixed order, so the matrix is bit-identical however the users were
        # ordered or partitioned
        order = defined[np.lexsort((floats[defined], features.home[defined]))]
        ordered = floats[order]
        bounds = np.searchsorted(features.home[order], np.arange(len(features.sectors) + 1))
        for i, code in enumerate(kept):
            lo, hi = bounds[code], bounds[code + 1]
            if lo == hi:
                continue
            for agg, value in aggregate_sector(ordered[lo:hi]).items():
                j = col_index.get(f"{feat}.{agg}")
                if j is None:
                    continue
                if value is None:
                    flagged += 1
                else:
                    values[i, j] = value
    if flagged:
        log.warning("%d undefined aggregate cell(s) left unset", flagged)
    return SectorMatrix(sectors=sectors, columns=wanted, values=values, counts=counts), excluded


def write_sector_matrix(matrix: SectorMatrix, path, count_column: str = "n_users") -> None:
    rows = zip(matrix.sectors, matrix.values.tolist(), matrix.counts.tolist())
    write_table(path, ["sector_id", *matrix.columns, count_column], (
        [sector, *map(format_number, values), str(count)] for sector, values, count in rows
    ))


def read_sector_matrix(path, count_column: str = "n_users") -> SectorMatrix:
    what = f"sector matrix {path}"

    def check(header) -> None:
        if not header or header[0] != "sector_id" or header[-1] != count_column:
            raise FormatError(f"{what}: expected 'sector_id,...,{count_column}' header")
        if len(set(header)) != len(header):
            raise FormatError(f"{what}: duplicate column names")

    header, lines, (sectors, *cells, counts) = read_table(path, what, check, ids=1, unique=1)
    values = np.empty((len(sectors), len(cells)), dtype=np.float64)
    for j, column in enumerate(cells):
        values[:, j] = parse_column(what, lines, column, optional=True)
    return SectorMatrix(
        sectors=sectors,
        columns=header[1:-1],
        values=values,
        counts=np.array(parse_column(what, lines, counts, int), dtype=np.int64),
    )
