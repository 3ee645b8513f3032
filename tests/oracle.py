"""Row-wise reference implementations and test-only writers.

``parse_cdr_stream``/``parse_topup_stream``, ``load_survey_rows`` and
:class:`FeatureAccumulator` are the record-at-a-time ingest and feature rules
that the chunked readers (``foodsec.ingest.read_cdr``/``read_topups``/
``load_survey``) and ``foodsec.features`` replace. They stay here as a
differential oracle: both sides must agree on every feature vector,
exclusion, table cell and row error. A :class:`UserFeatureVector` is one
user's row of ``foodsec.features.UserFeatures``; ``feature_vectors`` and
``feature_columns`` convert between the two.

The ``*_csv`` helpers and writers turn records back into CSV, and the
functions under "src path" run the package's columnar code over such records
behind the per-rule signatures the tests were written against.
``evaluate_model`` and ``read_null_summary`` check a fitted model on held
data and read a null summary back; the pipeline itself needs neither.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field, fields
from datetime import date, datetime, time, timedelta
from decimal import Decimal, InvalidOperation
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from foodsec.aggregate import SectorMatrix
from foodsec.correlate import NULL_SUMMARY_HEADER, NullSummary, pearson
from foodsec.features import (
    UserFeatures,
    home_towers,
    topup_stats,
    user_features,
)
from foodsec.ingest import (
    CDR_HEADER,
    DEFAULT_NIGHT_WINDOW,
    SURVEY_ID_COLUMNS,
    SURVEY_META_HEADER,
    TOPUP_HEADER,
    TOWER_HEADER,
    CallColumns,
    FormatError,
    RowErrorLog,
    SurveyTable,
    TopUpColumns,
    _check_header,
    _csv_errors,
    _open_text,
    format_number,
    money_decimals,
    parse_number,
    parse_timestamp,
    read_cdr,
    read_table,
    read_topups,
)
from foodsec.models import FitError, RegressionModel, predict_rows


class CallRecord(NamedTuple):
    caller_id: str
    callee_id: str
    tower_id: str
    timestamp: datetime  # naive, UTC


class TopUpRecord(NamedTuple):
    user_id: str
    amount: Decimal
    timestamp: datetime  # naive, UTC


@dataclass(frozen=True)
class UserFeatureVector:
    user_id: str
    home_sector: str
    topup_sum: Decimal
    topup_mean: Decimal
    topup_min: Decimal
    topup_max: Decimal
    topup_count: int
    social_diversity: float | None


def feature_vectors(features: UserFeatures) -> list[UserFeatureVector]:
    """One vector per user, money as ``Decimal`` and a NaN diversity as None."""
    return list(map(
        UserFeatureVector,
        features.user_id,
        map(features.sectors.__getitem__, features.home.tolist()),
        *(money_decimals(getattr(features, name)).tolist()
          for name in ("topup_sum", "topup_mean", "topup_min", "topup_max")),
        features.topup_count.tolist(),
        [None if d != d else d for d in features.social_diversity.tolist()],
    ))


def feature_columns(vectors: Iterable[UserFeatureVector]) -> UserFeatures:
    """The vectors as columns, money as ``Decimal`` objects."""
    columns = [[getattr(v, f.name) for v in vectors] for f in fields(UserFeatureVector)]
    users, homes, sums, means, mins, maxs, counts, diversity = columns
    return UserFeatures.from_columns(
        users, homes, *(np.array(c, dtype=object) for c in (sums, means, mins, maxs)), counts,
        [math.nan if d is None else d for d in diversity],
    )


class NoHomeError(ValueError):
    """User has no calls, so no home tower can be assigned."""


# --- row-wise parsers ---


def parse_cdr_stream(
    source,
    errors: RowErrorLog | None = None,
    period: tuple[datetime, datetime] | None = None,
) -> Iterator[CallRecord]:
    if errors is None:
        errors = RowErrorLog()
    with _open_text(source) as handle:
        reader = csv.reader(handle)
        with _csv_errors("cdr", reader):
            _check_header(next(reader, None), CDR_HEADER, "cdr")
            for row in reader:
                if not row:
                    continue
                line = reader.line_num
                if len(row) != 4:
                    errors.report(line, f"expected 4 fields, got {len(row)}")
                    continue
                caller, callee, tower, ts = row
                if not caller or not callee or not tower:
                    errors.report(line, "empty identifier field")
                    continue
                try:
                    when = parse_timestamp(ts)
                except ValueError:
                    errors.report(line, f"unparsable timestamp {ts!r}")
                    continue
                if period is not None and not (period[0] <= when < period[1]):
                    errors.report(line, "timestamp outside observation period")
                    continue
                yield CallRecord(caller, callee, tower, when)


def parse_topup_stream(
    source,
    errors: RowErrorLog | None = None,
    period: tuple[datetime, datetime] | None = None,
) -> Iterator[TopUpRecord]:
    if errors is None:
        errors = RowErrorLog()
    with _open_text(source) as handle:
        reader = csv.reader(handle)
        with _csv_errors("topup", reader):
            _check_header(next(reader, None), TOPUP_HEADER, "topup")
            for row in reader:
                if not row:
                    continue
                line = reader.line_num
                if len(row) != 3:
                    errors.report(line, f"expected 3 fields, got {len(row)}")
                    continue
                user, amount_text, ts = row
                if not user:
                    errors.report(line, "empty user_id")
                    continue
                try:
                    amount = Decimal(amount_text)
                except InvalidOperation:
                    amount = None
                if amount is None or "_" in amount_text:
                    errors.report(line, f"non-numeric amount {amount_text!r}")
                    continue
                if not amount.is_finite() or amount <= 0:
                    errors.report(line, f"non-positive amount {amount_text!r}")
                    continue
                try:
                    when = parse_timestamp(ts)
                except ValueError:
                    errors.report(line, f"unparsable timestamp {ts!r}")
                    continue
                if period is not None and not (period[0] <= when < period[1]):
                    errors.report(line, "timestamp outside observation period")
                    continue
                yield TopUpRecord(user, amount, when)


def load_survey_rows(source, categories: dict[str, str], errors: RowErrorLog) -> SurveyTable:
    """``survey.csv`` one csv row at a time, every cell through ``float``."""
    with _open_text(source) as handle:
        reader = csv.reader(handle)
        with _csv_errors("survey", reader):
            header = next(reader, None)
            if header is None or header[:2] != SURVEY_ID_COLUMNS:
                raise FormatError(f"survey: header must start with {','.join(SURVEY_ID_COLUMNS)!r}")
            variables = header[2:]
            food_cols = [i for i, v in enumerate(variables) if categories[v] == "food_group"]
            household_ids, sector_ids, rows = [], [], []
            for row in reader:
                if not row:
                    continue
                line = reader.line_num
                if len(row) != len(header):
                    errors.report(line, f"expected {len(header)} fields, got {len(row)}")
                    continue
                if not row[0] or not row[1]:
                    errors.report(line, "empty household_id or sector_id")
                    continue
                parsed, bad = [], None
                for name, cell in zip(variables, row[2:]):
                    try:
                        parsed.append(float(cell) if cell else float("nan"))
                    except ValueError:
                        parsed.append(None)
                    if parsed[-1] is None or "_" in cell:
                        bad = f"non-numeric value {cell!r} in {name!r}"
                        break
                    if cell and not math.isfinite(parsed[-1]):
                        bad = f"non-finite value {cell!r} in {name!r}"
                        break
                for i in food_cols if bad is None else ():
                    v = parsed[i]
                    if v == v and not (v.is_integer() and 0 <= v <= 7):
                        bad = f"food-group frequency {v!r} in {variables[i]!r} outside 0..7"
                        break
                if bad is not None:
                    errors.report(line, bad)
                    continue
                household_ids.append(row[0])
                sector_ids.append(row[1])
                rows.append(parsed)
            values = np.array(rows, dtype=np.float64).reshape(len(rows), len(variables))
            return SurveyTable(household_ids, sector_ids, variables,
                               {v: categories[v] for v in variables}, values)


# --- row-wise features ---


class FeatureConfig(NamedTuple):
    """The feature settings: ``night_window`` and ``utc_offset_minutes`` go to
    ``read_cdr``, the other two to ``user_features``."""

    night_window: tuple[time, time] = DEFAULT_NIGHT_WINDOW
    home_hours: str = "night"
    diversity_direction: str = "both"
    utc_offset_minutes: int = 0


def in_night_local(timestamp: datetime, config: FeatureConfig) -> bool:
    """The night-window rule on a UTC timestamp shifted to local time."""
    start, end = config.night_window
    # the time of day alone, on a day that no offset under a day moves out of range
    day = datetime.combine(date(2000, 1, 2), timestamp.time())
    t = (day + timedelta(minutes=config.utc_offset_minutes)).time()
    return (t >= start or t < end) if start > end else (start <= t < end)


def contact_diversity(volumes: list[int]) -> float:
    """One user's normalized Shannon entropy over the call volumes of their
    contacts, 0 for a single contact: the rule of
    ``foodsec.features.social_diversity``, one user at a time, with the same
    float operations (``int / int`` shares, ``math.log2``, one ``math.fsum``)
    so that the two agree bit for bit."""
    k = len(volumes)
    if k == 1:
        return 0.0
    total = sum(volumes)
    entropy = -math.fsum([(p := v / total) * math.log2(p) for v in volumes])
    return min(max(entropy / math.log2(k), 0.0), 1.0)


@dataclass
class FeatureAccumulator:
    """Per-row ``Counter`` accumulation of the feature rules; partitions of
    the input can be combined with :meth:`merge`."""

    config: FeatureConfig = field(default_factory=FeatureConfig)
    night_counts: dict[str, Counter] = field(default_factory=dict)
    all_counts: dict[str, Counter] = field(default_factory=dict)
    volumes: dict[str, Counter] = field(default_factory=dict)
    topup_sums: dict[str, Decimal] = field(default_factory=dict)
    topup_mins: dict[str, Decimal] = field(default_factory=dict)
    topup_maxs: dict[str, Decimal] = field(default_factory=dict)
    topup_counts: dict[str, int] = field(default_factory=dict)

    def update_calls(self, records: Iterable[CallRecord]) -> None:
        cfg = self.config
        for rec in records:
            caller = rec.caller_id
            self.all_counts.setdefault(caller, Counter())[rec.tower_id] += 1
            if in_night_local(rec.timestamp, cfg):
                self.night_counts.setdefault(caller, Counter())[rec.tower_id] += 1
            self.volumes.setdefault(caller, Counter())[rec.callee_id] += 1
            if cfg.diversity_direction == "both":
                self.volumes.setdefault(rec.callee_id, Counter())[caller] += 1

    def update_topups(self, records: Iterable[TopUpRecord]) -> None:
        for rec in records:
            user, amount = rec.user_id, rec.amount
            if user in self.topup_sums:
                self.topup_sums[user] += amount
                self.topup_counts[user] += 1
                if amount < self.topup_mins[user]:
                    self.topup_mins[user] = amount
                if amount > self.topup_maxs[user]:
                    self.topup_maxs[user] = amount
            else:
                self.topup_sums[user] = amount
                self.topup_mins[user] = amount
                self.topup_maxs[user] = amount
                self.topup_counts[user] = 1

    def merge(self, other: "FeatureAccumulator") -> None:
        if other.config != self.config:
            raise ValueError("cannot merge accumulators with different configs")
        for target, source in (
            (self.night_counts, other.night_counts),
            (self.all_counts, other.all_counts),
            (self.volumes, other.volumes),
        ):
            for key, counter in source.items():
                if key in target:
                    target[key].update(counter)
                else:
                    target[key] = Counter(counter)
        for user, amount in other.topup_sums.items():
            if user in self.topup_sums:
                self.topup_sums[user] += amount
                self.topup_counts[user] += other.topup_counts[user]
                self.topup_mins[user] = min(self.topup_mins[user], other.topup_mins[user])
                self.topup_maxs[user] = max(self.topup_maxs[user], other.topup_maxs[user])
            else:
                self.topup_sums[user] = amount
                self.topup_counts[user] = other.topup_counts[user]
                self.topup_mins[user] = other.topup_mins[user]
                self.topup_maxs[user] = other.topup_maxs[user]

    def finalize(self, tower_map: Mapping[str, str]) -> tuple[list[UserFeatureVector], Counter]:
        exclusions: Counter = Counter()
        out: list[UserFeatureVector] = []
        for user in sorted(set(self.all_counts) | set(self.topup_sums)):
            towers = self.all_counts.get(user)
            if towers is None:
                exclusions["no_calls"] += 1
                continue
            if user not in self.topup_sums:
                exclusions["no_topups"] += 1
                continue
            night = self.night_counts.get(user)
            counts = night if (self.config.home_hours == "night" and night) else towers
            home_tower = min(counts, key=lambda t: (-counts[t], t))
            sector = tower_map.get(home_tower)
            if sector is None:
                exclusions["unmapped_home_tower"] += 1
                continue
            total = self.topup_sums[user]
            count = self.topup_counts[user]
            contacts = self.volumes.get(user)
            out.append(
                UserFeatureVector(
                    user_id=user,
                    home_sector=sector,
                    topup_sum=total,
                    topup_mean=total / count,
                    topup_min=self.topup_mins[user],
                    topup_max=self.topup_maxs[user],
                    topup_count=count,
                    social_diversity=(
                        contact_diversity(list(contacts.values())) if contacts else None
                    ),
                )
            )
        return out, exclusions


def rowwise_features(
    cdr: Iterable[CallRecord],
    topups: Iterable[TopUpRecord],
    tower_map: Mapping[str, str],
    config: FeatureConfig | None = None,
) -> tuple[list[UserFeatureVector], Counter]:
    acc = FeatureAccumulator(config or FeatureConfig())
    acc.update_calls(cdr)
    acc.update_topups(topups)
    return acc.finalize(tower_map)


# --- writers ---


def format_timestamp(dt: datetime) -> str:
    return dt.isoformat() + "Z"


def cdr_csv(records: Iterable[CallRecord]) -> io.StringIO:
    lines = [",".join(CDR_HEADER)] + [
        f"{r.caller_id},{r.callee_id},{r.tower_id},{format_timestamp(r.timestamp)}"
        for r in records
    ]
    return io.StringIO("\n".join(lines) + "\n")


def topup_csv(records: Iterable[TopUpRecord]) -> io.StringIO:
    lines = [",".join(TOPUP_HEADER)] + [
        f"{r.user_id},{r.amount},{format_timestamp(r.timestamp)}" for r in records
    ]
    return io.StringIO("\n".join(lines) + "\n")


def write_cdr(records: Iterable[CallRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(cdr_csv(records).getvalue())


def write_topups(records: Iterable[TopUpRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(topup_csv(records).getvalue())


def write_tower_map(tower_map: Mapping[str, str], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(TOWER_HEADER) + "\n")
        for tower in sorted(tower_map):
            f.write(f"{tower},{tower_map[tower]}\n")


def write_survey(table: SurveyTable, data_path, meta_path=None) -> None:
    with open(data_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(SURVEY_ID_COLUMNS + table.variables) + "\n")
        for i, (hh, sec) in enumerate(zip(table.household_ids, table.sector_ids)):
            cells = ",".join(format_number(v) for v in table.values[i])
            f.write(f"{hh},{sec},{cells}\n")
    if meta_path is not None:
        with open(meta_path, "w", encoding="utf-8", newline="\n") as f:
            f.write(",".join(SURVEY_META_HEADER) + "\n")
            for v in table.variables:
                f.write(f"{v},{table.categories[v]}\n")


def predict(model: RegressionModel, row: Mapping[str, float]) -> float:
    """Evaluate the model on one row of raw variable values, term by term
    (an independent check of ``foodsec.models.predict_rows``)."""
    total = 0.0
    for term, beta in zip(model.terms, model.coef_std):
        value = beta
        for v in term:
            if v not in row:
                raise ValueError(f"row is missing variable {v!r}")
            value *= (row[v] - model.means[v]) / model.stds[v]
        total += value
    return total


def evaluate_model(model: RegressionModel, x: SectorMatrix, y: np.ndarray) -> float:
    """Pearson correlation between predictions and ``y`` on held data
    (listwise over rows where both are defined)."""
    y = np.asarray(y, dtype=np.float64)
    pred = predict_rows(model, x)
    keep = np.isfinite(pred) & np.isfinite(y)
    if int(keep.sum()) < 3:
        raise FitError("fewer than 3 complete rows to evaluate on")
    r = pearson(pred[keep], y[keep])
    if r is None:
        raise FitError("degenerate evaluation: zero variance")
    return float(r)


def read_null_summary(path) -> NullSummary:
    what = "null_summary"
    _, lines, columns = read_table(path, what, NULL_SUMMARY_HEADER)
    line, trials, *quantiles = next(zip(lines, *columns))
    return NullSummary(
        parse_number(what, line, trials, int), *(parse_number(what, line, q) for q in quantiles)
    )


# --- src path behind per-rule signatures ---


def call_columns(
    records: Iterable[CallRecord],
    night_window: tuple[time, time] = DEFAULT_NIGHT_WINDOW,
    utc_offset_minutes: int = 0,
) -> CallColumns:
    return read_cdr(cdr_csv(records), RowErrorLog(strict=True), night_window, utc_offset_minutes)


def topup_columns(records: Iterable[TopUpRecord], period=None) -> TopUpColumns:
    return read_topups(topup_csv(records), RowErrorLog(strict=True), period)


def build_user_features(
    cdr: Iterable[CallRecord],
    topups: Iterable[TopUpRecord],
    tower_map: Mapping[str, str],
    config: FeatureConfig | None = None,
) -> tuple[list[UserFeatureVector], Counter]:
    cfg = config or FeatureConfig()
    calls = call_columns(cdr, cfg.night_window, cfg.utc_offset_minutes)
    features, exclusions = user_features(calls, topup_columns(topups), tower_map,
                                         home_hours=cfg.home_hours,
                                         diversity_direction=cfg.diversity_direction)
    return feature_vectors(features), exclusions


def assign_home_tower(
    calls: Iterable[CallRecord],
    night_window: tuple[time, time] = DEFAULT_NIGHT_WINDOW,
    utc_offset_minutes: int = 0,
    home_hours: str = "night",
) -> str:
    """Home tower of the one caller in ``calls``."""
    columns = call_columns(calls, night_window, utc_offset_minutes)
    if not len(columns):
        raise NoHomeError("no calls: cannot assign a home tower")
    (caller,) = set(columns.caller.tolist())
    return columns.towers[home_towers(columns, home_hours)[caller]]


def topup_features(
    topups: Iterable[TopUpRecord], period: tuple[datetime, datetime] | None = None
) -> tuple[Decimal, Decimal, Decimal, Decimal, int]:
    """(sum, mean, min, max, count) of one user's top-ups; a top-up outside
    ``period`` is a row error, raised in strict mode."""
    columns = topup_columns(topups, period)
    if not len(columns):
        raise ValueError("no top-ups")
    *money, counts = topup_stats(columns)
    total, lo, hi = (money_decimals(column)[0] for column in money)
    return total, total / int(counts[0]), lo, hi, int(counts[0])
