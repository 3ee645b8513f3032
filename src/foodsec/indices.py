"""Household composite indices and sector-level survey means.

Covers the food consumption score (weighted 7-day food-group frequencies,
thresholded into poor / borderline / acceptable), the coping strategy index
(severity-weighted frequency of food-shortage coping behaviors), the
multidimensional poverty index (headcount x intensity), and the reduction of
the household table to per-sector means.

The default food-group weights and the 21/35 class thresholds follow the
standard WFP guidance; both are overridable (the 28/42 variant in
particular). Threshold comparisons are inclusive on the upper bound of each
class: a score of exactly 21 classifies as poor.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .aggregate import SectorMatrix
from .ingest import FormatError, SurveyTable, TableReader, parse_number

log = logging.getLogger(__name__)

DEFAULT_FCS_WEIGHTS = {
    "staples": 2.0,
    "pulses": 3.0,
    "vegetables": 1.0,
    "fruit": 1.0,
    "meat_fish": 4.0,
    "milk": 4.0,
    "sugar": 0.5,
    "oil": 0.5,
    "condiments": 0.0,
}
DEFAULT_FCS_THRESHOLDS = (21.0, 35.0)
# heatmap category tags of the composite columns build_survey_matrix appends
COMPOSITE_CATEGORIES = {"fcs_mean": "composite", "csi_mean": "composite", "mpi": "poverty"}

FCS_CLASSES = ("poor", "borderline", "acceptable")


@dataclass(frozen=True)
class FoodGroupWeights:
    weights: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_FCS_WEIGHTS))
    poor_max: float = DEFAULT_FCS_THRESHOLDS[0]
    borderline_max: float = DEFAULT_FCS_THRESHOLDS[1]

    def __post_init__(self):
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("food-group weights must be >= 0")
        if not self.poor_max < self.borderline_max:
            raise ValueError("poor_max must be below borderline_max")


def food_consumption_score(
    frequencies: Mapping[str, float], weights: FoodGroupWeights | None = None
) -> float:
    """Weighted sum of per-group consumption frequencies (0-7 days).

    Groups missing from ``frequencies`` count as 0. With the default weights
    the score ranges over [0, 112].
    """
    w = weights or FoodGroupWeights()
    score = 0.0
    for group, freq in frequencies.items():
        if not 0 <= freq <= 7:
            raise ValueError(f"frequency for {group!r} outside 0..7: {freq}")
        score += w.weights.get(group, 0.0) * freq
    return score


def classify_fcs(score: float, weights: FoodGroupWeights | None = None) -> str:
    """poor / borderline / acceptable; boundaries belong to the lower class."""
    w = weights or FoodGroupWeights()
    if score < 0:
        raise ValueError("score must be >= 0")
    if score <= w.poor_max:
        return "poor"
    if score <= w.borderline_max:
        return "borderline"
    return "acceptable"


def coping_strategy_index(
    frequencies: Mapping[str, float], weights: Mapping[str, float]
) -> float:
    """Severity-weighted sum of coping-strategy use frequencies.

    Weights are input data (per-country severity tables), never constants
    baked in here. A strategy present in the data but absent from the weight
    table is an error: silently scoring it at 0 would hide misconfiguration.
    """
    if not weights:
        raise ValueError("at least one strategy weight is required")
    if any(w < 0 for w in weights.values()):
        raise ValueError("strategy weights must be >= 0")
    score = 0.0
    for strategy, freq in frequencies.items():
        if strategy not in weights:
            raise ValueError(f"strategy {strategy!r} has no severity weight")
        if freq < 0:
            raise ValueError(f"frequency for {strategy!r} must be >= 0")
        score += weights[strategy] * freq
    return score


def multidimensional_poverty_index(headcount: float, intensity: float) -> float:
    """MPI = headcount ratio x deprivation intensity, both in [0, 1]."""
    if not 0 <= headcount <= 1:
        raise ValueError(f"headcount outside [0, 1]: {headcount}")
    if not 0 <= intensity <= 1:
        raise ValueError(f"intensity outside [0, 1]: {intensity}")
    return headcount * intensity


def sector_survey_means(table: SurveyTable, variables: Sequence[str]) -> SectorMatrix:
    """Per-sector arithmetic means of the requested variables.

    Missing cells are excluded per variable (pairwise); the per-sector
    household count rides along in ``counts``.
    """
    unknown = [v for v in variables if v not in table.variables]
    if unknown:
        raise ValueError(f"variable(s) not in survey: {', '.join(unknown)}")
    sectors = sorted(set(table.sector_ids))
    sector_index = {s: i for i, s in enumerate(sectors)}
    rows = np.fromiter((sector_index[s] for s in table.sector_ids), dtype=np.int64)
    cols = [table.variables.index(v) for v in variables]
    data = table.values[:, cols] if cols else np.empty((len(table), 0))

    values = np.full((len(sectors), len(variables)), np.nan, dtype=np.float64)
    counts = np.bincount(rows, minlength=len(sectors)).astype(np.int64)
    defined = np.isfinite(data)
    for j in range(len(variables)):
        mask = defined[:, j]
        if not mask.any():
            continue
        sums = np.bincount(rows[mask], weights=data[mask, j], minlength=len(sectors))
        ns = np.bincount(rows[mask], minlength=len(sectors))
        with np.errstate(invalid="ignore"):
            col = sums / ns
        values[:, j] = np.where(ns > 0, col, np.nan)
    return SectorMatrix(sectors=sectors, columns=list(variables), values=values, counts=counts)


# --- small table loaders for the index inputs ---


def load_fcs_weights(
    source, poor_max: float | None = None, borderline_max: float | None = None
) -> FoodGroupWeights:
    """Read ``fcs_weights.csv`` (header ``food_group,weight``)."""
    weights = _load_weight_table(source, ["food_group", "weight"], "fcs_weights")
    return FoodGroupWeights(
        weights=weights,
        poor_max=DEFAULT_FCS_THRESHOLDS[0] if poor_max is None else poor_max,
        borderline_max=DEFAULT_FCS_THRESHOLDS[1] if borderline_max is None else borderline_max,
    )


def load_csi_weights(source) -> dict[str, float]:
    """Read ``csi_weights.csv`` (header ``strategy,weight``)."""
    return _load_weight_table(source, ["strategy", "weight"], "csi_weights")


def _load_weight_table(source, header: list[str], what: str) -> dict[str, float]:
    out: dict[str, float] = {}
    table = TableReader(source, what, header, ids=1)
    for key, text in table:
        weight = parse_number(what, table.line_num, text)
        if weight < 0:
            raise FormatError(f"{what}: negative weight at line {table.line_num}")
        if key in out:
            raise FormatError(f"{what}: duplicate entry {key!r}")
        out[key] = weight
    if not out:
        raise FormatError(f"{what}: empty table")
    return out


def load_poverty(source) -> dict[str, tuple[float, float]]:
    """Read ``poverty.csv`` (header ``sector_id,headcount,intensity``)."""
    what = "poverty"
    out: dict[str, tuple[float, float]] = {}
    table = TableReader(source, what, ["sector_id", "headcount", "intensity"], ids=1)
    for sector, headcount, intensity in table:
        line = table.line_num
        h, a = parse_number(what, line, headcount), parse_number(what, line, intensity)
        if not (0 <= h <= 1 and 0 <= a <= 1):
            raise FormatError(f"{what}: value outside [0, 1] at line {line}")
        if sector in out:
            raise FormatError(f"{what}: duplicate sector {sector!r}")
        out[sector] = (h, a)
    return out


def build_survey_matrix(
    table: SurveyTable,
    fcs_weights: FoodGroupWeights | None = None,
    csi_weights: Mapping[str, float] | None = None,
    poverty: Mapping[str, tuple[float, float]] | None = None,
    variables: Sequence[str] | None = None,
) -> tuple[SectorMatrix, dict[str, str], dict[str, int]]:
    """Sector x survey-variable matrix with composite index columns.

    Columns are the requested variables (default: every survey variable)
    followed by ``fcs_mean``, ``csi_mean``, and ``mpi``. FCS uses the survey
    columns whose names match the weight table's food groups (absent groups
    score 0); CSI likewise selects columns named after the weighted
    strategies and stays undefined without a weight table. A household with
    a blank cell in a column of non-zero weight has no score and is left out
    of that mean; a sector without a scored household has none. MPI is
    undefined for sectors missing from the poverty table.

    Returns the matrix, a column -> category map for heatmap output, and the
    number of households left out of each composite mean (only those with
    any).
    """
    fcs = fcs_weights or FoodGroupWeights()
    if variables is None:
        variables = list(table.variables)
    base = sector_survey_means(table, variables)
    sectors = base.sectors
    sector_index = {s: i for i, s in enumerate(sectors)}
    rows = np.fromiter((sector_index[s] for s in table.sector_ids), dtype=np.int64)
    incomplete: dict[str, int] = {}

    def sector_mean(name: str, weights: Mapping[str, float]) -> np.ndarray:
        """Per-sector mean of the weighted sum of the columns in ``weights``."""
        scores = np.zeros(len(table), dtype=np.float64)
        for column, weight in weights.items():
            if weight:
                scores += weight * table.column(column)
        scored = ~np.isnan(scores)
        if not scored.all():
            incomplete[name] = int((~scored).sum())
            log.warning("%s: %d household(s) with a blank weighted cell left out",
                        name, incomplete[name])
        sums = np.bincount(rows[scored], weights=scores[scored], minlength=len(sectors))
        counts = np.bincount(rows[scored], minlength=len(sectors))
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)

    extra = np.full((len(sectors), 3), np.nan, dtype=np.float64)
    extra[:, 0] = sector_mean(
        "fcs_mean", {g: w for g, w in fcs.weights.items() if g in table.variables}
    )
    if csi_weights:
        matched = {s: w for s, w in csi_weights.items() if s in table.variables}
        if matched:
            extra[:, 1] = sector_mean("csi_mean", matched)
        else:
            log.warning("csi: no weighted strategy matches a survey column")
    if poverty:
        for sector, (h, a) in poverty.items():
            i = sector_index.get(sector)
            if i is not None:
                extra[i, 2] = multidimensional_poverty_index(h, a)
        missing = [s for s in sectors if s not in poverty]
        if missing:
            log.warning("poverty: %d sector(s) missing from the poverty table", len(missing))

    matrix = SectorMatrix(
        sectors=sectors,
        columns=list(variables) + ["fcs_mean", "csi_mean", "mpi"],
        values=np.hstack([base.values, extra]),
        counts=base.counts,
    )
    categories = {v: table.categories[v] for v in variables}
    return matrix, {**categories, **COMPOSITE_CATEGORIES}, incomplete
