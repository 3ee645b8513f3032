"""Household composite indices and sector-level survey means.

Covers the food consumption score (weighted 7-day food-group frequencies),
the coping strategy index (severity-weighted frequency of food-shortage
coping behaviors), the multidimensional poverty index (headcount x
intensity), and the reduction of the household table to per-sector means.

FCS and CSI are one rule, a weighted sum of a household's answers. An
answer is a number or an array with one value per household, so the same
call scores one household or a whole survey table. The default food-group
weights follow the standard WFP guidance; a weight table overrides them.
"""

from __future__ import annotations

import logging
import math
from typing import Mapping, Sequence, Union

import numpy as np

from .aggregate import SectorMatrix
from .config import check_names
from .ingest import POVERTY_HEADER, FormatError, SurveyTable, parse_number, read_table

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
# heatmap category tags of the composite columns build_survey_matrix appends
COMPOSITE_CATEGORIES = {"fcs_mean": "composite", "csi_mean": "composite", "mpi": "poverty"}
# the households behind each sector's means, a column of sector_survey.csv
COUNT_COLUMN = "n_households"

# column -> its answer: a number, or an array with one value per household
Answers = Mapping[str, Union[float, np.ndarray]]


def _weighted_sum(answers: Answers, weights: Mapping[str, float], most: float):
    """Sum of weight x answer over the columns of non-zero weight, added in
    weight-table order from 0.0. A weighted column absent from ``answers``
    adds 0; an answer outside [0, most] is an error; a blank (NaN) answer
    leaves that household's score NaN."""
    score = 0.0
    for column, weight in weights.items():
        if weight < 0:
            raise ValueError(f"weight for {column!r} must be >= 0")
        if not weight or column not in answers:
            continue
        answer = np.asarray(answers[column], dtype=np.float64)
        bad = answer[(answer < 0) | (answer > most)]
        if bad.size:
            raise ValueError(f"answer {bad[0]:g} for {column!r} outside [0, {most:g}]")
        score = score + weight * answer
    return score


def food_consumption_score(frequencies: Answers, weights: Mapping[str, float] | None = None):
    """Weighted sum of per-group consumption frequencies (0-7 days).

    ``weights`` defaults to the standard table, with which the score ranges
    over [0, 112]. Groups missing from ``frequencies`` count as 0.
    """
    return _weighted_sum(frequencies, DEFAULT_FCS_WEIGHTS if weights is None else weights, 7.0)


def coping_strategy_index(frequencies: Answers, weights: Mapping[str, float]):
    """Severity-weighted sum of coping-strategy use frequencies (>= 0).

    Weights are input data (per-country severity tables), never constants
    baked in here. A strategy present in the data but absent from the weight
    table is an error: silently scoring it at 0 would hide misconfiguration.
    """
    if not weights:
        raise ValueError("at least one strategy weight is required")
    for strategy in frequencies:
        if strategy not in weights:
            raise ValueError(f"strategy {strategy!r} has no severity weight")
    return _weighted_sum(frequencies, weights, math.inf)


def multidimensional_poverty_index(headcount: float, intensity: float) -> float:
    """MPI = headcount ratio x deprivation intensity, both in [0, 1]."""
    if not 0 <= headcount <= 1:
        raise ValueError(f"headcount outside [0, 1]: {headcount}")
    if not 0 <= intensity <= 1:
        raise ValueError(f"intensity outside [0, 1]: {intensity}")
    return headcount * intensity


def sector_survey_means(table: SurveyTable, variables: Sequence[str] | None = None,
                        scores: Mapping[str, np.ndarray] | None = None) -> SectorMatrix:
    """Per-sector arithmetic means of the requested variables (default:
    every survey variable), then of each per-household column in ``scores``
    (name -> one value per household).

    NaN cells are excluded per column (pairwise); the per-sector household
    count rides along in ``counts``.
    """
    if variables is None:
        variables = table.variables
    else:
        check_names("variables", variables, table.variables, "survey variable")
    scores = scores or {}
    sectors = sorted(set(table.sector_ids))
    sector_index = {s: i for i, s in enumerate(sectors)}
    rows = np.fromiter((sector_index[s] for s in table.sector_ids), dtype=np.int64)
    columns = list(variables) + list(scores)
    data = [table.column(v) for v in variables] + list(scores.values())

    values = np.full((len(sectors), len(columns)), np.nan, dtype=np.float64)
    counts = np.bincount(rows, minlength=len(sectors)).astype(np.int64)
    for j, column in enumerate(data):
        mask = ~np.isnan(column)
        sums = np.bincount(rows[mask], weights=column[mask], minlength=len(sectors))
        ns = np.bincount(rows[mask], minlength=len(sectors))
        with np.errstate(invalid="ignore"):
            values[:, j] = np.where(ns > 0, sums / ns, np.nan)
    return SectorMatrix(sectors=sectors, columns=columns, values=values, counts=counts)


# --- small table loaders for the index inputs ---


def load_fcs_weights(source) -> dict[str, float]:
    """Read ``fcs_weights.csv`` (header ``food_group,weight``)."""
    return _load_weight_table(source, ["food_group", "weight"], "fcs_weights")


def load_csi_weights(source) -> dict[str, float]:
    """Read ``csi_weights.csv`` (header ``strategy,weight``)."""
    return _load_weight_table(source, ["strategy", "weight"], "csi_weights")


def _load_weight_table(source, header: list[str], what: str) -> dict[str, float]:
    out: dict[str, float] = {}
    _, lines, columns = read_table(source, what, header, ids=1, unique=1)
    for line, key, text in zip(lines, *columns):
        weight = parse_number(what, line, text)
        if weight < 0:
            raise FormatError(f"{what}: negative weight at line {line}")
        out[key] = weight
    if not out:
        raise FormatError(f"{what}: empty table")
    return out


def load_poverty(source) -> dict[str, tuple[float, float]]:
    """Read ``poverty.csv`` (header ``sector_id,headcount,intensity``)."""
    what = "poverty"
    out: dict[str, tuple[float, float]] = {}
    _, lines, columns = read_table(source, what, POVERTY_HEADER, ids=1, unique=1)
    for line, sector, headcount, intensity in zip(lines, *columns):
        h, a = parse_number(what, line, headcount), parse_number(what, line, intensity)
        if not (0 <= h <= 1 and 0 <= a <= 1):
            raise FormatError(f"{what}: value outside [0, 1] at line {line}")
        out[sector] = (h, a)
    return out


def build_survey_matrix(
    table: SurveyTable,
    fcs_weights: Mapping[str, float] | None = None,
    csi_weights: Mapping[str, float] | None = None,
    poverty: Mapping[str, tuple[float, float]] | None = None,
    variables: Sequence[str] | None = None,
) -> tuple[SectorMatrix, dict[str, str], dict[str, int]]:
    """Sector x survey-variable matrix with composite index columns.

    Columns are the requested variables (default: every survey variable)
    followed by ``fcs_mean``, ``csi_mean``, and ``mpi``. FCS scores the
    survey columns named after the weight table's food groups (default: the
    standard table; absent groups score 0), CSI those named after the
    weighted strategies. An index with no survey column of non-zero weight,
    CSI without a weight table among them, is undefined. A household with a
    blank cell in a column of non-zero weight has no score and is left out
    of that mean; a sector without a scored household has none. An answer
    outside the index's range is a :class:`FormatError`. MPI is undefined
    for sectors missing from the poverty table. A survey variable named
    after a composite column or ``COUNT_COLUMN`` is a :class:`FormatError`.

    Returns the matrix, a column -> category map for heatmap output, and the
    number of households left out of each composite mean (only those with
    any).
    """
    for v in table.variables:
        if v in COMPOSITE_CATEGORIES or v == COUNT_COLUMN:
            kind = "the count column" if v == COUNT_COLUMN else "a composite column"
            raise FormatError(f"survey: variable {v!r} has the name of {kind}")
    scores: dict[str, np.ndarray] = {}
    incomplete: dict[str, int] = {}
    for name, index, weights in (
        ("fcs_mean", food_consumption_score,
         DEFAULT_FCS_WEIGHTS if fcs_weights is None else fcs_weights),
        ("csi_mean", coping_strategy_index, csi_weights or {}),
    ):
        answers = {c: table.column(c) for c, w in weights.items() if w and c in table.variables}
        if not answers:
            if weights:
                log.warning("%s: no survey column carries a non-zero weight", name)
            scores[name] = np.full(len(table), np.nan)
            continue
        try:
            scores[name] = index(answers, weights)
        except ValueError as exc:
            raise FormatError(f"survey: {name}: {exc}") from exc
        blank = int(np.isnan(scores[name]).sum())
        if blank:
            incomplete[name] = blank
            log.warning("%s: %d household(s) with a blank weighted cell left out", name, blank)
    means = sector_survey_means(table, variables, scores)

    poverty = poverty or {}
    mpi = [multidimensional_poverty_index(*poverty[s]) if s in poverty else math.nan
           for s in means.sectors]
    missing = sum(s not in poverty for s in means.sectors)
    if poverty and missing:
        log.warning("poverty: %d sector(s) missing from the poverty table", missing)

    matrix = SectorMatrix(
        sectors=means.sectors,
        columns=means.columns + ["mpi"],
        values=np.column_stack([means.values, mpi]),
        counts=means.counts,
    )
    categories = {v: table.categories[v] for v in variables or table.variables}
    return matrix, {**categories, **COMPOSITE_CATEGORIES}, incomplete
