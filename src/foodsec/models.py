"""Least-squares polynomial proxy models over sector-level mobile variables.

A model maps a small subset of mobile variables through a degree-1 or
degree-2 polynomial basis (intercept, each variable, and for degree 2 every
pairwise product including squares) to a target survey indicator. Columns
are standardized before solving and the system is solved by SVD-backed
least squares, never by inverting normal equations. The reported fit quality
is the Pearson correlation between fitted and observed values, which for
least squares with an intercept lands in [0, 1].

Rows with any undefined cell among the selected columns or the target are
dropped listwise before fitting (a fit needs complete rows), unlike the
pairwise policy used for the correlation matrix.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .aggregate import SectorMatrix
from .config import check_names
from .correlate import join_sectors, pearson
from .ingest import FormatError, format_number, parse_number, read_table, write_table

log = logging.getLogger(__name__)

MODEL_HEADER = ["term", "coefficient_std", "coefficient_raw"]


class FitError(FormatError, ValueError):
    """Fit cannot proceed: too few rows, collinear basis, degenerate target."""


@dataclass(frozen=True)
class RegressionModel:
    target: str
    terms: tuple[tuple[str, ...], ...]  # () = intercept, (a,), (a, b) with a <= b
    coef_std: tuple[float, ...]  # coefficients over standardized variables
    coef_raw: tuple[float, ...]  # equivalent polynomial over raw variables
    means: Mapping[str, float]
    stds: Mapping[str, float]
    fit_r: float
    n: int
    n_dropped: int

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(v for term in self.terms for v in term))


def term_name(term: tuple[str, ...]) -> str:
    if not term:
        return "intercept"
    if len(term) == 2 and term[0] == term[1]:
        return f"{term[0]}^2"
    return "*".join(term)


def polynomial_terms(variables: Sequence[str], degree: int) -> list[tuple[str, ...]]:
    """Intercept + linear terms + (degree 2) all products of two variables."""
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    terms: list[tuple[str, ...]] = [()]
    terms.extend((v,) for v in variables)
    if degree == 2:
        for i, a in enumerate(variables):
            for b in variables[i:]:
                terms.append((a, b))
    return terms


def _design(
    terms: Sequence[tuple[str, ...]],
    standardized: Mapping[str, np.ndarray],
    n: int,
) -> np.ndarray:
    design = np.empty((n, len(terms)), dtype=np.float64)
    for j, term in enumerate(terms):
        if not term:
            design[:, j] = 1.0
        else:
            col = standardized[term[0]].copy()
            for v in term[1:]:
                col *= standardized[v]
            design[:, j] = col
    return design


def fit_model(
    x: SectorMatrix,
    y: np.ndarray,
    target: str,
    degree: int = 1,
    variables: Sequence[str] | None = None,
) -> RegressionModel:
    """Fit the polynomial basis of ``variables`` to ``y`` (aligned with
    ``x.sectors``) by ordinary least squares.

    Raises :class:`FitError` when fewer complete rows remain than basis
    terms, when the basis is rank-deficient (the offending collinear terms
    are named), or when fitted or observed values have no variance.
    """
    if variables is None:
        variables = list(x.columns)
    else:
        check_names("variables", variables, x.columns, "variable")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (len(x.sectors),):
        raise ValueError("y must align with the matrix's sectors")

    cols = {v: x.column(v) for v in variables}
    keep = np.isfinite(y)
    for col in cols.values():
        keep &= np.isfinite(col)
    n = int(keep.sum())
    n_dropped = len(y) - n
    if n_dropped:
        log.info("fit %s: dropped %d row(s) with undefined cells", target, n_dropped)

    terms = polynomial_terms(list(variables), degree)
    if n <= len(terms):
        raise FitError(f"{n} complete row(s) for {len(terms)} basis terms")

    means: dict[str, float] = {}
    stds: dict[str, float] = {}
    standardized: dict[str, np.ndarray] = {}
    for v, col in cols.items():
        kept = col[keep]
        mu = float(kept.mean())
        sd = float(kept.std(ddof=1))
        if sd == 0.0:
            raise FitError(f"variable {v!r} is constant over the fitted rows")
        means[v] = mu
        stds[v] = sd
        standardized[v] = (kept - mu) / sd

    design = _design(terms, standardized, n)
    rank = np.linalg.matrix_rank(design)
    if rank < len(terms):
        raise FitError(
            "collinear basis terms: " + ", ".join(_collinear_terms(design, terms, rank))
        )
    coef, *_ = np.linalg.lstsq(design, y[keep], rcond=None)
    fitted = design @ coef
    fit_r = pearson(fitted, y[keep])
    if fit_r is None:
        raise FitError("degenerate fit: fitted or observed values have zero variance")

    return RegressionModel(
        target=target,
        terms=tuple(terms),
        coef_std=tuple(float(c) for c in coef),
        coef_raw=_destandardize(terms, coef, means, stds),
        means=means,
        stds=stds,
        fit_r=float(fit_r),
        n=n,
        n_dropped=n_dropped,
    )


def _collinear_terms(
    design: np.ndarray, terms: Sequence[tuple[str, ...]], rank: int
) -> list[str]:
    # Pivoted QR: the columns pivoted past the numerical rank are the
    # dependent ones. Imported here: only a rank-deficient fit needs it.
    import scipy.linalg

    _, _, pivots = scipy.linalg.qr(design, mode="economic", pivoting=True)
    return sorted(term_name(terms[j]) for j in pivots[rank:])


def _destandardize(
    terms: Sequence[tuple[str, ...]],
    coef: np.ndarray,
    means: Mapping[str, float],
    stds: Mapping[str, float],
) -> tuple[float, ...]:
    """Expand coefficients over standardized variables into the equivalent
    polynomial over raw variables, reported on the same term list.

    beta * z_a z_b with z = (x - m)/s expands into contributions to the
    (a, b), (a,), (b,), and intercept terms.
    """
    raw: dict[tuple[str, ...], float] = {term: 0.0 for term in terms}
    for term, beta in zip(terms, coef):
        b = float(beta)
        if not term:
            raw[()] += b
        elif len(term) == 1:
            (a,) = term
            raw[term] += b / stds[a]
            raw[()] -= b * means[a] / stds[a]
        else:
            a, c = term
            scale = b / (stds[a] * stds[c])
            raw[term] += scale
            raw[(a,)] -= scale * means[c]
            raw[(c,)] -= scale * means[a]
            raw[()] += scale * means[a] * means[c]
    return tuple(raw[term] for term in terms)


def fit_from_matrices(
    mobile: SectorMatrix,
    survey: SectorMatrix,
    target: str,
    degree: int = 1,
    variables: Sequence[str] | None = None,
) -> tuple[RegressionModel, SectorMatrix, np.ndarray]:
    """Join the two matrices on sector_id and fit ``target`` (a survey
    column) from the mobile variables. Returns the model plus the joined
    mobile matrix and target vector for prediction/scatter output."""
    check_names("target", [target], survey.columns, "survey column")
    joined, matched = join_sectors(mobile, survey)
    if not joined.sectors:
        raise FitError("mobile and survey matrices share no sectors")
    y = matched.column(target)
    model = fit_model(joined, y, target, degree=degree, variables=variables)
    return model, joined, y


def predict_rows(model: RegressionModel, x: SectorMatrix) -> np.ndarray:
    """Model predictions per sector row; NaN where an input is undefined."""
    standardized = {v: (x.column(v) - model.means[v]) / model.stds[v] for v in model.variables}
    design = _design(model.terms, standardized, len(x.sectors))
    return design @ np.asarray(model.coef_std)


def write_model(model: RegressionModel, path) -> None:
    """``model_<target>.csv``: one row per term plus fit_r and n footers."""
    rows = [(term_name(term), format_number(cs), format_number(cr))
            for term, cs, cr in zip(model.terms, model.coef_std, model.coef_raw)]
    rows += [("fit_r", format_number(model.fit_r), ""), ("n", str(model.n), "")]
    write_table(path, MODEL_HEADER, rows)


def read_model_summary(path) -> dict[str, float]:
    """Pull the fit_r / n footer values back out of a model file."""
    _, lines, (terms, values, _) = read_table(path, "model", MODEL_HEADER)
    return {
        term: parse_number("model", line, value)
        for line, term, value in zip(lines, terms, values)
        if term in ("fit_r", "n")
    }


def write_scatter_data(
    sectors: Sequence[str], predicted: np.ndarray, observed: np.ndarray, path
) -> None:
    """(sector, predicted, observed) triples for external scatter plots."""
    write_table(path, ["sector_id", "predicted", "observed"], (
        (s, format_number(p), format_number(o))
        for s, p, o in zip(sectors, predicted, observed) if math.isfinite(p) and math.isfinite(o)
    ))
