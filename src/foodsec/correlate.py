"""Mobile x survey correlation matrix, p-values, confidence intervals, and
the shuffled-sector null distribution.

Correlations are plain Pearson product-moment coefficients computed two-pass
for numerical stability. An undefined correlation (zero variance on either
side, or fewer than 3 paired sectors) is a distinct state, never coerced to
0 or NaN-leaked into output. Deletion of undefined cells is pairwise: each
(mobile, survey) pair keeps every sector where both sides are defined, and
records its own n.

Significance follows the standard Student-t transform of r; intervals use
the Fisher z-transform. The null distribution permutes the survey side's
sector order uniformly at random, recomputes every correlation, and pools
|r|; trials derive per-trial seeds from one master seed and are evaluated
in stacked batches, so results do not depend on the batch size.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .aggregate import SectorMatrix
from .ingest import FormatError, format_number, parse_column, read_table, write_table

log = logging.getLogger(__name__)

CORRELATION_HEADER = ["mobile_var", "survey_var", "r", "p", "ci_low", "ci_high", "n", "defined"]
NULL_SUMMARY_HEADER = ["trials", "abs_r_p50", "abs_r_p95", "abs_r_p99", "abs_r_max"]


@dataclass(frozen=True)
class CorrelationEntry:
    mobile_var: str
    survey_var: str
    r: float | None
    p: float | None
    ci_low: float | None
    ci_high: float | None
    n: int
    defined: bool


@dataclass(frozen=True)
class NullSummary:
    trials: int
    abs_r_p50: float
    abs_r_p95: float
    abs_r_p99: float
    abs_r_max: float


def pearson(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Pearson r of two equal-length vectors, or None if either side has
    zero variance. Two-pass (centered) evaluation, clamped to [-1, 1]."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
    if xa.size < 2:
        raise ValueError("need at least 2 paired values")
    xc, yc = (xa - xa.mean())[None], (ya - ya.mean())[None]
    sxx, syy = _square_sums(xc), _square_sums(yc)
    r = float(_r_from_sums(np.vecdot(xc, yc), sxx, syy)[0])
    return None if math.isnan(r) else r


def _square_sums(a: np.ndarray, sums: Callable = lambda a: np.vecdot(a, a)) -> np.ndarray:
    """``sums(a)``, the sums of squares of the rows of ``a`` (its last axis),
    once each row whose sum overflows or falls below the normal float range
    is scaled in place by the power of two that brings its largest magnitude
    into [0.5, 1): exact, so r keeps every digit; other rows keep their bytes."""
    with np.errstate(over="ignore"):
        ss = sums(a)
    odd = ~((ss >= np.finfo(np.float64).tiny) & (ss < np.inf))
    if odd.any():
        rows = a[odd]
        rows = np.ldexp(rows, -np.frexp(np.abs(rows).max(axis=-1, keepdims=True))[1])
        a[odd] = rows
        ss[odd] = sums(rows)
    return ss


def _r_from_sums(sxy, sxx, syy):
    """r = sxy / sqrt(sxx * syy) from centered cross and square sums, clipped
    to [-1, 1]; NaN where sxx or syy is 0. Where sxx * syy under- or
    overflows the normal float range, the root is sqrt(sxx) * sqrt(syy)."""
    with np.errstate(all="ignore"):
        product = sxx * syy
        normal = (product >= np.finfo(np.float64).tiny) & (product < np.inf)
        root = np.where(normal, np.sqrt(product), np.sqrt(sxx) * np.sqrt(syy))
        r = np.clip(sxy / root, -1.0, 1.0)
    return np.where((sxx > 0.0) & (syy > 0.0), r, np.nan)


def scipy_special():
    """``scipy.special``, which p-values and confidence intervals take their
    functions from; its first import after ``foodsec.cli`` takes 0.16-0.30 s
    on 2 vCPUs and lifts resident memory from 36 to 55 MiB. ``all`` imports
    it where the null's buffers are not held: after the null has freed them
    at ``--threads 1``, and beside the worker that runs the null otherwise."""
    from scipy import special

    return special


def pearson_p(r: float, n: int) -> float | None:
    """Two-sided p-value for r via t = r * sqrt((n-2) / (1-r^2)) against
    Student-t with n-2 degrees of freedom. None when n < 3."""
    if n < 3:
        return None
    if abs(r) >= 1.0:
        return 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    # Student-t survival function, the one scipy.stats.t.sf evaluates
    return float(2.0 * scipy_special().stdtr(n - 2, -abs(t)))


def fisher_ci(r: float, n: int, level: float = 0.95) -> tuple[float, float] | None:
    """Fisher z-transform confidence interval for r. None when n <= 3.

    z = atanh(r) with standard error 1/sqrt(n-3); the normal-quantile
    half-width is mapped back through tanh, so bounds stay inside [-1, 1].
    """
    if not 0 < level < 1:
        raise ValueError("level must be in (0, 1)")
    if n <= 3:
        return None
    if abs(r) >= 1.0:
        return (float(r), float(r))
    q = scipy_special().ndtri(0.5 + level / 2.0)  # scipy.stats.norm.ppf
    z = math.atanh(r)
    half = q / math.sqrt(n - 3)
    return (math.tanh(z - half), math.tanh(z + half))


def join_sectors(
    mobile: SectorMatrix, survey: SectorMatrix
) -> tuple[SectorMatrix, SectorMatrix]:
    """Both matrices cut to the sectors they share, in sorted order."""
    common = sorted(set(mobile.sectors) & set(survey.sectors))

    def take(m: SectorMatrix) -> SectorMatrix:
        index = {s: i for i, s in enumerate(m.sectors)}
        rows = [index[s] for s in common]
        return SectorMatrix(common, list(m.columns), m.values[rows], m.counts[rows])

    return take(mobile), take(survey)


# Float64 elements of permuted survey columns one null batch may hold, and of
# gathered cells one stack of masked pairs may hold.
_BATCH_ELEMENTS = 1 << 16


def _corr_kernel(
    x: np.ndarray, y: np.ndarray
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """All-pairs correlations between the columns of x and of y[perm] with
    pairwise deletion, for each row of a (B, n) stack of permutations.

    The returned function gives (r, n), each (B, x cols, y cols); undefined
    cells are NaN in r. NaN-free column pairs take one standardized product
    per stack. Every other pair is taken per (mobile group, survey group),
    the columns of each side grouped by where they have cells: the trials
    that share a count of common cells are stacked, and their centered cells
    go through row dots (``np.vecdot``, as in :func:`pearson`). Each value is
    bit-identical to evaluating one permutation at a time: the C-contiguous
    layouts below keep numpy's reductions and BLAS calls as they are then.
    """
    n_rows = x.shape[0]
    fx, fy = np.isfinite(x), np.isfinite(y)
    x_ok, y_ok = fx.all(axis=0), fy.all(axis=0)
    block_rows, block_cols = np.ix_(np.flatnonzero(x_ok), np.flatnonzero(y_ok))
    xs = _standardize(np.ascontiguousarray(x[:, x_ok].T)) if n_rows >= 3 else None
    yt = np.ascontiguousarray(y[:, y_ok].T)
    x_groups, y_groups = _gap_groups(x, fx), _gap_groups(y, fy)
    masked = [(xg, yg) for xg in x_groups for yg in y_groups
              if not (xg[1].all() and yg[1].all())]

    def grids(perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = np.full((len(perms), x.shape[1], y.shape[1]), np.nan, dtype=np.float64)
        ns = np.zeros(r.shape, dtype=np.int64)
        ns[:, block_rows, block_cols] = n_rows
        if xs is not None:
            # (B, q, n) C-contiguous stack, fed to matmul as (B, n, q) views.
            ys = _standardize(_stack(yt, perms))
            with np.errstate(invalid="ignore"):
                block = np.matmul(xs, ys.transpose(0, 2, 1)) / (n_rows - 1)
            r[:, block_rows, block_cols] = np.clip(block, -1.0, 1.0)
        for (x_cols, x_mask, xt), (y_cols, y_mask, ymt) in masked:
            masks = x_mask & y_mask[perms]
            k = masks.sum(axis=1)
            ns[:, x_cols[:, None], y_cols] = k[:, None, None]
            for cells in np.unique(k[k >= 3]):
                same = np.flatnonzero(k == cells)
                step = max(1, _BATCH_ELEMENTS // ((len(x_cols) + len(y_cols)) * cells))
                for t in (same[i:i + step] for i in range(0, len(same), step)):
                    # each side's cells: the mobile side's at the masks' positions,
                    # the survey side's at the sectors the permutations put there
                    pos = np.nonzero(masks[t])[1].reshape(len(t), cells)
                    xc = _center(_stack(xt, pos))
                    yc = _center(_stack(ymt, np.take_along_axis(perms[t], pos, axis=1)))
                    sxx, syy = _square_sums(xc), _square_sums(yc)
                    r[t[:, None, None], x_cols[:, None], y_cols] = _r_from_sums(
                        np.vecdot(xc[:, :, None], yc[:, None]), sxx[:, :, None], syy[:, None])
        return r, ns

    return grids


def _gap_groups(a: np.ndarray, finite: np.ndarray) -> list[tuple]:
    """The columns of ``a`` grouped by where they have cells: per group its
    column indices, their shared cell mask and their (columns, n) rows."""
    groups: dict[bytes, list[int]] = {}
    for j in range(finite.shape[1]):
        groups.setdefault(finite[:, j].tobytes(), []).append(j)
    return [(np.array(cols), finite[:, cols[0]], np.ascontiguousarray(a[:, cols].T))
            for cols in groups.values()]


def _stack(rows: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The (b, rows, cells) C-contiguous stack of ``rows[:, at[i]]`` for each
    row of the (b, cells) ``at``."""
    return np.take(rows, at, axis=1).transpose(1, 0, 2).copy()


def _center(a: np.ndarray) -> np.ndarray:
    """``a`` less its mean along the last axis, in place."""
    return np.subtract(a, a.mean(axis=-1, keepdims=True), out=a)


def _standardize(a: np.ndarray) -> np.ndarray:
    """Center and scale ``a`` in place along the last axis to unit sample
    (n-1) variance, by the steps of ``np.std(ddof=1)``; constant rows come
    out as NaN, which marks the correlation undefined."""
    _center(a)
    ss = _square_sums(a, lambda a: np.add.reduce(a * a, axis=-1))
    sd = np.sqrt(ss[..., None] / (a.shape[-1] - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(a, sd, out=a)
    np.copyto(a, np.nan, where=sd == 0.0)
    return a


def correlation_matrix(
    mobile: SectorMatrix, survey: SectorMatrix, level: float = 0.95
) -> list[CorrelationEntry]:
    """One entry per (mobile variable, survey variable) pair, joined on
    sector_id with pairwise deletion of undefined cells.

    Signed r is always reported (heatmap output takes |r| separately). A
    pair with fewer than 3 common defined sectors, or zero variance on
    either side, yields an undefined entry.
    """
    joined, matched = join_sectors(mobile, survey)
    common, x, y = joined.sectors, joined.values, matched.values
    if len(common) < 3:
        log.warning(
            "correlation join has only %d common sector(s); every entry undefined",
            len(common),
        )
    (r,), (ns,) = _corr_kernel(x, y)(np.arange(len(common))[None, :])
    entries: list[CorrelationEntry] = []
    for i, mobile_var in enumerate(mobile.columns):
        for j, survey_var in enumerate(survey.columns):
            rij = r[i, j]
            n = int(ns[i, j])
            if not math.isfinite(rij):
                entries.append(
                    CorrelationEntry(mobile_var, survey_var, None, None, None, None, n, False)
                )
                continue
            ci = fisher_ci(rij, n, level)
            entries.append(
                CorrelationEntry(
                    mobile_var=mobile_var,
                    survey_var=survey_var,
                    r=float(rij),
                    p=pearson_p(rij, n),
                    ci_low=None if ci is None else ci[0],
                    ci_high=None if ci is None else ci[1],
                    n=n,
                    defined=True,
                )
            )
    return entries


def shuffle_null(
    mobile: SectorMatrix,
    survey: SectorMatrix,
    trials: int,
    seed: int,
) -> NullSummary:
    """Null |r| distribution from randomly permuted sector alignment.

    Each trial permutes the survey matrix's sector order uniformly at random
    (permuting one side is equivalent to permuting either), recomputes the
    full correlation grid, and pools the defined |r| values; the summary
    reports pooled quantiles and the overall max.

    Trial t draws from a child seed spawned from ``seed``. Trials are
    evaluated in batches of stacked permutations, and the result is
    identical for any batch size.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    x, y = (m.values for m in join_sectors(mobile, survey))
    n = x.shape[0]
    if n < 3:
        raise FormatError(f"no defined correlation in any null trial: the matrices share {n} "
                          "sector(s), fewer than the 3 a correlation needs")
    children = np.random.SeedSequence(seed).spawn(trials)
    grids = _corr_kernel(x, y)
    batch = max(1, _BATCH_ELEMENTS // max(1, y.size))
    pooled = np.empty(trials * x.shape[1] * y.shape[1])
    size = 0
    for start in range(0, trials, batch):
        perms = np.array(
            [np.random.default_rng(c).permutation(n) for c in children[start:start + batch]]
        )
        r, _ = grids(perms)
        defined = np.abs(r[np.isfinite(r)])
        pooled[size:size + defined.size] = defined
        size += defined.size
    del perms, r, defined
    if size == 0:
        raise FormatError("no defined correlation in any null trial: do 3+ sectors vary?")
    pooled = pooled[:size]
    abs_r_max = float(pooled.max())
    # Quantiles depend only on the multiset of values, so partitioning the
    # buffer in place is safe once the max is taken.
    p50, p95, p99 = np.quantile(pooled, [0.50, 0.95, 0.99], overwrite_input=True)
    return NullSummary(
        trials=trials,
        abs_r_p50=float(p50),
        abs_r_p95=float(p95),
        abs_r_p99=float(p99),
        abs_r_max=abs_r_max,
    )


# --- output files ---


def write_correlations(entries: Sequence[CorrelationEntry], path) -> None:
    write_table(path, CORRELATION_HEADER, (
        (e.mobile_var, e.survey_var, *map(format_number, (e.r, e.p, e.ci_low, e.ci_high)),
         str(e.n), str(e.defined).lower())
        for e in entries
    ))


def read_correlations(path) -> list[CorrelationEntry]:
    what = "correlations"
    _, lines, columns = read_table(path, what, CORRELATION_HEADER, unique=2)
    mobile, survey, r, p, ci_low, ci_high, n, defined = columns

    def optional(cells):
        return parse_column(what, lines, cells, optional=True)

    return list(map(
        CorrelationEntry, mobile, survey, optional(r), optional(p), optional(ci_low),
        optional(ci_high), parse_column(what, lines, n, int), [d == "true" for d in defined],
    ))


def write_heatmap_data(
    entries: Sequence[CorrelationEntry], categories: dict[str, str], path
) -> None:
    """Long-format |r| file for external heatmap rendering (defined entries
    only, tagged with the survey variable's category)."""
    write_table(path, ["mobile_var", "survey_var", "abs_r", "category"], (
        (e.mobile_var, e.survey_var, format_number(abs(e.r)), categories.get(e.survey_var, ""))
        for e in entries if e.defined
    ))


def write_null_summary(summary: NullSummary, path) -> None:
    numbers = (summary.abs_r_p50, summary.abs_r_p95, summary.abs_r_p99, summary.abs_r_max)
    write_table(path, NULL_SUMMARY_HEADER, [(str(summary.trials), *map(format_number, numbers))])
