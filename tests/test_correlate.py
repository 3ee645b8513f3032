import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from foodsec import correlate
from foodsec.aggregate import SectorMatrix
from foodsec.correlate import (
    NullSummary,
    _corr_kernel,
    correlation_matrix,
    join_sectors,
    fisher_ci,
    pearson,
    pearson_p,
    read_correlations,
    shuffle_null,
    write_correlations,
    write_heatmap_data,
    write_null_summary,
)
from foodsec.ingest import FormatError
from oracle import read_null_summary


def pearson_textbook(x, y):
    """Definition evaluated directly with exact (fsum) accumulation."""
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    num = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = math.fsum((a - mx) ** 2 for a in x)
    dy = math.fsum((b - my) ** 2 for b in y)
    return num / math.sqrt(dx * dy)


def t_density(t, df):
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    return c * (1 + t * t / df) ** (-(df + 1) / 2)


def p_value_by_quadrature(r, n):
    """Two-sided p by numerically integrating the t density's tail."""
    df = n - 2
    t = r * math.sqrt(df / (1 - r * r))
    tail, _ = quad(t_density, abs(t), math.inf, args=(df,))
    return 2 * tail


class TestPearson:
    def test_exact_positive_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_exact_negative_linear(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_evaluated(self):
        # cov*n = 4 and both centered sums of squares are 5, so r = 4/5.
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_zero_variance_is_undefined(self):
        assert pearson([1, 1, 1], [1, 2, 3]) is None
        assert pearson([1, 2, 3], [5, 5, 5]) is None

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            pearson([1], [2])

    def test_matches_textbook_definition(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(5, 80))
            x = rng.normal(size=n) * rng.uniform(0.1, 100)
            y = rng.normal(size=n) + rng.uniform(-1, 1) * x
            r = pearson(x, y)
            assert math.isclose(r, pearson_textbook(x, y), rel_tol=1e-12, abs_tol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=3, max_size=30).filter(
            lambda v: max(v) - min(v) > 1e-3
        ),
        st.floats(0.1, 50),
        st.floats(-100, 100),
    )
    def test_positive_affine_invariance(self, x, a, b):
        rng = np.random.default_rng(7)
        y = rng.normal(size=len(x))
        base = pearson(x, y)
        scaled = pearson([a * v + b for v in x], y)
        assert scaled == pytest.approx(base, abs=1e-12)
        flipped = pearson([-a * v + b for v in x], y)
        assert flipped == pytest.approx(-base, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-15)


@pytest.mark.parametrize("scale", [1e155, 1e-160])
def test_extreme_scales_keep_r(scale):
    """Squares of values near 1e155 overflow and those of values near 1e-160
    are subnormal; the NaN-free kernel path, the masked path and pearson
    still give the r of the unscaled values."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal(10)
    y = x + 0.5 * rng.standard_normal(10)
    gap = y.copy()
    gap[4] = np.nan
    (r,), (ns,) = _corr_kernel(x[:, None] * scale, np.column_stack([y, gap]) * scale)(
        np.arange(10)[None, :])
    assert ns.tolist() == [[10, 9]]
    assert r[0, 0] == pytest.approx(pearson(x, y), abs=1e-12)
    assert r[0, 1] == pytest.approx(pearson(np.delete(x, 4), np.delete(y, 4)), abs=1e-12)
    assert pearson(x * scale, y * scale) == pytest.approx(pearson(x, y), abs=1e-12)


class TestPearsonP:
    def test_zero_r_is_one(self):
        assert pearson_p(0.0, 10) == pytest.approx(1.0)
        assert pearson_p(0.0, 1000) == pytest.approx(1.0)

    def test_perfect_r_is_zero(self):
        assert pearson_p(1.0, 10) == 0.0
        assert pearson_p(-1.0, 10) == 0.0

    def test_small_n_undefined(self):
        assert pearson_p(0.5, 2) is None

    def test_against_quadrature(self):
        # r=0.5, n=30: t = 3.055 on 28 df, two-sided p ~ 0.0049.
        assert pearson_p(0.5, 30) == pytest.approx(0.0049, abs=2e-4)
        for r, n in [(0.1, 10), (0.3, 25), (0.7, 50), (0.9, 12), (-0.45, 40)]:
            assert pearson_p(r, n) == pytest.approx(p_value_by_quadrature(r, n), abs=2e-4)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.05, 0.9), st.floats(0.05, 0.9), st.integers(5, 200))
    def test_monotone_in_abs_r(self, r1, r2, n):
        lo, hi = sorted((r1, r2))
        assert pearson_p(hi, n) <= pearson_p(lo, n) + 1e-15

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.1, 0.9), st.integers(5, 100), st.integers(5, 100))
    def test_monotone_in_n(self, r, n1, n2):
        lo, hi = sorted((n1, n2))
        assert pearson_p(r, hi) <= pearson_p(r, lo) + 1e-15

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
        st.integers(3, 10**7),
    )
    def test_equals_scipy_stats_t_sf(self, r, n):
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
        assert pearson_p(r, n) == float(2.0 * stats.t.sf(abs(t), n - 2))


class TestFisherCi:
    def test_zero_r_large_n(self):
        lo, hi = fisher_ci(0.0, 403)
        assert lo == pytest.approx(-0.0975, abs=1e-3)
        assert hi == pytest.approx(0.0975, abs=1e-3)

    def test_bounds_stay_inside_unit_interval(self):
        lo, hi = fisher_ci(0.999, 10)
        assert -1.0 <= lo <= hi <= 1.0
        assert fisher_ci(1.0, 10) == (1.0, 1.0)

    def test_against_formula_at_082(self):
        lo, hi = fisher_ci(0.82, 400)
        assert lo == pytest.approx(0.785, abs=0.005)
        assert hi == pytest.approx(0.850, abs=0.005)

    def test_small_n_undefined(self):
        assert fisher_ci(0.5, 3) is None

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            fisher_ci(0.5, 30, level=1.5)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-0.95, 0.95), st.integers(5, 500))
    def test_contains_r(self, r, n):
        lo, hi = fisher_ci(r, n)
        assert lo <= r <= hi

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-0.9, 0.9), st.integers(5, 200), st.integers(5, 200))
    def test_width_strictly_decreases_in_n(self, r, n1, n2):
        lo_n, hi_n = sorted((n1, n2))
        if lo_n == hi_n:
            return
        w1 = np.diff(fisher_ci(r, lo_n))[0]
        w2 = np.diff(fisher_ci(r, hi_n))[0]
        assert w2 < w1

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
        st.integers(4, 10**7),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_equals_scipy_stats_norm_ppf(self, r, n, level):
        half = stats.norm.ppf(0.5 + level / 2.0) / math.sqrt(n - 3)
        z = math.atanh(r)
        assert fisher_ci(r, n, level) == (math.tanh(z - half), math.tanh(z + half))


def matrix(sectors, columns, values, counts=None):
    values = np.asarray(values, dtype=float)
    if counts is None:
        counts = np.full(len(sectors), 10)
    return SectorMatrix(sectors=sectors, columns=columns, values=values, counts=np.asarray(counts))


class TestCorrelationMatrix:
    def test_injected_duplicate_column_gives_unit_r(self):
        rng = np.random.default_rng(3)
        col = rng.normal(size=8)
        other = rng.normal(size=8)
        sectors = [f"s{i}" for i in range(8)]
        mobile = matrix(sectors, ["m1"], col[:, None])
        survey = matrix(sectors, ["dupe", "noise"], np.column_stack([col, other]))
        entries = {(e.mobile_var, e.survey_var): e for e in correlation_matrix(mobile, survey)}
        assert entries[("m1", "dupe")].r == pytest.approx(1.0)
        assert entries[("m1", "dupe")].p == 0.0

    def test_disjoint_sectors_all_undefined(self):
        mobile = matrix(["s1", "s2", "s3"], ["m"], [[1.0], [2.0], [3.0]])
        survey = matrix(["x1", "x2", "x3"], ["v"], [[1.0], [2.0], [3.0]])
        entries = correlation_matrix(mobile, survey)
        assert all(not e.defined for e in entries)
        assert all(e.n == 0 for e in entries)

    def test_pairwise_deletion_records_per_pair_n(self):
        sectors = [f"s{i}" for i in range(6)]
        x = np.arange(6.0)
        survey_values = np.column_stack([np.arange(6.0) * 2, np.arange(6.0) ** 2])
        survey_values[4, 0] = np.nan
        mobile = matrix(sectors, ["m"], x[:, None])
        survey = matrix(sectors, ["lin", "quad"], survey_values)
        entries = {e.survey_var: e for e in correlation_matrix(mobile, survey)}
        assert entries["lin"].n == 5
        assert entries["lin"].r == pytest.approx(1.0)
        assert entries["quad"].n == 6

    def test_constant_column_is_undefined_not_zero(self):
        sectors = [f"s{i}" for i in range(5)]
        mobile = matrix(sectors, ["m"], np.arange(5.0)[:, None])
        survey = matrix(sectors, ["const"], np.full((5, 1), 3.25))
        (entry,) = correlation_matrix(mobile, survey)
        assert not entry.defined
        assert entry.r is None

    def test_n_equals_three_has_p_but_no_ci(self):
        mobile = matrix(["a", "b", "c"], ["m"], [[1.0], [2.0], [4.0]])
        survey = matrix(["a", "b", "c"], ["v"], [[1.0], [3.0], [2.0]])
        (entry,) = correlation_matrix(mobile, survey)
        assert entry.defined
        assert entry.p is not None
        assert entry.ci_low is None and entry.ci_high is None

    def test_round_trip_csv(self, tmp_path):
        sectors = [f"s{i}" for i in range(6)]
        rng = np.random.default_rng(11)
        mobile = matrix(sectors, ["m1", "m2"], rng.normal(size=(6, 2)))
        survey = matrix(sectors, ["v1"], rng.normal(size=(6, 1)))
        entries = correlation_matrix(mobile, survey)
        path = tmp_path / "correlations.csv"
        write_correlations(entries, path)
        assert read_correlations(path) == entries

    def test_repeated_pair_is_a_format_error(self, tmp_path):
        """A second row for one pair would hide the first from every reader."""
        sectors = [f"s{i}" for i in range(6)]
        rng = np.random.default_rng(11)
        entries = correlation_matrix(matrix(sectors, ["m1", "m2"], rng.normal(size=(6, 2))),
                                     matrix(sectors, ["v1"], rng.normal(size=(6, 1))))
        path = tmp_path / "correlations.csv"
        write_correlations(entries, path)
        with path.open("a") as f:
            # a repeated mobile_var alone is no repeat
            f.write("m1,v2,0.5,0.2,,,6,true\nm1,v1,0.1,0.8,,,6,true\n")
        with pytest.raises(FormatError, match=r"^correlations: duplicate \('m1', 'v1'\) at line 5$"):
            read_correlations(path)

    def test_heatmap_output(self, tmp_path):
        sectors = [f"s{i}" for i in range(5)]
        mobile = matrix(sectors, ["m"], np.arange(5.0)[:, None])
        survey = matrix(sectors, ["v"], (np.arange(5.0) * -1)[:, None])
        entries = correlation_matrix(mobile, survey)
        path = tmp_path / "heatmap.csv"
        write_heatmap_data(entries, {"v": "V2"}, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "mobile_var,survey_var,abs_r,category"
        assert lines[1].startswith("m,v,1") and lines[1].endswith("V2")


def standardize_columns_oracle(a):
    mu = a.mean(axis=0)
    sd = a.std(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (a - mu) / sd
    out[:, sd == 0.0] = np.nan
    return out


def corr_grid_oracle(x, y):
    """Reference for the batched kernel, one permutation at a time: one
    standardized product for NaN-free column pairs, then a per-pair masked
    ``pearson`` for every other pair."""
    n_rows = x.shape[0]
    fx = np.isfinite(x)
    fy = np.isfinite(y)
    r = np.full((x.shape[1], y.shape[1]), np.nan, dtype=np.float64)
    ns = np.zeros((x.shape[1], y.shape[1]), dtype=np.int64)
    x_complete = np.flatnonzero(fx.all(axis=0))
    y_complete = np.flatnonzero(fy.all(axis=0))
    if x_complete.size and y_complete.size:
        ns[np.ix_(x_complete, y_complete)] = n_rows
        if n_rows >= 3:
            xs = standardize_columns_oracle(x[:, x_complete])
            ys = standardize_columns_oracle(y[:, y_complete])
            with np.errstate(invalid="ignore"):
                block = (xs.T @ ys) / (n_rows - 1)
            r[np.ix_(x_complete, y_complete)] = np.clip(block, -1.0, 1.0)
    x_done = set(x_complete.tolist())
    y_done = set(y_complete.tolist())
    for i in range(x.shape[1]):
        for j in range(y.shape[1]):
            if i in x_done and j in y_done:
                continue
            mask = fx[:, i] & fy[:, j]
            k = int(mask.sum())
            ns[i, j] = k
            if k < 3:
                continue
            value = pearson(x[mask, i], y[mask, j])
            if value is not None:
                r[i, j] = value
    return r, ns


def null_oracle(x, y, trials, seed):
    """Per-trial null pooled by concatenation: (perms, grids, summary),
    summary None when no trial has a defined correlation."""
    n = x.shape[0]
    children = np.random.SeedSequence(seed).spawn(trials)
    perms = np.array([np.random.default_rng(c).permutation(n) for c in children])
    grids = [corr_grid_oracle(x, y[perm]) for perm in perms]
    pooled = np.concatenate([np.abs(r[np.isfinite(r)]).ravel() for r, _ in grids])
    if pooled.size == 0:
        return perms, grids, None
    p50, p95, p99 = np.quantile(pooled, [0.50, 0.95, 0.99])
    summary = NullSummary(trials, float(p50), float(p95), float(p99), float(pooled.max()))
    return perms, grids, summary


@st.composite
def gappy_matrices(draw):
    """(x, y) with NaN cells on both sides, columns sharing one gap pattern,
    constant columns and columns with fewer than 3 finite cells mixed among
    complete ones."""
    n = draw(st.integers(3, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["complete", "gaps", "shared_gaps", "constant", "sparse"])
    shared_gaps = rng.uniform(size=n) < 0.3

    def column(kind):
        if kind == "constant":
            c = np.full(n, rng.normal())
        else:
            c = rng.normal(size=n) * rng.uniform(0.1, 10.0) + rng.uniform(-5.0, 5.0)
        if kind == "gaps":
            c[rng.uniform(size=n) < 0.3] = np.nan
        elif kind == "shared_gaps":
            c[shared_gaps] = np.nan
        elif kind == "sparse":
            c[rng.permutation(n)[2:]] = np.nan
        return c

    x = np.column_stack([column(k) for k in draw(st.lists(kinds, min_size=1, max_size=4))])
    y = np.column_stack([column(k) for k in draw(st.lists(kinds, min_size=1, max_size=5))])
    return x, y


def as_matrices(x, y):
    sectors = [f"s{i:03d}" for i in range(x.shape[0])]
    return (
        matrix(sectors, [f"m{i}" for i in range(x.shape[1])], x),
        matrix(sectors, [f"v{j}" for j in range(y.shape[1])], y),
    )


class TestBatchedKernel:
    @pytest.mark.parametrize("trials_per_batch", [1, 3, None])
    @settings(max_examples=40, deadline=None)
    @given(gappy_matrices(), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_batched_null_equals_per_trial_oracle(self, trials_per_batch, xy, trials, seed):
        x, y = xy
        per_batch = trials_per_batch or trials
        perms, expected, summary = null_oracle(x, y, trials, seed)
        grids = _corr_kernel(x, y)
        for start in range(0, trials, per_batch):
            r, ns = grids(perms[start:start + per_batch])
            for b, (r_exp, n_exp) in enumerate(expected[start:start + per_batch]):
                assert np.array_equal(r[b], r_exp, equal_nan=True)
                assert np.array_equal(ns[b], n_exp)
        mobile, survey = as_matrices(x, y)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(correlate, "_BATCH_ELEMENTS", per_batch * y.size)
            if summary is None:
                with pytest.raises(FormatError):
                    shuffle_null(mobile, survey, trials=trials, seed=seed)
            else:
                assert shuffle_null(mobile, survey, trials=trials, seed=seed) == summary

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(3, 60),
        st.integers(1, 4),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["mobile", "survey", "both"]),
    )
    def test_masked_path_equals_complete_path_on_nan_free_columns(
        self, n, qx, qy, seed, gap_side
    ):
        # One extra sector, blank on gap_side, sends every pair down a masked
        # path whose mask keeps exactly the original NaN-free sectors.
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, qx)) * rng.uniform(0.1, 10.0, size=qx)
        y = rng.normal(size=(n, qy)) + rng.uniform(-5.0, 5.0, size=qy)
        x_extra = np.full((1, qx), np.nan if gap_side != "survey" else 1.0)
        y_extra = np.full((1, qy), np.nan if gap_side != "mobile" else 1.0)
        (complete,), (n_complete,) = _corr_kernel(x, y)(np.arange(n)[None, :])
        (masked,), (n_masked,) = _corr_kernel(
            np.vstack([x, x_extra]), np.vstack([y, y_extra])
        )(np.arange(n + 1)[None, :])
        assert (n_masked == n).all() and (n_complete == n).all()
        assert np.isfinite(complete).all() and np.isfinite(masked).all()
        np.testing.assert_allclose(masked, complete, rtol=0, atol=1e-12)


def grids_equal_oracle(x, y, trials, seed):
    """Assert one call of the kernel over all ``trials`` permutations equals
    the per-trial oracle exactly; returns the per-trial cell counts and the
    oracle's null summary."""
    perms, expected, summary = null_oracle(x, y, trials, seed)
    r, ns = _corr_kernel(x, y)(perms)
    for b, (r_exp, n_exp) in enumerate(expected):
        assert np.array_equal(r[b], r_exp, equal_nan=True)
        assert np.array_equal(ns[b], n_exp)
    return ns, summary


class TestStackedMaskedPairs:
    """Masked pairs are stacked by their count of shared cells; these cases
    pin the stacking against the per-trial oracle, value for value."""

    def test_gaps_on_both_sides_give_several_cell_counts_in_one_batch(self):
        rng = np.random.default_rng(21)
        n = 30
        x = rng.normal(size=(n, 3))
        y = rng.normal(size=(n, 4)) * 3.0 + 1.0
        x[rng.uniform(size=n) < 0.3, 0] = np.nan
        x[rng.uniform(size=n) < 0.2, 1] = np.nan
        y[rng.uniform(size=n) < 0.25, 1:3] = np.nan
        ns, summary = grids_equal_oracle(x, y, trials=12, seed=5)
        assert len(np.unique(ns[:, 0, 1])) >= 2 and len(np.unique(ns[:, 1, 2])) >= 2
        mobile, survey = as_matrices(x, y)
        assert shuffle_null(mobile, survey, trials=12, seed=5) == summary

    def test_batch_with_every_cell_count_under_three(self):
        rng = np.random.default_rng(22)
        n = 12
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=(n, 2))
        x[2:, 1] = np.nan  # 2 cells on each side: only the complete pair is defined
        y[rng.permutation(n)[2:], 1] = np.nan
        ns, summary = grids_equal_oracle(x, y, trials=8, seed=3)
        assert (ns[:, 1, :] < 3).all() and (ns[:, :, 1] < 3).all()
        assert len(np.unique(ns[:, 1, 1])) >= 2
        mobile, survey = as_matrices(x, y)
        assert shuffle_null(mobile, survey, trials=8, seed=3) == summary

    def test_stack_split_by_the_element_budget(self, monkeypatch):
        rng = np.random.default_rng(23)
        n = 20
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=(n, 3))
        y[[2, 7, 11, 19], :2] = np.nan  # every trial shares 16 cells
        cells_per_trial = (x.shape[1] + 2) * 16
        monkeypatch.setattr(correlate, "_BATCH_ELEMENTS", 2 * cells_per_trial)
        ns, summary = grids_equal_oracle(x, y, trials=7, seed=8)
        assert (ns[:, :, :2] == 16).all()  # one cell count: 4 stacks of at most 2
        mobile, survey = as_matrices(x, y)
        assert shuffle_null(mobile, survey, trials=7, seed=8) == summary

    @pytest.mark.parametrize("x_scale, y_scale", [(1e-150, 1e-15), (1e150, 1e150)])
    def test_masked_path_at_extreme_scales_equals_complete_path(self, x_scale, y_scale):
        # sxx * syy under- or overflows here, while sxx and syy do not
        rng = np.random.default_rng(24)
        n = 10
        x = rng.normal(size=(n, 2))
        y = x[:, :1] + 0.5 * rng.normal(size=(n, 1))
        x, y = x * x_scale, y * y_scale
        (complete,), _ = _corr_kernel(x, y)(np.arange(n)[None, :])
        (masked,), (n_masked,) = _corr_kernel(
            np.vstack([x, np.ones((1, 2))]), np.vstack([y, [[np.nan]]])
        )(np.arange(n + 1)[None, :])
        assert (n_masked == n).all()
        assert np.isfinite(complete).all() and abs(complete[0, 0]) > 0.5
        np.testing.assert_allclose(masked, complete, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("x_scale, y_scale", [(1e-150, 1e-15), (1e150, 1e150)])
    def test_pearson_at_extreme_scales(self, x_scale, y_scale):
        rng = np.random.default_rng(25)
        x = rng.normal(size=10)
        y = x + 0.5 * rng.normal(size=10)
        assert pearson(x * x_scale, y * y_scale) == pytest.approx(pearson(x, y), abs=1e-12)


class TestShuffleNull:
    def build(self, n=40, seed=1):
        rng = np.random.default_rng(seed)
        sectors = [f"s{i:03d}" for i in range(n)]
        w = rng.normal(size=n)
        mobile = matrix(sectors, ["m1", "m2"], np.column_stack([w + 0.1 * rng.normal(size=n),
                                                                rng.normal(size=n)]))
        survey = matrix(sectors, ["v1", "v2"], np.column_stack([w + 0.1 * rng.normal(size=n),
                                                                rng.normal(size=n)]))
        return mobile, survey

    def test_identity_permutation_equals_unshuffled(self):
        mobile, survey = self.build()
        x, y = (m.values for m in join_sectors(mobile, survey))
        (r,), _ = _corr_kernel(x, y)(np.arange(x.shape[0])[None, :])
        entries = correlation_matrix(mobile, survey)
        assert r.ravel().tolist() == [e.r for e in entries]
        for e, (i, j) in zip(entries, np.ndindex(r.shape)):
            assert e.r == pytest.approx(pearson(x[:, i], y[:, j]), abs=1e-12)

    def test_same_seed_is_deterministic(self):
        mobile, survey = self.build()
        a = shuffle_null(mobile, survey, trials=50, seed=123)
        b = shuffle_null(mobile, survey, trials=50, seed=123)
        assert a == b

    def test_batch_size_does_not_change_results(self, monkeypatch):
        mobile, survey = self.build()
        expected = shuffle_null(mobile, survey, trials=40, seed=9)
        trial_elements = survey.values.size
        for per_batch in (1, 3, 40):
            monkeypatch.setattr(correlate, "_BATCH_ELEMENTS", per_batch * trial_elements)
            assert shuffle_null(mobile, survey, trials=40, seed=9) == expected

    def test_no_defined_correlation_is_a_data_error(self):
        mobile = matrix(["a", "b"], ["m"], [[1.0], [2.0]])
        survey = matrix(["a", "b"], ["v"], [[1.0], [3.0]])
        with pytest.raises(FormatError, match="no defined correlation .* share 2 sector"):
            shuffle_null(mobile, survey, trials=5, seed=0)
        # three shared sectors, but the survey column does not vary
        mobile = matrix(["a", "b", "c"], ["m"], [[1.0], [2.0], [4.0]])
        survey = matrix(["a", "b", "c"], ["v"], [[3.0], [3.0], [3.0]])
        with pytest.raises(FormatError, match="do 3\\+ sectors vary"):
            shuffle_null(mobile, survey, trials=5, seed=0)

    def test_different_seeds_differ(self):
        mobile, survey = self.build()
        assert shuffle_null(mobile, survey, trials=20, seed=1) != shuffle_null(
            mobile, survey, trials=20, seed=2
        )

    def test_shuffling_destroys_planted_correlation(self):
        mobile, survey = self.build(n=80)
        planted = {(e.mobile_var, e.survey_var): e for e in correlation_matrix(mobile, survey)}
        assert planted[("m1", "v1")].r > 0.9
        summary = shuffle_null(mobile, survey, trials=300, seed=4)
        assert summary.abs_r_p95 < 0.35

    def test_quantiles_are_ordered(self):
        mobile, survey = self.build()
        s = shuffle_null(mobile, survey, trials=30, seed=5)
        assert s.abs_r_p50 <= s.abs_r_p95 <= s.abs_r_p99 <= s.abs_r_max <= 1.0

    def test_nan_cells_handled_pairwise(self):
        mobile, survey = self.build(n=30)
        values = survey.values.copy()
        values[::4, 0] = np.nan
        survey = SectorMatrix(survey.sectors, survey.columns, values, survey.counts)
        s = shuffle_null(mobile, survey, trials=20, seed=6)
        assert 0.0 <= s.abs_r_max <= 1.0

    def test_summary_round_trip(self, tmp_path):
        mobile, survey = self.build()
        s = shuffle_null(mobile, survey, trials=25, seed=8)
        path = tmp_path / "null_summary.csv"
        write_null_summary(s, path)
        assert read_null_summary(path) == s
