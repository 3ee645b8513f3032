import numpy as np
import pytest

from foodsec.aggregate import SectorMatrix
from foodsec.correlate import pearson
from foodsec.models import (
    FitError,
    RegressionModel,
    fit_from_matrices,
    fit_model,
    polynomial_terms,
    predict_rows,
    read_model_summary,
    term_name,
    write_model,
)
from oracle import evaluate_model, predict


def make_matrix(values, columns=None, sectors=None):
    values = np.asarray(values, dtype=float)
    columns = columns or [f"x{i}" for i in range(values.shape[1])]
    sectors = sectors or [f"s{i:03d}" for i in range(values.shape[0])]
    return SectorMatrix(
        sectors=sectors, columns=columns, values=values, counts=np.full(len(sectors), 50)
    )


def random_matrix(n=60, k=3, seed=0):
    rng = np.random.default_rng(seed)
    return make_matrix(rng.normal(loc=5.0, scale=2.0, size=(n, k))), rng


class TestPolynomialTerms:
    def test_degree_one(self):
        assert polynomial_terms(["a", "b"], 1) == [(), ("a",), ("b",)]

    def test_degree_two(self):
        assert polynomial_terms(["a", "b"], 2) == [
            (),
            ("a",),
            ("b",),
            ("a", "a"),
            ("a", "b"),
            ("b", "b"),
        ]

    def test_names(self):
        assert term_name(()) == "intercept"
        assert term_name(("a",)) == "a"
        assert term_name(("a", "b")) == "a*b"
        assert term_name(("a", "a")) == "a^2"

    def test_bad_degree_rejected(self):
        with pytest.raises(ValueError):
            polynomial_terms(["a"], 3)


class TestFitModel:
    def test_recovers_identity_column(self):
        x, rng = random_matrix()
        y = x.column("x1").copy()
        model = fit_model(x, y, "y", degree=1)
        assert model.fit_r == pytest.approx(1.0, abs=1e-9)
        raw = dict(zip(model.terms, model.coef_raw))
        assert raw[("x1",)] == pytest.approx(1.0, abs=1e-9)
        assert raw[("x0",)] == pytest.approx(0.0, abs=1e-9)
        assert raw[("x2",)] == pytest.approx(0.0, abs=1e-9)
        assert raw[()] == pytest.approx(0.0, abs=1e-8)

    def test_quadratic_basis_captures_square(self):
        x, _ = random_matrix(k=1)
        y = x.column("x0") ** 2
        exact = fit_model(x, y, "y", degree=2)
        assert exact.fit_r == pytest.approx(1.0, abs=1e-9)
        linear = fit_model(x, y, "y", degree=1)
        assert linear.fit_r < 1.0 - 1e-6

    def test_known_affine_relation(self):
        x, _ = random_matrix(k=1)
        y = 2.0 * x.column("x0") + 3.0
        model = fit_model(x, y, "y", degree=1)
        raw = dict(zip(model.terms, model.coef_raw))
        assert raw[("x0",)] == pytest.approx(2.0, abs=1e-9)
        assert raw[()] == pytest.approx(3.0, abs=1e-8)
        assert predict(model, {"x0": 5.0}) == pytest.approx(13.0, abs=1e-9)

    def test_rows_with_undefined_cells_dropped(self):
        x, rng = random_matrix()
        values = x.values.copy()
        values[3, 0] = np.nan
        x = make_matrix(values, columns=x.columns, sectors=x.sectors)
        y = x.column("x1").copy()
        y[7] = np.nan
        model = fit_model(x, y, "y", degree=1)
        assert model.n == 58
        assert model.n_dropped == 2

    def test_collinear_terms_named(self):
        x, _ = random_matrix(k=2)
        values = np.column_stack([x.values, x.values[:, 0] * 2.0])
        tripled = make_matrix(values, columns=["x0", "x1", "x2"])
        y = tripled.column("x1")
        with pytest.raises(FitError, match="collinear"):
            fit_model(tripled, y, "y", degree=1, variables=["x0", "x2"])

    def test_too_few_rows_rejected(self):
        x = make_matrix(np.arange(8.0).reshape(4, 2) + np.eye(4, 2))
        with pytest.raises(FitError, match="row"):
            fit_model(x, np.arange(4.0), "y", degree=2)

    def test_constant_column_rejected(self):
        x = make_matrix(np.column_stack([np.full(10, 2.0), np.arange(10.0)]))
        with pytest.raises(FitError, match="constant"):
            fit_model(x, np.arange(10.0), "y", degree=1)

    def test_residuals_orthogonal_to_basis(self):
        x, rng = random_matrix(n=80)
        y = x.column("x0") + 0.5 * x.column("x1") ** 2 + rng.normal(size=80)
        model = fit_model(x, y, "y", degree=2)
        fitted = predict_rows(model, x)
        residuals = y - fitted
        standardized = {
            v: (x.column(v) - model.means[v]) / model.stds[v] for v in model.variables
        }
        for term in model.terms:
            col = np.ones(len(y))
            for v in term:
                col = col * standardized[v]
            assert abs(np.dot(col, residuals)) < 1e-8

    def test_fit_r_invariant_under_column_rescaling(self):
        x, rng = random_matrix(n=70)
        y = x.column("x0") - x.column("x2") + rng.normal(size=70)
        base = fit_model(x, y, "y", degree=2).fit_r
        scaled_values = x.values * np.array([3.7, 0.01, 250.0])
        scaled = make_matrix(scaled_values, columns=x.columns, sectors=x.sectors)
        assert fit_model(scaled, y, "y", degree=2).fit_r == pytest.approx(base, abs=1e-9)

    def test_adding_a_term_never_hurts_training_fit(self):
        x, rng = random_matrix(n=50, k=2)
        y = x.column("x0") + rng.normal(size=50)
        r1 = fit_model(x, y, "y", degree=1, variables=["x0"]).fit_r
        r2 = fit_model(x, y, "y", degree=1, variables=["x0", "x1"]).fit_r
        r3 = fit_model(x, y, "y", degree=2, variables=["x0", "x1"]).fit_r
        assert r2 >= r1 - 1e-10
        assert r3 >= r2 - 1e-10

    def test_unknown_variable_rejected(self):
        x, _ = random_matrix()
        for variables, fault in ((["bogus"], "unknown variable"), ([], "an empty"),
                                 (["x0", ""], "an empty"), (["x0", "x0"], "repeated")):
            with pytest.raises(ValueError, match=f"config key 'variables': {fault}"):
                fit_model(x, np.zeros(60), "y", variables=variables)


class TestPredict:
    def test_intercept_only_model(self):
        model = RegressionModel(
            target="y",
            terms=((),),
            coef_std=(4.25,),
            coef_raw=(4.25,),
            means={},
            stds={},
            fit_r=0.0,
            n=10,
            n_dropped=0,
        )
        assert predict(model, {}) == 4.25
        assert predict(model, {"anything": 99.0}) == 4.25

    def test_missing_variable_rejected(self):
        x, _ = random_matrix()
        model = fit_model(x, x.column("x0").copy(), "y", degree=1)
        with pytest.raises(ValueError, match="x2"):
            predict(model, {"x0": 1.0, "x1": 2.0})

    def test_predict_matches_training_fit(self):
        x, rng = random_matrix(n=40)
        y = x.column("x0") * 1.5 + rng.normal(size=40)
        model = fit_model(x, y, "y", degree=2)
        fitted = predict_rows(model, x)
        per_row = np.array(
            [predict(model, {v: x.column(v)[i] for v in x.columns}) for i in range(40)]
        )
        assert np.allclose(fitted, per_row, atol=1e-12)
        assert pearson(fitted, y) == pytest.approx(model.fit_r, abs=1e-12)

    def test_raw_coefficients_reproduce_predictions(self):
        x, rng = random_matrix(n=45)
        y = x.column("x0") + 0.3 * x.column("x1") * x.column("x2") + rng.normal(size=45)
        model = fit_model(x, y, "y", degree=2)
        raw = dict(zip(model.terms, model.coef_raw))
        for i in range(0, 45, 9):
            row = {v: x.column(v)[i] for v in x.columns}
            value = raw[()]
            for term, coef in raw.items():
                if term:
                    prod = coef
                    for v in term:
                        prod *= row[v]
                    value += prod
            assert value == pytest.approx(predict(model, row), rel=1e-9, abs=1e-9)


class TestEvaluateModel:
    def test_training_evaluation_equals_fit_r(self):
        x, rng = random_matrix(n=55)
        y = x.column("x1") + rng.normal(size=55) * 0.3
        model = fit_model(x, y, "y", degree=1)
        assert evaluate_model(model, x, y) == pytest.approx(model.fit_r, abs=1e-12)

    def test_independent_draw_scores_similarly(self):
        rng = np.random.default_rng(5)

        def draw():
            base = rng.normal(size=(120, 2))
            y = base[:, 0] + 0.4 * base[:, 1] + rng.normal(size=120) * 0.5
            return make_matrix(base, columns=["a", "b"]), y

        x_train, y_train = draw()
        x_test, y_test = draw()
        model = fit_model(x_train, y_train, "y", degree=1)
        held = evaluate_model(model, x_test, y_test)
        assert abs(held - model.fit_r) < 0.1

    def test_permuted_target_scores_below_null_band(self):
        rng = np.random.default_rng(9)
        x = make_matrix(rng.normal(size=(100, 2)), columns=["a", "b"])
        y = x.column("a") + rng.normal(size=100) * 0.2
        model = fit_model(x, y, "y", degree=1)
        # Monte Carlo null for |pearson| under permutation at n=100.
        null = []
        fitted = predict_rows(model, x)
        for _ in range(500):
            null.append(abs(pearson(fitted, rng.permutation(y))))
        threshold = float(np.quantile(null, 0.99))
        held = evaluate_model(model, x, rng.permutation(y))
        assert abs(held) < max(threshold, 0.3)


class TestMatrixFit:
    def test_joins_on_sector_ids(self):
        rng = np.random.default_rng(13)
        mobile = make_matrix(rng.normal(size=(30, 2)), columns=["m1", "m2"])
        target = mobile.column("m1") * 2 + 1
        survey = SectorMatrix(
            sectors=list(reversed(mobile.sectors)),
            columns=["food"],
            values=target[::-1][:, None],
            counts=np.full(30, 20),
        )
        model, joined, y = fit_from_matrices(mobile, survey, "food", degree=1)
        assert model.fit_r == pytest.approx(1.0, abs=1e-9)
        assert joined.sectors == sorted(mobile.sectors)

    def test_missing_target_rejected(self):
        mobile = make_matrix(np.arange(20.0).reshape(10, 2))
        survey = make_matrix(np.arange(10.0)[:, None], columns=["v"])
        with pytest.raises(ValueError, match="nope"):
            fit_from_matrices(mobile, survey, "nope")
        with pytest.raises(ValueError, match="config key 'target': an empty"):
            fit_from_matrices(mobile, survey, "")

    def test_model_file_round_trip(self, tmp_path):
        x, rng = random_matrix(n=40)
        y = x.column("x0") + rng.normal(size=40) * 0.1
        model = fit_model(x, y, "y", degree=2, variables=["x0", "x1"])
        path = tmp_path / "model_y.csv"
        write_model(model, path)
        summary = read_model_summary(path)
        assert summary["fit_r"] == pytest.approx(model.fit_r)
        assert summary["n"] == model.n
        header, *rows = path.read_text().splitlines()
        assert header == "term,coefficient_std,coefficient_raw"
        assert rows[0].startswith("intercept,")
