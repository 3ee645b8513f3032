"""Micro-benchmarks of the artifact writers.

Run with ``PYTHONPATH=src python -m pytest tests/bench_write.py``; the file
name keeps it out of the default test run. The artifacts are those of
``foodsec all --heatmap-data --scatter-data`` on an input of the ``c01``
benchmark workload's shape (200 sectors x 40 users x 30 households, 182
days: 8 k users and about 30 k rolling points), computed once per session.
No timing is asserted.
"""

import pytest

from foodsec.aggregate import build_sector_matrix, write_sector_matrix
from foodsec.correlate import (
    correlation_matrix,
    shuffle_null,
    write_correlations,
    write_heatmap_data,
    write_null_summary,
)
from foodsec.features import user_features, write_user_features
from foodsec.indices import COMPOSITE_CATEGORIES, build_survey_matrix
from foodsec.ingest import load_survey, load_tower_map, read_cdr, read_topups
from foodsec.models import fit_from_matrices, predict_rows, write_model, write_scatter_data
from foodsec.rolling import emit_overlay, rolling_sector_series, write_rolling
from foodsec.synth import SynthConfig, generate

C01 = dict(n_sectors=200, users_per_sector=40, households_per_sector=30, period_days=182,
           planted_r=0.9, topup_base=2000.0)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    paths = generate(SynthConfig(seed=1, **C01), tmp_path_factory.mktemp("c01"))
    topups = read_topups(paths["topup"])
    features, _ = user_features(read_cdr(paths["cdr"]), topups, load_tower_map(paths["towers"]))
    mobile, _ = build_sector_matrix(features)
    survey, categories, _ = build_survey_matrix(load_survey(paths["survey"],
                                                            paths["survey_meta"]))
    model, joined, y = fit_from_matrices(mobile, survey, "food_expenditure", degree=2,
                                         variables=["topup_sum.mean", "topup_mean.mean"])
    series = rolling_sector_series(topups, features.home_sectors())
    return dict(
        features=features, mobile=mobile, survey=survey, model=model, joined=joined, y=y,
        categories={**categories, **COMPOSITE_CATEGORIES},
        entries=correlation_matrix(mobile, survey),
        null=shuffle_null(mobile, survey, trials=10, seed=1),
        series=series,
    )


def test_user_features(benchmark, results, tmp_path):
    benchmark(write_user_features, results["features"], tmp_path / "user_features.csv")


@pytest.mark.parametrize("matrix", ["mobile", "survey"])
def test_sector_matrix(benchmark, results, tmp_path, matrix):
    benchmark(write_sector_matrix, results[matrix], tmp_path / "sector.csv")


def test_correlations(benchmark, results, tmp_path):
    benchmark(write_correlations, results["entries"], tmp_path / "correlations.csv")


def test_heatmap(benchmark, results, tmp_path):
    benchmark(write_heatmap_data, results["entries"], results["categories"],
              tmp_path / "heatmap.csv")


def test_null_summary(benchmark, results, tmp_path):
    benchmark(write_null_summary, results["null"], tmp_path / "null_summary.csv")


def test_model(benchmark, results, tmp_path):
    benchmark(write_model, results["model"], tmp_path / "model.csv")


def test_scatter(benchmark, results, tmp_path):
    joined = results["joined"]
    benchmark(write_scatter_data, joined.sectors, predict_rows(results["model"], joined),
              results["y"], tmp_path / "scatter.csv")


def test_rolling(benchmark, results, tmp_path):
    benchmark(write_rolling, results["series"], tmp_path / "rolling_30.csv")


def test_overlay(benchmark, results, tmp_path):
    benchmark(emit_overlay, results["series"], tmp_path / "overlay.csv")
