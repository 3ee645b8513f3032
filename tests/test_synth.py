import math

import numpy as np
import pytest

from foodsec.aggregate import build_sector_matrix
from foodsec.config import ConfigError
from foodsec.correlate import pearson
from foodsec.features import user_features
from foodsec.indices import build_survey_matrix, load_poverty
from foodsec.ingest import (
    FormatError,
    RowErrorLog,
    load_survey,
    load_tower_map,
    read_cdr,
    read_topups,
)
from foodsec.synth import (
    DEFAULT_FOOD_ITEMS,
    SynthConfig,
    generate,
    read_truth,
    verify_outputs,
)

FILES = ["cdr.csv", "topup.csv", "towers.csv", "survey.csv", "survey_meta.csv",
         "poverty.csv", "truth.csv"]


def run_mini_pipeline(paths, min_users=1):
    """features -> sector matrices, all in process."""
    tower_map = load_tower_map(paths["towers"])
    vectors, _ = user_features(read_cdr(paths["cdr"]), read_topups(paths["topup"]), tower_map)
    mobile, _ = build_sector_matrix(vectors, min_users=min_users)
    table = load_survey(paths["survey"], paths["survey_meta"])
    survey, _, _ = build_survey_matrix(table, poverty=load_poverty(paths["poverty"]))
    return vectors, mobile, survey


class TestDeterminism:
    def test_same_config_twice_is_byte_identical(self, small_dataset, tmp_path):
        cfg, paths = small_dataset
        again = generate(cfg, tmp_path / "again")
        for name in FILES:
            key = name.removesuffix(".csv")
            assert again[key].read_bytes() == paths[key].read_bytes(), name

    def test_different_seeds_differ(self, small_dataset, tmp_path):
        cfg, paths = small_dataset
        from dataclasses import replace

        other = generate(replace(cfg, seed=cfg.seed + 1), tmp_path / "other")
        assert other["cdr"].read_bytes() != paths["cdr"].read_bytes()
        assert other["survey"].read_bytes() != paths["survey"].read_bytes()


class TestValidity:
    def test_every_record_passes_ingest_validation(self, small_dataset):
        _, paths = small_dataset
        errors = RowErrorLog()
        n_calls = len(read_cdr(paths["cdr"], errors))
        n_topups = len(read_topups(paths["topup"], errors))
        table = load_survey(paths["survey"], paths["survey_meta"], errors)
        load_tower_map(paths["towers"])
        load_poverty(paths["poverty"])
        assert errors.count == 0
        assert n_calls > 0 and n_topups > 0 and len(table) > 0

    def test_frequencies_stay_in_range(self, small_dataset):
        _, paths = small_dataset
        table = load_survey(paths["survey"], paths["survey_meta"])
        for item in DEFAULT_FOOD_ITEMS:
            col = table.column(item.name)
            assert np.nanmin(col) >= 0 and np.nanmax(col) <= 7

    def test_timestamps_inside_period(self, small_dataset):
        from datetime import datetime, timedelta

        cfg, paths = small_dataset
        start = datetime.combine(cfg.period_start, datetime.min.time())
        end = start + timedelta(days=cfg.period_days)
        errors = RowErrorLog()
        n = len(read_cdr(paths["cdr"], errors, period=(start, end)))
        assert errors.count == 0 and n > 0

    def test_mpi_is_product_of_poverty_columns(self, small_dataset):
        _, paths = small_dataset
        poverty = load_poverty(paths["poverty"])
        table = load_survey(paths["survey"], paths["survey_meta"])
        survey, _, _ = build_survey_matrix(table, poverty=poverty)
        mpi = survey.column("mpi")
        for i, sector in enumerate(survey.sectors):
            h, a = poverty[sector]
            assert mpi[i] == h * a


class TestPlantedSignals:
    def test_noiseless_linear_link_recovers_unit_correlation(self, tmp_path):
        cfg = SynthConfig(
            seed=3,
            n_sectors=10,
            users_per_sector=25,
            households_per_sector=10,
            period_days=40,
            night_calls_min=6,
            night_calls_extra_mean=2.0,
            day_calls_mean=2.0,
            topup_events_mean=4.0,
            planted_r=None,
            topup_user_sd=0.0,
            expense_household_sd=0.0,
            sector_noise_mobile=0.0,
            sector_noise_survey=0.0,
        )
        paths = generate(cfg, tmp_path)
        _, mobile, survey = run_mini_pipeline(paths)
        r = pearson(mobile.column("topup_sum.mean"), survey.column("food_expenditure"))
        assert r == pytest.approx(1.0, abs=1e-6)

    def test_planted_r_recovered_across_seeds(self, tmp_path):
        for seed in (11, 29):
            cfg = SynthConfig(
                seed=seed,
                n_sectors=100,
                users_per_sector=50,
                households_per_sector=25,
                period_days=60,
                night_calls_min=8,
                night_calls_extra_mean=2.0,
                day_calls_mean=2.0,
                topup_events_mean=4.0,
            )
            paths = generate(cfg, tmp_path / str(seed))
            _, mobile, survey = run_mini_pipeline(paths)
            r = pearson(mobile.column("topup_sum.mean"), survey.column("food_expenditure"))
            # sampling sd of r at 100 sectors is ~0.036
            assert abs(r - 0.8) < 0.11, f"seed {seed}: r={r}"

    def test_home_location_accuracy(self, small_dataset):
        cfg, paths = small_dataset
        vectors, _, _ = run_mini_pipeline(paths)
        homes = {key: value for key, value, _ in read_truth(paths["truth"])["user_home"]}
        hits = sum(1 for v in vectors if homes[v.user_id] == v.home_sector)
        assert len(vectors) == cfg.n_sectors * cfg.users_per_sector
        assert hits / len(vectors) >= 0.95

    def test_quadratic_calibration_math(self):
        cfg = SynthConfig(expense_link="quadratic", planted_fit_r=0.89, expense_quad_coeff=0.5)
        sx, sy, hh_sd = cfg.derived_noise()
        assert sx == 0.0 and sy == 0.0
        signal = 1 + 2 * 0.5**2
        expected = cfg.expense_scale * math.sqrt(
            cfg.households_per_sector * signal * (1 / 0.89**2 - 1)
        )
        assert hh_sd == pytest.approx(expected)

    def test_linear_calibration_budget(self):
        cfg = SynthConfig(planted_r=0.8)
        sx, sy, _ = cfg.derived_noise()
        budget = 1 / 0.8 - 1
        user_term = (cfg.topup_user_sd / cfg.topup_scale) ** 2 / cfg.users_per_sector
        hh_term = (cfg.expense_household_sd / cfg.expense_scale) ** 2 / cfg.households_per_sector
        assert sx**2 + user_term == pytest.approx(budget)
        assert sy**2 + hh_term == pytest.approx(budget)

    def test_infeasible_planted_r_rejected(self):
        cfg = SynthConfig(planted_r=0.99, topup_user_sd=2500.0, users_per_sector=10)
        with pytest.raises(ConfigError, match="infeasible"):
            cfg.validate()


class TestConfig:
    def test_from_file(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text(
            "seed = 42\nn_sectors = 7\nexpense_link = quadratic\n"
            "period_start = 2013-02-01\nplanted_r = none\n# comment\n"
        )
        cfg = SynthConfig.from_file(path)
        assert cfg.seed == 42
        assert cfg.n_sectors == 7
        assert cfg.expense_link == "quadratic"
        assert str(cfg.period_start) == "2013-02-01"
        assert cfg.planted_r is None

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            SynthConfig.from_file(path)

    def test_zero_users_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(users_per_sector=0).validate()

    def test_contacts_must_fit_sector(self):
        with pytest.raises(ConfigError):
            SynthConfig(users_per_sector=5, contacts_max=8).validate()


class TestVerify:
    def test_full_run_passes(self, medium_dataset, medium_pipeline):
        _, paths = medium_dataset
        report = verify_outputs(paths["truth"], medium_pipeline)
        assert report.passed, "\n".join(report.lines())

    def test_corrupted_homes_fail_the_accuracy_check(self, medium_dataset, medium_pipeline, tmp_path):
        import shutil

        _, paths = medium_dataset
        corrupt = tmp_path / "corrupt"
        shutil.copytree(medium_pipeline, corrupt)
        features_file = corrupt / "user_features.csv"
        lines = features_file.read_text().splitlines()
        swapped = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            cells[1] = "s0000" if cells[1] != "s0000" else "s0001"
            swapped.append(",".join(cells))
        features_file.write_text("\n".join(swapped) + "\n")
        report = verify_outputs(paths["truth"], corrupt)
        failures = {c.name for c in report.checks if not c.passed}
        assert "home accuracy" in failures

    def test_missing_outputs_fatal(self, small_dataset, tmp_path):
        _, paths = small_dataset
        with pytest.raises(FormatError, match="missing"):
            verify_outputs(paths["truth"], tmp_path)
