import contextlib
import csv
import functools
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import click
import pytest

import foodsec
from foodsec.aggregate import read_sector_matrix
from foodsec.cli import cli, main
from foodsec.correlate import read_correlations
from foodsec.synth import SynthConfig, generate


def run(args):
    return main([str(a) for a in args])


class TestExitCodes:
    def test_missing_input_names_the_key(self, tmp_path, capsys):
        rc = run(["features", "--cdr", tmp_path / "nope.csv", "--topup", tmp_path / "x.csv",
                  "--towers", tmp_path / "y.csv", "--out", tmp_path / "out"])
        assert rc == 1
        assert "cdr" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        rc = run(["aggregate", "--bogus-flag", "1"])
        assert rc == 1

    def test_strict_mode_row_error_is_data_error(self, tmp_path, capsys):
        (tmp_path / "cdr.csv").write_text(
            "caller_id,callee_id,tower_id,timestamp\nu1,u2,t1,not-a-time\n"
        )
        (tmp_path / "topup.csv").write_text("user_id,amount,timestamp\n")
        (tmp_path / "towers.csv").write_text("tower_id,sector_id\nt1,s1\n")
        rc = run(["features", "--cdr", tmp_path / "cdr.csv", "--topup", tmp_path / "topup.csv",
                  "--towers", tmp_path / "towers.csv", "--out", tmp_path / "out", "--strict"])
        assert rc == 2

    def test_non_strict_quarantines_and_succeeds(self, tmp_path):
        (tmp_path / "cdr.csv").write_text(
            "caller_id,callee_id,tower_id,timestamp\n"
            "u1,u2,t1,2012-01-01T20:00:00Z\n"
            "u1,u2,t1,not-a-time\n"
        )
        (tmp_path / "topup.csv").write_text(
            "user_id,amount,timestamp\nu1,100,2012-01-05T10:00:00Z\n"
        )
        (tmp_path / "towers.csv").write_text("tower_id,sector_id\nt1,s1\n")
        rc = run(["features", "--cdr", tmp_path / "cdr.csv", "--topup", tmp_path / "topup.csv",
                  "--towers", tmp_path / "towers.csv", "--out", tmp_path / "out"])
        assert rc == 0
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["stats"]["row_errors"] == {"cdr": 1, "topup": 0}
        assert manifest["stats"]["users_out"] == 1

    @pytest.mark.parametrize("file, row", [
        ("cdr", "u1,u2,t1,0001-01-01T00:30:00+01:00"),
        ("topup", "u1,5.00,9999-12-31T23:30:00-01:00"),
    ])
    @pytest.mark.parametrize("strict, code", [(False, 0), (True, 2)])
    def test_offset_timestamp_outside_utc_range_is_row_error(self, tmp_path, capsys, file, row,
                                                             strict, code):
        """An offset stamp whose UTC time falls before year 1 or after 9999
        is an unparsable timestamp, not a crash."""
        bodies = {
            "cdr": "caller_id,callee_id,tower_id,timestamp\nu1,u2,t1,2012-01-01T20:00:00Z\n",
            "topup": "user_id,amount,timestamp\nu1,100,2012-01-05T10:00:00Z\n",
        }
        bodies[file] += row + "\n"
        for name, body in bodies.items():
            (tmp_path / f"{name}.csv").write_text(body)
        (tmp_path / "towers.csv").write_text("tower_id,sector_id\nt1,s1\n")
        rc = run(["features", "--cdr", tmp_path / "cdr.csv", "--topup", tmp_path / "topup.csv",
                  "--towers", tmp_path / "towers.csv", "--out", tmp_path / "out",
                  *(["--strict"] if strict else [])])
        assert rc == code
        if strict:
            assert "line 3: unparsable timestamp" in capsys.readouterr().err
        else:
            manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
            assert manifest["stats"]["row_errors"] == {"cdr": 0, "topup": 0, file: 1}

    def test_missing_seed_for_null_is_config_error(self, medium_pipeline, tmp_path, capsys):
        rc = run(["null", "--mobile", medium_pipeline / "sector_mobile.csv",
                  "--survey-matrix", medium_pipeline / "sector_survey.csv",
                  "--out", tmp_path])
        assert rc == 1
        assert "seed" in capsys.readouterr().err

    def test_bad_fit_target_is_config_error(self, medium_pipeline, tmp_path, capsys):
        rc = run(["fit", "--mobile", medium_pipeline / "sector_mobile.csv",
                  "--survey-matrix", medium_pipeline / "sector_survey.csv",
                  "--target", "not_a_column", "--variables", "topup_sum.mean",
                  "--out", tmp_path])
        assert rc == 1
        assert "target" in capsys.readouterr().err


    @pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--threads", "-3")])
    def test_null_nonpositive_trials_or_threads_is_config_error(
        self, medium_pipeline, tmp_path, flag, value
    ):
        rc = run(["null", "--mobile", medium_pipeline / "sector_mobile.csv",
                  "--survey-matrix", medium_pipeline / "sector_survey.csv",
                  "--seed", "1", flag, value, "--out", tmp_path])
        assert rc == 1

    @pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--threads", "-3")])
    def test_all_nonpositive_trials_or_threads_is_config_error(
        self, medium_dataset, tmp_path, flag, value
    ):
        _, paths = medium_dataset
        rc = run(["all", "--in", paths["cdr"].parent, "--out", tmp_path,
                  "--seed", "1", "--min-users", "5", flag, value])
        assert rc == 1

    def test_null_without_any_defined_correlation_is_data_error(self, tmp_path, capsys):
        # Two shared sectors: no pair reaches the 3 sectors a correlation needs.
        (tmp_path / "mobile.csv").write_text("sector_id,m,n_users\ns1,1,30\ns2,2,30\n")
        (tmp_path / "survey.csv").write_text("sector_id,v,n_households\ns1,1,10\ns2,3,10\n")
        rc = run(["null", "--mobile", tmp_path / "mobile.csv",
                  "--survey-matrix", tmp_path / "survey.csv",
                  "--trials", "5", "--seed", "1", "--out", tmp_path / "out"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "data error: no defined correlation in any null trial: the matrices share 2 "
            "sector(s), fewer than the 3 a correlation needs"
        )

    def test_correlate_at_extreme_scales_is_not_an_internal_error(self, tmp_path):
        """On the masked pair, sxx * syy underflows to 0 at these scales."""
        m, v = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3], [2, 7, 1, 8, 2, 8, 1, 8, 2, 8]
        r = {}
        for name, m_scale, v_scale in (("unit", 1.0, 1.0), ("tiny", 1e-150, 1e-15)):
            (tmp_path / "mobile.csv").write_text("sector_id,m,n_users\n" + "".join(
                f"s{i},{a * m_scale!r},30\n" for i, a in enumerate(m)))
            (tmp_path / "survey.csv").write_text("sector_id,v,n_households\n" + "".join(
                f"s{i},{'' if i == 4 else repr(b * v_scale)},10\n" for i, b in enumerate(v)))
            assert run(["correlate", "--mobile", tmp_path / "mobile.csv",
                        "--survey-matrix", tmp_path / "survey.csv",
                        "--out", tmp_path / name]) == 0
            (entry,) = read_correlations(tmp_path / name / "correlations.csv")
            assert entry.n == 9
            r[name] = entry.r
        assert r["tiny"] == pytest.approx(r["unit"], abs=1e-12)

    def test_rolling_window_longer_than_the_data_is_data_error(
        self, medium_dataset, medium_pipeline, tmp_path, capsys
    ):
        _, paths = medium_dataset  # 60 days of top-ups
        rc = run(["rolling", "--topup", paths["topup"],
                  "--user-features", medium_pipeline / "user_features.csv",
                  "--window-days", "400", "--out", tmp_path])
        assert rc == 2
        assert "400-day window" in capsys.readouterr().err

    def test_rolling_nonpositive_window_is_config_error(self, medium_dataset, medium_pipeline,
                                                         tmp_path):
        _, paths = medium_dataset
        rc = run(["rolling", "--topup", paths["topup"],
                  "--user-features", medium_pipeline / "user_features.csv",
                  "--window-days", "0", "--out", tmp_path])
        assert rc == 1

    def test_all_nonpositive_window_is_config_error(self, medium_dataset, tmp_path):
        _, paths = medium_dataset
        rc = run(["all", "--in", paths["cdr"].parent, "--out", tmp_path,
                  "--seed", "1", "--min-users", "5", "--window-days", "0"])
        assert rc == 1

    def test_repeated_fit_variable_is_config_error(self, medium_pipeline, tmp_path, capsys):
        rc = run(["fit", "--mobile", medium_pipeline / "sector_mobile.csv",
                  "--survey-matrix", medium_pipeline / "sector_survey.csv",
                  "--target", "food_expenditure",
                  "--variables", "topup_sum.mean,topup_sum.mean", "--out", tmp_path])
        assert rc == 1
        assert "repeated variable(s) topup_sum.mean" in capsys.readouterr().err

    def test_unknown_aggregate_column_is_config_error(self, medium_pipeline, tmp_path, capsys):
        rc = run(["aggregate", "--user-features", medium_pipeline / "user_features.csv",
                  "--columns", "topup_sum.mean,bogus.mean", "--out", tmp_path])
        assert rc == 1
        assert "unknown column(s) bogus.mean" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name", [("aggregate", "user_features.csv"),
                                               ("correlate", "sector_mobile.csv")])
    def test_repeated_intermediate_row_is_data_error(self, medium_pipeline, tmp_path, capsys,
                                                     command, name):
        text = (medium_pipeline / name).read_text()
        first = text.split("\n")[1]
        repeated = tmp_path / name
        repeated.write_text(f"{text}{first}\n")
        args = {"aggregate": ["--user-features", repeated],
                "correlate": ["--mobile", repeated,
                              "--survey-matrix", medium_pipeline / "sector_survey.csv"]}[command]
        assert run([command, *args, "--out", tmp_path / "out"]) == 2
        line = text.count("\n") + 1
        assert f"duplicate {first.split(',')[0]!r} at line {line}" in capsys.readouterr().err

    def test_unknown_survey_variable_is_config_error(self, medium_dataset, tmp_path, capsys):
        _, paths = medium_dataset
        rc = run(["indices", "--survey", paths["survey"], "--survey-meta", paths["survey_meta"],
                  "--variables", "household_size,bogus", "--out", tmp_path])
        assert rc == 1
        assert "unknown survey variable(s) bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("fault, names", [
        ("an empty", "{},"), ("repeated", "{0},{0}"), ("unknown", "{},bogus"),
    ], ids=["empty", "repeated", "unknown"])
    @pytest.mark.parametrize("command, key, name", [
        ("aggregate", "columns", "topup_sum.mean"),
        ("indices", "variables", "household_size"),
        ("fit", "variables", "topup_sum.mean"),
    ])
    def test_bad_name_list_is_config_error(self, medium_dataset, medium_pipeline, tmp_path,
                                           capsys, command, key, name, fault, names):
        """One rule for every name list: no empty, unknown or repeated entry."""
        _, paths = medium_dataset
        args = {
            "aggregate": ["--user-features", medium_pipeline / "user_features.csv"],
            "indices": ["--survey", paths["survey"], "--survey-meta", paths["survey_meta"]],
            "fit": ["--mobile", medium_pipeline / "sector_mobile.csv",
                    "--survey-matrix", medium_pipeline / "sector_survey.csv",
                    "--target", "food_expenditure"],
        }[command]
        rc = run([command, *args, f"--{key}", names.format(name), "--out", tmp_path])
        assert rc == 1
        assert f"config key '{key}': {fault}" in capsys.readouterr().err
        assert not (tmp_path / "run_manifest.json").exists()

    @pytest.mark.parametrize("command, key", [
        ("features", "cdr"), ("aggregate", "user_features"), ("all", "poverty"),
    ])
    def test_directory_as_input_file_is_config_error(self, medium_dataset, tmp_path, capsys,
                                                     command, key):
        import shutil

        _, paths = medium_dataset
        data = tmp_path / "data"
        if command == "all":
            shutil.copytree(paths["cdr"].parent, data)
            (data / "poverty.csv").unlink()
            (data / "poverty.csv").mkdir()  # an optional input of `all`
        args = {
            "features": ["--cdr", tmp_path, "--topup", paths["topup"], "--towers",
                         paths["towers"]],
            "aggregate": ["--user-features", tmp_path],
            "all": ["--in", data, "--seed", "1"],
        }[command]
        assert run([command, *args, "--out", tmp_path / "out"]) == 1
        assert f"config key {key!r}: a directory, not a file" in capsys.readouterr().err
        assert not (tmp_path / "out" / "run_manifest.json").exists()

    def test_repeated_matrix_column_is_data_error(self, medium_pipeline, tmp_path, capsys):
        """The correlations of a repeated column would repeat their pairs."""
        lines = (medium_pipeline / "sector_survey.csv").read_text().split("\n")
        header = lines[0].split(",")
        header[2] = header[1]
        (tmp_path / "survey.csv").write_text("\n".join([",".join(header), *lines[1:]]))
        rc = run(["correlate", "--mobile", medium_pipeline / "sector_mobile.csv",
                  "--survey-matrix", tmp_path / "survey.csv", "--out", tmp_path / "out"])
        assert rc == 2
        assert f"{tmp_path / 'survey.csv'}: duplicate column names" in capsys.readouterr().err

    def test_input_file_not_utf8_is_data_error(self, tmp_path, capsys):
        (tmp_path / "cdr.csv").write_bytes(
            b"caller_id,callee_id,tower_id,timestamp\nu\xff,u2,t1,2012-01-01T20:00:00Z\n"
        )
        (tmp_path / "topup.csv").write_text("user_id,amount,timestamp\n")
        (tmp_path / "towers.csv").write_text("tower_id,sector_id\nt1,s1\n")
        rc = run(["features", "--cdr", tmp_path / "cdr.csv", "--topup", tmp_path / "topup.csv",
                  "--towers", tmp_path / "towers.csv", "--out", tmp_path / "out"])
        assert rc == 2
        assert f"{tmp_path / 'cdr.csv'}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["--config", "{cfg}", "synth"],
                                         ["synth", "--synth-config", "{cfg}"]])
    def test_config_file_not_utf8_is_config_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 1 # \xff\n")
        args = [a.format(cfg=cfg) for a in command]
        assert run([*args, "--out", tmp_path / "out"]) == 1
        assert f"{cfg}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("column, value, csi, index", [
        ("skip_meals", "-3", "strategy,weight\nskip_meals,2\n", "csi_mean"),
        # a food group tagged V2 skips the survey loader's 0..7 check
        ("staples", "9", None, "fcs_mean"),
    ])
    def test_index_answer_out_of_range_is_data_error(self, tmp_path, capsys, column, value, csi,
                                                     index):
        (tmp_path / "survey.csv").write_text(f"household_id,sector_id,{column}\nh1,s1,{value}\n")
        (tmp_path / "meta.csv").write_text(f"variable,category\n{column},V2\n")
        args = ["indices", "--survey", tmp_path / "survey.csv", "--survey-meta",
                tmp_path / "meta.csv", "--out", tmp_path / "out"]
        if csi:
            (tmp_path / "csi.csv").write_text(csi)
            args += ["--csi-weights", tmp_path / "csi.csv"]
        assert run(args) == 2
        assert f"{index}: answer {value} for '{column}'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "run_manifest.json").exists()

    def test_survey_variable_named_after_a_composite_is_data_error(self, tmp_path, capsys):
        (tmp_path / "survey.csv").write_text("household_id,sector_id,mpi\nh1,s1,0.5\n")
        (tmp_path / "meta.csv").write_text("variable,category\nmpi,poverty\n")
        assert run(["indices", "--survey", tmp_path / "survey.csv", "--survey-meta",
                    tmp_path / "meta.csv", "--out", tmp_path / "out"]) == 2
        assert "variable 'mpi' has the name of a composite column" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sector_survey.csv").exists()

    def test_removed_fcs_class_option_is_usage_error(self, medium_dataset, tmp_path):
        _, paths = medium_dataset
        assert run(["indices", "--survey", paths["survey"], "--survey-meta",
                    paths["survey_meta"], "--fcs-poor-max", "28", "--out", tmp_path]) == 1

    @pytest.mark.parametrize("level", ["0", "1", "1.5", "-0.2"])
    def test_correlate_ci_level_outside_unit_interval_is_config_error(
        self, medium_pipeline, tmp_path, level
    ):
        rc = run(["correlate", "--mobile", medium_pipeline / "sector_mobile.csv",
                  "--survey-matrix", medium_pipeline / "sector_survey.csv",
                  "--ci-level", level, "--out", tmp_path])
        assert rc == 1

    @pytest.mark.parametrize("level", ["0", "1.5"])
    def test_all_ci_level_outside_unit_interval_is_config_error(
        self, medium_dataset, tmp_path, level
    ):
        _, paths = medium_dataset
        rc = run(["all", "--in", paths["cdr"].parent, "--out", tmp_path,
                  "--seed", "1", "--min-users", "5", "--ci-level", level])
        assert rc == 1

    @pytest.mark.parametrize("offset", ["1440", "-1440", "90.5", "abc"])
    @pytest.mark.parametrize("command", ["features", "all"])
    def test_utc_offset_outside_a_day_is_config_error(self, small_dataset, tmp_path, command,
                                                      offset):
        _, paths = small_dataset
        args = {"features": ["--cdr", paths["cdr"], "--topup", paths["topup"],
                             "--towers", paths["towers"]],
                "all": ["--in", paths["cdr"].parent, "--seed", "1"]}[command]
        assert run([command, *args, "--utc-offset", offset, "--out", tmp_path]) == 1
        assert not (tmp_path / "run_manifest.json").exists()

    @pytest.mark.parametrize("window", ["18:00+01:00-08:00", "18:00-08:00-09:00", "18:00-18:00"])
    @pytest.mark.parametrize("command", ["features", "all"])
    def test_refused_night_window_is_config_error(self, small_dataset, tmp_path, command, window,
                                                  capsys):
        """The offset to local time is --utc-offset, so a window time that
        carries one of its own is refused before any stage runs; so is an
        empty window, whose start is its end."""
        _, paths = small_dataset
        args = {"features": ["--cdr", paths["cdr"], "--topup", paths["topup"],
                             "--towers", paths["towers"]],
                "all": ["--in", paths["cdr"].parent, "--seed", "1"]}[command]
        out = tmp_path / "out"
        assert run([command, *args, "--night-window", window, "--out", out]) == 1
        assert "night window" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["all", "null", "synth"])
    def test_negative_seed_is_config_error(self, small_dataset, medium_pipeline, tmp_path,
                                           command):
        _, paths = small_dataset
        args = {"all": ["--in", paths["cdr"].parent, "--min-users", "5"],
                "null": ["--mobile", medium_pipeline / "sector_mobile.csv",
                         "--survey-matrix", medium_pipeline / "sector_survey.csv"],
                "synth": []}[command]
        out = tmp_path / "out"
        assert run([command, *args, "--seed", "-1", "--out", out]) == 1
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["aggregate", "all"])
    def test_negative_min_users_is_config_error(self, small_dataset, medium_pipeline, tmp_path,
                                                command):
        _, paths = small_dataset
        args = {"aggregate": ["--user-features", medium_pipeline / "user_features.csv"],
                "all": ["--in", paths["cdr"].parent, "--seed", "1"]}[command]
        out = tmp_path / "out"
        assert run([command, *args, "--min-users", "-3", "--out", out]) == 1
        assert not out.exists() or list(out.iterdir()) == []

    def test_negative_synth_config_seed_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("seed = -1\nn_sectors = 2\n")
        out = tmp_path / "out"
        assert run(["synth", "--synth-config", cfg, "--out", out]) == 1
        assert "seed" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("setting", [
        "seed = 1_0", "towers_per_sector = 1_0", "topup_events_mean = -1",
        "topup_events_mean = 0.5", "topup_base = inf", "topup_scale = nan",
        "pair_tolerance = nan", "day_calls_mean = -2", "contact_skew = 0",
        "verify_p_max = 0", "home_accuracy_min = 1.5",
    ])
    def test_bad_synth_config_value_is_config_error(self, setting, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(f"n_sectors = 2\n{setting}\n")
        out = tmp_path / "out"
        assert run(["synth", "--synth-config", cfg, "--out", out]) == 1
        assert setting.split()[0] in capsys.readouterr().err
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("command, args, message", [
        # csi_mean is blank without CSI weights
        ("fit", ["--target", "csi_mean", "--variables", "topup_sum.mean"], "0 complete row(s)"),
        # mean * cv = std, so the degree-2 basis is rank-deficient
        ("fit", ["--target", "food_expenditure", "--degree", "2",
                 "--variables", "topup_sum.mean,topup_sum.std,topup_sum.cv"], "collinear"),
        ("all", ["--target", "csi_mean", "--variables", "topup_sum.mean"], "0 complete row(s)"),
    ])
    def test_fit_the_data_cannot_support_is_data_error(self, sparse_run, tmp_path, capsys,
                                                       command, args, message):
        data, whole = sparse_run
        inputs = (["--in", data, "--seed", "1", "--trials", "5", "--min-users", "5"]
                  if command == "all" else
                  ["--mobile", whole / "sector_mobile.csv",
                   "--survey-matrix", whole / "sector_survey.csv"])
        assert run([command, *inputs, *args, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "data error: " in err and message in err
        assert not (tmp_path / "run_manifest.json").exists()


@pytest.fixture(scope="module")
def sparse_run(tmp_path_factory):
    """A dataset too small for some fits, and `all` run over it."""
    root = tmp_path_factory.mktemp("sparse")
    generate(SynthConfig(seed=3, n_sectors=12, users_per_sector=20, households_per_sector=10,
                         period_days=40, planted_r=0.5), root / "data")
    assert run(["all", "--in", root / "data", "--out", root / "all", "--seed", "1",
                "--trials", "5", "--min-users", "5"]) == 0
    return root / "data", root / "all"


def test_all_takes_every_stage_option():
    """Every option of a stage subcommand but its files is on `all`, with the
    same type and default, so `all` can run any chain of subcommands. The
    exceptions: indices' --variables (all's --variables is fit's) and the
    defaults of all's --target, --variables and --degree. Beyond these, `all`
    takes only its directories and --threads."""
    whole = {p.name: p for p in cli.commands["all"].params}
    stage_options = set()
    for stage in ("features", "aggregate", "indices", "correlate", "null", "fit", "rolling"):
        for option in cli.commands[stage].params:
            if isinstance(option.type, click.Path) or (stage, option.name) == (
                    "indices", "variables"):
                continue
            stage_options.add(option.name)
            other = whole.get(option.name)
            assert other is not None, f"all lacks {stage}'s --{option.name}"
            assert other.type.to_info_dict() == option.type.to_info_dict(), option.name
            assert other.is_flag == option.is_flag, option.name
            if (stage, option.name) not in {("fit", "target"), ("fit", "variables"),
                                            ("fit", "degree")}:
                assert (other.default, other.required) == (option.default, option.required), (
                    option.name)
    assert set(whole) - stage_options == {"in", "out", "threads"}


def loaded_after_import(module: str, package: str) -> list[str]:
    """The modules of ``package`` that a fresh interpreter holds after
    importing ``module``."""
    src = str(Path(foodsec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    depth = package.count(".") + 1
    code = (f"import sys, {module}; print(*sorted(m for m in sys.modules "
            f"if m.split('.')[:{depth}] == {package.split('.')!r}))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.split()


def test_cli_import_leaves_scipy_stats_unloaded():
    """``scipy.stats`` costs about a second of import; nothing may pull it in."""
    assert loaded_after_import("foodsec.cli", "scipy.stats") == []


@pytest.mark.parametrize("module, package", [("foodsec.cli", "scipy.linalg"),
                                             ("foodsec.cli", "scipy.special"),
                                             ("foodsec.synth", "scipy")])
def test_import_leaves_unused_scipy_unloaded(module, package):
    """Only a rank-deficient fit needs ``scipy.linalg``, only p-values and
    confidence intervals need ``scipy.special``, and the generator needs no
    scipy at all: importing the package loads no module it does not use."""
    assert loaded_after_import(module, package) == []


def test_cli_import_leaves_synth_unloaded():
    """Only `synth` and `verify` need the generator: `all` does not import it."""
    assert loaded_after_import("foodsec.cli", "foodsec.synth") == []


def run_counting_forks(monkeypatch, args, cpus=2):
    """``run(args)`` with ``cpus`` usable CPUs: its exit code and the number
    of processes it forked, after checking that it left none."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", counted_fork)
    rc = run(args)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return rc, len(forks)


# a survey column whose scatter_<name>.csv takes 256 bytes, one more than a
# file name may have on the usual file systems, while model_<name>.csv fits
LONG = "x" * 244


# `all --threads 2`, run as a caller process whose worker says on stdout
# when its mobile branch is done and then sleeps 3 s in indices. The caller
# is handed a pipe's write end, unused, which its worker inherits.
CALLER_OF_A_SLOW_WORKER = """
import os, sys, time
from foodsec import cli

mobile_stages, stage_indices = cli._mobile_stages, cli._stage_indices

def announced(*args):
    mobile = mobile_stages(*args)
    os.write(1, b"mobile done\\n")
    return mobile

def slow_indices(*args, **kwargs):
    time.sleep(3)
    return stage_indices(*args, **kwargs)

cli._mobile_stages = announced
cli._stage_indices = slow_indices
os.sched_getaffinity = lambda pid: {0, 1}
cli.main(sys.argv[1:])
"""


class TestAllInAWorker:
    """At --threads 2 or more, with as many usable CPUs, `all` forks one
    worker for every stage but correlate. The CPUs are
    patched, so the forked path runs on any host."""

    @staticmethod
    def args(in_dir, out, threads, *extra):
        return ["all", "--in", in_dir, "--out", out, "--seed", "3",
                "--trials", "30", "--min-users", "5", "--threads", threads, *extra]

    @pytest.mark.parametrize("threads, cpus, forks", [
        (1, 2, 0), (2, 2, 1), (4096, 4096, 1), (2, 1, 0)])
    def test_forks_one_worker_at_most(self, small_dataset, tmp_path, monkeypatch, threads,
                                      cpus, forks):
        args = self.args(small_dataset[1]["cdr"].parent, tmp_path, threads)
        assert run_counting_forks(monkeypatch, args, cpus) == (0, forks)

    def test_artifacts_and_manifest_keep_their_bytes(self, small_dataset, tmp_path,
                                                     monkeypatch):
        for threads in (1, 2):
            args = self.args(small_dataset[1]["cdr"].parent, tmp_path / str(threads), threads,
                             "--heatmap-data", "--scatter-data")
            assert run_counting_forks(monkeypatch, args) == (0, threads - 1)
        names = sorted(p.name for p in (tmp_path / "1").iterdir())
        assert len(names) == 11
        assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    @pytest.fixture(scope="class")
    def half_year(self, tmp_path_factory):
        """182 days of data, a copy with one bad survey row, and a copy with
        that row and one bad cdr row."""
        root = tmp_path_factory.mktemp("half_year")
        generate(SynthConfig(seed=4, n_sectors=10, users_per_sector=45,
                             households_per_sector=15, period_days=182), root / "clean")
        shutil.copytree(root / "clean", root / "survey")
        with open(root / "survey" / "survey.csv", "a", encoding="utf-8") as f:
            f.write("h1\n")
        shutil.copytree(root / "survey", root / "bad")
        with open(root / "bad" / "cdr.csv", "a", encoding="utf-8") as f:
            f.write("u1,u2,t1,not-a-time\n")
        return root

    @pytest.mark.parametrize("case, code, message", [
        ("night-window", 1, "error: night window"),
        ("strict", 2, "unparsable timestamp"),
        ("window-days", 2, "shorter than the 400-day window"),
        ("window-days-and-survey", 2, "shorter than the 400-day window"),
        ("survey", 2, "line 152: expected 38 fields, got 1"),
        ("target", 1, "unknown survey column(s) bogus"),
    ])
    def test_an_error_is_reported_as_in_serial_order(self, half_year, tmp_path, monkeypatch,
                                                     capsys, case, code, message):
        """The night-window error; the cdr error before the survey error;
        rolling's error, met before the survey side, so also before a survey
        error; the survey error in indices; fit's error after the null has
        written its file and before correlate, which runs last. Each leaves
        the same files at --threads 1 and 2."""
        in_dir = half_year / {"strict": "bad", "window-days-and-survey": "survey",
                              "survey": "survey"}.get(case, "clean")
        extra = {"night-window": ["--night-window", "18:00-18:00"], "strict": ["--strict"],
                 "window-days": ["--window-days", "400"],
                 "window-days-and-survey": ["--strict", "--window-days", "400"],
                 "survey": ["--strict"], "target": ["--target", "bogus"]}[case]
        written = {"target": ["null_summary.csv"]}.get(case, [])
        lines, left = [], []
        for threads in (1, 2):
            out = tmp_path / str(threads)
            args = self.args(in_dir, out, threads, *extra)
            assert run_counting_forks(monkeypatch, args) == (code, threads - 1)
            assert not (out / "run_manifest.json").exists()
            assert not (out / "model_food_expenditure.csv").exists()
            assert not (out / "correlations.csv").exists()
            assert all((out / name).exists() for name in written)
            lines.append(capsys.readouterr().err.splitlines()[-1])
            left.append(sorted(p.name for p in out.iterdir()))
        assert lines[0] == lines[1]
        assert message in lines[0]
        assert left[0] == left[1]

    @pytest.fixture(scope="class")
    def renamed(self, half_year):
        """Copies of the clean data whose survey variable household_size is
        named n_households, the count column of sector_survey.csv; a/b,
        which names no file; or LONG, whose scatter file name is one byte
        longer than a name may be."""
        for copy, name in (("count", "n_households"), ("slash", "a/b"), ("long", LONG)):
            shutil.copytree(half_year / "clean", half_year / copy)
            for file in ("survey.csv", "survey_meta.csv"):
                path = half_year / copy / file
                text = path.read_text(encoding="utf-8")
                assert text.count("household_size") == 1
                path.write_text(text.replace("household_size", name), encoding="utf-8")
        return half_year

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("copy, extra, code, message", [
        ("count", [], 2,
         "data error: survey: variable 'n_households' has the name of the count column"),
        ("slash", ["--target", "a/b", "--degree", "1", "--variables", "topup_sum.mean"], 1,
         "error: config key 'target': 'a/b' holds '/' or NUL"),
        pytest.param("long", ["--target", LONG, "--degree", "1", "--variables", "topup_sum.mean",
                              "--scatter-data"], 1,
                     f"error: config key 'target': 'scatter_{LONG}.csv' takes 256 bytes", id="long"),
    ])
    def test_a_survey_column_that_cannot_be_written_is_refused(
            self, renamed, tmp_path, monkeypatch, capsys, threads, copy, extra, code, message):
        """A variable named after the count column would be written twice, a
        target holding '/' would name a file in no directory, a long one a
        file no directory can hold: each is refused, not exit 3 or an
        unreadable sector_survey.csv."""
        args = self.args(renamed / copy, tmp_path, threads, *extra)
        assert run_counting_forks(monkeypatch, args) == (code, threads - 1)
        assert not (tmp_path / "run_manifest.json").exists()
        assert capsys.readouterr().err.splitlines()[-1].startswith(message)

    def test_serial_run_frees_the_mobile_inputs_before_the_survey_side(
            self, small_dataset, tmp_path, monkeypatch):
        """At --threads 1 the top-up columns and the per-user features are
        gone by the time indices starts."""
        stage_features, stage_indices = foodsec.cli._stage_features, foodsec.cli._stage_indices
        refs, alive = [], []

        @functools.wraps(stage_features)
        def watched_features(*args, **kwargs):
            result = stage_features(*args, **kwargs)
            features, topups, _ = result[0]
            refs.extend((weakref.ref(features), weakref.ref(topups)))
            return result

        @functools.wraps(stage_indices)
        def watched_indices(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return stage_indices(*args, **kwargs)

        monkeypatch.setattr("foodsec.cli._stage_features", watched_features)
        monkeypatch.setattr("foodsec.cli._stage_indices", watched_indices)
        args = self.args(small_dataset[1]["cdr"].parent, tmp_path, 1)
        assert run_counting_forks(monkeypatch, args) == (0, 0)
        assert alive == [[False, False]]

    def test_stages_run_where_the_split_puts_them(self, small_dataset, tmp_path, monkeypatch):
        """The stages run in one order, correlate last, at --threads 1 and 2:
        all in the caller at 1, correlate in the caller and the other six in
        the one worker at 2. The wrappers are patched in before the fork, so
        the worker runs them too."""
        log = tmp_path / "stages.txt"

        def placed(stage):
            @functools.wraps(stage)
            def wrapper(*args, **kwargs):
                with open(log, "a", encoding="utf-8") as f:
                    f.write(f"{stage.__name__.removeprefix('_stage_')} {os.getpid()}\n")
                return stage(*args, **kwargs)
            return wrapper

        order = ["features", "aggregate", "rolling", "indices", "null", "fit", "correlate"]
        for name in order:
            monkeypatch.setattr(f"foodsec.cli._stage_{name}",
                                placed(getattr(foodsec.cli, f"_stage_{name}")))
        caller = str(os.getpid())
        for threads in (1, 2):
            log.unlink(missing_ok=True)
            args = self.args(small_dataset[1]["cdr"].parent, tmp_path / str(threads), threads)
            assert run_counting_forks(monkeypatch, args) == (0, threads - 1)
            names, pids = zip(*(line.split() for line in
                                log.read_text(encoding="utf-8").splitlines()))
            assert list(names) == order
            if threads == 1:
                assert set(pids) == {caller}
            else:
                assert pids[-1] == caller
                assert len(set(pids[:-1])) == 1 and caller not in pids[:-1]

    def test_a_worker_leaves_when_its_caller_is_killed(self, small_dataset, tmp_path):
        """The caller dies while its worker is in indices: the worker's write
        of its result fails once its stages end, and it leaves."""
        src = str(Path(foodsec.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        args = [str(a) for a in self.args(small_dataset[1]["cdr"].parent, tmp_path, 2)]
        read_fd, write_fd = os.pipe()
        caller = subprocess.Popen([sys.executable, "-c", CALLER_OF_A_SLOW_WORKER, *args],
                                  env=env, pass_fds=(write_fd,), stdout=subprocess.PIPE,
                                  start_new_session=True)
        os.close(write_fd)
        try:
            assert select.select([caller.stdout], [], [], 60)[0], "no mobile branch in 60 s"
            assert caller.stdout.readline() == b"mobile done\n"
            caller.kill()
            caller.wait()
            # the worker holds the last write end: end of file once it has left,
            # at most 5 s after its 3 s sleep
            assert select.select([read_fd], [], [], 3 + 5)[0], "the worker stayed"
            assert os.read(read_fd, 1) == b""
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(caller.pid, signal.SIGKILL)
            caller.wait()
            caller.stdout.close()
            os.close(read_fd)

    def test_a_killed_worker_is_an_internal_error(self, small_dataset, tmp_path, monkeypatch):
        caller = os.getpid()

        def killed(*args, **kwargs):
            if os.getpid() == caller:
                raise RuntimeError("features ran in the caller")
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr("foodsec.cli._stage_features", killed)
        args = self.args(small_dataset[1]["cdr"].parent, tmp_path, 2)
        assert run_counting_forks(monkeypatch, args) == (3, 1)
        assert not (tmp_path / "run_manifest.json").exists()

    def test_a_worker_error_prints_the_workers_traceback(self, small_dataset, tmp_path,
                                                         monkeypatch, capsys):
        def broken_rolling(*args, **kwargs):
            raise KeyError("no such sector")

        monkeypatch.setattr("foodsec.cli._stage_rolling", broken_rolling)
        args = self.args(small_dataset[1]["cdr"].parent, tmp_path, 2)
        assert run_counting_forks(monkeypatch, args) == (3, 1)
        err = capsys.readouterr().err
        assert "WorkerTraceback" in err
        assert "in _mobile_stages" in err and "in broken_rolling" in err
        assert err.rstrip().endswith("KeyError: 'no such sector'")


class TestAllPipeline:
    def test_manifest_lists_eight_artifacts(self, medium_pipeline):
        manifest = json.loads((medium_pipeline / "run_manifest.json").read_text())
        assert len(manifest["outputs"]) == 8
        for name in manifest["outputs"]:
            assert (medium_pipeline / name).exists()
        assert manifest["seed"] == 3
        assert "config_hash" in manifest

    def test_verify_subcommand_passes(self, medium_dataset, medium_pipeline, tmp_path):
        _, paths = medium_dataset
        rc = run(["verify", "--truth", paths["truth"], "--outputs", medium_pipeline,
                  "--out", tmp_path])
        assert rc == 0
        report = (tmp_path / "verify_report.csv").read_text().splitlines()
        assert report[0] == "check,status,detail"
        assert all(",pass," in line for line in report[1:])

    def test_verify_failure_is_exit_two(self, medium_dataset, medium_pipeline, tmp_path):
        import shutil

        _, paths = medium_dataset
        corrupt = tmp_path / "corrupt"
        shutil.copytree(medium_pipeline, corrupt)
        # damage the planted pair by zeroing the recovered correlations
        lines = (corrupt / "correlations.csv").read_text().splitlines()
        out = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            if cells[1] == "food_expenditure":
                cells[2] = "0.01"
            out.append(",".join(cells))
        (corrupt / "correlations.csv").write_text("\n".join(out) + "\n")
        rc = run(["verify", "--truth", paths["truth"], "--outputs", corrupt])
        assert rc == 2

    def test_verify_refuses_a_repeated_correlation(self, medium_dataset, medium_pipeline,
                                                   tmp_path, capsys):
        """A repeated pair is a data error naming its line, not a silent
        override of the recovered r."""
        import shutil

        _, paths = medium_dataset
        corrupt = tmp_path / "corrupt"
        shutil.copytree(medium_pipeline, corrupt)
        lines = (corrupt / "correlations.csv").read_text().splitlines()
        (planted,) = [line for line in lines if line.startswith("topup_sum.mean,food_expenditure,")]
        cells = planted.split(",")
        cells[2] = "0.1"
        lines.append(",".join(cells))
        (corrupt / "correlations.csv").write_text("\n".join(lines) + "\n")
        rc = run(["verify", "--truth", paths["truth"], "--outputs", corrupt])
        assert rc == 2
        assert capsys.readouterr().err == (
            "data error: correlations: duplicate ('topup_sum.mean', 'food_expenditure') at line "
            f"{len(lines)}\n")

    def test_verify_keeps_the_manifest_of_the_run_it_checks(self, medium_dataset,
                                                           medium_pipeline, tmp_path):
        import shutil

        _, paths = medium_dataset
        outputs = tmp_path / "outputs"
        shutil.copytree(medium_pipeline, outputs)
        assert run(["verify", "--truth", paths["truth"], "--outputs", outputs]) == 0
        assert (outputs / "run_manifest.json").read_bytes() == (
            medium_pipeline / "run_manifest.json"
        ).read_bytes()

    def test_fit_manifest_reports_the_stats_of_all(self, medium_pipeline, tmp_path):
        rc = run(["fit", "--mobile", medium_pipeline / "sector_mobile.csv",
                  "--survey-matrix", medium_pipeline / "sector_survey.csv",
                  "--target", "food_expenditure", "--variables", "topup_sum.mean,topup_mean.mean",
                  "--degree", "2", "--out", tmp_path])
        assert rc == 0
        fit = json.loads((tmp_path / "run_manifest.json").read_text())
        whole = json.loads((medium_pipeline / "run_manifest.json").read_text())
        assert set(fit["stats"]) == {"fit_r", "n"}
        assert fit["stats"] == whole["stats"]["fit"]


@pytest.fixture(scope="module")
def quoted_dataset(medium_dataset, tmp_path_factory):
    """``medium_dataset`` with sector s0003 renamed to an ID that holds a
    comma and a quote, and survey variable crowding_index to a name that
    holds a comma; the inputs quote both."""
    cfg, paths = medium_dataset
    out = tmp_path_factory.mktemp("quoted_synth")
    rename = {"s0003": 's,"3', "crowding_index": "crowding,index"}
    for path in paths.values():
        with open(path, encoding="utf-8", newline="") as f:
            rows = [[rename.get(cell, cell) for cell in row] for row in csv.reader(f)]
        with open(out / path.name, "w", encoding="utf-8", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(rows)
    return cfg, {key: out / path.name for key, path in paths.items()}


# `all`'s fit defaults, which differ from the fit subcommand's
ALL_FIT = ["--target", "food_expenditure", "--variables", "topup_sum.mean,topup_mean.mean",
           "--degree", "2"]
# a non-default value of every stage option `all` takes, under the subcommand
# that takes it; --strict is given to features, indices and rolling
NON_DEFAULT = {
    "features": ["--night-window", "20:00-06:00", "--utc-offset", "120", "--home-hours", "all",
                 "--diversity-direction", "out"],
    "aggregate": ["--min-users", "3", "--columns",
                  "topup_mean.mean,social_diversity.mean,topup_sum.mean,topup_sum.cv"],
    "correlate": ["--ci-level", "0.9"],
    "fit": ["--target", "fcs_mean", "--variables", "topup_sum.mean,social_diversity.mean",
            "--degree", "1"],
    "rolling": ["--window-days", "7", "--denominator", "window"],
}


class TestDeterminismAndOverrides:
    @pytest.mark.parametrize("dataset, options, strict", [
        pytest.param("medium_dataset", {"fit": ALL_FIT}, False, id="medium_dataset"),
        pytest.param("quoted_dataset", {"fit": ALL_FIT}, False, id="quoted_dataset"),
        pytest.param("medium_dataset", NON_DEFAULT, True, id="non_default"),
    ])
    def test_chain_of_subcommands_equals_all(self, request, dataset, options, strict, tmp_path):
        """`all` is the seven stage subcommands run with its options, at its
        defaults and at other values of each, also when IDs and variable
        names need quoting."""
        _, paths = request.getfixturevalue(dataset)
        seed, trials = "3", "20"
        whole, chain = tmp_path / "all", tmp_path / "chain"
        given = [arg for args in options.values() for arg in args] + ["--strict"] * strict
        assert run(["all", "--in", paths["cdr"].parent, "--out", whole, "--seed", seed,
                    "--trials", trials, "--heatmap-data", "--scatter-data", *given]) == 0
        mobile = ["--mobile", chain / "sector_mobile.csv",
                  "--survey-matrix", chain / "sector_survey.csv"]
        for args in (
            ["features", "--cdr", paths["cdr"], "--topup", paths["topup"],
             "--towers", paths["towers"]],
            ["aggregate", "--user-features", chain / "user_features.csv"],
            ["indices", "--survey", paths["survey"], "--survey-meta", paths["survey_meta"],
             "--poverty", paths["poverty"]],
            ["correlate", *mobile, "--heatmap-data", "--survey-meta", paths["survey_meta"]],
            ["null", *mobile, "--trials", trials, "--seed", seed],
            ["fit", *mobile, "--scatter-data"],
            ["rolling", "--topup", paths["topup"],
             "--user-features", chain / "user_features.csv"],
        ):
            strict_here = strict and args[0] in ("features", "indices", "rolling")
            assert run([*args, *options.get(args[0], []), *["--strict"] * strict_here,
                        "--out", chain]) == 0, args[0]
        artifacts = sorted(p.name for p in whole.glob("*.csv"))
        assert len(artifacts) == 10
        assert sorted(p.name for p in chain.glob("*.csv")) == artifacts
        for name in artifacts:
            assert (chain / name).read_bytes() == (whole / name).read_bytes(), name
        survey = read_sector_matrix(whole / "sector_survey.csv", count_column="n_households")
        renamed = {'s,"3', "crowding,index"} & {*survey.sectors, *survey.columns}
        assert len(renamed) == (2 if dataset == "quoted_dataset" else 0)
        assert survey.sectors == read_sector_matrix(whole / "sector_mobile.csv").sectors
        config = json.loads((whole / "run_manifest.json").read_text())["config"]
        assert (config["home_hours"], config["denominator"]) == (
            ("all", "window") if strict else ("night", "period"))

    def test_quoted_list_entry_may_hold_a_comma(self, quoted_dataset, tmp_path):
        _, paths = quoted_dataset
        assert run(["indices", "--survey", paths["survey"], "--survey-meta", paths["survey_meta"],
                    "--variables", '"crowding,index",household_size', "--out", tmp_path]) == 0
        columns = read_sector_matrix(tmp_path / "sector_survey.csv", "n_households").columns
        assert columns[:2] == ["crowding,index", "household_size"]

    def test_correlate_reruns_are_byte_identical(self, medium_pipeline, tmp_path):
        args = ["correlate", "--mobile", medium_pipeline / "sector_mobile.csv",
                "--survey-matrix", medium_pipeline / "sector_survey.csv"]
        assert run(args + ["--out", tmp_path / "a"]) == 0
        assert run(args + ["--out", tmp_path / "b"]) == 0
        assert (tmp_path / "a" / "correlations.csv").read_bytes() == (
            tmp_path / "b" / "correlations.csv"
        ).read_bytes()

    def test_null_refuses_threads(self, medium_pipeline, tmp_path, capsys):
        """--threads is `all`'s own: `null` runs in one process."""
        rc = run(["null", "--mobile", medium_pipeline / "sector_mobile.csv",
                  "--survey-matrix", medium_pipeline / "sector_survey.csv",
                  "--trials", "40", "--seed", "17", "--threads", "2", "--out", tmp_path])
        assert rc == 1
        assert "No such option '--threads'" in capsys.readouterr().err
        assert not (tmp_path / "run_manifest.json").exists()

    def test_env_var_override(self, medium_pipeline, tmp_path, monkeypatch):
        monkeypatch.setenv("FOODSEC_NULL_TRIALS", "7")
        rc = run(["null", "--mobile", medium_pipeline / "sector_mobile.csv",
                  "--survey-matrix", medium_pipeline / "sector_survey.csv",
                  "--seed", "1", "--out", tmp_path])
        assert rc == 0
        summary = (tmp_path / "null_summary.csv").read_text().splitlines()[1]
        assert summary.startswith("7,")

    @pytest.mark.parametrize("offset, home", [("0", "sB"), ("60", "sA"), ("-1439", "sB")])
    def test_utc_offset_moves_the_night_window(self, tmp_path, offset, home):
        """A 17:30 UTC call is a night call at UTC+1 (18:30 local) and a day
        call in UTC, where the user's home falls back to all calls."""
        (tmp_path / "cdr.csv").write_text(
            "caller_id,callee_id,tower_id,timestamp\n"
            "u1,u2,tA,2012-01-02T17:30:00Z\n"
            "u1,u2,tB,2012-01-03T12:00:00Z\n"
            "u1,u2,tB,2012-01-04T12:00:00Z\n"
        )
        (tmp_path / "topup.csv").write_text(
            "user_id,amount,timestamp\nu1,5.00,2012-01-05T10:00:00Z\n"
        )
        (tmp_path / "towers.csv").write_text("tower_id,sector_id\ntA,sA\ntB,sB\n")
        out = tmp_path / "out"
        assert run(["features", "--cdr", tmp_path / "cdr.csv", "--topup", tmp_path / "topup.csv",
                    "--towers", tmp_path / "towers.csv", "--utc-offset", offset,
                    "--out", out]) == 0
        rows = [line.split(",") for line in (out / "user_features.csv").read_text().splitlines()]
        assert [row[:2] for row in rows[1:] if row[0] == "u1"] == [["u1", home]]
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["utc_offset"] == int(offset)

    @pytest.mark.parametrize("offset, stamp", [("-60", "0001-01-01T00:30:00Z"),
                                               ("60", "9999-12-31T23:30:00Z")])
    @pytest.mark.parametrize("caller", ["u1", '"u1"'])
    def test_utc_offset_at_the_edge_of_the_date_range(self, tmp_path, offset, stamp, caller):
        """A call whose local time falls on the day before year 1 or after
        9999 is judged by its local time of day: 23:30 and 00:30 are night.
        A quoted caller sends the file through the row loop."""
        (tmp_path / "cdr.csv").write_text(
            "caller_id,callee_id,tower_id,timestamp\n"
            f"{caller},u2,tA,{stamp}\n"
            "u1,u2,tB,2012-01-03T12:00:00Z\n"
            "u1,u2,tB,2012-01-04T12:00:00Z\n"
        )
        (tmp_path / "topup.csv").write_text(
            "user_id,amount,timestamp\nu1,5.00,2012-01-05T10:00:00Z\n"
        )
        (tmp_path / "towers.csv").write_text("tower_id,sector_id\ntA,sA\ntB,sB\n")
        out = tmp_path / "out"
        assert run(["features", "--cdr", tmp_path / "cdr.csv", "--topup", tmp_path / "topup.csv",
                    "--towers", tmp_path / "towers.csv", "--utc-offset", offset,
                    "--out", out]) == 0
        rows = [line.split(",") for line in (out / "user_features.csv").read_text().splitlines()]
        assert [row[:2] for row in rows[1:] if row[0] == "u1"] == [["u1", "sA"]]

    def test_all_passes_utc_offset_to_features(self, small_dataset, tmp_path):
        _, paths = small_dataset
        whole, alone, utc = tmp_path / "all", tmp_path / "features", tmp_path / "utc"
        assert run(["all", "--in", paths["cdr"].parent, "--seed", "1", "--trials", "5",
                    "--min-users", "5", "--utc-offset", "-300", "--out", whole]) == 0
        for offset, out in (("-300", alone), ("0", utc)):
            assert run(["features", "--cdr", paths["cdr"], "--topup", paths["topup"],
                        "--towers", paths["towers"], "--utc-offset", offset,
                        "--out", out]) == 0
        features = (whole / "user_features.csv").read_bytes()
        assert features == (alone / "user_features.csv").read_bytes()
        assert features != (utc / "user_features.csv").read_bytes()
        manifest = json.loads((whole / "run_manifest.json").read_text())
        assert manifest["config"]["utc_offset"] == -300

    def test_config_file_defaults_and_flag_precedence(self, medium_pipeline, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"trials = 9\nseed = 4\nmobile = {medium_pipeline / 'sector_mobile.csv'}\n"
                       f"survey_matrix = {medium_pipeline / 'sector_survey.csv'}\n")
        rc = run(["--config", cfg, "null", "--out", tmp_path / "a"])
        assert rc == 0
        assert (tmp_path / "a" / "null_summary.csv").read_text().splitlines()[1].startswith("9,")
        # explicit flag beats the config file
        rc = run(["--config", cfg, "null", "--trials", "5", "--out", tmp_path / "b"])
        assert rc == 0
        assert (tmp_path / "b" / "null_summary.csv").read_text().splitlines()[1].startswith("5,")

    @pytest.mark.parametrize("key", ["trails", "min-users", "verbose"])
    def test_unknown_config_key_is_config_error(self, medium_pipeline, tmp_path, capsys, key):
        """A typo, a dash for '_' or a group option would be ignored."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 7\n")
        rc = run(["--config", cfg, "null", "--mobile", medium_pipeline / "sector_mobile.csv",
                  "--survey-matrix", medium_pipeline / "sector_survey.csv", "--seed", "1",
                  "--out", tmp_path / "out"])
        assert rc == 1
        assert f"unknown config key(s) {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_key_of_another_subcommand_is_allowed(self, medium_pipeline, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("window_days = 7\ntrials = 6\n")
        rc = run(["--config", cfg, "null", "--mobile", medium_pipeline / "sector_mobile.csv",
                  "--survey-matrix", medium_pipeline / "sector_survey.csv", "--seed", "1",
                  "--out", tmp_path])
        assert rc == 0
        assert (tmp_path / "null_summary.csv").read_text().splitlines()[1].startswith("6,")

    def test_config_and_env_vars_reach_the_stage_options_of_all(self, small_dataset, tmp_path,
                                                                monkeypatch):
        _, paths = small_dataset
        cfg = tmp_path / "run.cfg"
        cfg.write_text("home_hours = all\ncolumns = topup_sum.mean,topup_mean.mean\n")
        monkeypatch.setenv("FOODSEC_ALL_DIVERSITY_DIRECTION", "out")
        monkeypatch.setenv("FOODSEC_ALL_DENOMINATOR", "window")
        assert run(["--config", cfg, "all", "--in", paths["cdr"].parent, "--seed", "1",
                    "--trials", "5", "--min-users", "5", "--out", tmp_path / "out"]) == 0
        config = json.loads((tmp_path / "out" / "run_manifest.json").read_text())["config"]
        assert {k: config[k] for k in ("home_hours", "columns", "diversity_direction",
                                       "denominator")} == {
            "home_hours": "all", "columns": "topup_sum.mean,topup_mean.mean",
            "diversity_direction": "out", "denominator": "window"}

    def test_option_names_are_their_flags(self):
        """Click names an option's environment variable and --config key after
        its parameter, so each parameter is its flag with '_' for '-'."""
        for command in cli.commands.values():
            for option in command.params:
                assert option.opts == ["--" + option.name.replace("_", "-")], (
                    command.name, option.name)

    @pytest.mark.parametrize("via", ["env", "config"])
    def test_path_options_by_env_var_or_config_key(self, medium_dataset, medium_pipeline,
                                                   small_dataset, tmp_path, monkeypatch, via):
        """FOODSEC_<SUBCOMMAND>_<OPTION> and the key <option> reach
        --user-features, --in and --outputs as any other option."""
        features, in_dir = medium_pipeline / "user_features.csv", small_dataset[1]["cdr"].parent
        settings = {"aggregate": ("user_features", features), "all": ("in", in_dir),
                    "verify": ("outputs", medium_pipeline)}
        if via == "env":
            for command, (key, value) in settings.items():
                monkeypatch.setenv(f"FOODSEC_{command.upper()}_{key.upper()}", str(value))
            head = []
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.values()))
            head = ["--config", cfg]
        assert run(head + ["aggregate", "--min-users", "5", "--out", tmp_path / "agg"]) == 0
        assert (tmp_path / "agg" / "sector_mobile.csv").read_bytes() == (
            medium_pipeline / "sector_mobile.csv").read_bytes()
        assert run(head + ["all", "--seed", "1", "--trials", "5", "--min-users", "5",
                           "--out", tmp_path / "all"]) == 0
        assert run(head + ["verify", "--truth", medium_dataset[1]["truth"],
                           "--out", tmp_path / "verify"]) == 0

    def test_synth_config_file_via_cli(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(
            "seed = 8\nn_sectors = 4\nusers_per_sector = 12\nhouseholds_per_sector = 6\n"
            "period_days = 40\nnight_calls_min = 5\nnight_calls_extra_mean = 2\n"
            "day_calls_mean = 2\ntopup_events_mean = 3\ncontacts_max = 6\n"
            "expense_household_sd = 20\n"
        )
        rc = run(["synth", "--synth-config", cfg, "--out", tmp_path / "data"])
        assert rc == 0
        manifest = json.loads((tmp_path / "data" / "run_manifest.json").read_text())
        assert manifest["seed"] == 8
        assert len(manifest["outputs"]) == 7
        # --seed flag wins over the config file value
        rc = run(["synth", "--synth-config", cfg, "--seed", "99", "--out", tmp_path / "data2"])
        assert rc == 0
        manifest2 = json.loads((tmp_path / "data2" / "run_manifest.json").read_text())
        assert manifest2["seed"] == 99


FCS_WEIGHTS = (  # a zero weight (sugar) and a group the survey lacks (cereal)
    "food_group,weight\nstaples,2\npulses,3\nvegetables,1\nfruit,1\nmeat_fish,4\nmilk,4\n"
    "sugar,0\noil,0.5\ncereal,2\n"
)
CSI_WEIGHTS = (  # a strategy the survey lacks (borrow_food)
    "strategy,weight\ncrowding_index,2\nshare_food_own_production,0.5\nborrow_food,3\n"
)


@pytest.fixture(scope="module")
def blanked_dataset(medium_dataset, tmp_path_factory):
    """``medium_dataset`` with about 5 % of its survey answers blank, plus an
    ``fcs_weights.csv`` and a ``csi_weights.csv``."""
    import shutil

    import numpy as np

    _, paths = medium_dataset
    out = tmp_path_factory.mktemp("blanked_synth")
    for path in paths.values():
        shutil.copy(path, out / path.name)
    rng = np.random.default_rng(0)
    lines = paths["survey"].read_text().splitlines()
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        blank = rng.random(len(cells)) < 0.05
        lines[i] = ",".join("" if b and j >= 2 else c for j, (c, b) in enumerate(zip(cells, blank)))
    (out / "survey.csv").write_text("\n".join(lines) + "\n")
    (out / "fcs_weights.csv").write_text(FCS_WEIGHTS)
    (out / "csi_weights.csv").write_text(CSI_WEIGHTS)
    return out


# sha256 of sector_survey.csv and the incomplete_households stats of
# `indices`, pinned so that a change to how the survey is scored cannot move
# a byte unnoticed
SURVEY_PINS = {
    "small": ("3a016bbd61ccc53ec7bb004f5e89bc47686d41091841f47f60962ca22a115b76",
             None),
    "medium": ("5b6508d4cb50ce9871795569d55d567f7bdc13a3e88e2f2e208548167c19ccf9",
              None),
    "medium-weights": ("9e6dccde99e7a8154b66b00cd7badf945f91a9e9a38665bed0714c690abc0945",
                      None),
    "blanked": ("3782e9743643035aedc1091e94400d57c1899d7f1447374e3369b1d8293c43e9",
               {"csi_mean": 144, "fcs_mean": 446}),
}


@pytest.mark.parametrize("case", SURVEY_PINS)
def test_sector_survey_bytes_are_pinned(case, request, tmp_path):
    import hashlib

    name = "small_dataset" if case == "small" else "medium_dataset"
    data = request.getfixturevalue(name)[1]["survey"].parent
    weights = request.getfixturevalue("blanked_dataset") if case != "small" else None
    survey = weights / "survey.csv" if case == "blanked" else data / "survey.csv"
    args = ["indices", "--survey", survey, "--survey-meta", data / "survey_meta.csv"]
    if case != "medium":
        args += ["--poverty", data / "poverty.csv"]
    if case in ("medium-weights", "blanked"):
        args += ["--fcs-weights", weights / "fcs_weights.csv",
                 "--csi-weights", weights / "csi_weights.csv"]
    if case == "medium-weights":
        args += ["--variables", "household_size,staples,food_expenditure"]
    assert run(args + ["--out", tmp_path]) == 0
    digest = hashlib.sha256((tmp_path / "sector_survey.csv").read_bytes()).hexdigest()
    stats = json.loads((tmp_path / "run_manifest.json").read_text())["stats"]
    assert (digest, stats.get("incomplete_households")) == SURVEY_PINS[case]


# sha256 of every artifact of `all` over `small_dataset` with its top-up
# amounts written in mixed layouts, pinned while every amount was still
# carried as a Decimal: such a file keeps exact Decimal values, whose
# exponents show in the sums, means, minima and maxima written
MIXED_MONEY_PINS = {
    "correlations.csv": "bf803b885fea7446adbf753bfa74666fa1515f26c91004ef3ab57eed34c542b9",
    "model_food_expenditure.csv":
        "a096e6cbe5348f6bba154222e57a0d9f1bf610f5c91b33f4c6e73040ae8d26c0",
    "null_summary.csv": "6213296c69cd6a5ba3622b7728617127ff0c1d6e41eb7b916022fcee94244b76",
    "overlay.csv": "df439c9775b0705530702226ba4743e299adf09dc1e9d93dbeee1bff36eca104",
    "rolling_30.csv": "64ec4a2874c3665bba5ab0dd1601dc7bd6912f43d674c7811371b46042716092",
    "sector_mobile.csv": "b80e118a94c32478f34f1f31243dbf9889d3cb151cd7e5b6fd5bfdf0d2db415e",
    "sector_survey.csv": "3a016bbd61ccc53ec7bb004f5e89bc47686d41091841f47f60962ca22a115b76",
    "user_features.csv": "cddbc9733e165c71d981cbc9750bffa1765606e5fd94faa48dbfc550401b0902",
}


def test_mixed_money_layouts_keep_their_bytes(small_dataset, tmp_path):
    import hashlib
    import shutil
    from decimal import Decimal

    _, paths = small_dataset
    inputs = tmp_path / "in"
    shutil.copytree(paths["cdr"].parent, inputs)
    header, first, *rows = (inputs / "topup.csv").read_text().splitlines()
    user, _, stamp = first.split(",")
    # one amount written four ways, below the user's others: the first
    # written is their minimum
    lines = [header, first] + [f"{user},{a},{stamp}" for a in ("10", "10.0", "10.00", "1E+1")]
    for i, row in enumerate(rows):
        user, amount, stamp = row.split(",")
        amount = [str(Decimal(amount).normalize()), amount + "0",
                  amount.rstrip("0").rstrip("."), amount][i % 4]
        lines.append(f"{user},{amount},{stamp}")
    (inputs / "topup.csv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run(["all", "--in", inputs, "--out", out, "--seed", "1", "--trials", "20",
                "--min-users", "5"]) == 0
    outputs = json.loads((out / "run_manifest.json").read_text())["outputs"]
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in outputs}
    assert digests == MIXED_MONEY_PINS


class TestInputContracts:
    def test_no_subcommand_mutates_its_inputs(self, medium_dataset, tmp_path):
        _, paths = medium_dataset
        before = {k: p.read_bytes() for k, p in paths.items()}
        rc = run(["all", "--in", paths["cdr"].parent, "--out", tmp_path,
                  "--seed", "1", "--trials", "10", "--min-users", "5"])
        assert rc == 0
        assert {k: p.read_bytes() for k, p in paths.items()} == before

    def test_disjoint_sector_join_is_surfaced(self, medium_pipeline, tmp_path):
        mobile = (medium_pipeline / "sector_mobile.csv").read_text().splitlines()
        renamed = [mobile[0]] + [
            "zz" + line for line in mobile[1:]
        ]
        (tmp_path / "renamed.csv").write_text("\n".join(renamed) + "\n")
        rc = run(["correlate", "--mobile", tmp_path / "renamed.csv",
                  "--survey-matrix", medium_pipeline / "sector_survey.csv",
                  "--out", tmp_path / "out"])
        assert rc == 2

    def test_failed_correlate_leaves_no_manifest(self, medium_pipeline, tmp_path, capsys):
        mobile = (medium_pipeline / "sector_mobile.csv").read_text().splitlines()
        (tmp_path / "renamed.csv").write_text(
            "\n".join([mobile[0]] + ["zz" + line for line in mobile[1:]]) + "\n"
        )
        rc = run(["correlate", "--mobile", tmp_path / "renamed.csv",
                  "--survey-matrix", medium_pipeline / "sector_survey.csv",
                  "--out", tmp_path / "out"])
        assert rc == 2
        assert "no defined correlations" in capsys.readouterr().err
        assert not (tmp_path / "out" / "run_manifest.json").exists()

    def test_all_reports_an_empty_join_as_null_does(self, medium_dataset, tmp_path, capsys,
                                                    monkeypatch):
        """The null, met before correlate, names the sectors the matrices
        share, at --threads 1 and 2."""
        _, paths = medium_dataset
        for threads in (1, 2):
            out = tmp_path / str(threads)
            rc = run_counting_forks(monkeypatch, [
                "all", "--in", paths["cdr"].parent, "--out", out, "--seed", "1",
                "--trials", "5", "--min-users", "100000", "--threads", threads])
            assert rc == (2, threads - 1)
            assert capsys.readouterr().err.splitlines()[-1] == (
                "data error: no defined correlation in any null trial: the matrices share 0 "
                "sector(s), fewer than the 3 a correlation needs"
            )
            assert not (out / "run_manifest.json").exists()

    def test_failed_rerun_leaves_no_stale_manifest(self, medium_dataset, tmp_path):
        _, paths = medium_dataset
        args = ["all", "--in", paths["cdr"].parent, "--out", tmp_path, "--seed", "1",
                "--trials", "5"]
        assert run(args + ["--min-users", "5"]) == 0
        assert (tmp_path / "run_manifest.json").exists()
        assert run(args + ["--min-users", "100000"]) == 2
        assert not (tmp_path / "run_manifest.json").exists()

    def test_indices_reports_households_left_out(self, medium_dataset, tmp_path):
        _, paths = medium_dataset
        lines = paths["survey"].read_text().splitlines()
        staples = lines[0].split(",").index("staples")
        cells = lines[1].split(",")
        cells[staples] = ""
        lines[1] = ",".join(cells)
        (tmp_path / "survey.csv").write_text("\n".join(lines) + "\n")
        for survey, out in ((paths["survey"], tmp_path / "complete"),
                            (tmp_path / "survey.csv", tmp_path / "blank")):
            assert run(["indices", "--survey", survey, "--survey-meta", paths["survey_meta"],
                        "--out", out]) == 0
        complete = json.loads((tmp_path / "complete" / "run_manifest.json").read_text())
        blank = json.loads((tmp_path / "blank" / "run_manifest.json").read_text())
        assert "incomplete_households" not in complete["stats"]
        assert blank["stats"]["incomplete_households"] == {"fcs_mean": 1}

    def test_index_without_a_weighted_column_is_written_empty(self, tmp_path):
        """Undefined, not 0: the survey has no food-group column."""
        (tmp_path / "survey.csv").write_text("household_id,sector_id,expense\nh1,s1,50\n")
        (tmp_path / "meta.csv").write_text("variable,category\nexpense,V3\n")
        assert run(["indices", "--survey", tmp_path / "survey.csv", "--survey-meta",
                    tmp_path / "meta.csv", "--out", tmp_path / "out"]) == 0
        assert (tmp_path / "out" / "sector_survey.csv").read_text() == (
            "sector_id,expense,fcs_mean,csi_mean,mpi,n_households\ns1,50,,,,1\n"
        )

    def test_all_records_weight_tables_as_inputs(self, medium_dataset, tmp_path):
        import shutil

        _, paths = medium_dataset
        data = tmp_path / "data"
        shutil.copytree(paths["cdr"].parent, data)
        (data / "fcs_weights.csv").write_text(
            "food_group,weight\nstaples,2\npulses,3\nvegetables,1\nfruit,1\n"
        )
        rc = run(["all", "--in", data, "--out", tmp_path / "out",
                  "--seed", "1", "--trials", "5", "--min-users", "5"])
        assert rc == 0
        inputs = json.loads((tmp_path / "out" / "run_manifest.json").read_text())["inputs"]
        assert inputs["fcs_weights"] == str(data / "fcs_weights.csv")
        assert "csi_weights" not in inputs


class TestOptionalOutputs:
    def test_heatmap_flag(self, medium_dataset, medium_pipeline, tmp_path):
        _, paths = medium_dataset
        rc = run(["correlate", "--mobile", medium_pipeline / "sector_mobile.csv",
                  "--survey-matrix", medium_pipeline / "sector_survey.csv",
                  "--heatmap-data", "--survey-meta", paths["survey_meta"],
                  "--out", tmp_path])
        assert rc == 0
        lines = (tmp_path / "heatmap.csv").read_text().splitlines()
        assert lines[0] == "mobile_var,survey_var,abs_r,category"
        assert any(line.endswith("food_group") for line in lines[1:])
        assert any(line.endswith("poverty") for line in lines[1:])

    def test_scatter_flag(self, medium_pipeline, tmp_path):
        rc = run(["fit", "--mobile", medium_pipeline / "sector_mobile.csv",
                  "--survey-matrix", medium_pipeline / "sector_survey.csv",
                  "--target", "food_expenditure",
                  "--variables", "topup_sum.mean,topup_mean.mean",
                  "--degree", "2", "--scatter-data", "--out", tmp_path])
        assert rc == 0
        lines = (tmp_path / "scatter_food_expenditure.csv").read_text().splitlines()
        assert lines[0] == "sector_id,predicted,observed"
        assert len(lines) == 61  # sector per row

    def test_rolling_with_stock_overlay(self, medium_dataset, medium_pipeline, tmp_path):
        _, paths = medium_dataset
        stock = tmp_path / "stock.csv"
        stock.write_text("date,label,percentage\n2012-01-20,season_a,55\n")
        rc = run(["rolling", "--topup", paths["topup"],
                  "--user-features", medium_pipeline / "user_features.csv",
                  "--window-days", "30", "--stock", stock, "--out", tmp_path / "out"])
        assert rc == 0
        overlay = (tmp_path / "out" / "overlay.csv").read_text().splitlines()
        assert overlay[-1] == "2012-01-20,food_stock,season_a,55"
        rolling = (tmp_path / "out" / "rolling_30.csv").read_text().splitlines()
        assert rolling[0] == "sector_id,label_date,value,n_users"
        assert len(rolling) > 60


def replace_field(path, first, field, text):
    """Set field ``field`` of the first line of ``path`` after the header
    whose first field is ``first`` (any line if None) to ``text``, or drop
    it if ``text`` is None."""
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines[1:], 1)
             if first is None or line.split(",")[0] == first)
    cells = lines[i].split(",")
    if text is None:
        del cells[field]
    else:
        cells[field] = text
    lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


MATRICES = ["--mobile", "{out}/sector_mobile.csv", "--survey-matrix", "{out}/sector_survey.csv"]
COMMANDS = {
    "aggregate": ["aggregate", "--user-features", "{out}/user_features.csv", "--min-users", "5"],
    "rolling": ["rolling", "--topup", "{topup}", "--user-features", "{out}/user_features.csv"],
    "correlate": ["correlate", *MATRICES],
    "null": ["null", *MATRICES, "--seed", "1", "--trials", "5"],
    "fit": ["fit", *MATRICES, "--target", "food_expenditure", "--variables", "topup_sum.mean"],
    "verify": ["verify", "--truth", "{truth}", "--outputs", "{out}"],
}


class TestMalformedFiles:
    @pytest.mark.parametrize("file, first, field, text, command", [
        ("user_features.csv", None, -1, None, "aggregate"),
        ("user_features.csv", None, -1, None, "rolling"),
        ("user_features.csv", None, 2, "12a", "aggregate"),
        ("sector_mobile.csv", None, 1, "x", "correlate"),
        ("sector_mobile.csv", None, 1, "x", "null"),
        ("sector_mobile.csv", None, 1, "x", "fit"),
        ("sector_survey.csv", None, -1, "n", "correlate"),
        ("truth.csv", None, -1, None, "verify"),
        ("model_food_expenditure.csv", "fit_r", 1, "abc", "verify"),
    ])
    def test_malformed_file_between_stages_is_data_error(
        self, medium_dataset, medium_pipeline, tmp_path, capsys, file, first, field, text,
        command,
    ):
        import shutil

        _, paths = medium_dataset
        out = tmp_path / "outputs"
        shutil.copytree(medium_pipeline, out)
        truth = tmp_path / "truth.csv"
        # a planted model makes verify read the model file
        truth.write_text(paths["truth"].read_text()
                         + "planted_model,food_expenditure,0.89,degree=2\n")
        replace_field(truth if file == "truth.csv" else out / file, first, field, text)
        args = [a.format(out=out, topup=paths["topup"], truth=truth)
                for a in COMMANDS[command]]
        assert run(args + ["--out", tmp_path / "result"]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, body", [
        ("indices", "--fcs-weights", "food_group,weight\nstaples,2\npulses,nan\n"),
        ("indices", "--csi-weights", "strategy,weight\nless_preferred,inf\n"),
        ("indices", "--poverty", "sector_id,headcount,intensity\ns001,nan,0.5\n"),
        ("rolling", "--stock", "date,label,percentage\n2012-01-20,season_a,inf\n"),
    ])
    def test_non_finite_table_value_is_data_error(
        self, medium_dataset, medium_pipeline, tmp_path, capsys, command, flag, body
    ):
        _, paths = medium_dataset
        table = tmp_path / "table.csv"
        table.write_text(body)
        args = {
            "indices": ["indices", "--survey", paths["survey"],
                        "--survey-meta", paths["survey_meta"]],
            "rolling": ["rolling", "--topup", paths["topup"],
                        "--user-features", medium_pipeline / "user_features.csv"],
        }[command]
        assert run(args + [flag, table, "--out", tmp_path / "out"]) == 2
        assert "bad number" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, key, field", [
        ("param", "pair_tolerance", 2), ("planted_pair", None, 2), ("sector", None, 3),
    ])
    def test_non_numeric_truth_value_is_data_error(
        self, medium_dataset, medium_pipeline, tmp_path, capsys, kind, key, field
    ):
        _, paths = medium_dataset
        lines = paths["truth"].read_text().splitlines()
        i = next(i for i, line in enumerate(lines)
                 if line.split(",")[0] == kind and key in (None, line.split(",")[1]))
        cells = lines[i].split(",")
        cells[field] = "abc"
        lines[i] = ",".join(cells)
        truth = tmp_path / "truth.csv"
        truth.write_text("\n".join(lines) + "\n")
        rc = run(["verify", "--truth", truth, "--outputs", medium_pipeline,
                  "--out", tmp_path / "report"])
        assert rc == 2
        assert f"truth: bad number 'abc' at line {i + 1}" in capsys.readouterr().err

    @pytest.mark.parametrize("file, rows, field, text, artifact", [
        # a finite Decimal whose float is infinite
        ("topup.csv", [1], 1, "1e400", "sector_mobile.csv"),
        # two finite sizes in one sector whose mean overflows
        ("survey.csv", [1, 2], 2, "1e308", "sector_survey.csv"),
    ])
    def test_infinite_sector_mean_is_data_error(
        self, small_dataset, tmp_path, capsys, file, rows, field, text, artifact
    ):
        """An infinite value is neither written nor left empty (empty reads
        as undefined): the run stops, naming the artifact."""
        import shutil

        _, paths = small_dataset
        inputs = tmp_path / "in"
        shutil.copytree(paths["cdr"].parent, inputs)
        lines = (inputs / file).read_text().splitlines()
        for i in rows:
            cells = lines[i].split(",")
            cells[field] = text
            lines[i] = ",".join(cells)
        (inputs / file).write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run(["all", "--in", inputs, "--out", out, "--seed", "1", "--trials", "5"]) == 2
        assert f"{out / artifact}: non-finite number inf" in capsys.readouterr().err
