"""Command-line entry point wiring the pipeline.

Subcommands map one-to-one onto the pipeline stages (``synth``,
``features``, ``aggregate``, ``indices``, ``correlate``, ``null``, ``fit``,
``rolling``, ``verify``) plus ``all``, which runs the whole chain over a
directory of canonical input files. Each stage is one ``_stage_*`` function
that the subcommand and ``all`` both call, so ``all`` writes what the
subcommands would. Every run writes a machine-readable ``run_manifest.json``
(inputs, outputs, the command's options and their hash, seed, versions; no
timestamps, so re-runs are byte-identical).

Configuration precedence: built-in defaults < ``--config`` key=value file <
``FOODSEC_*`` environment variables < explicit flags.

Exit codes: 0 success, 1 validation/config error, 2 data error (including
row errors under --strict and failed verification), 3 internal error.
"""

from __future__ import annotations

import hashlib
import json
import logging
import sys
import traceback
from datetime import date
from pathlib import Path

import click

from . import __version__
from .aggregate import (
    DEFAULT_MIN_USERS,
    MOBILE_COLUMNS,
    build_sector_matrix,
    read_sector_matrix,
    write_sector_matrix,
)
from .config import ConfigError, parse_kv_file, parse_night_window
from .correlate import (
    correlation_matrix,
    shuffle_null,
    write_correlations,
    write_heatmap_data,
    write_null_summary,
)
from .features import read_user_features, user_features, write_user_features
from .indices import (
    COMPOSITE_CATEGORIES,
    build_survey_matrix,
    load_csi_weights,
    load_fcs_weights,
    load_poverty,
)
from .ingest import (
    FormatError,
    RowErrorLog,
    load_survey,
    load_survey_metadata,
    load_tower_map,
    read_cdr,
    read_topups,
    split_list,
)
from .models import fit_from_matrices, predict_rows, write_model, write_scatter_data
from .rolling import (
    emit_overlay,
    load_stock_series,
    rolling_sector_series,
    write_rolling,
)
from .synth import SynthConfig, generate, verify_outputs, write_verify_report

log = logging.getLogger(__name__)

# --threads stays so existing command lines run; it changes nothing, so no manifest records it.
THREADS_HELP = "accepted for compatibility; has no effect (the null runs in batches)"
CI_LEVEL = click.FloatRange(0, 1, min_open=True, max_open=True)
SEED = click.IntRange(min=0)  # numpy seeds are non-negative
# local wall clock = UTC + this many minutes; the night window is judged in local time
UTC_OFFSET = dict(type=click.IntRange(-1439, 1439), default=0, show_default=True,
                  metavar="MINUTES", help="local time minus UTC, for the night window")

# the files `all` reads from --in, each as <name>.csv; the optional ones may be absent
ALL_INPUTS = ("cdr", "topup", "towers", "survey", "survey_meta",
              "poverty", "fcs_weights", "csi_weights")
ALL_OPTIONAL = ("poverty", "fcs_weights", "csi_weights")


class VerificationFailed(Exception):
    """One or more ground-truth checks failed."""


def _require(value, key: str):
    if value is None:
        raise ConfigError(f"missing required config key {key!r}")
    return value


def _inputs(**paths) -> dict[str, Path]:
    """The given input files by config key, each checked to exist; a None
    path is an optional input left out."""
    inputs = {key: Path(p) for key, p in paths.items() if p is not None}
    for key, p in inputs.items():
        if not p.exists():
            raise ConfigError(f"config key {key!r}: file not found: {p}")
    return inputs


def _out_dir(path) -> Path:
    """The output directory, created if needed and cleared of an earlier
    run's manifest, so a run that fails leaves none behind."""
    out = Path(_require(path, "out"))
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_manifest.json").unlink(missing_ok=True)
    return out


def _write_manifest(
    out_dir: Path,
    inputs: dict,
    outputs: list[str],
    seed: int | None = None,
    stats: dict | None = None,
    config: dict | None = None,
) -> None:
    """Write ``run_manifest.json`` for the running command. ``config``
    defaults to the command's own options: every parameter except the
    path-typed ones and ``seed``."""
    import numpy
    import scipy

    ctx = click.get_current_context()
    if config is None:
        paths = {p.name for p in ctx.command.params if isinstance(p.type, click.Path)}
        config = {k: v for k, v in ctx.params.items() if k not in paths and k != "seed"}
    resolved = {k: (str(v) if isinstance(v, (Path, date)) else v) for k, v in config.items()}
    payload = {
        "subcommand": ctx.command.name,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "outputs": sorted(outputs),
        "config": resolved,
        "config_hash": hashlib.sha256(
            json.dumps(resolved, sort_keys=True).encode()
        ).hexdigest(),
        "seed": seed,
        "versions": {
            "foodsec": __version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if stats is not None:
        payload["stats"] = stats
    with open(out_dir / "run_manifest.json", "w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _config_defaults(path) -> dict:
    """Turn a flat key=value file into a click default map for every
    subcommand (flags and env vars still win)."""
    flat = parse_kv_file(path)
    return {name: dict(flat) for name in cli.commands}


@click.group(name="foodsec")
@click.version_option(__version__)
@click.option(
    "--config",
    "config_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="key=value config file supplying defaults for any flag",
)
@click.option("-v", "--verbose", count=True, help="-v info, -vv debug")
@click.pass_context
def cli(ctx, config_path, verbose):
    """Sector-level food-security proxies from mobile phone records."""
    level = logging.WARNING - 10 * min(verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    if config_path:
        ctx.default_map = _config_defaults(config_path)


# --- stages: each validates its options, does its work, writes its artifacts
# into ``out`` and returns (result, outputs, stats) ---


def _stage_features(cdr, topup, towers, night_window, utc_offset, home_hours,
                    diversity_direction, strict, out):
    """Features from one pass over each input. The result also carries the
    top-up columns and their row errors, for the rolling stage of ``all``."""
    window = parse_night_window(night_window)
    tower_map = load_tower_map(towers)
    cdr_errors = RowErrorLog(strict=strict)
    topup_errors = RowErrorLog(strict=strict)
    calls = read_cdr(cdr, cdr_errors, window, utc_offset)
    topups = read_topups(topup, topup_errors)
    features, exclusions = user_features(calls, topups, tower_map, home_hours=home_hours,
                                         diversity_direction=diversity_direction)
    if cdr_errors.count or topup_errors.count:
        log.warning("cdr: %s; topup: %s", cdr_errors.summary(), topup_errors.summary())
    write_user_features(features, out / "user_features.csv")
    stats = {
        "users_out": len(features),
        "excluded": dict(exclusions),
        "row_errors": {"cdr": cdr_errors.count, "topup": topup_errors.count},
    }
    return (features, topups, topup_errors), ["user_features.csv"], stats


def _stage_aggregate(features, min_users, columns, out):
    wanted = split_list("columns", columns) if columns else None
    unknown = [c for c in wanted or () if c not in MOBILE_COLUMNS]
    if unknown:
        raise ConfigError(f"config key 'columns': unknown column(s) {', '.join(unknown)}")
    matrix, excluded = build_sector_matrix(features, min_users=min_users, columns=wanted)
    write_sector_matrix(matrix, out / "sector_mobile.csv")
    stats = {"sectors_out": len(matrix), "sectors_excluded": excluded}
    return matrix, ["sector_mobile.csv"], stats


def _stage_indices(survey, survey_meta, fcs_weights, csi_weights, poverty, variables, strict, out):
    """The result is the survey matrix and its column -> category map."""
    errors = RowErrorLog(strict=strict)
    table = load_survey(survey, survey_meta, errors)
    if errors.count:
        log.warning("survey: %s", errors.summary())
    wanted = split_list("variables", variables) if variables else None
    unknown = [v for v in wanted or () if v not in table.variables]
    if unknown:
        raise ConfigError(
            f"config key 'variables': unknown survey variable(s) {', '.join(unknown)}"
        )
    fcs = load_fcs_weights(fcs_weights) if fcs_weights else None
    csi = load_csi_weights(csi_weights) if csi_weights else None
    pov = load_poverty(poverty) if poverty else None
    matrix, categories, incomplete = build_survey_matrix(
        table, fcs_weights=fcs, csi_weights=csi, poverty=pov, variables=wanted
    )
    write_sector_matrix(matrix, out / "sector_survey.csv", count_column="n_households")
    stats = {"row_errors": {"survey": errors.count}}
    if incomplete:
        stats["incomplete_households"] = incomplete
    return (matrix, categories), ["sector_survey.csv"], stats


def _stage_correlate(mobile, survey, ci_level, categories, out):
    """``categories`` (survey column -> tag), when given, adds heatmap.csv."""
    entries = correlation_matrix(mobile, survey, level=ci_level)
    if not any(e.defined for e in entries):
        raise FormatError("no defined correlations: do the matrices share sectors?")
    outputs = ["correlations.csv"]
    write_correlations(entries, out / outputs[0])
    if categories is not None:
        outputs.append("heatmap.csv")
        write_heatmap_data(entries, categories, out / outputs[1])
    return entries, outputs, {}


def _stage_null(mobile, survey, trials, seed, out):
    summary = shuffle_null(mobile, survey, trials=trials, seed=seed)
    write_null_summary(summary, out / "null_summary.csv")
    return summary, ["null_summary.csv"], {}


def _stage_fit(mobile, survey, target, variables, degree, scatter_data, out):
    names = [v for v in split_list("variables", variables) if v]
    if target not in survey.columns:
        raise ConfigError(f"config key 'target': {target!r} not in the survey matrix")
    unknown = [v for v in names if v not in mobile.columns]
    if unknown or not names:
        raise ConfigError(
            f"config key 'variables': unknown mobile variable(s) {', '.join(unknown) or '<none>'}"
        )
    repeated = sorted({v for v in names if names.count(v) > 1})
    if repeated:
        raise ConfigError(f"config key 'variables': repeated variable(s) {', '.join(repeated)}")
    model, joined, y = fit_from_matrices(mobile, survey, target, degree=degree, variables=names)
    outputs = [f"model_{target}.csv"]
    write_model(model, out / outputs[0])
    if scatter_data:
        outputs.append(f"scatter_{target}.csv")
        write_scatter_data(joined.sectors, predict_rows(model, joined), y, out / outputs[1])
    return model, outputs, {"fit_r": model.fit_r, "n": model.n}


def _stage_rolling(topups, topup_errors, features, window_days, denominator, stock, out):
    series = rolling_sector_series(topups, features.home_sectors(), window_days=window_days,
                                   denominator=denominator)
    outputs = [f"rolling_{window_days}.csv", "overlay.csv"]
    write_rolling(series, out / outputs[0])
    emit_overlay(series, out / outputs[1], load_stock_series(stock) if stock else None)
    return series, outputs, {"row_errors": {"topup": topup_errors.count}}


def _read_matrices(inputs: dict) -> tuple:
    """The (mobile, survey) sector matrices of a command's inputs."""
    return (
        read_sector_matrix(inputs["mobile"]),
        read_sector_matrix(inputs["survey_matrix"], count_column="n_households"),
    )


# --- subcommands ---


@cli.command()
@click.option("--synth-config", type=click.Path(exists=True, dir_okay=False), default=None,
              help="key=value file of generator settings")
@click.option("--out", type=click.Path(file_okay=False), required=True)
@click.option("--seed", type=SEED, default=None, help="overrides the config seed")
def synth(synth_config, out, seed):
    """Generate a seeded synthetic dataset with planted relationships."""
    cfg = SynthConfig.from_file(synth_config) if synth_config else SynthConfig()
    if seed is not None:
        from dataclasses import replace

        cfg = replace(cfg, seed=seed)
    out_dir = _out_dir(out)
    paths = generate(cfg, out_dir)
    _write_manifest(
        out_dir,
        _inputs(synth_config=synth_config),
        [p.name for p in paths.values()],
        seed=cfg.seed,
        config={f.name: getattr(cfg, f.name) for f in cfg.__dataclass_fields__.values()
                if f.name != "food_items"},
    )
    click.echo(f"wrote {len(paths)} files to {out_dir}")


@cli.command()
@click.option("--cdr", type=click.Path(), required=True)
@click.option("--topup", type=click.Path(), required=True)
@click.option("--towers", type=click.Path(), required=True)
@click.option("--out", type=click.Path(file_okay=False), required=True)
@click.option("--night-window", default="18:00-08:00", show_default=True)
@click.option("--utc-offset", **UTC_OFFSET)
@click.option("--home-hours", type=click.Choice(["night", "all"]), default="night")
@click.option("--diversity-direction", type=click.Choice(["both", "out"]), default="both")
@click.option("--strict", is_flag=True, help="promote row errors to fatal")
def features(cdr, topup, towers, out, night_window, utc_offset, home_hours,
             diversity_direction, strict):
    """Per-user features: home sector, top-up stats, social diversity."""
    inputs = _inputs(cdr=cdr, topup=topup, towers=towers)
    out_dir = _out_dir(out)
    _, outputs, stats = _stage_features(
        inputs["cdr"], inputs["topup"], inputs["towers"], night_window, utc_offset,
        home_hours, diversity_direction, strict, out_dir,
    )
    _write_manifest(out_dir, inputs, outputs, stats=stats)
    click.echo(f"{stats['users_out']} user feature vector(s)")


@cli.command()
@click.option("--user-features", "user_features_path", type=click.Path(), required=True)
@click.option("--out", type=click.Path(file_okay=False), required=True)
@click.option("--min-users", type=int, default=DEFAULT_MIN_USERS, show_default=True)
@click.option("--columns", default=None, help="comma list pruning feature.aggregator columns")
def aggregate(user_features_path, out, min_users, columns):
    """Aggregate user features into the sector x mobile-variable matrix."""
    inputs = _inputs(user_features=user_features_path)
    out_dir = _out_dir(out)
    matrix, outputs, stats = _stage_aggregate(
        read_user_features(inputs["user_features"]), min_users, columns, out_dir
    )
    _write_manifest(out_dir, inputs, outputs, stats=stats)
    click.echo(f"{len(matrix)} sector(s), {len(stats['sectors_excluded'])} excluded")


@cli.command()
@click.option("--survey", type=click.Path(), required=True)
@click.option("--survey-meta", type=click.Path(), required=True)
@click.option("--fcs-weights", type=click.Path(), default=None,
              help="food_group,weight file (default: standard table)")
@click.option("--csi-weights", type=click.Path(), default=None)
@click.option("--poverty", type=click.Path(), default=None)
@click.option("--variables", default=None, help="comma list of survey variables to keep")
@click.option("--strict", is_flag=True)
@click.option("--out", type=click.Path(file_okay=False), required=True)
def indices(survey, survey_meta, fcs_weights, csi_weights, poverty, variables, strict, out):
    """Household indices (FCS, CSI, MPI) and sector survey means."""
    inputs = _inputs(survey=survey, survey_meta=survey_meta, fcs_weights=fcs_weights,
                     csi_weights=csi_weights, poverty=poverty)
    out_dir = _out_dir(out)
    (matrix, _), outputs, stats = _stage_indices(
        inputs["survey"], inputs["survey_meta"], inputs.get("fcs_weights"),
        inputs.get("csi_weights"), inputs.get("poverty"), variables, strict, out_dir,
    )
    _write_manifest(out_dir, inputs, outputs, stats=stats)
    click.echo(f"{len(matrix)} sector(s) x {len(matrix.columns)} column(s)")


@cli.command()
@click.option("--mobile", type=click.Path(), required=True)
@click.option("--survey-matrix", type=click.Path(), required=True)
@click.option("--ci-level", type=CI_LEVEL, default=0.95, show_default=True)
@click.option("--heatmap-data", is_flag=True, help="also write heatmap.csv (|r| long format)")
@click.option("--survey-meta", type=click.Path(), default=None,
              help="category tags for heatmap output")
@click.option("--out", type=click.Path(file_okay=False), required=True)
def correlate(mobile, survey_matrix, ci_level, heatmap_data, survey_meta, out):
    """Mobile x survey Pearson correlation matrix with p-values and CIs."""
    inputs = _inputs(mobile=mobile, survey_matrix=survey_matrix, survey_meta=survey_meta)
    out_dir = _out_dir(out)
    categories = None
    if heatmap_data:
        meta = load_survey_metadata(inputs["survey_meta"]) if survey_meta else {}
        categories = {**meta, **COMPOSITE_CATEGORIES}
    entries, outputs, _ = _stage_correlate(*_read_matrices(inputs), ci_level, categories,
                                           out_dir)
    _write_manifest(out_dir, inputs, outputs)
    click.echo(f"{len(entries)} pair(s), {sum(e.defined for e in entries)} defined")


@cli.command()
@click.option("--mobile", type=click.Path(), required=True)
@click.option("--survey-matrix", type=click.Path(), required=True)
@click.option("--trials", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--seed", type=SEED, default=None)
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True,
              expose_value=False, help=THREADS_HELP)
@click.option("--out", type=click.Path(file_okay=False), required=True)
def null(mobile, survey_matrix, trials, seed, out):
    """Shuffled-sector null distribution of |r|."""
    seed = _require(seed, "seed")
    inputs = _inputs(mobile=mobile, survey_matrix=survey_matrix)
    out_dir = _out_dir(out)
    summary, outputs, _ = _stage_null(*_read_matrices(inputs), trials, seed, out_dir)
    _write_manifest(out_dir, inputs, outputs, seed=seed)
    click.echo(
        f"null |r| p95={summary.abs_r_p95:.4f} p99={summary.abs_r_p99:.4f} "
        f"max={summary.abs_r_max:.4f} over {trials} trial(s)"
    )


@cli.command()
@click.option("--mobile", type=click.Path(), required=True)
@click.option("--survey-matrix", type=click.Path(), required=True)
@click.option("--target", required=True, help="survey column to model")
@click.option("--variables", required=True, help="comma list of mobile variables")
@click.option("--degree", type=click.IntRange(1, 2), default=1, show_default=True)
@click.option("--scatter-data", is_flag=True, help="also write scatter_<target>.csv")
@click.option("--out", type=click.Path(file_okay=False), required=True)
def fit(mobile, survey_matrix, target, variables, degree, scatter_data, out):
    """Fit a polynomial proxy model for one survey indicator."""
    inputs = _inputs(mobile=mobile, survey_matrix=survey_matrix)
    out_dir = _out_dir(out)
    model, outputs, stats = _stage_fit(
        *_read_matrices(inputs), target, variables, degree, scatter_data, out_dir
    )
    _write_manifest(out_dir, inputs, outputs, stats=stats)
    click.echo(f"fit_r={model.fit_r:.4f} over {model.n} sector(s)")


@cli.command()
@click.option("--topup", type=click.Path(), required=True)
@click.option("--user-features", "user_features_path", type=click.Path(), required=True)
@click.option("--window-days", type=click.IntRange(min=1), default=30, show_default=True)
@click.option("--denominator", type=click.Choice(["period", "window"]), default="period")
@click.option("--stock", type=click.Path(), default=None, help="optional date,label,percentage overlay")
@click.option("--strict", is_flag=True)
@click.option("--out", type=click.Path(file_okay=False), required=True)
def rolling(topup, user_features_path, window_days, denominator, stock, strict, out):
    """Rolling-window top-up expenditure series per sector."""
    inputs = _inputs(topup=topup, user_features=user_features_path, stock=stock)
    out_dir = _out_dir(out)
    features = read_user_features(inputs["user_features"])
    errors = RowErrorLog(strict=strict)
    topups = read_topups(inputs["topup"], errors)
    if errors.count:
        log.warning("topup: %s", errors.summary())
    series, outputs, stats = _stage_rolling(
        topups, errors, features, window_days, denominator, inputs.get("stock"), out_dir
    )
    _write_manifest(out_dir, inputs, outputs, stats=stats)
    click.echo(f"{len(series)} sector series")


@cli.command()
@click.option("--truth", type=click.Path(), required=True)
@click.option("--outputs", "outputs_dir", type=click.Path(file_okay=False), required=True)
@click.option("--out", type=click.Path(file_okay=False), default=None,
              help="report directory (default: the outputs directory)")
def verify(truth, outputs_dir, out):
    """Check pipeline outputs against a synthetic dataset's ground truth."""
    truth = _inputs(truth=truth)["truth"]
    outputs_path = Path(outputs_dir)
    if not outputs_path.is_dir():
        raise ConfigError(f"config key 'outputs': not a directory: {outputs_path}")
    # the report may go into a run's output directory: keep its manifest
    report_dir = Path(out) if out else outputs_path
    report_dir.mkdir(parents=True, exist_ok=True)
    report = verify_outputs(truth, outputs_path)
    write_verify_report(report, report_dir / "verify_report.csv")
    for line in report.lines():
        click.echo(line)
    if not report.passed:
        raise VerificationFailed(
            f"{sum(not c.passed for c in report.checks)} of {len(report.checks)} check(s) failed"
        )
    click.echo(f"all {len(report.checks)} check(s) passed")


@cli.command(name="all")
@click.option("--in", "in_dir", type=click.Path(file_okay=False), required=True,
              help="directory with cdr/topup/towers/survey/survey_meta csv files "
              "(poverty/fcs_weights/csi_weights optional)")
@click.option("--out", type=click.Path(file_okay=False), required=True)
@click.option("--seed", type=SEED, default=None)
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True,
              expose_value=False, help=THREADS_HELP)
@click.option("--strict", is_flag=True)
@click.option("--night-window", default="18:00-08:00", show_default=True)
@click.option("--utc-offset", **UTC_OFFSET)
@click.option("--min-users", type=int, default=DEFAULT_MIN_USERS, show_default=True)
@click.option("--ci-level", type=CI_LEVEL, default=0.95, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--target", default="food_expenditure", show_default=True)
@click.option("--variables", default="topup_sum.mean,topup_mean.mean", show_default=True)
@click.option("--degree", type=click.IntRange(1, 2), default=2, show_default=True)
@click.option("--window-days", type=click.IntRange(min=1), default=30, show_default=True)
@click.option("--heatmap-data", is_flag=True)
@click.option("--scatter-data", is_flag=True)
def run_all(in_dir, out, seed, strict, night_window, utc_offset, min_users, ci_level,
            trials, target, variables, degree, window_days, heatmap_data, scatter_data):
    """Run the full chain: features, aggregate, indices, correlate, null,
    fit, rolling, each as its subcommand would with these options."""
    seed = _require(seed, "seed")
    paths = {name: Path(in_dir) / f"{name}.csv" for name in ALL_INPUTS}
    inputs = _inputs(**{k: p for k, p in paths.items() if k not in ALL_OPTIONAL or p.exists()})
    out_dir = _out_dir(out)
    outputs: list[str] = []
    stats: dict = {}

    def run(stage, *args):
        result, written, stage_stats = stage(*args, out_dir)
        outputs.extend(written)
        if stage_stats:
            stats[stage.__name__.removeprefix("_stage_")] = stage_stats
        return result

    features, topups, topup_errors = run(
        _stage_features, inputs["cdr"], inputs["topup"], inputs["towers"], night_window,
        utc_offset, "night", "both", strict,
    )
    mobile = run(_stage_aggregate, features, min_users, None)
    survey, categories = run(
        _stage_indices, inputs["survey"], inputs["survey_meta"], inputs.get("fcs_weights"),
        inputs.get("csi_weights"), inputs.get("poverty"), None, strict,
    )
    run(_stage_correlate, mobile, survey, ci_level, categories if heatmap_data else None)
    run(_stage_null, mobile, survey, trials, seed)
    run(_stage_fit, mobile, survey, target, variables, degree, scatter_data)
    run(_stage_rolling, topups, topup_errors, features, window_days, "period", None)
    _write_manifest(out_dir, inputs, outputs, seed=seed, stats=stats)
    click.echo(f"wrote {len(outputs)} artifact(s) to {out_dir}")


def main(argv=None) -> int:
    """Console entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False, auto_envvar_prefix="FOODSEC")
        return 0
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except VerificationFailed as exc:
        click.echo(f"verification failed: {exc}", err=True)
        return 2
    except FormatError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except Exception:  # pragma: no cover - the catch-all contract
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
