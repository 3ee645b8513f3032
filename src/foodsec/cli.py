"""Command-line entry point wiring the pipeline.

Subcommands map one-to-one onto the pipeline stages (``synth``,
``features``, ``aggregate``, ``indices``, ``correlate``, ``null``, ``fit``,
``rolling``, ``verify``) plus ``all``, which runs the whole chain over a
directory of canonical input files. Each stage is one ``_stage_*`` function
that the subcommand and ``all`` both call, and each option is declared once
and applied to every command that takes it, so ``all`` writes what the
subcommands would with the same settings. Every run writes a
machine-readable ``run_manifest.json`` (inputs, outputs, the command's
options and their hash, seed, versions; no timestamps, so re-runs are
byte-identical).

Configuration precedence: built-in defaults < ``--config`` key=value file <
``FOODSEC_*`` environment variables < explicit flags.

Exit codes: 0 success, 1 validation/config error, 2 data error (including
row errors under --strict and failed verification), 3 internal error.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import sys
import traceback
from dataclasses import replace
from datetime import date
from functools import partial
from pathlib import Path

import click

from . import __version__
from .aggregate import (
    DEFAULT_MIN_USERS,
    build_sector_matrix,
    read_sector_matrix,
    write_sector_matrix,
)
from .config import ConfigError, parse_kv_file, parse_night_window
from .correlate import (
    correlation_matrix,
    scipy_special,
    shuffle_null,
    write_correlations,
    write_heatmap_data,
    write_null_summary,
)
from .features import read_user_features, user_features, write_user_features
from .indices import (
    COMPOSITE_CATEGORIES,
    COUNT_COLUMN,
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
from .workers import forked, worker_count

log = logging.getLogger(__name__)

# the files `all` reads from --in, each as <name>.csv; the optional ones may be absent
ALL_INPUTS = ("cdr", "topup", "towers", "survey", "survey_meta",
              "poverty", "fcs_weights", "csi_weights")
ALL_OPTIONAL = ("poverty", "fcs_weights", "csi_weights")


class VerificationFailed(Exception):
    """One or more ground-truth checks failed."""


# --- options: each is declared once, as a partial of ``click.Option`` in a
# group that maps parameter names to specs; a command's options are built
# from groups, and a spec called with keywords changes an attribute there ---


def _declare(**options) -> dict:
    """Option specs by parameter name; each flag is its name with '-' for '_'."""
    return {name: partial(click.Option, ["--" + name.replace("_", "-")], **attrs)
            for name, attrs in options.items()}


def _params(*groups) -> list[click.Option]:
    """One option per name from the groups' specs, in order; a later spec
    replaces an earlier one of the same name."""
    return [spec() for spec in {k: v for group in groups for k, v in group.items()}.values()]


def _pick(group: dict, params: dict) -> dict:
    """The values in ``params`` of the options in ``group``."""
    return {name: params[name] for name in group if name in params}


FILE = dict(type=click.Path(), required=True)
OUT = _declare(out=dict(type=click.Path(file_okay=False), required=True))
TOPUP = _declare(topup=FILE)
USER_FEATURES = _declare(user_features=FILE)
SURVEY_META = _declare(survey_meta=FILE)
MATRICES = _declare(mobile=FILE, survey_matrix=FILE)
SEED = _declare(seed=dict(type=click.IntRange(min=0),  # numpy seeds are non-negative
                          help="random seed (synth: overrides the config file's seed)"))
STRICT = _declare(strict=dict(is_flag=True, help="promote row errors to fatal"))

# Each stage's settings, by the names its ``_stage_*`` function takes. The
# stage's subcommand and `all` both build their options from these groups.
FEATURES = _declare(
    night_window=dict(default="18:00-08:00", show_default=True),
    # local wall clock = UTC + this many minutes; the night window is judged in local time
    utc_offset=dict(type=click.IntRange(-1439, 1439), default=0, show_default=True,
                    metavar="MINUTES", help="local time minus UTC, for the night window"),
    home_hours=dict(type=click.Choice(["night", "all"]), default="night"),
    diversity_direction=dict(type=click.Choice(["both", "out"]), default="both"),
) | STRICT
AGGREGATE = _declare(
    min_users=dict(type=click.IntRange(min=0), default=DEFAULT_MIN_USERS, show_default=True),
    columns=dict(default=None, help="comma list pruning feature.aggregator columns"),
)
INDICES = _declare(
    variables=dict(default=None, help="comma list of survey variables to keep"),
) | STRICT
CORRELATE = _declare(
    ci_level=dict(type=click.FloatRange(0, 1, min_open=True, max_open=True), default=0.95,
                  show_default=True),
    heatmap_data=dict(is_flag=True, help="also write heatmap.csv (|r| long format)"),
)
NULL = _declare(
    trials=dict(type=click.IntRange(min=1), default=1000, show_default=True),
) | {"seed": partial(SEED["seed"], required=True)}  # synth's seed is optional
THREADS = _declare(  # it changes no output, so no manifest records it
    threads=dict(type=click.IntRange(min=1), default=1, show_default=True,
                 help="at most N processes: at 2 or more, a worker runs all stages but correlate"),
)
FIT = _declare(
    target=dict(required=True, help="survey column to model"),
    variables=dict(required=True, help="comma list of mobile variables"),
    degree=dict(type=click.IntRange(1, 2), default=1, show_default=True),
    scatter_data=dict(is_flag=True, help="also write scatter_<target>.csv"),
)
ROLLING = _declare(  # its subcommand's --strict is for reading the top-ups
    window_days=dict(type=click.IntRange(min=1), default=30, show_default=True),
    denominator=dict(type=click.Choice(["period", "window"]), default="period"),
)


# --- runs ---


def _inputs(**paths) -> dict[str, Path]:
    """The given input files by config key, each checked to exist and not
    to be a directory; a None path is an optional input left out."""
    inputs = {key: Path(p) for key, p in paths.items() if p is not None}
    for key, p in inputs.items():
        if not p.exists() or p.is_dir():
            fault = "a directory, not a file" if p.exists() else "file not found"
            raise ConfigError(f"config key {key!r}: {fault}: {p}")
    return inputs


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
    path-typed ones, ``seed`` and ``threads``."""
    import numpy
    import scipy

    ctx = click.get_current_context()
    if config is None:
        paths = {p.name for p in ctx.command.params if isinstance(p.type, click.Path)}
        config = {k: v for k, v in ctx.params.items()
                  if k not in paths and k not in ("seed", "threads")}
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


class _Run:
    """A command's run: checks its input files, creates its output directory
    and deletes an earlier run's manifest there (so a run that fails leaves
    none behind), runs stages into it and writes the manifest of what they
    wrote."""

    def __init__(self, out, **paths):
        self.inputs = _inputs(**paths)
        self.out = Path(out)
        self.out.mkdir(parents=True, exist_ok=True)
        (self.out / "run_manifest.json").unlink(missing_ok=True)
        self.outputs: list[str] = []
        self.stats: dict = {}

    def __call__(self, stage, *args, **settings):
        result, written, stats = stage(*args, out=self.out, **settings)
        self.outputs.extend(written)
        self.stats[stage.__name__.removeprefix("_stage_")] = stats
        return result

    def finish(self, message: str, seed=None) -> None:
        """Write the manifest and echo ``message``. A run of one stage records
        that stage's stats, a run of several (``all``) each stage's under its
        name."""
        stats = {name: value for name, value in self.stats.items() if value}
        if len(self.stats) == 1:
            stats = next(iter(stats.values()), None)
        _write_manifest(self.out, self.inputs, self.outputs, seed=seed, stats=stats)
        click.echo(message)


def _config_defaults(path) -> dict:
    """Turn a flat key=value file into a click default map for every
    subcommand (flags and env vars still win). The file supplies defaults to
    every subcommand, so a key must name an option of at least one."""
    flat = parse_kv_file(path)
    known = {p.name for command in cli.commands.values() for p in command.params}
    unknown = sorted(flat.keys() - known)
    if unknown:
        raise ConfigError(f"{path}: unknown config key(s) {', '.join(unknown)}; "
                          "a key is the name of a subcommand's option, with '_' for '-'")
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


# --- stages: each hands its settings to the library calls that check them,
# writes its artifacts into ``out`` and returns (result, outputs, stats) ---


def _read(name, read, *args, strict, **kwargs):
    """``read(*args, **kwargs)`` counting the rows it rejects, which are
    fatal under ``strict`` and else logged under ``name``; returns the
    result and its row errors."""
    errors = RowErrorLog(strict=strict)
    result = read(*args, errors=errors, **kwargs)
    if errors.count:
        log.warning("%s: %s", name, errors.summary())
    return result, errors


def _stage_features(inputs, out, night_window, utc_offset, home_hours, diversity_direction,
                    strict):
    """Features from one pass over each input. The result also carries the
    top-up columns and their row errors, for the rolling stage of ``all``."""
    window = parse_night_window(night_window)
    tower_map = load_tower_map(inputs["towers"])
    calls, cdr_errors = _read("cdr", read_cdr, inputs["cdr"], strict=strict,
                              night_window=window, utc_offset_minutes=utc_offset)
    topups, topup_errors = _read("topup", read_topups, inputs["topup"], strict=strict)
    features, exclusions = user_features(calls, topups, tower_map, home_hours=home_hours,
                                         diversity_direction=diversity_direction)
    write_user_features(features, out / "user_features.csv")
    stats = {
        "users_out": len(features),
        "excluded": dict(exclusions),
        "row_errors": {"cdr": cdr_errors.count, "topup": topup_errors.count},
    }
    return (features, topups, topup_errors), ["user_features.csv"], stats


def _stage_aggregate(features, out, min_users, columns):
    wanted = split_list("columns", columns) if columns else None
    matrix, excluded = build_sector_matrix(features, min_users=min_users, columns=wanted)
    write_sector_matrix(matrix, out / "sector_mobile.csv")
    stats = {"sectors_out": len(matrix), "sectors_excluded": excluded}
    return matrix, ["sector_mobile.csv"], stats


def _stage_indices(inputs, out, strict, variables=None):
    """The result is the survey matrix and its column -> category map;
    ``variables`` (default: all) picks the survey columns kept."""
    table, errors = _read("survey", load_survey, inputs["survey"], inputs["survey_meta"],
                          strict=strict)
    wanted = split_list("variables", variables) if variables else None
    fcs = load_fcs_weights(inputs["fcs_weights"]) if "fcs_weights" in inputs else None
    csi = load_csi_weights(inputs["csi_weights"]) if "csi_weights" in inputs else None
    pov = load_poverty(inputs["poverty"]) if "poverty" in inputs else None
    matrix, categories, incomplete = build_survey_matrix(
        table, fcs_weights=fcs, csi_weights=csi, poverty=pov, variables=wanted
    )
    write_sector_matrix(matrix, out / "sector_survey.csv", count_column=COUNT_COLUMN)
    stats = {"row_errors": {"survey": errors.count}}
    if incomplete:
        stats["incomplete_households"] = incomplete
    return (matrix, categories), ["sector_survey.csv"], stats


def _stage_correlate(mobile, survey, categories, out, ci_level, heatmap_data):
    """``heatmap_data`` adds heatmap.csv, each survey column tagged from
    ``categories`` (survey column -> tag)."""
    entries = correlation_matrix(mobile, survey, level=ci_level)
    if not any(e.defined for e in entries):
        raise FormatError("no defined correlations: do the matrices share sectors?")
    outputs = ["correlations.csv"]
    write_correlations(entries, out / outputs[0])
    if heatmap_data:
        outputs.append("heatmap.csv")
        write_heatmap_data(entries, categories, out / outputs[1])
    return entries, outputs, {}


def _stage_null(mobile, survey, out, trials, seed):
    summary = shuffle_null(mobile, survey, trials=trials, seed=seed)
    write_null_summary(summary, out / "null_summary.csv")
    return summary, ["null_summary.csv"], {}


def _stage_fit(mobile, survey, out, target, variables, degree, scatter_data):
    """``target`` also names the files, so it may hold no '/' or NUL."""
    if "/" in target or "\0" in target:
        raise ConfigError(f"config key 'target': {target!r} holds '/' or NUL, so it names no "
                          "model file")
    model, joined, y = fit_from_matrices(mobile, survey, target, degree=degree,
                                         variables=split_list("variables", variables))
    outputs = [f"model_{target}.csv"]
    write_model(model, out / outputs[0])
    if scatter_data:
        outputs.append(f"scatter_{target}.csv")
        write_scatter_data(joined.sectors, predict_rows(model, joined), y, out / outputs[1])
    return model, outputs, {"fit_r": model.fit_r, "n": model.n}


def _stage_rolling(topups, topup_errors, features, out, window_days, denominator, stock=None):
    """``stock`` (a date,label,percentage file), when given, joins the overlay."""
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
        read_sector_matrix(inputs["survey_matrix"], count_column=COUNT_COLUMN),
    )


# --- subcommands ---


@cli.command(params=_params(_declare(synth_config=dict(
    type=click.Path(exists=True, dir_okay=False), default=None,
    help="key=value file of generator settings")), OUT, SEED))
def synth(synth_config, out, seed):
    """Generate a seeded synthetic dataset with planted relationships."""
    from .synth import SynthConfig, generate

    cfg = SynthConfig.from_file(synth_config) if synth_config else SynthConfig()
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    run = _Run(out, synth_config=synth_config)
    run.outputs = [p.name for p in generate(cfg, run.out).values()]
    config = {f.name: getattr(cfg, f.name) for f in cfg.__dataclass_fields__.values()
              if f.name != "food_items"}
    _write_manifest(run.out, run.inputs, run.outputs, seed=cfg.seed, config=config)
    click.echo(f"wrote {len(run.outputs)} files to {run.out}")


@cli.command(params=_params(_declare(cdr=FILE), TOPUP, _declare(towers=FILE), OUT, FEATURES))
def features(cdr, topup, towers, out, **settings):
    """Per-user features: home sector, top-up stats, social diversity."""
    run = _Run(out, cdr=cdr, topup=topup, towers=towers)
    features, _, _ = run(_stage_features, run.inputs, **settings)
    run.finish(f"{len(features)} user feature vector(s)")


@cli.command(params=_params(USER_FEATURES, OUT, AGGREGATE))
def aggregate(user_features, out, **settings):
    """Aggregate user features into the sector x mobile-variable matrix."""
    run = _Run(out, user_features=user_features)
    matrix = run(_stage_aggregate, read_user_features(run.inputs["user_features"]), **settings)
    run.finish(f"{len(matrix)} sector(s), {len(run.stats['aggregate']['sectors_excluded'])} "
               "excluded")


@cli.command(params=_params(_declare(survey=FILE), SURVEY_META, _declare(
    fcs_weights=dict(type=click.Path(), default=None,
                     help="food_group,weight file (default: standard table)"),
    csi_weights=dict(type=click.Path(), default=None),
    poverty=dict(type=click.Path(), default=None),
), INDICES, OUT))
def indices(survey, survey_meta, fcs_weights, csi_weights, poverty, out, **settings):
    """Household indices (FCS, CSI, MPI) and sector survey means."""
    run = _Run(out, survey=survey, survey_meta=survey_meta, fcs_weights=fcs_weights,
               csi_weights=csi_weights, poverty=poverty)
    matrix, _ = run(_stage_indices, run.inputs, **settings)
    run.finish(f"{len(matrix)} sector(s) x {len(matrix.columns)} column(s)")


@cli.command(params=_params(MATRICES, CORRELATE, {"survey_meta": partial(
    SURVEY_META["survey_meta"], required=False, default=None,
    help="category tags for heatmap output")}, OUT))
def correlate(mobile, survey_matrix, survey_meta, out, **settings):
    """Mobile x survey Pearson correlation matrix with p-values and CIs."""
    run = _Run(out, mobile=mobile, survey_matrix=survey_matrix, survey_meta=survey_meta)
    meta = {}
    if settings["heatmap_data"] and survey_meta:
        meta = load_survey_metadata(run.inputs["survey_meta"])
    entries = run(_stage_correlate, *_read_matrices(run.inputs),
                  categories={**meta, **COMPOSITE_CATEGORIES}, **settings)
    run.finish(f"{len(entries)} pair(s), {sum(e.defined for e in entries)} defined")


@cli.command(params=_params(MATRICES, NULL, OUT))
def null(mobile, survey_matrix, out, trials, seed):
    """Shuffled-sector null distribution of |r|."""
    run = _Run(out, mobile=mobile, survey_matrix=survey_matrix)
    summary = run(_stage_null, *_read_matrices(run.inputs), trials=trials, seed=seed)
    run.finish(f"null |r| p95={summary.abs_r_p95:.4f} p99={summary.abs_r_p99:.4f} "
               f"max={summary.abs_r_max:.4f} over {trials} trial(s)", seed)


@cli.command(params=_params(MATRICES, FIT, OUT))
def fit(mobile, survey_matrix, out, **settings):
    """Fit a polynomial proxy model for one survey indicator."""
    run = _Run(out, mobile=mobile, survey_matrix=survey_matrix)
    model = run(_stage_fit, *_read_matrices(run.inputs), **settings)
    run.finish(f"fit_r={model.fit_r:.4f} over {model.n} sector(s)")


@cli.command(params=_params(TOPUP, USER_FEATURES, ROLLING, _declare(stock=dict(
    type=click.Path(), default=None, help="optional date,label,percentage overlay")),
    STRICT, OUT))
def rolling(topup, user_features, stock, strict, out, **settings):
    """Rolling-window top-up expenditure series per sector."""
    run = _Run(out, topup=topup, user_features=user_features, stock=stock)
    features = read_user_features(run.inputs["user_features"])
    topups, errors = _read("topup", read_topups, run.inputs["topup"], strict=strict)
    series = run(_stage_rolling, topups, errors, features, stock=run.inputs.get("stock"),
                 **settings)
    run.finish(f"{len(series)} sector series")


@cli.command(params=_params(_declare(truth=FILE, outputs=dict(
    type=click.Path(file_okay=False), required=True)), {
    "out": partial(OUT["out"], required=False, default=None,
                   help="report directory (default: the outputs directory)"),
}))
def verify(truth, outputs, out):
    """Check pipeline outputs against a synthetic dataset's ground truth."""
    from .synth import verify_outputs, write_verify_report

    truth = _inputs(truth=truth)["truth"]
    outputs_path = Path(outputs)
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


# `all` takes every stage's settings, with fit's defaults its own, but not
# indices' --variables: its --variables is fit's. One --strict serves
# features, indices and rolling; --threads is its own.
@cli.command(name="all", params=_params(
    _declare(**{"in": dict(type=click.Path(file_okay=False), required=True,
                           help="directory with cdr/topup/towers/survey/survey_meta csv files "
                           "(poverty/fcs_weights/csi_weights optional)")}),
    OUT, FEATURES, AGGREGATE, CORRELATE, NULL, THREADS, FIT, ROLLING,
    {"target": partial(FIT["target"], required=False, default="food_expenditure",
                       show_default=True),
     "variables": partial(FIT["variables"], required=False,
                          default="topup_sum.mean,topup_mean.mean", show_default=True),
     "degree": partial(FIT["degree"], default=2)},
))
def run_all(out, threads, **settings):
    """Run the full chain: features, aggregate, rolling, indices, correlate,
    null, fit, each as its subcommand would with these options (``in``, a
    Python keyword, arrives in ``settings``). Job 0 runs the stages up to
    indices and job 1 null and fit on its matrices; at 2 or more ``threads``
    and CPUs one forked worker runs both jobs and sends job 0's matrices
    back, so that this process only correlates."""
    paths = {name: Path(settings["in"]) / f"{name}.csv" for name in ALL_INPUTS}
    run = _Run(out, **{k: p for k, p in paths.items() if k not in ALL_OPTIONAL or p.exists()})

    def job(i):
        nonlocal mobile, survey, categories
        if i == 0:
            mobile = _mobile_stages(run, settings)
            survey, categories = run(_stage_indices, run.inputs, **_pick(STRICT, settings))
            return mobile, survey, categories
        run(_stage_null, mobile, survey, **_pick(NULL, settings))
        run(_stage_fit, mobile, survey, **_pick(FIT, settings))
        return run.outputs, run.stats  # the stages and files of the process that ran it

    def correlate():
        run(_stage_correlate, mobile, survey, categories=categories, **_pick(CORRELATE, settings))

    if worker_count(threads) < 2:
        mobile, survey, categories = job(0)
        correlate()
        job(1)
    else:
        with forked(job, 2, 1) as results:
            try:
                scipy_special()  # its first import overlaps the worker's stages
                mobile, survey, categories = next(results)
                correlate()
            except Exception:
                with contextlib.suppress(Exception):
                    list(results)  # the worker finishes its files; its error comes later
                raise
            outputs, stats = next(results)
        run.outputs.extend(outputs)  # the worker recorded them in its own copy of ``run``
        run.stats.update(stats)
    run.finish(f"wrote {len(run.outputs)} artifact(s) to {run.out}", settings["seed"])


def _mobile_stages(run, settings):
    """The stages of `all` that need no survey, run to the end so that the
    per-user features and the top-ups are freed before the survey side:
    the mobile matrix."""
    features, topups, topup_errors = run(_stage_features, run.inputs,
                                         **_pick(FEATURES, settings))
    mobile = run(_stage_aggregate, features, **_pick(AGGREGATE, settings))
    run(_stage_rolling, topups, topup_errors, features, **_pick(ROLLING, settings))
    return mobile


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
