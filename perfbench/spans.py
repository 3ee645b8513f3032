"""Span recording from outside the program, for the traced run.

``Tracer.install`` replaces the public functions that ``foodsec.cli`` calls
with wrappers that record a span per call: name, layer, start, end, busy
time and the span that was open when it began. Each replacement is made in
the defining module and, where the same object is bound there, in
``foodsec.cli``. Parsers are generators, so their wrapper times the pulls
from the parser and records the summed time as the span's busy time: parse
time and the consumer's own time then separate. A name a later refactor removes
is listed in ``missing`` and its metrics read 0.

Spans stay in memory; ``spans_json`` returns them for the results file.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import islice
from pathlib import Path

import numpy as np

# rows a traced parser is run ahead of its consumer
PARSE_BATCH = 256

LAYERS = ("ingest", "features", "aggregate", "indices", "correlate", "models", "rolling", "cli")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    busy: float  # time inside the call; for a parser, inside the pulls from it
    parent: int | None  # index into Tracer.spans


def _source_bytes(args, kwargs) -> int:
    source = kwargs.get("source", args[0] if args else None)
    try:
        return Path(source).stat().st_size
    except TypeError:  # an open handle, not a path
        return 0


def _errors_count(args, kwargs) -> int:
    errors = kwargs.get("errors", args[1] if len(args) > 1 else None)
    return errors.count if errors is not None else 0


def _observe_parse(kind):
    def observe(counts, args, kwargs, rows):
        counts[f"ingest.{kind}_rows"] += rows
        counts[f"ingest.{kind}_row_errors"] += _errors_count(args, kwargs)
        counts["ingest.bytes_read"] += _source_bytes(args, kwargs)
    return observe


def _observe_correlate(counts, args, kwargs, result):
    _, nx, cx, ny, cy = _join_shape(args, kwargs)
    counts["correlate.pairs"] += nx * ny
    counts["correlate.pairs_masked"] += nx * ny - cx * cy


def _observe_null(counts, args, kwargs, result):
    n, _, cx, _, cy = _join_shape(args, kwargs)
    trials = kwargs.get("trials", args[2] if len(args) > 2 else None)
    counts["correlate.null_trials"] += trials
    counts["correlate.null_threads"] = kwargs.get("threads", args[4] if len(args) > 4 else 1)
    counts["correlate.null_flops"] += trials * 2 * n * cx * cy


def _join_shape(args, kwargs) -> tuple[int, int, int, int, int]:
    """For a (mobile, survey) call: common sectors, then the column count
    and complete (NaN-free) column count of each side after the join."""
    mobile = kwargs.get("mobile", args[0] if args else None)
    survey = kwargs.get("survey", args[1] if len(args) > 1 else None)
    common = sorted(set(mobile.sectors) & set(survey.sectors))
    mi = {s: i for i, s in enumerate(mobile.sectors)}
    si = {s: i for i, s in enumerate(survey.sectors)}
    x = mobile.values[[mi[s] for s in common]]
    y = survey.values[[si[s] for s in common]]
    complete = [int(np.isfinite(a).all(axis=0).sum()) for a in (x, y)]
    return len(common), x.shape[1], complete[0], y.shape[1], complete[1]


def _count(metric, measure):
    def observe(counts, args, kwargs, result):
        counts[metric] += measure(result)
    return observe


# (module, attribute, span name, layer, is a generator, observer)
TARGETS = (
    ("ingest", "parse_cdr_stream", "ingest.cdr_parse", "ingest", True, _observe_parse("cdr")),
    ("ingest", "parse_topup_stream", "ingest.topup_parse", "ingest", True,
     _observe_parse("topup")),
    ("ingest", "load_survey", "ingest.survey_load", "ingest", False, None),
    ("ingest", "load_tower_map", "ingest.tower_map_load", "ingest", False, None),
    ("features", "FeatureAccumulator.update_calls", "features.update_calls", "features",
     False, None),
    ("features", "FeatureAccumulator.update_topups", "features.update_topups", "features",
     False, None),
    ("features", "FeatureAccumulator.finalize", "features.finalize", "features", False,
     _count("features.users_out", lambda r: len(r[0]))),
    ("features", "write_user_features", "features.write", "features", False, None),
    ("aggregate", "build_sector_matrix", "aggregate.build", "aggregate", False,
     _count("aggregate.sectors_out", lambda r: len(r[0]))),
    ("aggregate", "write_sector_matrix", "cli.write", "cli", False, None),
    ("indices", "build_survey_matrix", "indices.build", "indices", False, None),
    ("correlate", "correlation_matrix", "correlate.matrix", "correlate", False,
     _observe_correlate),
    ("correlate", "shuffle_null", "correlate.null", "correlate", False, _observe_null),
    ("correlate", "write_correlations", "cli.write", "cli", False, None),
    ("correlate", "write_null_summary", "cli.write", "cli", False, None),
    ("models", "fit_from_matrices", "models.fit", "models", False, None),
    ("models", "write_model", "cli.write", "cli", False, None),
    ("rolling", "rolling_sector_series", "rolling.series", "rolling", False,
     _count("rolling.points", lambda r: sum(len(s.points) for s in r))),
    ("rolling", "write_rolling", "rolling.write", "rolling", False, None),
    ("rolling", "emit_overlay", "rolling.write", "rolling", False, None),
    ("cli", "_write_manifest", "cli.manifest", "cli", False, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- installation ---

    def install(self) -> None:
        cli = importlib.import_module("foodsec.cli")
        for module_name, attr, name, layer, is_iter, observe in TARGETS:
            module = importlib.import_module(f"foodsec.{module_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                self.missing.append(f"foodsec.{module_name}.{attr}")
                continue
            make = self._wrap_iter if is_iter else self._wrap_call
            wrapper = make(original, name, layer, observe)
            self._replace(owner, fn_name, wrapper)
            if not owner_name and owner is not cli and getattr(cli, fn_name, None) is original:
                self._replace(cli, fn_name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # --- spans ---

    def _open(self, name: str, layer: str, start: float) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, start, start, 0.0, parent))
        return len(self.spans) - 1

    def _wrap_call(self, fn, name, layer, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name, layer, time.perf_counter())
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span = tracer.spans[index]
                span.end = time.perf_counter()
                span.busy = span.end - span.start
            if observe is not None:
                observe(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _wrap_iter(self, fn, name, layer, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._timed(fn(*args, **kwargs), name, layer, args, kwargs, observe)

        return wrapper

    def _timed(self, iterator, name, layer, args, kwargs, observe):
        # A generator's body starts at the first next(), so the span opens
        # inside its consumer and takes the consumer's span as parent. Rows
        # are pulled in batches so that the clock is read twice per batch,
        # not per row: the parser only runs inside ``islice``.
        clock = time.perf_counter
        busy = 0.0
        rows = 0
        index = self._open(name, layer, clock())
        try:
            while True:
                t0 = clock()
                batch = list(islice(iterator, PARSE_BATCH))
                busy += clock() - t0
                if not batch:
                    break
                rows += len(batch)
                yield from batch
        finally:
            span = self.spans[index]
            span.end = clock()
            span.busy = busy
            if observe is not None:
                observe(self.counts, args, kwargs, rows)

    # --- results ---

    def busy(self, name: str) -> float:
        return sum(s.busy for s in self.spans if s.name == name)

    def self_times(self) -> list[float]:
        """Each span's busy time minus the busy time of its children."""
        own = [s.busy for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.busy
        return own

    def self_time(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_times()) if s.name == name)

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for s, t in zip(self.spans, self.self_times()):
            out[s.layer] = out.get(s.layer, 0.0) + t
        return out

    def top_level_busy(self) -> float:
        return sum(s.busy for s in self.spans if s.parent is None)

    def spans_json(self, origin: float) -> list[dict]:
        return [
            {**asdict(s), "start": s.start - origin, "end": s.end - origin} for s in self.spans
        ]


def layer_metrics(tracer: Tracer, wall: float, cpu: float, untraced_median: float,
                  setup: dict, sizes: dict) -> dict[str, float]:
    """The per-layer metrics of one traced run, by name."""
    busy, own, counts = tracer.busy, tracer.self_time, tracer.counts
    cdr_parse = busy("ingest.cdr_parse")
    layer_self = tracer.layer_self()
    unattributed = wall - tracer.top_level_busy()
    synth_files = {k: v for k, v in sizes.items() if "/" not in k}
    m = {
        "ingest.cdr_parse_s": cdr_parse,
        "ingest.cdr_rows": counts["ingest.cdr_rows"],
        "ingest.cdr_row_errors": counts["ingest.cdr_row_errors"],
        "ingest.cdr_rows_per_s": counts["ingest.cdr_rows"] / cdr_parse if cdr_parse else 0.0,
        "ingest.topup_parse_s": busy("ingest.topup_parse"),
        "ingest.topup_parses": sum(1 for s in tracer.spans if s.name == "ingest.topup_parse"),
        "ingest.topup_rows": counts["ingest.topup_rows"],
        "ingest.topup_row_errors": counts["ingest.topup_row_errors"],
        "ingest.bytes_read": counts["ingest.bytes_read"],
        "ingest.survey_load_s": busy("ingest.survey_load"),
        "ingest.tower_map_load_s": busy("ingest.tower_map_load"),
        "features.update_calls_self_s": own("features.update_calls"),
        "features.update_topups_self_s": own("features.update_topups"),
        "features.finalize_s": busy("features.finalize"),
        "features.users_out": counts["features.users_out"],
        "features.write_s": busy("features.write"),
        "aggregate.build_s": busy("aggregate.build"),
        "aggregate.sectors_out": counts["aggregate.sectors_out"],
        "indices.build_s": busy("indices.build"),
        "correlate.matrix_s": busy("correlate.matrix"),
        "correlate.pairs": counts["correlate.pairs"],
        "correlate.pairs_masked": counts["correlate.pairs_masked"],
        "correlate.complete_ratio": (
            1.0 - counts["correlate.pairs_masked"] / counts["correlate.pairs"]
            if counts["correlate.pairs"] else 0.0
        ),
        "correlate.null_s": busy("correlate.null"),
        "correlate.null_trials": counts["correlate.null_trials"],
        "correlate.null_ms_per_trial": (
            1000.0 * busy("correlate.null") / counts["correlate.null_trials"]
            if counts["correlate.null_trials"] else 0.0
        ),
        "correlate.null_threads": counts["correlate.null_threads"],
        "correlate.null_flops": counts["correlate.null_flops"],
        "models.fit_s": busy("models.fit"),
        "rolling.series_s": own("rolling.series"),
        "rolling.points": counts["rolling.points"],
        "rolling.write_s": busy("rolling.write"),
        "synth.generate_s": setup["synth.generate"],
        "synth.rows_written": sum(v["rows"] for v in synth_files.values()),
        "synth.bytes_written": sum(v["bytes"] for v in synth_files.values()),
        "cli.write_s": busy("cli.write"),
        "cli.manifest_s": busy("cli.manifest"),
        "cli.unattributed_s": unattributed,
        "proc.cpu_s": cpu,
        "proc.cpu_util": cpu / wall,
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced_median,
        "trace.spans": len(tracer.spans),
        "trace.missing": len(tracer.missing),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
