"""Self-tests of the benchmark: metric schema, correctness gate, tracer.

Run from the root of a foodsec checkout (about two minutes):

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection; they run the benchmark's ``--smoke`` workloads.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from run import Gate  # noqa: E402
from workloads import WORKLOADS, command_argv, set_up  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.fixture(scope="module")
def c01_run(tmp_path_factory):
    from foodsec.cli import main

    work = tmp_path_factory.mktemp("c01")
    workload = WORKLOADS["c01"]
    set_up(workload, work / "in", seed=5, smoke=True)
    out = work / "out"
    assert main(command_argv(workload, work / "in", out, 5, smoke=True)) == 0
    return work / "in", out


def test_gate_passes_then_catches_changed_outputs(c01_run, tmp_path):
    inp, out = c01_run
    gate = Gate(inp)
    assert gate.check(0, out) == []
    assert gate.check(0, out) == []
    assert gate.check(2, out) == ["exit code 2"]

    changed = tmp_path / "out"
    shutil.copytree(out, changed)
    text = (changed / "correlations.csv").read_text(encoding="utf-8")
    lines = [
        ln if not ln.startswith("topup_sum.mean,food_expenditure,")
        else ln.replace(",0.", ",0.1", 1)
        for ln in text.splitlines(keepends=True)
    ]
    (changed / "correlations.csv").write_text("".join(lines), encoding="utf-8")
    problems = gate.check(0, changed)
    assert any("differ from the first run: correlations.csv" in p for p in problems)
    assert any("pair topup_sum.mean|food_expenditure" in p for p in problems)


def test_tracer_reports_a_missing_name_and_restores(monkeypatch):
    import foodsec.cli
    import foodsec.ingest

    original = foodsec.cli.parse_cdr_stream
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("ingest", "no_such_parser", "ingest.none", "ingest", True, None),
    ))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert foodsec.cli.parse_cdr_stream is foodsec.ingest.parse_cdr_stream
        assert foodsec.cli.parse_cdr_stream is not original
    finally:
        tracer.uninstall()
    assert tracer.missing == ["foodsec.ingest.no_such_parser"]
    assert foodsec.cli.parse_cdr_stream is original is foodsec.ingest.parse_cdr_stream


def test_self_times_add_up():
    tracer = spans.Tracer()
    outer = tracer._wrap_call(lambda: sum(inner_gen()), "features.update_calls", "features",
                              None)
    inner_gen = tracer._wrap_iter(lambda: iter(range(1000)), "ingest.cdr_parse", "ingest",
                                  None)
    assert outer() == sum(range(1000))
    parse, update = tracer.spans[1], tracer.spans[0]
    assert parse.parent == 0 and update.parent is None
    assert 0 < parse.busy < update.busy
    assert tracer.self_time("features.update_calls") == pytest.approx(update.busy - parse.busy)
    assert sum(tracer.layer_self().values()) == pytest.approx(tracer.top_level_busy())


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "c01", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_spec_lists_the_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
