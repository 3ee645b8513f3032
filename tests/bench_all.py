"""Micro-benchmark of ``foodsec all`` at ``--threads 1`` against ``--threads 2``.

Run with ``PYTHONPATH=src python -m pytest -s tests/bench_all.py``; the file
name keeps it out of the default test run. The inputs are the ``c01`` and
``null-wide`` workloads of ``perfbench/workloads.py`` at seed 1, and the
command is the workload's own with only ``--threads`` changed; null-wide is
also run at ``--trials 3200``, the trial count at which ROADMAP item 2 plans
to rescale it, where the null's buffer is largest. Each command
runs as a fresh ``python -m foodsec.cli`` child, as perfbench times it, in
alternating order over 10 pairs; the medians of wall time, their ratio and
the median peak RSS of each setting, the statistic perfbench reports, are
printed, beside the median peak RSS of a child that only imports
``foodsec.cli`` and ``scipy.special``: the floor under any ``all``.
``all`` runs correlate last, and at ``--threads 2`` and two or more usable
CPUs its other stages in a forked worker, so the ratio shows what that
split saves on this host. No timing is asserted. Every artifact and the
manifest must be the same at both settings.
"""

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, command_argv, set_up  # noqa: E402

PAIRS = 10


def run_child(*args):
    """``python args`` as a child process: (wall s, peak RSS MiB)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, args
    return wall, usage.ru_maxrss / 1024.0


@pytest.mark.parametrize("name, trials", [("c01", None), ("null-wide", None),
                                          ("null-wide", "3200")],
                         ids=["c01", "null-wide", "null-wide-3200"])
def test_all_serial_and_split(tmp_path, name, trials):
    workload = WORKLOADS[name]
    set_up(workload, tmp_path / "in", 1, smoke=False)
    argv = command_argv(workload, tmp_path / "in", tmp_path / "out", 1, smoke=False)
    if trials:
        argv[argv.index("--trials") + 1] = trials
        name = f"{name} --trials {trials}"
    at = argv.index("--threads") + 1
    walls, rss, floor = {"1": [], "2": []}, {"1": [], "2": []}, []
    for pair in range(PAIRS):
        for threads in sorted(walls, reverse=pair % 2 == 1):
            out = tmp_path / f"out{threads}"
            argv[at] = threads
            argv[argv.index("--out") + 1] = str(out)
            wall, peak = run_child("-m", "foodsec.cli", *argv)
            walls[threads].append(wall)
            rss[threads].append(peak)
        floor.append(run_child("-c", "import foodsec.cli, scipy.special")[1])
    names = sorted(p.name for p in (tmp_path / "out1").iterdir())
    for artifact in names:
        assert (tmp_path / "out1" / artifact).read_bytes() == (
            tmp_path / "out2" / artifact).read_bytes(), artifact
    serial, split = (statistics.median(walls[t]) for t in ("1", "2"))
    print(f"\n{name}: --threads 1 {serial:.3f} s, --threads 2 {split:.3f} s "
          f"(median of {PAIRS}), ratio {split / serial:.3f}; median peak RSS "
          f"{statistics.median(rss['1']):.1f} and {statistics.median(rss['2']):.1f} MiB "
          f"(imports alone {statistics.median(floor):.1f} MiB); "
          f"faster in {sum(b < a for a, b in zip(walls['1'], walls['2']))}/{PAIRS} pairs")
