"""foodsec benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a foodsec checkout:

    python3 perfbench/run.py --workload c01 --seed 1 --seconds 50 --trace 0

The run generates the workload's inputs from ``--seed`` and runs the
``foodsec`` CLI from the checkout's ``src/`` over them as a child process,
one generation to every two commands, until ``--seconds`` have passed and
at least three generations and five commands are made; it checks every
command's outputs. ``--trace 1`` instead runs the same
entry point in-process, untraced and then once traced, and reports per-layer
metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Full results (machine
facts, input sizes, per-run figures, output digests, spans) go to
``.perfbench_out/`` in the checkout. ``--smoke`` shrinks every workload to a
few seconds, for the benchmark's own tests.

Exit status: 0 when every run passed its correctness check, 1 when one
failed, 2 when the benchmark could not run at all (no foodsec source in
the checkout, set-up failed).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_RUNS = 5
MIN_SETUPS = 3
RUNS_PER_SETUP = 2
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(Path(__file__).resolve().parent))


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_foodsec():
    """Import foodsec from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "foodsec" / "cli.py").is_file():
        fail(f"no foodsec source under {SRC}")
    sys.path.insert(0, str(SRC))
    import foodsec

    if Path(foodsec.__file__).resolve().parent != (SRC / "foodsec").resolve():
        fail(f"imported foodsec from {foodsec.__file__}, not from {SRC}")
    return foodsec


def machine_facts() -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                         model)
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            git_sha = done.stdout.strip() or None
        except OSError:
            pass
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "foodsec").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = {k: os.environ.get(k) for k in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
    try:
        blas_lib = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas_lib = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_lib,
        "blas_threads_env": blas,
        "git_sha": git_sha,
        "src_sha256": src_digest.hexdigest(),
    }


def run_child(argv: list[str], log_dir: Path) -> tuple[int, float, float]:
    """Run ``foodsec`` in a child process; (exit code, wall s, peak RSS MiB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "foodsec.cli", *argv],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        # block in wait4 rather than poll, so the parent takes no CPU from
        # the child; the timer kills a child that hangs
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    # os.wait4 reaped the child, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux; wait4 reports the child and the
    # descendants it waited for
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Gate:
    """The correctness gate of one benchmark invocation."""

    def __init__(self, inp: Path):
        self.inp = inp
        self.digests: dict[str, str] | None = None

    def check(self, rc: int, out: Path) -> list[str]:
        """The reasons this run fails the gate; empty when it passes."""
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            return self._check_outputs(out)
        except Exception as exc:  # noqa: BLE001 - a broken output is a failed run
            return [f"checking outputs raised {exc!r}"]

    def _check_outputs(self, out: Path) -> list[str]:
        from checks import output_digests, verify_failures

        digests = output_digests(out)
        problems = []
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            changed = sorted(k for k in set(digests) | set(self.digests)
                             if digests.get(k) != self.digests.get(k))
            problems.append(f"outputs differ from the first run: {', '.join(changed)}")
        return problems + verify_failures(self.inp, out)


def upper_quartile(values: list[float]) -> float:
    """The third quartile, as ``statistics.quantiles(values, n=4)`` gives it.

    Timings use it rather than the median: on a shared host the machine
    switches, every few tens of seconds, between a steady slow speed and a
    faster, erratic one, and the median of a run lands in either regime
    depending on how much of the window each took, while the upper quartile
    stays with the steady one (README.md, "Why the upper quartile").
    """
    return statistics.quantiles(values, n=4)[2]


def measure_loop(seconds: float, run_once) -> list:
    """Call ``run_once(i)`` until ``seconds`` have passed and at least
    ``MIN_RUNS`` calls were made; return the results."""
    results = []
    t0 = time.perf_counter()
    while len(results) < MIN_RUNS or time.perf_counter() - t0 < seconds:
        results.append(run_once(len(results)))
    return results


def set_up_timed(workload, inp: Path, seed: int, smoke: bool) -> dict:
    from workloads import set_up

    try:
        return set_up(workload, inp, seed, smoke)
    except Exception as exc:  # noqa: BLE001 - any set-up failure ends the run
        fail(f"set-up of {workload.name} failed: {exc!r}")


def bench_end_to_end(workload, args, work: Path, details: dict) -> tuple[dict, int, int]:
    """Alternate one set-up with ``RUNS_PER_SETUP`` timed commands until
    ``--seconds`` have passed and at least ``MIN_SETUPS`` set-ups and
    ``MIN_RUNS`` commands were made. Set-up is deterministic, so every
    command reads the same bytes; spreading both over the whole window
    exposes them to the same drift in host speed."""
    from workloads import ROW_FILES, command_argv, input_sizes

    inp = work / "in"
    setups = [set_up_timed(workload, inp, args.seed, args.smoke)]
    sizes = input_sizes(inp)
    rows = sum(sizes[f"{name}.csv"]["rows"] for name in ROW_FILES)
    gate = Gate(inp)

    def run_once(i: int) -> dict:
        out = work / f"out{i}"
        out.mkdir(parents=True)
        rc, wall, rss = run_child(command_argv(workload, inp, out, args.seed, args.smoke), out)
        problems = gate.check(rc, out)
        stderr = (out / "stderr.txt").read_text(errors="replace").strip()
        if problems and stderr:
            problems.append("stderr: " + stderr[-2000:])
        shutil.rmtree(out)
        return {"exit": rc, "wall_s": wall, "peak_rss_mib": rss, "problems": problems}

    runs = []
    t0 = time.perf_counter()
    while (len(runs) < MIN_RUNS or len(setups) < MIN_SETUPS
           or time.perf_counter() - t0 < args.seconds):
        if len(runs) >= RUNS_PER_SETUP * len(setups):
            setups.append(set_up_timed(workload, inp, args.seed, args.smoke))
        else:
            runs.append(run_once(len(runs)))
    failed = sum(1 for r in runs if r["problems"])
    walls = [r["wall_s"] for r in runs]
    setup_times = [s["total"] for s in setups]
    wall = upper_quartile(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "rows_per_s": (rows / wall, "1/s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in runs), "MiB"),
        "setup_s": (upper_quartile(setup_times), "s"),
    }
    details.update(
        input_sizes=sizes, input_rows=rows, setups=setups, runs=runs, digests=gate.digests,
        error_rate=failed / len(runs), wall_median_s=statistics.median(walls),
        setup_median_s=statistics.median(setup_times),
    )
    return metrics, len(runs), failed


def bench_traced(workload, args, work: Path, details: dict) -> tuple[dict, int, int]:
    from foodsec.cli import main as foodsec_main
    from spans import LAYERS, Tracer, layer_metrics
    from workloads import command_argv, input_sizes

    inp = work / "in"
    setup = set_up_timed(workload, inp, args.seed, args.smoke)
    sizes = input_sizes(inp)
    gate = Gate(inp)

    def run_once(i: int, tracer: Tracer | None = None) -> dict:
        out = work / f"out{i}"
        argv = command_argv(workload, inp, out, args.seed, args.smoke)
        if tracer is not None:
            tracer.install()
        try:
            cpu0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = foodsec_main(argv)
            wall = time.perf_counter() - t0
            cpu1 = resource.getrusage(resource.RUSAGE_SELF)
        finally:
            if tracer is not None:
                tracer.uninstall()
        cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
        problems = gate.check(rc, out)
        shutil.rmtree(out, ignore_errors=True)
        return {"exit": rc, "wall_s": wall, "cpu_s": cpu, "t0": t0, "problems": problems}

    untraced = measure_loop(args.seconds, run_once)
    tracer = Tracer()
    traced = run_once(len(untraced), tracer)
    runs = untraced + [traced]
    untraced_median = statistics.median(r["wall_s"] for r in untraced)
    values = layer_metrics(tracer, traced["wall_s"], traced["cpu_s"], untraced_median,
                           setup, sizes)
    total = sum(values[f"{layer}.self_s"] for layer in LAYERS) + values["cli.unattributed_s"]
    if abs(total - traced["wall_s"]) > 1e-6:
        traced["problems"].append(f"layer self times sum to {total}, traced wall {traced['wall_s']}")
    failed = sum(1 for r in runs if r["problems"])
    if tracer.missing:
        print("perfbench: not traced (missing): " + ", ".join(tracer.missing), file=sys.stderr)
    values["trace.target_share"] = sum(values[m] for m in workload.target) / traced["wall_s"]
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    details.update(
        input_sizes=sizes, setups=[setup], runs=runs, digests=gate.digests,
        missing=tracer.missing, spans=tracer.spans_json(traced["t0"]),
        error_rate=failed / len(runs),
    )
    return metrics, len(runs), failed


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_trial"):
        return "ms"
    if name.endswith(("_ratio", "_util", "_share")):
        return "ratio"
    if name.endswith("bytes_read") or name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("_flops"):
        return "flop"
    return "count"


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    args = parser.parse_args(argv)

    import_foodsec()
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    details = {"workload": workload.name, "why": workload.why, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
               "machine": machine_facts()}
    bench = bench_traced if args.trace else bench_end_to_end
    try:
        metrics, attempted, failed = bench(workload, args, work, details)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result_path = OUT / f"{tag}.json"
    result_path.write_text(json.dumps(details, indent=1, default=str) + "\n", encoding="utf-8")

    notes = {} if args.trace else {
        "wall_s": f"upper quartile of {len(details['runs'])} runs; "
                  f"median {details['wall_median_s']:.6g} s",
        "rows_per_s": f"{details['input_rows']} rows / wall_s",
        "peak_rss_mib": f"median of {len(details['runs'])} runs",
        "setup_s": f"upper quartile of {len(details['setups'])} set-ups; "
                   f"median {details['setup_median_s']:.6g} s",
    }
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload.name} {name} = {value:.6g} {unit}{note}")
    print(f"{workload.name} error_rate = {failed}/{attempted} = {failed / attempted:.3g}")
    if args.trace:
        share = metrics["trace.target_share"][0]
        print(f"{workload.name} target layers {' + '.join(workload.target)} = {share:.1%} of "
              f"traced wall (expected >= {workload.target_share_min:.0%})")
    for run in details["runs"]:
        for problem in run["problems"]:
            print(f"{workload.name} FAILED: {problem}", file=sys.stderr)
    print(f"details: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
