"""Workload definitions and the seeded input generator.

Each workload is a synthetic dataset made by ``foodsec.synth.generate``
from the benchmark's ``--seed``, plus the ``foodsec`` command the benchmark
times over it. The program only ever sees the generated files.

The sizes are scaled down from the ROADMAP configurations so that one
benchmark run repeats both set-up and command several times within its
window on a 2-vCPU machine; README.md gives the full-size figures and the
scaling.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Survey columns blanked in a seeded share of sectors for ``null-wide``: a
# survey module that was not fielded there. With ``csi_mean`` (always
# undefined without CSI weights) this leaves 4 of 39 survey columns
# incomplete, so 80 of 780 pairs per null trial take the masked path.
BLANKED_COLUMNS = ("household_size", "crowding_index", "income_per_capita")

SPARSE_CALLS = dict(night_calls_min=8, night_calls_extra_mean=2.0, day_calls_mean=2.0)

# Planted signal shared by every workload, chosen so that ``foodsec verify``
# is a sound gate at a few hundred sectors:
# * planted_r 0.9: the sampling SD of the recovered r is about
#   (1 - r^2) / sqrt(n_sectors), 0.013 at 200 sectors, so verify's +/-0.05
#   pair check sits at 3.7 SD. At the default 0.8 it sits at 2 SD and failed
#   on 2 of 59 seeds at the c01 size.
# * topup_base 2000: a sector whose planted mean top-up is below zero gets
#   the generator's per-user floor, while truth.csv keeps the planted mean,
#   so verify's sector-means check fails (seen on 1 of 59 seeds at the
#   default 1000). Doubling the base puts that about 8 SD away.
SIGNAL = dict(planted_r=0.9, topup_base=2000.0)

# input files whose data rows count towards rows_per_s
ROW_FILES = ("cdr", "topup", "survey")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict
    # foodsec argv; {inp}, {out} and {seed} are filled in per run
    argv: tuple[str, ...]
    blank_share: float = 0.0
    smoke: dict = field(default_factory=dict)
    # per-layer metrics that make up the layer this workload stresses, and
    # the share of the traced wall they should take at least
    target: tuple[str, ...] = ()
    target_share_min: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="c01",
            why="ROADMAP headline config scaled down: CSV ingest and features dominate, "
            "statistics are a few percent",
            synth=dict(n_sectors=200, users_per_sector=40, households_per_sector=30,
                       period_days=182, verify_p_max=1e-15, **SIGNAL),
            argv=("all", "--in", "{inp}", "--out", "{out}", "--seed", "{seed}",
                  "--trials", "100", "--threads", "1"),
            smoke=dict(n_sectors=200, users_per_sector=35, households_per_sector=25,
                       period_days=30, **SPARSE_CALLS, **SIGNAL),
            target=("ingest.cdr_parse_s", "features.update_calls_self_s",
                    "features.update_topups_self_s", "features.finalize_s"),
            target_share_min=0.6,
        ),
        Workload(
            name="null-wide",
            why="many sectors, sparse calls and blanked survey cells: the shuffled-sector "
            "null at --threads 2 does most of the work, ingest little",
            synth=dict(n_sectors=200, users_per_sector=35, households_per_sector=25,
                       period_days=60, topup_events_mean=4.0, **SPARSE_CALLS, **SIGNAL),
            argv=("all", "--in", "{inp}", "--out", "{out}", "--seed", "{seed}",
                  "--trials", "600", "--threads", "2"),
            blank_share=0.1,
            target=("correlate.null_s",),
            target_share_min=0.6,
            smoke=dict(n_sectors=200, users_per_sector=35, households_per_sector=25,
                       period_days=40, topup_events_mean=4.0, **SPARSE_CALLS, **SIGNAL),
        ),
    )
}

# a smoke run's null trials; the rest of its argv is unchanged
SMOKE_TRIALS = "50"


def command_argv(workload: Workload, inp: Path, out: Path, seed: int, smoke: bool) -> list[str]:
    argv = [a.format(inp=inp, out=out, seed=seed) for a in workload.argv]
    if smoke and "--trials" in argv:
        argv[argv.index("--trials") + 1] = SMOKE_TRIALS
    return argv


def blank_survey(path: Path, seed: int, share: float) -> None:
    """Blank ``BLANKED_COLUMNS`` for every household in a seeded share of
    sectors."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    cols = [header.index(c) for c in BLANKED_COLUMNS]
    sectors = sorted({line.split(",", 2)[1] for line in lines[1:]})
    rng = np.random.default_rng([seed, 1])
    k = max(1, round(share * len(sectors)))
    chosen = {sectors[i] for i in rng.choice(len(sectors), size=k, replace=False)}
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.rstrip("\n").split(",")
        if cells[1] in chosen:
            for c in cols:
                cells[c] = ""
        out.append(",".join(cells) + "\n")
    path.write_text("".join(out), encoding="utf-8")


def set_up(workload: Workload, inp: Path, seed: int, smoke: bool) -> dict:
    """Generate the workload's inputs into ``inp`` (replacing what is
    there) and return the timings of each step in seconds."""
    from foodsec.synth import SynthConfig, generate

    shutil.rmtree(inp, ignore_errors=True)
    timings = {}
    t0 = time.perf_counter()
    generate(SynthConfig(seed=seed, **(workload.smoke if smoke else workload.synth)), inp)
    timings["synth.generate"] = time.perf_counter() - t0
    if workload.blank_share:
        t1 = time.perf_counter()
        blank_survey(inp / "survey.csv", seed, workload.blank_share)
        timings["blank"] = time.perf_counter() - t1
    timings["total"] = time.perf_counter() - t0
    return timings


def input_sizes(inp: Path) -> dict:
    """Data rows (lines minus the header) and bytes of every input CSV."""
    sizes = {}
    for path in sorted(inp.rglob("*.csv")):
        with open(path, "rb") as f:
            lines = sum(1 for _ in f)
        sizes[str(path.relative_to(inp))] = {"rows": max(lines - 1, 0),
                                            "bytes": path.stat().st_size}
    return sizes
