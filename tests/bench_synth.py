"""Micro-benchmark of the synthetic data generator, serial against forked.

Run with ``PYTHONPATH=src python -m pytest -s tests/bench_synth.py``; the
file name keeps it out of the default test run. The configs have the shapes
of the ``c01`` benchmark workload (200 sectors x 40 users x 30 households,
182 days: about 255 k calls and 80 k top-ups), of ``null-wide`` (200 x 35 x
25, 60 days, sparse calls, about 4 top-ups per user), both at seed 1, and of
full c01 (200 x 500 x 30, 182 days: about 3.2 M calls and 1 M top-ups) at
seed 7. Three small shapes (4 sectors of 25, 75 and 150 users, the other
settings at their defaults, seed 3) bracket ``FORK_MIN_USERS``. Each shape
is generated on the in-process path (``FORK_MIN_USERS`` above its size) and
on the forked path (``FORK_MIN_USERS`` at 0), in alternating order, and the
medians and their ratio are printed. No timing is asserted. On a checkout
whose generator has no forked path both rows time its one path, which gives
the base for a before/after comparison.
"""

import shutil
import statistics
import time

import pytest

from foodsec import synth
from foodsec.synth import SynthConfig, generate

SIGNAL = dict(planted_r=0.9, topup_base=2000.0)
SHAPES = {
    "c01": (1, 5, dict(n_sectors=200, users_per_sector=40, households_per_sector=30,
                       period_days=182, verify_p_max=1e-15, **SIGNAL)),
    "null-wide": (1, 5, dict(n_sectors=200, users_per_sector=35, households_per_sector=25,
                             period_days=60, topup_events_mean=4.0, night_calls_min=8,
                             night_calls_extra_mean=2.0, day_calls_mean=2.0, **SIGNAL)),
    "full-c01": (7, 2, dict(n_sectors=200, users_per_sector=500, households_per_sector=30,
                            period_days=182)),
    **{f"users-{4 * users}": (3, 10, dict(n_sectors=4, users_per_sector=users))
       for users in (25, 75, 150)},
}


@pytest.mark.parametrize("shape", SHAPES)
def test_generate_serial_and_forked(monkeypatch, tmp_path, shape):
    seed, pairs, settings = SHAPES[shape]
    cfg = SynthConfig(seed=seed, **settings)
    thresholds = {"serial": cfg.n_sectors * cfg.users_per_sector + 1, "forked": 0}
    times = {path: [] for path in thresholds}
    for pair in range(pairs):
        for path in sorted(thresholds, reverse=pair % 2 == 1):
            monkeypatch.setattr(synth, "FORK_MIN_USERS", thresholds[path], raising=False)
            t0 = time.perf_counter()
            paths = generate(cfg, tmp_path / path)
            times[path].append(time.perf_counter() - t0)
            assert paths["cdr"].stat().st_size > 0
            shutil.rmtree(tmp_path / path)
    serial, forked = (statistics.median(times[path]) for path in ("serial", "forked"))
    print(f"\n{shape}: serial {serial:.3f} s, forked {forked:.3f} s (median of {pairs}), "
          f"forked/serial {forked / serial:.3f}")
