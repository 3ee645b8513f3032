"""Micro-benchmark of the synthetic data generator.

Run with ``PYTHONPATH=src python -m pytest tests/bench_synth.py``; the file
name keeps it out of the default test run. The configs have the shapes of
the ``c01`` benchmark workload (200 sectors x 40 users x 30 households, 182
days: about 255 k calls and 80 k top-ups) and of ``null-wide`` (200 x 35 x
25, 60 days, sparse calls, about 4 top-ups per user), at seed 1. No timing
is asserted.
"""

import pytest

from foodsec.synth import SynthConfig, generate

SIGNAL = dict(planted_r=0.9, topup_base=2000.0)
SHAPES = {
    "c01": dict(n_sectors=200, users_per_sector=40, households_per_sector=30, period_days=182,
                verify_p_max=1e-15, **SIGNAL),
    "null-wide": dict(n_sectors=200, users_per_sector=35, households_per_sector=25,
                      period_days=60, topup_events_mean=4.0, night_calls_min=8,
                      night_calls_extra_mean=2.0, day_calls_mean=2.0, **SIGNAL),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_generate(benchmark, tmp_path, shape):
    paths = benchmark(generate, SynthConfig(seed=1, **SHAPES[shape]), tmp_path)
    assert paths["cdr"].stat().st_size > 0
