"""Micro-benchmarks of the correlation kernel and the shuffled-sector null.

Run with ``PYTHONPATH=src python -m pytest tests/bench_null.py``; the file
name keeps it out of the default test run. Shapes follow the ``null-wide``
benchmark workload: 200 sectors, 20 mobile x 39 survey columns, 3 survey
columns blank in 10 % of sectors. The ``both`` case also blanks 2 mobile
columns, each in its own 5 % of sectors, so one batch of masked pairs holds
several cell counts. No timing is asserted.
"""

import numpy as np
import pytest

from foodsec.aggregate import SectorMatrix
from foodsec.correlate import _corr_kernel, join_sectors, shuffle_null

N_SECTORS = 200
BLANKED = (5, 17, 30)
MOBILE_BLANKED = (3, 11)


@pytest.fixture(scope="module", params=["survey", "both"])
def matrices(request):
    rng = np.random.default_rng(0)
    sectors = [f"s{i:03d}" for i in range(N_SECTORS)]
    x = rng.normal(size=(N_SECTORS, 20))
    y = rng.normal(size=(N_SECTORS, 39))
    y[np.ix_(rng.choice(N_SECTORS, N_SECTORS // 10, replace=False), BLANKED)] = np.nan
    if request.param == "both":
        for j in MOBILE_BLANKED:
            x[rng.choice(N_SECTORS, N_SECTORS // 20, replace=False), j] = np.nan
    counts = np.full(N_SECTORS, 40)
    mobile = SectorMatrix(sectors, [f"m{i}" for i in range(20)], x, counts)
    survey = SectorMatrix(sectors, [f"v{j}" for j in range(39)], y, counts)
    return mobile, survey


def test_corr_grid(benchmark, matrices):
    x, y = (m.values for m in join_sectors(*matrices))
    identity = np.arange(N_SECTORS)[None, :]
    r, _ = benchmark(lambda: _corr_kernel(x, y)(identity))
    assert r.shape == (1, 20, 39)


def test_one_null_trial(benchmark, matrices):
    x, y = (m.values for m in join_sectors(*matrices))
    grids = _corr_kernel(x, y)
    perm = np.random.default_rng(1).permutation(N_SECTORS)[None, :]
    r, _ = benchmark(grids, perm)
    assert np.isfinite(r).all()


def test_null_600_trials(benchmark, matrices):
    summary = benchmark.pedantic(
        shuffle_null, args=matrices, kwargs={"trials": 600, "seed": 1}, rounds=3
    )
    assert summary.trials == 600
