"""Micro-benchmarks of the feature, aggregate and rolling layers.

Run with ``PYTHONPATH=src python -m pytest tests/bench_features.py -s``; the
file name keeps it out of the default test run. The input has the shape of
the ``c01`` benchmark workload (200 sectors x 40 users x 30 households, 182
days: about 255 k calls, 80 k top-ups and 8 k users), generated once per
session by ``foodsec.synth``. Each function that reads top-ups runs on them
as written (every amount ``D+.DD``, so carried as cents) and on a copy whose
first amount has a third decimal, so the whole file is carried as
``Decimal``; ``social_diversity`` reads only the calls.

pytest-benchmark times each call; one more call under ``tracemalloc``
gives its peak of traced memory, printed and kept in the benchmark's
``extra_info`` as ``peak_mib``. No timing or size is asserted.
"""

import tracemalloc

import pytest

from foodsec.aggregate import build_sector_matrix
from foodsec.features import contact_volumes, social_diversity, user_features
from foodsec.ingest import load_tower_map, read_cdr, read_topups
from foodsec.rolling import rolling_sector_series
from foodsec.synth import SynthConfig, generate

C01 = dict(n_sectors=200, users_per_sector=40, households_per_sector=30, period_days=182,
           planted_r=0.9, topup_base=2000.0)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("c01")
    paths = generate(SynthConfig(seed=1, **C01), out)
    header, first, rest = paths["topup"].read_text().split("\n", 2)
    user, amount, stamp = first.split(",")
    (out / "topup_decimal.csv").write_text(f"{header}\n{user},{amount}0,{stamp}\n{rest}")
    calls = read_cdr(paths["cdr"])
    tower_map = load_tower_map(paths["towers"])
    result = {}
    for money, name in (("cents", "topup.csv"), ("decimal", "topup_decimal.csv")):
        topups = read_topups(out / name)
        assert (topups.amount.dtype == object) == (money == "decimal")
        features, _ = user_features(calls, topups, tower_map)
        result[money] = dict(calls=calls, topups=topups, tower_map=tower_map,
                             features=features, home=features.home_sectors())
    return result


def measure(benchmark, fn, *args):
    """Time ``fn(*args)``, then record the traced peak of one more call."""
    result = benchmark(fn, *args)
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    benchmark.extra_info["peak_mib"] = round(peak, 2)
    print(f"\n{benchmark.name}: tracemalloc peak {peak:.2f} MiB")
    return result


MONEY = ["cents", "decimal"]


@pytest.mark.parametrize("money", MONEY)
def test_user_features(benchmark, inputs, money):
    data = inputs[money]
    features, _ = measure(benchmark, user_features, data["calls"], data["topups"],
                          data["tower_map"])
    assert len(features) > 7_000


def test_social_diversity(benchmark, inputs):
    calls = inputs["cents"]["calls"]
    diversity = measure(benchmark, social_diversity, *contact_volumes(calls))
    assert len(diversity) == len(calls.users)


@pytest.mark.parametrize("money", MONEY)
def test_build_sector_matrix(benchmark, inputs, money):
    matrix, _ = measure(benchmark, build_sector_matrix, inputs[money]["features"])
    assert len(matrix) == C01["n_sectors"]


@pytest.mark.parametrize("money", MONEY)
def test_rolling_sector_series(benchmark, inputs, money):
    data = inputs[money]
    series = measure(benchmark, rolling_sector_series, data["topups"], data["home"])
    assert len(series) == C01["n_sectors"]
