"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The statistical criteria run on pinned-seed
synthetic datasets sized per the stated configurations; the seeds are fixed
so the suite is deterministic.
"""

import math
import time
import tracemalloc
from datetime import date, datetime, timedelta
from decimal import Decimal

import numpy as np
import pytest
from scipy.integrate import quad

from foodsec.aggregate import build_sector_matrix
from foodsec.cli import main
from foodsec.correlate import fisher_ci, pearson, pearson_p, read_correlations, shuffle_null
from foodsec import rolling
from foodsec.features import user_features
from foodsec.indices import (
    DEFAULT_FCS_WEIGHTS,
    build_survey_matrix,
    food_consumption_score,
    multidimensional_poverty_index,
)
from foodsec.ingest import RowErrorLog, load_survey, load_tower_map, read_cdr, read_topups
from foodsec.models import fit_from_matrices
from foodsec.rolling import window_label
from foodsec.synth import SynthConfig, generate, read_truth
from oracle import CallRecord, TopUpRecord, assign_home_tower, topup_columns


def rolling_sector_series(records, *args, **kwargs):
    return rolling.rolling_sector_series(topup_columns(records), *args, **kwargs)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")


def mini_pipeline(paths, min_users=30):
    tower_map = load_tower_map(paths["towers"])
    features, _ = user_features(read_cdr(paths["cdr"]), read_topups(paths["topup"]), tower_map)
    mobile, _ = build_sector_matrix(features, min_users=min_users)
    table = load_survey(paths["survey"], paths["survey_meta"])
    survey, _, _ = build_survey_matrix(table)
    return features, mobile, survey


@pytest.fixture(scope="module")
def dataset1(tmp_path_factory):
    """Criterion 1's configuration: 200 sectors x 500 users, planted r*=0.8."""
    base = tmp_path_factory.mktemp("dataset1")
    cfg = SynthConfig(
        seed=7,
        n_sectors=200,
        users_per_sector=500,
        households_per_sector=30,
        period_days=182,
        verify_p_max=1e-15,
    )
    paths = generate(cfg, base / "in")
    out = base / "out"
    started = time.perf_counter()
    rc = main(
        ["all", "--in", str(base / "in"), "--out", str(out), "--seed", "7",
         "--trials", "1000"]
    )
    elapsed = time.perf_counter() - started
    assert rc == 0
    return cfg, paths, out, elapsed


@pytest.fixture(scope="module")
def dataset1_correlations(dataset1):
    _, _, out, _ = dataset1
    return {(e.mobile_var, e.survey_var): e for e in read_correlations(out / "correlations.csv")}


def test_c01_planted_correlation_recovery(dataset1, dataset1_correlations):
    """Full `all` chain recovers the planted r*=0.8 with p < 1e-15 in time."""
    _, _, _, elapsed = dataset1
    entry = dataset1_correlations[("topup_sum.mean", "food_expenditure")]
    ok = entry.defined and abs(entry.r - 0.8) <= 0.05 and entry.p < 1e-15 and elapsed < 120
    report(
        "1: planted-correlation recovery",
        ok,
        f"r={entry.r:.4f} (target 0.8 +/- 0.05), p={entry.p:.3g} (< 1e-15), "
        f"`all` wall time {elapsed:.1f}s (< 120s)",
    )
    assert ok


def test_c02_food_group_ordering(dataset1, dataset1_correlations):
    """Recovered item correlations keep the planted group ordering."""
    _, paths, _, _ = dataset1
    truth = read_truth(paths["truth"])
    groups: dict[str, list[float]] = {}
    for _, name, _, group in truth["food_item"]:
        if group in ("high", "middle", "low", "negative"):
            entry = dataset1_correlations[("topup_sum.mean", name)]
            assert entry.defined, name
            groups.setdefault(group, []).append(entry.r)
    sizes = {g: len(v) for g, v in groups.items()}
    assert sizes == {"high": 5, "middle": 5, "low": 10, "negative": 1}
    boundaries = [
        min(groups["high"]) > max(groups["middle"]),
        min(groups["middle"]) > max(groups["low"]),
        min(groups["low"]) > max(groups["negative"]),
    ]
    negative_ok = groups["negative"][0] < -0.2
    ok = all(boundaries) and negative_ok
    report(
        "2: food-group ordering",
        ok,
        f"high [{min(groups['high']):.3f},{max(groups['high']):.3f}] > "
        f"middle [{min(groups['middle']):.3f},{max(groups['middle']):.3f}] > "
        f"low [{min(groups['low']):.3f},{max(groups['low']):.3f}] > "
        f"negative {groups['negative'][0]:.3f} (< -0.2); zero boundary inversions",
    )
    assert ok


@pytest.fixture(scope="module")
def null_scaling(tmp_path_factory):
    """Dataset-1-family configs at 100 and 400 sectors for the null checks.

    The shuffled-sector null depends on the sector count, not on the user
    population, so the per-sector sizes are reduced to keep the suite fast.
    """
    out = {}
    for n_sectors, seed in ((100, 7), (400, 7)):
        base = tmp_path_factory.mktemp(f"null{n_sectors}")
        cfg = SynthConfig(
            seed=seed,
            n_sectors=n_sectors,
            users_per_sector=60,
            households_per_sector=25,
            period_days=90,
            night_calls_min=8,
            night_calls_extra_mean=2.0,
            day_calls_mean=2.0,
            topup_events_mean=4.0,
        )
        paths = generate(cfg, base)
        _, mobile, survey = mini_pipeline(paths)
        out[n_sectors] = shuffle_null(mobile, survey, trials=1000, seed=99)
    return out


def test_c03_shuffle_null(null_scaling):
    """Null |r| stays small and shrinks like 1/sqrt(n_sectors)."""
    p99_100 = null_scaling[100].abs_r_p99
    p99_400 = null_scaling[400].abs_r_p99
    ratio = p99_400 / p99_100
    ok = p99_100 < 0.35 and 0.5 * 0.7 <= ratio <= 0.5 * 1.3
    report(
        "3: shuffle null",
        ok,
        f"p99(100 sectors)={p99_100:.4f} (< 0.35); p99(400)={p99_400:.4f}; "
        f"ratio {ratio:.3f} within 0.5 +/- 30%",
    )
    assert ok


@pytest.fixture(scope="module")
def quadratic_matrices(tmp_path_factory):
    base = tmp_path_factory.mktemp("quad")
    cfg = SynthConfig(
        seed=31,
        n_sectors=200,
        users_per_sector=120,
        households_per_sector=30,
        period_days=90,
        night_calls_min=8,
        night_calls_extra_mean=2.0,
        day_calls_mean=2.0,
        topup_events_mean=4.0,
        expense_link="quadratic",
        expense_base=400.0,
        planted_fit_r=0.89,
    )
    paths = generate(cfg, base)
    _, mobile, survey = mini_pipeline(paths)
    return mobile, survey


def test_c04_quadratic_model_target(quadratic_matrices):
    """Degree-2 fit lands in the planted 0.89 band; degree 1 scores lower."""
    mobile, survey = quadratic_matrices
    variables = ["topup_sum.mean", "topup_mean.mean"]
    quadratic, _, _ = fit_from_matrices(mobile, survey, "food_expenditure", 2, variables)
    linear, _, _ = fit_from_matrices(mobile, survey, "food_expenditure", 1, variables)
    ok = 0.84 <= quadratic.fit_r <= 0.94 and linear.fit_r < quadratic.fit_r
    report(
        "4: quadratic model target",
        ok,
        f"degree-2 fit_r={quadratic.fit_r:.4f} in [0.84, 0.94]; "
        f"degree-1 fit_r={linear.fit_r:.4f} strictly lower",
    )
    assert ok


def pearson_textbook(x, y):
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    num = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = math.fsum((a - mx) ** 2 for a in x)
    dy = math.fsum((b - my) ** 2 for b in y)
    return num / math.sqrt(dx * dy)


def t_tail_by_quadrature(t_stat, df):
    def density(t):
        c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
        return c * (1 + t * t / df) ** (-(df + 1) / 2)

    tail, _ = quad(density, abs(t_stat), math.inf)
    return 2 * tail


def test_c05_statistical_kernels_vs_oracles():
    """pearson vs direct definition, p vs quadrature, CI coverage."""
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 120))
        x = rng.normal(size=n) * rng.uniform(0.01, 1000)
        y = rng.normal(size=n) + rng.uniform(-2, 2) * x / max(1.0, np.abs(x).max())
        r = pearson(x, y)
        reference = pearson_textbook(x, y)
        worst = max(worst, abs(r - reference) / max(abs(reference), 1e-12))
        if abs(reference) > 1e-9:
            assert math.isclose(r, reference, rel_tol=1e-12, abs_tol=1e-12)

    p_worst = 0.0
    for r, n in [(0.1, 10), (0.3, 25), (0.5, 30), (0.7, 50), (0.9, 12), (-0.45, 40), (0.05, 200)]:
        t_stat = r * math.sqrt((n - 2) / (1 - r * r))
        p_worst = max(p_worst, abs(pearson_p(r, n) - t_tail_by_quadrature(t_stat, n - 2)))
    assert p_worst < 2e-4

    sims, n, true_r = 10_000, 50, 0.5
    z1 = rng.standard_normal((sims, n))
    z2 = rng.standard_normal((sims, n))
    x = z1
    y = true_r * z1 + math.sqrt(1 - true_r**2) * z2
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    rs = (xc * yc).sum(axis=1) / np.sqrt((xc**2).sum(axis=1) * (yc**2).sum(axis=1))
    covered = sum(1 for r in rs if fisher_ci(float(r), n)[0] <= true_r <= fisher_ci(float(r), n)[1])
    coverage = covered / sims
    ok = worst < 1e-12 and p_worst < 2e-4 and 0.93 <= coverage <= 0.97
    report(
        "5: statistical kernels vs oracles",
        ok,
        f"pearson worst rel dev {worst:.2e} (< 1e-12 on 1000 pairs); "
        f"p-value worst abs dev {p_worst:.2e} (< 2e-4); "
        f"CI coverage {coverage:.4f} in [0.93, 0.97] over 10000 draws",
    )
    assert ok


def test_c06_index_kernels():
    """FCS range; MPI is an exact product."""
    top = food_consumption_score({g: 7 for g in DEFAULT_FCS_WEIGHTS})
    bottom = food_consumption_score({g: 0 for g in DEFAULT_FCS_WEIGHTS})
    rng = np.random.default_rng(99)
    exact = True
    for _ in range(1000):
        h = float(rng.uniform(0, 1))
        a = float(rng.uniform(0, 1))
        exact = exact and multidimensional_poverty_index(h, a) == h * a
    ok = top == 112.0 and bottom == 0.0 and exact
    report(
        "6: index kernels",
        ok,
        f"FCS(all 7)={top} (= 112 exactly), FCS(all 0)={bottom}; "
        f"MPI == H*A exactly on 1000 random cases",
    )
    assert ok


def test_c07_home_location_rule(dataset1):
    """>= 95% home-sector accuracy; day-only decoys never flip a home."""
    _, paths, out, _ = dataset1
    truth_homes = {k: v for _, k, v, _ in read_truth(paths["truth"])["user_home"]}
    from foodsec.features import read_user_features

    homes = read_user_features(out / "user_features.csv").home_sectors()
    hits = sum(1 for user, sector in homes.items() if truth_homes.get(user) == sector)
    accuracy = hits / len(homes)

    night = [CallRecord("u", "v", "tA", datetime(2012, 1, 1 + i, 20, 0)) for i in range(5)]
    decoys = [CallRecord("u", "v", "tDecoy", datetime(2012, 1, 1 + i % 20, 12, 0)) for i in range(60)]
    unchanged = assign_home_tower(night + decoys) == assign_home_tower(night) == "tA"

    ok = accuracy >= 0.95 and unchanged
    report(
        "7: home-location rule",
        ok,
        f"accuracy {accuracy:.4f} over {len(homes)} users (>= 0.95, p_home=0.8, "
        f">= 20 night calls); daytime decoy calls changed nothing",
    )
    assert ok


def test_c08_rolling_window():
    """Incremental 30-day series is bit-equal to naive recomputation."""
    rng = np.random.default_rng(77)
    start = date(2012, 1, 1)
    n_records = 100_000
    users = [f"u{i:03d}" for i in range(300)]
    home = {u: f"s{i % 3}" for i, u in enumerate(users)}
    records = []
    days = rng.integers(0, 120, n_records)
    cents = rng.integers(1, 500_000, n_records)
    picks = rng.integers(0, len(users), n_records)
    for i in range(n_records):
        stamp = datetime(2012, 1, 1, 8, 0) + timedelta(days=int(days[i]))
        records.append(TopUpRecord(users[picks[i]], Decimal(int(cents[i])) / 100, stamp))
    period = (start, start + timedelta(days=120))
    series = rolling_sector_series(records, home, period, window_days=30)

    # Naive oracle: independent daily buckets, every window summed afresh.
    buckets: dict[str, dict[int, Decimal]] = {}
    active: dict[str, set] = {}
    for r in records:
        sector = home[r.user_id]
        day = (r.timestamp.date() - start).days
        buckets.setdefault(sector, {})
        buckets[sector][day] = buckets[sector].get(day, Decimal(0)) + r.amount
        active.setdefault(sector, set()).add(r.user_id)
    exact = True
    for s in series:
        n_users = len(active[s.sector_id])
        by_day = buckets[s.sector_id]
        for w, (label, value) in enumerate(s.points):
            window_total = sum((by_day.get(d, Decimal(0)) for d in range(w, w + 30)), Decimal(0))
            if value != window_total / n_users or label != window_label(
                start + timedelta(days=w), 30
            ):
                exact = False

    december = rolling_sector_series(
        [TopUpRecord("u1", Decimal(90), datetime(2012, 12, 3, 9, 0))],
        {"u1": "s1"},
        (date(2012, 12, 1), date(2012, 12, 31)),
        window_days=30,
    )
    label_ok = december[0].points[0][0] == date(2012, 12, 15)

    ok = exact and label_ok
    report(
        "8: rolling window",
        ok,
        f"incremental == naive bit-for-bit on {n_records} records x "
        f"{len(series[0].points)} windows x {len(series)} sectors; "
        f"1-30 Dec window labeled 15 Dec",
    )
    assert ok


def test_c09_determinism_and_threads(small_dataset, tmp_path):
    """Byte-identical artifacts across re-runs and --threads 1 vs 8."""
    cfg, paths = small_dataset
    in_dir = paths["cdr"].parent

    regen = generate(cfg, tmp_path / "regen")
    synth_ok = all(
        regen[key].read_bytes() == paths[key].read_bytes() for key in regen
    )

    base = ["all", "--in", str(in_dir), "--seed", "3", "--trials", "50", "--min-users", "5"]
    assert main(base + ["--out", str(tmp_path / "a"), "--threads", "1"]) == 0
    assert main(base + ["--out", str(tmp_path / "b"), "--threads", "8"]) == 0
    assert main(base + ["--out", str(tmp_path / "c"), "--threads", "1"]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    all_ok = all(
        (tmp_path / "a" / n).read_bytes()
        == (tmp_path / "b" / n).read_bytes()
        == (tmp_path / "c" / n).read_bytes()
        for n in names
    )
    ok = synth_ok and all_ok
    report(
        "9: determinism and parallel safety",
        ok,
        f"synth re-run byte-identical over {len(regen)} files; `all` byte-identical "
        f"across re-runs and --threads 1 vs 8 over {len(names)} artifacts",
    )
    assert ok


def test_c10_streaming_ingest(tmp_path):
    """A million-row CDR parses under a fixed memory ceiling, no row lost."""
    path = tmp_path / "big_cdr.csv"
    n_rows = 1_000_000
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("caller_id,callee_id,tower_id,timestamp\n")
        for i in range(n_rows):
            if i % 100_000 == 50_000:
                f.write(f"u{i % 9973},u{(i * 7) % 9973},t{i % 311},broken\n")
            else:
                f.write(
                    f"u{i % 9973},u{(i * 7) % 9973},t{i % 311},"
                    f"2012-0{1 + i % 6}-0{1 + i % 9}T{i % 24:02d}:{i % 60:02d}:05Z\n"
                )
    ceiling_mb = 16.0
    tracemalloc.start()
    errors = RowErrorLog()
    baseline = tracemalloc.get_traced_memory()[0]
    records_out = len(read_cdr(path, errors))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    used_mb = (peak - baseline) / 2**20
    conserved = records_out + errors.count == n_rows
    ok = used_mb < ceiling_mb and conserved
    report(
        "10: streaming ingest",
        ok,
        f"peak traced memory {used_mb:.2f} MiB (< {ceiling_mb} MiB fixed ceiling); "
        f"{records_out} records + {errors.count} row errors = {n_rows} rows in",
    )
    assert ok
