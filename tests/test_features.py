import math
from datetime import datetime, time, timedelta
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodsec.features import read_user_features, social_diversity, write_user_features
from foodsec.ingest import FormatError, StrictModeError, _night_flags
from oracle import (
    CallRecord,
    FeatureAccumulator,
    FeatureConfig,
    NoHomeError,
    TopUpRecord,
    UserFeatureVector,
    assign_home_tower,
    build_user_features,
    contact_diversity,
    feature_columns,
    feature_vectors,
    topup_features,
)


def call(tower, hour, minute=0, caller="u1", callee="u2", day=1):
    return CallRecord(caller, callee, tower, datetime(2012, 3, day, hour, minute))


def topup(amount, user="u1", day=1):
    return TopUpRecord(user, Decimal(amount), datetime(2012, 3, day, 12, 0))


def is_night(t: time, window: tuple[time, time]) -> bool:
    """``_night_flags`` of one UTC time of day, with no offset."""
    us = ((t.hour * 60 + t.minute) * 60 + t.second) * 10**6 + t.microsecond
    return bool(_night_flags([us], timedelta(0), window)[0])


class TestNightWindow:
    def test_wrapping_window(self):
        window = (time(18, 0), time(8, 0))
        assert is_night(time(18, 0), window)
        assert is_night(time(2, 30), window)
        assert is_night(time(7, 59, 59), window)
        assert not is_night(time(8, 0), window)
        assert not is_night(time(12, 0), window)
        assert not is_night(time(17, 59), window)

    def test_non_wrapping_window(self):
        window = (time(9, 0), time(17, 0))
        assert is_night(time(9, 0), window)
        assert not is_night(time(17, 0), window)
        assert not is_night(time(20, 0), window)


class TestAssignHomeTower:
    def test_single_night_call(self):
        assert assign_home_tower([call("t3", 19)]) == "t3"

    def test_daytime_majority_ignored(self):
        # 5 night calls from tA at 02:00 beat 10 daytime calls from tB.
        calls = [call("tA", 2, i) for i in range(5)] + [call("tB", 12, i) for i in range(10)]
        assert assign_home_tower(calls) == "tA"

    def test_tie_breaks_lexicographically(self):
        calls = [call("tB", 20, i) for i in range(3)] + [call("tA", 21, i) for i in range(3)]
        assert assign_home_tower(calls) == "tA"

    def test_no_calls_raises(self):
        with pytest.raises(NoHomeError):
            assign_home_tower([])

    def test_zero_night_calls_falls_back_to_all_hours(self):
        calls = [call("tB", 12, i) for i in range(3)] + [call("tA", 13, i) for i in range(1)]
        assert assign_home_tower(calls) == "tB"

    def test_all_hours_mode(self):
        calls = [call("tA", 2, i) for i in range(5)] + [call("tB", 12, i) for i in range(10)]
        assert assign_home_tower(calls, home_hours="all") == "tB"

    def test_utc_offset_shifts_window(self):
        # 17:00 UTC is 19:00 local at +120 minutes: a night call.
        assert assign_home_tower([call("tA", 17)], utc_offset_minutes=120) == "tA"

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(range(8)))
    def test_order_invariance(self, order):
        calls = [call("tA", 20, i) for i in range(3)] + [call("tB", 22, i) for i in range(3)] + [
            call("tC", 12, i) for i in range(2)
        ]
        shuffled = [calls[i] for i in order]
        assert assign_home_tower(shuffled) == assign_home_tower(calls)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(["tX", "tY", "tZ"]), min_size=1, max_size=10))
    def test_day_calls_never_change_home(self, day_towers):
        base = [call("tA", 20), call("tA", 21), call("tB", 23)]
        noisy = base + [call(t, 12, i % 60) for i, t in enumerate(day_towers)]
        assert assign_home_tower(noisy) == assign_home_tower(base)


class TestTopupFeatures:
    def test_single_amount(self):
        assert topup_features([topup("100")]) == (
            Decimal("100"),
            Decimal("100"),
            Decimal("100"),
            Decimal("100"),
            1,
        )

    def test_two_amounts(self):
        total, mean, lo, hi, count = topup_features([topup("100"), topup("300")])
        assert (total, mean, lo, hi, count) == (
            Decimal("400"),
            Decimal("200"),
            Decimal("100"),
            Decimal("300"),
            2,
        )

    def test_ten_small_credits(self):
        # Ten credits of size 50 behave like one credit of 500.
        total, mean, lo, hi, count = topup_features([topup("50") for _ in range(10)])
        assert (total, mean, lo, hi, count) == (
            Decimal("500"),
            Decimal("50"),
            Decimal("50"),
            Decimal("50"),
            10,
        )

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            topup_features([])

    def test_record_outside_period_raises(self):
        period = (datetime(2012, 1, 1), datetime(2012, 2, 1))
        with pytest.raises(StrictModeError):
            topup_features([topup("10")], period=period)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.decimals(min_value="0.01", max_value="9999.99", places=2),
            min_size=1,
            max_size=30,
        )
    )
    def test_invariants(self, amounts):
        total, mean, lo, hi, count = topup_features([topup(str(a)) for a in amounts])
        assert lo <= mean <= hi
        assert count == len(amounts)
        assert total == sum(amounts)
        assert float(mean) * count == pytest.approx(float(total), rel=1e-12)


def diversity(volumes):
    """The column rule over one user with the given contact volumes."""
    (value,) = social_diversity(np.array([0, len(volumes)]), np.array(volumes, dtype=np.int64))
    return float(value)


class TestSocialDiversity:
    def test_uniform_four_contacts_is_one(self):
        assert diversity([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_single_contact_is_zero(self):
        assert diversity([17]) == 0.0

    def test_three_one_split(self):
        # Direct evaluation: -(0.75 log2 0.75 + 0.25 log2 0.25) / log2 2.
        assert diversity([3, 1]) == pytest.approx(0.8113, abs=1e-4)

    def test_no_contacts_reads_nan(self):
        assert math.isnan(diversity([]))

    def test_zero_volume_raises(self):
        with pytest.raises(ValueError):
            diversity([0, 2])

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(1, 500), min_size=1, max_size=20))
    def test_bounds(self, volumes):
        d = diversity(volumes)
        assert 0.0 <= d <= 1.0

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.lists(st.integers(1, 60), max_size=7), max_size=12))
    def test_column_equals_the_rule_per_user(self, users):
        """Every user's value equals the per-user oracle bit for bit, and
        users without contacts read NaN."""
        bounds = np.cumsum([0, *map(len, users)])
        volumes = np.array([v for user in users for v in user], dtype=np.int64)
        assert list(map(repr, social_diversity(bounds, volumes).tolist())) == [
            repr(contact_diversity(user) if user else math.nan) for user in users]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 100))
    def test_uniform_attains_max(self, k, v):
        assert diversity([v] * k) == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 200), min_size=3, max_size=10), st.data())
    def test_equalizing_two_contacts_never_decreases(self, volumes, data):
        idx = data.draw(st.integers(0, len(volumes) - 2))
        a, b = volumes[idx], volumes[idx + 1]
        if (a + b) % 2:
            a, b = a + 1, b  # keep the mean-preserving split integral
        equalized = list(volumes)
        equalized[idx] = equalized[idx + 1] = (a + b) // 2
        volumes = volumes[:idx] + [a, b] + volumes[idx + 2 :]
        before = diversity(volumes)
        after = diversity(equalized)
        assert after >= before - 1e-12


TOWERS = {"t1": "s1", "t2": "s2"}


class TestBuildUserFeatures:
    def test_hand_composed_fixture(self):
        cdr = [
            CallRecord("u1", "u2", "t1", datetime(2012, 3, 1, 20, 0)),
            CallRecord("u1", "u3", "t1", datetime(2012, 3, 2, 23, 30)),
        ]
        topups = [topup("100"), topup("300", day=2)]
        vectors, exclusions = build_user_features(cdr, topups, TOWERS)
        assert len(vectors) == 1
        v = vectors[0]
        assert v.user_id == "u1"
        assert v.home_sector == "s1"
        assert (v.topup_sum, v.topup_mean, v.topup_min, v.topup_max, v.topup_count) == (
            Decimal("400"),
            Decimal("200"),
            Decimal("100"),
            Decimal("300"),
            2,
        )
        assert v.social_diversity == pytest.approx(1.0)  # two contacts, one call each
        assert exclusions["no_topups"] == 0

    def test_user_without_topups_excluded(self):
        cdr = [CallRecord("u1", "u2", "t1", datetime(2012, 3, 1, 20, 0))]
        vectors, exclusions = build_user_features(cdr, [], TOWERS)
        assert vectors == []
        assert exclusions["no_topups"] == 1

    def test_user_without_calls_excluded(self):
        vectors, exclusions = build_user_features([], [topup("10")], TOWERS)
        assert vectors == []
        assert exclusions["no_calls"] == 1

    def test_unmapped_home_tower_excluded(self):
        cdr = [CallRecord("u1", "u2", "t9", datetime(2012, 3, 1, 20, 0))]
        vectors, exclusions = build_user_features(cdr, [topup("10")], TOWERS)
        assert vectors == []
        assert exclusions["unmapped_home_tower"] == 1

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.text(st.characters(codec="utf-8", exclude_characters=',"\r\n'),
                            min_size=1, max_size=3), min_size=1, max_size=10, unique=True),
           st.data())
    def test_user_order_is_sorted_str_order(self, ids, data):
        """Users come out in ``sorted()`` order of their IDs, non-ASCII and
        astral-plane ones included, and an ID with a trailing NUL stays apart
        from the same ID without it."""
        ids += [i + "\0" for i in data.draw(st.lists(st.sampled_from(ids), unique=True))]
        callers = data.draw(st.lists(st.sampled_from(ids), unique=True))
        payers = data.draw(st.lists(st.sampled_from(ids), unique=True))
        cdr = [CallRecord(c, ids[0], "t1", datetime(2012, 3, 1, 20, 0)) for c in callers]
        vectors, exclusions = build_user_features(cdr, [topup("10", user=p) for p in payers],
                                                  TOWERS)
        both = set(callers) & set(payers)
        assert [v.user_id for v in vectors] == sorted(both)
        counts = {"no_calls": len(payers) - len(both), "no_topups": len(callers) - len(both)}
        assert dict(exclusions) == {reason: n for reason, n in counts.items() if n}

    def test_partitioned_processing_matches_single_pass(self):
        cdr = [
            CallRecord(f"u{i % 3}", f"u{(i + 1) % 3}", "t1" if i % 2 else "t2",
                       datetime(2012, 3, 1 + i % 5, (18 + i) % 24, i % 60))
            for i in range(40)
        ]
        topups = [topup(f"{10 + i}", user=f"u{i % 3}", day=1 + i % 9) for i in range(12)]
        single = FeatureAccumulator(FeatureConfig())
        single.update_calls(cdr)
        single.update_topups(topups)
        merged = FeatureAccumulator(FeatureConfig())
        for p in range(4):
            part = FeatureAccumulator(FeatureConfig())
            part.update_calls(cdr[p::4])
            part.update_topups(topups[p::4])
            merged.merge(part)
        assert single.finalize(TOWERS) == merged.finalize(TOWERS)
        assert build_user_features(cdr, topups, TOWERS) == single.finalize(TOWERS)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["u0", "u1", "u2"]),
                st.sampled_from(["u0", "u1"] + [f"c{i}" for i in range(7)]),
                st.sampled_from(["t1", "t2"]),
                st.integers(0, 47),
            ),
            min_size=1,
            max_size=80,
        ),
        st.data(),
    )
    def test_record_order_invariance(self, rows, data):
        # callers with many contacts of uneven volume, so diversity sums many
        # terms whose order must not matter
        cdr = [
            CallRecord(a, b, t, datetime(2012, 3, 1) + timedelta(hours=h)) for a, b, t, h in rows
        ]
        topups = [topup(f"{5 + i}", user=f"u{i % 3}") for i in range(6)]
        base = build_user_features(cdr, topups, TOWERS)
        order = data.draw(st.permutations(range(len(cdr))))
        shuffled = [cdr[i] for i in order]
        assert build_user_features(shuffled, list(reversed(topups)), TOWERS) == base
        parts = data.draw(st.lists(st.integers(0, 3), min_size=len(cdr), max_size=len(cdr)))
        merged = FeatureAccumulator()
        for part in range(4):
            acc = FeatureAccumulator()
            acc.update_calls([c for c, p in zip(shuffled, parts) if p == part])
            acc.update_topups(topups[part::4])
            merged.merge(acc)
        assert merged.finalize(TOWERS) == base

    def test_out_only_diversity_direction(self):
        cdr = [
            CallRecord("u1", "u2", "t1", datetime(2012, 3, 1, 20, 0)),
            CallRecord("u2", "u1", "t1", datetime(2012, 3, 1, 21, 0)),
            CallRecord("u2", "u3", "t1", datetime(2012, 3, 1, 22, 0)),
        ]
        topups = [topup("10", user="u1"), topup("10", user="u2")]
        config = FeatureConfig(diversity_direction="out")
        vectors, _ = build_user_features(cdr, topups, TOWERS, config)
        by_id = {v.user_id: v for v in vectors}
        assert by_id["u1"].social_diversity == 0.0  # one outgoing contact
        assert by_id["u2"].social_diversity == pytest.approx(1.0)  # u1 and u3 once each

    @pytest.mark.parametrize("setting", [dict(home_hours="day"),
                                         dict(diversity_direction="in")])
    def test_unknown_setting_is_refused(self, setting):
        cdr = [CallRecord("u1", "u2", "t1", datetime(2012, 3, 1, 20, 0))]
        with pytest.raises(ValueError):
            build_user_features(cdr, [topup("10")], TOWERS, FeatureConfig(**setting))


def test_user_features_csv_round_trip(tmp_path):
    vectors = [
        # undefined diversity must survive the round trip as None
        UserFeatureVector(
            "u1", "s1", Decimal("10.50"), Decimal("5.25"), Decimal("5"), Decimal("5.50"), 2, None
        ),
        UserFeatureVector(
            "u2", "s2", Decimal("7"), Decimal("7"), Decimal("7"), Decimal("7"), 1, 0.8112781244591328
        ),
    ]
    path = tmp_path / "user_features.csv"
    write_user_features(feature_columns(vectors), path)
    assert feature_vectors(read_user_features(path)) == vectors


FEATURES_CSV = ("user_id,home_sector,topup_sum,topup_mean,topup_min,topup_max,topup_count,"
                "social_diversity\nu1,s1,10.50,5.25,5,5.50,2,\nu2,s2,7,7,7,7,1,0.5\n")


@pytest.mark.parametrize("row, message", [
    ("u1,s2,7,7,7,7,1,0.5", "duplicate 'u1' at line 4"),
    (",s2,7,7,7,7,1,0.5", "malformed row at line 4"),
    ("u3,,7,7,7,7,1,0.5", "malformed row at line 4"),
])
def test_user_features_csv_refuses_a_repeated_or_empty_id(tmp_path, row, message):
    """A repeated user would count twice in every sector statistic."""
    path = tmp_path / "user_features.csv"
    path.write_text(f"{FEATURES_CSV}{row}\n")
    with pytest.raises(FormatError, match=f"^user_features: {message}$"):
        read_user_features(path)


def test_user_features_csv_refuses_a_money_cell_holding_a_line_break(tmp_path):
    """Every other cell of the column is written ``D+.DD``, and so are both
    lines of the quoted one; it is still one cell, and no number."""
    path = tmp_path / "user_features.csv"
    path.write_text(FEATURES_CSV.split("\n", 1)[0] + "\nu1,s1,10.50,5.25,5.00,5.50,2,\n"
                    'u2,s2,"7.00\n1.00",7.00,7.00,7.00,1,0.5\n')
    with pytest.raises(FormatError, match=r"^user_features: bad number '7.00\\n1.00' at line 4$"):
        read_user_features(path)
