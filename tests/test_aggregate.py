import math
import re
import statistics
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodsec import aggregate
from foodsec.aggregate import (
    SectorMatrix,
    aggregate_sector,
    read_sector_matrix,
    write_sector_matrix,
)
from foodsec.ingest import FormatError
from oracle import UserFeatureVector, feature_columns


def build_sector_matrix(vectors, *args, **kwargs):
    """The package's matrix over user feature vectors."""
    return aggregate.build_sector_matrix(feature_columns(vectors), *args, **kwargs)


def vec(user, sector, total, diversity=0.5):
    d = Decimal(str(total))
    return UserFeatureVector(user, sector, d, d, d, d, 1, diversity)


class TestAggregateSector:
    def test_constant_values(self):
        out = aggregate_sector([2, 2, 2])
        assert out == {"mean": 2.0, "median": 2.0, "std": 0.0, "cv": 0.0}

    def test_hand_evaluated_four_values(self):
        # n-1 denominator: var([1,2,3,4]) = 5/3, std = 1.29099, cv = std/2.5.
        out = aggregate_sector([1, 2, 3, 4])
        assert out["mean"] == pytest.approx(2.5)
        assert out["median"] == pytest.approx(2.5)
        assert out["std"] == pytest.approx(1.29099, abs=1e-5)
        assert out["cv"] == pytest.approx(0.51640, abs=1e-5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate_sector([])

    def test_zero_mean_cv_undefined(self):
        out = aggregate_sector([-1, 0, 1])
        assert out["mean"] == 0.0
        assert out["cv"] is None

    def test_single_value_std_undefined(self):
        out = aggregate_sector([5])
        assert out["mean"] == 5.0
        assert out["std"] is None
        assert out["cv"] is None

    def test_even_count_median_is_midpoint(self):
        assert aggregate_sector([1, 2, 10, 11])["median"] == pytest.approx(6.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
            min_size=2,
            max_size=50,
        )
    )
    def test_matches_naive_reference(self, values):
        # Reference implementations from the stdlib, computed independently.
        out = aggregate_sector(values)
        assert out["mean"] == pytest.approx(statistics.fmean(values), rel=1e-10, abs=1e-10)
        assert out["median"] == pytest.approx(statistics.median(values), rel=1e-10, abs=1e-10)
        assert out["std"] == pytest.approx(statistics.stdev(values), rel=1e-10, abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False, width=32),
                              st.sampled_from([0.0, -0.0, 5e-324, -5e-324])),
                    min_size=1, max_size=40))
    def test_median_is_numpys_bit_for_bit(self, values):
        median = aggregate_sector(values)["median"]
        assert np.float64(median).tobytes() == np.median(np.array(values)).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=20),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariance(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        a = aggregate_sector(values)
        b = aggregate_sector(shuffled)
        for key in a:
            if a[key] is None:
                assert b[key] is None
            else:
                assert a[key] == pytest.approx(b[key], rel=1e-12, abs=1e-12)


class TestBuildSectorMatrix:
    def test_identical_users_give_zero_std(self):
        users = [vec(f"u{i}", "s1", 100) for i in range(3)] + [
            vec(f"v{i}", "s2", 40) for i in range(3)
        ]
        matrix, excluded = build_sector_matrix(users, min_users=1)
        assert excluded == {}
        assert matrix.sectors == ["s1", "s2"]
        for column in matrix.columns:
            if column.endswith(".std"):
                assert matrix.column(column).tolist() == [0.0, 0.0]

    def test_hand_arithmetic_single_sector(self):
        users = [vec("u1", "s1", 100), vec("u2", "s1", 200), vec("u3", "s1", 300)]
        matrix, _ = build_sector_matrix(users, min_users=1)
        assert matrix.column("topup_sum.mean")[0] == pytest.approx(200.0)
        assert matrix.column("topup_sum.median")[0] == pytest.approx(200.0)
        assert matrix.column("topup_sum.std")[0] == pytest.approx(100.0)
        assert matrix.column("topup_sum.cv")[0] == pytest.approx(0.5)
        assert matrix.counts.tolist() == [3]

    def test_min_users_threshold_excludes(self):
        users = [vec(f"u{i}", "s1", 10) for i in range(5)] + [vec("w0", "s2", 10)]
        matrix, excluded = build_sector_matrix(users, min_users=2)
        assert matrix.sectors == ["s1"]
        assert excluded == {"s2": 1}

    def test_removing_a_sector_leaves_others_untouched(self):
        users = [vec(f"u{i}", "s1", 100 + i) for i in range(4)] + [
            vec(f"v{i}", "s2", 50 + 3 * i) for i in range(4)
        ]
        full, _ = build_sector_matrix(users, min_users=1)
        only_s1, _ = build_sector_matrix([u for u in users if u.home_sector == "s1"], min_users=1)
        i = full.sectors.index("s1")
        assert np.array_equal(full.values[i], only_s1.values[0], equal_nan=True)

    def test_undefined_diversity_excluded_pairwise(self):
        users = [
            vec("u1", "s1", 100, diversity=None),
            vec("u2", "s1", 200, diversity=0.5),
            vec("u3", "s1", 300, diversity=0.7),
        ]
        matrix, _ = build_sector_matrix(users, min_users=1)
        assert matrix.column("social_diversity.mean")[0] == pytest.approx(0.6)
        assert matrix.column("topup_sum.mean")[0] == pytest.approx(200.0)

    def test_column_pruning(self):
        users = [vec(f"u{i}", "s1", 100 + i) for i in range(3)]
        matrix, _ = build_sector_matrix(
            users, min_users=1, columns=["topup_sum.mean", "social_diversity.cv"]
        )
        assert matrix.columns == ["topup_sum.mean", "social_diversity.cv"]

    def test_unknown_column_rejected(self):
        for columns, fault in ((["bogus.mean"], "unknown"), ([], "an empty"),
                               (["topup_sum.mean", ""], "an empty"),
                               (["topup_sum.mean"] * 2, "repeated")):
            with pytest.raises(ValueError, match=f"config key 'columns': {fault}"):
                build_sector_matrix([vec("u1", "s1", 1)], min_users=1, columns=columns)

    @settings(max_examples=20, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_user_order_invariance(self, rnd):
        users = [vec(f"u{i}", f"s{i % 3}", 10 + i, diversity=(i % 5) / 5) for i in range(30)]
        shuffled = list(users)
        rnd.shuffle(shuffled)
        a, _ = build_sector_matrix(users, min_users=1)
        b, _ = build_sector_matrix(shuffled, min_users=1)
        assert a.sectors == b.sectors
        assert np.array_equal(a.values, b.values, equal_nan=True)


def test_sector_matrix_round_trip(tmp_path):
    matrix = SectorMatrix(
        sectors=["s1", "s2"],
        columns=["a.mean", "a.cv"],
        values=np.array([[1.5, math.nan], [2.25, 0.125]]),
        counts=np.array([31, 45]),
    )
    path = tmp_path / "matrix.csv"
    write_sector_matrix(matrix, path)
    again = read_sector_matrix(path)
    assert again.sectors == matrix.sectors
    assert again.columns == matrix.columns
    assert np.array_equal(again.values, matrix.values, equal_nan=True)
    assert np.array_equal(again.counts, matrix.counts)


@pytest.mark.parametrize("row, message", [
    ("s1,2.5,40", "duplicate 's1' at line 4"),
    (",2.5,40", "malformed row at line 4"),
])
def test_sector_matrix_refuses_a_repeated_or_empty_sector(tmp_path, row, message):
    """A repeated sector would leave the join to keep whichever row it met last."""
    path = tmp_path / "matrix.csv"
    path.write_text(f"sector_id,a.mean,n_users\ns1,1.5,31\ns2,,45\n{row}\n")
    with pytest.raises(FormatError, match=f"^sector matrix {re.escape(str(path))}: {message}$"):
        read_sector_matrix(path)


def test_sector_matrix_header_error_comes_before_a_row_error(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text("sector,a.mean,n_users\ns1,1.5\n")
    with pytest.raises(FormatError, match=r"expected 'sector_id,\.\.\.,n_users' header"):
        read_sector_matrix(path)
