import io
import itertools
from datetime import date, datetime, timedelta
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodsec import rolling
from foodsec.ingest import FormatError
from foodsec.rolling import emit_overlay, load_stock_series, window_label, write_rolling
from oracle import TopUpRecord, topup_columns


def rolling_sector_series(records, *args, **kwargs):
    """The package's series over top-up records, read back from CSV."""
    return rolling.rolling_sector_series(topup_columns(records), *args, **kwargs)


def topup(user, amount, day, month=1, year=2012):
    return TopUpRecord(user, Decimal(str(amount)), datetime(year, month, day, 12, 0))


HOME = {"u1": "s1", "u2": "s1", "u3": "s2"}


def naive_series(topups, home, period, window_days, denominator="period"):
    """Brute-force recomputation: every window summed and counted from scratch;
    a window without users has no value under the per-window denominator."""
    start, end = period
    n_days = (end - start).days
    by_sector = {}
    users = {}
    for rec in topups:
        sector = home.get(rec.user_id)
        if sector is None:
            continue
        by_sector.setdefault(sector, []).append(rec)
        users.setdefault(sector, set()).add(rec.user_id)
    out = {}
    for sector, records in sorted(by_sector.items()):
        n_users = len(users[sector])
        points = []
        for w in range(n_days - window_days + 1):
            lo = start + timedelta(days=w)
            hi = lo + timedelta(days=window_days)
            inside = [r for r in records if lo <= r.timestamp.date() < hi]
            total = sum((r.amount for r in inside), Decimal(0))
            if denominator == "window":
                active = len({r.user_id for r in inside})
                value = total / active if active else None
            else:
                value = total / n_users
            points.append((window_label(lo, window_days), value))
        out[sector] = (n_users, points)
    return out


class TestWindowLabel:
    def test_thirty_day_december_window(self):
        # Window covering 1..30 Dec is labeled the 15th.
        assert window_label(date(2012, 12, 1), 30) == date(2012, 12, 15)

    def test_odd_window(self):
        assert window_label(date(2012, 12, 1), 31) == date(2012, 12, 16)

    def test_single_day_window(self):
        assert window_label(date(2012, 12, 1), 1) == date(2012, 12, 1)


class TestRollingSeries:
    def test_single_topup_appears_in_containing_windows_only(self):
        period = (date(2012, 1, 1), date(2012, 3, 1))  # 60 days
        series = rolling_sector_series([topup("u1", 300, 10)], {"u1": "s1"}, period, 30)
        (s,) = series
        assert s.n_users == 1
        for label, value in s.points:
            window_start = label - timedelta(days=14)
            covers_day_10 = window_start <= date(2012, 1, 10) < window_start + timedelta(days=30)
            assert value == (Decimal(300) if covers_day_10 else Decimal(0))

    def test_two_users_average(self):
        period = (date(2012, 1, 1), date(2012, 1, 31))
        series = rolling_sector_series(
            [topup("u1", 100, 5), topup("u2", 300, 20)], HOME, period, 30
        )
        (s,) = series
        assert s.points[0][1] == Decimal(200)

    def test_denominator_counts_all_period_active_users(self):
        # u2 tops up only late: still in every window's denominator.
        period = (date(2012, 1, 1), date(2012, 3, 1))
        series = rolling_sector_series(
            [topup("u1", 100, 2), topup("u2", 500, 28, month=2)], HOME, period, 30
        )
        (s,) = series
        assert s.n_users == 2
        assert s.points[0][1] == Decimal(50)

    def test_window_denominator_mode(self):
        period = (date(2012, 1, 1), date(2012, 3, 1))
        series = rolling_sector_series(
            [topup("u1", 100, 2), topup("u2", 500, 28, month=2)],
            HOME,
            period,
            30,
            denominator="window",
        )
        (s,) = series
        assert s.points[0][1] == Decimal(100)

    def test_period_inferred_from_data(self):
        series = rolling_sector_series(
            [topup("u1", 60, 1), topup("u1", 40, 30)], {"u1": "s1"}, None, 30
        )
        (s,) = series
        assert len(s.points) == 1
        assert s.points[0] == (date(2012, 1, 15), Decimal(100))

    def test_users_without_home_skipped(self):
        period = (date(2012, 1, 1), date(2012, 1, 31))
        series = rolling_sector_series([topup("zz", 100, 5)], HOME, period, 30)
        assert series == []

    def test_out_of_period_rejected(self):
        period = (date(2012, 1, 1), date(2012, 1, 31))
        with pytest.raises(ValueError):
            rolling_sector_series([topup("u1", 10, 5, month=6)], HOME, period, 30)

    def test_period_shorter_than_window_rejected(self):
        with pytest.raises(ValueError):
            rolling_sector_series(
                [topup("u1", 10, 5)], HOME, (date(2012, 1, 1), date(2012, 1, 10)), 30
            )

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["u1", "u2", "u3"]),
                st.decimals(min_value="0.01", max_value="999.99", places=2),
                st.integers(0, 59),
            ),
            min_size=1,
            max_size=60,
        ),
        st.integers(1, 30),
    )
    def test_incremental_equals_naive(self, events, window_days):
        period = (date(2012, 1, 1), date(2012, 3, 1))
        records = [
            TopUpRecord(u, Decimal(a), datetime(2012, 1, 1, 9, 30) + timedelta(days=d))
            for u, a, d in events
        ]
        # a top-up written "1" by a user without a home turns the file to Decimal
        decimal = TopUpRecord("u0", Decimal("1"), datetime(2012, 1, 1))
        for denominator, extra in itertools.product(("period", "window"), ([], [decimal])):
            actual = rolling_sector_series(records + extra, HOME, period, window_days,
                                           denominator)
            expected = naive_series(records, HOME, period, window_days, denominator)
            assert len(actual) == len(expected)
            for s in actual:
                n_users, points = expected[s.sector_id]
                assert s.n_users == n_users
                assert list(s.points) == points  # exact decimal equality

    def test_adding_topup_outside_window_changes_nothing_inside(self):
        period = (date(2012, 1, 1), date(2012, 3, 1))
        base = [topup("u1", 100, 10)]
        extended = base + [topup("u1", 999, 25, month=2)]
        (a,) = rolling_sector_series(base, {"u1": "s1"}, period, 30)
        (b,) = rolling_sector_series(extended, {"u1": "s1"}, period, 30)
        # windows whose span ends before 25 Feb are untouched
        for (la, va), (lb, vb) in zip(a.points, b.points):
            if la + timedelta(days=15) < date(2012, 2, 25):
                assert (la, va) == (lb, vb)

    def test_scaling_amounts_scales_values(self):
        period = (date(2012, 1, 1), date(2012, 3, 1))
        base = [topup("u1", 100, 10), topup("u2", 40, 20)]
        tripled = [TopUpRecord(r.user_id, r.amount * 3, r.timestamp) for r in base]
        for a, b in zip(
            rolling_sector_series(base, HOME, period, 30),
            rolling_sector_series(tripled, HOME, period, 30),
        ):
            for (la, va), (lb, vb) in zip(a.points, b.points):
                assert (la, va * 3) == (lb, vb)


class TestWrittenValues:
    """The value bytes, which ``Decimal`` equality does not see."""

    @staticmethod
    def written(series, tmp_path):
        write_rolling(series, tmp_path / "rolling.csv")
        emit_overlay(series, tmp_path / "overlay.csv")
        rolling = [line.split(",") for line in (tmp_path / "rolling.csv").read_text().splitlines()]
        overlay = [line.split(",") for line in (tmp_path / "overlay.csv").read_text().splitlines()]
        assert [r[1:3] for r in rolling[1:]] == [[o[0], o[3]] for o in overlay[1:]]
        return {date.fromisoformat(label): value for _, label, value, _ in rolling[1:]}

    def test_window_without_users_is_written_empty(self, tmp_path):
        records = [TopUpRecord("u1", Decimal("10.00"), datetime(2012, 1, 1, 12)),
                   TopUpRecord("u2", Decimal("5.00"), datetime(2012, 3, 1, 12))]
        home = {"u1": "s1", "u2": "s1"}
        for denominator, empty in (("window", ""), ("period", "0.00")):
            values = self.written(
                rolling_sector_series(records, home, None, 30, denominator), tmp_path)
            assert [d for d, v in values.items() if v == empty] == [
                date(2012, 1, 16) + timedelta(days=i) for i in range(30)]
        assert values[date(2012, 1, 15)] == "5.00" and values[date(2012, 2, 15)] == "2.50"

    @pytest.mark.parametrize("amount, inside, after", [
        ("10.00", "10.00", "0.00"),  # the cents layout
        ("10", "10", "0"),  # any other layout keeps the Decimal's exponent
        ("10.000", "10.000", "0.000"),
        ("1E+1", "10", "0"),  # a sum from Decimal(0) has an exponent of at most 0
    ])
    def test_empty_window_keeps_the_exponent_of_the_sum(self, amount, inside, after, tmp_path):
        # before the sector's first top-up its window sum is Decimal(0)
        period = (date(2012, 1, 1), date(2012, 2, 1))
        records = [TopUpRecord("u1", Decimal(amount), datetime(2012, 1, 15, 12))]
        values = self.written(rolling_sector_series(records, HOME, period, 5), tmp_path)
        assert values[date(2012, 1, 3)] == values[date(2012, 1, 12)] == "0"
        assert values[date(2012, 1, 13)] == values[date(2012, 1, 17)] == inside
        assert values[date(2012, 1, 18)] == values[date(2012, 1, 29)] == after


class TestOverlay:
    def test_rolling_csv_output(self, tmp_path):
        period = (date(2012, 1, 1), date(2012, 1, 31))
        series = rolling_sector_series([topup("u1", 90, 3)], {"u1": "s1"}, period, 30)
        path = tmp_path / "rolling_30.csv"
        write_rolling(series, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "sector_id,label_date,value,n_users"
        assert lines[1] == "s1,2012-01-15,90,1"

    def test_overlay_without_stock(self, tmp_path):
        period = (date(2012, 1, 1), date(2012, 1, 31))
        series = rolling_sector_series([topup("u1", 90, 3)], {"u1": "s1"}, period, 30)
        path = tmp_path / "overlay.csv"
        emit_overlay(series, path)
        lines = path.read_text().splitlines()
        assert lines == ["date,source,label,value", "2012-01-15,topup_rolling,s1,90"]

    def test_overlay_appends_stock_rows(self, tmp_path):
        period = (date(2012, 1, 1), date(2012, 1, 31))
        series = rolling_sector_series([topup("u1", 90, 3)], {"u1": "s1"}, period, 30)
        stock = [(date(2012, 1, 2), "season_a", 61.5), (date(2012, 1, 20), "season_a", 42.0)]
        path = tmp_path / "overlay.csv"
        emit_overlay(series, path, stock)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[2] == "2012-01-02,food_stock,season_a,61.5"
        assert lines[3] == "2012-01-20,food_stock,season_a,42"

    def test_stock_round_trip(self, tmp_path):
        path = tmp_path / "stock.csv"
        path.write_text("date,label,percentage\n2012-01-02,season_a,61.5\n")
        rows = load_stock_series(path)
        assert rows == [(date(2012, 1, 2), "season_a", 61.5)]
        out = tmp_path / "overlay.csv"
        emit_overlay([], out, rows)
        assert out.read_text().splitlines()[1] == "2012-01-02,food_stock,season_a,61.5"

    def test_unparsable_stock_is_fatal(self):
        with pytest.raises(FormatError):
            load_stock_series(io.StringIO("date,label,percentage\nnot-a-date,x,1\n"))
        with pytest.raises(FormatError):
            load_stock_series(io.StringIO("wrong,header\n"))
