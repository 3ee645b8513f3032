"""Columnar ingest and features against the row-wise oracle.

Hypothesis writes dirty ``cdr.csv``/``topup.csv`` text (wrong field counts,
empty IDs, unparsable and offset timestamps, bad amounts, quoted fields that
span lines, blank lines, repeated IDs, tied tower counts) and both sides must
agree on every feature vector, every exclusion and every row error.
"""

import csv
import io
from datetime import date, datetime, time
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodsec.features import FeatureConfig, user_features
from foodsec.ingest import RowErrorLog, StrictModeError, read_cdr, read_topups
from oracle import in_night_local, parse_cdr_stream, parse_topup_stream, rowwise_features

# first-seen order differs from sorted order, and some IDs need quoting
USERS = ["u2", "u10", "u1", "ü3", 'q"1', "u\n4"]
TOWERS = ["t9", "t10", "t2", "T1", "t,5", "t\n6"]
BAD_TIMESTAMPS = ["garbage", "", "2012-13-01T00:00:00Z", "2012-01-02T25:00:00",
                  "2012-01-02T10:00:00+25:00", "2012-01-02 10:00:00ZZ"]
BAD_AMOUNTS = ["0", "0.00", "-5", "-0.01", "abc", "NaN", "-Infinity", "Infinity", "", "1E+2",
               " 7", "1_000"]


@st.composite
def timestamps(draw):
    kind = draw(st.sampled_from(["Z", "Z", "z", "offset", "offset", "naive", "naive", "bad"]))
    if kind == "bad":
        return draw(st.sampled_from(BAD_TIMESTAMPS))
    dt = draw(st.datetimes(min_value=datetime(2012, 1, 1), max_value=datetime(2012, 1, 4)))
    text = dt.isoformat()
    if kind == "offset":
        minutes = draw(st.sampled_from([-330, -60, 0, 180, 345]))
        sign = "-" if minutes < 0 else "+"
        return f"{text}{sign}{abs(minutes) // 60:02d}:{abs(minutes) % 60:02d}"
    return text if kind == "naive" else text + kind


# equal values written differently ("5", "5.00", "5E+0") tell which one
# min/max keep and set the exponent of sums and means
SAME_VALUES = st.sampled_from(["5", "5.0", "5.00", "0.5E+1", "10", "1E+1", "10.000"])
amounts = st.one_of(
    st.integers(0, 4).flatmap(
        lambda places: st.decimals(Decimal("0.0001"), Decimal("9999"), places=places)
    ).map(str),
    SAME_VALUES,
    SAME_VALUES,
    st.sampled_from(BAD_AMOUNTS),
)


@st.composite
def csv_text(draw, header, fields):
    """``header`` then rows drawn from ``fields``, some of them broken."""
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    writer = csv.writer(out, lineterminator="\n")
    for _ in range(draw(st.integers(0, 40))):
        row = list(draw(fields))
        damage = draw(st.sampled_from(["none"] * 16 + ["short", "long", "empty", "blank"]))
        if damage == "short":
            row = row[: draw(st.integers(1, len(row) - 1))]
        elif damage == "long":
            row.append("extra")
        elif damage == "empty":
            row[draw(st.integers(0, len(row) - 1))] = ""
        if damage == "blank":
            out.write("\n")
        else:
            writer.writerow(row)
    return out.getvalue()


cdr_text = csv_text(
    ["caller_id", "callee_id", "tower_id", "timestamp"],
    st.tuples(st.sampled_from(USERS), st.sampled_from(USERS), st.sampled_from(TOWERS),
              timestamps()),
)
topup_text = csv_text(
    ["user_id", "amount", "timestamp"],
    st.tuples(st.sampled_from(USERS), amounts, timestamps()),
)
configs = st.builds(
    FeatureConfig,
    night_window=st.sampled_from(
        [(time(18), time(8)), (time(9), time(17)), (time(23, 30), time(0, 15)), (time(0), time(0))]
    ),
    home_hours=st.sampled_from(["night", "all"]),
    diversity_direction=st.sampled_from(["both", "out"]),
    utc_offset_minutes=st.sampled_from([0, -90, 180]),
)
mostly = st.sampled_from([True, True, True, False])
tower_maps = st.lists(mostly, min_size=len(TOWERS), max_size=len(TOWERS)).map(
    lambda keep: {t: f"s{i % 2}" for i, t in enumerate(TOWERS) if keep[i]}
)
periods = st.sampled_from([None, None, (datetime(2012, 1, 1, 12), datetime(2012, 1, 3))])
stricts = mostly.map(lambda lenient: not lenient)


def oracle_side(cdr, topup, tower_map, config, period, strict):
    errors = (RowErrorLog(strict=strict, keep=10**6), RowErrorLog(strict=strict, keep=10**6))
    calls = list(parse_cdr_stream(io.StringIO(cdr), errors[0], period))
    topups = list(parse_topup_stream(io.StringIO(topup), errors[1], period))
    rows = (
        [(r.caller_id, r.callee_id, r.tower_id, in_night_local(r.timestamp, config))
         for r in calls],
        [(r.user_id, r.amount, r.timestamp.date()) for r in topups],
    )
    return rowwise_features(calls, topups, tower_map, config), rows, errors


def columnar_side(cdr, topup, tower_map, config, period, strict):
    errors = (RowErrorLog(strict=strict, keep=10**6), RowErrorLog(strict=strict, keep=10**6))
    calls = read_cdr(io.StringIO(cdr), errors[0], config.night_window,
                     config.utc_offset_minutes, period)
    topups = read_topups(io.StringIO(topup), errors[1], period)
    users, towers = calls.users, calls.towers
    rows = (
        [(users[a], users[b], towers[t], night) for a, b, t, night in zip(
            calls.caller.tolist(), calls.callee.tolist(), calls.tower.tolist(),
            calls.night.tolist())],
        [(topups.users[u], amount, date.fromordinal(d))
         for u, d, amount in zip(topups.user.tolist(), topups.day.tolist(), topups.amount)],
    )
    return user_features(calls, topups, tower_map, config), rows, errors


def outcome(side, *args):
    """Everything both sides must agree on; repr keeps each Decimal's
    exponent, which == ignores and the CSV shows."""
    try:
        (vectors, exclusions), rows, errors = side(*args)
    except StrictModeError as exc:
        return "raised", str(exc)
    return (
        [repr(v) for v in vectors],
        exclusions,
        repr(rows),
        [(e.count, e.errors) for e in errors],
    )


@settings(max_examples=200, deadline=None)
@given(cdr_text, topup_text, tower_maps, configs, periods, stricts)
def test_columnar_equals_rowwise(cdr, topup, tower_map, config, period, strict):
    expected = outcome(oracle_side, cdr, topup, tower_map, config, period, strict)
    actual = outcome(columnar_side, cdr, topup, tower_map, config, period, strict)
    assert actual == expected


def test_row_error_lines_count_physical_lines():
    # a quoted ID spanning two lines moves every later line number
    cdr = ('caller_id,callee_id,tower_id,timestamp\n"u\n1",u2,t1,2012-01-01T20:00:00Z\n\n'
           "u3,u4,t1,nope\n")
    topup = "user_id,amount,timestamp\n"
    args = (cdr, topup, {"t1": "s1"}, FeatureConfig(), None, False)
    expected = outcome(oracle_side, *args)
    assert outcome(columnar_side, *args) == expected
    assert expected[3][0][1][0].line == 5
    with pytest.raises(StrictModeError, match="line 5: unparsable timestamp 'nope'"):
        columnar_side(*args[:-1], True)
