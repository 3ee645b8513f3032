"""Columnar ingest and features against the row-wise oracle.

Hypothesis writes dirty ``cdr.csv``/``topup.csv`` text (wrong field counts,
empty IDs, unparsable and offset timestamps, bad amounts, quoted fields that
span lines, blank lines, repeated IDs, tied tower counts) and both sides must
agree on every feature vector, every exclusion and every row error.

The chunked readers are also run with chunks of tens of characters over
mostly clean files, so that bulk chunks, row-wise chunks and the row-wise
rest after a quote alternate, and must read what the oracle reads.
"""

import csv
import io
from contextlib import contextmanager
from datetime import date, datetime, time
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodsec import ingest
from foodsec.features import user_features
from foodsec.ingest import (
    CDR_HEADER,
    TOPUP_HEADER,
    FormatError,
    RowErrorLog,
    StrictModeError,
    load_survey,
    money_decimals,
    read_cdr,
    read_topups,
)
from oracle import (
    FeatureConfig,
    feature_vectors,
    in_night_local,
    load_survey_rows,
    parse_cdr_stream,
    parse_topup_stream,
    rowwise_features,
)

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
        [(topups.users[u], amount, date.fromordinal(d)) for u, d, amount in zip(
            topups.user.tolist(), topups.day.tolist(), money_decimals(topups.amount).tolist())],
    )
    features, exclusions = user_features(calls, topups, tower_map, home_hours=config.home_hours,
                                         diversity_direction=config.diversity_direction)
    return (feature_vectors(features), exclusions), rows, errors


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


# --- chunked readers: bulk and row-wise chunks against the oracle ---

PLAIN_USERS, PLAIN_TOWERS = USERS[:4], TOWERS[:4]
MONTH_DAYS = [0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]


@st.composite
def fixed_stamps(draw):
    """``YYYY-MM-DDTHH:MM:SSZ`` (or ``z``), mostly valid, else off in one
    part only: Feb 29 of leap and common years, the day after a month's
    end, a field out of range, or a year at the edge of the datetime range."""
    y, mo, d, h, mi, s = 2012, draw(st.integers(1, 12)), 1, 12, 30, 0
    kind = draw(st.sampled_from(["valid"] * 6 + ["feb29", "month_end", "range", "edge_year"]))
    if kind == "valid":
        dt = draw(st.datetimes(min_value=datetime(2011, 12, 25), max_value=datetime(2013, 3, 5)))
        y, mo, d, h, mi, s = dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second
    elif kind == "feb29":
        y, mo, d = draw(st.sampled_from([1900, 2000, 2012, 2013, 2100, 2400])), 2, 29
    elif kind == "month_end":
        d = MONTH_DAYS[mo] + draw(st.integers(0, 1))
    elif kind == "range":
        part, value = draw(st.sampled_from(
            [(1, 0), (1, 13), (2, 0), (2, 32), (3, 24), (3, 23), (4, 60), (4, 59), (5, 60), (5, 59)]
        ))
        y, mo, d, h, mi, s = [value if i == part else v for i, v in enumerate((y, mo, d, h, mi, s))]
    else:
        y = draw(st.sampled_from([1, 2, 9998, 9999]))
        mo, d = draw(st.sampled_from([(1, 1), (12, 31)]))
        h = draw(st.sampled_from([0, 23]))
    return f"{y:04d}-{mo:02d}-{d:02d}T{h:02d}:{mi:02d}:{s:02d}" + draw(st.sampled_from("ZZZz"))


chunk_stamps = st.one_of(fixed_stamps(), fixed_stamps(), fixed_stamps(), timestamps())
rare = st.integers(0, 79).map(lambda i: i == 0)


def ids(plain, special):
    return st.tuples(rare, st.sampled_from(plain), st.sampled_from(special)).map(
        lambda t: t[2] if t[0] else t[1]
    )


@st.composite
def chunked_text(draw, header, fields):
    """Mostly clean rows of ``fields``; some broken, blank, CRLF-terminated
    or needing quotes (from which point the reader goes row-wise)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 40))):
        row = list(draw(fields))
        damage = draw(st.sampled_from(["none"] * 40 + ["short", "long", "empty", "blank", "crlf"]))
        if damage == "short":
            row = row[: draw(st.integers(1, len(row) - 1))]
        elif damage == "long":
            row.append("extra")
        elif damage == "empty":
            row[draw(st.integers(0, len(row) - 1))] = ""
        if damage == "blank":
            out.write("\n")
            continue
        writer.writerow(row)
        if damage == "crlf":
            out.seek(out.tell() - 1)
            out.write("\r\n")
    text = out.getvalue()
    return text if draw(st.integers(0, 4)) else text.rstrip("\n")


chunked_cdr = chunked_text(
    ["caller_id", "callee_id", "tower_id", "timestamp"],
    st.tuples(ids(PLAIN_USERS, USERS[4:]), ids(PLAIN_USERS, USERS[4:]),
              ids(PLAIN_TOWERS, TOWERS[4:]), chunk_stamps),
)
chunked_topup = chunked_text(
    ["user_id", "amount", "timestamp"],
    st.tuples(ids(PLAIN_USERS, USERS[4:]), amounts, chunk_stamps),
)
SURVEY_VARIABLES = {"staples": "food_group", "size": "V1", "oil": "food_group", "cost": "V3"}
survey_cells = st.one_of(
    st.integers(0, 7).map(str), st.integers(0, 7).map(str),
    st.sampled_from(["", "", "2.5", "8", "-1", "1e0", "nan", "inf", "abc", " 3", "-0"]),
)
chunked_survey = chunked_text(
    ["household_id", "sector_id", *SURVEY_VARIABLES],
    st.tuples(ids(["h1", "h2", "ü3"], ['h"4', "h\n5"]), ids(["s1", "s2"], ["s,3"]),
              *[survey_cells] * len(SURVEY_VARIABLES)),
)
chunk_periods = st.sampled_from(
    [None, None, (datetime(2012, 1, 1, 12), datetime(2012, 3, 1)),
     (datetime(2, 1, 1), datetime(9998, 12, 31, 23, 59, 59, 999999))]
)


def decoded_calls(text, config, period, errors):
    calls = read_cdr(io.StringIO(text), errors, config.night_window,
                     config.utc_offset_minutes, period)
    rows = [(calls.users[a], calls.users[b], calls.towers[t], night) for a, b, t, night in zip(
        calls.caller.tolist(), calls.callee.tolist(), calls.tower.tolist(), calls.night.tolist())]
    return calls.users, calls.towers, rows


def oracle_calls(text, config, period, errors):
    rows = [(r.caller_id, r.callee_id, r.tower_id, in_night_local(r.timestamp, config))
            for r in parse_cdr_stream(io.StringIO(text), errors, period)]
    users = list(dict.fromkeys(u for r in rows for u in r[:2]))
    return users, list(dict.fromkeys(r[2] for r in rows)), rows


def decoded_topups(text, period, errors):
    topups = read_topups(io.StringIO(text), errors, period)
    return topups.users, [(topups.users[u], repr(a), date.fromordinal(d)) for u, d, a in zip(
        topups.user.tolist(), topups.day.tolist(), money_decimals(topups.amount).tolist())]


def oracle_topups(text, period, errors):
    rows = [(r.user_id, repr(r.amount), r.timestamp.date())
            for r in parse_topup_stream(io.StringIO(text), errors, period)]
    return list(dict.fromkeys(r[0] for r in rows)), rows


def survey_table(load, text, errors):
    """``load_survey`` reads the metadata as ``survey_meta.csv`` text, the
    row-wise oracle takes it as a mapping."""
    if load is load_survey:
        meta = io.StringIO("variable,category\n" + "".join(
            f"{variable},{category}\n" for variable, category in SURVEY_VARIABLES.items()))
    else:
        meta = dict(SURVEY_VARIABLES)
    table = load(io.StringIO(text), meta, errors)
    return (table.household_ids, table.sector_ids, table.variables, table.values.shape,
            table.values.tobytes())


def read_outcome(read, *args, strict):
    """What a reader returns and reports, or the error it raises; line
    numbers and messages of row errors included."""
    errors = RowErrorLog(strict=strict, keep=10**6)
    try:
        result = read(*args, errors)
    except FormatError as exc:
        return type(exc).__name__, str(exc), errors.count
    return result, errors.count, errors.errors


@contextmanager
def field_size_limit(limit):
    """The csv module's field limit set to ``limit`` (None: left as is)."""
    old = csv.field_size_limit()
    csv.field_size_limit(limit or old)
    try:
        yield
    finally:
        csv.field_size_limit(old)


# a limit of 20 characters lets through a Z timestamp, not one with an offset
field_limits = st.sampled_from([None, None, None, 20])


# rows a row-wise chunk hands on at once: one, a few, and the default
TAKE_ROWS = [1, 3, ingest._TAKE_ROWS]


@settings(max_examples=200, deadline=None)
@given(chunked_cdr, chunked_topup, chunked_survey, configs, chunk_periods, stricts,
       st.one_of(st.integers(16, 48), st.integers(49, 400)), field_limits,
       st.sampled_from(TAKE_ROWS))
def test_chunked_readers_equal_rowwise(cdr, topup, survey, config, period, strict, chunk_chars,
                                       field_limit, take_rows):
    with pytest.MonkeyPatch.context() as patch, field_size_limit(field_limit):
        patch.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
        patch.setattr(ingest, "_TAKE_ROWS", take_rows)
        actual = (
            read_outcome(decoded_calls, cdr, config, period, strict=strict),
            read_outcome(decoded_topups, topup, period, strict=strict),
            read_outcome(survey_table, load_survey, survey, strict=strict),
        )
        expected = (
            read_outcome(oracle_calls, cdr, config, period, strict=strict),
            read_outcome(oracle_topups, topup, period, strict=strict),
            read_outcome(survey_table, load_survey_rows, survey, strict=strict),
        )
    assert actual == expected


@pytest.mark.parametrize("chunk_chars", [16, 64])
def test_lone_carriage_return_splits_lines_as_the_file_does(tmp_path, chunk_chars):
    """A file opened by the reader ends lines at a lone CR too; the chunk
    holding one is read row-wise and later line numbers stay right."""
    path = tmp_path / "cdr.csv"
    path.write_bytes(b"caller_id,callee_id,tower_id,timestamp\n"
                     b"u1,u2,t1,2012-01-01T20:00:00Z\ru3,u4,t1,2012-01-01T21:00:00Z\n"
                     + b"u1,u2,t1,2012-01-01T22:00:00Z\n" * 40
                     + b"u1,u2\rx,t1,2012-01-01T22:00:00Z\nu1,u2,t1,nope\n")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
        errors = RowErrorLog()
        calls = read_cdr(path, errors)
    oracle_errors = RowErrorLog()
    with open(path, encoding="utf-8", newline="") as handle:
        records = list(parse_cdr_stream(handle, oracle_errors))
    assert len(calls) == len(records) == 42
    assert errors.errors == oracle_errors.errors
    assert [e.line for e in errors.errors] == [44, 45, 46]


EDGE_STAMPS = (
    [f"{y:04d}-02-29T12:00:00Z" for y in (1900, 2000, 2012, 2013, 2100, 2400)]
    + [f"2013-{m:02d}-{MONTH_DAYS[m] + k:02d}T12:00:00Z" for m in range(1, 13) for k in (0, 1)]
    + [f"2012-{md}T{hms}Z" for md, hms in [
        ("00-10", "12:00:00"), ("13-10", "12:00:00"), ("01-00", "12:00:00"), ("01-32", "12:00:00"),
        ("01-10", "24:00:00"), ("01-10", "23:60:00"), ("01-10", "23:59:60"), ("01-10", "23:59:59"),
        ("01-10", "00:00:00"), ("1-10-", "12:00:00"), ("01-1a", "12:00:00"), ("01-10", "12 00:00"),
    ]]
    + ["2012-01-10T12:00:00z", "2012-01-10t12:00:00Z", "2012-01-10 12:00:00Z",
       "2012-01-10T12:00:00ZZ", "2012-01-10T12:00:0Z", "0000-01-01T00:00:00Z",
       "0001-01-01T00:30:00Z", "0002-01-01T00:30:00Z", "9998-12-31T23:00:00Z",
       "9999-12-31T23:00:00Z"]
    # near misses of a layout read from the field text: 20 characters with a
    # non-ASCII one, a NUL after the Z, and two rows whose stamps run together
    # as two of the fixed layout
    + ["2012-01-10T12:00:00\u00e9", "2012-01-10T12:00:00Z\0",
       ("2012-01-10T12:00:00", "Z2012-01-10T12:00:00Z")]
)


@pytest.mark.parametrize("stamp", EDGE_STAMPS)
@pytest.mark.parametrize("minutes", [0, -90, 180])
def test_fixed_layout_edges_equal_rowwise(stamp, minutes):
    """Each near miss of the fixed layout (or rows of them), alone in its
    chunk and after a quoted first row, so once in bulk and once through the
    csv row loop, reads as the row-wise oracle reads it."""
    config = FeatureConfig(utc_offset_minutes=minutes)
    stamps = stamp if isinstance(stamp, tuple) else (stamp,)
    for quoted in (False, True):  # a quoted first row sends the file to the csv row loop
        cdr = "".join(["caller_id,callee_id,tower_id,timestamp\n",
                       '"u0",u2,t1,2012-01-10T12:00:00Z\n' * quoted,
                       *(f"u1,u2,t1,{s}\n" for s in stamps)])
        topup = "".join(["user_id,amount,timestamp\n", '"u0",5.00,2012-01-10T12:00:00Z\n' * quoted,
                         *(f"u1,5.00,{s}\n" for s in stamps)])
        for period in (None, (datetime(2012, 1, 10, 12), datetime(2012, 1, 10, 12, 0, 1))):
            assert read_outcome(decoded_calls, cdr, config, period, strict=False) == read_outcome(
                oracle_calls, cdr, config, period, strict=False)
            assert read_outcome(decoded_topups, topup, period, strict=False) == read_outcome(
                oracle_topups, topup, period, strict=False)


STAMP = "2012-01-10T21:15:00Z"
DAMAGED_ROWS = {
    "cdr": [f",u2,t1,{STAMP}", f"u1,,t1,{STAMP}", f"u1,u2,,{STAMP}", "u1,u2,t1,", "u1,u2,t1",
            f"u1,u2,t1,{STAMP},x", "", f"u1,u2,t1,{STAMP}\r", f"u\0,u2,t1,{STAMP}",
            "u1,u2,t1,2012-01-10T21:15:00", "u1,u2,t1,2012-01-10T21:15:00+02:00",
            f"u1,u2,t1,x{STAMP}", f'"u1",u2,t1,{STAMP}'],
    "topup": [f",5,{STAMP}", f"u1,,{STAMP}", "u1,5,", "u1,5", f"u1,5,{STAMP},x", "",
              f"u1,0,{STAMP}", f"u1,-1,{STAMP}", f"u1,NaN,{STAMP}", f"u1,Infinity,{STAMP}",
              f"u1,abc,{STAMP}", f"u1, 5,{STAMP}", f"u1,5,{STAMP}\r", f"u1,1_5,{STAMP}"],
    "survey": [",s1,1,2,3,4", "h1,,1,2,3,4", "h1,s1,,,,", "h1,s1,1,2,3", "h1,s1,1,2,3,4,5", "",
               "h1,s1,8,2,3,4", "h1,s1,1,2,3.5,4", "h1,s1,1,2,-1,4", "h1,s1,x,2,3,4",
               "h1,s1,1,inf,nan,4", "h1,s1,1,2,3,4\r", "h1,s1,1,2_0,3,4"],
}
CLEAN_ROWS = {"cdr": f"u3,u4,t2,{STAMP}", "topup": f"u3,2.50,{STAMP}", "survey": "h2,s2,7,1.5,0,9"}
SURVEY_HEADER = "household_id,sector_id,staples,size,oil,cost"
HEADERS = {"cdr": ",".join(CDR_HEADER), "topup": ",".join(TOPUP_HEADER), "survey": SURVEY_HEADER}


def chunked_and_rowwise(what, text, chunk_chars, take_rows):
    """What the chunked reader of ``what`` and its row-wise oracle read from
    ``text``, the first in chunks of ``chunk_chars`` handing on ``take_rows``
    row-wise rows at a time."""
    config = FeatureConfig(utc_offset_minutes=180)
    chunked, rowwise = {
        "cdr": ((decoded_calls, text, config, None), (oracle_calls, text, config, None)),
        "topup": ((decoded_topups, text, None), (oracle_topups, text, None)),
        "survey": ((survey_table, load_survey, text), (survey_table, load_survey_rows, text)),
    }[what]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
        patch.setattr(ingest, "_TAKE_ROWS", take_rows)
        actual = read_outcome(*chunked, strict=False)
    return actual, read_outcome(*rowwise, strict=False)


@pytest.mark.parametrize("chunk_chars", [16, 100, 1 << 15])
@pytest.mark.parametrize("what, damaged", [(what, row) for what, rows in DAMAGED_ROWS.items()
                                           for row in rows])
def test_one_damaged_row_equals_rowwise(what, damaged, chunk_chars):
    """A clean file with one row that breaks a clean-chunk condition reads
    as the row-wise oracle reads it, in chunks of one line, of a few, or of
    the whole file, and with each row-wise block size."""
    rows = [CLEAN_ROWS[what]] * 8
    text = "\n".join([HEADERS[what], *rows[:4], damaged, *rows[4:]]) + "\n"
    for take_rows in TAKE_ROWS:
        actual, expected = chunked_and_rowwise(what, text, chunk_chars, take_rows)
        assert actual == expected, take_rows


@pytest.mark.parametrize("take_rows", TAKE_ROWS)
@pytest.mark.parametrize("chunk_chars", [16, 1 << 15])
@pytest.mark.parametrize("what", DAMAGED_ROWS)
def test_every_field_quoted_equals_rowwise(what, chunk_chars, take_rows):
    """A file whose every field is quoted, damaged rows among clean ones,
    goes row by row from its first chunk and reads as the oracle reads it."""
    # a quoted lone CR ends a line for a handle opened with newline="" only
    rows = [row.split(",") for row in [CLEAN_ROWS[what]] * 3 + DAMAGED_ROWS[what]
            if '"' not in row and "\r" not in row]
    out = io.StringIO()
    out.write(HEADERS[what] + "\n")
    csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(rows)
    actual, expected = chunked_and_rowwise(what, out.getvalue(), chunk_chars, take_rows)
    assert actual == expected
    (accepted, *_), errors, _ = actual
    assert accepted and errors


TYPE_BAD_ROWS = [
    ("topup", f"u1,abc,{STAMP}"),
    ("topup", "u1,5.00,nope"),
    ("topup", "u1,5.00,2012-01-10T21:15:00+02:00"),
    ("cdr", "u1,u2,t1,nope"),
    ("cdr", "u1,u2,t1,2012-01-10T21:15:00+02:00"),
    ("survey", "h1,s1,1,x,3,4"),
]


@pytest.mark.parametrize("what, row", TYPE_BAD_ROWS)
def test_a_type_bad_row_keeps_its_chunk_in_bulk(what, row):
    """A row that is whole but has a bad amount, timestamp or cell, or a
    timestamp off the fixed layout, is typed with the rest of its chunk: the
    csv row loop reads the header only."""
    rows = [CLEAN_ROWS[what]] * 8
    text = "\n".join([HEADERS[what], *rows[:4], row, *rows[4:]]) + "\n"
    chunked = {
        "cdr": (decoded_calls, text, FeatureConfig(utc_offset_minutes=180), None),
        "topup": (decoded_topups, text, None),
        "survey": (survey_table, load_survey, text),
    }[what]
    reader, readers = csv.reader, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest.csv, "reader", lambda *args: readers.append(args) or reader(*args))
        actual = read_outcome(*chunked, strict=False)
    assert len(readers) == (2 if what == "survey" else 1)  # load_survey also reads survey_meta
    assert actual == chunked_and_rowwise(what, text, 1 << 15, ingest._TAKE_ROWS)[1]
