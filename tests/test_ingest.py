import ast
import csv
import io
from datetime import date, datetime, time
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foodsec
from foodsec import ingest
from foodsec.config import ConfigError
from foodsec.ingest import (
    FormatError,
    RowErrorLog,
    StrictModeError,
    load_survey,
    load_survey_metadata,
    load_tower_map,
    money_decimals,
    parse_timestamp,
    read_cdr,
    read_table,
    read_topups,
    split_list,
    write_table,
)
from oracle import (
    CallRecord,
    TopUpRecord,
    parse_cdr_stream,
    parse_topup_stream,
    write_cdr,
    write_survey,
    write_topups,
    write_tower_map,
)


def stream(body: str) -> io.StringIO:
    return io.StringIO(body)


def call_rows(columns):
    """(caller, callee, tower, night) per accepted row, IDs decoded."""
    users, towers = columns.users, columns.towers
    return [
        (users[a], users[b], towers[t], night)
        for a, b, t, night in zip(
            columns.caller.tolist(), columns.callee.tolist(), columns.tower.tolist(),
            columns.night.tolist(),
        )
    ]


def topup_rows(columns):
    """(user, amount, UTC date) per accepted row."""
    return [
        (columns.users[u], amount, date.fromordinal(d)) for u, d, amount in zip(
            columns.user.tolist(), columns.day.tolist(), money_decimals(columns.amount).tolist())
    ]


class TestParseCdr:
    def test_single_row_maps_fields(self):
        columns = read_cdr(
            stream("caller_id,callee_id,tower_id,timestamp\nu1,u2,t7,2012-03-01T19:22:05Z\n")
        )
        assert columns.users == ["u1", "u2"] and columns.towers == ["t7"]
        assert call_rows(columns) == [("u1", "u2", "t7", True)]

    def test_header_only_is_empty_with_zero_errors(self):
        errors = RowErrorLog()
        columns = read_cdr(stream("caller_id,callee_id,tower_id,timestamp\n"), errors)
        assert len(columns) == 0 and call_rows(columns) == []
        assert errors.count == 0

    def test_one_valid_one_malformed(self):
        # Manual parse of the two-row fixture: the valid row survives, the
        # row with the bad timestamp is quarantined with its line number.
        body = (
            "caller_id,callee_id,tower_id,timestamp\n"
            "u1,u2,t7,2012-03-01T19:22:05Z\n"
            "u3,u4,t2,not-a-time\n"
        )
        errors = RowErrorLog()
        columns = read_cdr(stream(body), errors)
        assert len(columns) == 1
        assert call_rows(columns)[0][0] == "u1"
        assert errors.count == 1
        assert errors.errors[0].line == 3
        assert "timestamp" in errors.errors[0].message

    def test_missing_header_is_fatal(self):
        with pytest.raises(FormatError):
            read_cdr(stream("u1,u2,t7,2012-03-01T19:22:05Z\n"))

    def test_strict_mode_promotes_row_error(self):
        body = "caller_id,callee_id,tower_id,timestamp\nu1,u2,t7,nope\n"
        with pytest.raises(StrictModeError):
            read_cdr(stream(body), RowErrorLog(strict=True))

    def test_strict_read_of_a_quoted_file_stops_near_the_bad_row(self):
        """From a quote on, the rest of the input goes row by row; a strict
        read raises within a batch of rows of the first bad one, though no
        row after it is accepted."""

        class Bounded(io.StringIO):
            def __next__(self):  # the row loop reads on past the first chunk
                raise AssertionError("read past the bad row")

        rows = ['"u0",u1,t1,2012-03-01T19:22:05Z', *["broken"] * 20_000]
        body = "caller_id,callee_id,tower_id,timestamp\n" + "\n".join(rows) + "\n"
        with pytest.raises(StrictModeError, match="^line 3: expected 4 fields, got 1$"):
            read_cdr(Bounded(body), RowErrorLog(strict=True))

    def test_period_filter(self):
        body = (
            "caller_id,callee_id,tower_id,timestamp\n"
            "u1,u2,t7,2012-03-01T19:22:05Z\n"
            "u1,u2,t7,2013-01-01T00:00:00Z\n"
        )
        errors = RowErrorLog()
        period = (datetime(2012, 1, 1), datetime(2012, 7, 1))
        columns = read_cdr(stream(body), errors, period=period)
        assert len(columns) == 1
        assert errors.count == 1

    def test_offset_timestamp_normalized_to_utc(self):
        # 21:22:05+02:00 is 19:22:05 UTC: inside a 19:00-20:00 window, not
        # inside 21:00-22:00; local time is UTC plus the configured offset
        body = "caller_id,callee_id,tower_id,timestamp\nu1,u2,t7,2012-03-01T21:22:05+02:00\n"
        for window, offset, night in (
            ((time(19), time(20)), 0, True),
            ((time(21), time(22)), 0, False),
            ((time(21), time(22)), 120, True),
        ):
            columns = read_cdr(stream(body), night_window=window, utc_offset_minutes=offset)
            assert columns.night.tolist() == [night]


@pytest.mark.parametrize("reader, header, row", [
    (read_cdr, "caller_id,callee_id,tower_id,timestamp", "a,b,c,"),
    (read_topups, "user_id,amount,timestamp", "ü3,5.0,"),
    (read_topups, "user_id,amount,timestamp", "u,5,x"),
])
def test_short_last_line_is_row_error(reader, header, row):
    """A final chunk of one line too short to hold a timestamp."""
    errors = RowErrorLog()
    assert len(reader(stream(f"{header}\n{row}\n"), errors)) == 0
    assert errors.count == 1


class TestParseTopup:
    def test_single_row(self):
        columns = read_topups(stream("user_id,amount,timestamp\nu1,500,2012-03-01T08:00:00Z\n"))
        assert topup_rows(columns) == [("u1", Decimal("500"), date(2012, 3, 1))]

    def test_negative_amount_is_row_error(self):
        errors = RowErrorLog()
        columns = read_topups(
            stream("user_id,amount,timestamp\nu1,-5,2012-03-01T08:00:00Z\n"), errors
        )
        assert topup_rows(columns) == []
        assert errors.count == 1
        assert "non-positive" in errors.errors[0].message

    def test_zero_amount_is_row_error(self):
        errors = RowErrorLog()
        read_topups(stream("user_id,amount,timestamp\nu1,0,2012-03-01T08:00:00Z\n"), errors)
        assert errors.count == 1

    def test_three_row_sum_is_exact(self):
        # Hand-summed fixture: 499.99 + 500.01 + 500 = 1500 exactly.
        body = (
            "user_id,amount,timestamp\n"
            "u1,499.99,2012-03-01T08:00:00Z\n"
            "u2,500.01,2012-03-02T08:00:00Z\n"
            "u3,500,2012-03-03T08:00:00Z\n"
        )
        columns = read_topups(stream(body))
        assert sum(money_decimals(columns.amount)) == Decimal("1500")

    def test_non_numeric_amount_is_row_error(self):
        errors = RowErrorLog()
        read_topups(stream("user_id,amount,timestamp\nu1,abc,2012-03-01T08:00:00Z\n"), errors)
        assert errors.count == 1

    @pytest.mark.parametrize("quoted", [False, True])
    def test_digit_group_underscore_is_row_error(self, quoted):
        """Decimal reads 1_5 as 15; in a clean file (bulk path) and after a
        quoted ID (row-wise path) it is a row error instead."""
        lead = '"u0",5,2012-03-01T08:00:00Z\n' if quoted else ""
        body = (f"user_id,amount,timestamp\n{lead}"
                "u1,1_5,2012-03-01T08:00:00Z\nu2,5,2012-03-01T08:00:00Z\n")
        errors = RowErrorLog()
        columns = read_topups(stream(body), errors)
        assert [user for user, _, _ in topup_rows(columns)] == (["u0", "u2"] if quoted else ["u2"])
        assert [e.message for e in errors.errors] == ["non-numeric amount '1_5'"]
        oracle_errors = RowErrorLog()
        assert len(list(parse_topup_stream(stream(body), oracle_errors))) == len(columns)
        assert oracle_errors.errors == errors.errors


    def test_amount_holding_a_line_break_is_row_error(self):
        """A quoted amount may hold a line break: ``5.00\\n1.00`` is no
        number, and the other rows keep their own amounts."""
        body = ('user_id,amount,timestamp\nu1,"5.00\n1.00",2012-03-01T08:00:00Z\n'
                "u2,3.00,2012-03-02T08:00:00Z\nu3,4.00,2012-03-03T08:00:00Z\n")
        errors = RowErrorLog()
        columns = read_topups(stream(body), errors)
        assert topup_rows(columns) == [("u2", Decimal("3.00"), date(2012, 3, 2)),
                                       ("u3", Decimal("4.00"), date(2012, 3, 3))]
        assert [e.message for e in errors.errors] == ["non-numeric amount '5.00\\n1.00'"]
        oracle_errors = RowErrorLog()
        assert len(list(parse_topup_stream(stream(body), oracle_errors))) == len(columns)
        assert oracle_errors.errors == errors.errors


#: 2**53 - 1 cents, the largest total a cents column holds
LAST_CENT = "90071992547409.91"


@pytest.mark.parametrize("chunk_chars", [16, ingest._CHUNK_CHARS])
@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("amounts, layout", [([LAST_CENT], np.int64),
                                             ([LAST_CENT, "0.01"], object),
                                             (["0.01", LAST_CENT], object)])
def test_cents_limit_decides_the_whole_file(monkeypatch, chunk_chars, quoted, amounts, layout):
    """A file whose amounts total 2**53 - 1 cents stays int64 cents; one cent
    more turns every amount of it to ``Decimal``, also when the amounts
    come in different chunks (size 16: a row each) or row by row after a
    quoted ID; ``parse_money`` lays the same cells out alike."""
    monkeypatch.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
    rows = [f"u{i},{a},2012-03-01T08:00:00Z\n" for i, a in enumerate(amounts)]
    if quoted:
        rows[0] = '"u0"' + rows[0][2:]
    columns = read_topups(stream("user_id,amount,timestamp\n" + "".join(rows)))
    money = ingest.parse_money("t", range(2, 2 + len(amounts)), amounts)
    for column in (columns.amount, money):
        assert column.dtype == layout
        assert money_decimals(column).tolist() == [Decimal(a) for a in amounts]


class TestTowerMap:
    def test_two_rows_one_sector(self):
        m = load_tower_map(stream("tower_id,sector_id\nt1,s1\nt2,s1\n"))
        assert len(m) == 2
        assert set(m.values()) == {"s1"}
        assert m["t1"] == "s1"

    def test_conflicting_duplicate_is_fatal(self):
        with pytest.raises(FormatError, match="t1"):
            load_tower_map(stream("tower_id,sector_id\nt1,s1\nt1,s2\n"))

    def test_identical_duplicate_accepted(self):
        m = load_tower_map(stream("tower_id,sector_id\nt1,s1\nt1,s1\n"))
        assert len(m) == 1

    def test_hundred_towers_ten_sectors(self):
        # Fixture generated with known composition: tower i -> sector i % 10.
        rows = "".join(f"t{i:03d},s{i % 10}\n" for i in range(100))
        m = load_tower_map(stream("tower_id,sector_id\n" + rows))
        assert len(m) == 100
        assert len(set(m.values())) == 10


SURVEY_META = "variable,category\nfcs_a,food_group\nexpense,V3\nsize,V1\n"


class TestSurvey:
    def test_two_household_fixture(self):
        body = (
            "household_id,sector_id,fcs_a,expense,size\n"
            "h1,s1,3,120.5,4\n"
            "h2,s2,7,88,2\n"
        )
        table = load_survey(stream(body), stream(SURVEY_META))
        assert len(table) == 2
        assert table.variables == ["fcs_a", "expense", "size"]
        assert table.categories["fcs_a"] == "food_group"
        assert table.column("expense").tolist() == [120.5, 88.0]

    def test_food_group_out_of_range_is_row_error(self):
        body = "household_id,sector_id,fcs_a,expense,size\nh1,s1,9,120.5,4\n"
        errors = RowErrorLog()
        table = load_survey(stream(body), stream(SURVEY_META), errors)
        assert len(table) == 0
        assert errors.count == 1
        assert "0..7" in errors.errors[0].message

    def test_non_integer_food_group_is_row_error(self):
        body = "household_id,sector_id,fcs_a,expense,size\nh1,s1,3.5,120.5,4\n"
        errors = RowErrorLog()
        load_survey(stream(body), stream(SURVEY_META), errors)
        assert errors.count == 1

    def test_variable_missing_from_metadata_is_fatal(self):
        body = "household_id,sector_id,mystery\nh1,s1,3\n"
        with pytest.raises(FormatError, match="mystery"):
            load_survey(stream(body), stream(SURVEY_META))

    def test_unknown_category_is_fatal(self):
        with pytest.raises(FormatError, match="category"):
            load_survey_metadata(stream("variable,category\nx,bogus\n"))

    def test_empty_cell_is_missing(self):
        body = "household_id,sector_id,fcs_a,expense,size\nh1,s1,3,,4\n"
        table = load_survey(stream(body), stream(SURVEY_META))
        assert np.isnan(table.column("expense")[0])

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "NaN", "Infinity", "1e400"])
    @pytest.mark.parametrize("quoted", [False, True])
    def test_non_finite_cell_is_row_error(self, cell, quoted):
        """In a clean file (bulk path) and after a quoted ID (row-wise path);
        a blank cell stays missing."""
        lead = '"h0",s1,1,2,3\n' if quoted else ""
        body = (f"household_id,sector_id,fcs_a,expense,size\n{lead}"
                f"h1,s1,3,{cell},4\nh2,s1,3,,4\n")
        errors = RowErrorLog()
        table = load_survey(stream(body), stream(SURVEY_META), errors)
        assert table.household_ids == (["h0", "h2"] if quoted else ["h2"])
        assert [e.message for e in errors.errors] == [f"non-finite value {cell!r} in 'expense'"]

    @pytest.mark.parametrize("quoted", [False, True])
    def test_digit_group_underscore_is_row_error(self, quoted):
        lead = '"h0",s1,1,2,3\n' if quoted else ""
        body = (f"household_id,sector_id,fcs_a,expense,size\n{lead}"
                "h1,s1,3,1_5,4\nh2,s1,3,15,4\n")
        errors = RowErrorLog()
        table = load_survey(stream(body), stream(SURVEY_META), errors)
        assert table.household_ids == (["h0", "h2"] if quoted else ["h2"])
        assert [e.message for e in errors.errors] == ["non-numeric value '1_5' in 'expense'"]

    def test_synth_survey_round_trips(self, small_dataset, tmp_path):
        _, paths = small_dataset
        table = load_survey(paths["survey"], paths["survey_meta"])
        assert len(table) > 0
        write_survey(table, tmp_path / "survey.csv", tmp_path / "meta.csv")
        again = load_survey(tmp_path / "survey.csv", tmp_path / "meta.csv")
        assert again.household_ids == table.household_ids
        assert again.sector_ids == table.sector_ids
        assert again.variables == table.variables
        assert again.categories == table.categories
        assert np.array_equal(again.values, table.values, equal_nan=True)


class TestRoundTrips:
    def test_cdr_round_trip(self, tmp_path):
        records = [
            CallRecord("u1", "u2", "t1", datetime(2012, 1, 1, 23, 59, 59)),
            CallRecord("u2", "u1", "t2", datetime(2012, 6, 30, 0, 0, 0)),
        ]
        path = tmp_path / "cdr.csv"
        write_cdr(records, path)
        assert list(parse_cdr_stream(path)) == records
        assert call_rows(read_cdr(path)) == [("u1", "u2", "t1", True), ("u2", "u1", "t2", True)]

    def test_topup_round_trip(self, tmp_path):
        records = [
            TopUpRecord("u1", Decimal("0.01"), datetime(2012, 1, 1, 12, 0, 0)),
            TopUpRecord("u2", Decimal("1234.56"), datetime(2012, 2, 2, 1, 2, 3)),
        ]
        path = tmp_path / "topup.csv"
        write_topups(records, path)
        assert list(parse_topup_stream(path)) == records
        assert topup_rows(read_topups(path)) == [
            (r.user_id, r.amount, r.timestamp.date()) for r in records
        ]

    def test_tower_round_trip(self, tmp_path):
        m = {"t1": "s1", "t2": "s2"}
        path = tmp_path / "towers.csv"
        write_tower_map(m, path)
        assert load_tower_map(path) == m


@settings(max_examples=30, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.booleans(), st.integers(0, 999)),
        min_size=0,
        max_size=40,
    )
)
def test_no_row_is_silently_dropped(rows):
    """records_out + row_errors == data_rows_in on arbitrarily dirty input."""
    lines = ["caller_id,callee_id,tower_id,timestamp"]
    for ok, n in rows:
        if ok:
            lines.append(f"u{n},u{n + 1},t{n % 7},2012-03-01T10:00:0{n % 10}Z")
        else:
            lines.append(f"u{n},u{n + 1},t{n % 7},garbage")
    errors = RowErrorLog()
    columns = read_cdr(stream("\n".join(lines) + "\n"), errors)
    assert len(columns) + errors.count == len(rows)


@pytest.mark.parametrize("text, fields", [
    ("a,b", ["a", "b"]),
    (' "crowding,index" , household_size ', ["crowding,index", "household_size"]),
    ("a,,b", ["a", "", "b"]),
    ("", []),
])
def test_split_list(text, fields):
    assert split_list("variables", text) == fields


def test_split_list_refuses_a_bare_line_break():
    with pytest.raises(ConfigError, match="config key 'variables'"):
        split_list("variables", "a\nb")


def test_parse_timestamp_accepts_z_and_offset():
    assert parse_timestamp("2012-03-01T19:22:05Z") == datetime(2012, 3, 1, 19, 22, 5)
    assert parse_timestamp("2012-03-01T19:22:05") == datetime(2012, 3, 1, 19, 22, 5)
    assert parse_timestamp("2012-03-01T19:22:05+01:00") == datetime(2012, 3, 1, 18, 22, 5)


def test_only_ingest_imports_csv():
    """Every CSV file is read through foodsec.ingest (read_table for the
    small ones), so no other module parses CSV on its own."""
    importers = []
    for path in sorted(Path(foodsec.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "csv" in names:
                importers.append(path.name)
    assert importers == ["ingest.py"]


LONG = "x" * 200_000  # over the csv module's default field limit of 131,072


@pytest.mark.parametrize("read, text, line", [
    (load_tower_map, f"tower_id,sector_id\nt1,s1\nt2,{LONG}\n", 3),
    (read_cdr, f"caller_id,callee_id,tower_id,timestamp\nu1,{LONG},t1,2012-01-01T20:00:00Z\n", 2),
    (read_cdr, f"caller_id,callee_id,tower_id,{LONG}\n", 1),
], ids=["table", "data_row", "data_header"])
def test_field_over_the_csv_limit_is_a_format_error(tmp_path, read, text, line):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match=f"field larger than field limit .* at line {line}$"):
        read(path)


def csv_line_of(text: str, width: int) -> int:
    """The line csv.reader gives for the first row of another width than
    ``width``, or for a field over the limit, in ``text``."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            if row and len(row) != width:
                break
    except csv.Error:
        pass
    return reader.line_num


# clean rows, a blank line and a carriage return, then clean rows again
TOWERS = ("tower_id,sector_id\n" + "".join(f"t{i},s{i % 7}\n" for i in range(20))
          + "\n\nt20,s6\r\n" + "".join(f"t{i},s{i % 7}\n" for i in range(21, 60)))
DEFECTS = {"short_row": (TOWERS + '"t\n60","s\n\n2"\n\nt61,s3\nt99\nt100,s1\n', "malformed row"),
           "long_field": (TOWERS + f'"t\n60",s2\n\nt61,{LONG}\nt99\n',
                          "field larger than field limit .*")}


@pytest.mark.parametrize("chunk_chars", [16, ingest._CHUNK_CHARS])
@pytest.mark.parametrize("defect", DEFECTS)
def test_table_errors_name_the_csv_line(tmp_path, monkeypatch, chunk_chars, defect):
    """Blank lines, carriage returns and quoted line breaks before the bad
    row count as the csv module counts them, on either reading path."""
    text, message = DEFECTS[defect]
    path = tmp_path / "towers.csv"
    path.write_bytes(text.encode())
    monkeypatch.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
    line = csv_line_of(text, 2)
    assert line > 60
    with pytest.raises(FormatError, match=f"^towers: {message} at line {line}$"):
        load_tower_map(path)


@pytest.mark.parametrize("chunk_chars", [4, ingest._CHUNK_CHARS])
@pytest.mark.parametrize("last", ["g", '""'])
def test_one_column_table_skips_blank_lines(tmp_path, monkeypatch, chunk_chars, last):
    """At chunk size 4 the rows a to f come in clean and row-wise chunks by turns."""
    path = tmp_path / "t.csv"
    path.write_text(f"name\na\nb\n\nc\nd\ne\nf\n\n\n{last}\n\n")
    monkeypatch.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
    got = read_table(path, "t", ["name"])
    assert got[1:] == ([2, 3, 5, 6, 7, 8, 11], [[*"abcdef", last.strip('"')]])


table_fields = st.one_of(
    st.sampled_from(["", ",", '"', "\n", "\r\n", "\r", "a,b", 'say "hi"', "ü,ß", " x "]),
    st.text(st.characters(blacklist_categories=["Cs"]), max_size=6),
    st.text("ab,\"\r\n", max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda width: st.tuples(
    st.lists(table_fields, min_size=width, max_size=width),
    st.lists(st.lists(table_fields, min_size=width, max_size=width), max_size=12),
)), st.integers(1, 4))
def test_written_table_reads_back_exactly(tmp_path_factory, table, block_rows):
    """Fields with commas, quotes and line breaks survive a write and a
    read, whether a block is written as joined text or quoted."""
    header, rows = table
    path = tmp_path_factory.mktemp("table") / "t.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_WRITE_ROWS", block_rows)
        write_table(path, header, rows)
    got, _, columns = read_table(path, "t", header)
    assert (got, list(map(list, zip(*columns)))) == (header, rows)
