"""Micro-benchmarks of the CSV readers.

Run with ``PYTHONPATH=src python -m pytest tests/bench_ingest.py``; the file
name keeps it out of the default test run. The input has the shape of the
``c01`` benchmark workload (200 sectors x 40 users x 30 households, 182 days:
about 255 k calls, 80 k top-ups and 6 k households), generated once per
session by ``foodsec.synth``. The ``dirty`` variants read copies with one
malformed row in every chunk, so every chunk takes the csv row loop, whose
rows are then typed in batches as a bulk chunk's are. The
``typed`` variants read copies with one whole row in every chunk whose last
field is ``x`` (an unparsable timestamp, a non-numeric survey cell): such a
row keeps its chunk in bulk and only it is parsed on its own, so these
variants time what one type-bad row costs a chunk. The ``quoted``
variants read copies whose first data row has a quoted field, so the
rest of the file goes through the csv row loop in one pass; its fixed-layout
timestamps are still decoded in bulk. The ``blank`` survey
reads a copy with every fifth answer left blank, as missing answers are:
the generated survey has none. The ``time_ordered`` calls read a copy
with the data rows stable-sorted by timestamp, as an operator's CDRs
arrive: the generated file groups each caller's calls. The ``decimal``
top-ups read a copy with the trailing zeros of each amount dropped
(``12.50`` as ``12.5``), so the file is carried as ``Decimal`` values,
not cents: the benchmark workloads read only ``D+.DD`` amounts, and a file
in any other layout takes its own path through the money rule. The ``table`` cases read
two files the stages hand on, ``user_features.csv`` (8 k users, written
from the same inputs) and ``truth.csv``. No timing is asserted.
"""

import pytest

from foodsec import ingest
from foodsec.features import read_user_features, user_features, write_user_features
from foodsec.ingest import RowErrorLog, load_survey, load_tower_map, read_cdr, read_topups
from foodsec.synth import SynthConfig, generate, read_truth

C01 = dict(n_sectors=200, users_per_sector=40, households_per_sector=30, period_days=182,
           planted_r=0.9, topup_base=2000.0)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("c01")
    paths = generate(SynthConfig(seed=1, **C01), out)
    for name in ("cdr", "topup", "survey"):
        for variant in (dirty, typed, quoted):
            paths[f"{name}_{variant.__name__}"] = out / f"{name}_{variant.__name__}.csv"
            variant(paths[name], paths[f"{name}_{variant.__name__}"])
    paths["survey_blank"] = out / "survey_blank.csv"
    blank(paths["survey"], paths["survey_blank"])
    paths["cdr_time_ordered"] = out / "cdr_time_ordered.csv"
    time_ordered(paths["cdr"], paths["cdr_time_ordered"])
    paths["topup_decimal"] = out / "topup_decimal.csv"
    decimal(paths["topup"], paths["topup_decimal"])
    features, _ = user_features(read_cdr(paths["cdr"]), read_topups(paths["topup"]),
                                load_tower_map(paths["towers"]))
    paths["user_features"] = out / "user_features.csv"
    write_user_features(features, paths["user_features"])
    return paths


def dirty(source, target) -> None:
    """Copy ``source`` with a one-field row after the first data line of
    every chunk's worth of text."""
    with open(source, encoding="utf-8", newline="") as f, \
            open(target, "w", encoding="utf-8", newline="") as out:
        out.write(f.readline())
        while text := f.read(ingest._CHUNK_CHARS):
            text += f.readline()
            first = text.index("\n") + 1
            out.write(text[:first] + "broken\n" + text[first:])


def typed(source, target) -> None:
    """Copy ``source`` with a copy of the first data line of every chunk's
    worth of text after it, its last field replaced by ``x``."""
    with open(source, encoding="utf-8", newline="") as f, \
            open(target, "w", encoding="utf-8", newline="") as out:
        out.write(f.readline())
        while text := f.read(ingest._CHUNK_CHARS):
            text += f.readline()
            first = text.index("\n") + 1
            out.write(text[:first] + text[:first].rsplit(",", 1)[0] + ",x\n" + text[first:])


def quoted(source, target) -> None:
    """Copy ``source`` with the first field of its first data row quoted."""
    with open(source, encoding="utf-8", newline="") as f, \
            open(target, "w", encoding="utf-8", newline="") as out:
        out.write(f.readline())
        first, rest = f.readline().split(",", 1)
        out.write(f'"{first}",{rest}')
        while text := f.read(ingest._CHUNK_CHARS):
            out.write(text)


def blank(source, target) -> None:
    """Copy the survey ``source`` with every fifth answer cell blank."""
    with open(source, encoding="utf-8", newline="") as f, \
            open(target, "w", encoding="utf-8", newline="") as out:
        out.write(f.readline())
        for row, line in enumerate(f):
            household, sector, *answers = line.rstrip("\n").split(",")
            answers[row % 5::5] = [""] * len(answers[row % 5::5])
            out.write(",".join([household, sector, *answers]) + "\n")


def time_ordered(source, target) -> None:
    """Copy the calls ``source`` with its data rows stable-sorted by their
    timestamp field, the last; every timestamp has the same layout."""
    with open(source, encoding="utf-8", newline="") as f, \
            open(target, "w", encoding="utf-8", newline="") as out:
        out.write(f.readline())
        out.writelines(sorted(f, key=lambda line: line.rsplit(",", 1)[1]))


def decimal(source, target) -> None:
    """Copy the top-ups ``source`` with each amount's trailing zeros, and a
    point left last, dropped."""
    with open(source, encoding="utf-8", newline="") as f, \
            open(target, "w", encoding="utf-8", newline="") as out:
        out.write(f.readline())
        for line in f:
            user, amount, stamp = line.split(",")
            out.write(",".join([user, amount.rstrip("0").rstrip("."), stamp]))


VARIANTS = ["clean", "dirty", "typed", "quoted"]


def variant_path(inputs, name, variant):
    return inputs[name if variant == "clean" else f"{name}_{variant}"]


@pytest.mark.parametrize("variant", [*VARIANTS, "time_ordered"])
def test_read_cdr(benchmark, inputs, variant):
    errors = RowErrorLog()
    calls = benchmark(read_cdr, variant_path(inputs, "cdr", variant), errors)
    assert len(calls) > 200_000
    assert (errors.count > 0) == (variant in ("dirty", "typed"))
    if variant == "time_ordered":
        grouped = read_cdr(inputs["cdr"])
        assert len(calls) == len(grouped)
        assert set(calls.users) == set(grouped.users)


@pytest.mark.parametrize("variant", [*VARIANTS, "decimal"])
def test_read_topups(benchmark, inputs, variant):
    errors = RowErrorLog()
    topups = benchmark(read_topups, variant_path(inputs, "topup", variant), errors)
    assert len(topups) > 50_000
    assert (topups.amount.dtype == object) == (variant == "decimal")
    assert (errors.count > 0) == (variant in ("dirty", "typed"))


@pytest.mark.parametrize("variant", [*VARIANTS, "blank"])
def test_load_survey(benchmark, inputs, variant):
    errors = RowErrorLog()
    table = benchmark(load_survey, variant_path(inputs, "survey", variant),
                      inputs["survey_meta"], errors)
    assert len(table) > 5_000
    assert (errors.count > 0) == (variant in ("dirty", "typed"))


def test_table_user_features(benchmark, inputs):
    assert len(benchmark(read_user_features, inputs["user_features"])) > 5_000


def test_table_truth(benchmark, inputs):
    assert len(benchmark(read_truth, inputs["truth"])["user_home"]) > 5_000
