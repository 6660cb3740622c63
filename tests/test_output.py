"""The CSV and JSON renderers against the straightforward renderers they replace.

The oracles below are the per-row renderers that ``irssim.output`` used to
run: ``json.dumps(payload, indent=2)`` of the whole result list, and one
f-string per row. The renderers must reproduce them byte for byte on any
input, including non-finite values and awkward label, assumption and
metadata text, and whichever columns repeat from one result to the next.
"""

import csv
import dataclasses
import gc
import io
import json
import math
import tracemalloc
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from irssim import (FadingModel, InvalidInputError, SweepResult, build_preset, run_angle_sweep,
                    run_distance_sweep)
from irssim import output
from irssim.channel import FadingMode
from irssim.config import PRESET_NAMES
from irssim.output import CSV_HEADER, emit_results, render_results

CSV_SPECIAL = ',"\r\n'


def json_oracle(results):
    payload = [
        {
            "label": result.scenario_label,
            "variable": result.variable_name,
            "metadata": result.metadata,
            "rows": [list(row) for row in zip(*result.columns)],
        }
        for result in results
    ]
    return json.dumps(payload, indent=2) + "\n"


def csv_oracle(results):
    """The unquoted per-row renderer; exact for labels without CSV_SPECIAL characters."""
    lines = [CSV_HEADER]
    for result in results:
        for x, rx_power_dbm, sinr_db, stddev in zip(*result.columns):
            lines.append(
                f"{result.scenario_label},{x:.6f},{rx_power_dbm:.6f},{sinr_db:.6f},{stddev:.6f}")
    return "\n".join(lines) + "\n"


def csv_label(label):
    """The label as csv.writer (excel dialect, QUOTE_MINIMAL) writes it in a row."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([label, "x"])
    return buffer.getvalue()[:-len(",x\r\n")]


AWKWARD_TEXT = ['"rows": null', '"rows": [', "\\", '"', "\\u00e9", "é", "日本", "\U0001f4e1",
                "50% load", "%(name)s", "%s", "", "a,b", 'a"b é,x', "line\nbreak", "cr\rlf",
                "\t", "\x00", " ", "  ]\n}"]
texts = st.one_of(st.sampled_from(AWKWARD_TEXT), st.text(max_size=12))
special_floats = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300,
                                  1e16, 1e-7, 0.1, 95.0])
values = st.one_of(st.floats(), special_floats)
finite_values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          special_floats.filter(math.isfinite))
metadata_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), values, texts),
    lambda children: st.one_of(st.lists(children, max_size=3),
                               st.dictionaries(texts, children, max_size=3)),
    max_leaves=8)
metadata = st.one_of(
    st.dictionaries(texts, metadata_values, max_size=4),
    st.builds(lambda seed, notes: {"seed": seed, "trials": 1, "assumptions": notes},
              st.integers(0, 2 ** 64 - 1), st.lists(texts, max_size=3)))


def columns_of(rows):
    """The four columns of a sequence of 4-value rows."""
    return tuple(tuple(row[j] for row in rows) for j in range(4))


def results_of(row_values, labels=texts):
    rows = st.tuples(row_values, row_values, row_values, row_values)
    result = st.builds(
        SweepResult, scenario_label=labels, variable_name=texts,
        columns=st.one_of(st.just(()), st.tuples(rows), st.lists(rows, max_size=6)).map(columns_of),
        metadata=metadata)
    return st.lists(result, min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(results_of(values))
def test_json_matches_json_dumps(results):
    assert render_results(results, "json") == json_oracle(results)


@settings(max_examples=100, deadline=None)
@given(results_of(finite_values))
def test_json_of_finite_rows_matches_json_dumps(results):
    assert render_results(results, "json") == json_oracle(results)


@settings(max_examples=150, deadline=None)
@given(results_of(values, labels=texts.filter(lambda t: not any(c in t for c in CSV_SPECIAL))))
def test_csv_matches_per_row_renderer(results):
    assert render_results(results, "csv") == csv_oracle(results)


@settings(max_examples=100, deadline=None)
@given(results_of(finite_values))
def test_csv_reads_back_as_five_fields_with_the_label(results):
    text = render_results(results, "csv")
    table = list(csv.reader(io.StringIO(text, newline="")))
    assert table[0] == CSV_HEADER.split(",")
    expected = [[result.scenario_label, *(f"{v:.6f}" for v in row)]
                for result in results for row in zip(*result.columns)]
    assert table[1:] == expected


@given(texts)
def test_csv_label_quoted_as_csv_writer_quotes_it(label):
    columns = ((1.0,), (2.0,), (3.0,), (4.0,))
    text = render_results([SweepResult(label, "distance_m", columns)], "csv")
    body = text[len(CSV_HEADER) + 1:]
    assert body == csv_label(label) + ",1.000000,2.000000,3.000000,4.000000\n"


def test_json_keeps_integer_and_non_finite_values():
    columns = ((1, 2.0), (2.5, True), (math.nan, 3.0), (-math.inf, math.inf))
    result = SweepResult("mixed", "distance_m", columns, {"note": math.nan})
    text = render_results([result], "json")
    assert text == json_oracle([result])
    assert "NaN" in text and "-Infinity" in text and "true" in text


def test_empty_rows_render_as_the_oracle_does():
    empty = SweepResult("empty", "distance_m", ((),) * 4)
    one = SweepResult("one", "distance_m", ((1.0,), (2.0,), (3.0,), (4.0,)))
    for results in ([empty], [empty, one], [one, empty, one]):
        assert render_results(results, "json") == json_oracle(results)
        assert render_results(results, "csv") == csv_oracle(results)
    assert render_results([empty], "csv") == CSV_HEADER + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_results_are_rejected_before_writing(fmt, tmp_path):
    good = SweepResult("good", "distance_m", ((1.0,), (2.0,), (3.0,), (4.0,)))
    buffer, path = io.StringIO(), tmp_path / "out"
    for destination in (buffer, path):
        with pytest.raises(InvalidInputError) as caught:
            emit_results([good, "fig2b"], fmt, destination)
        assert str(caught.value) == "results[1] must be a SweepResult, got str"
    assert buffer.getvalue() == "" and not path.exists()


@pytest.fixture(scope="module")
def dense_preset_sweeps():
    return [run_distance_sweep(scenario, dataclasses.replace(spec, steps=1600))
            for scenario, spec in map(build_preset, PRESET_NAMES)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_document_is_not_copied_once_rendered(dense_preset_sweeps, fmt):
    """The peak is the document's pieces and their one join, not a further copy."""
    tracemalloc.start()
    try:
        text = render_results(dense_preset_sweeps, fmt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * len(text)


# values whose neighbours compare equal with other bits or another type
NEAR_VALUES = [0.0, -0.0, 1.0, -1.0, 2.0, 0.1, 1e16, math.nan, math.inf, -math.inf]
TWEAKS = {
    "zero sign": lambda v: -v if type(v) is float and v == 0 else v,
    "equal int": lambda v: int(v) if type(v) is float and v.is_integer() else v,
    "equal bool": lambda v: bool(v) if type(v) is float and v in (0.0, 1.0) else v,
    "back to float": lambda v: float(v) if type(v) in (int, bool) else v,
    "nan": lambda v: math.nan,
    "str": lambda v: repr(v),
}


@st.composite
def repeating_results(draw):
    """Results whose columns are the previous result's, the same tuples, copies of
    them or changed slightly."""
    value = st.one_of(st.sampled_from(NEAR_VALUES), st.floats())
    rows = draw(st.integers(0, 4))
    columns = [tuple(draw(value) for _ in range(rows)) for _ in range(4)]
    results = []
    for _ in range(draw(st.integers(1, 6))):
        edit = draw(st.sampled_from(["same", "copy", "copy", "rebuilt", "tweak", "tweak",
                                     "drop row", "add row", "empty"]))
        if edit == "empty":
            results.append(SweepResult("empty", "distance_m", ((),) * 4))
            continue
        if edit != "same":
            columns = [list(column) for column in columns]
        if edit == "rebuilt":  # the same bits in new float objects
            columns = [array("d", c).tolist() if all(type(v) is float for v in c) else c
                       for c in columns]
        elif edit == "tweak" and columns[0]:
            i, j = draw(st.integers(0, len(columns[0]) - 1)), draw(st.integers(0, 3))
            columns[j][i] = TWEAKS[draw(st.sampled_from(sorted(TWEAKS)))](columns[j][i])
        elif edit == "drop row":
            columns = [column[:-1] for column in columns]
        elif edit == "add row":
            columns = [column + [draw(value)] for column in columns]
        columns = [tuple(column) for column in columns]  # a tuple is kept as it is
        results.append(SweepResult("r", "distance_m", columns))
    return results


@settings(max_examples=300, deadline=None)
@given(repeating_results())
def test_json_of_repeated_columns_matches_json_dumps(results):
    assert render_results(results, "json") == json_oracle(results)


@pytest.fixture(scope="module")
def figure_sweeps():
    """The five presets as the figure_sweeps benchmark runs them: Rayleigh, 1600 x 10."""
    def sweep(scenario, spec):
        scenario = dataclasses.replace(
            scenario, fading=FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=1))
        return run_distance_sweep(scenario, dataclasses.replace(spec, steps=1600, trials=10, seed=1))
    return [sweep(*build_preset(name)) for name in PRESET_NAMES]


def test_figure_sweeps_json_matches_json_dumps(figure_sweeps):
    assert render_results(figure_sweeps, "json") == json_oracle(figure_sweeps)


@pytest.fixture(scope="module")
def angle_sweeps():
    """fig2b's four angle pairs of CI's angle check: Rayleigh, 400 x 100."""
    scenario, spec = build_preset("fig2b")
    scenario = dataclasses.replace(
        scenario, fading=FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=3))
    return run_angle_sweep(scenario, [(45, 45), (60, 60), (45, 60), (45.0000001, 45)],
                           dataclasses.replace(spec, steps=400, trials=100, seed=3))


def test_angle_sweep_json_matches_json_dumps(angle_sweeps):
    assert render_results(angle_sweeps, "json") == json_oracle(angle_sweeps)


def encoded_values(results, monkeypatch):
    """How many row values ``output.json.dumps`` receives to render ``results`` as JSON."""
    counted = []

    def dumps(obj, **kwargs):
        counted.append(sum(not isinstance(value, dict) for value in obj))
        return json.dumps(obj, **kwargs)

    monkeypatch.setattr(output, "json", SimpleNamespace(dumps=dumps))
    render_results(results, "json")
    return sum(counted)


def test_repeated_columns_are_encoded_once(figure_sweeps, monkeypatch):
    """All five curves share the x grid and, with one seed and one noise floor, the
    SINR stddev column, so fig2a-d encode only their power and SINR columns."""
    assert encoded_values(figure_sweeps, monkeypatch) == 1600 * 4 + 4 * 1600 * 2 == 19_200


def test_angle_sweep_repeated_columns_are_encoded_once(angle_sweeps, monkeypatch):
    """The four angle pairs share the x grid and the SINR stddev column."""
    assert encoded_values(angle_sweeps, monkeypatch) == 400 * 4 + 3 * 400 * 2 == 4_000


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_results_are_read_once(angle_sweeps, fmt):
    expected = render_results(list(angle_sweeps), fmt)
    assert render_results(iter(angle_sweeps), fmt) == expected
    buffer = io.StringIO()
    emit_results(iter(angle_sweeps), fmt, buffer)
    assert buffer.getvalue() == expected


def test_columns_are_stored_as_tuples_and_read_as_rows():
    grid = (1.0, 2.0)
    result = SweepResult("r", "distance_m", [grid, [3.0, 4.0], iter([5.0, 6.0]), (7, 8)])
    assert result.columns == ((1.0, 2.0), (3.0, 4.0), (5.0, 6.0), (7, 8))
    assert result.columns[0] is grid
    assert result.rows == ((1.0, 3.0, 5.0, 7), (2.0, 4.0, 6.0, 8))
    assert type(result.rows) is tuple and all(type(row) is tuple for row in result.rows)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.rows = ()


# the columns of ragged rows: column j holds the j-th value of each row that has one
RAGGED_ROWS = {
    "five wide": ((1.0,), (2.0,), (3.0,), (4.0,), (5.0,)),
    "four then five wide": ((1.0, 5.0), (2.0, 6.0), (3.0, 7.0), (4.0, 8.0), (9.0,)),
    "five then four wide": ((1.0, 6.0), (2.0, 7.0), (3.0, 8.0), (4.0, 9.0), (5.0,)),
    # eight values, as many as two 4-wide rows hold
    "three then five wide": ((1.0, 4.0), (2.0, 5.0), (3.0, 6.0), (7.0,), (8.0,)),
    "four columns of unequal length": ((1.0, 5.0), (2.0, 6.0), (3.0, 7.0), (4.0,)),
    # eight values again, in four columns
    "four columns of 3, 1, 2 and 2": ((1.0, 2.0, 3.0), (4.0,), (5.0, 6.0), (7.0, 8.0)),
    "three columns": ((1.0,), (2.0,), (3.0,)),
    "no columns": (),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("columns", RAGGED_ROWS.values(), ids=RAGGED_ROWS)
def test_rows_not_four_wide_are_rejected(columns, fmt, tmp_path):
    """A result must hold four columns of one length, so neither format can drop or
    shift a value, even after a result whose columns start as the ragged result's
    do; and nothing is written."""
    good = SweepResult("good", "distance_m", tuple(column[:1] for column in columns[:4])
                       if len(columns) >= 4 else ((1.0,),) * 4)
    buffer, path = io.StringIO(), tmp_path / "out"
    for destination in (buffer, path):
        with pytest.raises(InvalidInputError, match="must hold four columns of one length"):
            emit_results([good, SweepResult("ragged", "distance_m", columns)], fmt, destination)
    assert buffer.getvalue() == "" and not path.exists()


def test_sweep_and_render_start_no_cyclic_collection():
    """A 1600-step Rayleigh sweep and its CSV and JSON documents hold their values
    in a few column tuples, so they allocate too few container objects to start
    the cyclic garbage collector."""
    scenario, spec = build_preset("fig2b")
    scenario = dataclasses.replace(
        scenario, fading=FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=1))
    spec = dataclasses.replace(spec, steps=1600, trials=10, seed=1)
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(record)
    try:
        result = run_distance_sweep(scenario, spec)
        render_results([result], "csv")
        render_results([result], "json")
    finally:
        gc.callbacks.remove(record)
    assert starts == []
