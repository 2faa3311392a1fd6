"""CSV parsing, normalization round trips, the synthetic time counter."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from som_atlas.errors import CsvFormatError
from som_atlas.ingest import (
    QUASI_CONSTANT_EPS,
    AttributeSpec,
    NormalizedTable,
    append_time_counter,
    denormalize,
    normalize,
    parse_csv,
)

from conftest import make_table

# The 27 attribute labels of the reference sensor-log schema.
SENSOR_LOG_LABELS = [
    "Time",
    "Mass flux",
    "Density of the liquid",
    "Temperature after subcooling",
    "Low pressure after swirl evaporator",
    "Evaporation pressure",
    "Temperature before subcooling",
    "Temperature after superheating",
    "Condensation temperature",
    "Evaporation temperature",
    "Thermostat output temperature",
    "Glycol input temperature",
    "Glycol output temperature",
    "Condensation pressure",
    "Pressure after superheating",
    "Temperature thermocouple 1",
    "Temperature thermocouple 2",
    "Temperature thermocouple 3",
    "Temperature thermocouple 4",
    "Thermostat input",
    "Temperature after the compressor",
    "Actual power",
    "Target power",
    "Mean value of radial temperature (thermocouple 1 to 4)",
    "Mass flow low pass filtered",
    "Face temperature of the swirl evaporator cavity (thermocouple 5)",
    "Room temperature",
]


def test_parse_well_formed():
    table = parse_csv(io.StringIO("a,b,c\n1,2,3\n4,5,6\n"))
    assert table.n_rows == 2
    assert table.n_attrs == 3
    assert table.names == ["a", "b", "c"]
    assert np.array_equal(table.rows, [[1, 2, 3], [4, 5, 6]])


def test_parse_ragged_row_names_row_number():
    with pytest.raises(CsvFormatError, match="row 3"):
        parse_csv(io.StringIO("a,b,c\n1,2,3\n4,5\n"))


def test_parse_bad_cell_names_row_and_column():
    with pytest.raises(CsvFormatError, match="row 2.*column 2"):
        parse_csv(io.StringIO("a,b\n1,x\n"))


def test_parse_rejects_non_finite():
    with pytest.raises(CsvFormatError, match="row 2.*non-finite"):
        parse_csv(io.StringIO("a,b\n1,nan\n"))
    with pytest.raises(CsvFormatError, match="non-finite"):
        parse_csv(io.StringIO("a\ninf\n"))


def test_drop_bad_rows_keeps_good_ones():
    src = "a,b\n1,2\n3,oops\n5,6\n7\n"
    table = parse_csv(io.StringIO(src), drop_bad_rows=True)
    assert table.n_rows == 2
    assert np.array_equal(table.rows, [[1, 2], [5, 6]])
    assert [rownum for rownum, _ in table.dropped_rows] == [3, 5]


def test_parse_headerless_generates_names():
    table = parse_csv(io.StringIO("1,2\n3,4\n"), header=False)
    assert table.names == ["col1", "col2"]
    assert table.n_rows == 2


def test_parse_duplicate_header_rejected():
    with pytest.raises(CsvFormatError, match="duplicate"):
        parse_csv(io.StringIO("a,a\n1,2\n"))


def test_parse_semicolon_delimiter():
    table = parse_csv(io.StringIO("a;b\n1;2\n"), delimiter=";")
    assert table.names == ["a", "b"]


def test_parse_empty_and_no_data():
    with pytest.raises(CsvFormatError, match="empty"):
        parse_csv(io.StringIO(""))
    with pytest.raises(CsvFormatError, match="no data rows"):
        parse_csv(io.StringIO("a,b\n"))


def test_parse_sensor_log_schema():
    header = ",".join(SENSOR_LOG_LABELS)
    body = ",".join(str(i) for i in range(27))
    table = parse_csv(io.StringIO(f"{header}\n{body}\n{body}\n"))
    assert table.n_attrs == 27
    assert table.names == SENSOR_LOG_LABELS
    assert [a.index for a in table.schema] == list(range(27))


def test_normalize_pressure_range_endpoints():
    # A 1..12 bar column: 1 maps to the black end, 12 to the yellow end.
    table = make_table([[1.0], [12.0], [6.0]], names=["pressure"])
    ntable = normalize(table)
    col = ntable.rows[:, 0]
    assert col[0] == 0.0
    assert col[1] == 1.0
    assert abs(col[2] - 5.0 / 11.0) < 1e-12
    spec = ntable.schema[0]
    assert (spec.raw_min, spec.raw_max, spec.quasi_constant) == (1.0, 12.0, False)


def test_normalize_constant_column_pinned():
    table = make_table([[10.0, 1.0], [10.0, 2.0]], names=["const", "var"])
    with pytest.warns(UserWarning, match="quasi-constant"):
        ntable = normalize(table)
    assert np.all(ntable.rows[:, 0] == 0.5)
    assert ntable.schema[0].quasi_constant
    assert not ntable.schema[1].quasi_constant


def test_normalize_empty_rejected():
    from som_atlas.ingest import DataTable

    table = DataTable(schema=(AttributeSpec("a", 0, 0.0, 1.0),), rows=np.empty((0, 1)))
    with pytest.raises(ValueError):
        normalize(table)


_UNIT = AttributeSpec("a", 0, 0.0, 1.0)
_UNIT_B = AttributeSpec("b", 1, 0.0, 1.0)


@pytest.mark.parametrize(
    "schema,rows",
    [
        ((_UNIT,), [[0.5], [np.nan]]),
        ((_UNIT,), [0.5, 0.25]),
        ((_UNIT, _UNIT_B), [[0.5], [0.25]]),
        ((_UNIT,), [[1.5]]),
    ],
    ids=["nan-row", "one-dimensional", "schema-wider-than-rows", "above-one"],
)
def test_normalized_table_rejects_bad_rows(schema, rows):
    with pytest.raises(ValueError):
        NormalizedTable(schema=schema, rows=np.array(rows))


def test_denormalize_endpoints_and_midpoint():
    spec = AttributeSpec(name="p", index=0, raw_min=1.0, raw_max=12.0)
    assert denormalize(0.0, spec) == 1.0
    assert denormalize(1.0, spec) == 12.0
    mid = AttributeSpec(name="q", index=0, raw_min=10.0, raw_max=20.0)
    assert denormalize(0.5, mid) == 15.0


def test_denormalize_quasi_constant_rejected():
    spec = AttributeSpec(name="c", index=0, raw_min=5.0, raw_max=5.0, quasi_constant=True)
    with pytest.raises(ValueError, match="quasi-constant"):
        denormalize(0.5, spec)


@settings(max_examples=200)
@given(
    values=st.lists(
        st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False),
        min_size=2,
        max_size=30,
    )
)
def test_normalize_denormalize_round_trip(values):
    import warnings

    table = make_table([[v] for v in values])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quasi-constant draws are expected here
        ntable = normalize(table)
    spec = ntable.schema[0]
    col = ntable.rows[:, 0]
    assert col.min() >= 0.0 and col.max() <= 1.0
    if spec.quasi_constant:
        assert np.all(col == 0.5)
    else:
        assert col.min() == 0.0 and col.max() == 1.0
        for normalized, original in zip(col, values):
            assert abs(denormalize(float(normalized), spec) - original) <= 1e-12


def test_time_counter_basic():
    table = make_table([[1.0], [2.0], [3.0]], names=["x"])
    out = append_time_counter(table, 0.5)
    assert out.names == ["Time", "x"]
    assert np.array_equal(out.rows[:, 0], [0.0, 0.5, 1.0])
    assert [a.index for a in out.schema] == [0, 1]


def test_time_counter_single_row():
    out = append_time_counter(make_table([[7.0]]), 2.0)
    assert np.array_equal(out.rows[:, 0], [0.0])
    assert out.schema[0].quasi_constant  # zero range on one sample


def test_time_counter_monotone_affine():
    n = 40
    out = append_time_counter(make_table([[float(i)] for i in range(n)]), 0.25)
    time_col = out.rows[:, 0]
    assert np.all(np.diff(time_col) > 0)
    assert np.allclose(np.diff(time_col), 0.25)


def test_time_counter_validation():
    table = make_table([[1.0]])
    with pytest.raises(ValueError):
        append_time_counter(table, 0.0)
    timed = append_time_counter(table, 1.0)
    with pytest.raises(ValueError, match="Time"):
        append_time_counter(timed, 1.0)


def test_quasi_constant_flag_matches_range():
    spec = AttributeSpec(name="x", index=0, raw_min=0.0, raw_max=QUASI_CONSTANT_EPS / 2, quasi_constant=True)
    assert spec.quasi_constant
    with pytest.raises(ValueError, match="inconsistent"):
        AttributeSpec(name="x", index=0, raw_min=0.0, raw_max=1.0, quasi_constant=True)
