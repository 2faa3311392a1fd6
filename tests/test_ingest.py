"""CSV parsing, normalization round trips, the synthetic time counter."""

import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from som_atlas.errors import CsvFormatError, RangeOverflowError, SomAtlasError
from som_atlas.ingest import (
    QUASI_CONSTANT_EPS,
    AttributeSpec,
    DataTable,
    NormalizedTable,
    append_time_counter,
    apply_schema,
    normalize,
    parse_csv,
)

from conftest import make_table, mutate

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
    assert table.names == ("a", "b", "c")
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


def test_parse_keeps_rows_whose_cells_parse_one_by_one():
    # A sum of finite values that overflows, and a cell whose \x1f str.strip()
    # removes and float() rejects: list(map(float, record)) with a finiteness
    # check on the sum would refuse both.
    table = parse_csv(io.StringIO("a,b\n1e308,1.5e308\n1\x1f,2\n"))
    assert table.rows.tolist() == [[1e308, 1.5e308], [1.0, 2.0]]


def test_drop_bad_rows_keeps_good_ones():
    src = "a,b\n1,2\n3,oops\n5,6\n7\n"
    table = parse_csv(io.StringIO(src), drop_bad_rows=True)
    assert table.n_rows == 2
    assert np.array_equal(table.rows, [[1, 2], [5, 6]])
    assert [rownum for rownum, _ in table.dropped_rows] == [3, 5]


# Line 2 is a record whose quoted field holds a newline, so line 4 is the third record.
MULTILINE = 'a,b\n"1\n",2\n3,x\n'


def test_parse_numbers_rows_by_the_line_they_start_on():
    with pytest.raises(CsvFormatError, match=r"^row 4: column 2 \(b\): not a number"):
        parse_csv(io.StringIO(MULTILINE))
    with pytest.raises(CsvFormatError, match=r"^row 4: expected 2 fields, found 1"):
        parse_csv(io.StringIO('a,b\n"1\n",2\n3\n'))
    with pytest.raises(CsvFormatError, match=r"^row 4: field larger than field limit"):
        parse_csv(io.StringIO('a,b\n"1\n",2\n3,' + "4" * 200_000 + "\n"))
    with pytest.raises(CsvFormatError, match=r"^row 3: column 1 \(a\): not a number: 'x\\ny'"):
        parse_csv(io.StringIO('a,b\n1,2\n"x\ny",2\n'))  # the line it starts on, not ends on
    table = parse_csv(io.StringIO(MULTILINE), drop_bad_rows=True)
    assert table.dropped_rows == ((4, "column 2 (b): not a number: 'x'"),)
    table = parse_csv(io.StringIO("a,b\n\n1,2\n\n3\n"), drop_bad_rows=True)
    assert [rownum for rownum, _ in table.dropped_rows] == [5]  # blank lines count


@pytest.mark.parametrize("drop_bad_rows", [False, True])
def test_parse_field_over_the_csv_size_limit_names_the_row(drop_bad_rows):
    src = "a,b\n1,2\n3," + "4" * 200_000 + "\n5,6\n"
    with pytest.raises(CsvFormatError, match=r"^row 3: field larger than field limit"):
        parse_csv(io.StringIO(src), drop_bad_rows=drop_bad_rows)


def _reference_parse_csv(source, header=True, drop_bad_rows=False) -> DataTable:
    """Per-cell reader that the one-pass ``parse_csv`` replaced, on a text stream."""
    reader = csv.reader(source)
    names = None
    data = []
    dropped = []
    width = 0
    line = reader.line_num + 1
    try:
        for record in reader:
            rownum, line = line, reader.line_num + 1
            if not record:
                continue
            if names is None:
                if header:
                    names = [cell.strip() for cell in record]
                    if any(not n for n in names):
                        raise CsvFormatError(f"row {rownum}: empty attribute name in header")
                    if len(set(names)) != len(names):
                        raise CsvFormatError(f"row {rownum}: duplicate attribute names in header")
                    width = len(names)
                    continue
                width = len(record)
                names = [f"col{i + 1}" for i in range(width)]
            problem = None
            if len(record) != width:
                problem = f"expected {width} fields, found {len(record)}"
            else:
                values = []
                for colnum, cell in enumerate(record, start=1):
                    name, text = names[colnum - 1], cell.strip()
                    try:
                        v = float(text)
                    except ValueError:
                        problem = f"column {colnum} ({name}): not a number: {text!r}"
                        break
                    if not math.isfinite(v):
                        problem = f"column {colnum} ({name}): non-finite value {text!r}"
                        break
                    values.append(v)
            if problem is not None:
                if drop_bad_rows:
                    dropped.append((rownum, problem))
                    continue
                raise CsvFormatError(f"row {rownum}: {problem}")
            data.append(values)
    except csv.Error as exc:
        raise CsvFormatError(f"row {line}: {exc}") from None
    if names is None:
        raise CsvFormatError("empty input: no header row")
    if not data:
        raise CsvFormatError("no data rows")
    rows = np.asarray(data, dtype=np.float64)
    return DataTable(names=names, rows=rows, dropped_rows=tuple(dropped))


# The valid log of the CLI's mutation test, plus a row of finite values whose sum overflows.
_LOG_ROWS = np.random.default_rng(3).random((12, 3)).tolist() + [[1e308, 1.5e308, -1e308]]
LOG = ("a,b,c\n" + "".join(",".join(map(repr, row)) + "\n" for row in _LOG_ROWS)).encode()


def _parsed(parse, data: bytes, header, drop_bad_rows):
    """A table as (row bytes, names, dropped rows), or the text of its CsvFormatError."""
    # Decoded and split into lines as a path is, so the reader sees any '\r'.
    source = io.StringIO(data.decode("utf-8", "replace"), newline="")
    try:
        table = parse(source, header=header, drop_bad_rows=drop_bad_rows)
    except CsvFormatError as exc:
        return str(exc)
    return table.rows.tobytes(), table.names, table.dropped_rows


@pytest.mark.parametrize("drop_bad_rows", [False, True])
@pytest.mark.parametrize("header", [True, False])
def test_parse_matches_the_per_cell_reference_on_mutated_logs(header, drop_bad_rows):
    log = LOG if header else LOG.split(b"\n", 1)[1]
    seen = set()
    for seed in [None, *range(2000)]:
        data = mutate(log, seed)
        expected = _parsed(_reference_parse_csv, data, header, drop_bad_rows)
        assert _parsed(parse_csv, data, header, drop_bad_rows) == expected, (seed, data)
        seen.add("error" if isinstance(expected, str) else "dropped" if expected[2] else "clean")
    # The mutations reach every outcome the flags allow.
    assert seen == ({"error", "clean", "dropped"} if drop_bad_rows else {"error", "clean"})


def test_long_log_memory_grows_by_the_values_alone():
    # 8 columns are 64 bytes a row as float64; a Python float per value, in a
    # list per row, costs about 400.
    values = np.random.default_rng(15).random(20_000 * 8).tolist()
    lines = (("%.4f," * 7 + "%.4f\n") * 20_000 % tuple(values)).splitlines(keepends=True)
    header = ",".join(f"a{i}" for i in range(8)) + "\n"

    def peak(n_rows):
        source = io.StringIO(header + "".join(lines[:n_rows]))
        tracemalloc.start()
        try:
            parse_csv(source)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(20_000) - peak(5_000)) / 15_000 <= 3 * 8 * 8


def test_parse_headerless_generates_names():
    table = parse_csv(io.StringIO("1,2\n3,4\n"), header=False)
    assert table.names == ("col1", "col2")
    assert table.n_rows == 2


BOM = "\ufeff".encode()


def test_parse_path_drops_a_utf8_bom(tmp_path):
    text = "Temp,Pressure\n0.5,2\n1.5,3\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(BOM + text.encode())
    table = parse_csv(marked)
    assert table.names == parse_csv(plain).names == ("Temp", "Pressure")
    assert np.array_equal(table.rows, parse_csv(plain).rows)


def test_parse_path_drops_a_utf8_bom_without_header(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(BOM + b"0.5,2\n1.5,3\n")
    table = parse_csv(path, header=False)
    assert table.names == ("col1", "col2")
    assert np.array_equal(table.rows, [[0.5, 2], [1.5, 3]])


def test_parse_duplicate_header_rejected():
    with pytest.raises(CsvFormatError, match="duplicate"):
        parse_csv(io.StringIO("a,a\n1,2\n"))


def test_parse_semicolon_delimiter():
    table = parse_csv(io.StringIO("a;b\n1;2\n"), delimiter=";")
    assert table.names == ("a", "b")


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
    assert table.names == tuple(SENSOR_LOG_LABELS)


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


def test_normalize_is_the_column_formula_bit_for_bit():
    # With numpy's minimum of -0.0 and 0.0 read as +0.0, the formula keeps
    # "-0" as -0.0; a copied row (unit alpha) carries that sign into the model.
    table = parse_csv(io.StringIO("a,b\n-0,3\n0,1e-3\n1,7.25\n0.3,2\n"))
    expected = np.column_stack(
        [(col - col.min()) / (col.max() - col.min()) for col in table.rows.T]
    )
    assert normalize(table).rows.tobytes() == expected.tobytes()


def test_normalize_rejects_range_wider_than_float64():
    table = make_table([[-1e308], [0.0], [1e308]], names=["wide"])
    with pytest.raises(ValueError, match="wide"):
        normalize(table)


def test_range_wider_than_float64_is_a_data_error():
    # A SomAtlasError, so the CLI exits 2; still a ValueError for library callers.
    table = make_table([[1e308, 1.0], [-1e308, 2.0]], names=["a", "b"])
    with pytest.raises(RangeOverflowError, match="attribute 'a'.*wider than float64") as info:
        normalize(table)
    assert isinstance(info.value, SomAtlasError) and isinstance(info.value, ValueError)


def _normalize_value(spec, v):
    """Per-value scaling that ``apply_schema`` vectorizes: the reference."""
    clamped = bool(v < spec.raw_min or v > spec.raw_max)
    if spec.quasi_constant:
        return 0.5, clamped
    t = (v - spec.raw_min) / (spec.raw_max - spec.raw_min)
    return min(1.0, max(0.0, t)), clamped


def test_apply_schema_matches_per_value_reference():
    schema = (
        AttributeSpec("a", 1.0, 12.0),
        AttributeSpec("b", 5.0, 5.0),  # quasi-constant
        AttributeSpec("c", -1e308, 1e308),  # range overflows: t is 0 or NaN
        AttributeSpec("d", 0.0, 3e-9),
    )
    rng = np.random.default_rng(4)
    rows = np.column_stack([
        rng.uniform(-2.0, 15.0, 40),
        rng.uniform(4.9, 5.1, 40),
        rng.choice([-1e308, 0.0, 1e308], 40),
        rng.uniform(-1e-9, 4e-9, 40),
    ])
    rows[0] = [1.0, 5.0, 1e308, 0.0]
    rows[1] = [12.0, 5.0, -1e308, 3e-9]
    with np.errstate(over="ignore", invalid="ignore"):
        normalized, clamped = apply_schema(schema, rows)
    for r, raw in enumerate(rows):
        expected = [_normalize_value(spec, v) for spec, v in zip(schema, raw.tolist())]
        assert normalized[r].tolist() == [t for t, _ in expected]
        assert clamped[r] == any(flag for _, flag in expected)
    assert not clamped[:2].any() and clamped.any()


def test_normalize_empty_rejected():
    table = DataTable(names=["a"], rows=np.empty((0, 1)))
    with pytest.raises(ValueError):
        normalize(table)


_UNIT = AttributeSpec("a", 0.0, 1.0)
_UNIT_B = AttributeSpec("b", 0.0, 1.0)


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


def test_normalized_table_rejects_repeated_names():
    # Rejected here, so ``train`` cannot run on a table whose model it could not build.
    with pytest.raises(ValueError, match="unique"):
        NormalizedTable(schema=(_UNIT, AttributeSpec("a", 0.0, 2.0)), rows=[[0.5, 0.5]])


@pytest.mark.parametrize(
    "names,match",
    [
        (["a", ""], "non-empty string, got ''"),
        (["a", 1], "non-empty string, got 1"),
        ([b"a", "b"], "non-empty string, got b'a'"),
        (["a", "a"], "unique"),
        (["a"], "2 columns but 1 attributes"),
    ],
    ids=["empty", "int", "bytes", "repeated", "too-few"],
)
def test_data_table_rejects_bad_names(names, match):
    with pytest.raises(ValueError, match=match):
        DataTable(names=names, rows=[[1.0, 2.0]])


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
            inverse = spec.raw_min + float(normalized) * (spec.raw_max - spec.raw_min)
            assert abs(inverse - original) <= 1e-12


def test_time_counter_basic():
    table = make_table([[1.0], [2.0], [3.0]], names=["x"])
    out = append_time_counter(table, 0.5)
    assert out.names == ("Time", "x")
    assert np.array_equal(out.rows[:, 0], [0.0, 0.5, 1.0])


def test_time_counter_single_row():
    out = append_time_counter(make_table([[7.0]]), 2.0)
    assert np.array_equal(out.rows[:, 0], [0.0])
    with pytest.warns(UserWarning, match="quasi-constant"):
        assert normalize(out).schema[0].quasi_constant  # zero range on one sample


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
    for period in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            append_time_counter(table, period)
    # One row's counter is 0 whatever the period; two rows' last value overflows.
    assert append_time_counter(table, 1e308).rows[:, 0].tolist() == [0.0]
    with pytest.raises(ValueError, match=r"period 1e\+308 overflows"):
        append_time_counter(make_table([[1.0], [2.0], [3.0]]), 1e308)
    timed = append_time_counter(table, 1.0)
    with pytest.raises(ValueError, match="Time"):
        append_time_counter(timed, 1.0)


@pytest.mark.parametrize("name", ["", 5, None, b"a"])
def test_attribute_spec_rejects_names_that_are_not_strings(name):
    # A name that is not text could not be written to or read back from a model file.
    with pytest.raises(ValueError, match="non-empty string"):
        AttributeSpec(name, 0.0, 1.0)


def test_quasi_constant_flag_matches_range():
    assert AttributeSpec(name="x", raw_min=0.0, raw_max=QUASI_CONSTANT_EPS / 2).quasi_constant
    assert not AttributeSpec(name="x", raw_min=0.0, raw_max=QUASI_CONSTANT_EPS).quasi_constant
