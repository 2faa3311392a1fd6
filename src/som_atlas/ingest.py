"""Sensor-log ingestion: CSV parsing, min-max normalization, time counter.

A log parses to a ``DataTable`` of names and raw rows. ``normalize`` maps
each column to [0, 1] with its observed min and max, kept as the table's
``AttributeSpec`` schema, so the lowest value maps to exactly 0.0 and the
highest to exactly 1.0. Columns whose raw range is below
``QUASI_CONSTANT_EPS`` carry no usable signal (measurement jitter would blow
up to full scale); they are pinned to 0.5 and flagged instead.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CsvFormatError, RangeOverflowError

# Raw ranges narrower than this are treated as constant.
QUASI_CONSTANT_EPS = 1e-9

TIME_ATTRIBUTE = "Time"


@dataclass(frozen=True)
class AttributeSpec:
    """One attribute of a schema, indexed by its position: label and raw-unit range."""

    name: str
    raw_min: float
    raw_max: float

    def __post_init__(self) -> None:
        if not (isinstance(self.name, str) and self.name):
            raise ValueError(f"attribute name must be a non-empty string, got {self.name!r}")
        if not (math.isfinite(self.raw_min) and math.isfinite(self.raw_max)):
            raise ValueError(
                f"attribute {self.name!r}: range [{self.raw_min}, {self.raw_max}] is not finite"
            )
        if not (self.raw_min <= self.raw_max):
            raise ValueError(
                f"attribute {self.name!r}: raw_min {self.raw_min} > raw_max {self.raw_max}"
            )

    @property
    def quasi_constant(self) -> bool:
        """Whether the range is too narrow to scale: such an attribute is pinned to 0.5."""
        return (self.raw_max - self.raw_min) < QUASI_CONSTANT_EPS


@dataclass(frozen=True)
class DataTable:
    """Rectangular numeric table in raw source units: one unique, non-empty name a column."""

    names: tuple[str, ...]
    rows: np.ndarray
    dropped_rows: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        names = tuple(self.names)
        for name in names:
            if not (isinstance(name, str) and name):
                raise ValueError(f"attribute name must be a non-empty string, got {name!r}")
        require_unique_names(names)
        rows = _row_matrix(self.rows, names)
        if not np.all(np.isfinite(rows)):
            raise ValueError("table contains non-finite values")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "rows", rows)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_attrs(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class NormalizedTable:
    """Table mapped to [0, 1] per attribute; schema holds the raw ranges."""

    schema: tuple[AttributeSpec, ...]
    rows: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "schema", tuple(self.schema))
        require_unique_names([a.name for a in self.schema])
        rows = _row_matrix(self.rows, self.schema)
        # Written so that NaN, which fails every comparison, is rejected too.
        if rows.size and not (rows.min() >= 0.0 and rows.max() <= 1.0):
            raise ValueError("normalized values must be finite and lie in [0, 1]")
        object.__setattr__(self, "rows", rows)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_attrs(self) -> int:
        return self.rows.shape[1]


def require_unique_names(names) -> None:
    """Raise ``ValueError`` if an attribute name occurs twice in ``names``."""
    if len(set(names)) != len(names):
        raise ValueError("attribute names must be unique")


def _row_matrix(rows, attributes) -> np.ndarray:
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-D matrix")
    if rows.shape[1] != len(attributes):
        raise ValueError(f"{rows.shape[1]} columns but {len(attributes)} attributes")
    return rows


def _observed_spec(name: str, column: np.ndarray) -> AttributeSpec:
    return AttributeSpec(name, float(column.min()), float(column.max()))


def parse_csv(
    source,
    delimiter: str = ",",
    header: bool = True,
    drop_bad_rows: bool = False,
) -> DataTable:
    """Parse a numeric CSV into a DataTable.

    ``source`` is a path, read as UTF-8 with a leading byte-order mark
    dropped, or a text file object, read as it is. The first row is a header of
    unique attribute names unless ``header=False``, in which case columns are
    named col1..colN. Ragged rows, non-numeric cells and non-finite literals
    reject the file with the row's number, the 1-based line it starts on
    (blank lines and newlines inside quoted fields counted); with
    ``drop_bad_rows`` the offending rows are skipped and recorded in
    ``dropped_rows``, by the same number, instead. A
    line the ``csv`` module cannot read (say, a field longer than
    ``csv.field_size_limit()``) rejects the file with its line number; a path
    whose bytes are not UTF-8 rejects it naming the path.
    """
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise ValueError(f"delimiter must be exactly one character, got {delimiter!r}")
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            try:
                return parse_csv(fh, delimiter=delimiter, header=header,
                                 drop_bad_rows=drop_bad_rows)
            except UnicodeDecodeError as exc:
                # Decoded ahead of the reader, in blocks: no line to name.
                raise CsvFormatError(f"{source}: not UTF-8 text ({exc.reason})") from None

    records = _records(csv.reader(source, delimiter=delimiter))
    rownum, record = next(records, (0, []))
    if not record:
        raise CsvFormatError("empty input: no header row")
    if header:
        names = [cell.strip() for cell in record]
        if any(not n for n in names):
            raise CsvFormatError(f"row {rownum}: empty attribute name in header")
        if len(set(names)) != len(names):
            raise CsvFormatError(f"row {rownum}: duplicate attribute names in header")
    else:
        names = [f"col{i + 1}" for i in range(len(record))]
        records = itertools.chain([(rownum, record)], records)

    values = array("d")
    dropped: list[tuple[int, str]] = []
    for rownum, record in records:
        row = _cells(record, names)
        if isinstance(row, list):
            values.extend(row)
        elif drop_bad_rows:
            dropped.append((rownum, row))
        else:
            raise CsvFormatError(f"row {rownum}: {row}")

    if not values:
        raise CsvFormatError("no data rows")
    rows = np.frombuffer(values, dtype=np.float64).reshape(-1, len(names))
    return DataTable(names=names, rows=rows, dropped_rows=tuple(dropped))


def _records(reader):
    """Each non-blank record with the 1-based line it starts on, blank lines counted."""
    line = reader.line_num + 1
    try:
        for record in reader:
            if record:
                yield line, record
            line = reader.line_num + 1
    except csv.Error as exc:
        raise CsvFormatError(f"row {line}: {exc}") from None


def _cells(record, names) -> list[float] | str:
    """``record``'s stripped cells as finite floats, or why they are not a row under ``names``."""
    if len(record) != len(names):
        return f"expected {len(names)} fields, found {len(record)}"
    row = []
    for colnum, cell in enumerate(record, start=1):
        cell = cell.strip()
        try:
            v = float(cell)
        except ValueError:
            return f"column {colnum} ({names[colnum - 1]}): not a number: {cell!r}"
        if not math.isfinite(v):
            return f"column {colnum} ({names[colnum - 1]}): non-finite value {cell!r}"
        row.append(v)
    return row


def normalize(table: DataTable) -> NormalizedTable:
    """Min-max normalize every attribute against its observed range.

    Quasi-constant columns map to 0.5 everywhere (with a warning) so that a
    sub-tolerance wiggle cannot masquerade as full-scale structure. A range
    wider than float64 can hold raises ``RangeOverflowError``.
    """
    if table.n_rows == 0:
        raise ValueError("cannot normalize an empty table")
    schema = tuple(_observed_spec(name, col) for name, col in zip(table.names, table.rows.T))
    for spec in schema:
        if not math.isfinite(spec.raw_max - spec.raw_min):
            raise RangeOverflowError(
                f"attribute {spec.name!r}: range [{spec.raw_min}, {spec.raw_max}] "
                "is wider than float64 can hold"
            )
        if spec.quasi_constant:
            warnings.warn(
                f"attribute {spec.name!r} is quasi-constant "
                f"(range {spec.raw_max - spec.raw_min:g}); pinned to 0.5",
                stacklevel=2,
            )
    # Every value lies in its observed range, so apply_schema clips nothing.
    rows, _ = apply_schema(schema, table.rows)
    return NormalizedTable(schema=schema, rows=rows)


def apply_schema(schema, rows) -> tuple[np.ndarray, np.ndarray]:
    """Scale raw ``rows`` by the ranges in ``schema``: (normalized, clamped).

    Each value becomes ``(v - raw_min) / (raw_max - raw_min)`` clipped to
    [0, 1], with NaN (from a range wider than float64) sent to 0 as Python's
    ``min(1.0, max(0.0, t))`` does, or 0.5 for a quasi-constant attribute.
    A -0.0 is kept: no distance can tell it from 0.0, and ``normalize`` has
    always kept it. ``clamped`` flags, per row, whether any value lay outside
    its attribute's range.
    """
    rows = _row_matrix(rows, schema)
    low = np.array([spec.raw_min for spec in schema])
    high = np.array([spec.raw_max for spec in schema])
    pinned = np.array([spec.quasi_constant for spec in schema], dtype=bool)
    clamped = ((rows < low) | (rows > high)).any(axis=1)
    out = rows - low
    # A quasi-constant range may be 0; its columns are overwritten below.
    out /= np.where(pinned, 1.0, high - low)
    out[~(out >= 0.0)] = 0.0
    out[out > 1.0] = 1.0
    out[:, pinned] = 0.5
    return out, clamped


def append_time_counter(table: DataTable, period: float) -> DataTable:
    """Prepend a synthetic "Time" attribute counting 0, period, 2*period, ...

    A monotone counter makes time-dependence visible downstream: any attribute
    that drifts with the log will show a weight plane correlated with this one.
    """
    if not (0 < period < math.inf):
        raise ValueError(f"period {period} is not positive and finite")
    # Checked before multiplying, so an overflowing counter warns nowhere.
    if not math.isfinite(max(table.n_rows - 1, 0) * period):
        raise ValueError(
            f"period {period} overflows the counter's last value ({table.n_rows} rows)"
        )
    if TIME_ATTRIBUTE in table.names:
        raise ValueError(f"table already has a {TIME_ATTRIBUTE!r} attribute")
    time_col = np.arange(table.n_rows, dtype=np.float64) * period
    rows = np.column_stack([time_col, table.rows])
    return DataTable(
        names=(TIME_ATTRIBUTE, *table.names), rows=rows, dropped_rows=table.dropped_rows
    )
