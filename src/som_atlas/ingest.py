"""Sensor-log ingestion: CSV parsing, min-max normalization, time counter.

Attributes are normalized per column to [0, 1] with the observed min and max,
so the lowest observed value maps to exactly 0.0 and the highest to exactly
1.0. Columns whose raw range is below ``QUASI_CONSTANT_EPS`` carry no usable
signal (measurement jitter would blow up to full scale); they are pinned to
0.5 and flagged instead.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import CsvFormatError

# Raw ranges narrower than this are treated as constant.
QUASI_CONSTANT_EPS = 1e-9

TIME_ATTRIBUTE = "Time"


@dataclass(frozen=True)
class AttributeSpec:
    """One column of a sensor log: label plus its raw-unit value range."""

    name: str
    index: int
    raw_min: float
    raw_max: float
    quasi_constant: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")
        if not (self.raw_min <= self.raw_max):
            raise ValueError(
                f"attribute {self.name!r}: raw_min {self.raw_min} > raw_max {self.raw_max}"
            )
        if self.quasi_constant != ((self.raw_max - self.raw_min) < QUASI_CONSTANT_EPS):
            raise ValueError(
                f"attribute {self.name!r}: quasi_constant flag inconsistent with "
                f"range [{self.raw_min}, {self.raw_max}]"
            )


@dataclass(frozen=True)
class DataTable:
    """Rectangular numeric table in raw source units."""

    schema: tuple[AttributeSpec, ...]
    rows: np.ndarray
    dropped_rows: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "schema", tuple(self.schema))
        rows = _row_matrix(self.rows, self.schema)
        if not np.all(np.isfinite(rows)):
            raise ValueError("table contains non-finite values")
        names = [a.name for a in self.schema]
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique")
        object.__setattr__(self, "rows", rows)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_attrs(self) -> int:
        return self.rows.shape[1]

    @property
    def names(self) -> list[str]:
        return [a.name for a in self.schema]


@dataclass(frozen=True)
class NormalizedTable:
    """Table mapped to [0, 1] per attribute; schema holds the raw ranges."""

    schema: tuple[AttributeSpec, ...]
    rows: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "schema", tuple(self.schema))
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


def _row_matrix(rows, schema) -> np.ndarray:
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-D matrix")
    if rows.shape[1] != len(schema):
        raise ValueError(f"{rows.shape[1]} columns but schema has {len(schema)} attributes")
    return rows


def _observed_spec(name: str, index: int, column: np.ndarray) -> AttributeSpec:
    vmin = float(column.min())
    vmax = float(column.max())
    return AttributeSpec(
        name=name,
        index=index,
        raw_min=vmin,
        raw_max=vmax,
        quasi_constant=(vmax - vmin) < QUASI_CONSTANT_EPS,
    )


def parse_csv(
    source,
    delimiter: str = ",",
    header: bool = True,
    drop_bad_rows: bool = False,
) -> DataTable:
    """Parse a numeric CSV into a DataTable.

    ``source`` is a path or a text file object. The first row is a header of
    unique attribute names unless ``header=False``, in which case columns are
    named col1..colN. Ragged rows, non-numeric cells and non-finite literals
    reject the file with the 1-based row number; with ``drop_bad_rows`` the
    offending rows are skipped and recorded in ``dropped_rows`` instead.
    """
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise ValueError(f"delimiter must be exactly one character, got {delimiter!r}")
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return parse_csv(fh, delimiter=delimiter, header=header, drop_bad_rows=drop_bad_rows)
    if isinstance(source, (bytes, bytearray)):
        return parse_csv(
            io.StringIO(source.decode("utf-8")),
            delimiter=delimiter,
            header=header,
            drop_bad_rows=drop_bad_rows,
        )

    reader = csv.reader(source, delimiter=delimiter)
    names: list[str] | None = None
    data: list[list[float]] = []
    dropped: list[tuple[int, str]] = []
    width = 0

    for rownum, record in enumerate(reader, start=1):
        if not record:
            continue  # blank line (e.g. trailing newline)
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
            # fall through: this record is data

        problem = None
        if len(record) != width:
            problem = f"expected {width} fields, found {len(record)}"
        else:
            values = []
            for colnum, cell in enumerate(record, start=1):
                try:
                    v = float(cell.strip())
                except ValueError:
                    problem = f"column {colnum} ({names[colnum - 1]}): not a number: {cell.strip()!r}"
                    break
                if not math.isfinite(v):
                    problem = f"column {colnum} ({names[colnum - 1]}): non-finite value {cell.strip()!r}"
                    break
                values.append(v)

        if problem is not None:
            if drop_bad_rows:
                dropped.append((rownum, problem))
                continue
            raise CsvFormatError(f"row {rownum}: {problem}")
        data.append(values)

    if names is None:
        raise CsvFormatError("empty input: no header row")
    if not data:
        raise CsvFormatError("no data rows")

    rows = np.asarray(data, dtype=np.float64)
    schema = tuple(_observed_spec(n, i, rows[:, i]) for i, n in enumerate(names))
    return DataTable(schema=schema, rows=rows, dropped_rows=tuple(dropped))


def normalize(table: DataTable) -> NormalizedTable:
    """Min-max normalize every attribute against its observed range.

    Quasi-constant columns map to 0.5 everywhere (with a warning) so that a
    sub-tolerance wiggle cannot masquerade as full-scale structure.
    """
    if table.n_rows == 0:
        raise ValueError("cannot normalize an empty table")
    schema = tuple(
        _observed_spec(spec.name, i, table.rows[:, i]) for i, spec in enumerate(table.schema)
    )
    for spec in schema:
        if not math.isfinite(spec.raw_max - spec.raw_min):
            raise ValueError(
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


def denormalize(value: float, spec: AttributeSpec) -> float:
    """Map a [0, 1] value back to raw units; undefined for quasi-constant attributes."""
    if spec.quasi_constant:
        raise ValueError(f"attribute {spec.name!r} is quasi-constant; inverse undefined")
    return spec.raw_min + value * (spec.raw_max - spec.raw_min)


def append_time_counter(table: DataTable, period: float) -> DataTable:
    """Prepend a synthetic "Time" attribute counting 0, period, 2*period, ...

    A monotone counter makes time-dependence visible downstream: any attribute
    that drifts with the log will show a weight plane correlated with this one.
    """
    if not (period > 0):
        raise ValueError(f"period must be positive, got {period}")
    if TIME_ATTRIBUTE in table.names:
        raise ValueError(f"table already has a {TIME_ATTRIBUTE!r} attribute")
    time_col = np.arange(table.n_rows, dtype=np.float64) * period
    rows = np.column_stack([time_col, table.rows])
    schema = [_observed_spec(TIME_ATTRIBUTE, 0, time_col)]
    schema += [replace(spec, index=i + 1) for i, spec in enumerate(table.schema)]
    return DataTable(schema=tuple(schema), rows=rows, dropped_rows=table.dropped_rows)
