"""Versioned plain-text model files.

Layout (one record per line, fields space-separated, floats printed as the
shortest decimal that round-trips):

    som-atlas-model v1
    grid <width> <height> odd-r
    dim <n>
    schedule epochs=<E> alpha0=<a> alpha_end=<b> sigma0=<s> shuffle=<0|1> seed=<u64>
    attr <index> <name> <raw_min> <raw_max> <quasi_constant 0|1>   (n lines)
    w <idx> <v0> ... <v n-1>                                       (one per neuron)

``<index>`` is the attribute's position and names are unique; the loader
checks ``<quasi_constant>`` against the range. Loading a file this module
wrote and saving it again reproduces the bytes exactly. Attribute names may
contain single spaces; the loader re-joins the middle tokens, so
``check_attribute_names`` rejects any other whitespace, which could not
survive that round trip.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ModelFormatError
from .fileio import atomic_write_bytes
from .hexgrid import HexGrid
from .ingest import AttributeSpec
from .som import SomModel, TrainingSchedule

MAGIC = "som-atlas-model v1"


def dumps_model(model: SomModel) -> str:
    sched = model.schedule
    lines = [
        MAGIC,
        f"grid {model.grid.width} {model.grid.height} odd-r",
        f"dim {model.dim}",
        "schedule "
        f"epochs={sched.epochs} alpha0={_fmt(sched.alpha0)} alpha_end={_fmt(sched.alpha_end)} "
        f"sigma0={_fmt(sched.sigma0)} shuffle={1 if sched.shuffle else 0} seed={sched.seed}",
    ]
    check_attribute_names([spec.name for spec in model.schema])
    for i, spec in enumerate(model.schema):
        qc = 1 if spec.quasi_constant else 0
        lines.append(f"attr {i} {spec.name} {_fmt(spec.raw_min)} {_fmt(spec.raw_max)} {qc}")
    # ``_fmt``'s ``repr`` of Python floats, without a numpy scalar per value;
    # one row at a time, so no Python copy of the whole codebook is held.
    for idx, row in enumerate(model.weights):
        lines.append(f"w {idx} " + " ".join(map(repr, row.tolist())))
    return "\n".join(lines) + "\n"


def check_attribute_names(names) -> None:
    """Raise ``ValueError`` for the first attribute name that cannot round-trip."""
    for name in names:
        if name != " ".join(name.split()):
            raise ValueError(
                f"attribute name {name!r} cannot round-trip through the model file "
                "(runs of whitespace are not representable)"
            )


def _fmt(value) -> str:
    # Shortest decimal that parses back to the same double.
    return repr(float(value))


def save_model(model: SomModel, path) -> None:
    atomic_write_bytes(path, dumps_model(model).encode("utf-8"))


def load_model(path) -> SomModel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: not a UTF-8 text file ({exc})") from None
    return loads_model(text)


def loads_model(text: str) -> SomModel:
    lines = text.splitlines()
    cursor = _Cursor(lines)

    if cursor.next() != MAGIC:
        raise ModelFormatError(f"line 1: expected header {MAGIC!r}")

    grid_parts = cursor.next().split(" ")
    if len(grid_parts) != 4 or grid_parts[0] != "grid" or grid_parts[3] != "odd-r":
        raise ModelFormatError(f"line {cursor.lineno}: expected 'grid <width> <height> odd-r'")
    try:
        grid = HexGrid(_int(grid_parts[1], cursor), _int(grid_parts[2], cursor))
    except ValueError as exc:
        raise ModelFormatError(f"line {cursor.lineno}: {exc}") from None

    dim_parts = cursor.next().split(" ")
    if len(dim_parts) != 2 or dim_parts[0] != "dim":
        raise ModelFormatError(f"line {cursor.lineno}: expected 'dim <n>'")
    dim = _int(dim_parts[1], cursor)
    if dim < 1:
        raise ModelFormatError(f"line {cursor.lineno}: dim must be >= 1")

    schedule = _parse_schedule(cursor)
    schema: dict[str, AttributeSpec] = {}
    for i in range(dim):
        spec = _parse_attr(cursor, expected_index=i)
        if spec.name in schema:
            raise ModelFormatError(f"line {cursor.lineno}: attribute name {spec.name!r} repeats")
        schema[spec.name] = spec
    weights = [_parse_weights(cursor, expected_index=i, dim=dim) for i in range(grid.n_nodes)]
    if cursor.peek() is not None:
        raise ModelFormatError(f"line {cursor.lineno + 1}: unexpected trailing content")

    return SomModel(grid=grid, weights=weights, schema=tuple(schema.values()), schedule=schedule)


class _Cursor:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.lineno = 0

    def next(self) -> str:
        if self.lineno >= len(self.lines):
            raise ModelFormatError(f"line {self.lineno + 1}: unexpected end of file")
        self.lineno += 1
        return self.lines[self.lineno - 1]

    def peek(self) -> str | None:
        return self.lines[self.lineno] if self.lineno < len(self.lines) else None


def _int(token: str, cursor: _Cursor) -> int:
    try:
        return int(token)
    except ValueError:
        raise ModelFormatError(f"line {cursor.lineno}: not an integer: {token!r}") from None


def _float(token: str, cursor: _Cursor) -> float:
    try:
        return float(token)
    except ValueError:
        raise ModelFormatError(f"line {cursor.lineno}: not a number: {token!r}") from None


def _parse_schedule(cursor: _Cursor) -> TrainingSchedule:
    parts = cursor.next().split(" ")
    keys = ("epochs", "alpha0", "alpha_end", "sigma0", "shuffle", "seed")
    if len(parts) != 7 or parts[0] != "schedule":
        wanted = " ".join(k + "=.." for k in keys)
        raise ModelFormatError(f"line {cursor.lineno}: expected 'schedule {wanted}'")
    kv = {}
    for part in parts[1:]:
        key, eq, value = part.partition("=")
        if not eq or key not in keys or key in kv:
            raise ModelFormatError(f"line {cursor.lineno}: bad schedule field {part!r}")
        kv[key] = value
    try:
        return TrainingSchedule(
            epochs=_int(kv["epochs"], cursor),
            alpha0=_float(kv["alpha0"], cursor),
            alpha_end=_float(kv["alpha_end"], cursor),
            sigma0=_float(kv["sigma0"], cursor),
            shuffle=_parse_flag(kv["shuffle"], cursor),
            seed=_int(kv["seed"], cursor),
        )
    except ValueError as exc:
        raise ModelFormatError(f"line {cursor.lineno}: {exc}") from None


def _parse_flag(token: str, cursor: _Cursor) -> bool:
    if token not in ("0", "1"):
        raise ModelFormatError(f"line {cursor.lineno}: flag must be 0 or 1, got {token!r}")
    return token == "1"


def _parse_attr(cursor: _Cursor, expected_index: int) -> AttributeSpec:
    parts = cursor.next().split(" ")
    if len(parts) < 6 or parts[0] != "attr":
        raise ModelFormatError(
            f"line {cursor.lineno}: expected 'attr <index> <name> <raw_min> <raw_max> <0|1>'"
        )
    index = _int(parts[1], cursor)
    if index != expected_index:
        raise ModelFormatError(
            f"line {cursor.lineno}: attribute index {index}, expected {expected_index}"
        )
    name = " ".join(parts[2:-3])
    if not name:
        raise ModelFormatError(f"line {cursor.lineno}: empty attribute name")
    raw_min = _float(parts[-3], cursor)
    raw_max = _float(parts[-2], cursor)
    quasi = _parse_flag(parts[-1], cursor)
    try:
        spec = AttributeSpec(name, raw_min, raw_max)
    except ValueError as exc:
        raise ModelFormatError(f"line {cursor.lineno}: {exc}") from None
    if quasi != spec.quasi_constant:
        raise ModelFormatError(
            f"line {cursor.lineno}: attribute {name!r}: quasi_constant flag inconsistent with "
            f"range [{raw_min}, {raw_max}]"
        )
    return spec


def _parse_weights(cursor: _Cursor, expected_index: int, dim: int) -> list[float]:
    parts = cursor.next().split(" ")
    if len(parts) != 2 + dim or parts[0] != "w":
        raise ModelFormatError(
            f"line {cursor.lineno}: expected 'w {expected_index}' followed by {dim} values"
        )
    if _int(parts[1], cursor) != expected_index:
        raise ModelFormatError(
            f"line {cursor.lineno}: neuron index {parts[1]}, expected {expected_index}"
        )
    values = [_float(tok, cursor) for tok in parts[2:]]
    if any(not (0.0 <= v <= 1.0) for v in values):
        raise ModelFormatError(f"line {cursor.lineno}: weight outside [0, 1]")
    return values
