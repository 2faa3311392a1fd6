"""Versioned plain-text model files.

Layout (one record per line, fields space-separated, floats printed as the
shortest decimal that round-trips):

    som-atlas-model v1
    grid <width> <height> odd-r
    dim <n>
    schedule <key>=<value> ...       (each field of ``_SCHEDULE``, in its order)
    attr <index> <name> <raw_min> <raw_max> <quasi_constant 0|1>   (n lines)
    w <idx> <v0> ... <v n-1>                                       (one per neuron)

``<index>`` is the attribute's position and names are unique; the loader
checks ``<quasi_constant>`` against the range. Loading a file this module
wrote and saving it again reproduces the bytes exactly. Attribute names may
contain single spaces; the loader re-joins the middle tokens, so
``check_attribute_names`` rejects any other whitespace, which could not
survive that round trip.

``_chunks`` is the one description of the file: it yields the header lines,
then the neuron lines ``ROW_BLOCK`` at a time. ``save_model`` writes that
stream of lines as it comes, so the text of the whole codebook is never held.
``load_model`` feeds the file's lines as it reads them to a one-pass reader.
"""

from __future__ import annotations

from array import array

import numpy as np

from .errors import ModelFormatError
from .fileio import atomic_write_text
from .hexgrid import HexGrid
from .ingest import AttributeSpec
from .som import SomModel, TrainingSchedule

MAGIC = "som-atlas-model v1"

# The schedule line's fields in file order, each with the type it is read as.
_SCHEDULE = {
    "epochs": int,
    "alpha0": float,
    "alpha_end": float,
    "sigma0": float,
    "shuffle": bool,
    "seed": int,
}


# Neuron lines per chunk ``save_model`` writes: the text of one block is the
# most of the codebook's text held at once.
ROW_BLOCK = 256


def _chunks(model: SomModel):
    """The model file as chunks of text: the header lines, then blocks of neuron lines.

    Attribute names are checked before the first chunk, so no byte of a file
    that could not round-trip is written.
    """
    check_attribute_names([spec.name for spec in model.schema])
    fields = " ".join(
        f"{key}={_fmt(getattr(model.schedule, key), kind)}" for key, kind in _SCHEDULE.items()
    )
    lines = [
        MAGIC,
        f"grid {model.grid.width} {model.grid.height} odd-r",
        f"dim {model.dim}",
        f"schedule {fields}",
    ]
    for i, spec in enumerate(model.schema):
        qc = _fmt(spec.quasi_constant, bool)
        lines.append(f"attr {i} {spec.name} {_fmt(spec.raw_min)} {_fmt(spec.raw_max)} {qc}")
    yield "\n".join(lines) + "\n"
    # ``_fmt``'s ``repr`` of Python floats, without a numpy scalar per value;
    # one block at a time, so no Python copy of the whole codebook is held.
    for start in range(0, model.n_neurons, ROW_BLOCK):
        block = model.weights[start : start + ROW_BLOCK].tolist()
        yield "".join(
            f"w {idx} {' '.join(map(repr, row))}\n" for idx, row in enumerate(block, start)
        )


def check_attribute_names(names) -> None:
    """Raise ``ValueError`` for the first attribute name that cannot round-trip."""
    for name in names:
        if name != " ".join(name.split()):
            raise ValueError(
                f"attribute name {name!r} cannot round-trip through the model file "
                "(runs of whitespace are not representable)"
            )


def _fmt(value, kind=float) -> str:
    """A field of ``kind`` as the file writes it.

    A float is the shortest decimal that parses back to the same double, so
    an integer-valued one still reads ``1.0``; a flag is ``0`` or ``1``.
    """
    if kind is float:
        return repr(float(value))
    if kind is bool:
        return "1" if value else "0"
    return str(value)


def _read(token: str, kind):
    """The value of a ``kind`` field that ``_fmt`` wrote as ``token``."""
    if kind is bool:
        if token not in ("0", "1"):
            raise ValueError(f"flag must be 0 or 1, got {token!r}")
        return token == "1"
    try:
        return kind(token)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"not {what}: {token!r}") from None


def save_model(model: SomModel, path) -> None:
    atomic_write_text(path, _chunks(model))


def load_model(path) -> SomModel:
    """Read a model file as a stream of lines, so its text is never held whole."""
    with open(path, encoding="utf-8") as fh:
        return _parse(_file_lines(fh, path))


def _file_lines(fh, path):
    """The lines of the text file ``fh``: those ``str.splitlines`` gives of its whole text."""
    try:
        for physical in fh:
            yield from physical.splitlines()
    except UnicodeDecodeError as exc:
        # Decoded in blocks ahead of the parser: no line to name.
        raise ModelFormatError(f"{path}: not a UTF-8 text file ({exc.reason})") from None


def _parse(lines) -> SomModel:
    """Parse an iterable of model-file lines in one pass; the error names the first bad line."""
    lines = enumerate((line.split(" ") for line in lines), start=1)
    lineno = 0  # of the line last taken from ``lines``
    try:
        lineno, parts = next(lines)
        if parts != MAGIC.split(" "):
            raise ValueError(f"expected header {MAGIC!r}")

        lineno, parts = next(lines)
        if len(parts) != 4 or parts[0] != "grid" or parts[3] != "odd-r":
            raise ValueError("expected 'grid <width> <height> odd-r'")
        grid = HexGrid(_read(parts[1], int), _read(parts[2], int))

        lineno, parts = next(lines)
        if len(parts) != 2 or parts[0] != "dim":
            raise ValueError("expected 'dim <n>'")
        dim = _read(parts[1], int)
        if dim < 1:
            raise ValueError("dim must be >= 1")

        lineno, parts = next(lines)
        if len(parts) != 1 + len(_SCHEDULE) or parts[0] != "schedule":
            wanted = " ".join(key + "=.." for key in _SCHEDULE)
            raise ValueError(f"expected 'schedule {wanted}'")
        tokens = {}
        for part in parts[1:]:
            key, eq, token = part.partition("=")
            if not eq or key not in _SCHEDULE or key in tokens:
                raise ValueError(f"bad schedule field {part!r}")
            tokens[key] = token
        schedule = TrainingSchedule(
            **{key: _read(tokens[key], kind) for key, kind in _SCHEDULE.items()}
        )

        schema: dict[str, AttributeSpec] = {}
        for i in range(dim):
            lineno, parts = next(lines)
            if len(parts) < 6 or parts[0] != "attr":
                raise ValueError("expected 'attr <index> <name> <raw_min> <raw_max> <0|1>'")
            index = _read(parts[1], int)
            if index != i:
                raise ValueError(f"attribute index {index}, expected {i}")
            name = " ".join(parts[2:-3])
            if not name:
                raise ValueError("empty attribute name")
            raw_min, raw_max = _read(parts[-3], float), _read(parts[-2], float)
            quasi = _read(parts[-1], bool)
            spec = AttributeSpec(name, raw_min, raw_max)
            if quasi != spec.quasi_constant:
                raise ValueError(
                    f"attribute {name!r}: quasi_constant flag inconsistent with "
                    f"range [{raw_min}, {raw_max}]"
                )
            if name in schema:
                raise ValueError(f"attribute name {name!r} repeats")
            schema[name] = spec

        values = array("d")
        for i in range(grid.n_nodes):
            lineno, parts = next(lines)
            if len(parts) != 2 + dim or parts[0] != "w":
                raise ValueError(f"expected 'w {i}' followed by {dim} values")
            if _read(parts[1], int) != i:
                raise ValueError(f"neuron index {parts[1]}, expected {i}")
            row = [_read(token, float) for token in parts[2:]]
            if not all(0.0 <= v <= 1.0 for v in row):
                raise ValueError("weight outside [0, 1]")
            values.extend(row)

        for lineno, _ in lines:  # the first line after the last neuron, if any
            raise ValueError("unexpected trailing content")
    except StopIteration:
        raise ModelFormatError(f"line {lineno + 1}: unexpected end of file") from None
    except ValueError as exc:
        raise ModelFormatError(f"line {lineno}: {exc}") from None

    weights = np.frombuffer(values, dtype=np.float64).reshape(grid.n_nodes, dim)
    return SomModel(grid=grid, weights=weights, schema=tuple(schema.values()), schedule=schedule)
