"""Atomic file writes: outputs appear complete or not at all.

``atomic_write_bytes`` writes bytes already held; ``atomic_write_csv`` sends
rows through ``csv.writer`` as they come, so no text of the table is held.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path


def _umask() -> int:
    mask = os.umask(0)  # the only way to read it is to set it
    os.umask(mask)
    return mask


@contextmanager
def _replacing(path):
    """A binary temporary file in ``path``'s directory, closed and renamed over it on success.

    It gets the mode a plain ``open()`` would create it with, ``0o666`` less
    the umask, not the temporary file's private ``0o600``. On any error it is
    removed and an existing ``path`` keeps its bytes.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with open(fd, "wb") as fh:
            os.fchmod(fd, 0o666 & ~_umask())
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically."""
    with _replacing(path) as fh:
        fh.write(data)


def atomic_write_csv(path, rows) -> None:
    """Write an iterable of rows to ``path`` atomically, as UTF-8 CSV lines ending in ``\\n``."""
    with _replacing(path) as fh, io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
        csv.writer(text, lineterminator="\n").writerows(rows)
