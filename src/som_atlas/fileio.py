"""Atomic file writes: outputs appear complete or not at all.

``atomic_write_bytes`` writes bytes already held; ``atomic_write_text``
writes text chunks and ``atomic_write_csv`` sends rows through ``csv.writer``,
both as they come, so no text of the whole file is held. Each writes a
temporary beside the target and renames it over the target on success.
``check_writable`` creates and removes that temporary alone, so a command
can fail on an output it cannot create before it reads any input.
"""

from __future__ import annotations

import csv
import io
import os
from contextlib import contextmanager
from pathlib import Path


def _create(path):
    """A new temporary file beside ``path``: its path and a descriptor open for writing.

    Its name's length is fixed, so it fits wherever ``path``'s name fits. Mode
    ``0o666`` lets the kernel apply the umask, as a plain ``open()`` would. An
    ``OSError`` names ``path``, not the temporary.
    """
    tmp = Path(path).parent / f".som-atlas-{os.urandom(6).hex()}.tmp"
    try:
        return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW, 0o666)
    except OSError as err:
        raise type(err)(err.errno, err.strerror, os.fspath(path)) from None


def check_writable(path) -> None:
    """Raise the ``OSError`` writing ``path`` would raise on creating its file.

    Otherwise the directory is left as it was. A ``path`` that names a
    directory passes: its write fails only at the final rename.
    """
    tmp, fd = _create(path)
    os.close(fd)
    os.unlink(tmp)


@contextmanager
def _replacing(path):
    """A binary temporary file in ``path``'s directory, closed and renamed over it on success.

    On any error it is removed and an existing ``path`` keeps its bytes. An
    ``OSError`` of renaming it names ``path``.
    """
    tmp, fd = _create(path)
    try:
        with open(fd, "wb") as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as err:
            raise type(err)(err.errno, err.strerror, os.fspath(path)) from None
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


def atomic_write_text(path, chunks) -> None:
    """Write an iterable of strings to ``path`` atomically, as UTF-8, one after another."""
    with _replacing(path) as fh, io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
        text.writelines(chunks)


def atomic_write_csv(path, rows) -> None:
    """Write an iterable of rows to ``path`` atomically, as UTF-8 CSV lines ending in ``\\n``."""
    with _replacing(path) as fh, io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
        csv.writer(text, lineterminator="\n").writerows(rows)
