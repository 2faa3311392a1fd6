"""Atomic file writes: outputs appear complete or not at all.

``atomic_write_bytes`` writes bytes already held; ``atomic_write_text``
writes text chunks and ``atomic_write_csv`` sends rows through ``csv.writer``,
both as they come, so no text of the whole file is held.
"""

from __future__ import annotations

import csv
import io
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def _replacing(path):
    """A binary temporary file in ``path``'s directory, closed and renamed over it on success.

    It is created new under a random name with mode ``0o666``, so the kernel
    gives it the mode a plain ``open()`` would, ``0o666`` less the umask. On
    any error it is removed and an existing ``path`` keeps its bytes. An
    ``OSError`` of creating or renaming it names ``path``, not the temporary.
    """
    target, path = os.fspath(path), Path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW, 0o666)
    except OSError as err:
        raise type(err)(err.errno, err.strerror, target) from None
    try:
        with open(fd, "wb") as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as err:
            raise type(err)(err.errno, err.strerror, target) from None
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
