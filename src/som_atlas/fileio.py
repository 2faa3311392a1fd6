"""Atomic file writes: outputs appear complete or not at all.

``atomic_write_bytes`` writes bytes already held; ``atomic_write_text``
writes text chunks and ``atomic_write_csv`` sends rows through ``csv.writer``,
both as they come, so no text of the whole file is held. Each writes a
temporary beside the target and renames it over the target on success.
``check_writable`` and ``check_directory`` create and remove that temporary
alone, so a command can fail on an output it cannot create before it reads
any input.
"""

from __future__ import annotations

import csv
import errno
import io
import os
from contextlib import contextmanager
from pathlib import Path


def _create(directory, target):
    """A new temporary file in ``directory``: its path and a descriptor open for writing.

    Its name's length is fixed, so it fits wherever ``target``'s name fits.
    Mode ``0o666`` lets the kernel apply the umask, as a plain ``open()``
    would. An ``OSError`` names ``target``, not the temporary.
    """
    tmp = Path(directory) / f".som-atlas-{os.urandom(6).hex()}.tmp"
    try:
        return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW, 0o666)
    except OSError as err:
        raise type(err)(err.errno, err.strerror, os.fspath(target)) from None


def _probe(directory, target) -> None:
    """Create and remove a temporary in ``directory``; an ``OSError`` names ``target``."""
    tmp, fd = _create(directory, target)
    os.close(fd)
    os.unlink(tmp)


def check_writable(path) -> None:
    """Raise the ``OSError`` writing ``path`` would raise, on creating its
    temporary or on renaming it over a directory.

    Otherwise the directory is left as it was. A symlink to a directory
    passes: the rename replaces the link.
    """
    _probe(Path(path).parent, path)
    if os.path.isdir(path) and not os.path.islink(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))


def check_directory(path) -> None:
    """Raise the ``OSError`` that making ``path`` a directory, as
    ``Path.mkdir(parents=True, exist_ok=True)`` does, and writing in it would raise.

    Nothing is created: the nearest existing ancestor must be a directory
    that takes a temporary, whose error names the first directory ``mkdir``
    would make there (or ``path``, if it exists).
    """
    existing, new = Path(path), None
    while True:
        try:
            os.lstat(existing)  # any error but ENOENT is the one ``mkdir`` raises
            break
        except FileNotFoundError:  # ``mkdir`` makes the parent first
            existing, new = existing.parent, existing
    if not existing.is_dir():
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), os.fspath(existing))
    _probe(existing, new or existing)


@contextmanager
def _replacing(path):
    """A binary temporary file in ``path``'s directory, closed and renamed over it on success.

    On any error it is removed and an existing ``path`` keeps its bytes. An
    ``OSError`` of renaming it names ``path``.
    """
    tmp, fd = _create(Path(path).parent, path)
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
