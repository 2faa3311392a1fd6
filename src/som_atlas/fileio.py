"""Atomic file writes: outputs appear complete or not at all."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def _umask() -> int:
    mask = os.umask(0)  # the only way to read it is to set it
    os.umask(mask)
    return mask


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file in its directory.

    The file gets the mode a plain ``open()`` would create it with,
    ``0o666`` less the umask, not the temporary file's private ``0o600``.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
