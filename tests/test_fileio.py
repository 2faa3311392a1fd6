"""Atomic writes: complete files with the usual mode, or nothing at all."""

import errno
import os
import stat
import tracemalloc

import numpy as np
import pytest

from som_atlas.analysis import ASSIGNMENT, assignment_rows
from som_atlas.fileio import (
    atomic_write_bytes,
    atomic_write_csv,
    atomic_write_text,
    check_directory,
    check_writable,
)


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


def test_written_file_gets_the_mode_open_would_give(tmp_path, umask_022):
    atomic_write_bytes(tmp_path / "a.bin", b"\x00\x01")
    atomic_write_csv(tmp_path / "b.csv", [["x"]])
    atomic_write_text(tmp_path / "d.txt", ["x", "\n"])
    with open(tmp_path / "c.txt", "w") as fh:
        fh.write("x\n")
    for name in ("a.bin", "b.csv", "c.txt", "d.txt"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644
    assert (tmp_path / "a.bin").read_bytes() == b"\x00\x01"
    assert (tmp_path / "b.csv").read_text() == "x\n"
    assert (tmp_path / "d.txt").read_text() == "x\n"


def test_mode_follows_the_current_umask(tmp_path, monkeypatch):
    # The kernel applies the umask; a write never sets it, not even to read it,
    # so another thread creating a file meanwhile keeps its own mode.
    def refuse(mask):
        raise AssertionError("os.umask called during a write")

    old = os.umask(0o027)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(os, "umask", refuse)
            atomic_write_bytes(tmp_path / "a.bin", b"x")
            atomic_write_csv(tmp_path / "b.csv", [["x"]])
    finally:
        os.umask(old)
    for name in ("a.bin", "b.csv"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o640


def test_replaces_an_existing_file(tmp_path, umask_022):
    (tmp_path / "a.csv").write_text("old\n")
    atomic_write_csv(tmp_path / "a.csv", [["new"]])
    assert (tmp_path / "a.csv").read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]


def _rows_then_failure():
    # Enough rows to pass the text layer's buffer, so part of the file is on disk.
    for i in range(10_000):
        yield [i, "row"]
    raise RuntimeError("the source failed mid-stream")


def _chunks_then_failure():
    # Past the text layer's buffer too.
    for i in range(1_000):
        yield f"line {i} of a streamed text\n"
    raise RuntimeError("the source failed mid-stream")


def test_failed_write_leaves_nothing(tmp_path, umask_022):
    failures = [
        (TypeError, lambda path: atomic_write_bytes(path, "not bytes")),
        (TypeError, lambda path: atomic_write_bytes(path, None)),
        (RuntimeError, lambda path: atomic_write_csv(path, _rows_then_failure())),
        (RuntimeError, lambda path: atomic_write_text(path, _chunks_then_failure())),
    ]
    for exc, write in failures:
        with pytest.raises(exc):
            write(tmp_path / "a.out")
        assert not any(tmp_path.iterdir())
        (tmp_path / "b.out").write_bytes(b"kept")
        with pytest.raises(exc):
            write(tmp_path / "b.out")
        assert [p.name for p in tmp_path.iterdir()] == ["b.out"]
        assert (tmp_path / "b.out").read_bytes() == b"kept"
        (tmp_path / "b.out").unlink()


def test_failed_create_or_rename_names_the_target(tmp_path):
    # Not the hidden temporary, whose name changes on every run.
    (tmp_path / "dir").mkdir()
    for target, exc in ((tmp_path / "absent" / "a.out", FileNotFoundError),
                        (tmp_path / "dir", IsADirectoryError)):
        for write in (lambda p: atomic_write_bytes(p, b"x"), lambda p: atomic_write_csv(p, [])):
            with pytest.raises(exc) as err:
                write(target)
            assert err.value.filename == str(target)
            assert str(err.value) == f"[Errno {err.value.errno}] {err.value.strerror}: {str(target)!r}"
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert not any((tmp_path / "dir").iterdir())


def test_check_raises_the_error_of_the_write_and_leaves_the_directory_as_it_was(tmp_path):
    (tmp_path / "file").write_text("")
    (tmp_path / "kept.out").write_bytes(b"kept")
    (tmp_path / "dir").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "dir")
    for target in (tmp_path / "new.out", tmp_path / "kept.out", tmp_path / "link"):
        check_writable(target)
    for target in (tmp_path / "absent" / "a.out", tmp_path / "file" / "a.out", tmp_path / "dir"):
        with pytest.raises(OSError) as checked:
            check_writable(target)
        with pytest.raises(OSError) as written:
            atomic_write_bytes(target, b"x")
        assert type(checked.value) is type(written.value)
        assert str(checked.value) == str(written.value)
        assert checked.value.filename == str(target)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file", "kept.out", "link"]
    assert (tmp_path / "kept.out").read_bytes() == b"kept"
    assert not any((tmp_path / "dir").iterdir())


def test_directory_check_raises_the_error_of_mkdir_and_creates_nothing(tmp_path):
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "dir")
    (tmp_path / "dangling").symlink_to(tmp_path / "absent")
    for target in ("dir", "link", "absent", "absent/a/b", "dir/a"):
        check_directory(tmp_path / target)
    for target in ("file", "file/out", "file/a/b", "dangling", "dangling/out"):
        with pytest.raises(OSError) as checked:
            check_directory(tmp_path / target)
        with pytest.raises(OSError) as made:
            (tmp_path / target).mkdir(parents=True, exist_ok=True)
        assert type(checked.value) is type(made.value)
        assert str(checked.value) == str(made.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dangling", "dir", "file", "link"]
    assert not any((tmp_path / "dir").iterdir())


def test_directory_check_probes_the_nearest_existing_directory(tmp_path, monkeypatch):
    # Its error names the first directory ``mkdir`` would make, as mkdir's would.
    def refuse(path, *args):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

    monkeypatch.setattr(os, "open", refuse)
    for target, named in (("a/b", "a"), ("", "")):
        with pytest.raises(PermissionError) as checked:
            check_directory(tmp_path / target)
        assert checked.value.filename == str(tmp_path / named)


def test_the_longest_legal_name_is_written(tmp_path):
    # The temporary's name has a fixed length, so it fits wherever the target's
    # does; one 14 bytes longer than the target's could not be created.
    name = "x" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 4) + ".csv"
    atomic_write_csv(tmp_path / name, [["x"]])
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert (tmp_path / name).read_text() == "x\n"


def test_csv_memory_does_not_grow_with_the_rows(tmp_path):
    # The assignment table as ``classify`` writes it: rows are formatted
    # and written as they come, so no text of the whole table is held.
    assignments = np.zeros(100_000, dtype=ASSIGNMENT)
    assignments["neuron"] = np.arange(100_000) % 1600
    assignments["distance"] = np.random.default_rng(5).random(100_000)
    assignments["clamped"][::7] = True

    def peak(n_rows):
        tracemalloc.start()
        try:
            atomic_write_csv(tmp_path / "a.csv", assignment_rows(assignments[:n_rows]))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(100_000) - peak(25_000)) / 75_000 <= 4
