"""Atomic writes: complete files with the usual mode, or nothing at all."""

import os
import stat

import pytest

from som_atlas.fileio import atomic_write_bytes, atomic_write_text


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


def test_written_file_gets_the_mode_open_would_give(tmp_path, umask_022):
    atomic_write_bytes(tmp_path / "a.bin", b"\x00\x01")
    atomic_write_text(tmp_path / "b.csv", "x\n")
    with open(tmp_path / "c.txt", "w") as fh:
        fh.write("x\n")
    for name in ("a.bin", "b.csv", "c.txt"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644
    assert (tmp_path / "a.bin").read_bytes() == b"\x00\x01"
    assert (tmp_path / "b.csv").read_text() == "x\n"


def test_mode_follows_the_current_umask(tmp_path):
    old = os.umask(0o027)
    try:
        atomic_write_bytes(tmp_path / "a.bin", b"x")
        assert os.umask(0o027) == 0o027  # reading the umask left it as it was
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "a.bin").stat().st_mode) == 0o640


def test_replaces_an_existing_file(tmp_path, umask_022):
    (tmp_path / "a.csv").write_text("old\n")
    atomic_write_text(tmp_path / "a.csv", "new\n")
    assert (tmp_path / "a.csv").read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]


def test_failed_write_leaves_nothing(tmp_path, umask_022):
    with pytest.raises(TypeError):
        atomic_write_bytes(tmp_path / "a.bin", "not bytes")
    assert not any(tmp_path.iterdir())
    (tmp_path / "b.bin").write_bytes(b"kept")
    with pytest.raises(TypeError):
        atomic_write_bytes(tmp_path / "b.bin", None)
    assert [p.name for p in tmp_path.iterdir()] == ["b.bin"]
    assert (tmp_path / "b.bin").read_bytes() == b"kept"
