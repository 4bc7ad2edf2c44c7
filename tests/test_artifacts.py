"""The one artifact writer and reader: atomic writes, typed IO errors."""

import os

import numpy as np
import pytest

from conftest import synthetic_dataset
from pegservo.bench import BenchConfig, emit_report, run_benchmark
from pegservo.errors import (CorruptArtifact, IoError, read_artifact,
                             write_artifact, write_artifacts)
from pegservo.perception import OracleModel, save_dataset, save_model


@pytest.fixture
def blocked(tmp_path):
    """A path whose parent is a regular file."""
    (tmp_path / "file").write_text("x")
    return tmp_path / "file" / "out"


def test_writes_str_bytes_and_arrays(tmp_path):
    write_artifact(tmp_path / "a.txt", "aé\n")
    write_artifact(tmp_path / "b.bin", b"\x00\xff")
    arr = np.arange(6, dtype="<f4").reshape(2, 3)
    write_artifact(tmp_path / "c.bin", arr)
    assert (tmp_path / "a.txt").read_bytes() == "aé\n".encode("utf-8")
    assert (tmp_path / "b.bin").read_bytes() == b"\x00\xff"
    assert (tmp_path / "c.bin").read_bytes() == arr.tobytes()
    assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.bin", "c.bin"]


def test_new_files_follow_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        write_artifact(tmp_path / "a", "x")
    finally:
        os.umask(old)
    assert (tmp_path / "a").stat().st_mode & 0o777 == 0o640


def test_failed_replace_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "r.json"
    write_artifact(path, "old")

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(IoError, match="replace failed"):
        write_artifact(path, "new")
    assert path.read_text() == "old"
    assert os.listdir(tmp_path) == ["r.json"]


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "w.bin"
    write_artifact(path, b"old")
    with pytest.raises((BufferError, ValueError)):
        write_artifact(path, np.zeros((4, 4))[:, ::2])  # not contiguous
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["w.bin"]


def test_write_artifacts_makes_the_directory(tmp_path):
    out = tmp_path / "a" / "b"
    assert write_artifacts(out, {"x.txt": "1", "y.txt": "2"}) == ["x.txt", "y.txt"]
    assert (out / "y.txt").read_text() == "2"


def test_read_artifact(tmp_path):
    path = tmp_path / "a.bin"
    path.write_bytes(b"\xff\x00\x00\x80")
    data = read_artifact(path, binary=True)
    assert data == bytearray(b"\xff\x00\x00\x80")
    assert np.frombuffer(data, dtype="<f4").flags.writeable
    with pytest.raises(CorruptArtifact):
        read_artifact(path)
    with pytest.raises(IoError):
        read_artifact(tmp_path / "missing")


def test_writers_below_a_regular_file_raise_io_error(blocked):
    with pytest.raises(IoError):
        write_artifact(blocked, "x")
    with pytest.raises(IoError):
        write_artifacts(blocked, {"x": "x"})
    rep = run_benchmark(BenchConfig(component_styles=("led",), modes=("novs",),
                                    insertions_per_style_per_mode=1), {})
    with pytest.raises(IoError):
        emit_report(rep, blocked)
    with pytest.raises(IoError):
        save_dataset(synthetic_dataset(1, 2, 4, lambda x, rng: 0.0), blocked)
    with pytest.raises(IoError):
        save_model(OracleModel(), blocked)
