"""Artifact writing: exact bytes and all-or-nothing replacement."""

import pytest

from delayrc._csvio import write_atomic, write_csv


def test_write_csv_bytes(tmp_path):
    path = tmp_path / "sub" / "t.csv"
    write_csv(path, ["a", "b", "c"], [[0.1, None, True], [2, 1e-300, False]],
              comment="note")
    assert path.read_bytes() == b"# note\na,b,c\n0.1,,1\n2,1e-300,0\n"


def test_failed_writer_keeps_old_file(tmp_path):
    path = tmp_path / "a.cfg"
    write_atomic(path, lambda fh: fh.write("old\n"))

    def half(fh):
        fh.write("new, first half\n")
        raise RuntimeError("writer failed partway")

    with pytest.raises(RuntimeError):
        write_atomic(path, half)
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.cfg"]


def test_failed_row_keeps_old_csv(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["x"], [[1.0]])
    before = path.read_bytes()

    def rows():
        yield [2.0]
        raise ValueError("row source failed")

    with pytest.raises(ValueError):
        write_csv(path, ["x"], rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
