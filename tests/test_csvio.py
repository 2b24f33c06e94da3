"""Artifact writing: exact bytes and all-or-nothing replacement."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import delayrc
from delayrc._csvio import fmt, write_atomic, write_csv


def test_write_csv_bytes(tmp_path):
    path = tmp_path / "sub" / "t.csv"
    write_csv(path, ["a", "b", "c"], [[0.1, None, True], [2, 1e-300, False]],
              comment="note")
    assert path.read_bytes() == b"# note\na,b,c\n0.1,,1\n2,1e-300,0\n"


@pytest.mark.parametrize("value, text", [
    (True, "1"), (False, "0"),
    (np.bool_(True), "1"), (np.bool_(False), "0"),
    (np.float64(0.1), "0.1"), (np.float64(-0.0), "-0.0"),
    (np.float64("nan"), "nan"),
    (np.float32(0.1), "0.10000000149011612"),
    (np.int64(-7), "-7"),
    (0, "0"), (-12, "-12"), (2**70, "1180591620717411303424"),
    (0.1, "0.1"), (-0.0, "-0.0"), (float("nan"), "nan"),
    (float("inf"), "inf"), (float("-inf"), "-inf"), (5e-324, "5e-324"),
    (None, ""), ("stable", "stable"), ("", ""),
])
def test_fmt_rules(value, text):
    # bools and numpy bools as 0/1, every float (numpy ones as their Python
    # value) by repr, None as an empty field, anything else by str
    assert fmt(value) == text


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


def test_killed_writer_leaves_nothing_after_the_next_write(tmp_path):
    # a SIGKILL skips every cleanup, so the temporary file stays until the
    # next write of the same target replaces it
    path = tmp_path / "a.cfg"
    write_atomic(path, lambda fh: fh.write("old\n"))
    child = (
        "import os, signal, sys\n"
        "from delayrc._csvio import write_atomic\n"
        "def fill(fh):\n"
        "    fh.write('new, first half\\n')\n"
        "    fh.flush()\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
        "write_atomic(sys.argv[1], fill)\n")
    src = str(Path(delayrc.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", child, str(path)], env=env,
                          timeout=60)
    assert proc.returncode == -signal.SIGKILL
    assert path.read_bytes() == b"old\n"
    assert len(list(tmp_path.iterdir())) == 2   # the target and a temp file
    write_atomic(path, lambda fh: fh.write("new\n"))
    assert [p.name for p in tmp_path.iterdir()] == ["a.cfg"]
    assert path.read_bytes() == b"new\n"
