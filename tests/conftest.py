import contextlib
import os
import signal
import sys

import numpy as np
import pytest

from delayrc import cli


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance pass/fail lines outside capture."""
    mod = sys.modules.get("test_acceptance")
    if mod is None or not getattr(mod, "RESULTS", None):
        return
    terminalreporter.section("acceptance criteria")
    for line in mod.RESULTS:
        terminalreporter.write_line(line)


@pytest.fixture
def run_cli(tmp_path, monkeypatch, capsys):
    """Invoke the CLI in-process with DELAYRC_OUTDIR pointed at tmp_path.

    Returns (exit_code, stdout, stderr, outdir).
    """
    def _run(argv, outdir="out"):
        monkeypatch.setenv("DELAYRC_OUTDIR", str(tmp_path / outdir))
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err, tmp_path / outdir
    return _run


def read_csv_rows(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def hash_tree(root):
    """Byte-level digest of every file under root, keyed by relative path."""
    import hashlib
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            p = os.path.join(dirpath, name)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def rng_uniform(seed, lo, hi, n):
    return np.random.default_rng(seed).uniform(lo, hi, n)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once it has run `seconds` seconds,
    so a call that never returns fails instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
