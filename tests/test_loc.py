"""benchmarks/loc.py: which lines count as code."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("loc", ROOT / "benchmarks" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)


def test_code_lines_skip_comments_docstrings_and_blanks():
    source = '''"""Module docstring,
over two lines."""
# a comment

def f(a,
      b):   # a trailing comment leaves the line code
    """Function docstring."""
    return (a
            + b)
'''
    # the two lines of f's signature and the two of its return statement
    assert loc.code_lines(source) == 4
