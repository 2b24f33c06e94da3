"""File I/O shared by the package: deterministic CSV writing for the
emitters, and UTF-8 text reading for the input files.

Floats are rendered with repr (shortest round-trip form) so identical runs
produce byte-identical files on any platform with IEEE-754 doubles. Every
artifact is written through write_atomic, so none is ever left half
written.
"""

import os


def fmt(v) -> str:
    # the exact built-in types first, as they are the most common; then
    # numpy scalars, whose repr in numpy >= 2 is not round-trip clean
    if type(v) is float:
        return repr(v)
    if v is None:
        return ""
    if type(v) is int:
        return str(v)
    item = getattr(v, "item", None)
    if item is not None:
        v = item()
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return str(v)


def write_atomic(path, fill):
    """Write the file at path through fill(fh), all or nothing.

    fill writes to the temporary file <path>.tmp, which is fsynced and
    renamed over path, so a crash or an exception in fill leaves either the
    old file or the whole new one. An exception removes the temporary file;
    one that a killed process leaves is replaced by the next write of path.
    The fixed name assumes one writer per path at a time (the study lock
    ensures it for a study file).
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="\n") as fh:
            fill(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # left behind only when writing failed
            os.unlink(tmp)


def read_text(path, error):
    """The text of the UTF-8 file at path. Bytes that are not UTF-8 raise
    error (an exception class) naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from None


def write_csv(path, header, rows, comment=None):
    def fill(fh):
        if comment:
            fh.write("# " + comment + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(fmt, row)) + "\n")
    write_atomic(path, fill)
