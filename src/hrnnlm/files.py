"""File helpers shared by the package's binary formats.

``atomic_write`` hands out a temporary file in the target's directory and
moves it over the target only once everything was written and synced, so
a crash or an exception mid-write leaves the previous file as it was.
``read_exact`` reads a fixed number of bytes or raises the format's error,
and ``read_text`` reads a UTF-8 text file or raises the caller's error,
also for a directory.
"""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager


@contextmanager
def atomic_write(path, mode: str = "w", **open_kw):
    """Write path through a same-directory temp file: flush, fsync, then
    ``os.replace``.  On error the temp file is removed and path is left
    untouched."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode, **open_kw) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# read_exact checks a count above this against the file size before it
# reads: ``f.read(n)`` allocates n bytes up front, and a corrupt length
# field can ask for terabytes.  Smaller reads skip the two system calls.
_CHECKED_READ = 1 << 16


def read_exact(f, n: int, error: type[Exception]) -> bytes:
    """Exactly n bytes from the binary file f; raises ``error`` when the
    file ends first."""
    if n > _CHECKED_READ and n > os.fstat(f.fileno()).st_size - f.tell():
        data = b""
    else:
        data = f.read(n)
    if len(data) != n:
        raise error(f"{getattr(f, 'name', 'file')} is truncated")
    return data


def read_text(path, error: type[Exception], what: str = "file") -> str:
    """The text of a UTF-8 file, newlines translated as ``open`` does;
    raises ``error`` when the path is a directory or the file is not
    UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except IsADirectoryError:
        raise error(f"{what} {path} is a directory") from None
    except UnicodeDecodeError as e:
        raise error(f"{what} {path} is not UTF-8 (byte {e.start})") from None
