"""File helpers shared by the package's binary formats.

``atomic_write`` hands out a temporary file in the target's directory and
moves it over the target only once everything was written and synced, so
a crash or an exception mid-write leaves the previous file as it was.
``read_exact`` reads a fixed number of bytes or raises the format's error.
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


def read_exact(f, n: int, error: type[Exception]) -> bytes:
    """Exactly n bytes from the binary file f; raises ``error`` when the
    file ends first."""
    data = f.read(n)
    if len(data) != n:
        raise error(f"{getattr(f, 'name', 'file')} is truncated")
    return data
