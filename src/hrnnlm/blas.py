"""Holding numpy's OpenBLAS to one thread while the recurrence runs.

Every product of a step is small: at H=128 the packed gate GEMM of a
layer is (B, D+H) x (D+H, 4H), with B the beam width (16) in decoding and
the stream count (32-64) in training and scoring.  OpenBLAS splits such a
product over two threads.  On an idle 2-CPU machine that saves a quarter
to a third of a 0.1-0.6 ms product; when the second CPU is busy, the
product instead waits for its helper thread for a whole scheduler slice
(8-16 ms at the 99th percentile; on average 2.5-5x the one-thread time),
so the speed of a run depends on what else the machine runs.  ``one_blas_thread()`` sets
OpenBLAS to one thread for a block (or a decorated function) and
restores the previous count after it; ``train``, ``sequence_bits``,
``sample`` and ``beam_search`` run under it.  It does nothing when numpy's
BLAS is not an OpenBLAS this module can find (it looks in
/proc/self/maps, so only on Linux).  The count is process-wide, so the
blocks of all threads share one setting: the first block to enter saves
the count and sets 1, and the last to leave restores it, however the
blocks of different threads overlap.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from typing import Optional

import numpy  # noqa: F401  (loads the BLAS this module looks for)

# (get, set) symbol names: scipy-openblas wheels (64- and 32-bit integer
# builds), older numpy wheels' openblas64_, plain OpenBLAS.
_SYMBOLS = [(f"{p}_get_num_threads{s}", f"{p}_set_num_threads{s}")
            for p in ("scipy_openblas", "openblas") for s in ("64_", "")]


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries loaded into this process (Linux)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps}
    except OSError:
        return []
    return sorted(p for p in paths if "openblas" in os.path.basename(p))


def _find_controls() -> Optional[tuple]:
    """(get, set) thread-count functions of the first loaded OpenBLAS that
    exports them, or None."""
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, set_.restype = ctypes.c_int, None
                set_.argtypes = [ctypes.c_int]
                return get, set_
    return None


_CONTROLS = _find_controls()
_LOCK = threading.Lock()
_held = {"blocks": 0, "saved": None}   # open blocks, the count they saved


@contextlib.contextmanager
def one_blas_thread():
    """Run the block (or, as a decorator, the function) with OpenBLAS on
    one thread."""
    if _CONTROLS is None:
        yield
        return
    get, set_ = _CONTROLS
    with _LOCK:
        if not _held["blocks"]:
            _held["saved"] = get()
            set_(1)
        _held["blocks"] += 1
    try:
        yield
    finally:
        with _LOCK:
            _held["blocks"] -= 1
            if not _held["blocks"]:
                set_(_held["saved"])
