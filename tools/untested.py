"""The lines of the ``hrnnlm`` package that a pytest run never executes.

    python3 tools/untested.py [pytest args]

pytest runs in this process, with the given arguments, under
``sys.settrace`` and ``threading.settrace``; the trace records the lines
that run in this checkout's ``src/hrnnlm`` and nowhere else.  After the
run the trace is removed, and for each module the executable lines (the
lines of its compiled code objects) that never ran are printed, grouped by
the innermost function or class that holds them:

    src/hrnnlm/cli.py: 12 of 180 lines never ran
      cli.main: 301-303, 310

A module whose every line ran prints nothing.  The exit code is pytest's.
No coverage package is needed.

Only this process is traced: lines that run only in a subprocess, as in
the demo tests, the bench smoke test and the tests that run the command
line or ``tools/`` as a program, are listed as never run.  A line holding
only the instructions of a multi-line statement's unusual path (say, an
exception's clean-up) may be listed although its statement ran.  The trace
slows the package's Python code several times.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hrnnlm"


def trace(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """(pytest's exit code, the lines run per package file) of one run."""
    import pytest  # before the trace: pytest's own imports are not traced

    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(PACKAGE.parent))  # the files the trace matches
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def executable_lines(path: Path) -> dict[int, str]:
    """line -> qualified name of the innermost code object holding it, for
    every line of the module's compiled code."""
    owner: dict[int, str] = {}
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:  # outer code objects first, so inner ones override
        co = todo.pop(0)
        name = ("" if co.co_name == "<module>"
                else "." + getattr(co, "co_qualname", co.co_name))
        owner.update((line, path.stem + name)
                     for _, _, line in co.co_lines() if line)
        todo.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return owner


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as "3, 7-9"."""
    out, start = [], lines[0]
    for prev, line in zip(lines, lines[1:] + [None]):
        if line != prev + 1:
            out.append(f"{start}" if start == prev else f"{start}-{prev}")
            start = line
    return ", ".join(out)


def report(hits: dict[str, set[int]]) -> list[str]:
    """The lines to print for the package's files and the lines run."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        owner = executable_lines(path)
        missed = sorted(set(owner) - hits.get(str(path), set()))
        if not missed:
            continue
        out.append(f"{path.relative_to(ROOT)}: {len(missed)} of "
                   f"{len(owner)} lines never ran")
        by_name: dict[str, list[int]] = defaultdict(list)
        for line in missed:
            by_name[owner[line]].append(line)
        out.extend(f"  {name}: {ranges(lines)}"
                   for name, lines in by_name.items())
    return out


def main(argv=None) -> int:
    code, hits = trace(sys.argv[1:] if argv is None else list(argv))
    print("\n".join(report(hits)))
    return code


if __name__ == "__main__":
    sys.exit(main())
