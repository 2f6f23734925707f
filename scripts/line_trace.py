#!/usr/bin/env python3
"""Lines of the package that no tier-1 test executes, with the standard
library only (coverage is not a dependency).

Runs the pytest suite in this process under a sys.settrace hook that
records the lines executed in frames of src/zeta_explicit, then compiles
each module and prints, per module, every line its code objects hold
(co_lines, nested code included) that no frame reached:

    python scripts/line_trace.py [pytest arguments]

With no arguments it runs `-q --continue-on-collection-errors tests`.
A code object whose lines have all been seen is no longer traced, so the
run takes about twice the plain suite's time, not orders of magnitude.
Lines that run only in a subprocess, such as cli.py's `__main__` guard,
are never seen.  The exit status is pytest's.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zeta_explicit"


def code_lines(code) -> set[int]:
    """Every line number of code and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def module_lines() -> dict[str, set[int]]:
    return {str(path): code_lines(compile(path.read_text(), str(path), "exec"))
            for path in sorted(PACKAGE.glob("*.py"))}


def trace_suite(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and the lines executed per package file."""
    prefix = str(PACKAGE)
    seen: dict[str, set[int]] = {}
    remaining: dict = {}   # code object -> its lines not yet seen

    def local(frame, event, arg):
        left = remaining[frame.f_code]
        if frame.f_lineno in left:
            left.discard(frame.f_lineno)
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local if left else None

    def tracer(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        if code not in remaining:
            remaining[code] = {line for _, _, line in code.co_lines() if line is not None}
            seen.setdefault(code.co_filename, set())
        return local(frame, event, arg)

    import pytest
    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), seen


def main(argv: list[str]) -> int:
    status, seen = trace_suite(argv or ["-q", "--continue-on-collection-errors",
                                        str(ROOT / "tests")])
    total = 0
    for path, lines in module_lines().items():
        missed = sorted(lines - seen.get(path, set()))
        if not missed:
            continue
        total += len(missed)
        source = Path(path).read_text().splitlines()
        print(f"{Path(path).relative_to(ROOT)}: {len(missed)} never executed")
        for line in missed:
            print(f"  {line:5d}  {source[line - 1].strip()}")
    print(f"{total} package lines never executed (pytest exit status {status})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
