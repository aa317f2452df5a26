"""A pytest plugin that lists the lines of `src/spinlayer` a run never ran.

    PYTHONPATH=src:tools python -m pytest -p linetrace [pytest arguments]

`coverage` is not a dependency, so the plugin traces with `sys.settrace`
and `threading.settrace`, from the moment pytest imports it: `-p` does
that before any conftest imports the package.  Only frames whose code
lies under `src/spinlayer` are traced line by line; every other call
costs one test of its file name.  At the end of the run it prints,
per module, the lines inside function bodies (lambdas, comprehensions
and generators included) that never ran, as ranges of line numbers.
Module and class bodies run at import and are not counted, and nor is
what runs in a subprocess.

Tracing slows the suite by a third to a half, and it is no neutral
observer: the tracer allocates while it records (each traced call gets
a frame object), so a test that measures allocations with tracemalloc
can fail under it.  The 16 Mur1 cases of
`test_steps_and_rows_allocate_no_views` do.
"""

import sys
import threading
from collections import defaultdict
from inspect import CO_NEWLOCALS
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1] / "src" / "spinlayer"

_hits = defaultdict(set)   # file name -> line numbers that ran
_traced = {}   # file name -> whether it lies under ROOT


def _trace(frame, event, arg):
    """The global tracer: `_line` for frames of code under ROOT."""
    name = frame.f_code.co_filename
    inside = _traced.get(name)
    if inside is None:
        inside = _traced[name] = Path(name).resolve().is_relative_to(ROOT)
    return _line if inside else None


def _line(frame, event, arg):
    """The local tracer: records each line as it runs."""
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def body_lines(path) -> set:
    """Line numbers of the instructions inside the file's function bodies,
    without the line of each `def` (or its first decorator)."""
    with open(path) as fh:
        code = compile(fh.read(), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        if code.co_flags & CO_NEWLOCALS:   # a function's code
            lines.update(line for _, _, line in code.co_lines()
                         if line is not None and line != code.co_firstlineno)
    return lines


def ranges(lines) -> str:
    """Sorted line numbers as "a-b, c" ranges."""
    spans = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def unreached() -> dict:
    """Module path relative to ROOT's parent -> (unreached lines, body lines)."""
    ran = {Path(name).resolve(): lines for name, lines in _hits.items()}
    report = {}
    for path in sorted(ROOT.rglob("*.py")):
        body = body_lines(path)
        report[str(path.relative_to(ROOT.parent))] = (body - ran.get(path, set()), body)
    return report


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    report = unreached()
    missed = sum(len(lines) for lines, _ in report.values())
    total = sum(len(body) for _, body in report.values())
    write = terminalreporter.write_line
    write(f"linetrace: {missed} of {total} function-body lines under {ROOT.parent} "
          f"never ran")
    for module, (lines, body) in report.items():
        if lines:
            write(f"{module}: {len(lines)} of {len(body)}: {ranges(lines)}")


sys.settrace(_trace)
threading.settrace(_trace)
