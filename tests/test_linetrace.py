"""`tools/linetrace.py`: a pytest run under the plugin lists the body
lines of `src/spinlayer` that the run never ran."""

import inspect
import os
import subprocess
import sys
import time
from pathlib import Path

from spinlayer import geometry

ROOT = Path(__file__).resolve().parents[1]


def _parse_ranges(text: str) -> set:
    lines = set()
    for span in text.split(", "):
        first, _, last = span.partition("-")
        lines.update(range(int(first), int(last or first) + 1))
    return lines


def test_one_call_leaves_only_its_other_branch_unreached(tmp_path):
    (tmp_path / "test_one.py").write_text(
        "from spinlayer.geometry import _is_multiple\n\n\n"
        "def test_one():\n"
        "    assert _is_multiple(1.0, 0.5)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "tools")]))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "linetrace",
                           "-p", "no:cacheprovider", "test_one.py"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    elapsed = time.perf_counter() - t0
    assert done.returncode == 0, done.stdout + done.stderr
    out = done.stdout.splitlines()
    assert any(line.startswith("linetrace: ") for line in out)
    report = dict(line.split(": ", 1) for line in out if line.startswith("spinlayer/"))
    _, missed = report["spinlayer/geometry.py"].split(": ")
    missed = _parse_ranges(missed)
    # the finite ratio returns on the last line: only `return False` never ran
    source, first = inspect.getsourcelines(geometry._is_multiple)
    body = set(range(first, first + len(source)))
    assert missed & body == {first + source.index("        return False\n")}
    # build_geometry was never called: its first check is listed
    source, first = inspect.getsourcelines(geometry.build_geometry)
    assert first + next(i for i, line in enumerate(source) if "for name in" in line) in missed
    assert elapsed <= 30.0
