"""`tools/sweep.py`: two tiny draws through the set-up and the step loop."""

import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import sweep  # noqa: E402


def test_two_tiny_draws_fill_one_row_per_option_value(capsys):
    t0 = time.perf_counter()
    assert sweep.main(["--draws", "2", "--steps", "5"]) == 0
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "sweep: 2 draws (seed 1), 5 steps of dt 0.002"
    refused = int(out[1].removeprefix("refused at load: "))
    rows = [line.split() for line in out[-sum(map(len, sweep.OPTIONS.values())):]]
    # every option counts each draw that was not refused under one value
    for name in sweep.OPTIONS:
        assert sum(int(row[-5]) for row in rows if row[0] == name) == 2 - refused
    # at least one draw went through the step loop and was scored
    scored = [float(row[-4]) for row in rows if int(row[-5]) > int(row[-1])]
    assert scored and all(math.isfinite(rise) for rise in scored)
    assert elapsed <= 2.0
