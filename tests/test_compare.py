"""`tools/compare.py`: a commit against itself on the benchmark's tiny
inputs, and the report of a difference in a ledger and a snapshot."""

import subprocess
import sys
from pathlib import Path

import pytest

from spinlayer import snapshots

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import compare  # noqa: E402


def _in_a_git_checkout():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True)
    except OSError:
        return False
    return proc.returncode == 0


@pytest.mark.skipif(not _in_a_git_checkout(), reason="exports commits with git")
def test_head_against_itself_is_identical_and_a_change_is_named(tmp_path, capsys):
    workdir = tmp_path / "w"
    assert compare.main(["--base", "HEAD", "--head", "HEAD", "--size", "tiny",
                         "--workdir", str(workdir)]) == 0
    out = capsys.readouterr().out
    assert out.count("effective_config identical") == 3
    assert out.endswith("HEAD against HEAD, tiny inputs: every compared file is identical\n")

    # move one ledger cell and one snapshot entry of head's coupled run
    base, head = (workdir / f"{side}-runs" / "coupled" / "out" for side in ("base", "head"))
    ledger = head / "energy.csv"
    rows = [row.split(",") for row in ledger.read_text().splitlines()]
    column = rows[0].index("exchange")
    old = rows[1][column]
    rows[1][column] = format(float(old) * (1 + 1e-9), ".17g")
    ledger.write_text("".join(",".join(row) + "\n" for row in rows))
    snap = head / "state_final_m.snap"
    field_id, dims, spacings, t, (m,) = snapshots.read_snapshot(snap)
    m = m.copy()
    was = float(m[1, 2, 3, 0])
    m[1, 2, 3, 0] = 2 * was
    snapshots.write_snapshot(snap, field_id, dims, spacings, t, [m])

    found = compare.compare_outputs(base, head, "coupled")
    assert found == [
        f"coupled/energy.csv: first at row 1, column exchange ({old} against "
        f"{rows[1][column]}); largest relative difference 1e-09",
        f"coupled/state_final_m.snap: first at array 0, index (1, 2, 3, 0) ({was!r} "
        f"against {2 * was!r}); largest relative difference 0.5",
    ]
