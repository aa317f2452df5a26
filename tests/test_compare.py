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


def _line(correct=True, **values):
    """A canned result line of `bench/run.py --trace 0`."""
    return {"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
            "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}


def test_pairs_report_medians_iqrs_wins_and_marks(capsys):
    # wall_s: head 1.3x slower in the median, beyond its 0.25 bound;
    # setup_s: one pair tied, head won the other three, ok; steps_per_s
    # (higher is better): base's IQR exceeds the bound, unresolved
    base = ((1.0, 0.10, 100.0), (1.1, 0.10, 160.0), (0.9, 0.10, 100.0), (1.0, 0.10, 50.0))
    head = ((1.3, 0.10, 101.0), (1.4, 0.09, 101.0), (1.2, 0.09, 99.0), (1.3, 0.09, 101.0))
    lines = [tuple(_line(wall_s=w, setup_s=s, steps_per_s=r) for w, s, r in pair)
             for pair in zip(base, head)]
    failures = compare.compare_pairs(lines, "coupled")
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "coupled: setup_s base 0.1 (IQR 0), head 0.09 (IQR 0.0025), head won 3 of 4, ok",
        "coupled: wall_s base 1 (IQR 0.05), head 1.3 (IQR 0.05), head won 0 of 4, worse",
        "coupled: steps_per_s base 100 (IQR 27.5), head 101 (IQR 0.5), head won 2 of 4, "
        "unresolved",
    ]
    assert failures == ["coupled: wall_s worse by 30.0%, beyond its bound 25%"]


def test_pairs_fail_on_a_run_that_is_not_correct(capsys):
    lines = [(_line(wall_s=1.0), _line(wall_s=1.0)),
             (_line(wall_s=1.0), _line(False, wall_s=1.0))]
    assert compare.compare_pairs(lines, "cli") == [
        "cli: the head run of pair 2 is not correct"]
    assert capsys.readouterr().out == (
        "cli: wall_s base 1 (IQR 0), head 1 (IQR 0), head won 0 of 2, ok\n")


def test_pairs_alternate_which_tree_runs_first(monkeypatch):
    calls = []

    def fake_line(tree, workload, seed, size):
        calls.append((tree, workload, seed, size))
        return {"tree": tree}

    monkeypatch.setattr(compare, "bench_line", fake_line)
    trees = {"base": "B", "head": "H"}
    lines = compare.run_pairs(trees, "llg_only", 3, "tiny")
    assert [seed for _, _, seed, _ in calls] == [1, 1, 2, 2, 3, 3]
    assert [tree for tree, *_ in calls] == ["B", "H", "H", "B", "B", "H"]
    assert lines == [({"tree": "B"}, {"tree": "H"})] * 3


def test_pairs_mark_a_gain_by_the_claim_rule(capsys):
    # ten pairs.  wall_s: head wins nine and loses one, and its median
    # beats base's by more than base's IQR, a gain; setup_s: the same
    # margin but head wins only eight, a near miss; steps_per_s (higher is
    # better): head wins eight and ties two, which count for neither;
    # step_ms_p50: head wins all ten by less than base's IQR
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    wall = [b - 0.05 for b in base[:9]] + [1.02]
    setup = [b - 0.05 for b in base[:8]] + [1.02, 1.03]
    rate = [b + 0.05 for b in base[:8]] + base[8:]
    p50 = [b - 0.001 for b in base]
    lines = [(_line(wall_s=b, setup_s=b, steps_per_s=b, step_ms_p50=b),
              _line(wall_s=w, setup_s=s, steps_per_s=r, step_ms_p50=p))
             for b, w, s, r, p in zip(base, wall, setup, rate, p50)]
    assert compare.compare_pairs(lines, "coupled") == []
    marks = {line.split()[1]: line.rpartition(", ")[2]
             for line in capsys.readouterr().out.splitlines()}
    assert marks == {"setup_s": "ok", "wall_s": "gain", "steps_per_s": "ok",
                     "step_ms_p50": "ok"}
    # nine of the pairs alone are too few to claim the same gain
    compare.compare_pairs(lines[:9], "coupled")
    assert "gain" not in capsys.readouterr().out


def test_lockstep_runs_both_trees_in_one_child_on_tiny_inputs(tmp_path):
    # the working tree against itself: per workload, two turns of the A/A
    # and two of the A/B, each a (base, head) pair of batch times
    times = compare.run_lockstep({"base": ROOT, "head": ROOT}, 2, "tiny", tmp_path)
    assert sorted(times) == sorted(compare.WORKLOADS)
    for workload in compare.WORKLOADS:
        assert sorted(times[workload]) == ["aa", "ab"]
        for pairs in times[workload].values():
            assert len(pairs) == 2
            assert all(len(pair) == 2 and min(pair) > 0.0 for pair in pairs)
    assert sorted(p.name for p in (tmp_path / "lockstep").iterdir()) == [
        "sl_base", "sl_control", "sl_head"]


def _turns(ratios):
    """Canned (base, head) batch times with the given head/base ratios."""
    return [(0.05, 0.05 * r) for r in ratios]


@pytest.mark.parametrize("control, change, mark", [
    # the A/A's quartiles are 0.98 and 1.02 and its median 1.00
    ((0.97, 0.98, 1.00, 1.02, 1.03), (1.28, 1.29, 1.30, 1.31, 1.32), "worse"),
    ((0.97, 0.98, 1.00, 1.02, 1.03), (0.68, 0.69, 0.70, 0.71, 0.72), "gain"),
    # beyond the A/A's IQR by less than the 0.25 bound
    ((0.97, 0.98, 1.00, 1.02, 1.03), (1.18, 1.19, 1.20, 1.21, 1.22), "ok"),
    # beyond the bound but inside a wide A/A
    ((0.50, 0.60, 1.00, 1.40, 1.50), (1.28, 1.29, 1.30, 1.31, 1.32), "ok"),
])
def test_lockstep_marks_by_the_claim_rule(capsys, control, change, mark):
    times = {"aa": _turns(control), "ab": _turns(change)}
    failures = compare.compare_lockstep(times, "cli")
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0].startswith("cli: lockstep A/A head/head ratio 1.0000 (IQR ")
    assert out[1].startswith("cli: lockstep A/B head/base ratio ")
    assert out[1].endswith(f", {mark}")
    assert failures == ([] if mark != "worse" else [
        "cli: lockstep A/B median ratio 1.3000 beyond the A/A's 1.0000 by more than 25%"])


def test_lockstep_reports_medians_iqrs_and_turns_won(capsys):
    times = {"aa": _turns((0.9, 1.0, 1.1, 1.2)), "ab": _turns((0.95, 0.97, 1.01, 0.99))}
    assert compare.compare_lockstep(times, "coupled") == []
    assert capsys.readouterr().out.splitlines() == [
        "coupled: lockstep A/A head/head ratio 1.0500 (IQR 0.15), head won 1 of 4",
        "coupled: lockstep A/B head/base ratio 0.9800 (IQR 0.03), head won 3 of 4, ok",
    ]
