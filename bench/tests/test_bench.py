"""Tests of the benchmark itself, at tiny sizes (about a minute in all).

    python3 -m pytest bench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import summarize  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = run.workload_names()


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_units_and_bounds():
    doc = run.SPEC
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= len(doc["per_layer"]) <= 128


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.metric_units(
        "per_layer" if trace else "end_to_end")
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["dynamics.llg_rhs.calls"] > 0
        maxwell_zero = workload == "llg_only"
        for name in ("maxwell.fdtd_step.calls", "maxwell.poisson_solve.calls",
                     "dynamics.midpoint_h.ms", "maxwell.cells_to_faces.calls"):
            assert (metrics[name] == 0) == maxwell_zero, name
        for layer in ("config", "presets"):
            assert metrics[f"layer.{layer}.calls"] > 0
            assert metrics[f"layer.{layer}.total_s"] > 0
        assert (metrics["layer.cli.total_s"] > 0) == (workload == "cli")
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_summarize_self_time_and_module_totals():
    spans = [["a.f", -1, 0.0, 10.0], ["b.g", 0, 1.0, 4.0], ["b.h", 1, 2.0, 3.0],
             ["a.k", 0, 5.0, 9.0]]
    out = summarize(spans)
    assert out["names"]["a.f"][:3] == [1, 10.0, 3.0]
    assert out["names"]["b.g"][:3] == [1, 3.0, 2.0]
    assert out["modules"]["a"] == [2, 10.0, 7.0]
    assert out["modules"]["b"] == [2, 3.0, 3.0]
    assert out["pairs"]["a.f>a.k"] == 4.0
    assert summarize(spans, within="b.g")["names"].keys() == {"b.g", "b.h"}


def test_traced_spans_nest_and_self_plus_children_equals_parent(tmp_path):
    n = 2
    task = run._task("coupled", True,
                     config_text=wl.config_text("coupled", 3, n, "tiny"),
                     setup_repeats=1, diag_repeats=1, dump_spans=True)
    res = run.spawn(task, tmp_path, "spans", time.monotonic() + 120)
    assert res["exit"] == 0, res.get("error")
    spans = res["spans"]
    assert len(spans) > 50
    children = [0.0] * len(spans)
    for name, parent, start, end in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][2] <= start and end <= spans[parent][3]
            children[parent] += end - start
    out = summarize(spans)
    for name, (calls, total, own, _) in out["names"].items():
        kids = sum(children[i] for i, s in enumerate(spans) if s[0] == name)
        assert own + kids == pytest.approx(total, rel=1e-12, abs=1e-12)
    roots = sum(s[3] - s[2] for s in spans if s[1] < 0)
    assert sum(v[2] for v in out["names"].values()) == pytest.approx(roots, rel=1e-9)
    assert out["names"]["maxwell.fdtd_step"][0] == 8 * n


def _unstable_exchange_dt(monkeypatch):
    exchange_dt = wl.exchange_dt
    monkeypatch.setattr(wl, "exchange_dt", lambda n, nz: 4 * exchange_dt(n, nz))


def _unstable_penalty(monkeypatch):
    monkeypatch.setattr(wl, "CLI_PENALTY_K", 100.0)


@pytest.mark.parametrize("workload, unstable, reason", [
    ("coupled", _unstable_exchange_dt, "exit 3"),      # CFL violation
    ("cli", _unstable_penalty, "residual"),            # penalty beyond its limit
])
def test_forced_failure_is_counted(workload, unstable, reason, monkeypatch):
    """A config beyond a stability limit fails every repetition, by exit
    code or by a failed check, and each counts as attempted and failed."""
    unstable(monkeypatch)
    report, code = run.run_workload(workload, 7, 1, False, "tiny")
    assert code != 0
    assert report["failed"] == report["attempted"] >= 1
    assert all(reason in fail for fail in report["fails"]), report["fails"]
    result = json.loads(run.result_line(report, False))
    assert result["correct"] is False and result["metrics"] == {}


def test_traced_cli_writes_the_same_energy_csv(tmp_path):
    steps = wl.steps_for("cli", 1, "tiny")

    def text_for(outdir):
        return wl.config_text("cli", 11, steps, "tiny", outdir)

    deadline = time.monotonic() + 150
    plain = run.run_rep("cli", text_for, steps, False, tmp_path, "plain", deadline)
    traced = run.run_rep("cli", text_for, steps, True, tmp_path, "traced", deadline)
    assert plain["fails"] == [] and traced["fails"] == []
    assert traced["output"].encode() == plain["output"].encode()
    assert traced["output"].count("\n") == steps + 2


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__", "tests"))
    start = time.monotonic()
    proc = bench("--workload", "coupled", "--seed", "1", "--seconds", "6",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert time.monotonic() - start < 180
    assert '"correct"' not in proc.stdout
