#!/usr/bin/env python3
"""spinlayer benchmark.

    python3 bench/run.py --workload coupled|llg_only|cli --seed N \
        --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]   # every workload,
        untraced and traced; prints a table and writes bench/BASELINE.json

Workloads, metric names, units and bounds come from BENCHMARK.json at the
repository root.  Each repetition runs in a fresh interpreter
(bench/worker.py) against the sources under src/, so no in-process cache
survives between repetitions.  With --trace 0 the last stdout line reports
the end-to-end metrics; with --trace 1 an untraced, a traced and a second
untraced repetition run and the line reports the per-layer metrics.
Every repetition's output is checked (see workloads.py); a repetition that
exits nonzero, raises or fails a check counts as failed and its timings are
dropped.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_BUDGET_S = 170.0

LAYERS = ("config", "presets", "geometry", "energetics", "effective_field",
          "dynamics", "maxwell", "diagnostics", "summation", "snapshots", "cli")
# layers that run only outside the step loop: reported per repetition over
# the whole process(es); the others per step inside dynamics.run
SETUP_LAYERS = ("config", "presets", "cli")

MIDPOINT_OPS = ("maxwell.curl_e", "maxwell.cells_to_faces",
                "maxwell.embed_cell_field", "maxwell.faces_to_cells")
LEDGER_OPS = ("energetics.total_energy", "maxwell.divergence_drift",
              "diagnostics.saturation_deviation")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


# ---------------------------------------------------------------------------
# environment


def nproc():
    return len(os.sched_getaffinity(0))


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def environment():
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"nproc": nproc(), "cpu": model,
            "l3": _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip(),
            "python": platform.python_version(), **versions}


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(nproc())
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


# ---------------------------------------------------------------------------
# child processes


def spawn(task, workdir, tag, deadline):
    """Run one worker; returns its result dict plus exit code and wall time."""
    task_path, result_path = workdir / f"{tag}.task.json", workdir / f"{tag}.result.json"
    task_path.write_text(json.dumps(task))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(task_path), str(result_path)],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    err = None
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    wall = time.perf_counter() - t0
    if err is None:
        return {"exit": -9, "error": "timed out", "wall_s": wall}
    result = {"error": err.strip().splitlines()[-1] if err.strip() else "no result"}
    if result_path.exists():
        result = json.loads(result_path.read_text())
    result["exit"] = proc.returncode
    result["wall_s"] = wall
    return result


def step_samples(stamps):
    """Per-step milliseconds between consecutive ledger rows."""
    return [(t1 - t0) * 1e3 / (n1 - n0)
            for (n0, t0), (n1, t1) in zip(stamps, stamps[1:])]


def _task(kind, traced, **extra):
    return {"kind": kind, "trace": traced, "layers": LAYERS, "src": str(SRC), **extra}


def run_rep(name, text_for, steps, traced, workdir, tag, deadline):
    """One repetition; returns a record with "fails" (empty when correct)."""
    if name != "cli":
        res = spawn(_task(name, traced, config_text=text_for("out"),
                          setup_repeats=wl.SETUP_REPEATS[name],
                          diag_repeats=wl.DIAG_REPEATS),
                    workdir, tag, deadline)
        rec = {"traced": traced, "wall_s": res["wall_s"], "fails": []}
        if res["exit"] != 0:
            rec["fails"].append(f"exit {res['exit']}: {res.get('error')}")
            return rec
        rows = [tuple(r) for r in res["rows"]]
        fails, margins = wl.check_in_process(name, rows, steps)
        rec.update(fails=fails, margins=margins, output=rows, steps=res["steps"],
                   setup_s=res["setup_s"], stamps=res["stamps"], diag_s=res["diag_s"],
                   rss_mb=res["maxrss_mb"], bytes=res["bytes"], trace=res.get("trace"),
                   snap_bytes=0, csv_bytes=0)
        return rec

    outdir = workdir / f"{tag}.out"
    cfg = workdir / f"{tag}.cfg"
    cfg.write_text(text_for(str(outdir)))
    run = spawn(_task("cli_run", traced, argv=["run", str(cfg)]),
                workdir, f"{tag}.run", deadline)
    rec = {"traced": traced, "wall_s": run["wall_s"], "fails": []}
    if run["exit"] != 0:
        rec["fails"].append(f"spinlayer run exit {run['exit']}: {run.get('error')}")
        return rec
    diag = spawn(_task("cli_diag", traced, argv=["diag", str(outdir)]),
                 workdir, f"{tag}.diag", deadline)
    rec["wall_s"] += diag["wall_s"]
    if diag["exit"] != 0:
        rec["fails"].append(f"spinlayer diag exit {diag['exit']}: {diag.get('error')}")
        return rec
    energy = (outdir / "energy.csv").read_text()
    snaps = sorted(outdir.glob("m_*.snap"))
    fails, margins = wl.check_cli(energy, (outdir / "diag_report.csv").read_text(),
                                  len(snaps), steps)
    trace = None
    if traced:
        trace = {"loop": run["trace"]["loop"],
                 "processes": run["trace"]["processes"] + diag["trace"]["processes"]}
    rec.update(fails=fails, margins=margins, output=energy, steps=steps,
               setup_s=run["setup_s"], stamps=run["stamps"],
               diag_s=[diag["wall_s"]], rss_mb=max(run["maxrss_mb"], diag["maxrss_mb"]),
               bytes=run["bytes"], trace=trace,
               snap_bytes=sum(p.stat().st_size for p in snaps),
               csv_bytes=len(energy.encode()))
    return rec


# ---------------------------------------------------------------------------
# metrics


def _loop_s(rec):
    return rec["stamps"][-1][1] - rec["stamps"][0][1]


def end_to_end(reps):
    """End-to-end metrics, plus the pooled step samples they rest on."""
    samples = [s for r in reps for s in step_samples(r["stamps"])]
    return {
        "setup_s": statistics.median(s for r in reps for s in r["setup_s"]),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "steps_per_s": statistics.median(r["steps"] / _loop_s(r) for r in reps),
        "step_ms_p50": statistics.median(samples),
        "diag_s": statistics.median(s for r in reps for s in r["diag_s"]),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }, samples


def _stat(summary, name):
    return summary["names"].get(name, [0, 0.0, 0.0, 0.0])


def _over(processes, name):
    """(calls, total_s, first-call s of the first process, calls after the
    first in each process, their total_s) summed over processes."""
    stats = [_stat(p, name) for p in processes]
    calls = sum(s[0] for s in stats)
    total = sum(s[1] for s in stats)
    later = [s for s in stats if s[0]]
    first = later[0][3] if later else 0.0
    warm_calls = sum(s[0] - 1 for s in later)
    warm_total = sum(s[1] - s[3] for s in later)
    return calls, total, first, warm_calls, warm_total


def _per_call_ms(processes, name):
    calls, total = _over(processes, name)[:2]
    return total * 1e3 / calls if calls else 0.0


def layer_metrics(traced, untraced, failed_frac):
    """Per-layer metrics of one traced repetition; `untraced` are the
    untraced repetitions run around it (for the tracing overhead)."""
    loop, procs, steps = traced["trace"]["loop"], traced["trace"]["processes"], traced["steps"]
    out = {name: 0.0 for name in metric_units("per_layer")}
    index = {"calls": 0, "ms": 1, "self_ms": 2}
    for name in out:
        base, _, kind = name.rpartition(".")
        if kind in index and base in loop["names"]:
            scale = 1.0 if kind == "calls" else 1e3
            out[name] = loop["names"][base][index[kind]] * scale / steps
    for mod in LAYERS:
        if mod in SETUP_LAYERS:
            stats = [p["modules"].get(mod, [0, 0.0, 0.0]) for p in procs]
            out[f"layer.{mod}.calls"] = sum(s[0] for s in stats)
            out[f"layer.{mod}.total_s"] = sum(s[1] for s in stats)
            out[f"layer.{mod}.self_s"] = sum(s[2] for s in stats)
            continue
        calls, total, own = loop["modules"].get(mod, [0, 0.0, 0.0])
        out[f"layer.{mod}.calls"] = calls / steps
        out[f"layer.{mod}.ms"] = total * 1e3 / steps
        out[f"layer.{mod}.self_ms"] = own * 1e3 / steps

    pairs = loop["pairs"]
    out["dynamics.midpoint_h.ms"] = sum(
        pairs.get(f"dynamics.step>{op}", 0.0) for op in MIDPOINT_OPS) * 1e3 / steps
    out["diagnostics.ledger_row.ms"] = sum(
        pairs.get(f"dynamics.run>{op}", 0.0) for op in LEDGER_OPS) * 1e3 / steps
    out["snapshots.write_snapshot.bytes"] = traced["snap_bytes"] / steps
    out["cli.energy_csv.bytes"] = traced["csv_bytes"] / steps

    calls, _, first, warm_calls, warm_total = _over(procs, "maxwell.poisson_solve")
    out["maxwell.poisson_solve.calls"] = calls
    out["maxwell.poisson_factor_s"] = first
    out["maxwell.poisson_solve.warm_ms"] = (
        warm_total * 1e3 / warm_calls if warm_calls else 0.0)
    out["maxwell.init_divfree_s"] = _over(procs, "maxwell.init_divfree")[2]
    out["config.build_setup_s"] = _over(procs, "config.build_setup")[2]
    for metric, span in (("config.parse_config.ms", "config.parse_config"),
                         ("presets.random_unit_m.ms", "presets.random_unit_m"),
                         ("snapshots.read_snapshot.ms", "snapshots.read_snapshot")):
        out[metric] = _per_call_ms(procs, span)
    for metric, span in (
            ("diagnostics.stationarity_report_s", "diagnostics.stationarity_report"),
            ("diagnostics.omega_limit_field_cells_s", "diagnostics.omega_limit_field_cells")):
        out[metric] = _over(procs, span)[1]

    for kernel in ("maxwell.fdtd_step", "dynamics.llg_rhs"):
        calls, total = _stat(loop, kernel)[:2]
        nbytes = traced["bytes"][kernel.split(".")[1]] if calls else 0
        out[f"{kernel}.bytes_computed"] = nbytes
        out[f"{kernel}.gbps_computed"] = nbytes * calls / total / 1e9 if calls else 0.0

    loop_ms = _stat(loop, "dynamics.run")[1] * 1e3 / steps
    out["share.maxwell"] = out["maxwell.fdtd_step.ms"] / loop_ms
    out["share.llg"] = out["dynamics.llg_rhs.ms"] / loop_ms
    out["share.ledger"] = out["diagnostics.ledger_row.ms"] / loop_ms
    out["share.predictor"] = out["dynamics.midpoint_h.ms"] / loop_ms
    wall = statistics.mean(r["wall_s"] for r in untraced)
    loop_s = statistics.mean(_loop_s(r) for r in untraced)
    out["trace.overhead_frac"] = (traced["wall_s"] - wall) / wall
    out["trace.loop_overhead_frac"] = (_loop_s(traced) - loop_s) / loop_s
    out.update(traced["margins"])
    out["bench.failed_frac"] = failed_frac
    return out


# ---------------------------------------------------------------------------
# one workload


def run_workload(name, seed, seconds, trace, size="full", deadline=None):
    """Returns (report dict, exit code)."""
    if deadline is None:
        deadline = time.monotonic() + RUN_BUDGET_S
    steps = wl.steps_for(name, seconds, size)

    def text_for(outdir):
        return wl.config_text(name, seed, steps, size, outdir)

    workdir = BENCH / "_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # traced between two untraced, so the overhead is not one pair's drift
    plan = [False, True, False] if trace else [False] * wl.REPS[name]
    load_before = os.getloadavg()
    try:
        reps = [run_rep(name, text_for, steps, traced, workdir, f"rep{i}", deadline)
                for i, traced in enumerate(plan)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ok = [r for r in reps if not r["fails"]]
    for r in ok[1:]:
        if r["output"] != ok[0]["output"]:
            r["fails"].append("output differs from the first repetition"
                              + (" (traced vs untraced)" if r["traced"] else ""))
    ok = [r for r in reps if not r["fails"]]
    report = {"workload": name, "seed": seed, "steps_per_rep": steps,
              "attempted": len(reps), "failed": len(reps) - len(ok),
              "fails": [f for r in reps for f in r["fails"]],
              "load_before": load_before, "load_after": os.getloadavg()}
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if untraced:
        report["end_to_end"], samples = end_to_end(untraced)
        # the tail of identical steps is set by host contention, so p90 is
        # reported as a per-layer figure without a bound
        report["step_samples"] = len(samples)
        report["step_ms_p90"] = statistics.quantiles(samples, n=10)[8]
        report["margins"] = untraced[0]["margins"]
    if trace and untraced and traced:
        report["per_layer"] = layer_metrics(traced[0], untraced,
                                            report["failed"] / report["attempted"])
        report["per_layer"]["bench.step_ms_p90"] = report["step_ms_p90"]
        report["per_layer"]["bench.step_samples"] = report["step_samples"]
    complete = "per_layer" in report if trace else "end_to_end" in report
    return report, 0 if complete and not report["failed"] else 1


# ---------------------------------------------------------------------------
# output


def metric_units(kind):
    """{name: unit} of the "end_to_end" or "per_layer" metrics, in order."""
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def print_report(report, trace):
    name = report["workload"]
    print(f"workload {name}: seed {report['seed']}, {report['steps_per_rep']} steps per "
          f"repetition, {report['attempted']} attempted, {report['failed']} failed, "
          f"failed_frac {report['failed'] / report['attempted']:g}")
    print(f"load average before {report['load_before']}, after {report['load_after']}")
    for fail in report["fails"]:
        print(f"FAIL {name}: {fail}")
    units = metric_units("end_to_end")
    for metric, value in report.get("end_to_end", {}).items():
        print(f"  {metric:<28} {value:14.6g} {units[metric]}")
    if "step_samples" in report:
        print(f"  {'step_ms_p90':<28} {report['step_ms_p90']:14.6g} ms")
        print(f"  step_ms percentiles from {report['step_samples']} samples")
    for metric, value in report.get("margins", {}).items():
        print(f"  {metric:<28} {value:14.6g}")
    if trace and "per_layer" in report:
        units = metric_units("per_layer")
        for metric, value in report["per_layer"].items():
            print(f"  {metric:<42} {value:14.6g} {units[metric]}")


def result_line(report, trace):
    kind = "per_layer" if trace else "end_to_end"
    values = report.get(kind, {})
    return json.dumps({
        "correct": not report["failed"] and bool(values),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in metric_units(kind).items() if name in values},
    })


def run_all(seed, seconds):
    env = environment()
    print("environment " + json.dumps(env))
    baseline = {"environment": env, "seed": seed, "seconds": seconds, "workloads": {}}
    code = 0
    for name in workload_names():
        entry = {}
        for trace in (False, True):
            report, rc = run_workload(name, seed, seconds, trace)
            print_report(report, trace)
            code = code or rc
            key = "per_layer" if trace else "end_to_end"
            entry[key] = report.get(key)
            entry["load" if not trace else "load_traced"] = [report["load_before"],
                                                             report["load_after"]]
        baseline["workloads"][name] = entry
    (BENCH / "BASELINE.json").write_text(json.dumps(baseline, indent=2) + "\n")
    return code


def workload_names():
    return [w["name"] for w in SPEC["workloads"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names())
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few cells and steps, for the benchmark's own tests")
    parser.add_argument("--all", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "spinlayer" / "__init__.py").is_file():
        print(f"error: no spinlayer sources under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    print("environment " + json.dumps(environment()))
    report, code = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.size)
    print_report(report, bool(args.trace))
    print(result_line(report, bool(args.trace)))
    return code


if __name__ == "__main__":
    sys.exit(main())
