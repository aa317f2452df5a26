#!/usr/bin/env python3
"""Compare the outputs of two source trees bit for bit, and their speed.

    python3 tools/compare.py --base REV [--head REV] [--size full|tiny]
                             [--pairs K] [--workdir DIR]

Exports REV with `git archive` as the tree `base`, and `--head REV` (by
default the working tree's tracked and unignored files) as the tree
`head`, side by side in one work directory, so both paths are equally
long.  Each of the benchmark's three inputs,
`bench/workloads.config_text(w, 7, 40, size)` from this checkout, runs
through `spinlayer --snapshots on run` and then `spinlayer diag` in both
trees.  energy.csv, diag_report.csv, stationarity.csv and every .snap
file must match byte for byte: for the first that does not, the tool
prints the file, the first differing row and column (or array index) and
the largest relative difference.  The lines in which the two
effective_config files differ are printed apart and are no failure.

With --pairs K, each workload then runs K untraced pairs of
`python3 <tree>/bench/run.py --workload W --seed i --trace 0 --size S`
(i = 1..K), one run in each tree, base first in odd pairs and head first
in even ones.  For each end-to-end metric of
BENCHMARK.json the tool prints both trees' medians and IQRs and the pairs
head won by the metric's `better` (a tie counts for neither).  A metric
is `worse` when head's median is worse than base's by more than the
metric's relative `bound`; else `gain` when at least ten pairs ran, head
won at least nine in ten of them and its median is better than base's
by more than base's IQR (the rule a claimed gain must meet, so a claim
needs K >= 10); else `unresolved` when a tree's IQR exceeds the bound
times its median.

Exit status: 0 identical (and, with --pairs, no metric worse and every
run correct), 1 some compared file differs, a metric is worse or a run
is not correct, 2 a command failed.  The work directory is a fresh
temporary one, removed at the end, unless --workdir names one (which
must not exist yet and is kept).
"""

import argparse
import difflib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from spinlayer import snapshots  # noqa: E402

WORKLOADS = ("coupled", "llg_only", "cli")
SEED, STEPS = 7, 40
COMPARED = ("energy.csv", "diag_report.csv", "stationarity.csv")
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


class CommandFailed(Exception):
    pass


def _git(*args) -> bytes:
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True)
    if proc.returncode != 0:
        raise CommandFailed(f"git {' '.join(args)}: {proc.stderr.decode().strip()}")
    return proc.stdout


def export_rev(rev: str, dest: Path):
    """The files of commit rev in dest, through `git archive`."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def export_working_tree(dest: Path):
    """The working tree's tracked and untracked, unignored files in dest."""
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in names.decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_workload(tree: Path, rundir: Path, workload: str, size: str) -> Path:
    """`spinlayer --snapshots on run`, then `diag`, of one input with the
    sources of tree, in rundir; the run's output directory."""
    rundir.mkdir(parents=True)
    (rundir / "run.cfg").write_text(wl.config_text(workload, SEED, STEPS, size, "out"))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    for argv in (["--snapshots", "on", "run", "run.cfg"], ["diag", "out"]):
        proc = subprocess.run([sys.executable, "-m", "spinlayer.cli", *argv], cwd=rundir,
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise CommandFailed(f"{tree.name} {workload}: spinlayer {' '.join(argv)} "
                                f"exit {proc.returncode}: {proc.stderr.strip()}")
    return rundir / "out"


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def csv_difference(a: bytes, b: bytes) -> str:
    """Where two CSV files of numbers first differ, and their largest
    relative difference."""
    rows_a, rows_b = a.decode().splitlines(), b.decode().splitlines()
    if len(rows_a) != len(rows_b):
        return f"{len(rows_a)} against {len(rows_b)} lines"
    header = rows_a[0].split(",")
    first, largest = None, 0.0
    for r, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        cells_a, cells_b = ra.split(","), rb.split(",")
        if len(cells_a) != len(cells_b):
            return f"line {r + 1} has {len(cells_a)} against {len(cells_b)} cells"
        for c, (x, y) in enumerate(zip(cells_a, cells_b)):
            if x == y:
                continue
            if first is None:
                first = f"first at row {r}, column {header[c]} ({x} against {y})"
            try:
                largest = max(largest, _rel(float(x), float(y)))
            except ValueError:
                pass
    if first is None:
        return "the bytes differ outside the cells"
    return f"{first}; largest relative difference {largest:.3g}"


def snap_difference(path_a: Path, path_b: Path) -> str:
    """Where two snapshots first differ, and their largest relative
    difference."""
    size = snapshots._HEADER.size
    if path_a.read_bytes()[:size] != path_b.read_bytes()[:size]:
        return "the headers differ"
    try:
        arrays_a, arrays_b = (snapshots.read_snapshot(p)[-1] for p in (path_a, path_b))
    except ValueError as exc:
        return f"unreadable: {exc}"
    for k, (x, y) in enumerate(zip(arrays_a, arrays_b)):
        bad = x.view(np.uint64) != y.view(np.uint64)
        if bad.any():
            index = tuple(int(i) for i in np.argwhere(bad)[0])
            largest = max(_rel(p, q) for p, q in zip(x[bad].tolist(), y[bad].tolist()))
            return (f"first at array {k}, index {index} ({float(x[index])!r} against "
                    f"{float(y[index])!r}); largest relative difference {largest:.3g}")
    return "the payloads differ"


def compare_outputs(out_a: Path, out_b: Path, label: str) -> list:
    """The compared files of two run directories that differ, each as a
    line naming where; effective_config is printed apart."""
    diff = list(difflib.unified_diff(
        (out_a / "effective_config").read_text().splitlines(),
        (out_b / "effective_config").read_text().splitlines(), lineterm="", n=0))
    changed = [line for line in diff[2:] if not line.startswith("@@")]
    print(f"{label}: effective_config " + ("identical" if not changed else
                                           "differs (not compared): " + ", ".join(changed)))
    names_a, names_b = ({p.name for p in out.iterdir()
                         if p.name in COMPARED or p.suffix == ".snap"} for out in (out_a, out_b))
    found = [f"{label}/{name}: only in {side}" for side, names in
             (("base", names_a - names_b), ("head", names_b - names_a)) for name in names]
    for name in sorted(names_a & names_b):
        a, b = (out_a / name).read_bytes(), (out_b / name).read_bytes()
        if a == b:
            continue
        where = (snap_difference(out_a / name, out_b / name) if name.endswith(".snap")
                 else csv_difference(a, b))
        found.append(f"{label}/{name}: {where}")
    return found


def bench_line(tree: Path, workload: str, seed: int, size: str) -> dict:
    """The result line (the last line of stdout, JSON) of one untraced
    benchmark run of workload with the sources of tree."""
    argv = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", "0", "--size", size]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise CommandFailed(f"{tree.name} {workload} seed {seed}: bench/run.py exit "
                            f"{proc.returncode} without a result line: "
                            f"{proc.stderr.strip()}") from None


def run_pairs(trees: dict, workload: str, pairs: int, size: str) -> list:
    """(base, head) result lines of `pairs` pairs of runs, seeds 1 to
    pairs, base first in odd pairs and head first in even ones."""
    lines = []
    for i in range(1, pairs + 1):
        order = ("base", "head") if i % 2 else ("head", "base")
        line = {side: bench_line(trees[side], workload, i, size) for side in order}
        lines.append((line["base"], line["head"]))
    return lines


def _quartiles(values: list) -> tuple:
    """(median, interquartile range)."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(median), float(q3 - q1)


def compare_pairs(lines: list, label: str) -> list:
    """Print, per end-to-end metric that every run reports, both trees'
    medians and IQRs, the pairs head won and the mark (ok, worse, gain or
    unresolved; see the module docstring), and return the failures: each
    run that is not correct and each worse metric."""
    failures = [f"{label}: the {side} run of pair {i} is not correct"
                for i, pair in enumerate(lines, 1)
                for side, line in zip(("base", "head"), pair) if not line.get("correct")]
    for metric in END_TO_END:
        name, bound = metric["name"], metric["bound"]
        if not all(name in line.get("metrics", {}) for pair in lines for line in pair):
            continue
        base, head = ([pair[k]["metrics"][name]["value"] for pair in lines] for k in (0, 1))
        sign = 1.0 if metric["better"] == "lower" else -1.0
        won = sum(sign * (h - b) < 0 for b, h in zip(base, head))
        (mb, qb), (mh, qh) = _quartiles(base), _quartiles(head)
        change = sign * (mh - mb) / abs(mb) if mb else 0.0
        gain = len(lines) >= 10 and 10 * won >= 9 * len(lines) and sign * (mb - mh) > qb
        mark = ("worse" if change > bound else "gain" if gain else
                "unresolved" if qb > bound * abs(mb) or qh > bound * abs(mh) else "ok")
        print(f"{label}: {name} base {mb:.6g} (IQR {qb:.3g}), head {mh:.6g} (IQR {qh:.3g}), "
              f"head won {won} of {len(lines)}, {mark}")
        if mark == "worse":
            failures.append(f"{label}: {name} worse by {change:.1%}, beyond its bound "
                            f"{bound:.0%}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the commit to compare against")
    parser.add_argument("--head", default=None,
                        help="the commit to compare (default: the working tree)")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--pairs", type=int, default=0,
                        help="untraced benchmark pairs per workload (default none; "
                             "a gain is marked only from 10 pairs on)")
    parser.add_argument("--workdir", default=None,
                        help="keep the trees and runs here (must not exist)")
    args = parser.parse_args(argv)
    if args.pairs < 0:
        parser.error("--pairs must be nonnegative")

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="spinlayer-compare-"))
    try:
        workdir.mkdir(parents=True, exist_ok=args.workdir is None)
        trees = {"base": workdir / "base", "head": workdir / "head"}
        for tree in trees.values():
            tree.mkdir()
        export_rev(args.base, trees["base"])
        if args.head is None:
            export_working_tree(trees["head"])
        else:
            export_rev(args.head, trees["head"])
        found, failures = [], []
        for workload in WORKLOADS:
            outs = [run_workload(tree, workdir / f"{side}-runs" / workload, workload,
                                 args.size) for side, tree in trees.items()]
            found += compare_outputs(*outs, workload)
        for workload in WORKLOADS if args.pairs > 0 else ():
            failures += compare_pairs(run_pairs(trees, workload, args.pairs, args.size),
                                      workload)
    except (CommandFailed, FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    for line in found:
        print(f"DIFFERS {line}")
    for line in failures:
        print(f"PERF {line}")
    head = "the working tree" if args.head is None else args.head
    print(f"{args.base} against {head}, {args.size} inputs: "
          + (f"{len(found)} compared file(s) differ" if found else
             "every compared file is identical"))
    if args.pairs > 0:
        print(f"{args.pairs} benchmark pair(s) per workload: "
              + (f"{len(failures)} failure(s)" if failures else
                 "no metric worse and every run correct"))
    return 1 if found or failures else 0


if __name__ == "__main__":
    sys.exit(main())
