#!/usr/bin/env python3
"""Compare the outputs of two source trees bit for bit.

    python3 tools/compare.py --base REV [--head REV] [--size full|tiny]
                             [--workdir DIR]

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

Exit status: 0 identical, 1 some compared file differs, 2 a command
failed.  The work directory is a fresh temporary one, removed at the end,
unless --workdir names one (which must not exist yet and is kept).
"""

import argparse
import difflib
import io
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the commit to compare against")
    parser.add_argument("--head", default=None,
                        help="the commit to compare (default: the working tree)")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", default=None,
                        help="keep the trees and runs here (must not exist)")
    args = parser.parse_args(argv)

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
        found = []
        for workload in WORKLOADS:
            outs = [run_workload(tree, workdir / f"{side}-runs" / workload, workload,
                                 args.size) for side, tree in trees.items()]
            found += compare_outputs(*outs, workload)
    except (CommandFailed, FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    for line in found:
        print(f"DIFFERS {line}")
    head = "the working tree" if args.head is None else args.head
    print(f"{args.base} against {head}, {args.size} inputs: "
          + (f"{len(found)} compared file(s) differ" if found else
             "every compared file is identical"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
