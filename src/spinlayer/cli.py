"""Command-line entry point.

Subcommands:
    run <config>    execute a simulation, writing energy.csv, the
                    effective configuration, and field snapshots
    check <config>  validate a configuration, step it through
                    `dynamics.run` as far as its first step (the steps
                    and ledger rows run takes, none written), and echo
                    the effective form
    diag <dir>      recompute the final diagnostics row from the stored
                    snapshots of a finished run; it rereads the run's
                    effective_config and takes none of the run flags

`run` and `check` form every ledger row through `dynamics.run`, which
rejects a row with a value that is not finite (exit 3, naming the step,
t and first column); `diag` rejects a recomputed row by the same rule
(`errors.check_finite`).

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 I/O error or memory exhausted.  The commands raise; `main` runs the
chosen one under one `np.errstate` and maps its failure to the exit code
and one stderr line.
"""

import argparse
import contextlib
import os
import sys
import time

import numpy as np

from . import dynamics, maxwell, snapshots
from .config import (RunConfig, _parse, _seed_flag, _validate, build_model,
                     build_setup, parse_config, read_config_text)
from .diagnostics import CSV_COLUMNS, omega_limit_field_cells, stationarity_report
from .dynamics import _state_terms
from .energetics import EnergyBreakdown, _dot, _norm_views, _vector_field
from .errors import (ConfigError, NonFinite, SimulationError, ValidationError, check_finite,
                     first_bad_cell)

DIAG_COLUMNS = ("t",) + EnergyBreakdown.COLUMNS + ("saturation_dev", "divergence_drift")


def _fmt_row(values) -> str:
    return ",".join(format(v, ".17g") for v in values)


def _fail(code: int, kind: str, message: str) -> int:
    print(f"error: {kind}: {message}", file=sys.stderr)
    return code


def _lock_owner(lock: str) -> str:
    """The owner recorded in a lock file ("pid N started T")."""
    try:
        with open(lock) as fh:
            owner = fh.read().strip()
    except OSError as exc:
        return f"an unknown owner (unreadable: {exc})"
    return owner or "an unknown owner (empty lock file)"


@contextlib.contextmanager
def _locked(outdir: str):
    """Create outdir and hold its lock file, which records this process as
    the owner, for the block; the lock is removed however the block ends.
    Every failure to take the lock is an OSError naming what failed."""
    lock = os.path.join(outdir, "lock")
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory: {exc}") from exc
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise OSError(f"output directory is locked: {lock} is held by "
                      f"{_lock_owner(lock)}; remove it if that run has ended") from None
    except OSError as exc:
        raise OSError(f"cannot lock output directory: {exc}") from exc
    try:
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(f"pid {os.getpid()} started "
                         f"{time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}\n")
        except OSError as exc:
            raise OSError(f"cannot write the lock file: {exc}") from exc
        yield
    finally:
        try:
            os.remove(lock)
        except OSError:
            pass


def _load_config(path: str, args) -> RunConfig:
    """The config file with the command-line overrides applied, then
    validated."""
    config = _parse(read_config_text(path))
    if args.log_every is not None:
        config.cadence = args.log_every
    if args.snapshots is not None:
        config.snapshots_on = args.snapshots == "on"
    if args.seed is not None:
        _seed_flag(config, args.seed)
    _validate(config)
    return config


def _write_state(outdir: str, names, geom, t: float, m, em=None):
    """Snapshots of one state at time t, at the grid's spacings, as
    `<name>.snap` in outdir for each of names in turn: m on the body's
    cells, then with em its h and e stores on the Yee box."""
    fields = [(snapshots.FIELD_M, (geom.nx, geom.ny, geom.nz_total), [m])]
    if em is not None:
        yee = (em.box.nx, em.box.ny, em.box.nz)
        fields += [(snapshots.FIELD_H, yee, [em.hx, em.hy, em.hz]),
                   (snapshots.FIELD_E, yee, [em.ex, em.ey, em.ez])]
    for name, (field_id, dims, arrays) in zip(names, fields, strict=True):
        snapshots.write_snapshot(os.path.join(outdir, f"{name}.snap"), field_id, dims,
                                 (geom.dx, geom.dy, geom.dz), t, arrays)


def _cmd_check(args) -> int:
    config = _load_config(args.config, args)
    setup = build_setup(config)
    # the steps and rows of run, as far as its first step
    dynamics.run(setup.geom, setup.params, setup.scheme, setup.m0, setup.em, setup.f,
                 min(config.t_end, config.dt), on_row=lambda row: None)
    sys.stdout.write(config.to_text())
    return 0


def _cmd_run(args) -> int:
    config = _load_config(args.config, args)
    setup = build_setup(config)
    outdir, geom = config.directory, setup.geom
    with _locked(outdir):
        with snapshots._atomic_open(os.path.join(outdir, "effective_config"), "w") as fh:
            fh.write(config.to_text())
        _write_state(outdir, ("state_initial_m", "state_initial_h", "state_initial_e"),
                     geom, 0.0, setup.m0, setup.em)
        # a failed run leaves the rows logged so far in energy.csv.partial
        with snapshots._atomic_open(os.path.join(outdir, "energy.csv"), "w") as csv_fh:
            csv_fh.write(",".join(CSV_COLUMNS) + "\n")

            def on_row(row):
                csv_fh.write(_fmt_row(row.csv_values()) + "\n")

            def on_state(state, step_idx):
                if config.snapshots_on and step_idx > 0:
                    _write_state(outdir, (f"m_{step_idx:08d}",), geom, state.t, state.m)

            final = dynamics.run(geom, setup.params, setup.scheme, setup.m0, setup.em,
                                 setup.f, config.t_end, log_every=config.cadence,
                                 on_row=on_row, on_state=on_state).final_state
        _write_state(outdir, ("state_final_m", "state_final_h", "state_final_e"),
                     geom, final.t, final.m, final.em)
    return 0


def _check_stored(name: str, targets):
    """Raise NonFinite naming the stored field and its first cell (m) or
    index (a component of h or e) where the snapshot `name`, copied into
    targets, is not finite or its square, which the ledger sums,
    overflows."""
    _, which, letter = name[:-len(".snap")].split("_")   # state_<which>_<letter>
    if letter == "m":
        square, t, parts = _norm_views(targets[0], None)
        checks = [("magnetization m", "cell", _dot(parts, parts, square, t))]
    else:
        checks = [(f"electromagnetic field {letter}{axis}", "index", np.square(a))
                  for axis, a in zip("xyz", targets)]
    for field, where, square in checks:
        bad = ~np.isfinite(square)
        if bad.any():
            raise NonFinite(f"stored {which} {field} is not finite or overflows when "
                            f"squared, first at {where} {first_bad_cell(bad)}")


def recompute_final_row(outdir: str):
    """Diagnostics of the stored final state; values match the final
    energy.csv row bit for bit because the same routines produce both.
    A snapshot that is not the run's raises `snapshots.SnapshotError`; a
    stored field that is not finite, or whose square overflows, raises
    NonFinite as it is loaded (`_check_stored` names the field and its
    cell or index), and so do diagnostics that are not finite.

    Each snapshot is copied into the state's fields (m, and the stores of
    `setup.em`) before the next is read, and the initial divergence is
    recorded between the initial and the final ones, so no snapshot is
    held beside another.  Once the row is computed the Maxwell workspace
    is dropped and the omega-limit field is solved into the h store.

    Returns (row dict, stationarity report rows)."""
    config = parse_config(read_config_text(os.path.join(outdir, "effective_config")))
    setup = build_model(config)   # the fields come from the snapshots
    geom, em = setup.geom, setup.em
    cells, yee = (geom.nx, geom.ny, geom.nz_total), (em.box.nx, em.box.ny, em.box.nz)
    # the ledger's sums run in memory order: m has the run's layout
    m = _vector_field(cells + (3,))

    def load(name, field_id, dims, targets):
        t, arrays = snapshots.read_field(os.path.join(outdir, name), field_id, dims)
        for target, a in zip(targets, arrays):
            np.copyto(target, a)
        _check_stored(name, targets)
        return t

    load("state_initial_m.snap", snapshots.FIELD_M, cells, [m])
    load("state_initial_h.snap", snapshots.FIELD_H, yee, (em.hx, em.hy, em.hz))
    maxwell.record_div0(em, m)
    t_final = load("state_final_m.snap", snapshots.FIELD_M, cells, [m])
    load("state_final_h.snap", snapshots.FIELD_H, yee, (em.hx, em.hy, em.hz))
    load("state_final_e.snap", snapshots.FIELD_E, yee, (em.ex, em.ey, em.ez))

    breakdown, saturation_dev, drift = _state_terms(m, em, geom, setup.params)
    values = (t_final,) + breakdown.as_tuple() + (saturation_dev, drift)
    em.work = None   # the workspace is only needed for the row's drift

    H = omega_limit_field_cells(m, em.box, geom, out=em.h)
    stationarity = stationarity_report(m, H, setup.params, geom)
    names, stat_values = zip(*stationarity)
    check_finite(DIAG_COLUMNS + names, values + stat_values,
                 "diagnostics of the stored final state")
    return dict(zip(DIAG_COLUMNS, values)), stationarity


def _cmd_diag(args) -> int:
    for flag in ("log_every", "snapshots", "seed"):
        if getattr(args, flag) is not None:
            raise ValidationError("--" + flag.replace("_", "-"),
                                  "diag rereads the run's effective_config and takes "
                                  "no run flag")
    row, stationarity = recompute_final_row(args.directory)
    text = ",".join(DIAG_COLUMNS) + "\n" + _fmt_row(row.values()) + "\n"
    stat_text = "test_fn,residual\n" + "".join(
        f"{name},{format(value, '.17g')}\n" for name, value in stationarity)
    for name, content in (("diag_report.csv", text), ("stationarity.csv", stat_text)):
        with snapshots._atomic_open(os.path.join(args.directory, name), "w") as fh:
            fh.write(content)
    sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinlayer",
        description="coupled magnetization/Maxwell simulator for a "
                    "bilayer ferromagnet with a spacer")
    parser.add_argument("--log-every", type=int, default=None,
                        help="ledger row cadence in steps")
    parser.add_argument("--snapshots", choices=("on", "off"), default=None)
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of a random m preset, written into the preset "
                             "(0 included)")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a simulation")
    p_run.add_argument("config")
    p_check = sub.add_parser("check", help="validate a configuration")
    p_check.add_argument("config")
    p_diag = sub.add_parser("diag", help="recompute diagnostics offline")
    p_diag.add_argument("directory")
    args = parser.parse_args(argv)

    command = {"run": _cmd_run, "check": _cmd_check, "diag": _cmd_diag}[args.command]
    # numeric failures (exit 3) are the simulator's own, ConfigError aside,
    # and float overflow or division by zero in Python arithmetic on
    # extreme inputs
    try:
        with np.errstate(all="ignore"):   # non-finite values raise NonFinite
            return command(args)
    except OSError as exc:
        return _fail(4, "io", str(exc))
    except MemoryError as exc:
        return _fail(4, "memory", str(exc))
    except ConfigError as exc:
        return _fail(2, "config", str(exc))
    except (SimulationError, ArithmeticError) as exc:
        return _fail(3, "numeric", str(exc))


if __name__ == "__main__":
    sys.exit(main())
