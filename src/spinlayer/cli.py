"""Command-line entry point.

Subcommands:
    run <config>    execute a simulation, writing energy.csv, the
                    effective configuration, and field snapshots
    check <config>  validate a configuration and its first step, and
                    echo the effective form
    diag <dir>      recompute the final diagnostics row from the stored
                    snapshots of a finished run

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 I/O error.
"""

import argparse
import os
import sys
import time

import numpy as np

from . import dynamics, maxwell, snapshots
from .config import RunConfig, _parse, _validate, build_model, build_setup, parse_config
from .diagnostics import CSV_COLUMNS, omega_limit_field_cells, stationarity_report
from .dynamics import _state_terms
from .energetics import EnergyBreakdown, _vector_copy
from .errors import ConfigError, SimulationError

# numeric failures (exit 3): the simulator's own, and float overflow or
# division by zero in Python arithmetic on extreme inputs
_NUMERIC_ERRORS = (SimulationError, ArithmeticError)

DIAG_COLUMNS = ("t",) + EnergyBreakdown.COLUMNS + ("saturation_dev", "divergence_drift")


def _fmt_row(values) -> str:
    return ",".join(format(v, ".17g") for v in values)


def _atomic_write_text(path: str, text: str):
    tmp = path + ".partial"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


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


def _load_config(path: str, args) -> RunConfig:
    """The config file with the command-line overrides applied, then
    validated."""
    with open(path) as fh:
        text = fh.read()
    config = _parse(text)
    if args.log_every is not None:
        config.cadence = args.log_every
    if args.snapshots is not None:
        config.snapshots_on = args.snapshots == "on"
    if args.seed is not None:
        config.seed = args.seed
    _validate(config)
    return config


def _write_state_snapshots(outdir: str, tag: str, state_m, em, geom, t: float):
    dims = (geom.nx, geom.ny, geom.nz_total)
    sp = (geom.dx, geom.dy, geom.dz)
    box = em.box
    bdims = (box.nx, box.ny, box.nz)
    snapshots.write_snapshot(os.path.join(outdir, f"{tag}_m.snap"),
                             snapshots.FIELD_M, dims, sp, t, [state_m])
    snapshots.write_snapshot(os.path.join(outdir, f"{tag}_h.snap"),
                             snapshots.FIELD_H, bdims, sp, t, [em.hx, em.hy, em.hz])
    snapshots.write_snapshot(os.path.join(outdir, f"{tag}_e.snap"),
                             snapshots.FIELD_E, bdims, sp, t, [em.ex, em.ey, em.ez])


def _cmd_check(args) -> int:
    try:
        config = _load_config(args.config, args)
        setup = build_setup(config)
        with np.errstate(all="ignore"):   # non-finite values raise NonFinite
            dynamics.step(dynamics.SimState(
                t=0.0, m=setup.m0, em=setup.em, geom=setup.geom,
                params=setup.params, scheme=setup.scheme), setup.f)
    except OSError as exc:
        return _fail(4, "io", str(exc))
    except ConfigError as exc:
        return _fail(2, "config", str(exc))
    except _NUMERIC_ERRORS as exc:
        return _fail(3, "numeric", str(exc))
    sys.stdout.write(config.to_text())
    return 0


def _cmd_run(args) -> int:
    try:
        config = _load_config(args.config, args)
        setup = build_setup(config)
    except OSError as exc:
        return _fail(4, "io", str(exc))
    except ConfigError as exc:
        return _fail(2, "config", str(exc))
    except _NUMERIC_ERRORS as exc:
        return _fail(3, "numeric", str(exc))

    outdir = config.directory
    lock = os.path.join(outdir, "lock")
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        return _fail(4, "io", f"cannot create output directory: {exc}")
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return _fail(4, "io", f"output directory is locked: {lock} is held by "
                              f"{_lock_owner(lock)}; remove it if that run has ended")
    except OSError as exc:
        return _fail(4, "io", f"cannot lock output directory: {exc}")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(f"pid {os.getpid()} started "
                     f"{time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}\n")
    except OSError as exc:
        try:
            os.remove(lock)
        except OSError:
            pass
        return _fail(4, "io", f"cannot write the lock file: {exc}")

    csv_tmp = os.path.join(outdir, "energy.csv.partial")
    code = 0
    try:
        _atomic_write_text(os.path.join(outdir, "effective_config"), config.to_text())
        _write_state_snapshots(outdir, "state_initial", setup.m0, setup.em,
                               setup.geom, 0.0)
        csv_fh = open(csv_tmp, "w")
        csv_fh.write(",".join(CSV_COLUMNS) + "\n")

        def on_row(row):
            csv_fh.write(_fmt_row(row.csv_values()) + "\n")

        def on_state(state, step_idx):
            if config.snapshots_on and step_idx > 0:
                path = os.path.join(outdir, f"m_{step_idx:08d}.snap")
                snapshots.write_snapshot(
                    path, snapshots.FIELD_M,
                    (setup.geom.nx, setup.geom.ny, setup.geom.nz_total),
                    (setup.geom.dx, setup.geom.dy, setup.geom.dz),
                    state.t, [state.m])

        try:
            with np.errstate(all="ignore"):   # non-finite values raise NonFinite
                traj = dynamics.run(setup.geom, setup.params, setup.scheme,
                                    setup.m0, setup.em, setup.f, config.t_end,
                                    log_every=config.cadence,
                                    on_row=on_row, on_state=on_state)
        except _NUMERIC_ERRORS as exc:
            csv_fh.close()
            return _fail(3, "numeric", str(exc))
        csv_fh.close()
        os.replace(csv_tmp, os.path.join(outdir, "energy.csv"))
        final = traj.final_state
        _write_state_snapshots(outdir, "state_final", final.m, final.em,
                               setup.geom, final.t)
    except OSError as exc:
        code = _fail(4, "io", str(exc))
    finally:
        try:
            os.remove(lock)
        except OSError:
            pass
    return code


def recompute_final_row(outdir: str):
    """Diagnostics of the stored final state; values match the final
    energy.csv row bit for bit because the same routines produce both.
    A snapshot that is not the run's raises `snapshots.SnapshotError`.

    Returns (row dict, stationarity report rows)."""
    with open(os.path.join(outdir, "effective_config")) as fh:
        config = parse_config(fh.read())
    setup = build_model(config)   # the fields come from the snapshots
    geom, box = setup.geom, setup.box

    def read(name, field_id, dims):
        return snapshots.read_field(os.path.join(outdir, name), field_id, dims)

    cells, yee = (geom.nx, geom.ny, geom.nz_total), (box.nx, box.ny, box.nz)
    _, (m0_arr,) = read("state_initial_m.snap", snapshots.FIELD_M, cells)
    _, h0_arrays = read("state_initial_h.snap", snapshots.FIELD_H, yee)
    t_final, (m_file,) = read("state_final_m.snap", snapshots.FIELD_M, cells)
    # the ledger's sums run in memory order: reduce over the run's layout
    m_arr = _vector_copy(m_file)
    _, h_arrays = read("state_final_h.snap", snapshots.FIELD_H, yee)
    _, e_arrays = read("state_final_e.snap", snapshots.FIELD_E, yee)

    em = setup.em
    em.hx, em.hy, em.hz = h0_arrays
    maxwell.record_div0(em, m0_arr)
    em.hx, em.hy, em.hz = h_arrays
    em.ex, em.ey, em.ez = e_arrays

    breakdown, saturation_dev, drift = _state_terms(m_arr, em, geom, setup.params)
    values = (t_final,) + breakdown.as_tuple() + (saturation_dev, drift)

    H = omega_limit_field_cells(m_arr, box, geom)
    stationarity = stationarity_report(m_arr, H, setup.params, geom)
    return dict(zip(DIAG_COLUMNS, values)), stationarity


def _cmd_diag(args) -> int:
    try:
        row, stationarity = recompute_final_row(args.directory)
    except OSError as exc:
        return _fail(4, "io", str(exc))
    except ConfigError as exc:
        return _fail(2, "config", str(exc))
    except _NUMERIC_ERRORS as exc:
        return _fail(3, "numeric", str(exc))
    text = ",".join(DIAG_COLUMNS) + "\n" + _fmt_row(row.values()) + "\n"
    stat_text = "test_fn,residual\n" + "".join(
        f"{name},{format(value, '.17g')}\n" for name, value in stationarity)
    try:
        _atomic_write_text(os.path.join(args.directory, "diag_report.csv"), text)
        _atomic_write_text(os.path.join(args.directory, "stationarity.csv"),
                           stat_text)
    except OSError as exc:
        return _fail(4, "io", str(exc))
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
                        help="override the random-preset seed")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a simulation")
    p_run.add_argument("config")
    p_check = sub.add_parser("check", help="validate a configuration")
    p_check.add_argument("config")
    p_diag = sub.add_parser("diag", help="recompute diagnostics offline")
    p_diag.add_argument("directory")
    args = parser.parse_args(argv)

    if args.command == "run":
        return _cmd_run(args)
    if args.command == "check":
        return _cmd_check(args)
    return _cmd_diag(args)


if __name__ == "__main__":
    sys.exit(main())
