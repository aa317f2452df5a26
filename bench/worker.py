"""One benchmark repetition in a fresh interpreter.

    python3 bench/worker.py <task.json> <result.json>

Task kinds: "coupled" and "llg_only" run dynamics.run in this process;
"cli_run" and "cli_diag" call spinlayer.cli.main exactly as the
`spinlayer` console script does.  Timestamps come from the ledger-row
callback and, for the command line, from two probes around
`cli.build_setup` and `dynamics.run`.  With "trace" set, every public
function of the package is wrapped (tracer.py) before the work starts.
The result JSON carries timings, ledger rows and span summaries; the
parent process checks them.
"""

import json
import os
import resource
import sys
import time

clock = time.perf_counter


def _load(task):
    import spinlayer

    src = os.path.realpath(task["src"])
    if not os.path.realpath(spinlayer.__file__).startswith(src + os.sep):
        raise SystemExit(f"spinlayer imported from {spinlayer.__file__}, not {src}")


def _row_recorder(dt, stamps, rows=None):
    def on_row(row):
        stamps.append((round(row.t / dt), clock()))
        if rows is not None:
            rows.append(row.csv_values())
    return on_row


def _fdtd_bytes(em, m):
    """Compulsory traffic of one fdtd_step: e and h read and written once,
    the body masks and the body rate read once."""
    e = em.ex.nbytes + em.ey.nbytes + em.ez.nbytes
    h = em.hx.nbytes + em.hy.nbytes + em.hz.nbytes
    masks = sum(mask.nbytes for mask in em.omega_masks)
    return 2 * (e + h) + masks + m.nbytes


def _rhs_bytes(m, params):
    """Compulsory traffic of one llg_rhs: m and cell h read, the rate
    written, the per-cell anisotropy tile read."""
    k = params.k_matrix.nbytes if params.k_matrix is not None else 0
    return 3 * m.nbytes + k


def _setup_llg(text):
    from spinlayer import config, dynamics, energetics, geometry, presets
    import numpy as np

    cfg = config.parse_config(text)
    geom = geometry.build_geometry(geometry.GeometryConfig(
        base_lx=cfg.lx, base_ly=cfg.ly, l_minus=cfg.l_minus, l_plus=cfg.l_plus,
        nx=cfg.nx, ny=cfg.ny, nz_minus=cfg.nz_minus, nz_plus=cfg.nz_plus,
        eta=cfg.eta, trace_order=cfg.trace_order))
    params = energetics.MaterialParams(
        a_exch=cfg.a_exch,
        k_matrix=energetics.uniform_k_matrix(np.diag(cfg.k_diag), geom),
        ks=cfg.ks, j1=cfg.j1, j2=cfg.j2, alpha=cfg.alpha, sigma=cfg.sigma)
    scheme = dynamics.SchemeConfig(
        dt=cfg.dt, subcycles=cfg.subcycles, integrator=cfg.integrator,
        constraint=cfg.constraint, bc_mode=cfg.bc_mode,
        stability_c=cfg.stability_c)
    m0 = presets.random_unit_m(geom, int(cfg.m0[1]), smooth_cells=float(cfg.m0[2]))
    return cfg, geom, params, scheme, m0


def run_in_process(task, result):
    from spinlayer import config, diagnostics, dynamics
    import numpy as np

    text = task["config_text"]
    kind = task["kind"]
    setup_times = []
    for _ in range(task["setup_repeats"]):
        t0 = clock()
        if kind == "coupled":
            cfg = config.parse_config(text)
            setup = config.build_setup(cfg)
            geom, params, scheme, m0 = setup.geom, setup.params, setup.scheme, setup.m0
            em, f = setup.em, setup.f
        else:
            cfg, geom, params, scheme, m0 = _setup_llg(text)
            em, f = None, None
        setup_times.append(clock() - t0)
    result["setup_s"] = setup_times
    result["bytes"] = {"fdtd_step": _fdtd_bytes(em, m0) if em is not None else 0,
                       "llg_rhs": _rhs_bytes(m0, params)}

    stamps, rows = [], []
    traj = dynamics.run(geom, params, scheme, m0, em, f, cfg.t_end,
                        log_every=cfg.cadence,
                        on_row=_row_recorder(scheme.dt, stamps, rows))
    result["stamps"] = stamps
    result["rows"] = rows
    result["steps"] = int(round(cfg.t_end / scheme.dt))

    # post-run diagnostics: stationarity of the end state against the
    # library, with the curl-free field when there is a Maxwell box
    m_end = traj.final_state.m
    diag_times = []
    for _ in range(task["diag_repeats"]):
        t0 = clock()
        if em is not None:
            field = diagnostics.omega_limit_field_cells(m_end, em.box, geom)
        else:
            field = np.zeros_like(m_end)
        diagnostics.stationarity_report(m_end, field, params, geom)
        diag_times.append(clock() - t0)
    result["diag_s"] = diag_times


def run_cli(task, result):
    from spinlayer import cli, dynamics

    build_setup, run = cli.build_setup, dynamics.run
    setup_times, stamps = [], []

    def probe_build_setup(cfg):
        t0 = clock()
        setup = build_setup(cfg)
        setup_times.append(clock() - t0)
        if "bytes" not in result:
            result["bytes"] = {"fdtd_step": _fdtd_bytes(setup.em, setup.m0),
                               "llg_rhs": _rhs_bytes(setup.m0, setup.params)}
        return setup

    def probe_run(geom, params, scheme, *args, on_row=None, **kwargs):
        record = _row_recorder(scheme.dt, stamps)

        def on_row_timed(row):
            on_row(row)
            record(row)
        return run(geom, params, scheme, *args, on_row=on_row_timed, **kwargs)

    cli.build_setup, dynamics.run = probe_build_setup, probe_run
    try:
        code = cli.main(task["argv"])
    finally:
        cli.build_setup, dynamics.run = build_setup, run
    result["setup_s"] = setup_times
    result["stamps"] = stamps
    return code


def main(task_path, result_path):
    with open(task_path) as fh:
        task = json.load(fh)
    _load(task)
    from spinlayer.errors import ConfigError, SimulationError

    tracer = None
    if task["trace"]:
        from tracer import Tracer
        tracer = Tracer(task["layers"])
        tracer.install()
    result = {"exit": 0, "error": None}
    try:
        if task["kind"] in ("coupled", "llg_only"):
            run_in_process(task, result)
        else:
            result["exit"] = run_cli(task, result)
    except ConfigError as exc:
        result.update(exit=2, error=f"config: {exc}")
    except SimulationError as exc:
        result.update(exit=3, error=f"numeric: {exc}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        from tracer import summarize
        result["trace"] = {"loop": summarize(tracer.spans, within="dynamics.run"),
                           "processes": [summarize(tracer.spans)]}
        if task.get("dump_spans"):
            result["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
