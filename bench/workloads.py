"""Workload inputs (generated from the seed) and the correctness checks
applied to every timed run.

Inputs are spinlayer configuration texts; the program receives nothing
else.  Step counts follow from --seconds and a nominal step time, so the
same arguments always give the same inputs.
"""

# per workload: nominal ms/step (sets the step count), fresh-interpreter
# repetitions per benchmark run, ledger cadence
NOMINAL_STEP_MS = {"coupled": 60.0, "llg_only": 33.0, "cli": 70.0}
REPS = {"coupled": 3, "llg_only": 3, "cli": 1}
CADENCE = {"coupled": 1, "llg_only": 5, "cli": 1}
SETUP_REPEATS = {"coupled": 1, "llg_only": 5, "cli": 1}
DIAG_REPEATS = 7   # in-process post-run diagnostics (coupled, llg_only)
TINY_STEPS = {"coupled": 3, "llg_only": 10, "cli": 3}

# body cells (nx = ny, nz per slab) and Yee padding
SIZES = {
    "full": {"coupled": (16, 8, 8), "llg_only": (32, 16, 0), "cli": (16, 8, 8)},
    "tiny": {"coupled": (4, 4, 2), "llg_only": (4, 4, 0), "cli": (4, 4, 2)},
}

A_EXCH, ALPHA = 0.01, 1.0
CLI_DT = 0.012
CLI_PENALTY_K = 10.0

# acceptance caps (criteria 3 and 4) and the projected-mode saturation cap
DE_CAP = 1e-8
RESIDUAL_CAP = 1e-6
DRIFT_CAP = 1e-10
SATURATION_CAP = 1e-12

COLUMNS = ("t", "exchange", "anisotropy", "maxwell_h", "maxwell_e", "surf_anis",
           "superexch_q", "superexch_biq", "penalty", "total",
           "dissipation_integral", "ohmic_integral", "source_integral",
           "saturation_dev", "divergence_drift")
DIAG_COLUMNS = ("t", "exchange", "anisotropy", "maxwell_h", "maxwell_e",
                "surf_anis", "superexch_q", "superexch_biq", "penalty",
                "total", "saturation_dev", "divergence_drift")


def steps_for(workload, seconds, size):
    if size == "tiny":
        return TINY_STEPS[workload]
    cadence = CADENCE[workload]
    per_rep = seconds * 1000.0 / NOMINAL_STEP_MS[workload] / REPS[workload]
    return max(2, round(per_rep / cadence)) * cadence


def exchange_dt(n, nz):
    """Half the explicit exchange bound 0.25 h^2 alpha / (A (1 + alpha^2))."""
    h = min(1.0 / n, 0.5 / nz)
    return 0.5 * 0.25 * h * h * ALPHA / (A_EXCH * (1.0 + ALPHA**2))


def config_text(workload, seed, steps, size, outdir="out"):
    n, nz, padding = SIZES[size][workload]
    if workload == "cli":
        dt = CLI_DT
        t_end = steps * dt
        scheme = ("integrator = rk4\nconstraint = penalized\nbc_mode = thin_layer\n")
        extra_geometry = f"eta = {2 * 0.5 / nz!r}\n"
        bc = "mur1"
        current = f"pulse 0.5 0.2 0.0 {0.5 * t_end!r} {0.25 * t_end!r}"
        sigma, penalty, snaps = 10.0, CLI_PENALTY_K, "on"
    else:
        dt = exchange_dt(n, nz)
        scheme = "integrator = heun\nconstraint = projected\nbc_mode = sharp\n"
        extra_geometry = ""
        bc = "pec"
        current = "zero"
        sigma = 10.0 if workload == "coupled" else 0.0
        penalty, snaps = 0.0, "off"
    return (
        "[geometry]\n"
        f"lx = 1.0\nly = 1.0\nl_minus = 0.5\nl_plus = 0.5\n"
        f"nx = {n}\nny = {n}\nnz_minus = {nz}\nnz_plus = {nz}\n"
        f"{extra_geometry}"
        "[material]\n"
        f"a_exch = {A_EXCH!r}\nk_diag = 0.05 0.02 0.0\nks = 0.01\nj1 = 0.01\nj2 = 0.01\n"
        f"alpha = {ALPHA!r}\nsigma = {sigma!r}\npenalty_k = {penalty!r}\n"
        "[scheme]\n"
        f"dt = {dt!r}\n{scheme}subcycles = 8\n"
        "[maxwell]\n"
        f"padding = {max(padding, 1)}\nbc = {bc}\n"
        "[initial]\n"
        f"m = random {int(seed) % 2**31} 4.0\nh0 = magnetostatic\n"
        "[current]\n"
        f"f = {current}\n"
        "[output]\n"
        f"directory = {outdir}\ncadence = {CADENCE[workload]}\nsnapshots = {snaps}\n"
        "[run]\n"
        f"t_end = {steps * dt!r}\n"
    )


# ---------------------------------------------------------------------------
# checks: each returns (list of failure messages, informational margins)


def _col(rows, name):
    i = COLUMNS.index(name)
    return [r[i] for r in rows]


def _finite(rows):
    return all(v == v and abs(v) != float("inf") for r in rows for v in r)


def check_energy(rows, expect_rows, gate_de=True):
    """Energy caps on ledger rows: per-row increase <= 1e-8 E0 (checked only
    with `gate_de`; always reported) and the energy-inequality residual
    <= 1e-6 E0 at the last row."""
    fails = []
    if len(rows) != expect_rows:
        fails.append(f"expected {expect_rows} ledger rows, got {len(rows)}")
        return fails, {}
    if not _finite(rows):
        return ["non-finite ledger value"], {}
    total = _col(rows, "total")
    e0 = total[0]
    last = rows[-1]
    residual = (total[-1] + last[COLUMNS.index("dissipation_integral")]
                + last[COLUMNS.index("ohmic_integral")]
                + last[COLUMNS.index("source_integral")] - e0)
    max_de = max(b - a for a, b in zip(total, total[1:]))
    margins = {"check.max_dE_over_cap": max_de / (DE_CAP * e0),
               "check.residual_over_cap": residual / (RESIDUAL_CAP * e0),
               "check.drift": max(_col(rows, "divergence_drift")),
               "check.saturation_dev": max(_col(rows, "saturation_dev"))}
    if residual > RESIDUAL_CAP * e0:
        fails.append(f"energy-inequality residual {residual:.3e} > {RESIDUAL_CAP} E0")
    if gate_de and max_de > DE_CAP * e0:
        fails.append(f"per-row energy increase {max_de:.3e} > {DE_CAP} E0")
    if margins["check.drift"] > DRIFT_CAP:
        fails.append(f"divergence drift {margins['check.drift']:.3e} > {DRIFT_CAP}")
    return fails, margins


def check_in_process(workload, rows, steps):
    expect = steps // CADENCE[workload] + 1
    fails, margins = check_energy(rows, expect)
    if workload == "llg_only" and margins:
        if margins["check.saturation_dev"] > SATURATION_CAP:
            fails.append(f"saturation deviation {margins['check.saturation_dev']:.3e}"
                         f" > {SATURATION_CAP}")
    return fails, margins


def parse_csv(text):
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_cli(energy_csv, diag_csv, snapshot_count, steps):
    """Exit codes are checked by the caller; this checks the files.  The
    pulse current does work on the system, so the energy may rise between
    rows: the per-row increase is reported, not checked."""
    header, tokens = parse_csv(energy_csv)
    if tuple(header) != COLUMNS:
        return ["energy.csv header differs from the documented columns"], {}
    rows = [tuple(float(v) for v in row) for row in tokens]
    fails, margins = check_energy(rows, steps + 1, gate_de=False)
    dheader, dtokens = parse_csv(diag_csv)
    if tuple(dheader) != DIAG_COLUMNS or len(dtokens) != 1:
        fails.append("diag_report.csv has an unexpected layout")
    elif tokens:
        want = [tokens[-1][COLUMNS.index(c)] for c in DIAG_COLUMNS]
        if dtokens[0] != want:
            fails.append("diag_report.csv differs from the last energy.csv row")
    if snapshot_count != steps:
        fails.append(f"{snapshot_count} snapshots for {steps} steps")
    return fails, margins
