#!/usr/bin/env python3
"""Map where the energy inequality holds over random configs.

    python3 tools/sweep.py [--draws N] [--steps K]

Each draw is a config on a 4 x 4 x (n + n) body (l_minus = l_plus = 0.5,
a_exch = 0.01, k_diag = 0.05 0.02 0, dt = 0.002, stability_c = 0.45, a
ledger row every step, K steps; by default 80 draws of 100 steps) whose
other options are drawn uniformly and independently from `OPTIONS`.  It
goes through `parse_config`, `build_setup` and `dynamics.run`, as
`spinlayer run` would.  A draw the set-up refuses is counted by the rule
that refused it: the field and reason of its ValidationError (exit 2 in
the command line), or the type of its other error (exit 3).

An accepted draw is scored by Probe G's rules against criterion 3's cap
values (1e-8 and 1e-6 of |E0|):

    rise:     the largest per-row rise of E + dissipation + Ohmic + source,
              over 1e-8 |E0|;
    residual: the largest E + dissipation + Ohmic + source - E0 over the
              rows, over 1e-6 |E0|;

so a score above 1 breaks its cap.  The table gives, for each value of
each option, the draws accepted with it, the worst of each score and how
many broke a cap; a run that raises (a field that is not finite) is
counted as failed.  The draws depend on `SEED` alone.
"""

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spinlayer import dynamics  # noqa: E402
from spinlayer.config import build_setup, parse_config  # noqa: E402
from spinlayer.diagnostics import energy_inequality_residual  # noqa: E402
from spinlayer.errors import SimulationError, ValidationError  # noqa: E402

DT = 0.002
SEED = 1

# the option values, as config text; `layer` is the spacer mode and, for
# the thin layer, eta in cells of dz, `constraint` the mode and, when
# penalized, penalty_k
OPTIONS = {
    "n": ("2", "4"),
    "layer": ("sharp", "thin_layer 1", "thin_layer 2"),
    "constraint": ("projected", "penalized 1", "penalized 10", "penalized 100"),
    "integrator": ("heun", "rk4"),
    "subcycles": ("2", "4", "8"),
    "bc": ("pec", "mur1"),
    "padding": ("2", "4", "8"),
    "sigma": ("0", "5"),
    "alpha": ("0.1", "1"),
    "ks": ("0", "0.05", "-0.05"),
    "j1": ("0", "0.05", "-0.05", "0.5", "2"),
    "j2": ("0", "0.02", "-0.02"),
    "h0": ("magnetostatic", "uniform 0.1 -0.2 0.3"),
    "e0": ("zero", "uniform 0.05 -0.02 0.01"),
    "f": ("zero", "pulse 0.5 0.2 0 0.1 0.05"),
}

TEMPLATE = """[geometry]
lx = 1
ly = 1
l_minus = 0.5
l_plus = 0.5
nx = 4
ny = 4
nz_minus = {n}
nz_plus = {n}
{eta}
[material]
a_exch = 0.01
k_diag = 0.05 0.02 0
ks = {ks}
j1 = {j1}
j2 = {j2}
alpha = {alpha}
sigma = {sigma}
penalty_k = {penalty_k}

[scheme]
dt = {dt!r}
integrator = {integrator}
constraint = {constraint}
bc_mode = {bc_mode}
subcycles = {subcycles}
stability_c = 0.45

[maxwell]
padding = {padding}
bc = {bc}

[initial]
m = random {seed} 1
h0 = {h0}
e0 = {e0}

[current]
f = {f}

[output]
directory = unused

[run]
t_end = {t_end!r}
"""


def draw(rng: random.Random) -> dict:
    """One draw: a value of each option, and the seed of the random m."""
    choice = {name: rng.choice(values) for name, values in OPTIONS.items()}
    choice["seed"] = rng.randrange(1000)
    return choice


def config_text(choice: dict, steps: int) -> str:
    """The config of a draw, run for `steps` steps."""
    bc_mode, *eta_cells = choice["layer"].split()
    constraint, *penalty_k = choice["constraint"].split()
    eta = ""
    if eta_cells:
        eta = f"eta = {int(eta_cells[0]) * 0.5 / int(choice['n'])!r}\n"
    return TEMPLATE.format(**dict(choice, eta=eta, bc_mode=bc_mode, constraint=constraint,
                                  penalty_k=penalty_k[0] if penalty_k else "0", dt=DT,
                                  t_end=steps * DT))


def scores(rows) -> tuple:
    """(rise, residual) of a run's ledger rows, each over its cap."""
    e0 = abs(rows[0].breakdown.total)
    budget = [r.breakdown.total + r.dissipation + r.ohmic + r.source for r in rows]
    rise = max(b - a for a, b in zip(budget, budget[1:]))
    residual = max(energy_inequality_residual(rows[0], r) for r in rows)
    return rise / (1e-8 * e0), residual / (1e-6 * e0)


def run_draw(text: str):
    """("refused", rule), ("failed", error type) or ("scored", (rise,
    residual)) for one config text."""
    config = parse_config(text)
    try:
        setup = build_setup(config)
    except ValidationError as exc:
        return "refused", f"exit 2, {exc}"
    except SimulationError as exc:
        return "refused", f"exit 3, {type(exc).__name__}"
    rows = []
    try:
        with np.errstate(all="ignore"):   # non-finite values raise NonFinite
            dynamics.run(setup.geom, setup.params, setup.scheme, setup.m0, setup.em,
                         setup.f, config.t_end, on_row=rows.append)
    except SimulationError as exc:
        return "failed", type(exc).__name__
    return "scored", scores(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--draws", type=int, default=80)
    parser.add_argument("--steps", type=int, default=100)
    args = parser.parse_args(argv)
    if args.draws < 1 or args.steps < 1:
        parser.error("--draws and --steps must be at least 1")

    rng = random.Random(SEED)
    refused, failed = Counter(), Counter()
    table = {(name, value): [] for name, values in OPTIONS.items() for value in values}
    for _ in range(args.draws):
        choice = draw(rng)
        kind, result = run_draw(config_text(choice, args.steps))
        if kind == "refused":
            refused[result] += 1
            continue
        if kind == "failed":
            failed[result] += 1
        for name in OPTIONS:
            table[(name, choice[name])].append(result if kind == "scored" else None)

    print(f"sweep: {args.draws} draws (seed {SEED}), {args.steps} steps of dt {DT}")
    print(f"refused at load: {sum(refused.values())}")
    for rule, count in refused.most_common():
        print(f"  {count:3d}  {rule}")
    print(f"runs that raised: {sum(failed.values())}"
          + "".join(f", {count} {name}" for name, count in failed.most_common()))
    print(f"{'option':<11} {'value':<24} {'accepted':>8} {'rise/cap':>10} "
          f"{'resid/cap':>10} {'over cap':>8} {'raised':>6}")
    for (name, value), results in table.items():
        scored = [r for r in results if r is not None]
        rise = max((r[0] for r in scored), default=float("nan"))
        resid = max((r[1] for r in scored), default=float("nan"))
        over = sum(r[0] > 1.0 or r[1] > 1.0 for r in scored)
        print(f"{name:<11} {value:<24} {len(results):>8} {rise:>10.3g} {resid:>10.3g} "
              f"{over:>8} {len(results) - len(scored):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
