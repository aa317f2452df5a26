"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured numbers once its assertions hold (run with -s to see
the lines for passing tests).

The long coupled runs are module-scoped fixtures: criteria 3 and 4
share one, and criterion 7 shares its run with the `relax` oracle.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from spinlayer import maxwell as mx
from spinlayer.cli import main as cli_main
from spinlayer.diagnostics import (energy_inequality_residual,
                                   omega_limit_field, omega_limit_field_cells)
from spinlayer.diagnostics import test_function_library as fn_library
from spinlayer.dynamics import (PENALIZED, PROJECTED, SHARP, THIN_LAYER, SchemeConfig,
                                SimState, exchange_dt_bound, llg_rhs, run, step)
from spinlayer.effective_field import assemble_h_tot
from spinlayer.energetics import (MaterialParams, _vector_field, anisotropy_energy,
                                  exchange_energy, penalty_energy,
                                  thin_layer_energy, total_energy, uniform_k_matrix)
from spinlayer.geometry import GeometryConfig, build_geometry
from spinlayer.presets import random_unit_m

from conftest import (box_divergence, fd_gradient, relax, sharp_geom, spacer_oracle,
                      stationarity_residual, workspace_curl)


def report(num, name, detail):
    print(f"ACCEPTANCE {num} [{name}]: PASS ({detail})", flush=True)


# ---------------------------------------------------------------------------
# 1. Gilbert inversion


def test_criterion_1_gilbert_inversion():
    n = 100_000
    rng = np.random.default_rng(2024)
    m = 2.0 * (2.0 * rng.random((n, 3)) - 1.0)
    F = 1e3 * (2.0 * rng.random((n, 3)) - 1.0)
    alpha = 10.0 ** rng.uniform(-2, 1, n)  # [0.01, 10]

    t0 = time.time()
    # vectorized closed form, grouped by alpha via the identity directly
    mxF = np.cross(m, F)
    mdF = np.sum(m * F, axis=-1)
    m2 = np.sum(m * m, axis=-1)
    v = ((alpha**2)[:, None] * F - alpha[:, None] * mxF
         + (mdF / 1.0)[:, None] * m) / (alpha * (alpha**2 + m2))[:, None]
    elapsed = time.time() - t0
    resid = np.linalg.norm(alpha[:, None] * v + np.cross(m, v) - F, axis=-1)
    bound = 1e-12 * (1.0 + np.linalg.norm(F, axis=-1))
    assert np.all(resid <= bound)

    # the stepper's own rate: llg_rhs on a 1000-cell field with every
    # energy term off, so that h_tot = h and its Gilbert right-hand side is
    # F = (1 + alpha^2) h; norms of m up to 2 sqrt(3) and one zero cell
    geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 10, 10, 5, 5))
    shape = geom.field_shape()
    mc = m[:1000].reshape(shape).copy()
    mc[0, 0, 0] = 0.0
    h = F[:1000].reshape(shape)
    m_major = _vector_field(shape)
    np.copyto(m_major, mc)
    m2 = np.sum(mc * mc, axis=-1)
    worst = {PENALIZED: 0.0, PROJECTED: 0.0}
    for a in (0.01, 0.37, 10.0):
        params = MaterialParams(a_exch=0.0, k_matrix=None, ks=0.0, j1=0.0, j2=0.0,
                                alpha=a)
        Fa = (1.0 + a**2) * h
        Fa_norm = np.linalg.norm(Fa, axis=-1)
        # projected: the right-hand side less its part along m (none at m = 0)
        along = np.sum(mc * Fa, axis=-1) / np.where(m2 > 0.0, m2, 1.0)
        want = {PENALIZED: Fa, PROJECTED: Fa - along[..., None] * mc}
        cap = 1e-12 * (1.0 + Fa_norm)
        for layout in (mc, m_major):
            for constraint in (PENALIZED, PROJECTED):
                rate = llg_rhs(layout, h, geom, params,
                               SchemeConfig(dt=1.0, constraint=constraint))
                rr = np.linalg.norm(a * rate + np.cross(mc, rate) - want[constraint],
                                    axis=-1)
                assert np.all(rr <= cap)
                worst[constraint] = max(worst[constraint], np.max(rr / cap))
                if constraint == PROJECTED:
                    # |v| <= |F| / alpha for the Gilbert solution and its projection
                    mv = np.abs(np.sum(mc * rate, axis=-1))
                    assert np.all(mv <= 1e-14 * np.sqrt(m2) * Fa_norm / a)

    # direct 3x3 solve oracle on a subsample
    eye = np.eye(3)
    for i in range(0, n, n // 200):
        mm = m[i]
        cm = np.array([[0, -mm[2], mm[1]], [mm[2], 0, -mm[0]], [-mm[1], mm[0], 0]])
        vo = np.linalg.solve(alpha[i] * eye + cm, F[i])
        assert np.linalg.norm(v[i] - vo) <= 1e-12 * (1.0 + np.linalg.norm(vo))
    assert elapsed < 1.0
    report(1, "gilbert inversion",
           f"worst residual ratio {np.max(resid / bound):.2e}, {elapsed * 1e3:.0f} ms; "
           f"llg_rhs penalized {worst[PENALIZED]:.2e}, projected {worst[PROJECTED]:.2e}")


# ---------------------------------------------------------------------------
# 2. Variational consistency


def test_criterion_2_variational_consistency():
    t0 = time.time()
    geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 8, 8, 4, 4, eta=0.25))
    rng = np.random.default_rng(77)
    kraw = rng.standard_normal((3, 3))
    params = MaterialParams(a_exch=0.7, k_matrix=uniform_k_matrix(kraw @ kraw.T, geom),
                            ks=0.3, j1=0.3, j2=0.3, alpha=1.0, penalty_k=1.5)
    m = rng.standard_normal(geom.field_shape())
    m /= np.linalg.norm(m, axis=-1, keepdims=True)

    def thin_energy(mm):
        return (exchange_energy(mm, geom, params) + anisotropy_energy(mm, geom, params)
                + math.fsum(thin_layer_energy(mm, geom, params))
                + penalty_energy(mm, geom, params))

    field = assemble_h_tot(m, None, geom, params)
    ref = -fd_gradient(thin_energy, m) / geom.cell_volume
    rel_thin = (np.linalg.norm(field - ref, axis=-1)
                / (1.0 + np.linalg.norm(ref, axis=-1))).max()
    assert rel_thin < 1e-6

    def sharp_energy(mm):
        # closed-form spacer integrals of the adjacent-cell traces
        return (exchange_energy(mm, geom, params) + anisotropy_energy(mm, geom, params)
                + sum(spacer_oracle(mm, geom, params)))

    field_s = assemble_h_tot(m, None, sharp_geom(geom), params)
    ref_s = -fd_gradient(sharp_energy, m) / geom.cell_volume

    def tangential(v):
        return v - np.sum(v * m, axis=-1, keepdims=True) * m

    # on unit fields the sharp field must match the energy gradient in the
    # tangent space, where projected runs use it
    rel_sharp = (np.linalg.norm(tangential(field_s) - tangential(ref_s), axis=-1)
                 / (1.0 + np.linalg.norm(ref_s, axis=-1))).max()
    assert rel_sharp < 1e-6
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(2, "variational consistency",
           f"thin-layer {rel_thin:.2e}, sharp tangential {rel_sharp:.2e}, "
           f"{elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 3 + 4. Energy inequality and divergence propagation (shared runs)


ENERGY_RUN_STEPS = 2000


@pytest.fixture(scope="module")
def energy_runs():
    geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 16, 16, 8, 8))
    results = {}
    for sigma in (0.0, 10.0):
        params = MaterialParams(
            a_exch=0.01,
            k_matrix=uniform_k_matrix(np.diag([0.05, 0.02, 0.0]), geom),
            ks=0.01, j1=0.01, j2=0.01, alpha=1.0, sigma=sigma)
        dt = 0.5 * exchange_dt_bound(geom, params)
        scheme = SchemeConfig(dt=dt, subcycles=8, integrator="heun",
                              constraint=PROJECTED, bc_mode=SHARP)
        m0 = random_unit_m(geom, seed=1234, smooth_cells=4.0)
        box = mx.make_box(geom, padding=8)
        em = mx.empty_em_state(box)  # PEC
        mx.init_divfree(m0, (0.0, 0.0, 0.0), box, out=em.h)
        rows = []
        t0 = time.time()
        run(geom, params, scheme, m0, em, None, t_end=ENERGY_RUN_STEPS * dt,
            log_every=1, on_row=rows.append)
        results[sigma] = (rows, time.time() - t0)
    return results


def test_criterion_3_energy_inequality(energy_runs):
    details = []
    total_time = 0.0
    for sigma, (rows, elapsed) in energy_runs.items():
        total_time += elapsed
        totals = np.array([r.breakdown.total for r in rows])
        e0 = totals[0]
        worst_increase = float(np.diff(totals).max())
        assert worst_increase <= 1e-8 * e0, f"sigma={sigma}"
        resid = energy_inequality_residual(rows[0], rows[-1])
        assert resid <= 1e-6 * e0, f"sigma={sigma}"
        details.append(f"sigma={sigma:g}: max dE {worst_increase:.1e} "
                       f"(cap {1e-8 * e0:.1e}), residual {resid:.1e} "
                       f"(cap {1e-6 * e0:.1e})")
    assert total_time < 300.0
    report(3, "energy inequality", "; ".join(details) + f"; {total_time:.0f} s")


def test_criterion_4_divergence_propagation(energy_runs):
    drifts = []
    for sigma, (rows, _) in energy_runs.items():
        drift = rows[-1].divergence_drift
        assert drift <= 1e-10, f"sigma={sigma}"
        drifts.append(f"sigma={sigma:g}: {drift:.1e}")
    report(4, "divergence propagation", "; ".join(drifts))


# ---------------------------------------------------------------------------
# 5. Penalization limit


def test_criterion_5_penalization_limit():
    geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 2, 2))
    base = dict(a_exch=0.02,
                k_matrix=uniform_k_matrix(np.diag([0.1, 0.05, 0.0]), geom),
                ks=0.05, j1=0.05, j2=0.02, alpha=1.0)
    box = mx.make_box(geom, padding=4)
    em0 = mx.empty_em_state(box)
    em0.hx[...] = 0.2
    em0.hy[...] = 0.1
    m0 = random_unit_m(geom, seed=3, smooth_cells=1.0)
    dt, t_end = 2e-5, 0.2

    h_fixed = mx.interp_h_to_cells(em0)
    proj = run(geom, MaterialParams(**base),
               SchemeConfig(dt=dt, constraint=PROJECTED, bc_mode=SHARP),
               m0, None, None, t_end, log_every=1000, h_fixed=h_fixed)
    m_proj = proj.final_state.m

    sats, gaps = [], []
    for k in (1e2, 1e3, 1e4):
        rows = []
        traj = run(geom, MaterialParams(penalty_k=k, **base),
                   SchemeConfig(dt=dt, constraint=PENALIZED, bc_mode=SHARP),
                   m0, None, None, t_end, log_every=50, on_row=rows.append,
                   h_fixed=h_fixed)
        sats.append(max(r.saturation_dev for r in rows))
        gaps.append(float(np.sqrt(np.sum((traj.final_state.m - m_proj) ** 2)
                                  * geom.cell_volume)))
    assert sats[0] > sats[1] > sats[2]
    assert gaps[0] > gaps[1] > gaps[2]
    report(5, "penalization limit",
           f"saturation dev {[f'{s:.1e}' for s in sats]}, "
           f"gap to projected {[f'{g:.1e}' for g in gaps]}")


# ---------------------------------------------------------------------------
# 6. Thin-layer limit


def test_criterion_6_thin_layer_limit():
    b, c = 0.8, 0.4
    ks, j1, j2 = 0.3, 0.4, 0.25
    nz = 8

    def smooth_profile(geom):
        z = geom.z_centers()
        ang = b * z + c * np.sign(z)
        m = np.zeros(geom.field_shape())
        m[..., 0] = np.cos(ang)
        m[..., 1] = np.sin(ang)
        return m

    # closed-form sharp limit for the in-plane unit profile, |spacer| = 1
    e_sharp = ks + 2 * j1 * math.sin(c) ** 2 + j2 * math.sin(2 * c) ** 2
    gaps, etas = [], []
    for mult in (4, 2, 1):
        eta = mult * 0.5 / nz
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, nz, nz, eta=eta))
        params = MaterialParams(a_exch=0.02, k_matrix=None, ks=ks, j1=j1, j2=j2,
                                alpha=1.0)
        gaps.append(abs(math.fsum(thin_layer_energy(smooth_profile(geom), geom, params))
                        - e_sharp))
        etas.append(eta)
    assert gaps[0] > gaps[1] > gaps[2]
    slope = float(np.polyfit(np.log(etas), np.log(gaps), 1)[0])
    assert 0.7 <= slope <= 1.3

    # trajectory gap to the sharp-condition run shrinks with eta
    params = MaterialParams(a_exch=0.02,
                            k_matrix=None, ks=ks, j1=j1, j2=j2, alpha=1.0)

    def m0_of(geom):
        m = smooth_profile(geom)
        x = (np.arange(geom.nx) + 0.5) * geom.dx
        m[..., 2] += 0.2 * np.sin(np.pi * x)[:, None, None]
        return m / np.linalg.norm(m, axis=-1, keepdims=True)

    geom0 = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, nz, nz))
    box = mx.make_box(geom0, padding=4)
    em0 = mx.empty_em_state(box)
    em0.hx[...] = 0.1
    em0.hz[...] = 0.05
    dt, t_end = 5e-4, 0.2
    h_fixed = mx.interp_h_to_cells(em0)
    sharp = run(geom0, params, SchemeConfig(dt=dt, constraint=PROJECTED, bc_mode=SHARP),
                m0_of(geom0), None, None, t_end, log_every=100, h_fixed=h_fixed)
    traj_gaps = []
    for mult in (4, 2, 1):
        geom_eta = build_geometry(
            GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, nz, nz, eta=mult * 0.5 / nz))
        tl = run(geom_eta, params,
                 SchemeConfig(dt=dt, constraint=PROJECTED, bc_mode=THIN_LAYER),
                 m0_of(geom_eta), None, None, t_end, log_every=100, h_fixed=h_fixed)
        traj_gaps.append(float(np.sqrt(
            np.sum((tl.final_state.m - sharp.final_state.m) ** 2)
            * geom0.cell_volume)))
    assert traj_gaps[0] > traj_gaps[1] > traj_gaps[2]
    report(6, "thin-layer limit",
           f"energy gap slope {slope:.2f}, gaps {[f'{g:.1e}' for g in gaps]}, "
           f"trajectory gaps {[f'{g:.1e}' for g in traj_gaps]}")


# ---------------------------------------------------------------------------
# 7. Omega-limit probe


@pytest.fixture(scope="module")
def omega_limit_run():
    """Criterion 7's input (body 8x8x(4+4), PEC box of padding 12, seed 7,
    smoothing 2), its initial h on the body cells and the final state of
    its 9000-step coupled run."""
    geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 8, 8, 4, 4))
    params = MaterialParams(a_exch=0.01,
                            k_matrix=uniform_k_matrix(np.diag([0.2, 0.1, 0.0]), geom),
                            ks=0.05, j1=0.05, j2=0.02, alpha=1.0, sigma=5.0)
    dt = 0.5 * exchange_dt_bound(geom, params)
    box = mx.make_box(geom, padding=12)
    sub = int(np.ceil(dt / mx.cfl_limit(box, params)))
    scheme = SchemeConfig(dt=dt, subcycles=sub, constraint=PROJECTED, bc_mode=SHARP)
    m0 = random_unit_m(geom, seed=7, smooth_cells=2.0)
    em = mx.empty_em_state(box)
    mx.init_divfree(m0, (0.0, 0.0, 0.0), box, out=em.h)
    h0_cells = mx.interp_h_to_cells(em)
    traj = run(geom, params, scheme, m0, em, None, t_end=9000 * dt, log_every=500)
    return SimpleNamespace(geom=geom, params=params, scheme=scheme, box=box, m0=m0,
                           h0_cells=h0_cells, final=traj.final_state)


def test_criterion_7_omega_limit_probe(omega_limit_run):
    r = omega_limit_run
    geom, params, scheme, box, m0 = r.geom, r.params, r.scheme, r.box, r.m0
    lib = fn_library(geom)

    r0 = stationarity_residual(m0, omega_limit_field_cells(m0, box, geom),
                               params, geom, lib)
    n0 = float(np.sqrt(np.sum(
        llg_rhs(m0, r.h0_cells, geom, params, scheme) ** 2)
        * geom.cell_volume))

    mT = r.final.m
    rT = stationarity_residual(mT, omega_limit_field_cells(mT, box, geom),
                               params, geom, lib)
    nT = float(np.sqrt(np.sum(
        llg_rhs(mT, mx.interp_h_to_cells(r.final.em),
                geom, params, scheme) ** 2) * geom.cell_volume))

    assert rT <= 1e-2 * r0
    assert nT <= 1e-4 * n0

    H = omega_limit_field(mT, box)
    curl = workspace_curl(mx.EMState(box, np.zeros_like(H), H), False)
    curl_max = float(np.abs(curl).max())
    assert curl_max <= 1e-12
    div_max = float(np.abs(box_divergence(H, mT, box)).max())
    assert div_max <= 1e-10
    report(7, "omega-limit probe",
           f"residual {r0:.2e} -> {rT:.2e} (ratio {rT / r0:.1e}), "
           f"|m_t| ratio {nT / n0:.1e}, curl {curl_max:.1e}, div {div_max:.1e}")


def reduced_energy(m, box, geom, params):
    """The energy with e = 0 and h the omega-limit field of m, whose
    negative gradient per cell volume is
    assemble_h_tot(m, omega_limit_field_cells(m))."""
    em = mx.empty_em_state(box)
    omega_limit_field(m, box, out=em.h)
    return total_energy(m, em, geom, params).total


def test_relax_finds_a_critical_point_no_higher_than_the_run(omega_limit_run):
    # ROADMAP 13(b): a minimiser on the sphere reaches the critical points
    # criterion 7 approaches in 9000 steps.  The run's end state and the
    # relaxed one may be mirror images, so their energies are compared
    r = omega_limit_run
    geom, params, box = r.geom, r.params, r.box

    def field(m):
        return assemble_h_tot(m, omega_limit_field_cells(m, box, geom), geom, params)

    def residual(m):
        return stationarity_residual(m, omega_limit_field_cells(m, box, geom),
                                     params, geom, fn_library(geom))

    t0 = time.perf_counter()
    m, evals = relax(r.m0, field, 300)
    elapsed = time.perf_counter() - t0
    ratio = residual(m) / residual(r.m0)
    assert ratio <= 1e-10
    assert elapsed <= 3.0
    energy, energy_run = (reduced_energy(u, box, geom, params) for u in (m, r.final.m))
    assert energy <= energy_run
    print(f"relax: stationarity ratio {ratio:.1e} after {evals} field evaluations "
          f"in {elapsed:.2f} s; reduced energy {energy!r}, the run's end {energy_run!r}")


# ---------------------------------------------------------------------------
# 8. Single-spin oracle


def test_criterion_8_single_spin_oracle():
    geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 1, 1, 1, 1))
    alpha = 0.2
    params = MaterialParams(a_exch=0.0, k_matrix=None, ks=0.0, j1=0.0, j2=0.0,
                            alpha=alpha)
    h = np.array([0.0, 0.3, 1.0])
    box = mx.make_box(geom, padding=2)
    em = mx.empty_em_state(box)
    em.hx[...] = h[0]
    em.hy[...] = h[1]
    em.hz[...] = h[2]
    m0 = np.zeros(geom.field_shape())
    m0[..., 0] = 1.0

    sol = solve_ivp(
        lambda t, y: -np.cross(y, h) - alpha * np.cross(y, np.cross(y, h)),
        (0.0, 1.0), m0[0, 0, 0], rtol=1e-12, atol=1e-14, dense_output=True)

    errs = {}
    for dt in (4e-4, 2e-4, 1e-4):
        scheme = SchemeConfig(dt=dt, constraint=PROJECTED, bc_mode=SHARP)
        state = SimState(t=0.0, m=m0.copy(), em=None, geom=geom, params=params,
                         scheme=scheme, h_fixed=mx.interp_h_to_cells(em))
        worst = 0.0
        for _ in range(int(round(1.0 / dt))):
            step(state)
            worst = max(worst, float(np.linalg.norm(
                state.m[0, 0, 0] - sol.sol(state.t))))
        errs[dt] = worst
    assert errs[1e-4] <= 1e-6
    order = math.log(errs[4e-4] / errs[1e-4]) / math.log(4.0)
    assert order >= 1.9
    report(8, "single-spin oracle",
           f"max error {errs[1e-4]:.2e} at dt=1e-4, Heun order {order:.3f}")


# ---------------------------------------------------------------------------
# 9. Determinism


CONFIG_TEMPLATE = """
[geometry]
lx = 1.0
ly = 1.0
l_minus = 0.5
l_plus = 0.5
nx = 8
ny = 8
nz_minus = 4
nz_plus = 4
eta = 0.25

[material]
a_exch = 0.01
alpha = 1.0
ks = 0.03
j1 = 0.02
j2 = 0.01
sigma = 2.0
penalty_k = 100.0

[scheme]
dt = 0.004
constraint = penalized
bc_mode = thin_layer
subcycles = 2

[maxwell]
padding = 4

[initial]
m = random 5
h0 = magnetostatic

[output]
directory = {outdir}

[run]
t_end = 0.2
seed = 5
"""


def test_criterion_9_determinism(tmp_path):
    payloads = []
    for name in ("first", "second"):
        outdir = tmp_path / name
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(outdir=outdir))
        assert cli_main(["run", str(cfg)]) == 0
        payloads.append((outdir / "energy.csv").read_bytes())
    assert payloads[0] == payloads[1]
    rows = len(payloads[0].splitlines()) - 1
    report(9, "determinism",
           f"two runs, {rows} ledger rows, byte-identical energy.csv")
