"""Time integration of the magnetization coupled to the Maxwell stepper.

Per cell the update solves the Gilbert-form equation

    alpha v + m x v = (1 + alpha^2) h_tot

in closed form, steps m explicitly (Heun by default), then advances the
electromagnetic state by one or more leapfrog substeps driven by the
realized magnetization rate (m_new - m_old)/dt.  Using the realized rate
keeps div(h + m_bar) conserved to roundoff in both constraint modes.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import maxwell
from .diagnostics import EnergyLedger, saturation_deviation
from .effective_field import (PENALIZED, PROJECTED, SHARP, THIN_LAYER,
                              FieldAssembly, assemble_h_tot)
from .energetics import MaterialParams, total_energy
from .errors import CFLViolation, NonFinite
from .geometry import DomainGeometry
from .maxwell import AppliedCurrent, EMState, fdtd_step, interp_h_to_cells
from .summation import esum

HEUN = "heun"
RK4 = "rk4"


@dataclass
class SchemeConfig:
    dt: float
    subcycles: int = 1
    integrator: str = HEUN
    constraint: str = PROJECTED
    bc_mode: str = SHARP
    stability_c: float = 0.25
    frozen_em: bool = False

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.subcycles < 1:
            raise ValueError("subcycles must be at least 1")
        if self.integrator not in (HEUN, RK4):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.constraint not in (PROJECTED, PENALIZED):
            raise ValueError(f"unknown constraint {self.constraint!r}")
        if self.bc_mode not in (SHARP, THIN_LAYER):
            raise ValueError(f"unknown bc_mode {self.bc_mode!r}")


def exchange_dt_bound(geom: DomainGeometry, params: MaterialParams,
                      c: float = 0.25) -> float:
    """Explicit-step bound c * dx_min^2 * alpha / (A (1 + alpha^2))."""
    if params.a_exch == 0.0:
        return np.inf
    h2 = min(geom.dx, geom.dy, geom.dz) ** 2
    return c * h2 * params.alpha / (params.a_exch * (1.0 + params.alpha**2))


def validate_stability(scheme: SchemeConfig, geom: DomainGeometry,
                       params: MaterialParams, box=None):
    bound = exchange_dt_bound(geom, params, scheme.stability_c)
    if scheme.dt > bound * (1.0 + 1e-12):
        raise CFLViolation(
            f"dt={scheme.dt:g} exceeds the exchange stability bound {bound:g}")
    if not scheme.frozen_em and box is not None:
        yee = maxwell.cfl_limit(box, params)
        if scheme.dt / scheme.subcycles > yee * (1.0 + 1e-12):
            raise CFLViolation(
                f"dt/subcycles={scheme.dt / scheme.subcycles:g} exceeds the "
                f"Yee bound {yee:g}; raise subcycles")


def gilbert_solve(m: np.ndarray, F: np.ndarray, alpha: float) -> np.ndarray:
    """Unique solution v of alpha v + m x v = F (closed form).

    Valid for any m (unit norm not required); alpha must be positive.
    """
    m = np.asarray(m, dtype=float)
    F = np.asarray(F, dtype=float)
    mxF = np.cross(m, F)
    mdF = np.sum(m * F, axis=-1, keepdims=True)
    m2 = np.sum(m * m, axis=-1, keepdims=True)
    return (alpha**2 * F - alpha * mxF + mdF * m) / (alpha * (alpha**2 + m2))


@dataclass
class SimState:
    t: float
    m: np.ndarray
    em: Optional[EMState]
    geom: DomainGeometry
    params: MaterialParams
    scheme: SchemeConfig
    h_cells_frozen: Optional[np.ndarray] = None

    def __post_init__(self):
        if not np.isfinite(self.m).all():
            raise NonFinite("initial magnetization is not finite")
        if self.scheme.frozen_em and self.h_cells_frozen is None:
            self.h_cells_frozen = self._interp_h()

    def _interp_h(self) -> np.ndarray:
        if self.em is None:
            return np.zeros(self.geom.field_shape())
        return interp_h_to_cells(self.em, self.geom)

    def h_cells(self) -> np.ndarray:
        if self.scheme.frozen_em:
            return self.h_cells_frozen
        return self._interp_h()

    def energy(self) -> "object":
        return total_energy(self.m, self.em, self.geom, self.params,
                            bc_mode=self.scheme.bc_mode,
                            constraint=self.scheme.constraint)


def llg_rhs(m: np.ndarray, h_cells: np.ndarray, geom: DomainGeometry,
            params: MaterialParams, scheme: SchemeConfig) -> np.ndarray:
    """Magnetization rate of the Gilbert-form system at frozen h.

    Penalized mode returns the raw inversion (the doubly penalized flow
    is genuinely unconstrained; the penalty controls the norm).  In
    projected mode the component along m is removed: on the constraint
    that component vanishes identically and the tangential part is the
    Landau-Lifshitz form -m x h_tot - alpha m x (m x h_tot), so dropping
    it realizes the constrained system and keeps the integrator at its
    nominal order.
    """
    assembly = FieldAssembly(mode=scheme.bc_mode, constraint=scheme.constraint,
                             h_field=h_cells)
    F = (1.0 + params.alpha**2) * assemble_h_tot(m, geom, params, assembly)
    v = gilbert_solve(m, F, params.alpha)
    if scheme.constraint == PROJECTED:
        m2 = np.sum(m * m, axis=-1, keepdims=True)
        v = v - (np.sum(v * m, axis=-1, keepdims=True) / np.maximum(m2, 1e-300)) * m
    return v


def _renormalize(m: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.sum(m * m, axis=-1, keepdims=True))
    if not np.isfinite(norms).all() or np.any(norms == 0.0):
        raise NonFinite("renormalization hit a zero or non-finite cell")
    return m / norms


def _advance_m(m, h_cells, dt, geom, params, scheme):
    def rhs(mm):
        return llg_rhs(mm, h_cells, geom, params, scheme)

    if scheme.integrator == HEUN:
        k1 = rhs(m)
        k2 = rhs(m + dt * k1)
        return m + (0.5 * dt) * (k1 + k2)
    k1 = rhs(m)
    k2 = rhs(m + (0.5 * dt) * k1)
    k3 = rhs(m + (0.5 * dt) * k2)
    k4 = rhs(m + dt * k3)
    return m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _midpoint_h_cells(state: SimState, m_dot_pred: np.ndarray) -> np.ndarray:
    """Predicted Maxwell h at the step midpoint, on magnetization cells.

    Freezing h at its stage-begin value injects (dt^2/2)|R^T m_dot|^2 of
    spurious electromagnetic energy per step, a sign-definite O(dt)
    fraction of the dissipated energy that swamps the energy-inequality
    diagnostic.  Centering the Zeeman coupling with an explicit predictor
    reduces the coupling error to O(dt^3) per step at the cost of one
    extra field evaluation; divergence bookkeeping is unaffected because
    the h update still uses the realized rate.
    """
    em = state.em
    dt = state.scheme.dt
    box = em.box
    chx, chy, chz = maxwell.curl_e(em.ex, em.ey, em.ez, box)
    mdx, mdy, mdz = maxwell.cells_to_faces(
        maxwell.embed_cell_field(m_dot_pred, box), box)
    half = 0.5 * dt
    hx = em.hx - (half / state.params.mu0) * chx - half * mdx
    hy = em.hy - (half / state.params.mu0) * chy - half * mdy
    hz = em.hz - (half / state.params.mu0) * chz - half * mdz
    return maxwell.faces_to_cells(hx, hy, hz)[box.body_slices()]


def step(state: SimState, accum: Optional[dict] = None,
         f: Optional[AppliedCurrent] = None) -> SimState:
    """Advance the coupled state by one dt (in place)."""
    scheme = state.scheme
    geom, params = state.geom, state.params
    dt = scheme.dt
    h_cells = state.h_cells()

    m = state.m
    if scheme.frozen_em or state.em is None:
        m_new = _advance_m(m, h_cells, dt, geom, params, scheme)
    else:
        m_pred = _advance_m(m, h_cells, dt, geom, params, scheme)
        h_mid = _midpoint_h_cells(state, (m_pred - m) / dt)
        m_new = _advance_m(m, h_mid, dt, geom, params, scheme)

    if not np.isfinite(m_new).all():
        raise NonFinite(f"magnetization became non-finite at t={state.t:g}")
    if scheme.constraint == PROJECTED:
        m_new = _renormalize(m_new)

    m_dot_eff = (m_new - m) / dt
    if not scheme.frozen_em and state.em is not None:
        box = state.em.box
        # the realized rate is constant over the step: transfer it once
        m_dot_faces = None
        if np.any(m_dot_eff):
            m_dot_faces = maxwell.cells_to_faces(
                maxwell.embed_cell_field(m_dot_eff, box), box)
        dt_sub = dt / scheme.subcycles
        no_current = np.zeros(3)
        for i in range(scheme.subcycles):
            t_mid = state.t + (i + 0.5) * dt_sub
            f_val = f.value(t_mid) if f is not None else no_current
            fdtd_step(state.em, m_dot_faces, f_val, params, dt_sub, accum)
        state.em.assert_finite()

    if accum is not None:
        alpha = params.alpha
        accum["dissipation"] += (dt * alpha / (1.0 + alpha**2)
                                 * geom.cell_volume * esum(m_dot_eff * m_dot_eff))
    state.m = m_new
    state.t += dt
    return state


@dataclass
class Trajectory:
    """In-memory result of a run: ledger rows plus optional field samples."""

    ledger: EnergyLedger
    sample_times: list = field(default_factory=list)
    m_samples: list = field(default_factory=list)
    h_cell_samples: list = field(default_factory=list)
    em_samples: list = field(default_factory=list)   # (h faces, e edges) tuples
    final_state: Optional[SimState] = None

    @property
    def dt_sample(self) -> float:
        if len(self.sample_times) < 2:
            raise ValueError("need at least two stored samples")
        return self.sample_times[1] - self.sample_times[0]


def run(geom: DomainGeometry, params: MaterialParams, scheme: SchemeConfig,
        m0: np.ndarray, em: Optional[EMState], f: Optional[AppliedCurrent],
        t_end: float, log_every: int = 1, keep_fields: bool = False,
        sample_every: Optional[int] = None,
        on_row: Optional[Callable] = None,
        on_state: Optional[Callable] = None) -> Trajectory:
    """Run the coupled system to t_end and collect diagnostics.

    A ledger row is recorded at t=0, every log_every-th step, and at the
    final step.  With keep_fields=True, field snapshots (m, cell h, and
    the raw electromagnetic arrays) are kept at the same cadence unless
    sample_every overrides it.  on_row receives each ledger row as it is
    produced, for streaming output.
    """
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    box = em.box if em is not None else None
    validate_stability(scheme, geom, params, box)
    state = SimState(t=0.0, m=m0.copy(), em=em, geom=geom, params=params,
                     scheme=scheme)
    if em is not None and em.div0 is None:
        maxwell.record_div0(em, state.m, geom)

    n_steps = int(round(t_end / scheme.dt)) if t_end > 0 else 0
    if sample_every is None:
        sample_every = log_every

    ledger = EnergyLedger()
    traj = Trajectory(ledger=ledger)
    accum = {"dissipation": 0.0, "ohmic": 0.0, "source": 0.0}

    def record(step_idx: int):
        breakdown = state.energy()
        drift = (maxwell.divergence_drift(state.em, state.m, geom)
                 if state.em is not None else 0.0)
        row = ledger.append(
            t=state.t, breakdown=breakdown,
            dissipation=accum["dissipation"], ohmic=accum["ohmic"],
            source=accum["source"],
            saturation_dev=saturation_deviation(state.m),
            divergence_drift=drift)
        if on_row is not None:
            on_row(row)

    def sample():
        traj.sample_times.append(state.t)
        traj.m_samples.append(state.m.copy())
        traj.h_cell_samples.append(state.h_cells().copy())
        if state.em is not None:
            traj.em_samples.append(
                ((state.em.hx.copy(), state.em.hy.copy(), state.em.hz.copy()),
                 (state.em.ex.copy(), state.em.ey.copy(), state.em.ez.copy())))

    record(0)
    if keep_fields:
        sample()
    if on_state is not None:
        on_state(state, 0)
    for n in range(1, n_steps + 1):
        step(state, accum, f)
        logged = n % log_every == 0 or n == n_steps
        if logged:
            record(n)
        if keep_fields and (n % sample_every == 0 or n == n_steps):
            sample()
        if on_state is not None and logged:
            on_state(state, n)
    traj.final_state = state
    return traj
