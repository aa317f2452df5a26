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
from .effective_field import assemble_h_tot
from .energetics import (MaterialParams, _dot, _scalars, _store, _vector_copy,
                         _vector_field, total_energy)
from .errors import CFLViolation, NonFinite
from .geometry import DomainGeometry
from .maxwell import AppliedCurrent, EMState
from .summation import dot

HEUN = "heun"
RK4 = "rk4"
INTEGRATORS = (HEUN, RK4)
PROJECTED = "projected"
PENALIZED = "penalized"
CONSTRAINTS = (PROJECTED, PENALIZED)
# the spacer layer is the geometry's (`DomainGeometry.layer_cells`); the
# scheme's bc_mode only names it, and a state checks that it agrees
SHARP = "sharp"
THIN_LAYER = "thin_layer"
BC_MODES = (SHARP, THIN_LAYER)


@dataclass
class SchemeConfig:
    dt: float
    subcycles: int = 1
    integrator: str = HEUN
    constraint: str = PROJECTED
    bc_mode: str = SHARP
    stability_c: float = 0.25

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.subcycles < 1:
            raise ValueError("subcycles must be at least 1")
        for name, options in (("integrator", INTEGRATORS),
                              ("constraint", CONSTRAINTS), ("bc_mode", BC_MODES)):
            if getattr(self, name) not in options:
                raise ValueError(f"unknown {name} {getattr(self, name)!r} "
                                 f"(choose from {options})")


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
    if box is not None:
        yee = maxwell.cfl_limit(box, params)
        if scheme.dt / scheme.subcycles > yee * (1.0 + 1e-12):
            raise CFLViolation(
                f"dt/subcycles={scheme.dt / scheme.subcycles:g} exceeds the "
                f"Yee bound {yee:g}; raise subcycles")


class _Workspace:
    """Preallocated buffers of one SimState's LLG stages.

    `k` holds the stage rates (two for Heun, four for RK4), `m_stage` the
    stage magnetization, `m_next` the two buffers a step's new m
    alternates between and `tmp` the scratch of `llg_rhs` and of the
    ledger row; the fields are component-major, like the state's m.
    """

    def __init__(self, shape: tuple, stages: int):
        self.k = [_vector_field(shape) for _ in range(stages)]
        self.m_stage = _vector_field(shape)
        self.m_next = (_vector_field(shape), _vector_field(shape))
        self.tmp = np.empty(3 * int(np.prod(shape)))


@dataclass
class SimState:
    """The stepped state: m (a component-major copy the state owns), the
    Maxwell state em or a fixed cell field h_fixed (at most one), and the
    dissipation, Ohmic and source integrals of the steps taken.  The
    scheme's bc_mode must name the geometry's spacer layer."""

    t: float
    m: np.ndarray
    em: Optional[EMState]
    geom: DomainGeometry
    params: MaterialParams
    scheme: SchemeConfig
    h_fixed: Optional[np.ndarray] = None
    n: int = 0   # steps taken
    dissipation: float = 0.0
    ohmic: float = 0.0
    source: float = 0.0
    work: Optional[_Workspace] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        layer = SHARP if self.geom.eta is None else THIN_LAYER
        if self.scheme.bc_mode != layer:
            raise ValueError(f"bc_mode {self.scheme.bc_mode!r} does not name the "
                             f"geometry's spacer layer, {layer!r}")
        self.m = _vector_copy(self.m)
        if not np.isfinite(self.m).all():
            raise NonFinite("initial magnetization is not finite")
        if self.em is not None and self.h_fixed is not None:
            raise ValueError("a state takes em or h_fixed, not both")

    def h_cells(self) -> Optional[np.ndarray]:
        """h on the body cells: the Maxwell h (`maxwell.stage_h_cells`,
        valid until its workspace is next used), else h_fixed (None: h = 0)."""
        if self.em is None:
            return self.h_fixed
        return maxwell.stage_h_cells(self.em)

    def workspace(self) -> _Workspace:
        if self.work is None:
            stages = 2 if self.scheme.integrator == HEUN else 4
            self.work = _Workspace(self.m.shape, stages)
        return self.work


def llg_rhs(m: np.ndarray, h_cells: Optional[np.ndarray], geom: DomainGeometry,
            params: MaterialParams, scheme: SchemeConfig,
            out: Optional[np.ndarray] = None,
            tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """Magnetization rate of the Gilbert-form system at frozen h.

    Both constraint modes take one closed form,

        v = w (-m x F + alpha (F - s m)),    F = h_tot,
        w = (1 + alpha^2) / (alpha^2 + |m|^2),

    with |m|^2 guarded below by 1e-300, and differ only in the scalar s:

    - penalized, s = -(m.F) / alpha^2: v is the raw solution of
      alpha v + m x v = (1 + alpha^2) h_tot for any m (the doubly
      penalized flow is genuinely unconstrained, the penalty controls
      the norm);
    - projected, s = (m.F) / |m|^2: v is the part of that solution
      orthogonal to m, for any m.  On the constraint the component along
      m vanishes identically and v is -m x h_tot - alpha m x (m x h_tot),
      so dropping it realizes the constrained system and keeps the
      integrator at its nominal order.

    h_cells None means h = 0.  `out` (not aliasing m) receives the rate;
    `tmp` (a flat float array of at least 3 * m.size entries) makes the
    call allocation-free (see `assemble_h_tot` for the surface layers).
    """
    if out is None:
        out = np.empty_like(m)
    if tmp is None:
        tmp = np.empty(3 * m.size)
    alpha = params.alpha
    F = assemble_h_tot(m, h_cells, geom, params, out=_vector_field(m.shape, tmp),
                       tmp=tmp[m.size:])
    w, s, t = _scalars(tmp[m.size:], m.shape[:-1], 3)
    _dot(m, m, w, t)
    # an array operand keeps numpy off its slow path for a scalar one
    t.fill(1e-300)
    np.maximum(w, t, out=w)
    _dot(m, F, s, t)
    if scheme.constraint == PENALIZED:
        s /= -alpha**2                        # -(m.F) / alpha^2
    else:
        s /= w                                # (m.F) / |m|^2
    w += alpha**2
    np.divide(1.0 + alpha**2, w, out=w)       # (1 + alpha^2) / (alpha^2 + |m|^2)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        v = out[..., i]
        # v = -(m x F)_i = m_k F_j - m_j F_k, then + alpha (F_i - s m_i), then * w
        np.multiply(m[..., k], F[..., j], out=v)
        np.multiply(m[..., j], F[..., k], out=t)
        v -= t
        np.multiply(s, m[..., i], out=t)
        np.subtract(F[..., i], t, out=t)
        t *= alpha
        v += t
        v *= w
    return out


def _first_bad_cell(bad: np.ndarray) -> tuple:
    """Index of the first cell flagged in the boolean cell mask `bad`."""
    return tuple(int(i) for i in np.argwhere(bad)[0])


def _renormalize(m: np.ndarray, step_no: int, t: float, tmp: np.ndarray):
    """Scale every cell of m to unit norm in place; tmp is a flat float
    array of at least 2 * m.size // 3 entries.  step_no and t name the
    step in a NonFinite message."""
    norms, scratch = _scalars(tmp, m.shape[:-1], 2)
    _dot(m, m, norms, scratch)
    np.sqrt(norms, out=norms)
    # min/max propagate NaN, so this one test catches zero, inf and NaN
    if not (norms.min() > 0.0 and norms.max() < np.inf):
        cell = _first_bad_cell(~(np.isfinite(norms) & (norms > 0.0)))
        raise NonFinite(f"renormalization of m at step {step_no}, t={t:g} hit a "
                        f"zero or non-finite norm, first at cell {cell}")
    for i in range(3):
        m[..., i] /= norms


def _advance_m(m, h_cells, dt, geom, params, scheme, work, out):
    """One Heun or RK4 step of m at frozen h into `out` (component-major,
    not aliasing m), using only the buffers of `work`.  The stage
    combinations run on the flat stores (`_store`)."""
    k, m_stage = work.k, work.m_stage
    fm, fs, fo, *fk = map(_store, (m, m_stage, out, *k))

    def rhs(mm, kk):
        return llg_rhs(mm, h_cells, geom, params, scheme, out=kk, tmp=work.tmp)

    def stage(c, fkk):
        np.multiply(fkk, c, out=fs)
        np.add(fm, fs, out=fs)
        return m_stage

    if scheme.integrator == HEUN:
        f1, f2 = fk
        rhs(m, k[0])
        rhs(stage(dt, f1), k[1])
        f1 += f2
        f1 *= 0.5 * dt
    else:
        f1, f2, f3, f4 = fk
        rhs(m, k[0])
        rhs(stage(0.5 * dt, f1), k[1])
        rhs(stage(0.5 * dt, f2), k[2])
        rhs(stage(dt, f3), k[3])
        f2 *= 2.0
        f1 += f2
        f3 *= 2.0
        f1 += f3
        f1 += f4
        f1 *= dt / 6.0
    np.add(fm, f1, out=fo)
    return out


def step(state: SimState, f: Optional[AppliedCurrent] = None) -> SimState:
    """Advance the coupled state and its integrals by one dt (in place).

    The new m is one of the workspace's two `m_next` buffers (the one the
    old m is not), so an m from two steps back is overwritten: copy it to
    keep it.
    """
    scheme = state.scheme
    geom, params = state.geom, state.params
    dt = scheme.dt
    h_cells = state.h_cells()

    work = state.workspace()
    m = state.m
    m_new = work.m_next[m is work.m_next[0]]
    _advance_m(m, h_cells, dt, geom, params, scheme, work, m_new)
    m_dot_eff = work.k[0]
    f_rate, f_new, f_m = map(_store, (m_dot_eff, m_new, m))
    if state.em is not None:
        # predicted rate (m_pred - m)/dt, then the step at the midpoint h
        f_new -= f_m
        f_new /= dt
        h_mid = maxwell._midpoint_h_cells(state.em, m_new, dt, params)
        _advance_m(m, h_mid, dt, geom, params, scheme, work, m_new)

    step_no = state.n + 1
    if not np.isfinite(f_new).all():
        cell = _first_bad_cell(~np.isfinite(m_new).all(axis=-1))
        raise NonFinite(f"magnetization m became non-finite at step {step_no}, "
                        f"t={state.t:g}, first at cell {cell}")
    if scheme.constraint == PROJECTED:
        _renormalize(m_new, step_no, state.t, work.tmp)

    np.subtract(f_new, f_m, out=f_rate)
    f_rate /= dt
    if state.em is not None:
        maxwell.advance(state.em, m_dot_eff, f, params, dt, scheme.subcycles,
                        state.t, step_no, state)
    state.dissipation += (dt * params.alpha / (1.0 + params.alpha**2)
                          * geom.cell_volume * dot(m_dot_eff, m_dot_eff))
    state.m = m_new
    state.t += dt
    state.n = step_no
    return state


def _state_terms(m: np.ndarray, em: Optional[EMState], geom: DomainGeometry,
                 params: MaterialParams, tmp: Optional[np.ndarray] = None) -> tuple:
    """The energy breakdown, saturation deviation and divergence drift of
    a ledger row, `run`'s and `spinlayer diag`'s, for the body field m;
    `tmp` is `total_energy`'s.  Private, so that the benchmark's tracer
    (which wraps public functions) books the three terms under `run`."""
    breakdown = total_energy(m, em, geom, params, tmp=tmp)
    drift = maxwell.divergence_drift(em, m) if em is not None else 0.0
    return breakdown, saturation_deviation(m, tmp), drift


@dataclass
class Trajectory:
    """In-memory result of a run: the ledger rows and the final state."""

    ledger: EnergyLedger
    final_state: SimState


def run(geom: DomainGeometry, params: MaterialParams, scheme: SchemeConfig,
        m0: np.ndarray, em: Optional[EMState], f: Optional[AppliedCurrent],
        t_end: float, log_every: int = 1,
        on_row: Optional[Callable] = None,
        on_state: Optional[Callable] = None,
        h_fixed: Optional[np.ndarray] = None) -> Trajectory:
    """Run the coupled system, or m in h_fixed, to t_end and collect the ledger.

    A ledger row is recorded at t=0, every log_every-th step, and at the
    final step.  The two hooks are the only way to see a run as it goes,
    and run keeps no field samples: on_row receives each ledger row as it
    is produced, for streaming output, and on_state receives the state
    and the step number at the same cadence.  The state's buffers are
    reused by later steps (see `step`), so a hook copies what it keeps.
    """
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if log_every < 1:
        raise ValueError("log_every must be at least 1")
    box = em.box if em is not None else None
    validate_stability(scheme, geom, params, box)
    state = SimState(t=0.0, m=m0, em=em, geom=geom, params=params, scheme=scheme,
                     h_fixed=h_fixed)
    if em is not None and em.div0 is None:
        maxwell.record_div0(em, state.m)

    n_steps = int(round(t_end / scheme.dt)) if t_end > 0 else 0

    ledger = EnergyLedger()

    def record():
        breakdown, saturation_dev, drift = _state_terms(
            state.m, em, geom, params, state.workspace().tmp)
        row = ledger.append(
            t=state.t, breakdown=breakdown, dissipation=state.dissipation,
            ohmic=state.ohmic, source=state.source, saturation_dev=saturation_dev,
            divergence_drift=drift)
        if on_row is not None:
            on_row(row)

    record()
    if on_state is not None:
        on_state(state, 0)
    for n in range(1, n_steps + 1):
        step(state, f)
        logged = n % log_every == 0 or n == n_steps
        if logged:
            record()
        if on_state is not None and logged:
            on_state(state, n)
    state.work = None   # the stage buffers are only needed while stepping
    return Trajectory(ledger=ledger, final_state=state)
