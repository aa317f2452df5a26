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
from .energetics import (BC_MODES, SHARP, MaterialParams, _dot, _flat_stores,
                         _scalars, _vector_copy, _vector_field, total_energy)
from .errors import CFLViolation, NonFinite
from .geometry import DomainGeometry
from .maxwell import AppliedCurrent, EMState, fdtd_step, interp_h_to_cells
from .summation import dot

HEUN = "heun"
RK4 = "rk4"
INTEGRATORS = (HEUN, RK4)
PROJECTED = "projected"
PENALIZED = "penalized"
CONSTRAINTS = (PROJECTED, PENALIZED)


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
    if not scheme.frozen_em and box is not None:
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
    ledger row; the fields are component-major, like the m that `run`
    steps.
    """

    def __init__(self, shape: tuple, stages: int):
        self.k = [_vector_field(shape) for _ in range(stages)]
        self.m_stage = _vector_field(shape)
        self.m_next = (_vector_field(shape), _vector_field(shape))
        self.tmp = np.empty(3 * int(np.prod(shape)))


@dataclass
class SimState:
    t: float
    m: np.ndarray
    em: Optional[EMState]
    geom: DomainGeometry
    params: MaterialParams
    scheme: SchemeConfig
    h_cells_frozen: Optional[np.ndarray] = field(default=None, init=False)
    n: int = 0   # steps taken
    work: Optional[_Workspace] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.m).all():
            raise NonFinite("initial magnetization is not finite")
        if self.scheme.frozen_em:
            self.h_cells_frozen = (np.zeros(self.geom.field_shape()) if self.em is None
                                   else interp_h_to_cells(self.em))

    def h_cells(self) -> np.ndarray:
        """h on the body cells: the frozen field, or the Maxwell h averaged
        into the Maxwell workspace's `body_cells` (valid until the
        workspace is next used)."""
        if self.scheme.frozen_em:
            return self.h_cells_frozen
        if self.em is None:
            return np.zeros(self.geom.field_shape())
        return interp_h_to_cells(self.em, out=self.em.workspace().body_cells)

    def workspace(self) -> _Workspace:
        if self.work is None:
            stages = 2 if self.scheme.integrator == HEUN else 4
            self.work = _Workspace(self.m.shape, stages)
        return self.work

    def energy(self) -> "object":
        return total_energy(self.m, self.em, self.geom, self.params,
                            bc_mode=self.scheme.bc_mode, tmp=self.workspace().tmp)


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
    F = assemble_h_tot(m, h_cells, geom, params, scheme.bc_mode,
                       out=_vector_field(m.shape, tmp), tmp=tmp[m.size:])
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
    """One Heun or RK4 step of m at frozen h into `out` (not aliasing m),
    using only the buffers of `work`.  The stage combinations run on the
    flat stores when every field is component-major."""
    k, m_stage = work.k, work.m_stage
    fm, fs, fo, *fk = _flat_stores(m, m_stage, out, *k)

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
    work = em.workspace()
    half = 0.5 * dt
    # the body cells average only the body face slabs: take (half/mu0)
    # curl e on the store window that holds them, with the rate moved to
    # the same faces
    maxwell.curl_e(em.e, box, half / state.params.mu0, out=work.curl, tmp=work.tmp,
                   window=work.body_window)
    rate = maxwell.cells_to_faces(m_dot_pred, out=work.rate_faces)
    for f, h, c, r in zip(work.body_faces, work.body_h, work.body_curl_faces, rate):
        # f = h - (half/mu0) curl e - half m_dot, in that order
        np.subtract(h, c, out=f)
        r *= half
        f -= r
    return maxwell.faces_to_cells(*work.body_faces, out=work.body_cells)


def step(state: SimState, accum: Optional[dict] = None,
         f: Optional[AppliedCurrent] = None) -> SimState:
    """Advance the coupled state by one dt (in place).

    The new m is one of the workspace's two `m_next` buffers (the one the
    old m is not), so an m from two steps back is overwritten: copy it to
    keep it.
    """
    scheme = state.scheme
    geom, params = state.geom, state.params
    dt = scheme.dt
    h_cells = state.h_cells() if state.em is not None else None   # None: h = 0

    work = state.workspace()
    m = state.m
    m_new = work.m_next[m is work.m_next[0]]
    _advance_m(m, h_cells, dt, geom, params, scheme, work, m_new)
    m_dot_eff = work.k[0]
    f_rate, f_new, f_m = _flat_stores(m_dot_eff, m_new, m)
    if not scheme.frozen_em and state.em is not None:
        # predicted rate (m_pred - m)/dt, then the step at the midpoint h
        f_new -= f_m
        f_new /= dt
        h_mid = _midpoint_h_cells(state, m_new)
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
    if not scheme.frozen_em and state.em is not None:
        # the realized rate is constant over the step and zero outside the
        # body: transfer it once, onto the body face slabs, as the
        # increment dt_sub x rate of every substep
        dt_sub = dt / scheme.subcycles
        dm_faces = None
        if np.any(f_rate):
            dm_faces = maxwell.cells_to_faces(
                m_dot_eff, out=state.em.workspace().rate_faces)
            for r in dm_faces:
                r *= dt_sub
        no_current = np.zeros(3)
        for i in range(scheme.subcycles):
            t_mid = state.t + (i + 0.5) * dt_sub
            f_val = f.value(t_mid) if f is not None else no_current
            fdtd_step(state.em, dm_faces, f_val, params, dt_sub, accum)
        state.em.assert_finite(step_no, state.t)

    if accum is not None:
        alpha = params.alpha
        accum["dissipation"] += (dt * alpha / (1.0 + alpha**2)
                                 * geom.cell_volume * dot(m_dot_eff, m_dot_eff))
    state.m = m_new
    state.t += dt
    state.n = step_no
    return state


@dataclass
class Trajectory:
    """In-memory result of a run: the ledger rows and the final state."""

    ledger: EnergyLedger
    final_state: Optional[SimState] = None


def run(geom: DomainGeometry, params: MaterialParams, scheme: SchemeConfig,
        m0: np.ndarray, em: Optional[EMState], f: Optional[AppliedCurrent],
        t_end: float, log_every: int = 1,
        on_row: Optional[Callable] = None,
        on_state: Optional[Callable] = None) -> Trajectory:
    """Run the coupled system to t_end and collect the energy ledger.

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
    # the stepped m is component-major
    state = SimState(t=0.0, m=_vector_copy(m0), em=em, geom=geom, params=params,
                     scheme=scheme)
    if em is not None and em.div0 is None:
        maxwell.record_div0(em, state.m)

    n_steps = int(round(t_end / scheme.dt)) if t_end > 0 else 0

    ledger = EnergyLedger()
    accum = {"dissipation": 0.0, "ohmic": 0.0, "source": 0.0}

    def record():
        breakdown = state.energy()
        drift = (maxwell.divergence_drift(state.em, state.m)
                 if state.em is not None else 0.0)
        row = ledger.append(
            t=state.t, breakdown=breakdown,
            dissipation=accum["dissipation"], ohmic=accum["ohmic"],
            source=accum["source"],
            saturation_dev=saturation_deviation(state.m, state.workspace().tmp),
            divergence_drift=drift)
        if on_row is not None:
            on_row(row)

    record()
    if on_state is not None:
        on_state(state, 0)
    for n in range(1, n_steps + 1):
        step(state, accum, f)
        logged = n % log_every == 0 or n == n_steps
        if logged:
            record()
        if on_state is not None and logged:
            on_state(state, n)
    state.work = None   # the stage buffers are only needed while stepping
    return Trajectory(ledger=ledger, final_state=state)
