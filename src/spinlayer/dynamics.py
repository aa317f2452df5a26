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
from .energetics import BC_MODES, SHARP, MaterialParams, _dot, _scalars, total_energy
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


def gilbert_solve(m: np.ndarray, F: np.ndarray, alpha: float,
                  out: Optional[np.ndarray] = None,
                  tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """Unique solution v of alpha v + m x v = F (closed form)

        v = (alpha^2 F - alpha m x F + (m.F) m) / (alpha (alpha^2 + |m|^2)).

    Valid for any m (unit norm not required); alpha must be positive.  m
    and F have the same shape (..., 3).  `out` (aliasing neither) receives
    v; `tmp` (a flat float array of at least 2 * m.size // 3 entries)
    makes the call allocation-free.
    """
    m = np.asarray(m, dtype=float)
    F = np.asarray(F, dtype=float)
    if out is None:
        out = np.empty_like(F)
    mdf, t = _scalars(tmp, m.shape[:-1], 2)
    a2 = alpha**2
    m0, m1, m2 = m[..., 0], m[..., 1], m[..., 2]
    f0, f1, f2 = F[..., 0], F[..., 1], F[..., 2]
    v0, v1, v2 = out[..., 0], out[..., 1], out[..., 2]
    _dot(m, F, mdf, t)
    # m x F, using the component not yet written (then t) as scratch
    np.multiply(m1, f2, out=v0)
    np.multiply(m2, f1, out=v2)
    v0 -= v2
    np.multiply(m2, f0, out=v1)
    np.multiply(m0, f2, out=v2)
    v1 -= v2
    np.multiply(m0, f1, out=v2)
    np.multiply(m1, f0, out=t)
    v2 -= t
    out *= alpha
    for v, f, mi in ((v0, f0, m0), (v1, f1, m1), (v2, f2, m2)):
        np.multiply(f, a2, out=t)
        np.subtract(t, v, out=v)
        np.multiply(mdf, mi, out=t)
        v += t
    _dot(m, m, t, mdf)
    t += a2
    t *= alpha
    np.divide(out, t[..., None], out=out)
    return out


class _Workspace:
    """Preallocated buffers of one SimState's LLG stages.

    `k` holds the stage rates (two for Heun, four for RK4), `m_stage` the
    stage magnetization and `tmp` the scratch of `llg_rhs`.
    """

    def __init__(self, shape: tuple, stages: int):
        self.k = [np.empty(shape) for _ in range(stages)]
        self.m_stage = np.empty(shape)
        self.tmp = np.empty(3 * int(np.prod(shape)))


@dataclass
class SimState:
    t: float
    m: np.ndarray
    em: Optional[EMState]
    geom: DomainGeometry
    params: MaterialParams
    scheme: SchemeConfig
    h_cells_frozen: Optional[np.ndarray] = None
    n: int = 0   # steps taken
    work: Optional[_Workspace] = field(default=None, repr=False, compare=False)

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

    def workspace(self) -> _Workspace:
        if self.work is None:
            stages = 2 if self.scheme.integrator == HEUN else 4
            self.work = _Workspace(self.m.shape, stages)
        return self.work

    def energy(self) -> "object":
        return total_energy(self.m, self.em, self.geom, self.params,
                            bc_mode=self.scheme.bc_mode)


def llg_rhs(m: np.ndarray, h_cells: Optional[np.ndarray], geom: DomainGeometry,
            params: MaterialParams, scheme: SchemeConfig,
            out: Optional[np.ndarray] = None,
            tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """Magnetization rate of the Gilbert-form system at frozen h.

    Penalized mode returns the raw inversion (the doubly penalized flow
    is genuinely unconstrained; the penalty controls the norm).  In
    projected mode the component along m is removed: on the constraint
    that component vanishes identically and the tangential part is the
    Landau-Lifshitz form -m x h_tot - alpha m x (m x h_tot), so dropping
    it realizes the constrained system and keeps the integrator at its
    nominal order.

    h_cells None means h = 0.  `out` (not aliasing m) receives the rate;
    `tmp` (a flat float array of at least 3 * m.size entries) makes the
    call allocation-free apart from layer-sized surface-field temporaries.
    """
    if out is None:
        out = np.empty_like(m)
    if tmp is None:
        tmp = np.empty(3 * m.size)
    F = assemble_h_tot(m, h_cells, geom, params, scheme.bc_mode,
                       out=tmp[:m.size].reshape(m.shape), tmp=tmp[m.size:])
    F *= 1.0 + params.alpha**2
    gilbert_solve(m, F, params.alpha, out=out, tmp=tmp[m.size:])
    if scheme.constraint == PROJECTED:
        # out -= (out.m / max(|m|^2, 1e-300)) m, with F as scratch
        m2, vm = _scalars(tmp[m.size:], m.shape[:-1], 2)
        t = F[..., 0]
        _dot(m, m, m2, t)
        np.maximum(m2, 1e-300, out=m2)
        _dot(out, m, vm, t)
        vm /= m2
        for i in range(3):
            np.multiply(vm, m[..., i], out=t)
            out[..., i] -= t
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
    np.divide(m, norms[..., None], out=m)


def _advance_m(m, h_cells, dt, geom, params, scheme, work, out):
    """One Heun or RK4 step of m at frozen h into `out` (not aliasing m),
    using only the buffers of `work`."""
    k, m_stage = work.k, work.m_stage

    def rhs(mm, kk):
        return llg_rhs(mm, h_cells, geom, params, scheme, out=kk, tmp=work.tmp)

    def stage(c, kk):
        np.multiply(kk, c, out=m_stage)
        return np.add(m, m_stage, out=m_stage)

    if scheme.integrator == HEUN:
        k1, k2 = k
        rhs(m, k1)
        rhs(stage(dt, k1), k2)
        k1 += k2
        k1 *= 0.5 * dt
    else:
        k1, k2, k3, k4 = k
        rhs(m, k1)
        rhs(stage(0.5 * dt, k1), k2)
        rhs(stage(0.5 * dt, k2), k3)
        rhs(stage(dt, k3), k4)
        k2 *= 2.0
        k1 += k2
        k3 *= 2.0
        k1 += k3
        k1 += k4
        k1 *= dt / 6.0
    return np.add(m, k1, out=out)


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
    # the body cells average only the body face slabs: take curl e there,
    # from the edges bounding the body, with the rate moved to the same faces
    faces = maxwell.curl_e(*em.body_cell_edges(), box, out=work.body_faces,
                           tmp=work.tmp)
    rate = maxwell.cells_to_faces(m_dot_pred, box, out=work.rate_faces)
    half = 0.5 * dt
    for f, h, r in zip(faces, em.body_h(), rate):
        # f = h - (half/mu0) curl e - half m_dot, in that order
        f *= half / state.params.mu0
        np.subtract(h, f, out=f)
        r *= half
        f -= r
    return maxwell.faces_to_cells(*faces, out=work.body_cells)


def step(state: SimState, accum: Optional[dict] = None,
         f: Optional[AppliedCurrent] = None) -> SimState:
    """Advance the coupled state by one dt (in place)."""
    scheme = state.scheme
    geom, params = state.geom, state.params
    dt = scheme.dt
    h_cells = state.h_cells() if state.em is not None else None   # None: h = 0

    work = state.workspace()
    m = state.m
    m_new = np.empty_like(m)
    _advance_m(m, h_cells, dt, geom, params, scheme, work, m_new)
    if not scheme.frozen_em and state.em is not None:
        # predicted rate (m_pred - m)/dt, then the step at the midpoint h
        m_new -= m
        m_new /= dt
        h_mid = _midpoint_h_cells(state, m_new)
        _advance_m(m, h_mid, dt, geom, params, scheme, work, m_new)

    step_no = state.n + 1
    if not np.isfinite(m_new).all():
        cell = _first_bad_cell(~np.isfinite(m_new).all(axis=-1))
        raise NonFinite(f"magnetization m became non-finite at step {step_no}, "
                        f"t={state.t:g}, first at cell {cell}")
    if scheme.constraint == PROJECTED:
        _renormalize(m_new, step_no, state.t, work.tmp)

    m_dot_eff = np.subtract(m_new, m, out=work.k[0])
    m_dot_eff /= dt
    if not scheme.frozen_em and state.em is not None:
        # the realized rate is constant over the step and zero outside the
        # body: transfer it once, onto the body face slabs
        m_dot_faces = None
        if np.any(m_dot_eff):
            m_dot_faces = maxwell.cells_to_faces(
                m_dot_eff, state.em.box, out=state.em.workspace().rate_faces)
        dt_sub = dt / scheme.subcycles
        no_current = np.zeros(3)
        for i in range(scheme.subcycles):
            t_mid = state.t + (i + 0.5) * dt_sub
            f_val = f.value(t_mid) if f is not None else no_current
            fdtd_step(state.em, m_dot_faces, f_val, params, dt_sub, accum)
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
    state.work = None   # the stage buffers are only needed while stepping
    traj.final_state = state
    return traj
