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
from .diagnostics import CSV_COLUMNS, LedgerRow, saturation_deviation
from .effective_field import _h_tot_views, assemble_h_tot
from .energetics import (MaterialParams, _aligned_empty, _cross, _dot, _empty_like,
                         _energy_views, _kernel_scratch, _parts, _scalars, _store,
                         _vector_field, _views, total_energy)
from .errors import CFLViolation, NonFinite, _check_cells, check_finite, first_bad_cell
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
# per integrator: each stage after the first as (d, w), its m being
# m + (dt / d) * (the rate before it) and w its rate's weight in the sum
# (the first rate's is 1), and the divisor of the weighted sum
_TABLEAUX = {HEUN: (((1.0, 1.0),), 2.0),
             RK4: (((2.0, 2.0), (2.0, 2.0), (1.0, 1.0)), 6.0)}


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
    """The buffers of one SimState's LLG stages and ledger rows, Heun and
    RK4 alike, in two slots, and the views of them, built here once for
    the state's geometry and parameters, so a step or row slices nothing.

    Slot i pairs the m buffer m[i] with the rate buffer k[i] and holds
    `rhs[i]`, the views of `llg_rhs` from m[i] into k[i] (`_rhs_views`);
    `row[i]`, those of the row's energies of m[i] (`_energy_views`); and
    `flat[i]`, the flat store and components of m[i] and the flat store of
    k[i].  A step from slot i (`_advance_m`) keeps its first rate, the
    rates' weighted sum and then the realized rate in k[i], and forms each
    later stage m, its rate and the new m in slot 1 - i.  Every buffer is
    component-major and starts on a 64-byte boundary (`_aligned_empty`).
    `tmp` is the one scratch of the kernels (`_kernel_scratch`: three
    fields while the spacer layer is at most half the body deep); the
    stage and row views and `norms`, the renormalization's two scalar
    fields, lie on it.  A stepped state thus holds about seven field
    arrays of 24 bytes per cell, and views of them only.
    """

    def __init__(self, geom: DomainGeometry, params: MaterialParams):
        shape, self.geom, self.params = geom.field_shape(), geom, params
        self.m = (_vector_field(shape), _vector_field(shape))
        self.k = (_vector_field(shape), _vector_field(shape))
        tmp = self.tmp = _kernel_scratch(geom)
        slots = tuple(zip(self.m, self.k))
        self.rhs = tuple(_rhs_views(m, geom, params, k, tmp) for m, k in slots)
        self.row = tuple(_energy_views(m, geom, params, tmp) for m in self.m)
        self.flat = tuple((_store(m), _parts(m), _store(k)) for m, k in slots)
        self.norms = _scalars(tmp, shape[:-1], 2)


@dataclass
class SimState:
    """The stepped state: m (one of its workspace's m buffers, into which
    the caller's m0 is copied), the Maxwell state em or a fixed cell field
    h_fixed (at most one), and the dissipation, Ohmic and source integrals
    of the steps taken.  The scheme's bc_mode must name the geometry's
    spacer layer, and m, h_fixed and the body of em's box must be on the
    geometry's cells.  The workspace `work` is no constructor argument:
    `workspace()` builds each state its own, so a `dataclasses.replace`
    copy steps in buffers of its own."""

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
    work: Optional[_Workspace] = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        layer = SHARP if self.geom.eta is None else THIN_LAYER
        if self.scheme.bc_mode != layer:
            raise ValueError(f"bc_mode {self.scheme.bc_mode!r} does not name the "
                             f"geometry's spacer layer, {layer!r}")
        shape = self.geom.field_shape()
        for name, a in (("m", self.m), ("h_fixed", self.h_fixed)):
            if a is not None and np.shape(a) != shape:
                raise ValueError(f"{name} has shape {np.shape(a)}, not the geometry's "
                                 f"field shape {shape}")
        if self.em is not None:
            box = self.em.box
            if (box.mx, box.my, box.mz) != shape[:-1]:
                raise ValueError(f"em's body has {(box.mx, box.my, box.mz)} cells, not "
                                 f"the geometry's {shape[:-1]}")
        if self.em is not None and self.h_fixed is not None:
            raise ValueError("a state takes em or h_fixed, not both")
        self.workspace()
        _check_cells(self.m, "initial magnetization is not finite")

    def h_cells(self) -> Optional[np.ndarray]:
        """h on the body cells: the Maxwell h (`maxwell.stage_h_cells`,
        valid until its workspace is next used), else h_fixed (None: h = 0)."""
        if self.em is None:
            return self.h_fixed
        return maxwell.stage_h_cells(self.em)

    def workspace(self) -> _Workspace:
        """The state's workspace, built here (first when the state is made)
        and rebuilt when geom or params is replaced.  An m that is no m
        buffer of it (m0, an assigned array, an old workspace's) is copied
        into slot 0, so a caller's array is never written."""
        work = self.work
        if work is None or work.geom is not self.geom or work.params is not self.params:
            work = self.work = _Workspace(self.geom, self.params)
        if self.m is not work.m[0] and self.m is not work.m[1]:
            np.copyto(work.m[0], self.m)
            self.m = work.m[0]
        return work


def _rhs_views(m: np.ndarray, geom: DomainGeometry, params: MaterialParams,
               out: np.ndarray, tmp: np.ndarray) -> tuple:
    """The operands of `llg_rhs`: h_tot in tmp's first field, the views of
    its assembly on the rest of tmp (`_h_tot_views`), the components of m,
    of h_tot and of out, and three scalar fields of the rest of tmp."""
    h_tot = _vector_field(m.shape, tmp)
    rest = tmp[m.size:]
    return (h_tot, _h_tot_views(m, geom, params, h_tot, rest), _parts(m), _parts(h_tot),
            _parts(out), *_scalars(rest, m.shape[:-1], 3))


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
    `tmp` (a flat float array at least as long as `_kernel_scratch`'s, or
    the views of `_rhs_views` for m and out, as a stepped state's
    workspace holds them) makes the call allocation-free.
    """
    if out is None:
        out = _empty_like(m, _aligned_empty(m.size))
    if tmp is None:
        tmp = _kernel_scratch(geom)
    h_tot, h_tot_views, mc, F, v, w, s, t = _views(_rhs_views, m, geom, params, out, tmp)
    assemble_h_tot(m, h_cells, geom, params, out=h_tot, tmp=h_tot_views)
    alpha = params.alpha
    _dot(mc, mc, w, t)
    # an array operand keeps numpy off its slow path for a scalar one
    t.fill(1e-300)
    np.maximum(w, t, out=w)
    _dot(mc, F, s, t)
    if scheme.constraint == PENALIZED:
        s /= -alpha**2                        # -(m.F) / alpha^2
    else:
        s /= w                                # (m.F) / |m|^2
    w += alpha**2
    np.divide(1.0 + alpha**2, w, out=w)       # (1 + alpha^2) / (alpha^2 + |m|^2)
    _cross(F, mc, v, t)                       # -m x F
    for vi, Fi, mi in zip(v, F, mc):
        # + alpha (F_i - s m_i), then * w
        np.multiply(s, mi, out=t)
        np.subtract(Fi, t, out=t)
        if alpha != 1.0:                      # t * 1.0 is t, bit for bit
            t *= alpha
        vi += t
        vi *= w
    return out


def _renormalize(m: tuple, norms: np.ndarray, scratch: np.ndarray, step_no: int,
                 t: float):
    """Scale every cell of m (its three components) to unit norm in place,
    with the scalar fields norms and scratch.  step_no and t name the
    step in a NonFinite message."""
    _dot(m, m, norms, scratch)
    np.sqrt(norms, out=norms)
    # min/max propagate NaN, so this one test catches zero, inf and NaN
    if not (norms.min() > 0.0 and norms.max() < np.inf):
        cell = first_bad_cell(~(np.isfinite(norms) & (norms > 0.0)))
        raise NonFinite(f"renormalization of m at step {step_no}, t={t:g} hit a "
                        f"zero or non-finite norm, first at cell {cell}")
    for mi in m:
        mi /= norms


def _add_rate(f_sum: np.ndarray, f_rate: np.ndarray, weight: float):
    """f_sum += weight * f_rate, f_rate scaled in place unless weight is 1."""
    if weight != 1.0:
        f_rate *= weight
    f_sum += f_rate


def _advance_m(work: _Workspace, i: int, h_cells, dt: float, scheme: SchemeConfig):
    """One Heun or RK4 step at frozen h of the m in slot i of `work` into
    the other slot's m buffer (component-major, not aliasing h_cells),
    using only the buffers and views of `work`.

    The first rate goes to k[i]; each later stage m is m + (dt / d) times
    the rate before it, formed in m[1 - i]; its rate goes to k[1 - i] and,
    once the next stage is formed, is added into k[i] with its weight w, so
    the sum is the tableau's ((k0 + w1 k1) + w2 k2) + w3 k3 in that order.
    The stage combinations run on the slots' flat stores."""
    stages, divisor = _TABLEAUX[scheme.integrator]
    geom, params, j = work.geom, work.params, 1 - i
    (fm, _, f_sum), (fo, _, f_rate) = work.flat[i], work.flat[j]
    out = work.m[j]
    llg_rhs(work.m[i], h_cells, geom, params, scheme, out=work.k[i], tmp=work.rhs[i])
    for s, (d, _) in enumerate(stages):
        np.multiply(f_rate if s else f_sum, dt / d, out=fo)
        np.add(fm, fo, out=fo)
        if s:
            _add_rate(f_sum, f_rate, stages[s - 1][1])
        llg_rhs(out, h_cells, geom, params, scheme, out=work.k[j], tmp=work.rhs[j])
    _add_rate(f_sum, f_rate, stages[-1][1])
    f_sum *= dt / divisor
    np.add(fm, f_sum, out=fo)
    return out


def step(state: SimState, f: Optional[AppliedCurrent] = None) -> SimState:
    """Advance the coupled state and its integrals by one dt (in place).

    The new m is the workspace's other m buffer (`_Workspace`: the one the
    old m is not), so an m from two steps back is overwritten: copy it to
    keep it.  An array the caller handed in or assigned is never written.
    Beside the caller's m0, a stepped state holds two m buffers, two
    stage rates and the kernel scratch: about seven field arrays of 24
    bytes per cell.
    """
    scheme = state.scheme
    params = state.params
    dt = scheme.dt
    h_cells = state.h_cells()

    work = state.workspace()
    i = int(state.m is work.m[1])   # the slot of the old m
    m_new = _advance_m(work, i, h_cells, dt, scheme)
    m_dot_eff = work.k[i]
    (f_m, _, f_rate), (f_new, m_parts, _) = work.flat[i], work.flat[1 - i]
    if state.em is not None:
        # predicted rate (m_pred - m)/dt, then the step at the midpoint h
        f_new -= f_m
        f_new /= dt
        h_mid = maxwell._midpoint_h_cells(state.em, m_new, dt, params)
        _advance_m(work, i, h_mid, dt, scheme)

    step_no = state.n + 1
    if not np.isfinite(f_new).all():
        cell = first_bad_cell(~np.isfinite(m_new).all(axis=-1))
        raise NonFinite(f"magnetization m became non-finite at step {step_no}, "
                        f"t={state.t:g}, first at cell {cell}")
    if scheme.constraint == PROJECTED:
        _renormalize(m_parts, *work.norms, step_no, state.t)

    np.subtract(f_new, f_m, out=f_rate)
    f_rate /= dt
    if state.em is not None:
        maxwell.advance(state.em, m_dot_eff, f, params, dt, scheme.subcycles,
                        state.t, step_no, state)
    state.dissipation += (dt * params.alpha / (1.0 + params.alpha**2)
                          * state.geom.cell_volume * dot(m_dot_eff, m_dot_eff))
    state.m = m_new
    state.t += dt
    state.n = step_no
    return state


def _state_terms(m: np.ndarray, em: Optional[EMState], geom: DomainGeometry,
                 params: MaterialParams, tmp: Optional[np.ndarray] = None) -> tuple:
    """The energy breakdown, saturation deviation and divergence drift of
    a ledger row, `run`'s and `spinlayer diag`'s, for the body field m;
    `tmp` is `total_energy`'s, whose `_norm_views` the deviation shares.
    Private, so that the benchmark's tracer (which wraps public functions)
    books the three terms under `run`."""
    views = _views(_energy_views, m, geom, params, tmp)
    breakdown = total_energy(m, em, geom, params, tmp=views)
    drift = maxwell.divergence_drift(em, m) if em is not None else 0.0
    return breakdown, saturation_deviation(m, views[-1]), drift


@dataclass
class Trajectory:
    """The result of a run: its final state.  The ledger rows went to
    `run`'s on_row as they were made; none is kept."""

    final_state: SimState


def run(geom: DomainGeometry, params: MaterialParams, scheme: SchemeConfig,
        m0: np.ndarray, em: Optional[EMState], f: Optional[AppliedCurrent],
        t_end: float, log_every: int = 1,
        on_row: Optional[Callable] = None,
        on_state: Optional[Callable] = None,
        h_fixed: Optional[np.ndarray] = None) -> Trajectory:
    """Run the coupled system, or m in h_fixed, to t_end: round(t_end/dt)
    steps.

    A run is logged at t=0, every log_every-th step, and at the final
    step.  The two hooks are the only way to see a run as it goes, and
    run keeps neither rows nor field samples, so its memory does not
    grow with the step count: on_row receives a `LedgerRow` made at each
    log (collect them with `on_row=rows.append`; without on_row no row is
    made), and on_state receives the state and the step number.  Each row
    is checked before on_row sees it: a value that is not finite raises
    NonFinite naming the step, t and first such column (`check_finite`).
    The state's buffers are reused by later steps (see `step`), so a hook
    copies what it keeps.  Returns the final state in a `Trajectory`.
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

    def log(n):
        if on_row is not None:
            work = state.workspace()
            breakdown, saturation_dev, drift = _state_terms(
                state.m, em, geom, params, work.row[state.m is work.m[1]])
            row = LedgerRow(state.t, breakdown, state.dissipation, state.ohmic,
                            state.source, saturation_dev, drift)
            check_finite(CSV_COLUMNS, row.csv_values(),
                         "ledger values at step {}, t={:g}", n, state.t)
            on_row(row)
        if on_state is not None:
            on_state(state, n)

    log(0)
    for n in range(1, n_steps + 1):
        step(state, f)
        if n % log_every == 0 or n == n_steps:
            log(n)
    state.work = None   # the stage buffers are only needed while stepping
    return Trajectory(final_state=state)
