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
from .effective_field import assemble_h_tot
from .energetics import (MaterialParams, _aligned_empty, _dot, _empty_like, _kernel_scratch,
                         _parts, _scalars, _store, _vector_copy, _vector_field, _ViewMemo,
                         _views, total_energy)
from .errors import CFLViolation, NonFinite, check_finite, first_bad_cell
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
    """Preallocated buffers of one SimState's LLG stages, Heun and RK4 alike,
    and the views of them that a step and a ledger row run on.

    `k` holds the two stage rates: k[0] the first rate, into which the
    later ones are summed, and k[1] the latest stage's rate.  `m_next` holds
    the two buffers a step's new m alternates between; each stage m is
    formed in the step's new m, which is dead until the final combination.
    A given `m`, the state's own copy of m0, is the first of them.  The
    fields are component-major, like the state's m, and every buffer starts
    on a 64-byte boundary (`_aligned_empty`).  `tmp`, the flat scratch of
    `llg_rhs` and of the ledger row, is the one scratch of the kernels
    (`_kernel_scratch`: three fields' floats while the spacer layer is at
    most half the body's depth), so a stage and a row allocate nothing
    field-sized at any layer depth.  A stepped state thus holds about seven
    field arrays, 24 bytes per cell each: two rates, two m buffers and three
    in `tmp`.

    Beside them a state holds views only, no new array: `views`, the memo
    (`energetics._ViewMemo`) of the views the stage's and the row's
    kernels build on `tmp` at their first call for a set of operands (per
    step, each pair of an m buffer and a rate buffer, h being the Maxwell
    body cells, h_fixed or none); `flat`, the flat store and components
    of each buffer of `k` and `m_next`; and `norms`, the two scalar fields
    of `tmp` the renormalization uses.
    """

    def __init__(self, geom: DomainGeometry, m: Optional[np.ndarray] = None):
        shape = geom.field_shape()
        self.k = (_vector_field(shape), _vector_field(shape))
        self.m_next = (_vector_field(shape) if m is None else m, _vector_field(shape))
        self.tmp = _kernel_scratch(geom)
        self.views = _ViewMemo(self.tmp)
        self.flat = {id(a): (_store(a), _parts(a)) for a in self.k + self.m_next}
        self.norms = _scalars(self.tmp, shape[:-1], 2)

    def store(self, a: np.ndarray) -> tuple:
        """(flat store, components) of a: built once for the buffers of
        the workspace, for this call for another field."""
        views = self.flat.get(id(a))
        return (_store(a), _parts(a)) if views is None else views


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
    # the copy of m0 made here, until the workspace adopts it (if still m)
    _m0_copy: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        layer = SHARP if self.geom.eta is None else THIN_LAYER
        if self.scheme.bc_mode != layer:
            raise ValueError(f"bc_mode {self.scheme.bc_mode!r} does not name the "
                             f"geometry's spacer layer, {layer!r}")
        self.m = self._m0_copy = _vector_copy(self.m)
        if not np.isfinite(self.m).all():
            raise NonFinite("initial magnetization is not finite, first at cell "
                            f"{first_bad_cell(~np.isfinite(self.m).all(axis=-1))}")
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
            # adopt the state's own copy of m0, never an array a caller assigned
            own, self._m0_copy = self._m0_copy, None
            self.work = _Workspace(self.geom, own if self.m is own else None)
        return self.work


def _rhs_views(m: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> tuple:
    """The operands of `llg_rhs`: h_tot in tmp's first field, the rest of
    tmp (the scratch of its assembly), the components of m, of h_tot and
    of out, and three scalar fields of the rest of tmp."""
    h_tot = _vector_field(m.shape, tmp)
    rest = tmp[m.size:]
    return (h_tot, rest, _parts(m), _parts(h_tot), _parts(out),
            *_scalars(rest, m.shape[:-1], 3))


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
    `tmp` (a flat float array at least as long as `_kernel_scratch`'s)
    makes the call allocation-free.  With a stepped state's scratch as
    `tmp` the call runs on the views built for its operands at its first
    call (`_Workspace.views`); otherwise it builds them for this call.
    """
    if out is None:
        out = _empty_like(m, _aligned_empty(m.size))
    if tmp is None:
        tmp = _kernel_scratch(geom)
    h_tot, rest, mc, F, v, w, s, t = _views(_rhs_views, m, out, tmp)
    assemble_h_tot(m, h_cells, geom, params, out=h_tot, tmp=rest)
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
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        vi = v[i]
        # v = -(m x F)_i = m_k F_j - m_j F_k, then + alpha (F_i - s m_i), then * w
        np.multiply(mc[k], F[j], out=vi)
        np.multiply(mc[j], F[k], out=t)
        vi -= t
        np.multiply(s, mc[i], out=t)
        np.subtract(F[i], t, out=t)
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


def _advance_m(m, h_cells, dt, geom, params, scheme, work, out):
    """One Heun or RK4 step of m at frozen h into `out` (component-major,
    not aliasing m or h_cells), using only `out` and the buffers of `work`.

    Each later stage m is m + (dt / d) times the rate before it, formed in
    `out`; its rate goes to work.k[1] and, once the next stage is formed,
    is added into work.k[0] with its weight w, so the sum is the tableau's
    ((k0 + w1 k1) + w2 k2) + w3 k3 in that order.  The stage combinations
    run on the flat stores (`_Workspace.store`)."""
    stages, divisor = _TABLEAUX[scheme.integrator]
    (fm, _), (fo, _), (f_sum, _), (f_rate, _) = map(work.store, (m, out, *work.k))
    llg_rhs(m, h_cells, geom, params, scheme, out=work.k[0], tmp=work.tmp)
    for i, (d, _) in enumerate(stages):
        np.multiply(f_rate if i else f_sum, dt / d, out=fo)
        np.add(fm, fo, out=fo)
        if i:
            _add_rate(f_sum, f_rate, stages[i - 1][1])
        llg_rhs(out, h_cells, geom, params, scheme, out=work.k[1], tmp=work.tmp)
    _add_rate(f_sum, f_rate, stages[-1][1])
    f_sum *= dt / divisor
    np.add(fm, f_sum, out=fo)
    return out


def step(state: SimState, f: Optional[AppliedCurrent] = None) -> SimState:
    """Advance the coupled state and its integrals by one dt (in place).

    The new m is one of the workspace's two `m_next` buffers (the one the
    old m is not), so an m from two steps back is overwritten: copy it to
    keep it.  One of them is the state's own copy of m0 (if m is still that
    copy when the workspace is built); an array the caller handed in or
    assigned is never written.  Beside the caller's m0, a
    stepped state holds two stage rates, the two m buffers and the kernel
    scratch (`_Workspace`): about seven field arrays of 24 bytes per cell.
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
    (f_rate, _), (f_new, m_parts), (f_m, _) = map(work.store, (m_dot_eff, m_new, m))
    if state.em is not None:
        # predicted rate (m_pred - m)/dt, then the step at the midpoint h
        f_new -= f_m
        f_new /= dt
        h_mid = maxwell._midpoint_h_cells(state.em, m_new, dt, params)
        _advance_m(m, h_mid, dt, geom, params, scheme, work, m_new)

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
            breakdown, saturation_dev, drift = _state_terms(
                state.m, em, geom, params, state.workspace().tmp)
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
