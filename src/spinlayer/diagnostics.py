"""Verifiable quantities: energy ledger, weak-form and stationarity
residuals, saturation deviation, mollified time averages, and the
curl-free field attached to a candidate long-time state.

All time integrals use the same trapezoid/midpoint quadrature as the
stepper's sampling cadence so residuals measure model error rather than
quadrature mismatch.
"""

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import maxwell
from .effective_field import assemble_h_tot
from .energetics import SHARP, EnergyBreakdown, MaterialParams, _dot, _scalars
from .errors import WindowOutOfRange
from .geometry import DomainGeometry
from .summation import dot

CSV_COLUMNS = (("t",) + EnergyBreakdown.COLUMNS
               + ("dissipation_integral", "ohmic_integral", "source_integral",
                  "saturation_dev", "divergence_drift"))


@dataclass
class LedgerRow:
    t: float
    breakdown: EnergyBreakdown
    dissipation: float
    ohmic: float
    source: float
    saturation_dev: float
    divergence_drift: float

    def csv_values(self) -> tuple:
        return ((self.t,) + self.breakdown.as_tuple()
                + (self.dissipation, self.ohmic, self.source,
                   self.saturation_dev, self.divergence_drift))


@dataclass
class EnergyLedger:
    """Time series of energies and the accumulated dissipation integrals.

    dissipation: (alpha/(1+alpha^2)) * int |dm/dt|^2
    ohmic:       (sigma/mu0) * int |e|^2 over the body
    source:      (sigma/mu0) * int e.f over the body
    """

    rows: List[LedgerRow] = field(default_factory=list)

    def append(self, t, breakdown, dissipation, ohmic, source,
               saturation_dev, divergence_drift) -> LedgerRow:
        row = LedgerRow(t, breakdown, dissipation, ohmic, source,
                        saturation_dev, divergence_drift)
        self.rows.append(row)
        return row

    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.rows])

    def totals(self) -> np.ndarray:
        return np.array([r.breakdown.total for r in self.rows])

    def row_at(self, T: float) -> LedgerRow:
        ts = self.times()
        i = int(np.argmin(np.abs(ts - T)))
        if abs(ts[i] - T) > 1e-9 * max(1.0, abs(T)) + 1e-12:
            raise ValueError(f"no ledger row at t={T:g} (nearest {ts[i]:g})")
        return self.rows[i]


def energy_inequality_residual(ledger: EnergyLedger, T: float) -> float:
    """LHS - RHS of the dissipation inequality at time T.

    Nonpositive (or below tolerance) means the inequality holds:
    E(T) + dissipation + Ohmic + source <= E(0).
    """
    row = ledger.row_at(T)
    e0 = ledger.rows[0].breakdown.total
    return (row.breakdown.total + row.dissipation + row.ohmic + row.source) - e0


def saturation_deviation(m: np.ndarray) -> float:
    """max over cells of | |m| - 1 |."""
    dev, tmp = _scalars(None, m.shape[:-1], 2)
    _dot(m, m, dev, tmp)
    np.sqrt(dev, out=dev)
    dev -= 1.0
    np.abs(dev, out=dev)
    return float(dev.max())


# ---------------------------------------------------------------------------
# mollified time averaging


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 at t<=0, 1 at t>=1, max slope about 1.92."""
    def f(u):
        out = np.zeros_like(u)
        pos = u > 0
        out[pos] = np.exp(-1.0 / u[pos])
        return out
    t = np.clip(t, 0.0, 1.0)
    a = f(t)
    b = f(1.0 - t)
    return a / (a + b)


@dataclass(frozen=True)
class AveragingWindow:
    """Cutoff rho on [-a, a]: 1 on [-a+1, a-1], 0 <= rho <= 1, |rho'| <= 2.

    The default is the piecewise-linear trapezoid with unit-width ramps
    (slopes +-1); kind="smooth" substitutes a C-infinity ramp whose slope
    stays below 2.
    """

    a: float
    kind: str = "trapezoid"

    def __post_init__(self):
        if self.a < 1.0:
            raise ValueError("window half-width must be at least 1")
        if self.kind not in ("trapezoid", "smooth"):
            raise ValueError(f"unknown window kind {self.kind!r}")

    def rho(self, s) -> np.ndarray:
        s = np.abs(np.asarray(s, dtype=float))
        ramp = np.clip(self.a - s, 0.0, 1.0)
        if self.kind == "trapezoid":
            return ramp
        return _smoothstep(ramp)


def window_quadrature(window: AveragingWindow, sample_times: Sequence[float],
                      t_n: float) -> Tuple[np.ndarray, np.ndarray]:
    """Sample indices inside the window and trapezoid weights times rho/(2a).

    Raises WindowOutOfRange when the stored samples do not cover
    [t_n - a, t_n + a].
    """
    ts = np.asarray(sample_times, dtype=float)
    lo, hi = t_n - window.a, t_n + window.a
    if len(ts) < 2:
        raise WindowOutOfRange("need at least two stored samples")
    step = np.max(np.diff(ts))
    if ts[0] > lo + step * (1 + 1e-9) or ts[-1] < hi - step * (1 + 1e-9):
        raise WindowOutOfRange(
            f"samples cover [{ts[0]:g}, {ts[-1]:g}] but the window needs "
            f"[{lo:g}, {hi:g}]")
    idx = np.where((ts >= lo - 1e-12) & (ts <= hi + 1e-12))[0]
    tw = ts[idx]
    w = np.zeros(len(tw))
    if len(tw) >= 2:
        d = np.diff(tw)
        w[:-1] += 0.5 * d
        w[1:] += 0.5 * d
    weights = w * window.rho(tw - t_n) / (2.0 * window.a)
    return idx, weights


def time_average_fields(trajectory, t_n: float, window: AveragingWindow):
    """Windowed averages of the raw electromagnetic fields around t_n.

    Returns (h_avg, e_avg) as face/edge component triples, computed with
    the trapezoid rule over the stored samples.
    """
    if not trajectory.em_samples:
        raise ValueError("trajectory holds no electromagnetic samples")
    idx, weights = window_quadrature(window, trajectory.sample_times, t_n)
    h0, e0 = trajectory.em_samples[idx[0]]
    h_avg = tuple(np.zeros_like(c) for c in h0)
    e_avg = tuple(np.zeros_like(c) for c in e0)
    for j, wgt in zip(idx, weights):
        hj, ej = trajectory.em_samples[j]
        for c in range(3):
            h_avg[c][...] += wgt * hj[c]
            e_avg[c][...] += wgt * ej[c]
    return h_avg, e_avg


# ---------------------------------------------------------------------------
# test-function library


@dataclass(frozen=True)
class TestFunction:
    """Vector test field: scalar shape times a constant direction."""

    __test__ = False  # not a pytest class, despite the name

    name: str
    shape: Callable          # (x, y, z) -> scalar array
    direction: int           # 0, 1, 2

    def __call__(self, x, y, z) -> np.ndarray:
        s = self.shape(x, y, z)
        out = np.zeros(np.shape(s) + (3,))
        out[..., self.direction] = s
        return out


def test_function_library(geom: DomainGeometry) -> List[TestFunction]:
    """Nine low-order scalar shapes times the three axis directions."""
    lx, ly = geom.base_lx, geom.base_ly
    lz = geom.l_minus + geom.l_plus
    z0 = -geom.l_minus
    kx, ky, kz = np.pi / lx, np.pi / ly, np.pi / lz

    shapes = [
        ("one", lambda x, y, z: np.ones(np.broadcast(x, y, z).shape)),
        ("x", lambda x, y, z: x + 0 * y + 0 * z),
        ("y", lambda x, y, z: y + 0 * x + 0 * z),
        ("z", lambda x, y, z: z + 0 * x + 0 * y),
        ("sin_x", lambda x, y, z: np.sin(kx * x) + 0 * y + 0 * z),
        ("sin_y", lambda x, y, z: np.sin(ky * y) + 0 * x + 0 * z),
        ("sin_z", lambda x, y, z: np.sin(kz * (z - z0)) + 0 * x + 0 * y),
        ("cos_xy", lambda x, y, z: np.cos(kx * x) * np.cos(ky * y) + 0 * z),
        ("xyz", lambda x, y, z: x * y * z),
    ]
    return [TestFunction(f"{sname}.e{dname}", s, d)
            for sname, s in shapes for d, dname in enumerate("xyz")]


# ---------------------------------------------------------------------------
# quadrature geometry helpers


def _cell_coords(geom: DomainGeometry):
    x = (np.arange(geom.nx) + 0.5) * geom.dx
    y = (np.arange(geom.ny) + 0.5) * geom.dy
    z = geom.z_centers()
    return np.meshgrid(x, y, z, indexing="ij")


def eval_on_cells(test_fn: TestFunction, geom: DomainGeometry) -> np.ndarray:
    return test_fn(*_cell_coords(geom))


def _torque(m: np.ndarray, h_cells: np.ndarray, params: MaterialParams,
            geom: DomainGeometry, bc_mode: str) -> np.ndarray:
    """m x h_tot, the test-field-free part of the stationary form, with
    the effective field of the stepper for `bc_mode`."""
    return np.cross(m, assemble_h_tot(m, h_cells, geom, params, bc_mode))


def _stationary_value(torque: np.ndarray, phi_cells: np.ndarray,
                      geom: DomainGeometry) -> float:
    """Signed stationary form -dV sum (m x h_tot) . phi.

    By summation by parts the exchange part, -A dV sum (m x Lap m) . phi,
    is the face sum A dV sum_f (m_f x D_f m) . D_f phi over the interior
    faces off the spacer, with the test field's cell samples differenced
    across each face; the spacer pairing -dV sum (m x h_surf) . phi
    equals the spacer integrals of the nonlinear condition.  Residuals
    then measure model error rather than quadrature mismatch.
    """
    return -geom.cell_volume * dot(torque, phi_cells)


# ---------------------------------------------------------------------------
# weak-formulation residual


def weak_residual_m(trajectory, test_fn: TestFunction, geom: DomainGeometry,
                    params: MaterialParams, signed: bool = False,
                    bc_mode: str = SHARP) -> float:
    """Discrete mismatch of the magnetization weak form over the stored run.

    Requires field samples at every step (sample cadence 1).  Midpoint
    quadrature in time: rates from consecutive samples, states averaged
    to the interval midpoint.  Smallness is evidence, not proof, since
    the test-function library is finite.  bc_mode is the run's boundary
    mode; it picks the surface layer of the spacer terms.
    """
    ms = trajectory.m_samples
    hs = trajectory.h_cell_samples
    ts = trajectory.sample_times
    if len(ms) < 2:
        raise ValueError("need at least two stored samples")
    dV = geom.cell_volume
    alpha = params.alpha
    one_a2 = 1.0 + alpha**2
    phi_cells = eval_on_cells(test_fn, geom)

    lhs = 0.0
    rhs = 0.0
    for n in range(len(ms) - 1):
        dt = ts[n + 1] - ts[n]
        m_dot = (ms[n + 1] - ms[n]) / dt
        m_mid = 0.5 * (ms[n + 1] + ms[n])
        h_mid = 0.5 * (hs[n + 1] + hs[n])
        lhs += dt * dV * (dot(m_dot, phi_cells)
                          - alpha * dot(np.cross(m_mid, m_dot), phi_cells))
        torque = _torque(m_mid, h_mid, params, geom, bc_mode)
        rhs += dt * one_a2 * _stationary_value(torque, phi_cells, geom)
    resid = lhs - rhs
    return resid if signed else abs(resid)


# ---------------------------------------------------------------------------
# stationarity of candidate long-time states


def stationarity_form(u: np.ndarray, H_cells: np.ndarray, params: MaterialParams,
                      geom: DomainGeometry, test_fn: TestFunction,
                      bc_mode: str = SHARP) -> float:
    """Signed value of the six-term stationary weak form for one test
    field; bc_mode picks the surface layer of the spacer terms."""
    torque = _torque(u, H_cells, params, geom, bc_mode)
    return _stationary_value(torque, eval_on_cells(test_fn, geom), geom)


def stationarity_report(u, H_cells, params, geom,
                        test_fns: Optional[Sequence[TestFunction]] = None,
                        bc_mode: str = SHARP):
    """(name, |stationary form|) per test field; the torque m x h_tot is
    computed once for the whole library."""
    if test_fns is None:
        test_fns = test_function_library(geom)
    torque = _torque(u, H_cells, params, geom, bc_mode)
    coords = _cell_coords(geom)
    return [(fn.name, abs(_stationary_value(torque, fn(*coords), geom)))
            for fn in test_fns]


def stationarity_residual(u, H_cells, params, geom,
                          test_fns: Optional[Sequence[TestFunction]] = None,
                          bc_mode: str = SHARP) -> float:
    """Max of |stationary weak form| over the test-function library."""
    report = stationarity_report(u, H_cells, params, geom, test_fns, bc_mode)
    return max(r for _, r in report)


def omega_limit_field(u: np.ndarray, box: maxwell.BoxGeometry,
                      tol: float = maxwell.POISSON_TOL):
    """Field H with div(H + u_bar) = 0 and curl H = 0 on the box.

    H = -grad(phi) with Lap(phi) = div(u_bar); gradients of cell scalars
    are exactly curl-free on the staggered grid.  Returns face components.
    """
    u_box = maxwell.embed_cell_field(u, box)
    return maxwell.init_divfree(u_box, "magnetostatic", box, tol=tol)


def omega_limit_field_cells(u: np.ndarray, box: maxwell.BoxGeometry,
                            geom: DomainGeometry,
                            tol: float = maxwell.POISSON_TOL) -> np.ndarray:
    """omega_limit_field averaged to body cells, for the stationarity form."""
    hx, hy, hz = omega_limit_field(u, box, tol)
    return maxwell.faces_to_cells(hx, hy, hz)[box.body_slices()]
