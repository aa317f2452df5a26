"""Verifiable quantities: energy ledger, stationarity residual,
saturation deviation, and the curl-free field attached to a candidate
long-time state.
"""

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import maxwell
from .effective_field import assemble_h_tot
from .energetics import SHARP, EnergyBreakdown, MaterialParams, _dot, _scalars
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


def saturation_deviation(m: np.ndarray, tmp: Optional[np.ndarray] = None) -> float:
    """max over cells of | |m| - 1 |; `tmp` (a flat float array of at
    least 2 * m.size // 3 entries) makes the call allocation-free."""
    dev, tmp = _scalars(tmp, m.shape[:-1], 2)
    _dot(m, m, dev, tmp)
    np.sqrt(dev, out=dev)
    dev -= 1.0
    np.abs(dev, out=dev)
    return float(dev.max())


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
# stationarity of candidate long-time states


def stationarity_report(u, H_cells, params, geom,
                        test_fns: Optional[Sequence[TestFunction]] = None,
                        bc_mode: str = SHARP):
    """(name, |stationary form|) per test field; the torque m x h_tot is
    computed once for the whole library.

    Each test field is its shape written into one zeroed field at its
    direction and cleared again after the pairing, and a shape shared by
    consecutive test fields (the library's three directions) is evaluated
    once, so the values are those of a fresh test field per function,
    bit for bit.
    """
    if test_fns is None:
        test_fns = test_function_library(geom)
    torque = _torque(u, H_cells, params, geom, bc_mode)
    coords = _cell_coords(geom)
    phi = np.zeros(coords[0].shape + (3,))
    report = []
    shape = values = None
    for fn in test_fns:
        if fn.shape is not shape:
            shape, values = fn.shape, fn.shape(*coords)
        phi[..., fn.direction] = values
        report.append((fn.name, abs(_stationary_value(torque, phi, geom))))
        phi[..., fn.direction] = 0.0
    return report


def stationarity_residual(u, H_cells, params, geom,
                          test_fns: Optional[Sequence[TestFunction]] = None,
                          bc_mode: str = SHARP) -> float:
    """Max of |stationary weak form| over the test-function library."""
    report = stationarity_report(u, H_cells, params, geom, test_fns, bc_mode)
    return max(r for _, r in report)


def omega_limit_field(u: np.ndarray, box: maxwell.BoxGeometry) -> np.ndarray:
    """Field H with div(H + u_bar) = 0 and curl H = 0 on the box.

    H = -grad(phi) with Lap(phi) = div(u_bar); gradients of cell scalars
    are exactly curl-free on the staggered grid.  Returns an h store.
    """
    return maxwell.init_divfree(u, (0.0, 0.0, 0.0), box)


def omega_limit_field_cells(u: np.ndarray, box: maxwell.BoxGeometry,
                            geom: DomainGeometry) -> np.ndarray:
    """omega_limit_field averaged to the body cells (from the body face
    slabs only), for the stationarity form; geom is not read."""
    return maxwell._body_cells(omega_limit_field(u, box), box)
