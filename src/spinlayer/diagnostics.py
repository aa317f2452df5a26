"""Verifiable quantities: energy ledger rows, stationarity residual,
saturation deviation, and the curl-free field attached to a candidate
long-time state.
"""

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import maxwell
from .effective_field import assemble_h_tot
from .energetics import (EnergyBreakdown, MaterialParams, _aligned_empty, _components,
                         _cross, _dot, _kernel_scratch, _norm_views, _scalars, _views)
from .geometry import DomainGeometry
from .summation import dot

CSV_COLUMNS = (("t",) + EnergyBreakdown.COLUMNS
               + ("dissipation_integral", "ohmic_integral", "source_integral",
                  "saturation_dev", "divergence_drift"))


@dataclass
class LedgerRow:
    """One row of the energy ledger at time t: the energy breakdown, the
    integrals accumulated since t = 0,

    dissipation: (alpha/(1+alpha^2)) * int |dm/dt|^2
    ohmic:       (sigma/mu0) * int |e|^2 over the body
    source:      (sigma/mu0) * int e.f over the body

    and the saturation deviation and divergence drift of the state.
    """

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


def energy_inequality_residual(first: LedgerRow, row: LedgerRow) -> float:
    """LHS - RHS of the dissipation inequality at the time T of `row`,
    scored against the run's first row (t = 0):

        E(T) + dissipation + Ohmic + source - E(0).

    Nonpositive (or below tolerance) means the inequality holds.
    """
    return (row.breakdown.total + row.dissipation + row.ohmic + row.source
            - first.breakdown.total)


def saturation_deviation(m: np.ndarray, tmp: Optional[np.ndarray] = None) -> float:
    """max over cells of | |m| - 1 |; `tmp` (a flat float array of at
    least 2 * m.size // 3 entries, or the views of `_norm_views`, as a
    ledger row shares them with the penalty energy) makes the call
    allocation-free."""
    dev, t, parts = _views(_norm_views, m, tmp)
    _dot(parts, parts, dev, t)
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
    shape: Callable          # (x, y, z) -> values broadcastable against x, y, z
    direction: int           # 0, 1, 2

    def __call__(self, x, y, z) -> np.ndarray:
        out = np.zeros(np.broadcast(x, y, z).shape + (3,))
        out[..., self.direction] = self.shape(x, y, z)
        return out


def test_function_library(geom: DomainGeometry) -> List[TestFunction]:
    """Nine low-order scalar shapes times the three axis directions.  A
    shape reads only the coordinates it depends on, so on the axis
    coordinates of `stationarity_report` it makes no full-size array
    unless it depends on all three."""
    lx, ly = geom.base_lx, geom.base_ly
    lz = geom.l_minus + geom.l_plus
    z0 = -geom.l_minus
    kx, ky, kz = np.pi / lx, np.pi / ly, np.pi / lz

    shapes = [
        ("one", lambda x, y, z: 1.0),
        ("x", lambda x, y, z: x),
        ("y", lambda x, y, z: y),
        ("z", lambda x, y, z: z),
        ("sin_x", lambda x, y, z: np.sin(kx * x)),
        ("sin_y", lambda x, y, z: np.sin(ky * y)),
        ("sin_z", lambda x, y, z: np.sin(kz * (z - z0))),
        ("cos_xy", lambda x, y, z: np.cos(kx * x) * np.cos(ky * y)),
        ("xyz", lambda x, y, z: x * y * z),
    ]
    return [TestFunction(f"{sname}.e{dname}", s, d)
            for sname, s in shapes for d, dname in enumerate("xyz")]


# ---------------------------------------------------------------------------
# quadrature geometry helpers


def _axis_coords(geom: DomainGeometry):
    """The cell-center coordinates as three broadcastable axis vectors,
    x as (nx, 1, 1), y as (1, ny, 1) and z as (1, 1, nz)."""
    x = (np.arange(geom.nx) + 0.5) * geom.dx
    y = (np.arange(geom.ny) + 0.5) * geom.dy
    z = geom.z_centers()
    return x[:, None, None], y[None, :, None], z[None, None, :]


def _torque(m: np.ndarray, h_cells: np.ndarray, params: MaterialParams,
            geom: DomainGeometry) -> np.ndarray:
    """m x h_tot, the test-field-free part of the stationary form, with
    the effective field of the stepper.

    The torque overwrites the component-major h_tot F of
    `assemble_h_tot`: components 0 and 1 are formed in the scratch of the
    assembly (`_kernel_scratch`) and copied in after component 2, which
    reads only F_0 and F_1, has been formed in place.  Each is formed as
    `np.cross` forms it, m_j F_k - m_k F_j (`_cross`), so the torque has
    the bits of np.cross(m, F).
    """
    tmp = _kernel_scratch(geom, h_tot=False)
    f = assemble_h_tot(m, h_cells, geom, params, tmp=tmp)
    t0, t1, t = _scalars(tmp, m.shape[:-1], 3)
    _cross(_components(m), _components(f), (t0, t1, f[..., 2]), t)
    np.copyto(f[..., 0], t0)
    np.copyto(f[..., 1], t1)
    return f


def _stationary_value(torque: np.ndarray, s: np.ndarray, direction: int,
                      geom: DomainGeometry) -> float:
    """Signed stationary form -dV sum (m x h_tot) . phi of the test field
    phi = s e_direction: one torque component paired with the cell
    samples s of the shape.

    By summation by parts the exchange part, -A dV sum (m x Lap m) . phi,
    is the face sum A dV sum_f (m_f x D_f m) . D_f phi over the interior
    faces off the spacer, with the test field's cell samples differenced
    across each face; the spacer pairing -dV sum (m x h_surf) . phi
    equals the spacer integrals of the nonlinear condition.  Residuals
    then measure model error rather than quadrature mismatch.
    """
    return -geom.cell_volume * dot(torque[..., direction], s)


# ---------------------------------------------------------------------------
# stationarity of candidate long-time states


def stationarity_report(u, H_cells, params, geom,
                        test_fns: Optional[Sequence[TestFunction]] = None):
    """(name, |stationary form|) per test field; the torque m x h_tot is
    computed once for the whole library.

    Each test field s e_d is paired as its one torque component against
    the shape's cell samples: the shape is evaluated on the axis
    coordinates (`_axis_coords`) into one scalar buffer, once for a run
    of consecutive test fields that share it (the library's three
    directions), so no vector test field is formed.
    """
    if test_fns is None:
        test_fns = test_function_library(geom)
    torque = _torque(u, H_cells, params, geom)
    coords = _axis_coords(geom)
    s = _aligned_empty(torque.shape[:-1])
    report = []
    shape = None
    for fn in test_fns:
        if fn.shape is not shape:
            shape = fn.shape
            np.copyto(s, shape(*coords))
        report.append((fn.name, abs(_stationary_value(torque, s, fn.direction, geom))))
    return report


def stationarity_residual(u, H_cells, params, geom,
                          test_fns: Optional[Sequence[TestFunction]] = None) -> float:
    """Max of |stationary weak form| over the test-function library."""
    report = stationarity_report(u, H_cells, params, geom, test_fns)
    return max(r for _, r in report)


def omega_limit_field(u: np.ndarray, box: maxwell.BoxGeometry,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """Field H with div(H + u_bar) = 0 and curl H = 0 on the box.

    H = -grad(phi) with Lap(phi) = div(u_bar); gradients of cell scalars
    are exactly curl-free on the staggered grid.  Returns an h store:
    `out` (its pads zero), written in place, or a fresh one.
    """
    return maxwell.init_divfree(u, (0.0, 0.0, 0.0), box, out=out)


def omega_limit_field_cells(u: np.ndarray, box: maxwell.BoxGeometry,
                            geom: DomainGeometry,
                            out: Optional[np.ndarray] = None) -> np.ndarray:
    """omega_limit_field, solved into the h store `out` if given, averaged
    to the body cells (from the body face slabs only), for the
    stationarity form; geom is not read."""
    return maxwell.faces_to_cells(*maxwell._body_faces(omega_limit_field(u, box, out), box))
