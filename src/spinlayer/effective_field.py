"""Effective-field assembly.

h_tot = h - K m + A*Lap(m) + the spacer surface field, plus the
saturation penalty field under the penalized constraint.  Every term is
minus the per-cell gradient of its energy in `energetics` over the cell
volume, in both boundary modes.

The surface field lives on the cell layers hugging the spacer: eta/dz
cells per side in thin-layer mode, one cell per side in sharp mode.
Sharp mode is the thin layer at eta = dz; on unit fields the tangential
part of its surface field is the nonlinear spacer condition imposed one
cell from the spacer.

The exchange contribution carries a plus sign on the Laplacian: with the
energy (A/2) int |grad m|^2, minus the energy gradient is +A Lap m, and
that is the sign under which the assembled field drives a dissipative
flow.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import DomainGeometry
from .energetics import MaterialParams, apply_k, layer_cells

SHARP = "sharp"
THIN_LAYER = "thin_layer"
PROJECTED = "projected"
PENALIZED = "penalized"


@dataclass
class FieldAssembly:
    """Mode flags plus the Maxwell h already interpolated to m cells."""

    mode: str = SHARP                   # SHARP or THIN_LAYER
    constraint: str = PROJECTED         # PROJECTED or PENALIZED
    h_field: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.mode not in (SHARP, THIN_LAYER):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.constraint not in (PROJECTED, PENALIZED):
            raise ValueError(f"unknown constraint {self.constraint!r}")


def laplacian_neumann(m: np.ndarray, geom: DomainGeometry) -> np.ndarray:
    """7-point Laplacian, homogeneous Neumann on the outer boundary and
    on both sides of the spacer.

    Written as the divergence of the face difference quotients with the
    spacer face left out, it is the exact gradient of the exchange face
    sum: A * laplacian_neumann(m) = -grad(exchange_energy) / dV.
    """
    lap = np.zeros_like(m)
    s = geom.spacer_index
    for axis, h in ((0, geom.dx), (1, geom.dy), (2, geom.dz)):
        lo = [slice(None)] * m.ndim
        hi = [slice(None)] * m.ndim
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        flux = m[hi] - m[lo]
        flux *= 1.0 / h**2
        if axis == 2:
            flux[:, :, s - 1] = 0.0   # no exchange across the spacer
        lap[lo] += flux
        lap[hi] -= flux
    return lap


def thin_layer_field(m: np.ndarray, geom: DomainGeometry, params: MaterialParams,
                     cells: Optional[int] = None,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """Spacer surface field on the 2*cells layers hugging the spacer.

    Minus the gradient of `thin_layer_energy` with the same `cells` over
    the cell volume; cells defaults to the geometry's thin layer and is 1
    in sharp mode.  The field is added into `out` (a fresh zero field
    when omitted), touching only the layer planes, and `out` is returned.
    """
    if cells is None:
        cells = geom.eta_cells
    sl = geom.layer_slice(cells)
    if out is None:
        out = np.zeros_like(m)
    ml = m[:, :, sl, :]
    ms = ml[:, :, ::-1, :]              # reflection across the spacer
    f = out[:, :, sl, :]
    w = 1.0 / (cells * geom.dz)         # 2 / (2 eta)
    if params.ks != 0.0:
        # Ks ((m.nu) nu - m) with nu = +-e_z keeps only the in-plane part
        f[..., :2] -= (params.ks * w) * ml[..., :2]
    if params.j1 != 0.0:
        f += (params.j1 * w) * (ms - ml)
    if params.j2 != 0.0:
        mdotms = np.sum(ml * ms, axis=-1, keepdims=True)
        msms = np.sum(ms * ms, axis=-1, keepdims=True)
        f += (2.0 * params.j2 * w) * (mdotms * ms - msms * ml)
    return out


def penalty_field(m: np.ndarray, params: MaterialParams) -> np.ndarray:
    """-k (|m|^2 - 1) m per cell."""
    dev = np.sum(m * m, axis=-1) - 1.0
    return -params.penalty_k * dev[..., None] * m


def assemble_h_tot(m: np.ndarray, geom: DomainGeometry, params: MaterialParams,
                   assembly: FieldAssembly) -> np.ndarray:
    """Volume effective field for the active mode, h frozen.

    h plus minus the per-cell gradient of the non-Maxwell terms of
    `total_energy` over the cell volume, in both boundary modes and both
    constraint modes.
    """
    if assembly.h_field is not None:
        h_tot = assembly.h_field.copy()
    else:
        h_tot = np.zeros_like(m)
    if params.k_matrix is not None:
        h_tot -= apply_k(params, m)
    if params.a_exch != 0.0:
        h_tot += params.a_exch * laplacian_neumann(m, geom)
    thin_layer_field(m, geom, params, cells=layer_cells(geom, assembly.mode),
                     out=h_tot)
    if assembly.constraint == PENALIZED and params.penalty_k != 0.0:
        h_tot += penalty_field(m, params)
    return h_tot
