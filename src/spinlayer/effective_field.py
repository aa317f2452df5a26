"""Effective-field assembly.

h_tot = h - K m + A*Lap(m) + the spacer surface field + the saturation
penalty field.  Every term is minus the per-cell gradient of its energy
in `energetics` over the cell volume, in both boundary modes; the
penalty term is zero when params.penalty_k is.

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

from typing import Optional

import numpy as np

from .geometry import DomainGeometry
from .energetics import (SHARP, MaterialParams, _dot, _scalars, apply_k,
                         layer_cells)


def laplacian_neumann(m: np.ndarray, geom: DomainGeometry,
                      out: Optional[np.ndarray] = None,
                      tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """7-point Laplacian, homogeneous Neumann on the outer boundary and
    on both sides of the spacer.

    Written as the divergence of the face difference quotients with the
    spacer face left out, it is the exact gradient of the exchange face
    sum: A * laplacian_neumann(m) = -grad(exchange_energy) / dV.

    `out` (not aliasing m) receives the Laplacian; `tmp` (a flat float
    array of at least m.size entries) holds the face differences.  With
    both the call is allocation-free.
    """
    if out is None:
        out = np.empty_like(m)
    if tmp is None:
        tmp = np.empty(m.size)
    out[...] = 0.0
    s = geom.spacer_index
    for axis, h in ((0, geom.dx), (1, geom.dy), (2, geom.dz)):
        lo = [slice(None)] * m.ndim
        hi = [slice(None)] * m.ndim
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        m_hi = m[hi]
        flux = tmp[:m_hi.size].reshape(m_hi.shape)
        np.subtract(m_hi, m[lo], out=flux)
        flux *= 1.0 / h**2
        if axis == 2:
            flux[:, :, s - 1] = 0.0   # no exchange across the spacer
        out[lo] += flux
        out[hi] -= flux
    return out


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
        # 2 J2 ((m.ms) ms - |ms|^2 m), component by component
        mdotms, msms, t = _scalars(None, ml.shape[:-1], 3)
        _dot(ml, ms, mdotms, t)
        _dot(ms, ms, msms, t)
        c = 2.0 * params.j2 * w
        for i in range(3):
            np.multiply(mdotms, ms[..., i], out=t)
            t -= msms * ml[..., i]
            t *= c
            f[..., i] += t
    return out


def penalty_field(m: np.ndarray, params: MaterialParams,
                  out: Optional[np.ndarray] = None,
                  tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """-k (|m|^2 - 1) m per cell.

    `out` (not aliasing m) receives the field; `tmp` (a flat float array of
    at least m.size // 3 entries) makes the call allocation-free.
    """
    if out is None:
        out = np.empty_like(m)
    (p,) = _scalars(tmp, m.shape[:-1], 1)
    _dot(m, m, p, out[..., 0])           # out is scratch until written
    p -= 1.0
    p *= -params.penalty_k
    for i in range(3):
        np.multiply(p, m[..., i], out=out[..., i])
    return out


def assemble_h_tot(m: np.ndarray, h_cells: Optional[np.ndarray],
                   geom: DomainGeometry, params: MaterialParams,
                   bc_mode: str = SHARP, out: Optional[np.ndarray] = None,
                   tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """Volume effective field at frozen h.

    h_cells (the Maxwell h on m cells; None means h = 0) plus minus the
    per-cell gradient of the non-Maxwell terms of `total_energy` over the
    cell volume, the saturation penalty included whenever
    params.penalty_k is nonzero.  bc_mode picks the spacer layer.  `out`
    (not aliasing m) receives the field; `tmp` (a flat float array of at
    least 2 * m.size entries) makes the call allocation-free apart from
    layer-sized surface-field temporaries.
    """
    if out is None:
        out = np.empty_like(m)
    if tmp is None:
        tmp = np.empty(2 * m.size)
    term = tmp[:m.size].reshape(m.shape)
    rest = tmp[m.size:]
    if h_cells is not None:
        np.copyto(out, h_cells)
    else:
        out[...] = 0.0
    if params.k_matrix is not None:
        out -= apply_k(params, m, out=term, tmp=rest)
    if params.a_exch != 0.0:
        laplacian_neumann(m, geom, out=term, tmp=rest)
        term *= params.a_exch
        out += term
    thin_layer_field(m, geom, params, cells=layer_cells(geom, bc_mode), out=out)
    if params.penalty_k != 0.0:
        out += penalty_field(m, params, out=term, tmp=rest)
    return out
