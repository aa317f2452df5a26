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

import math
from typing import Optional

import numpy as np

from .geometry import DomainGeometry
from .energetics import (SHARP, MaterialParams, _components, _dot, _face_differences,
                         _scalars, _store, _vector_field, apply_k, layer_cells)


def _add_exchange_fluxes(f: np.ndarray, geom: DomainGeometry, coef: float,
                         o: np.ndarray, tmp: np.ndarray):
    """Add coef times the Neumann Laplacian of the flat store f into the
    flat store o (both `_store`s of cell 3-vector fields of the geometry).

    Per axis the face differences of `_face_differences` (in tmp, a flat
    float array of at least f.size entries), scaled by coef/h^2, are added
    to the cell below each face and subtracted from the cell above, as two
    flat passes at the axis' stride.
    """
    for axis, h in enumerate((geom.dx, geom.dy, geom.dz)):
        flux, S = _face_differences(f, geom, axis, tmp)
        flux *= coef / h**2
        o[:-S] += flux
        o[S:] -= flux


def laplacian_neumann(m: np.ndarray, geom: DomainGeometry,
                      out: Optional[np.ndarray] = None,
                      tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """7-point Laplacian, homogeneous Neumann on the outer boundary and
    on both sides of the spacer.

    Written as the divergence of the face difference quotients with the
    spacer face left out, it is the exact gradient of the exchange face
    sum: A * laplacian_neumann(m) = -grad(exchange_energy) / dV.  The
    faces are those of `exchange_energy`; the Laplacian is the flux
    kernel `assemble_h_tot` adds its exchange field with, at coefficient
    1 on a zeroed field.

    `out` (not aliasing m) receives the Laplacian; `tmp` (a flat float
    array of at least m.size entries) holds the face differences.  With a
    component-major m and out (see `energetics._vector_field`) and tmp the
    call is allocation-free; other layouts are copied through one.
    """
    res = _component_major(out, m.shape)
    if tmp is None:
        tmp = np.empty(m.size)
    o = _store(res)
    o[...] = 0.0
    _add_exchange_fluxes(_store(m), geom, 1.0, o, tmp)
    return _deliver(res, out)


def _component_major(out: Optional[np.ndarray], shape: tuple) -> np.ndarray:
    """`out` when it is a component-major field, else a fresh one."""
    if out is not None and _components(out).flags.c_contiguous:
        return out
    return _vector_field(shape)


def _deliver(res: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """res, copied into the caller's `out` when that is another array."""
    if out is None or res is out:
        return res
    np.copyto(out, res)
    return out


def thin_layer_field(m: np.ndarray, geom: DomainGeometry, params: MaterialParams,
                     cells: Optional[int] = None,
                     out: Optional[np.ndarray] = None,
                     tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """Spacer surface field on the 2*cells layers hugging the spacer.

    Minus the gradient of `thin_layer_energy` with the same `cells` over
    the cell volume; cells defaults to the geometry's thin layer and is 1
    in sharp mode.  The field is added into `out` (a fresh zero field
    when omitted), touching only the layer planes, and `out` is returned.

    The layers of m, of their reflection across the spacer and of out are
    gathered into component-major (2*cells, nx, ny, 3) blocks (see
    `energetics._vector_field`), so every pass is contiguous and no
    operand runs backwards (numpy buffers a pass that mixes forward and
    backward strides); the terms are added in the order ks, j1, j2 and
    the block is copied back.  `tmp` (a flat float array of at least
    12 * 2*cells * nx * ny entries) makes the call allocation-free; a
    shorter one is replaced by a fresh buffer.
    """
    if cells is None:
        cells = geom.eta_cells
    sl = geom.layer_slice(cells)
    if out is None:
        out = np.zeros_like(m)
    shape = (2 * cells,) + m.shape[:2]
    p = math.prod(shape)
    if tmp is None or tmp.size < 12 * p:
        tmp = np.empty(12 * p)
    ml, ms, f = (_vector_field(shape + (3,), tmp[k * 3 * p:]) for k in range(3))
    mdotms, msms, t = _scalars(tmp[9 * p:], shape, 3)
    # the layers with z first: m[:, :, sl, :] in the index order of ml
    layer = out[:, :, sl, :].transpose(2, 0, 1, 3)
    np.copyto(ml, m[:, :, sl, :].transpose(2, 0, 1, 3))
    np.copyto(ms, ml[::-1])             # reflection across the spacer
    np.copyto(f, layer)
    w = 1.0 / (cells * geom.dz)         # 2 / (2 eta)
    if params.ks != 0.0:
        # Ks ((m.nu) nu - m) with nu = +-e_z keeps only the in-plane part
        for i in range(2):
            np.multiply(ml[..., i], params.ks * w, out=t)
            f[..., i] -= t
    if params.j1 != 0.0:
        for i in range(3):
            np.subtract(ms[..., i], ml[..., i], out=t)
            t *= params.j1 * w
            f[..., i] += t
    if params.j2 != 0.0:
        # 2 J2 ((m.ms) ms - |ms|^2 m), component by component
        _dot(ml, ms, mdotms, t)
        _dot(ms, ms, msms, t)
        c = 2.0 * params.j2 * w
        for i in range(3):
            np.multiply(mdotms, ms[..., i], out=t)
            ml[..., i] *= msms          # component i of ml is not read again
            t -= ml[..., i]
            t *= c
            f[..., i] += t
    np.copyto(layer, f)
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
    params.penalty_k is nonzero.  bc_mode picks the spacer layer.

    The field is summed in place in a component-major field: h - K m (or
    0 - K m) is written in one pass over K m, the exchange face fluxes
    scaled by A/h^2 are added straight into it (the kernel of
    `laplacian_neumann`), then the surface field on its layer planes and
    the penalty field.  `out` (not aliasing m) receives the field, through
    a copy when it is not component-major; `tmp` (a flat float array of
    at least 2 * m.size entries) makes the call allocation-free whenever
    h_cells is component-major (another layout is read through a copy)
    and the surface layers fill at most a quarter of the body's depth, so
    that the scratch blocks of `thin_layer_field` fit in it.
    """
    res = _component_major(out, m.shape)
    if tmp is None:
        tmp = np.empty(2 * m.size)
    o = _store(res)
    h = 0.0 if h_cells is None else _store(h_cells)
    if params.k_matrix is not None:
        apply_k(params, m, out=res, tmp=tmp)
        np.subtract(h, o, out=o)
    else:
        np.copyto(o, h)
    if params.a_exch != 0.0:
        _add_exchange_fluxes(_store(m), geom, params.a_exch, o, tmp)
    thin_layer_field(m, geom, params, cells=layer_cells(geom, bc_mode), out=res,
                     tmp=tmp)
    if params.penalty_k != 0.0:
        term = _vector_field(m.shape, tmp)
        penalty_field(m, params, out=term, tmp=tmp[m.size:])
        o += _store(term)
    return _deliver(res, out)
