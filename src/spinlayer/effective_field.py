"""Effective-field assembly.

h_tot = h - K m + A*Lap(m) + the spacer surface field + the saturation
penalty field.  Every term is minus the per-cell gradient of its energy
in `energetics` over the cell volume; the penalty term is zero when
params.penalty_k is.

The surface field lives on the geometry's `layer_cells` cell layers on
each side of the spacer: eta/dz with a thin layer, one without.  The
one-cell layer is the sharp spacer, the thin layer at eta = dz; on unit
fields the tangential part of its surface field is the nonlinear spacer
condition imposed one cell from the spacer.

The exchange contribution carries a plus sign on the Laplacian: with the
energy (A/2) int |grad m|^2, minus the energy gradient is +A Lap m, and
that is the sign under which the assembled field drives a dissipative
flow.
"""

import math
from typing import Optional

import numpy as np

from .geometry import DomainGeometry
from .energetics import (MaterialParams, _aligned_empty, _components, _dot, _face_differences,
                         _face_views, _k_views, _kernel_scratch, _parts, _scalars,
                         _store, _vector_field, _views, apply_k)


def _flux_views(f: np.ndarray, geom: DomainGeometry, coef: float, o: np.ndarray,
                tmp: np.ndarray) -> tuple:
    """The operands of `_add_exchange_fluxes`, per axis: the face views of
    the flat store f in tmp (`_face_views`; a flat float array of at least
    f.size entries), the ranges of the flat store o below and above the
    faces, and coef/h^2."""
    views = []
    for axis, h in enumerate((geom.dx, geom.dy, geom.dz)):
        faces = _face_views(f, geom, axis, tmp)
        S = faces[-1]
        views.append((faces, o[:-S], o[S:], coef / h**2))
    return tuple(views)


def _add_exchange_fluxes(views: tuple):
    """Add coef times the Neumann Laplacian of a field into o (both flat
    stores of cell 3-vector fields of the geometry; `_flux_views`).

    The Laplacian is the 7-point one, homogeneous Neumann on the outer
    boundary and on both sides of the spacer, written as the divergence
    of the face difference quotients with the spacer face left out: the
    faces of `exchange_energy`, so A times it is the exact gradient
    -grad(exchange_energy)/dV.  Per axis the face differences of
    `_face_differences`, scaled by coef/h^2, are added to the cell below
    each face and subtracted from the cell above, as two flat passes at
    the axis' stride.
    """
    for faces, below, above, c in views:
        flux = _face_differences(faces)
        flux *= c
        below += flux
        above -= flux


def _thin_layer_views(m: np.ndarray, geom: DomainGeometry, out: np.ndarray,
                      tmp: np.ndarray) -> tuple:
    """The operands of `thin_layer_field`'s passes: the layers of m and of
    out with z first, the blocks ml, ms (the reflection across the
    spacer) and f in tmp, with the layers of ml reversed; the flat stores
    of the three blocks and of the scratch s after them (three blocks'
    components long), and the first two components' range of ml, f and
    s; the components of ml and ms, three scalar fields of s and the
    weight 1/eta."""
    cells = geom.layer_cells
    sl = geom.layer_slice()
    shape = (2 * cells,) + m.shape[:2]
    p = math.prod(shape)
    ml, ms, f = (_vector_field(shape + (3,), tmp[k * 3 * p:]) for k in range(3))
    flats = tuple(tmp[k * 3 * p:(k + 1) * 3 * p] for k in range(4))
    return (m[:, :, sl, :].transpose(2, 0, 1, 3), out[:, :, sl, :].transpose(2, 0, 1, 3),
            ml, ms, f, ml[::-1], flats, tuple(flats[k][:2 * p] for k in (0, 2, 3)),
            _parts(ml), _parts(ms), _scalars(flats[3], shape, 3), 1.0 / (cells * geom.dz))


def thin_layer_field(m: np.ndarray, geom: DomainGeometry, params: MaterialParams,
                     out: Optional[np.ndarray] = None,
                     tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """Spacer surface field on the geometry's 2*layer_cells layers hugging
    the spacer.

    Minus the gradient of `thin_layer_energy` over the cell volume.  The
    field is added into `out` (a fresh zero field when omitted), touching
    only the layer planes, and `out` is returned.

    The layers of m, of their reflection across the spacer and of out are
    gathered into component-major (2*layer_cells, nx, ny, 3) blocks (see
    `energetics._vector_field`), so every pass is contiguous and no
    operand runs backwards (numpy buffers a pass that mixes forward and
    backward strides); the terms are added in the order ks, j1, j2, each
    pass that is alike for the components it acts on taken once over
    their blocks, and the block is copied back.  `tmp` (a flat float array of at least
    12 entries per layer cell, as `energetics._kernel_scratch` has, or the
    views of `_thin_layer_views` for m and out) makes the call
    allocation-free.
    """
    if out is None:
        out = np.zeros_like(m)
    if tmp is None:
        tmp = _aligned_empty(12 * 2 * geom.layer_cells * m.shape[0] * m.shape[1])
    (src, layer, ml, ms, f, reversed_ml, (fl_ml, fl_ms, fl_f, s), (ml2, f2, s2), mlc, msc,
     (mdotms, msms, t), w) = _views(_thin_layer_views, m, geom, out, tmp)
    np.copyto(ml, src)
    np.copyto(ms, reversed_ml)          # reflection across the spacer
    np.copyto(f, layer)
    if params.ks != 0.0:
        # Ks ((m.nu) nu - m) with nu = +-e_z keeps only the in-plane part:
        # components 0 and 1, one pass over their blocks
        np.multiply(ml2, params.ks * w, out=s2)
        f2 -= s2
    if params.j1 != 0.0:
        np.subtract(fl_ms, fl_ml, out=s)
        s *= params.j1 * w
        fl_f += s
    if params.j2 != 0.0:
        # 2 J2 ((m.ms) ms - |ms|^2 m): the products component by component,
        # in place in ms and ml (neither is read again), then one pass each
        _dot(mlc, msc, mdotms, t)
        _dot(msc, msc, msms, t)
        for mi, msi in zip(mlc, msc):
            msi *= mdotms
            mi *= msms
        fl_ms -= fl_ml
        fl_ms *= 2.0 * params.j2 * w
        fl_f += fl_ms
    np.copyto(layer, f)
    return out


def _penalty_views(m: np.ndarray, out: np.ndarray, tmp: Optional[np.ndarray]) -> tuple:
    """A scalar field of tmp (fresh when None) and the components of m
    and of out."""
    return (*_scalars(tmp, m.shape[:-1], 1), _parts(m), _parts(out))


def penalty_field(m: np.ndarray, params: MaterialParams,
                  out: Optional[np.ndarray] = None,
                  tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """-k (|m|^2 - 1) m per cell.

    `out` (not aliasing m) receives the field; `tmp` (a flat float array of
    at least m.size // 3 entries, or the views of `_penalty_views` for m
    and out) makes the call allocation-free.
    """
    if out is None:
        out = np.empty_like(m)
    p, mc, oc = _views(_penalty_views, m, out, tmp)
    _dot(mc, mc, p, oc[0])              # out is scratch until written
    p -= 1.0
    p *= -params.penalty_k
    for mi, oi in zip(mc, oc):
        np.multiply(p, mi, out=oi)
    return out


def _h_tot_views(m: np.ndarray, geom: DomainGeometry, params: MaterialParams,
                 out: np.ndarray, tmp: np.ndarray) -> tuple:
    """The operands of `assemble_h_tot`'s passes: out component first, the
    views of `apply_k` (None without anisotropy), the exchange fluxes
    (`_flux_views`, none when A is zero), the views of `thin_layer_field`
    and, for a nonzero penalty, the field of tmp the penalty field is formed
    in, its views on the scratch after it and the flat stores of out and of it."""
    penalty = None
    if params.penalty_k != 0.0:
        term = _vector_field(m.shape, tmp)
        penalty = (term, _penalty_views(m, term, tmp[m.size:]), _store(out), _store(term))
    return (_components(out),
            None if params.k_matrix is None else _k_views(m, params, out, tmp),
            _flux_views(_store(m), geom, params.a_exch, _store(out), tmp)
            if params.a_exch != 0.0 else (), _thin_layer_views(m, geom, out, tmp), penalty)


def assemble_h_tot(m: np.ndarray, h_cells: Optional[np.ndarray],
                   geom: DomainGeometry, params: MaterialParams,
                   out: Optional[np.ndarray] = None,
                   tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """Volume effective field at frozen h.

    h_cells (the Maxwell h on m cells; None means h = 0) plus minus the
    per-cell gradient of the non-Maxwell terms of `total_energy` over the
    cell volume, the saturation penalty included whenever
    params.penalty_k is nonzero; the spacer terms act on the geometry's
    layer.

    The field is summed in place in a component-major field: h - K m (or
    0 - K m) is written in one pass over K m, the exchange face fluxes
    scaled by A/h^2 are added straight into it (`_add_exchange_fluxes`;
    with A = 1 and no other term the field is the Neumann Laplacian of
    m), then the surface field on its layer planes and the penalty
    field.  `out` (a component-major field, not aliasing m; fresh when
    omitted) receives the field; another layout raises ValueError.  `tmp` (a flat float array of at least max(2 * m.size,
    12 per layer cell) entries, `energetics._kernel_scratch`, or the views
    of `_h_tot_views` for m and out) makes the call allocation-free
    whenever m is component-major (m in another layout is read through a
    copy); h_cells is read in place in any layout.
    """
    if out is None:
        out = _vector_field(m.shape)
    elif not _components(out).flags.c_contiguous:
        raise ValueError("out must be a component-major field "
                         "(energetics._vector_field)")
    if tmp is None:
        tmp = _kernel_scratch(geom, h_tot=False)
    o, k_views, fluxes, layer, penalty = _views(_h_tot_views, m, geom, params, out, tmp)
    h = 0.0 if h_cells is None else _components(h_cells)
    if params.k_matrix is not None:
        apply_k(params, m, out=out, tmp=k_views)
        np.subtract(h, o, out=o)
    else:
        np.copyto(o, h)
    _add_exchange_fluxes(fluxes)
    thin_layer_field(m, geom, params, out=out, tmp=layer)
    if penalty is not None:
        term, term_views, fo, fterm = penalty
        penalty_field(m, params, out=term, tmp=term_views)
        fo += fterm
    return out
