"""Every energy functional of the model.

Volume terms (exchange, anisotropy, Maxwell field energy), the two spacer
surface energies (quadratic + biquadratic super-exchange, surface
anisotropy) volumized over the cell layers hugging the spacer, the
saturation penalty, and the assembled total.

Discretization notes:

* The exchange sum runs over interior cell faces only, one face one term,
  with no face across the spacer plane and none across the outer
  boundary.  Its exact per-cell gradient is then the homogeneous-Neumann
  7-point Laplacian used by the effective-field module.  Both take their
  face differences from one kernel, `_face_differences`.
* Magnetization-shaped fields index as (nx, ny, nz, 3) but are stored
  component-major (`_vector_field`): each component m[..., i] is one
  contiguous block, so the component-wise kernels make contiguous passes
  and a difference along an axis is a flat difference of the store at a
  fixed offset.
* The surface energies live on `cells` whole cell layers per side with
  weight 1/(2 eta), eta = cells*dz: eta/dz cells in thin-layer mode, one
  cell in sharp mode.  With one cell the layer sums are exactly the
  midpoint-rule spacer integrals of the adjacent-cell traces (footprint
  dx*dy per column): super-exchange once over the spacer, surface
  anisotropy over both faces.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .geometry import DomainGeometry
from .summation import dot, fsum

_PSD_TOL = 1e-10

SHARP = "sharp"
THIN_LAYER = "thin_layer"
BC_MODES = (SHARP, THIN_LAYER)


@dataclass(frozen=True)
class MaterialParams:
    """Material and model constants.

    k_matrix is the one symmetric positive-semidefinite 3x3 anisotropy
    matrix of the body (the anisotropy is uniform), or None.  penalty_k is
    the saturation penalty coefficient; sigma the conductivity inside the
    body.
    """

    a_exch: float
    k_matrix: Optional[np.ndarray]
    ks: float
    j1: float
    j2: float
    alpha: float
    mu0: float = 1.0
    eps0: float = 1.0
    sigma: float = 0.0
    penalty_k: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.mu0 <= 0 or self.eps0 <= 0:
            raise ValueError("mu0 and eps0 must be positive")
        for name in ("a_exch", "ks", "j1", "j2", "sigma", "penalty_k"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.k_matrix is not None:
            k = np.array(self.k_matrix, dtype=float)   # kept as a validated copy
            if k.shape != (3, 3):
                raise ValueError(f"k_matrix must be one 3x3 matrix, not shape {k.shape}")
            asym = np.max(np.abs(k - k.T))
            if asym > _PSD_TOL:
                raise ValueError(f"k_matrix not symmetric (max |K-K^T| = {asym:g})")
            eigmin = np.min(np.linalg.eigvalsh(k))
            if eigmin < -_PSD_TOL:
                raise ValueError(f"k_matrix not positive semidefinite (min eig = {eigmin:g})")
            object.__setattr__(self, "k_matrix", k)

    @property
    def speed_of_light(self) -> float:
        return 1.0 / np.sqrt(self.mu0 * self.eps0)


def uniform_k_matrix(k: np.ndarray, geom: DomainGeometry) -> np.ndarray:
    """The anisotropy matrix k as a float 3x3 copy, the form
    MaterialParams.k_matrix takes (and validates).  geom is not used."""
    return np.array(k, dtype=float)


def _scalars(tmp: Optional[np.ndarray], shape: tuple, count: int) -> list:
    """`count` scalar fields of `shape` carved from the flat float buffer
    tmp, or fresh ones when tmp is None."""
    n = math.prod(shape)
    if tmp is None:
        tmp = np.empty(count * n)
    return [tmp[i * n:(i + 1) * n].reshape(shape) for i in range(count)]


def _vector_field(shape: tuple, buf: Optional[np.ndarray] = None) -> np.ndarray:
    """A (..., 3) field of `shape` stored component-major.

    The field is the np.moveaxis view of a C-contiguous (3, ...) store, so
    it indexes like any (..., 3) array while every component a[..., i] is
    one contiguous block.  The store is carved from the flat float buffer
    buf (at least prod(shape) entries), or fresh when buf is None.
    """
    store_shape = tuple(shape[-1:]) + tuple(shape[:-1])
    if buf is None:
        store = np.empty(store_shape)
    else:
        store = buf[:math.prod(shape)].reshape(store_shape)
    # np.moveaxis(store, 0, -1), without its argument handling (~2 us)
    return store.transpose(tuple(range(1, store.ndim)) + (0,))


def _components(a: np.ndarray) -> np.ndarray:
    """The (3, ...) view of the (..., 3) field a; it is C-contiguous
    exactly when a is component-major."""
    return a.transpose((a.ndim - 1,) + tuple(range(a.ndim - 1)))


def _vector_copy(a) -> np.ndarray:
    """A component-major copy of the (..., 3) field a."""
    out = _vector_field(np.shape(a))
    np.copyto(out, a)
    return out


def _store(a: np.ndarray) -> np.ndarray:
    """The flat C-order store of the component-major field a (a view); a
    field in another layout is first copied into a `_vector_field`, so
    only a field that is read may arrive in another layout."""
    s = _components(a)
    if not s.flags.c_contiguous:
        s = _components(_vector_copy(a))
    return s.reshape(-1)


def _empty_like(a: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """An array shaped like `a` and laid out in memory as `np.empty_like(a)`
    and numpy's element-wise results lay it out (axes in decreasing order
    of |stride|), carved from the flat float buffer buf."""
    order = sorted(range(a.ndim), key=lambda i: -abs(a.strides[i]))
    store = buf[:a.size].reshape([a.shape[i] for i in order])
    return store.transpose([order.index(i) for i in range(a.ndim)])


def _face_differences(f: np.ndarray, geom: DomainGeometry, axis: int,
                      out: np.ndarray) -> tuple:
    """Differences across the exchange faces normal to `axis`.

    f is the flat store (`_store`) of a cell 3-vector field of the
    geometry, out a flat float buffer of at least f.size entries.  With S
    the flat stride of the axis, out[j] = f[j + S] - f[j] is the
    difference from cell j to its neighbour along the axis; the entries
    whose neighbour lies past the outer boundary (where the flat
    difference wraps into the next row or component) and, along z, those
    across the spacer face are set to 0, so every coupled face appears
    once and no other.  Returns (out[:f.size - S], S).
    """
    dims = (3,) + geom.field_shape()[:-1]
    S = math.prod(dims[axis + 2:])
    n = f.size
    d = out[:n - S]
    np.subtract(f[S:], f[:-S], out=d)
    faces = out[:n].reshape(dims)
    last = [slice(None)] * 4
    last[axis + 1] = -1
    faces[tuple(last)] = 0.0       # the outer boundary
    if axis == 2:
        faces[:, :, :, geom.spacer_index - 1] = 0.0   # no exchange across the spacer
    return d, S


def _dot(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Per-cell a . b of two (..., 3) fields into out, summed in component
    order (as np.sum over the last axis does); tmp is scratch shaped like
    out."""
    np.multiply(a[..., 0], b[..., 0], out=out)
    np.multiply(a[..., 1], b[..., 1], out=tmp)
    out += tmp
    np.multiply(a[..., 2], b[..., 2], out=tmp)
    out += tmp
    return out


@dataclass(frozen=True)
class EnergyBreakdown:
    exchange: float
    anisotropy: float
    maxwell_h: float
    maxwell_e: float
    surf_anis: float
    superexch_q: float
    superexch_biq: float
    penalty: float
    total: float

    COLUMNS = (
        "exchange", "anisotropy", "maxwell_h", "maxwell_e", "surf_anis",
        "superexch_q", "superexch_biq", "penalty", "total",
    )

    @staticmethod
    def assemble(exchange=0.0, anisotropy=0.0, maxwell_h=0.0, maxwell_e=0.0,
                 surf_anis=0.0, superexch_q=0.0, superexch_biq=0.0,
                 penalty=0.0) -> "EnergyBreakdown":
        total = fsum([exchange, anisotropy, maxwell_h, maxwell_e,
                      surf_anis, superexch_q, superexch_biq, penalty])
        return EnergyBreakdown(exchange, anisotropy, maxwell_h, maxwell_e,
                               surf_anis, superexch_q, superexch_biq,
                               penalty, total)

    def as_tuple(self) -> tuple:
        return tuple(getattr(self, c) for c in self.COLUMNS)


def exchange_energy(m: np.ndarray, geom: DomainGeometry, params: MaterialParams,
                    tmp: Optional[np.ndarray] = None) -> float:
    """(A/2) * sum over interior faces of |difference quotient|^2 * dV.

    The face differences are those of `laplacian_neumann`, from the one
    kernel `_face_differences`; `tmp` (a flat float array of at least
    m.size entries) holds them."""
    if params.a_exch == 0.0:
        return 0.0
    f = _store(m)
    buf = np.empty(f.size) if tmp is None else tmp
    acc = 0.0
    for axis, h in enumerate((geom.dx, geom.dy, geom.dz)):
        d, _ = _face_differences(f, geom, axis, buf)
        acc += dot(d, d) / h**2
    return 0.5 * params.a_exch * geom.cell_volume * acc


def apply_k(params: MaterialParams, m: np.ndarray, out: Optional[np.ndarray] = None,
            tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """K m per cell; zeros when no anisotropy is configured.

    `out` (not aliasing m) receives the result; `tmp` (a flat float array
    of at least m.size // 3 entries) makes the call allocation-free.
    """
    if out is None:
        out = np.empty_like(m)
    if params.k_matrix is None:
        out[...] = 0.0
        return out
    k = params.k_matrix
    (t,) = _scalars(tmp, m.shape[:-1], 1)
    for i in range(3):
        # (K_i0 m0 + K_i2 m2) + K_i1 m1 over the nonzero entries: the
        # summation order of np.einsum("ij,...j->...i"), whose zero terms
        # add nothing to a finite m, so both agree up to the sign of zero
        o = out[..., i]
        terms = [j for j in (0, 2, 1) if k[i, j] != 0.0]
        if not terms:
            o[...] = 0.0
            continue
        np.multiply(m[..., terms[0]], k[i, terms[0]], out=o)
        for j in terms[1:]:
            np.multiply(m[..., j], k[i, j], out=t)
            o += t
    return out


def anisotropy_energy(m: np.ndarray, geom: DomainGeometry, params: MaterialParams,
                      tmp: Optional[np.ndarray] = None) -> float:
    """(dV/2) sum of K m . m; `tmp` (a flat float array of at least
    4 * m.size // 3 entries) holds K m and its scratch."""
    if params.k_matrix is None:
        return 0.0
    if tmp is None:
        km = apply_k(params, m)
    else:
        km = apply_k(params, m, out=_vector_field(m.shape, tmp), tmp=tmp[m.size:])
    return 0.5 * geom.cell_volume * dot(km, m)


def layer_cells(geom: DomainGeometry, bc_mode: str) -> int:
    """Depth in cells of the surface layer on each side of the spacer:
    1 in sharp mode (the thin layer at eta = dz), eta/dz in thin-layer
    mode."""
    if bc_mode not in BC_MODES:
        raise ValueError(f"unknown bc_mode {bc_mode!r} (choose from {BC_MODES})")
    return 1 if bc_mode == SHARP else geom.eta_cells


def thin_layer_energy(m: np.ndarray, geom: DomainGeometry, params: MaterialParams,
                      split: bool = False, cells: Optional[int] = None,
                      tmp: Optional[np.ndarray] = None):
    """Volumized surface energy over the 2*cells layers hugging the spacer.

    cells defaults to the geometry's thin layer; sharp mode uses 1.  With
    split=True returns (surface-anisotropy part, quadratic part,
    biquadratic part) so the breakdown reports the same columns in both
    boundary modes.

    The layers and their reflection across the spacer are copied into
    blocks laid out like the layers of m, so the jump ml - ms is one flat
    pass laid out as numpy lays out that difference, and the wedge ml x ms
    is formed component by component in a row-major block, as `np.cross`
    forms it; the sums therefore keep the bits of those fresh arrays.
    `tmp` (a flat float array of at least 10 * 2*cells * nx * ny entries)
    makes the call allocation-free; a shorter one is replaced by a fresh
    buffer.
    """
    if cells is None:
        cells = geom.eta_cells
    ml = m[:, :, geom.layer_slice(cells), :]
    w = geom.face_area / (2.0 * cells)      # dV / (2 eta)

    e_ks = e_q = e_biq = 0.0
    if params.ks != 0.0:
        # |m x nu|^2 with nu = +-e_z is the in-plane part of |m|^2
        inplane = ml[..., :2]
        e_ks = params.ks * w * dot(inplane, inplane)
    if params.j1 != 0.0 or params.j2 != 0.0:
        p = math.prod(ml.shape[:-1])
        if tmp is None or tmp.size < 10 * p:
            tmp = np.empty(10 * p)
        flat = [tmp[k * 3 * p:(k + 1) * 3 * p] for k in range(3)]
        gl, gs, jump = (_empty_like(ml, b) for b in flat)
        np.copyto(gl, ml)
        np.copyto(gs, ml[:, :, ::-1, :])    # reflection across the spacer
        if params.j1 != 0.0:
            np.subtract(flat[0], flat[1], out=flat[2])
            e_q = 0.5 * params.j1 * w * dot(jump, jump)
        if params.j2 != 0.0:
            wedge = flat[2].reshape(ml.shape)          # row-major, as np.cross
            t = tmp[9 * p:10 * p].reshape(ml.shape[:-1])
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                np.multiply(gl[..., j], gs[..., k], out=wedge[..., i])
                np.multiply(gl[..., k], gs[..., j], out=t)
                wedge[..., i] -= t
            e_biq = params.j2 * w * dot(wedge, wedge)
    if split:
        return e_ks, e_q, e_biq
    return fsum([e_ks, e_q, e_biq])


def penalty_energy(m: np.ndarray, geom: DomainGeometry, params: MaterialParams,
                   tmp: Optional[np.ndarray] = None) -> float:
    """(k/4) * integral of (|m|^2 - 1)^2; `tmp` (a flat float array of at
    least 2 * m.size // 3 entries) holds the per-cell terms."""
    if params.penalty_k == 0.0:
        return 0.0
    dev, t = _scalars(tmp, m.shape[:-1], 2)
    _dot(m, m, dev, t)
    dev -= 1.0
    return 0.25 * params.penalty_k * geom.cell_volume * dot(dev, dev)


def maxwell_energy(em, params: MaterialParams) -> Tuple[float, float]:
    """(field energy of h, field energy of e) over the computational box,
    one sum over each store: its pads are zero."""
    dV = em.box.cell_volume
    e_h = 0.5 * dV * dot(em.h, em.h)
    e_e = (0.5 * params.eps0 / params.mu0) * dV * dot(em.e, em.e)
    return e_h, e_e


def total_energy(m: np.ndarray, em, geom: DomainGeometry, params: MaterialParams,
                 bc_mode: str = SHARP, tmp: Optional[np.ndarray] = None) -> EnergyBreakdown:
    """Assemble the full energy for the boundary mode.

    The surface energies sit on the one-cell layer in sharp mode and on
    the eta layer in thin-layer mode; the penalty term enters whenever
    params.penalty_k is nonzero, the energy whose gradient
    `effective_field.assemble_h_tot` is.  `tmp` (a flat float array of at
    least 4 * m.size // 3 entries) is the volume terms' scratch, and the
    surface terms' whenever their layers fill at most 0.45 of the body's
    depth (see `thin_layer_energy`).
    """
    e_h = e_e = 0.0
    if em is not None:
        e_h, e_e = maxwell_energy(em, params)
    sa, sq, sb = thin_layer_energy(m, geom, params, split=True,
                                   cells=layer_cells(geom, bc_mode), tmp=tmp)
    return EnergyBreakdown.assemble(
        exchange=exchange_energy(m, geom, params, tmp),
        anisotropy=anisotropy_energy(m, geom, params, tmp),
        maxwell_h=e_h,
        maxwell_e=e_e,
        surf_anis=sa,
        superexch_q=sq,
        superexch_biq=sb,
        penalty=penalty_energy(m, geom, params, tmp),
    )
