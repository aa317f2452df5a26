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
* Every kernel runs on views of its operands (`_views`): a public
  kernel's `tmp` is a flat scratch, on which it builds them for the
  call, or the views its builder `_X_views` built, with its callees'.
  `dynamics._Workspace` builds a stage's and a ledger row's once.
* The surface energies live on the geometry's `layer_cells` whole cell
  layers per side with weight 1/(2 eta), eta = layer_cells*dz: eta/dz
  cells with a thin layer, one cell (the sharp layer) without.  With one
  cell the layer sums are exactly the midpoint-rule spacer integrals of
  the adjacent-cell traces (footprint dx*dy per column): super-exchange
  once over the spacer, surface anisotropy over both faces.
"""

import math
import operator
from dataclasses import dataclass, field, fields
from typing import ClassVar, Optional, Tuple

import numpy as np

from .geometry import DomainGeometry
from .summation import dot, fsum

_PSD_TOL = 1e-10
_ALIGN = 64   # bytes: a cache line, and one AVX-512 register


def _aligned_empty(shape, zero: bool = False) -> np.ndarray:
    """A float array of `shape` (an int or a tuple) whose data starts on a
    64-byte boundary, zeroed when `zero`.

    A large fresh numpy array starts 16 bytes past a page boundary, and an
    element-wise pass writing with `out=` into an array off the boundary
    runs at about half speed, so every hot buffer comes from here.  The
    array views a buffer 8 doubles longer, at most 56 bytes into it; with
    `zero` the buffer comes from np.zeros, whose pages stay lazily mapped.
    """
    size = math.prod(shape) if isinstance(shape, tuple) else int(shape)
    buf = (np.zeros if zero else np.empty)(size + _ALIGN // 8)
    start = -buf.ctypes.data % _ALIGN // 8
    return buf[start:start + size].reshape(shape)


def _kernel_scratch(geom: DomainGeometry, h_tot: bool = True) -> np.ndarray:
    """The one scratch rule of the kernels, m a field of the geometry:
    max(2 m.size, 12 per spacer-layer cell) entries for `assemble_h_tot`
    and the energies at any layer depth; with `h_tot`, m.size more in
    front for the h_tot of `llg_rhs`."""
    size = math.prod(geom.field_shape())
    layer = 2 * geom.layer_cells * geom.nx * geom.ny
    return _aligned_empty((size if h_tot else 0) + max(2 * size, 12 * layer))


def _views(build, m: np.ndarray, *operands):
    """The views a kernel runs on: its last operand when that is a tuple
    of views already built (by `build`, for the same operands), else
    build(m, *operands), built for this call."""
    tmp = operands[-1]
    return tmp if isinstance(tmp, tuple) else build(m, *operands)


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
        # written so that NaN fails each test
        for name in ("alpha", "mu0", "eps0"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("a_exch", "ks", "j1", "j2", "sigma", "penalty_k"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")
        if self.k_matrix is not None:
            k = np.array(self.k_matrix, dtype=float)   # kept as a validated copy
            if k.shape != (3, 3):
                raise ValueError(f"k_matrix must be one 3x3 matrix, not shape {k.shape}")
            if not np.isfinite(k).all():
                raise ValueError("k_matrix must be finite")
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
        tmp = _aligned_empty(count * n)
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
        store = _aligned_empty(store_shape)
    else:
        store = buf[:math.prod(shape)].reshape(store_shape)
    # np.moveaxis(store, 0, -1), without its argument handling (~2 us)
    return store.transpose(tuple(range(1, store.ndim)) + (0,))


def _components(a: np.ndarray) -> np.ndarray:
    """The (3, ...) view of the (..., 3) field a; it is C-contiguous
    exactly when a is component-major."""
    return a.transpose((a.ndim - 1,) + tuple(range(a.ndim - 1)))


def _parts(a: np.ndarray) -> tuple:
    """The three component views of the (..., 3) field a."""
    return tuple(_components(a))


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


def _face_views(f: np.ndarray, geom: DomainGeometry, axis: int, out: np.ndarray) -> tuple:
    """The operands of `_face_differences` across the exchange faces
    normal to `axis`: (f[S:], f[:-S], d, the planes zeroed, S).

    f is the flat store (`_store`) of a cell 3-vector field of the
    geometry, out a flat float buffer of at least f.size entries, d =
    out[:f.size - S] the differences and S the flat stride of the axis.
    The planes zeroed are the entries whose neighbour lies past the outer
    boundary (where the flat difference wraps into the next row or
    component) and, along z, those across the spacer face.
    """
    dims = (3,) + geom.field_shape()[:-1]
    S = math.prod(dims[axis + 2:])
    n = f.size
    faces = out[:n].reshape(dims)
    last = [slice(None)] * 4
    last[axis + 1] = -1
    zeros = (faces[tuple(last)],)                           # the outer boundary
    if axis == 2:
        zeros += (faces[:, :, :, geom.spacer_index - 1],)   # no exchange across the spacer
    return f[S:], f[:-S], out[:n - S], zeros, S


def _face_differences(views: tuple) -> np.ndarray:
    """Differences across the exchange faces of one axis, from the
    operands of `_face_views`: d[j] = f[j + S] - f[j] is the difference
    from cell j to its neighbour along the axis, and the entries of the
    zeroed planes are 0, so every coupled face appears once and no other.
    Returns d."""
    f1, f0, d, zeros, _ = views
    np.subtract(f1, f0, out=d)
    for plane in zeros:
        plane[...] = 0.0
    return d


def _dot(a, b, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Per-cell a . b of two fields given component first (`_components`,
    or the tuple of their three component views) into out, summed in
    component order (as np.sum over the last axis does); tmp is scratch
    shaped like out."""
    np.multiply(a[0], b[0], out=out)
    np.multiply(a[1], b[1], out=tmp)
    out += tmp
    np.multiply(a[2], b[2], out=tmp)
    out += tmp
    return out


def _cross(a, b, out, tmp: np.ndarray):
    """Per-cell a x b of two fields given component first (as for `_dot`)
    into the three component views out, each formed as `np.cross` forms
    it, a_j b_k - a_k b_j; tmp is scratch shaped like a component."""
    for i, o in enumerate(out):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(a[j], b[k], out=o)
        np.multiply(a[k], b[j], out=tmp)
        o -= tmp
    return out


@dataclass(frozen=True)
class EnergyBreakdown:
    """The energy terms of a state, each 0.0 unless given, and their exact
    sum `total`.  The fields, in order, are the breakdown's columns of the
    ledger (`COLUMNS`)."""

    exchange: float = 0.0
    anisotropy: float = 0.0
    maxwell_h: float = 0.0
    maxwell_e: float = 0.0
    surf_anis: float = 0.0
    superexch_q: float = 0.0
    superexch_biq: float = 0.0
    penalty: float = 0.0
    total: float = field(init=False)

    COLUMNS: ClassVar[Tuple[str, ...]]   # the field names, set below

    def __post_init__(self):
        vars(self).update(total=fsum(_energy_terms(self)))   # frozen: past __setattr__

    def as_tuple(self) -> tuple:
        """The columns' values; an attrgetter, unlike a generator over the
        columns, leaves no cyclic garbage behind a row."""
        return _energy_terms(self) + (self.total,)


EnergyBreakdown.COLUMNS = tuple(f.name for f in fields(EnergyBreakdown))
_energy_terms = operator.attrgetter(*(f.name for f in fields(EnergyBreakdown) if f.init))


def _exchange_views(m: np.ndarray, geom: DomainGeometry, tmp: np.ndarray) -> tuple:
    """Per axis, the face views of m in tmp (`_face_views`) and the
    spacing."""
    f = _store(m)
    return tuple((_face_views(f, geom, axis, tmp), h)
                 for axis, h in enumerate((geom.dx, geom.dy, geom.dz)))


def exchange_energy(m: np.ndarray, geom: DomainGeometry, params: MaterialParams,
                    tmp: Optional[np.ndarray] = None) -> float:
    """(A/2) * sum over interior faces of |difference quotient|^2 * dV.

    The face differences are those of the exchange field's fluxes
    (`effective_field._add_exchange_fluxes`), from the one kernel
    `_face_differences`; `tmp` (a flat float array of at least
    m.size entries, or the views of `_exchange_views`) holds them."""
    if params.a_exch == 0.0:
        return 0.0
    buf = _aligned_empty(m.size) if tmp is None else tmp
    acc = 0.0
    for faces, h in _views(_exchange_views, m, geom, buf):
        d = _face_differences(faces)
        acc += dot(d, d) / h**2
    return 0.5 * params.a_exch * geom.cell_volume * acc


def _k_views(m: np.ndarray, params: MaterialParams, out: np.ndarray,
             tmp: Optional[np.ndarray]) -> tuple:
    """The operands of `apply_k`: per component of out, its view and
    the (component of m, K_ij) pairs of the nonzero K_ij in the order
    j = 0, 2, 1; and a scalar field of tmp (fresh when None)."""
    k, mc = params.k_matrix, _parts(m)
    return (tuple((o, tuple((mc[j], k[i, j]) for j in (0, 2, 1) if k[i, j] != 0.0))
                  for i, o in enumerate(_parts(out))), *_scalars(tmp, m.shape[:-1], 1))


def apply_k(params: MaterialParams, m: np.ndarray, out: Optional[np.ndarray] = None,
            tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """K m per cell; zeros when no anisotropy is configured.

    `out` (not aliasing m) receives the result; `tmp` (a flat float array
    of at least m.size // 3 entries, or the views of `_k_views` for m and
    out) makes the call allocation-free.
    """
    if out is None:
        out = _empty_like(m, _aligned_empty(m.size))
    if params.k_matrix is None:
        out[...] = 0.0
        return out
    rows, t = _views(_k_views, m, params, out, tmp)
    for o, terms in rows:
        # (K_i0 m0 + K_i2 m2) + K_i1 m1 over the nonzero entries: the
        # summation order of np.einsum("ij,...j->...i"), whose zero terms
        # add nothing to a finite m, so both agree up to the sign of zero
        if not terms:
            o[...] = 0.0
            continue
        (mj, kij), *rest = terms
        np.multiply(mj, kij, out=o)
        for mj, kij in rest:
            np.multiply(mj, kij, out=t)
            o += t
    return out


def _anisotropy_views(m: np.ndarray, params: MaterialParams, tmp: np.ndarray) -> tuple:
    """K m laid out like m in tmp, and the views of `apply_k` into it
    (`_k_views`) on the scratch after it."""
    km = _empty_like(m, tmp)
    return km, _k_views(m, params, km, tmp[m.size:])


def anisotropy_energy(m: np.ndarray, geom: DomainGeometry, params: MaterialParams,
                      tmp: Optional[np.ndarray] = None) -> float:
    """(dV/2) sum of K m . m; `tmp` (a flat float array of at least
    4 * m.size // 3 entries, or the views of `_anisotropy_views`) holds
    K m, laid out like m, and its scratch."""
    if params.k_matrix is None:
        return 0.0
    if tmp is None:
        tmp = _aligned_empty(4 * m.size // 3)
    km, k_views = _views(_anisotropy_views, m, params, tmp)
    apply_k(params, m, out=km, tmp=k_views)
    return 0.5 * geom.cell_volume * dot(km, m)


def _thin_layer_energy_views(m: np.ndarray, geom: DomainGeometry, tmp: np.ndarray) -> tuple:
    """The operands of `thin_layer_energy`: the in-plane components of
    the layers of m, the layers and their reflection across the spacer,
    the three blocks laid out like the layers and their flat stores, the
    row-major wedge, the components of the first two blocks and of the
    wedge, and the wedge's scalar scratch."""
    ml = m[:, :, geom.layer_slice(), :]
    p = math.prod(ml.shape[:-1])
    flat = tuple(tmp[k * 3 * p:(k + 1) * 3 * p] for k in range(3))
    gl, gs, jump = (_empty_like(ml, b) for b in flat)
    wedge = flat[2].reshape(ml.shape)           # row-major, as np.cross
    return (ml[..., :2], ml, ml[:, :, ::-1, :], gl, gs, flat, jump, wedge, _parts(gl),
            _parts(gs), _parts(wedge), tmp[9 * p:10 * p].reshape(ml.shape[:-1]))


def thin_layer_energy(m: np.ndarray, geom: DomainGeometry, params: MaterialParams,
                      tmp: Optional[np.ndarray] = None) -> Tuple[float, float, float]:
    """Volumized surface energy over the geometry's 2*layer_cells layers
    hugging the spacer, as its three columns of the breakdown: (surface
    anisotropy, quadratic super-exchange, biquadratic super-exchange).

    The layers and their reflection across the spacer are copied into
    blocks laid out like the layers of m, so the jump ml - ms is one flat
    pass laid out as numpy lays out that difference, and the wedge ml x ms
    is formed component by component in a row-major block, as `np.cross`
    forms it (`_cross`); the sums therefore keep the bits of those fresh arrays.
    `tmp` (a flat float array of at least 10 entries per layer cell, as
    `_kernel_scratch` has, or the views of `_thin_layer_energy_views`)
    makes the call allocation-free.
    """
    if tmp is None:
        tmp = _aligned_empty(10 * 2 * geom.layer_cells * geom.nx * geom.ny)
    inplane, ml, mirror, gl, gs, flat, jump, wedge, glc, gsc, wc, t = _views(
        _thin_layer_energy_views, m, geom, tmp)
    w = geom.face_area / (2.0 * geom.layer_cells)      # dV / (2 eta)
    e_ks = e_q = e_biq = 0.0
    if params.ks != 0.0:
        # |m x nu|^2 with nu = +-e_z is the in-plane part of |m|^2
        e_ks = params.ks * w * dot(inplane, inplane)
    if params.j1 != 0.0 or params.j2 != 0.0:
        np.copyto(gl, ml)
        np.copyto(gs, mirror)
        if params.j1 != 0.0:
            np.subtract(flat[0], flat[1], out=flat[2])
            e_q = 0.5 * params.j1 * w * dot(jump, jump)
        if params.j2 != 0.0:
            _cross(glc, gsc, wc, t)
            e_biq = params.j2 * w * dot(wedge, wedge)
    return e_ks, e_q, e_biq


def _norm_views(m: np.ndarray, tmp: Optional[np.ndarray]) -> tuple:
    """Two scalar fields of tmp (fresh when None) and the components of
    m: the operands of a per-cell |m|^2 and a pass over it."""
    return (*_scalars(tmp, m.shape[:-1], 2), _parts(m))


def penalty_energy(m: np.ndarray, geom: DomainGeometry, params: MaterialParams,
                   tmp: Optional[np.ndarray] = None) -> float:
    """(k/4) * integral of (|m|^2 - 1)^2; `tmp` (a flat float array of at
    least 2 * m.size // 3 entries, or the views of `_norm_views`) holds
    the per-cell terms."""
    if params.penalty_k == 0.0:
        return 0.0
    dev, t, mc = _views(_norm_views, m, tmp)
    _dot(mc, mc, dev, t)
    dev -= 1.0
    return 0.25 * params.penalty_k * geom.cell_volume * dot(dev, dev)


def maxwell_energy(em, params: MaterialParams) -> Tuple[float, float]:
    """(field energy of h, field energy of e) over the computational box,
    one sum over each store: its pads are zero."""
    dV = em.box.cell_volume
    e_h = 0.5 * dV * dot(em.h, em.h)
    e_e = (0.5 * params.eps0 / params.mu0) * dV * dot(em.e, em.e)
    return e_h, e_e


def _energy_views(m: np.ndarray, geom: DomainGeometry, params: MaterialParams,
                  tmp: Optional[np.ndarray]) -> tuple:
    """The views of `total_energy`'s kernels on tmp (fresh when None): the
    layer energies', the exchange's, the anisotropy's (None without it) and
    the penalty's `_norm_views`, which a row hands `saturation_deviation` too."""
    if tmp is None:
        tmp = _kernel_scratch(geom, h_tot=False)
    return (_thin_layer_energy_views(m, geom, tmp), _exchange_views(m, geom, tmp),
            None if params.k_matrix is None else _anisotropy_views(m, params, tmp),
            _norm_views(m, tmp))


def total_energy(m: np.ndarray, em, geom: DomainGeometry, params: MaterialParams,
                 tmp: Optional[np.ndarray] = None) -> EnergyBreakdown:
    """Assemble the full energy.

    The surface energies sit on the geometry's spacer layer; the penalty
    term enters whenever params.penalty_k is nonzero, the energy whose
    gradient `effective_field.assemble_h_tot` is.  `tmp` (a flat float
    array of at least max(4 * m.size // 3, 10 per layer cell) entries, as
    `_kernel_scratch` has, or the views of `_energy_views`) makes the call
    allocation-free.
    """
    layer, exchange, anisotropy, norms = _views(_energy_views, m, geom, params, tmp)
    e_h = e_e = 0.0
    if em is not None:
        e_h, e_e = maxwell_energy(em, params)
    sa, sq, sb = thin_layer_energy(m, geom, params, tmp=layer)
    return EnergyBreakdown(
        exchange=exchange_energy(m, geom, params, exchange),
        anisotropy=anisotropy_energy(m, geom, params, anisotropy),
        maxwell_h=e_h,
        maxwell_e=e_e,
        surf_anis=sa,
        superexch_q=sq,
        superexch_biq=sb,
        penalty=penalty_energy(m, geom, params, norms),
    )
