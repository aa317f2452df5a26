"""Maxwell solver on a truncated box around the magnetic body.

Staggered placement: e on cell edges, h on cell faces, so the two
discrete curls are exact adjoints and div(curl e) vanishes identically at
cell centers.  The h update carries the magnetization rate (zero outside
the body), which makes div(h + m_bar) a conserved quantity of the
coupled step up to roundoff.

Storage is the common-index Yee array: e and h are each one C-contiguous
"store" of shape (3, nx+1, ny+1, nz+1), component c of a field in
store[c].  An edge component has n cells along its own axis and n + 1
nodes along the other two, a face component n + 1 nodes along its own
axis and n cells along the others; the store entries beyond a
component's shape (one pad plane per short axis) are zero and stay zero.
Because every component shares one index grid, a difference along an axis
is a difference at a fixed offset (S0, S1 or 1) of the flattened store,
so both curls are one kernel (`_curl`) of whole-array contiguous passes,
and the leapfrog updates are single passes over the stores.

The conduction term sigma (e + f) 1_Omega is integrated semi-implicitly,
which is unconditionally stable in sigma and keeps the Ohmic dissipation
sign-definite.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.fft import rfft

from .errors import CFLViolation, NonFinite, SolverDiverged
from .geometry import DomainGeometry
from .energetics import MaterialParams, _vector_field
from .summation import dot, esum

PEC = "pec"
MUR1 = "mur1"
BOUNDARIES = (PEC, MUR1)

# kinds of the initial h and of the applied current
ZERO = "zero"
MAGNETOSTATIC = "magnetostatic"
H0_KINDS = (ZERO, MAGNETOSTATIC)
PULSE = "pulse"
CURRENTS = (ZERO, PULSE)

POISSON_TOL = 1e-10


@dataclass(frozen=True)
class BoxGeometry:
    """Computational box; the body occupies cells [o:o+n] along each axis."""

    nx: int
    ny: int
    nz: int
    dx: float
    dy: float
    dz: float
    ox: int
    oy: int
    oz: int
    mx: int   # body cell counts
    my: int
    mz: int

    @property
    def cell_volume(self) -> float:
        return self.dx * self.dy * self.dz

    def body_slices(self) -> tuple:
        return (slice(self.ox, self.ox + self.mx),
                slice(self.oy, self.oy + self.my),
                slice(self.oz, self.oz + self.mz))


def make_box(geom: DomainGeometry, padding: int = 8) -> BoxGeometry:
    if padding < 1:
        raise ValueError("box padding must be at least 1 cell")
    return BoxGeometry(
        nx=geom.nx + 2 * padding,
        ny=geom.ny + 2 * padding,
        nz=geom.nz_total + 2 * padding,
        dx=geom.dx, dy=geom.dy, dz=geom.dz,
        ox=padding, oy=padding, oz=padding,
        mx=geom.nx, my=geom.ny, mz=geom.nz_total,
    )


def edge_shapes(box: BoxGeometry) -> tuple:
    n = (box.nx, box.ny, box.nz)
    return ((n[0], n[1] + 1, n[2] + 1),
            (n[0] + 1, n[1], n[2] + 1),
            (n[0] + 1, n[1] + 1, n[2]))


def face_shapes(box: BoxGeometry) -> tuple:
    n = (box.nx, box.ny, box.nz)
    return ((n[0] + 1, n[1], n[2]),
            (n[0], n[1] + 1, n[2]),
            (n[0], n[1], n[2] + 1))


def store_shape(box: BoxGeometry) -> tuple:
    """Shape of an e or h store: three components on the node grid."""
    return (3, box.nx + 1, box.ny + 1, box.nz + 1)


def _strides(box: BoxGeometry) -> tuple:
    """Flat offsets of one step along x, y and z in a store component."""
    return ((box.ny + 1) * (box.nz + 1), box.nz + 1, 1)


def edge_views(store: np.ndarray, box: BoxGeometry) -> tuple:
    """The three edge components of an e store, as views."""
    n = (box.nx, box.ny, box.nz)
    return tuple(store[c][_along(c, slice(0, n[c]))] for c in range(3))


def face_views(store: np.ndarray, box: BoxGeometry) -> tuple:
    """The three face components of an h store, as views."""
    n = (box.nx, box.ny, box.nz)
    return tuple(store[c][tuple(slice(None) if a == c else slice(0, n[a])
                                for a in range(3))]
                 for c in range(3))


def _along(axis: int, index) -> tuple:
    """Index of a 3-D array taking `index` (an int or a slice) along axis."""
    sl = [slice(None)] * 3
    sl[axis] = index
    return tuple(sl)


def _body_ranges(box: BoxGeometry) -> list:
    """Per axis, the index ranges (cells, nodes, inner nodes) of the body:
    its cells (and the edges along the axis between its nodes), all its
    nodes, and its interior nodes."""
    return [(slice(o, o + m), slice(o, o + m + 1), slice(o + 1, o + m))
            for o, m in ((box.ox, box.mx), (box.oy, box.my), (box.oz, box.mz))]


def _body_edge_slabs(box: BoxGeometry) -> tuple:
    """Index slabs of the edges whose midpoint lies strictly inside the body.

    An edge along an axis is inside when its cell index along that axis is
    a body cell and its node indices along the other two axes are interior
    body nodes, so each component's body edges form one rectangular block.
    """
    (cx, _, ix), (cy, _, iy), (cz, _, iz) = _body_ranges(box)
    return ((cx, iy, iz), (ix, cy, iz), (ix, iy, cz))


def _body_face_slabs(box: BoxGeometry) -> tuple:
    """Index slabs of the faces of the body cells.

    These are the faces `cells_to_faces` of a body cell field reaches, so
    a cell field that vanishes outside the body moves only these faces.
    """
    (cx, nx, _), (cy, ny, _), (cz, nz, _) = _body_ranges(box)
    return ((nx, cy, cz), (cx, ny, cz), (cx, cy, nz))


def _body_faces(h: np.ndarray, box: BoxGeometry) -> tuple:
    """Views of an h store on the body face slabs."""
    return tuple(h[c][slab] for c, slab in enumerate(_body_face_slabs(box)))


def _flat_span(slab: tuple, box: BoxGeometry) -> slice:
    """The range of flat store indices from the first to the last entry of
    an index slab."""
    strides = _strides(box)
    return slice(sum(s.start * k for s, k in zip(slab, strides)),
                 sum((s.stop - 1) * k for s, k in zip(slab, strides)) + 1)


def _body_edge_masks(box: BoxGeometry) -> tuple:
    """Boolean masks of the body edge slabs."""
    masks = []
    for shape, slab in zip(edge_shapes(box), _body_edge_slabs(box)):
        mask = np.zeros(shape, dtype=bool)
        mask[slab] = True
        masks.append(mask)
    return tuple(masks)


class _Workspace:
    """Preallocated buffers of one EMState.

    `curl` is the output store of both curls (and, between steps, h +
    m_bar for the ledger's divergence drift).  `body_window` is its window
    (see `curl_e`) spanning the faces of the body cells, `body_curl_faces`
    its views of those faces; from them the midpoint-h predictor forms its
    h in `body_faces` and averages it to cells in `body_cells`, which
    before that holds the step's stage-begin cell h (`SimState.h_cells`).
    `tmp` is a flat scratch of two store components: the second difference
    quotient of a curl, m_bar's cells and faces, the two divergence terms
    (and the drift's div0), the rate times dt.
    `e_new` and `e_mid` (one block per component) hold the conduction
    update and the midpoint e on the body edge slabs.  `rate_faces` (a
    triple of the body face slabs) holds the magnetization rate on faces
    while a step's subcycles run.  `mur` holds the boundary planes of a
    Mur1 substep with their buffers and `mur_coefs` its coefficients, both
    made on the first one.
    """

    def __init__(self, box: BoxGeometry):
        self.curl = np.zeros(store_shape(box))
        self.curl_edges = edge_views(self.curl, box)
        self.body_window = tuple(_flat_span(slab, box) for slab in _body_face_slabs(box))
        self.body_curl_faces = _body_faces(self.curl, box)
        self.tmp = np.empty(2 * self.curl[0].size)
        slab_shapes = [tuple(s.stop - s.start for s in slab)
                       for slab in _body_edge_slabs(box)]
        self.e_new = tuple(np.empty(s) for s in slab_shapes)
        self.e_mid = tuple(np.empty(s) for s in slab_shapes)
        self.rate_faces = tuple(np.empty(f.shape) for f in self.body_curl_faces)
        self.body_faces = tuple(np.empty(f.shape) for f in self.body_curl_faces)
        self.body_cells = _vector_field((box.mx, box.my, box.mz, 3))
        self.mur = None
        self.mur_coefs = None


def _component(index: int, doc: str) -> property:
    """A field component as a view of its store; assigning copies into it."""
    def get(self):
        return self._views[index]

    def put(self, value):
        np.copyto(self._views[index], value)

    return property(get, put, doc=doc)


@dataclass
class EMState:
    """Electromagnetic state: the e and h stores (see the module
    docstring) and the bookkeeping of the box.

    `ex` ... `hz` are views of the stores, so writing into them writes
    the fields; assigning to one (`em.hx = a`) copies `a` into the store.
    """

    box: BoxGeometry
    e: np.ndarray
    h: np.ndarray
    bc: str = PEC
    div0: Optional[np.ndarray] = None
    work: Optional[_Workspace] = field(default=None, repr=False, compare=False)

    ex = _component(0, "e on x edges")
    ey = _component(1, "e on y edges")
    ez = _component(2, "e on z edges")
    hx = _component(3, "h on x faces")
    hy = _component(4, "h on y faces")
    hz = _component(5, "h on z faces")

    def __post_init__(self):
        for name in ("e", "h"):
            store = getattr(self, name)
            if store.shape != store_shape(self.box) or not store.flags.c_contiguous:
                raise ValueError(f"{name} must be a C-contiguous array of shape "
                                 f"{store_shape(self.box)}")
        self._views = edge_views(self.e, self.box) + face_views(self.h, self.box)

    def copy(self) -> "EMState":
        return EMState(self.box, self.e.copy(), self.h.copy(), self.bc,
                       None if self.div0 is None else self.div0.copy())

    @property
    def omega_masks(self) -> tuple:
        """Boolean masks of the body edge slabs, one per e component."""
        return _body_edge_masks(self.box)

    def workspace(self) -> _Workspace:
        if self.work is None:
            self.work = _Workspace(self.box)
        return self.work

    def body_h(self) -> tuple:
        """Views of h on the body face slabs."""
        return _body_faces(self.h, self.box)

    def assert_finite(self, step: int, t: float):
        """Raise NonFinite naming the step, t, the first non-finite
        component and its first bad index."""
        for store, first in ((self.e, 0), (self.h, 3)):
            # min/max propagate NaN, so these two reductions catch inf and NaN
            if np.isfinite(store.min()) and np.isfinite(store.max()):
                continue
            for name, a in zip(("ex", "ey", "ez", "hx", "hy", "hz")[first:first + 3],
                               self._views[first:first + 3]):
                if not np.isfinite(a).all():
                    index = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
                    raise NonFinite(f"electromagnetic field {name} became non-finite "
                                    f"at step {step}, t={t:g}, first at index {index}")


def empty_em_state(box: BoxGeometry, bc: str = PEC) -> EMState:
    """Zero fields on the box with outer boundary bc (PEC or MUR1)."""
    if bc not in BOUNDARIES:
        raise ValueError(f"unknown boundary {bc!r} (choose from {BOUNDARIES})")
    return EMState(box, np.zeros(store_shape(box)), np.zeros(store_shape(box)), bc=bc)


class AppliedCurrent:
    """Spatially uniform forcing current inside the body.

    Kinds (CURRENTS): zero, or a Gaussian pulse
    amp * exp(-((t-t0)/width)^2 / 2).
    """

    def __init__(self, amplitude=(0.0, 0.0, 0.0), t0: float = 0.0,
                 width: float = 1.0, kind: str = ZERO):
        self.amplitude = np.asarray(amplitude, dtype=float)
        self.t0 = float(t0)
        self.width = float(width)
        self.kind = kind
        if kind not in CURRENTS:
            raise ValueError(f"unknown current preset {kind!r} (choose from {CURRENTS})")
        if kind == PULSE and self.width <= 0:
            raise ValueError("pulse width must be positive")

    def value(self, t: float) -> np.ndarray:
        if self.kind == ZERO:
            return np.zeros(3)
        return self.amplitude * np.exp(-0.5 * ((t - self.t0) / self.width) ** 2)


# ---------------------------------------------------------------------------
# staggered-grid operators


def _flat(store: np.ndarray) -> np.ndarray:
    """(3, N) view of a store; raises rather than copy."""
    return np.reshape(store, (3, -1), copy=False)


def _curl(src, box: BoxGeometry, scale: float, out, tmp, forward: bool,
          window: Optional[tuple]) -> np.ndarray:
    """The one curl kernel: for each component c, with (a, b) the next two
    axes in cyclic order,

        out[c] = (scale/h_a) D_a src[b] - (scale/h_b) D_b src[a],

    D the forward (edges -> faces) or backward (faces -> edges) difference,
    a flat difference at the axis's offset.  The entries a flat difference
    cannot reach, and those where it wraps to the next row or plane, all
    lie on planes that are zeroed afterwards: the pad planes of each
    component and, for the backward curl, the wall edges (`_zero_walls`).
    With `window` (per component, a range of flat indices) only those
    entries of `out` are written, and nothing is zeroed.
    """
    n = (box.nx, box.ny, box.nz)
    spacing = (box.dx, box.dy, box.dz)
    strides = _strides(box)
    if out is None:
        out = np.empty(store_shape(box))
    size = out[0].size
    if tmp is None:
        tmp = np.empty(size)
    s_flat, o_flat = _flat(src), _flat(out)
    for c in range(3):
        a, b = (c + 1) % 3, (c + 2) % 3
        sa, sb = strides[a], strides[b]
        reach = max(sa, sb)
        lo, hi = (0, size - reach) if forward else (reach, size)
        if window is not None:
            lo, hi = max(lo, window[c].start), min(hi, window[c].stop)
        # (minuend, subtrahend) offsets of the two differences
        pa, pb = ((sa, 0), (sb, 0)) if forward else ((0, -sa), (0, -sb))
        p, q, o, t = s_flat[b], s_flat[a], o_flat[c][lo:hi], tmp[:hi - lo]
        np.subtract(p[lo + pa[0]:hi + pa[0]], p[lo + pa[1]:hi + pa[1]], out=o)
        o *= scale / spacing[a]
        np.subtract(q[lo + pb[0]:hi + pb[0]], q[lo + pb[1]:hi + pb[1]], out=t)
        t *= scale / spacing[b]
        o -= t
        if window is None:
            # pads: faces are short along a and b, edges along c
            for axis in ((a, b) if forward else (c,)):
                out[c][_along(axis, n[axis])] = 0.0
    if window is None and not forward:
        _zero_walls(out, box)
    return out


def _zero_walls(store: np.ndarray, box: BoxGeometry):
    """Zero the edges of an e store that lie on the box walls: for each
    component, its first and last node plane along the other two axes."""
    n = (box.nx, box.ny, box.nz)
    for c in range(3):
        for axis in ((c + 1) % 3, (c + 2) % 3):
            store[c][_along(axis, 0)] = 0.0
            store[c][_along(axis, n[axis])] = 0.0


def curl_e(e: np.ndarray, box: BoxGeometry, scale: float = 1.0, out=None, tmp=None,
           window: Optional[tuple] = None) -> np.ndarray:
    """scale * curl of an e store, on faces, as an h store.

    `out` (a store) and `tmp` (a flat float array of at least one store
    component) make the call allocation-free.  With `window` (per
    component, a slice of flat store indices) only those entries of `out`
    are computed, and the rest of `out` is left as it was.
    """
    return _curl(e, box, scale, out, tmp, True, window)


def curl_h(h: np.ndarray, box: BoxGeometry, scale: float = 1.0, out=None,
           tmp=None) -> np.ndarray:
    """scale * curl of an h store, on the interior edges, as an e store;
    the boundary edges are zero.

    `out` (a store) and `tmp` (a flat float array of at least one store
    component) make the call allocation-free.
    """
    return _curl(h, box, scale, out, tmp, False, None)


def grad_cells(phi: np.ndarray, box: BoxGeometry, out=None) -> tuple:
    """Cell scalar -> gradient on faces, zero-Dirichlet ghosts outside.

    `out` (a face triple of the box) receives the gradient.
    """
    if out is None:
        out = tuple(np.empty(s) for s in face_shapes(box))
    for axis, (g, h) in enumerate(zip(out, (box.dx, box.dy, box.dz))):
        np.subtract(phi[_along(axis, slice(1, None))], phi[_along(axis, slice(None, -1))],
                    out=g[_along(axis, slice(1, -1))])
        # the outermost faces difference against a zero ghost cell
        np.subtract(phi[_along(axis, 0)], 0.0, out=g[_along(axis, 0)])
        np.subtract(0.0, phi[_along(axis, -1)], out=g[_along(axis, -1)])
        g /= h
    return out


def cells_to_faces(c: np.ndarray, out=None) -> tuple:
    """Cell 3-vector field -> face samples (adjoint of faces_to_cells).

    Each face averages its two cells, with zero cells beyond the field, so
    a body field gives the faces of the body cells and a zero-extended one
    the whole box.  `out` (three face arrays of the field's cells) makes
    the call allocation-free.
    """
    if out is None:
        n = c.shape[:3]
        out = tuple(np.empty(tuple(k + (i == axis) for i, k in enumerate(n)))
                    for axis in range(3))
    for axis, f in enumerate(out):
        ci = c[..., axis]
        np.add(ci[_along(axis, slice(1, None))], ci[_along(axis, slice(None, -1))],
               out=f[_along(axis, slice(1, -1))])
        # the outermost faces average with a zero ghost cell; adding the
        # 0.0 keeps the bits of that sum (-0.0 + 0.0 is +0.0)
        np.add(ci[_along(axis, 0)], 0.0, out=f[_along(axis, 0)])
        np.add(ci[_along(axis, -1)], 0.0, out=f[_along(axis, -1)])
        f *= 0.5
    return out


def faces_to_cells(fx, fy, fz, out=None) -> np.ndarray:
    """Face field -> cell-centered 3-vector by adjacent averaging.

    `out` (a cell 3-vector field) makes the call allocation-free; a fresh
    one is component-major.
    """
    if out is None:
        out = _vector_field((fx.shape[0] - 1,) + fx.shape[1:] + (3,))
    for i, (lo, hi) in enumerate(((fx[:-1, :, :], fx[1:, :, :]),
                                  (fy[:, :-1, :], fy[:, 1:, :]),
                                  (fz[:, :, :-1], fz[:, :, 1:]))):
        c = out[..., i]
        np.add(hi, lo, out=c)
        c *= 0.5
    return out


def _body_cells(h: np.ndarray, box: BoxGeometry, out=None) -> np.ndarray:
    """An h store averaged to the body cell centers, from the body face
    slabs only; `out` (a body cell 3-vector field) makes the call
    allocation-free."""
    return faces_to_cells(*_body_faces(h, box), out=out)


def interp_h_to_cells(em: EMState, out=None) -> np.ndarray:
    """Magnetic excitation averaged to body cell centers (`_body_cells`)."""
    return _body_cells(em.h, em.box, out)


def _plus_m_bar(h: np.ndarray, m: np.ndarray, box: BoxGeometry, out: np.ndarray,
                tmp: np.ndarray) -> np.ndarray:
    """h + m_bar in the store `out`, for an h store and the body field m.

    out = h + 0.0 everywhere, then m_bar is added over each component's
    flat window of the body face slab (`_flat_span`): the component of m
    is written into the body cells of a zeroed store component in `tmp`
    (a flat float array of at least two store components) and averaged
    to faces as (E[j] + E[j - S]) * 0.5, which is the mean of the two
    cells of a body face (a zero cell beyond the body) and +0.0 on every
    other face of the window, where it leaves h + 0.0 unchanged.  Every
    pass but the write of m is flat, so the call allocates nothing.
    """
    np.add(h, 0.0, out=out)
    size = out[0].size
    cells = tmp[:size]
    body = cells.reshape(out.shape[1:])[box.body_slices()]
    for c, (S, slab) in enumerate(zip(_strides(box), _body_face_slabs(box))):
        window = _flat_span(slab, box)
        lo, hi = window.start, window.stop
        cells[lo - S:hi] = 0.0
        np.copyto(body, m[..., c])
        face = tmp[size:size + hi - lo]
        np.add(cells[lo:hi], cells[lo - S:hi - S], out=face)
        face *= 0.5
        dst = out[c].reshape(-1)[lo:hi]
        dst += face
    return out


def _divergence(f: np.ndarray, box: BoxGeometry, out: np.ndarray) -> np.ndarray:
    """Divergence of the face field of the store f at the box cell centers.

    Each difference is a flat one at the axis's offset, over the flat
    range of the cells' x-planes, taken as (D_x f_x)/dx + (D_y f_y)/dy,
    then + (D_z f_z)/dz.  `out` is a flat scratch of at least
    2 nx (ny+1) (nz+1) entries; the returned (nx, ny, nz) array views its
    first part.
    """
    f = _flat(f)
    s0, s1, s2 = _strides(box)
    n = box.nx * s0
    div, t = out[:n], out[n:2 * n]
    np.subtract(f[0][s0:s0 + n], f[0][:n], out=div)
    div /= box.dx
    np.subtract(f[1][s1:s1 + n], f[1][:n], out=t)
    t /= box.dy
    div += t
    np.subtract(f[2][s2:s2 + n], f[2][:n], out=t)
    t /= box.dz
    div += t
    return div.reshape(box.nx, box.ny + 1, box.nz + 1)[:, :box.ny, :box.nz]


# ---------------------------------------------------------------------------
# Poisson projection


def _dirichlet_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues of the 1-D 3-point Laplacian with zero ghosts at -1 and n."""
    k = np.arange(1, n + 1)
    return -4.0 * np.sin(np.pi * k / (2.0 * (n + 1))) ** 2 / h**2


def _dst1(x: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Type-I discrete sine transform of the 3-D array x along axes 0, 1
    and 2, in that order, the result along axis 0 times `scale`: the bits
    of scipy.fft.dstn(x, type=1), and with scale = 1/prod(2(n+1)) those
    of its idstn.

    Each axis is pocketfft's DST-I of length n: the real FFT of the odd
    extension (0, x, 0, -x reversed) of length 2(n+1), whose negated
    imaginary parts 1..n are the transform.  The axis being
    transformed is last in one reused extension buffer, filled from the
    previous pass's imaginary parts with the axes turned one step (so
    after three passes they are back in order) and with that pass's sign
    and scale as one factor.
    """
    size = x.size
    ext = np.empty(max(size // n * 2 * (n + 1) for n in x.shape))
    spec = np.empty(max(size // n * (n + 2) for n in x.shape), dtype=complex)
    im, factor = x, 1.0
    for axis, n in enumerate(x.shape):
        src = im.transpose(1, 2, 0)
        lines = src.shape[:-1]
        e = ext[:size // n * 2 * (n + 1)].reshape(lines + (2 * (n + 1),))
        np.multiply(src, factor, out=e[..., 1:n + 1])
        e[..., 0] = 0.0
        e[..., n + 1] = 0.0
        np.negative(e[..., n:0:-1], out=e[..., n + 2:])
        s = spec[:size // n * (n + 2)].reshape(lines + (n + 2,))
        rfft(e, axis=-1, out=s)
        im = s.imag[..., 1:n + 1]
        # -(im * scale) is im * -scale bit for bit
        factor = -scale if axis == 0 else -1.0
    return np.negative(im)


def poisson_solve(rhs: np.ndarray, box: BoxGeometry) -> np.ndarray:
    """Solve Lap(phi) = rhs at cell centers with zero-Dirichlet ghosts.

    The 7-point Laplacian of the box is the Kronecker sum of three 1-D
    Dirichlet Laplacians, each diagonalised exactly by the type-I discrete
    sine transform, so the solve is a forward DST-I, a division by the
    summed eigenvalues and an inverse DST-I (the fast Poisson solver of
    Buzbee, Golub & Nielson 1970): O(N log N), no factorisation.
    """
    lam = (_dirichlet_eigenvalues(box.nx, box.dx)[:, None, None]
           + _dirichlet_eigenvalues(box.ny, box.dy)[None, :, None]
           + _dirichlet_eigenvalues(box.nz, box.dz)[None, None, :])
    # idstn's normalisation as pocketfft forms it, in long double
    scale = float(1 / np.longdouble(8 * (box.nx + 1) * (box.ny + 1) * (box.nz + 1)))
    return _dst1(_dst1(rhs) / lam, scale)


def init_divfree(m0: np.ndarray, h0_spec, box: BoxGeometry,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """Magnetic excitation with div(h + m_bar) = 0 at every cell center.

    h0_spec: a kind of H0_KINDS or a length-3 uniform vector, the raw
    field h_raw (zero for both kinds), corrected by a gradient: h = h_raw
    - grad phi with Lap phi = div(h_raw + m_bar), so "zero" and
    "magnetostatic" give the same field.  m0 is the body magnetization;
    m_bar, its zero extension to the box, lives on the body face slabs.
    Returns the h store: `out` (its pads zero), written in place, or a
    fresh one.
    """
    h = np.zeros(store_shape(box)) if out is None else out
    faces = face_views(h, box)
    if isinstance(h0_spec, str) and h0_spec in H0_KINDS:
        h_raw = (0.0, 0.0, 0.0)
    else:
        h_raw = tuple(np.asarray(h0_spec, dtype=float).reshape(3))
    for a, raw in zip(faces, h_raw):
        a[...] = raw
    # h holds h_raw + m_bar for the rhs, then grad phi, then h_raw - grad phi
    n = box.nx * _strides(box)[0]
    scratch = np.empty(3 * h[0].size)
    rhs = _divergence(_plus_m_bar(h, m0, box, h, scratch), box, scratch)
    phi = poisson_solve(rhs, box)
    grad_cells(phi, box, out=faces)

    # the solve's residual div(grad phi) - rhs over the whole box, which
    # is -div(h + m_bar) of the final h up to roundoff
    resid = _divergence(h, box, scratch[n:])
    resid -= rhs
    resid = np.abs(resid, out=resid).max()
    rhs_max = np.abs(rhs, out=rhs).max()
    for a, raw in zip(faces, h_raw):
        np.subtract(raw, a, out=a)
    if not np.isfinite(resid) or resid > POISSON_TOL * (1.0 + rhs_max):
        raise SolverDiverged(f"divergence projection residual {resid:g} above tolerance")
    return h


def divergence_drift(em: EMState, m: np.ndarray) -> float:
    """Max deviation of div(h + m_bar) from its recorded initial values.

    h + m_bar is formed in the workspace's curl store and its divergence
    in its `tmp`, on the box's x-planes of the store index grid
    (`_divergence`); with the pad rows of those planes zeroed and div0
    written into the same layout, the difference and its maximum are flat
    passes, so the call allocates nothing."""
    box = em.box
    tmp = em.workspace().tmp
    _div_h_plus_m_bar(em, m)
    n = box.nx * _strides(box)[0]
    current, ref = tmp[:n], tmp[n:2 * n]
    planes = [a.reshape(box.nx, box.ny + 1, box.nz + 1) for a in (current, ref)]
    planes[1][:, :box.ny, :box.nz] = 0.0 if em.div0 is None else em.div0
    for p in planes:
        p[:, box.ny, :] = 0.0
        p[:, :, box.nz] = 0.0
    np.subtract(current, ref, out=current)
    np.abs(current, out=current)
    return float(current.max())


def record_div0(em: EMState, m: np.ndarray):
    em.div0 = _div_h_plus_m_bar(em, m).copy()


def _div_h_plus_m_bar(em: EMState, m: np.ndarray) -> np.ndarray:
    """div(h + m_bar) for the body field m, in the workspace (valid until
    it is next used)."""
    work = em.workspace()
    return _divergence(_plus_m_bar(em.h, m, em.box, work.curl, work.tmp), em.box,
                       work.tmp)


# ---------------------------------------------------------------------------
# time stepping


def cfl_limit(box: BoxGeometry, params: MaterialParams) -> float:
    c = params.speed_of_light
    return 1.0 / (c * np.sqrt(1.0 / box.dx**2 + 1.0 / box.dy**2 + 1.0 / box.dz**2))


def _mur_coef(params: MaterialParams, dt: float, h: float) -> float:
    c = params.speed_of_light
    return (c * dt - h) / (c * dt + h)


# the tangential e components on the box faces normal to each axis
_MUR_PLANES = (("ey", 0), ("ez", 0), ("ex", 1), ("ez", 1), ("ex", 2), ("ey", 2))


def _mur_planes(em: EMState) -> list:
    """Per boundary plane of a tangential e component: its axis, the plane
    and its inner neighbour (views of the store), and buffers for the two
    planes' old values and the update.  Made on the first Mur1 substep."""
    work = em.workspace()
    if work.mur is None:
        work.mur = []
        for name, axis in _MUR_PLANES:
            comp = getattr(em, name)
            for plane, inner in ((0, 1), (-1, -2)):
                dst = comp[_along(axis, plane)]
                work.mur.append((axis, dst, comp[_along(axis, inner)],
                                 np.empty(dst.shape), np.empty(dst.shape),
                                 np.empty(dst.shape)))
    return work.mur


def _capture_mur_old(em: EMState) -> list:
    """Copy the boundary and next-inner planes of the tangential e
    components into their buffers."""
    planes = _mur_planes(em)
    for _, dst, inner, old, inner_old, _ in planes:
        np.copyto(old, dst)
        np.copyto(inner_old, inner)
    return planes


def _apply_mur(em: EMState, planes: list, params: MaterialParams, dt: float):
    """First-order absorbing update of tangential e on the six box faces,
    plane = inner_old + coef * (inner - old), with no temporaries."""
    work = em.workspace()
    key = (dt, params.speed_of_light)
    if work.mur_coefs is None or work.mur_coefs[0] != key:
        work.mur_coefs = (key, [_mur_coef(params, dt, h)
                                for h in (em.box.dx, em.box.dy, em.box.dz)])
    coefs = work.mur_coefs[1]
    for axis, dst, inner, old, inner_old, new in planes:
        # the sum is taken the other way round, which keeps its bits
        np.subtract(inner, old, out=new)
        new *= coefs[axis]
        new += inner_old
        np.copyto(dst, new)


def fdtd_step(em: EMState, m_dot_faces: Optional[tuple], f_value: np.ndarray,
              params: MaterialParams, dt: float, accum: Optional[dict] = None) -> EMState:
    """One leapfrog step: e update (semi-implicit conduction), then h.

    m_dot_faces is the magnetization rate already transferred to the body
    face slabs (`cells_to_faces` of the body rate), or None; the rate
    vanishes outside the body, so only those slabs feel it.  The fields
    are updated in place through buffers the state owns, so a warm step
    allocates nothing box-sized.  When `accum` is given, the Ohmic and
    source work of this step is added under keys "ohmic" and "source"
    using the midpoint e, which matches the semi-implicit update identity
    exactly.
    """
    box = em.box
    limit = cfl_limit(box, params)
    if dt > limit * (1.0 + 1e-12):
        raise CFLViolation(f"dt={dt:g} exceeds the Yee bound {limit:g}")

    work = em.workspace()
    sigma, eps0, mu0 = params.sigma, params.eps0, params.mu0
    k = dt / eps0
    curl_h(em.h, box, k, out=work.curl, tmp=work.tmp)
    mur_old = _capture_mur_old(em) if em.bc == MUR1 else None

    slabs = _body_edge_slabs(box)
    if sigma != 0.0:
        # conduction acts on the body edges only, where e becomes
        # ((1 - beta) e + k (curl h - sigma f)) / (1 + beta); outside them
        # the update is the vacuum one below
        dV = box.cell_volume
        beta = sigma * dt / (2.0 * eps0)
        for e, ce, slab, fc, e_new, e_mid in zip(
                (em.ex, em.ey, em.ez), work.curl_edges, slabs, f_value, work.e_new,
                work.e_mid):
            e_body = e[slab]
            np.subtract(ce[slab], k * sigma * fc, out=e_new)
            np.multiply(e_body, 1.0 - beta, out=e_mid)
            e_new += e_mid
            e_new /= 1.0 + beta
            if accum is not None:
                np.add(e_body, e_new, out=e_mid)
                e_mid *= 0.5
                accum["ohmic"] += dt * (sigma / mu0) * dV * dot(e_mid, e_mid)
                if fc != 0.0:
                    e_mid *= fc
                    accum["source"] += dt * (sigma / mu0) * dV * esum(e_mid)
    np.add(em.e, work.curl, out=em.e)
    if sigma != 0.0:
        for e, slab, e_new in zip((em.ex, em.ey, em.ez), slabs, work.e_new):
            e[slab] = e_new

    if em.bc == MUR1:
        _apply_mur(em, mur_old, params, dt)

    curl_e(em.e, box, dt / mu0, out=work.curl, tmp=work.tmp)
    np.subtract(em.h, work.curl, out=em.h)
    if m_dot_faces is not None:
        for h, mf in zip(em.body_h(), m_dot_faces):
            rate = work.tmp[:mf.size].reshape(mf.shape)
            np.multiply(mf, dt, out=rate)
            h -= rate
    return em


def zero_boundary_tangential_e(em: EMState):
    """Enforce the perfectly conducting wall on tangential e."""
    _zero_walls(em.e, em.box)
