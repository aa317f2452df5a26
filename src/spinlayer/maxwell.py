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
so both curls are one kernel of whole-array contiguous passes, and the
leapfrog updates are single passes over the stores.  The kernel is split
in two: `_curl_views` slices the operands and `_apply_curl` runs the
passes, so the coupled step, whose Maxwell half is `stage_h_cells`,
`_midpoint_h_cells` and `advance`, applies view sets built once.

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
    """Preallocated buffers of one EMState, and the views of its stores
    that a coupled step touches, built once.

    `curl` is the output store of every curl (and, between steps, h +
    m_bar for the ledger's divergence drift).  `curl_h_views`,
    `curl_e_views` and `body_curl_e_views` are the operands (`_curl_views`)
    of the backward curl of the h store, the forward curl of the e store
    and the predictor's forward curl on the window spanning the faces of
    the body cells, `body_curl_faces` its views of those faces.  The
    predictor forms its h in `body_faces` and averages it into
    `body_cells`, which before that holds the stage-begin cell h.
    `body_h` views the h store on the same faces, and `e_body` and
    `curl_body` view the e store and `curl` on the body edge slabs.
    `tmp` is a flat scratch of two store components: the second difference
    quotient of a curl, m_bar's cells and faces, the two divergence terms
    (and the drift's div0).
    `e_new` and `e_mid` (one block per component) hold the conduction
    update and twice the midpoint e on the body edge slabs.  `rate_faces`
    (a triple of the body face slabs) holds the predicted rate, then the
    increment dt x rate of a step's subcycles.  `mur` holds the Mur1
    planes with their buffers (`_mur_planes`) if the state's `bc` is MUR1.
    """

    def __init__(self, em: "EMState"):
        box = em.box
        self.curl = np.zeros(store_shape(box))
        self.tmp = np.empty(2 * self.curl[0].size)
        self.curl_h_views = _curl_views(em.h, box, self.curl, self.tmp, False)
        self.curl_e_views = _curl_views(em.e, box, self.curl, self.tmp, True)
        window = tuple(_flat_span(slab, box) for slab in _body_face_slabs(box))
        self.body_curl_e_views = _curl_views(em.e, box, self.curl, self.tmp, True, window)
        self.body_curl_faces = _body_faces(self.curl, box)
        self.body_h = _body_faces(em.h, box)
        slabs = _body_edge_slabs(box)
        self.e_body = tuple(em.e[c][slab] for c, slab in enumerate(slabs))
        self.curl_body = tuple(self.curl[c][slab] for c, slab in enumerate(slabs))
        self.e_new = tuple(np.empty(e.shape) for e in self.e_body)
        self.e_mid = tuple(np.empty(e.shape) for e in self.e_body)
        self.rate_faces = tuple(np.empty(f.shape) for f in self.body_curl_faces)
        self.body_faces = tuple(np.empty(f.shape) for f in self.body_curl_faces)
        self.body_cells = _vector_field((box.mx, box.my, box.mz, 3))
        self.mur = _mur_planes(em.e, box) if em.bc == MUR1 else None


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
    The stores are never rebound: the component views and the workspace
    are built on them once.
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
            self.work = _Workspace(self)
        return self.work

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
    """Spatially uniform forcing current inside the body, the Gaussian
    pulse amplitude * exp(-((t-t0)/width)^2 / 2).  No current is None."""

    def __init__(self, amplitude, t0: float, width: float):
        self.amplitude = np.asarray(amplitude, dtype=float)
        self.t0 = float(t0)
        self.width = float(width)
        if not self.width > 0:
            raise ValueError("pulse width must be positive")

    def value(self, t: float) -> np.ndarray:
        z = (t - self.t0) / self.width
        # beyond |z| = 40 the Gaussian underflows to 0 (and z**2 may overflow)
        return self.amplitude * (np.exp(-0.5 * z ** 2) if abs(z) < 40.0 else 0.0)


# ---------------------------------------------------------------------------
# staggered-grid operators


def _flat(store: np.ndarray) -> np.ndarray:
    """(3, N) view of a store; raises rather than copy."""
    return np.reshape(store, (3, -1), copy=False)


def _off_axis(store: np.ndarray, axis: int, index) -> np.ndarray:
    """The two components of a store other than `axis`, at `index` (an int
    or a slice) along the axis, as one view."""
    b, c = sorted(((axis + 1) % 3, (axis + 2) % 3))
    return store[b:c + 1:c - b][(slice(None),) + _along(axis, index)]


def _wall_planes(store: np.ndarray, box: BoxGeometry) -> tuple:
    """Per axis, the first and last node planes along it of the two other
    components, as one view: in an e store, the edges on the box walls
    normal to the axis, which are the tangential ones."""
    n = (box.nx, box.ny, box.nz)
    return tuple(_off_axis(store, axis, slice(0, n[axis] + 1, n[axis]))
                 for axis in range(3))


def _curl_views(src: np.ndarray, box: BoxGeometry, out: np.ndarray, tmp,
                forward: bool, window: Optional[tuple] = None) -> tuple:
    """The operands of one curl of the store src into the store out, for
    `_apply_curl`: for each component c, with (a, b) the next two axes in
    cyclic order,

        out[c] = (scale/h_b) (r D_a src[b] - D_b src[a]),   r = h_b/h_a,

    which is (scale/h_a) D_a src[b] - (scale/h_b) D_b src[a] up to
    roundoff; D is the forward (edges -> faces) or backward (faces ->
    edges) difference, a flat difference at the axis's offset.  Per
    component the views are (p1, p0, q1, q0, o, t, r, h_b): the minuend
    and subtrahend of each difference, the output range, the scratch
    `tmp` (a flat float array of at least one store component) cut to it,
    and the two spacing factors.

    The entries a flat difference cannot reach, and those where it wraps
    to the next row or plane, all lie on planes that are zeroed after the
    passes, the second item of the returned pair: the pad planes of each
    component and, for the backward curl, the wall edges.  With `window`
    (per component, a range of flat indices) only those entries of `out`
    are written, and nothing is zeroed.
    """
    n = (box.nx, box.ny, box.nz)
    spacing = (box.dx, box.dy, box.dz)
    strides = _strides(box)
    size = out[0].size
    if tmp is None:
        tmp = np.empty(size)
    s_flat, o_flat = _flat(src), _flat(out)
    terms = []
    for c in range(3):
        a, b = (c + 1) % 3, (c + 2) % 3
        sa, sb = strides[a], strides[b]
        reach = max(sa, sb)
        lo, hi = (0, size - reach) if forward else (reach, size)
        if window is not None:
            lo, hi = max(lo, window[c].start), min(hi, window[c].stop)
        # (minuend, subtrahend) offsets of the two differences
        pa, pb = ((sa, 0), (sb, 0)) if forward else ((0, -sa), (0, -sb))
        p, q = s_flat[b], s_flat[a]
        terms.append((p[lo + pa[0]:hi + pa[0]], p[lo + pa[1]:hi + pa[1]],
                      q[lo + pb[0]:hi + pb[0]], q[lo + pb[1]:hi + pb[1]],
                      o_flat[c][lo:hi], tmp[:hi - lo], spacing[b] / spacing[a],
                      spacing[b]))
    if window is not None:
        zeros = ()
    elif forward:
        # faces are short along the two axes other than their own
        zeros = tuple(_off_axis(out, axis, n[axis]) for axis in range(3))
    else:
        # edges are short along their own axis
        zeros = (tuple(out[c][_along(c, n[c])] for c in range(3))
                 + _wall_planes(out, box))
    return tuple(terms), zeros


def _apply_curl(views: tuple, scale: float):
    """Run the curl whose operands `_curl_views` sliced: per component
    (scale/h_b) (r D_a p - D_b q) in four passes, five when r != 1, then
    the zero planes."""
    terms, zeros = views
    for p1, p0, q1, q0, o, t, r, h in terms:
        np.subtract(p1, p0, out=o)
        if r != 1.0:
            o *= r
        np.subtract(q1, q0, out=t)
        o -= t
        o *= scale / h
    for plane in zeros:
        plane[...] = 0.0


def curl_e(e: np.ndarray, box: BoxGeometry, scale: float = 1.0, out=None,
           tmp=None) -> np.ndarray:
    """scale * curl of an e store, on faces, as an h store.

    `out` (a store) and `tmp` (a flat float array of at least one store
    component) make the call allocation-free.
    """
    if out is None:
        out = np.empty(store_shape(box))
    _apply_curl(_curl_views(e, box, out, tmp, True), scale)
    return out


def curl_h(h: np.ndarray, box: BoxGeometry, scale: float = 1.0, out=None,
           tmp=None) -> np.ndarray:
    """scale * curl of an h store, on the interior edges, as an e store;
    the boundary edges are zero.

    `out` (a store) and `tmp` (a flat float array of at least one store
    component) make the call allocation-free.
    """
    if out is None:
        out = np.empty(store_shape(box))
    _apply_curl(_curl_views(h, box, out, tmp, False), scale)
    return out


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


def _body_cells(h: np.ndarray, box: BoxGeometry) -> np.ndarray:
    """An h store averaged to the body cell centers, from the body face
    slabs only."""
    return faces_to_cells(*_body_faces(h, box))


def interp_h_to_cells(em: EMState) -> np.ndarray:
    """Magnetic excitation averaged to body cell centers (`_body_cells`)."""
    return _body_cells(em.h, em.box)


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


def init_divfree(m0: np.ndarray, h_raw, box: BoxGeometry,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """Magnetic excitation with div(h + m_bar) = 0 at every cell center.

    h_raw, a uniform 3-vector, is corrected by a gradient: h = h_raw -
    grad phi with Lap phi = div(h_raw + m_bar); h_raw = 0 gives the
    magnetostatic field.  m0 is the body magnetization; m_bar, its zero
    extension to the box, lives on the body face slabs.  Returns the h
    store: `out` (its pads zero), written in place, or a fresh one.
    """
    h = np.zeros(store_shape(box)) if out is None else out
    faces = face_views(h, box)
    h_raw = tuple(np.asarray(h_raw, dtype=float).reshape(3))
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


def _mur_planes(e: np.ndarray, box: BoxGeometry) -> list:
    """Per axis: the boundary planes 0 and n of the two tangential e
    components as one view of the e store (`_wall_planes`), their inner
    neighbours 1 and n - 1 as another, and buffers for the old values of
    both.  The box needs 3 cells or more along every axis (`make_box`
    gives at least 3), so that no boundary plane is another's neighbour."""
    n = (box.nx, box.ny, box.nz)
    planes = []
    for axis, dst in enumerate(_wall_planes(e, box)):
        inner = _off_axis(e, axis, slice(1, n[axis], n[axis] - 2))
        planes.append((axis, dst, inner, np.empty(dst.shape), np.empty(dst.shape)))
    return planes


def _apply_mur(box: BoxGeometry, planes: list, params: MaterialParams, dt: float):
    """First-order absorbing update of tangential e on the six box faces,
    plane = inner_old + coef * (inner - old), axis by axis (an edge on two
    walls takes the later axis's value), with no temporaries: the update
    is formed in the buffer of the old values."""
    c = params.speed_of_light
    coefs = [(c * dt - h) / (c * dt + h) for h in (box.dx, box.dy, box.dz)]
    for axis, dst, inner, old, inner_old in planes:
        # the sum is taken the other way round, which keeps its bits
        np.subtract(inner, old, out=old)
        old *= coefs[axis]
        old += inner_old
        np.copyto(dst, old)


def fdtd_step(em: EMState, dm_faces: Optional[tuple], f_value: np.ndarray,
              params: MaterialParams, dt: float, acc=None) -> EMState:
    """One leapfrog step: e update (semi-implicit conduction), then h.

    dm_faces is the magnetization increment of the step, dt times the
    rate already transferred to the body face slabs (`cells_to_faces` of
    the body rate), or None; the rate vanishes outside the body, so only
    those slabs feel it.  The fields are updated in place through buffers
    and views the state's workspace built once, so a warm step slices
    nothing and allocates nothing box-sized.  The step's Ohmic and source
    work, taken at the midpoint e as the semi-implicit update's identity
    has them, is added to `acc.ohmic` and `acc.source` when acc is given.
    """
    box = em.box
    limit = cfl_limit(box, params)
    if dt > limit * (1.0 + 1e-12):
        raise CFLViolation(f"dt={dt:g} exceeds the Yee bound {limit:g}")

    work = em.workspace()
    sigma, eps0, mu0 = params.sigma, params.eps0, params.mu0
    k = dt / eps0
    _apply_curl(work.curl_h_views, k)
    if em.bc == MUR1:
        # the boundary and next-inner planes before the update
        for _, dst, inner, old, inner_old in work.mur:
            np.copyto(old, dst)
            np.copyto(inner_old, inner)

    if sigma != 0.0:
        # conduction acts on the body edges only, where e becomes
        # ((1 - beta) e + k (curl h - sigma f)) / (1 + beta); outside them
        # the update is the vacuum one below
        dV = box.cell_volume
        beta = sigma * dt / (2.0 * eps0)
        for e_body, ce, fc, e_new, e_mid in zip(work.e_body, work.curl_body, f_value,
                                                work.e_new, work.e_mid):
            if fc != 0.0:
                np.subtract(ce, k * sigma * fc, out=e_new)
                np.multiply(e_body, 1.0 - beta, out=e_mid)
                e_new += e_mid
            else:
                np.multiply(e_body, 1.0 - beta, out=e_new)
                e_new += ce
            e_new /= 1.0 + beta
            if acc is not None:
                # e_mid is twice the midpoint e; the factors 0.25 and 0.5
                # rescale exactly, so the sums keep the midpoint's bits
                np.add(e_body, e_new, out=e_mid)
                acc.ohmic += dt * (sigma / mu0) * dV * (0.25 * dot(e_mid, e_mid))
                if fc != 0.0:
                    e_mid *= 0.5 * fc
                    acc.source += dt * (sigma / mu0) * dV * esum(e_mid)
    np.add(em.e, work.curl, out=em.e)
    if sigma != 0.0:
        for e_body, e_new in zip(work.e_body, work.e_new):
            np.copyto(e_body, e_new)

    if em.bc == MUR1:
        _apply_mur(box, work.mur, params, dt)

    _apply_curl(work.curl_e_views, dt / mu0)
    np.subtract(em.h, work.curl, out=em.h)
    if dm_faces is not None:
        for h, dm in zip(work.body_h, dm_faces):
            h -= dm
    return em


def stage_h_cells(em: EMState) -> np.ndarray:
    """The stage-begin h of a coupled step: `interp_h_to_cells` of the
    workspace's `body_h` views, in its `body_cells` (valid until the
    workspace is next used)."""
    work = em.workspace()
    return faces_to_cells(*work.body_h, out=work.body_cells)


def _midpoint_h_cells(em: EMState, m_dot: np.ndarray, dt: float,
                      params: MaterialParams) -> np.ndarray:
    """Predicted Maxwell h at the step midpoint, on magnetization cells.

    Freezing h at its stage-begin value injects (dt^2/2)|R^T m_dot|^2 of
    spurious electromagnetic energy per step, a sign-definite O(dt)
    fraction of the dissipated energy that swamps the energy-inequality
    diagnostic.  Centering the Zeeman coupling with an explicit predictor
    reduces the coupling error to O(dt^3) per step at the cost of one
    extra field evaluation; divergence bookkeeping is unaffected because
    the h update still uses the realized rate.

    The body cells average only the body face slabs, so (dt/2 mu0) curl e
    and the rate m_dot are taken on those faces only; the result is the
    workspace's `body_cells`.  Private, so that the benchmark's tracer
    (which wraps public functions) books its transfers under the step.
    """
    work = em.workspace()
    half = 0.5 * dt
    _apply_curl(work.body_curl_e_views, half / params.mu0)
    rate = cells_to_faces(m_dot, out=work.rate_faces)
    for f, h, c, r in zip(work.body_faces, work.body_h, work.body_curl_faces, rate):
        # f = h - (half/mu0) curl e - half m_dot, in that order
        np.subtract(h, c, out=f)
        r *= half
        f -= r
    return faces_to_cells(*work.body_faces, out=work.body_cells)


def advance(em: EMState, m_dot: np.ndarray, f: Optional[AppliedCurrent],
            params: MaterialParams, dt: float, subcycles: int, t: float, step: int,
            acc):
    """Advance em over the coupled step [t, t + dt] in `subcycles` leapfrog
    substeps (`fdtd_step`, adding their work to acc), with the current f
    (or none) at each substep's midpoint, then check that the fields are
    finite (step and t name the step).

    The realized magnetization rate m_dot is constant over the step and
    zero outside the body, so it is transferred once, onto the body face
    slabs, as the increment dt_sub x rate of every substep.
    """
    dt_sub = dt / subcycles
    dm_faces = cells_to_faces(m_dot, out=em.workspace().rate_faces)
    for r in dm_faces:
        r *= dt_sub
    no_current = np.zeros(3)
    for i in range(subcycles):
        t_mid = t + (i + 0.5) * dt_sub
        f_value = f.value(t_mid) if f is not None else no_current
        fdtd_step(em, dm_faces, f_value, params, dt_sub, acc)
    em.assert_finite(step, t)


def zero_boundary_tangential_e(em: EMState):
    """Enforce the perfectly conducting wall on tangential e."""
    for plane in _wall_planes(em.e, em.box):
        plane[...] = 0.0
