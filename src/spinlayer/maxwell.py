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
so both curls are one kernel of contiguous passes over whole store
components.  The kernel is split in two: `_curl_views` slices the
operands of each component and `_apply_curl` runs the passes of one, so
the coupled step, whose Maxwell half is `stage_h_cells`,
`_midpoint_h_cells` and `advance`, applies the view sets its state's
workspace builds once; there is no other entry to the curls.  Every
curl forms one component at a time in a scratch of one store component,
which the step applies to its field component before forming the next.
The scratch is offset so that the range each component writes starts on a
64-byte boundary: the components of a store cannot all start on one,
since a store component has an odd number of entries when nx, ny and nz
are even.

The conduction term sigma (e + f) 1_Omega is integrated semi-implicitly,
which is unconditionally stable in sigma and keeps the Ohmic dissipation
sign-definite.
div(h + m_bar) is one kernel, `_div_terms`, on the operands
`_div_views` slices from an h store: the projection `init_divfree`
builds them once per call, forms its rhs div(0 + m_bar) with the kernel
and checks its result with it, and the ledger's drift measures it on
operands built once per state.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import dst
from .errors import CFLViolation, NonFinite, SolverDiverged, first_bad_cell
from .geometry import DomainGeometry
from .energetics import MaterialParams, _aligned_empty, _vector_field
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
    box = BoxGeometry(
        nx=geom.nx + 2 * padding,
        ny=geom.ny + 2 * padding,
        nz=geom.nz_total + 2 * padding,
        dx=geom.dx, dy=geom.dy, dz=geom.dz,
        ox=padding, oy=padding, oz=padding,
        mx=geom.nx, my=geom.ny, mz=geom.nz_total,
    )
    # numpy indexes no array of more bytes than intp holds, whatever the memory
    if 8 * math.prod(store_shape(box)) > np.iinfo(np.intp).max:
        raise ValueError(f"a Yee box of {box.nx} x {box.ny} x {box.nz} cells is too "
                         f"large for numpy to index")
    return box


def edge_shapes(box: BoxGeometry) -> tuple:
    n = (box.nx, box.ny, box.nz)
    return ((n[0], n[1] + 1, n[2] + 1),
            (n[0] + 1, n[1], n[2] + 1),
            (n[0] + 1, n[1] + 1, n[2]))


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


class _Workspace:
    """Preallocated buffers of one EMState, and the views of its stores
    that a coupled step touches, built once.  Every buffer starts on a
    64-byte boundary (`energetics._aligned_empty`).

    `scratch` is one store component long, plus the slack of its offsets:
    each curl component is formed in it and applied at once, and between
    steps the drift forms its blocks of h + m_bar and its later terms
    in it.  `curl_h_views`, `curl_e_views` and `body_curl_e_views` are the
    per-component operands (`_curl_views`) of the backward curl of the h
    store, the forward curl of the e store and the predictor's forward
    curl on the window spanning the faces of the body cells, all formed in
    the scratch; `curl_body` views the backward curl's components on the
    body edge slabs and `body_curl_faces` the predictor's on the body face
    slabs.  `e_parts` and `h_parts` are the flat components of the stores.
    The predictor forms its h in `body_faces` and averages it into
    `body_cells`, which before that holds the stage-begin cell h.
    `body_h` views the h store on the body face slabs, and `e_body` the e
    store on the body edge slabs.  `tmp` is a flat scratch of two store
    components: the second difference quotient of a curl, m_bar's faces
    and the two divergence terms.
    `e_new` and `e_mid` (one block per component) hold the conduction
    update and twice the midpoint e on the body edge slabs.  `rate_faces`
    (a triple of the body face slabs) holds the predicted rate, then the
    increment dt x rate of a step's subcycles.  `mur` holds the Mur1
    planes with their buffers (`_mur_planes`) if the state's `bc` is MUR1.
    `div_views` are the drift's operands (`_div_views`) in the scratch and
    tmp, and `div_pads` the pad rows of its divergence; like every view
    here they are views of the buffers above and the stores, no new array.
    """

    def __init__(self, em: "EMState"):
        box = em.box
        size = em.e[0].size
        self.scratch = _aligned_empty(size + 7)
        self.tmp = _aligned_empty(2 * size)
        self.e_parts, self.h_parts = tuple(_flat(em.e)), tuple(_flat(em.h))
        self.curl_h_views = _curl_views(em.h, box, self.scratch, self.tmp, False)
        self.curl_e_views = _curl_views(em.e, box, self.scratch, self.tmp, True)
        window = tuple(_flat_span(slab, box) for slab in _body_face_slabs(box))
        self.body_curl_e_views = _curl_views(em.e, box, self.scratch, self.tmp, True, window)
        grid = store_shape(box)[1:]
        self.body_curl_faces = _body_faces([term[-1].reshape(grid)
                                            for term in self.body_curl_e_views], box)
        self.body_h = _body_faces(em.h, box)
        slabs = _body_edge_slabs(box)
        self.e_body = tuple(em.e[c][slab] for c, slab in enumerate(slabs))
        self.curl_body = tuple(term[-1].reshape(grid)[slab]
                               for term, slab in zip(self.curl_h_views, slabs))
        self.e_new = tuple(_aligned_empty(e.shape) for e in self.e_body)
        self.e_mid = tuple(_aligned_empty(e.shape) for e in self.e_body)
        self.rate_faces = tuple(_aligned_empty(f.shape) for f in self.body_curl_faces)
        self.body_faces = tuple(_aligned_empty(f.shape) for f in self.body_curl_faces)
        self.body_cells = _vector_field((box.mx, box.my, box.mz, 3))
        self.mur = _mur_planes(em.e, box) if em.bc == MUR1 else None
        self.div_views = _div_views(em.h, box, self.scratch[:size], self.tmp)
        planes = self.div_views[0].reshape(box.nx, box.ny + 1, box.nz + 1)
        self.div_pads = (planes[:, box.ny, :], planes[:, :, box.nz])


def _component(index: int, doc: str) -> property:
    """A field component, read-only: a view of its store."""
    return property(lambda self: self._views[index], doc=doc)


@dataclass
class EMState:
    """Electromagnetic state: the e and h stores (see the module
    docstring), the bookkeeping of the box, and div0, the initial
    div(h + m_bar) that `record_div0` records in the flat layout of
    `_div_planes` (its cells are `_plane_cells` of it).

    `ex` ... `hz` are read-only attributes, views of the stores, so
    writing into them (`em.hx[...] = a`) writes the fields.  The stores
    are never rebound: the component views and the workspace are built
    on them once.  The workspace `work` is no constructor argument:
    `workspace()` builds each state its own on first use.
    """

    box: BoxGeometry
    e: np.ndarray
    h: np.ndarray
    bc: str = PEC
    div0: Optional[np.ndarray] = None
    work: Optional[_Workspace] = field(default=None, init=False, repr=False,
                                       compare=False)

    ex = _component(0, "e on x edges")
    ey = _component(1, "e on y edges")
    ez = _component(2, "e on z edges")
    hx = _component(3, "h on x faces")
    hy = _component(4, "h on y faces")
    hz = _component(5, "h on z faces")

    def __post_init__(self):
        if self.bc not in BOUNDARIES:
            raise ValueError(f"unknown boundary {self.bc!r} (choose from {BOUNDARIES})")
        for name in ("e", "h"):
            store = getattr(self, name)
            if store.shape != store_shape(self.box) or not store.flags.c_contiguous:
                raise ValueError(f"{name} must be a C-contiguous array of shape "
                                 f"{store_shape(self.box)}")
        self._views = edge_views(self.e, self.box) + face_views(self.h, self.box)

    @property
    def omega_masks(self) -> tuple:
        """Boolean masks of the body edge slabs, one per e component."""
        masks = tuple(np.zeros(shape, dtype=bool) for shape in edge_shapes(self.box))
        for mask, slab in zip(masks, _body_edge_slabs(self.box)):
            mask[slab] = True
        return masks

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
                    index = first_bad_cell(~np.isfinite(a))
                    raise NonFinite(f"electromagnetic field {name} became non-finite "
                                    f"at step {step}, t={t:g}, first at index {index}")


def empty_em_state(box: BoxGeometry, bc: str = PEC) -> EMState:
    """Zero fields on the box with outer boundary bc (PEC or MUR1)."""
    return EMState(box, _aligned_empty(store_shape(box), zero=True),
                   _aligned_empty(store_shape(box), zero=True), bc=bc)


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


def _face_pads(store: np.ndarray, box: BoxGeometry) -> tuple:
    """The pad planes of an h store, per axis as one view of the two
    components short along it (faces are short along the two axes other
    than their own)."""
    n = (box.nx, box.ny, box.nz)
    return tuple(_off_axis(store, axis, n[axis]) for axis in range(3))


def _curl_views(src: np.ndarray, box: BoxGeometry, scratch: np.ndarray, tmp: np.ndarray,
                forward: bool, window: Optional[tuple] = None) -> tuple:
    """The operands of one curl of the store src, per component, for
    `_apply_curl`: for each component c, with (a, b) the next two axes in
    cyclic order,

        out[c] = (scale/h_b) (r D_a src[b] - D_b src[a]),   r = h_b/h_a,

    which is (scale/h_a) D_a src[b] - (scale/h_b) D_b src[a] up to
    roundoff; D is the forward (edges -> faces) or backward (faces ->
    edges) difference, a flat difference at the axis's offset.  Each
    component is written into the flat `scratch` of N + 7 entries, which
    holds one component at a time, from the offset (-lo) mod 8: the range
    [lo, hi) a component writes then starts on a 64-byte boundary when the
    scratch does.  Per component the operands are (p1, p0, q1,
    q0, o, t, r, h_b, zeros, dest): the minuend and subtrahend of each
    difference, the output range, the scratch `tmp` (a flat float array
    of at least one store component) cut to it, the two spacing factors,
    the planes zeroed after the passes, and the flat component written.

    The entries a flat difference cannot reach, and those where it wraps
    to the next row or plane, all lie on those planes: the component's
    pad planes and, for the backward curl, its edges on the box walls.
    With `window` (per component, a range of flat indices) only the
    entries within it are written, and nothing is zeroed.
    """
    n = (box.nx, box.ny, box.nz)
    spacing = (box.dx, box.dy, box.dz)
    strides = _strides(box)
    size = src[0].size
    s_flat = _flat(src)
    terms = []
    for c in range(3):
        a, b = (c + 1) % 3, (c + 2) % 3
        sa, sb = strides[a], strides[b]
        reach = max(sa, sb)
        lo, hi = (0, size - reach) if forward else (reach, size)
        if window is not None:
            lo, hi = max(lo, window[c].start), min(hi, window[c].stop)
        dest = scratch[-lo % 8:][:size]
        grid = dest.reshape(store_shape(box)[1:])
        if window is not None:
            zeros = ()
        elif forward:
            # faces are short along the two axes other than their own
            zeros = (grid[_along(a, n[a])], grid[_along(b, n[b])])
        else:
            # edges are short along their own axis; the planes 0 and n
            # along each other axis are the walls
            zeros = (grid[_along(c, n[c])],) + tuple(
                grid[_along(w, slice(0, n[w] + 1, n[w]))] for w in (a, b))
        # (minuend, subtrahend) offsets of the two differences
        pa, pb = ((sa, 0), (sb, 0)) if forward else ((0, -sa), (0, -sb))
        p, q = s_flat[b], s_flat[a]
        terms.append((p[lo + pa[0]:hi + pa[0]], p[lo + pa[1]:hi + pa[1]],
                      q[lo + pb[0]:hi + pb[0]], q[lo + pb[1]:hi + pb[1]],
                      dest[lo:hi], tmp[:hi - lo], spacing[b] / spacing[a],
                      spacing[b], zeros, dest))
    return tuple(terms)


def _apply_curl(term: tuple, scale: float) -> np.ndarray:
    """Form one component of the curl whose operands `_curl_views`
    sliced: (scale/h_b) (r D_a p - D_b q) in four passes, five when
    r != 1, then its zero planes.  Returns the flat component."""
    p1, p0, q1, q0, o, t, r, h, zeros, dest = term
    np.subtract(p1, p0, out=o)
    if r != 1.0:
        o *= r
    np.subtract(q1, q0, out=t)
    o -= t
    o *= scale / h
    for plane in zeros:
        plane[...] = 0.0
    return dest


def _gradient(phi: np.ndarray, box: BoxGeometry, out: np.ndarray) -> np.ndarray:
    """Gradient on faces of a cell scalar, with zero-Dirichlet ghosts
    outside the box, into the store `out`.

    phi is flat: one store component's index grid, behind one zero
    x-plane, holding the cells and zero pads (`_plane_cells` of
    phi[S0:-S0]), so each face difference, the outermost ones against a
    zero ghost included, is a flat difference at the axis's offset, and
    every pad of `out` gets (0 - 0)/h = +0.0.  Each quotient divides by h
    as `_quotient` does.
    """
    s0 = _strides(box)[0]
    size = out[0].size
    for g, s, h in zip(_flat(out), _strides(box), (box.dx, box.dy, box.dz)):
        np.subtract(phi[s0:], phi[s0 - s:s0 - s + size], out=g)
        by, q = _quotient(h)
        by(g, q, out=g)
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
        out = tuple(_aligned_empty(tuple(k + (i == axis) for i, k in enumerate(n)))
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


def interp_h_to_cells(em: EMState) -> np.ndarray:
    """Magnetic excitation averaged to body cell centers, from the body
    face slabs only."""
    return faces_to_cells(*_body_faces(em.h, em.box))


def _next8(n: int) -> int:
    """The first multiple of 8 at or after n: a float array carved from a
    64-byte aligned buffer at that offset starts on a boundary."""
    return -(-n // 8) * 8


def _plane_cells(div: np.ndarray, box: BoxGeometry) -> np.ndarray:
    """The (nx, ny, nz) view of the box cells in a flat divergence
    (`_div_terms`)."""
    return div.reshape(box.nx, box.ny + 1, box.nz + 1)[:, :box.ny, :box.nz]


def _quotient(h: float) -> tuple:
    """(ufunc, operand) dividing by h: the product with 1/h when h is a
    power of two, whose exact reciprocal rounds the same quotient at a
    fraction of a division's cost; else the division."""
    r = 1.0 / h
    return (np.multiply, r) if math.frexp(h)[0] == 0.5 and math.isfinite(r) else (np.divide, h)


def _div_views(h: np.ndarray, box: BoxGeometry, part: np.ndarray, out: np.ndarray) -> tuple:
    """The operands of `_div_terms` for the h store h.

    The divergence is flat, on the cells' x-planes of the store index
    grid, at the start of `out` (a flat scratch of at least two store
    components), and each later term from the first multiple of 8 entries
    after it (`_next8`).  Each term is a flat difference at the axis's
    offset, so the entries of each plane's pad rows are not the divergence
    (`_plane_cells` views the cells).  Per component c of h + m_bar the
    operands are the ranges of h whose flat difference is the term of
    every cell, the term's buffer (the divergence for c = 0, else `part`,
    one store component), the division by h_c (`_quotient`), and the
    blocks with c first that the body's faces along c reach: h on the face
    planes o - 1 to o + m + 1 along c (the body's along the others), its
    copy P and the cells of m zero-extended along c (both at the start of
    `part`), the faces of m_bar and then the differences D of P (at the
    start of the later buffer of `out`), and the term on the block's
    cells.  Every block is contiguous: a ufunc over a strided one would
    use numpy's iterator buffers."""
    n = box.nx * _strides(box)[0]
    div, later = out[:n], out[_next8(n):][:n]
    body = box.body_slices()
    terms = []
    for c, (h_c, S, hc) in enumerate(zip(_flat(h), _strides(box), (box.dx, box.dy, box.dz))):
        order = (c,) + tuple(a for a in range(3) if a != c)
        o, m = body[c].start, body[c].stop - body[c].start
        rest = tuple(body[a].stop - body[a].start for a in order[1:])
        P, E = (part[:k * math.prod(rest)].reshape((k,) + rest) for k in (m + 3, m + 2))
        D, face = (later[:k * math.prod(rest)].reshape((k,) + rest) for k in (m + 2, m + 1))
        faces = body[:c] + (slice(o - 1, o + m + 2),) + body[c + 1:]
        h_block = h[c][faces].transpose(order)
        d = div if c == 0 else part[:n]
        cells = body[:c] + (slice(o - 1, o + m + 1),) + body[c + 1:]
        d_block = d.reshape(box.nx, box.ny + 1, box.nz + 1)[cells].transpose(order)
        terms.append((h_c[S:S + n], h_c[:n], d, _quotient(hc), h_block,
                      (P, P[1:-1], P[1:], P[:-1]), D, d_block, order,
                      (E[1:-1], (E[0], E[-1]), E[1:], E[:-1]), face))
    return div, tuple(terms)


def _m_bar_face(m_c: np.ndarray, cells: tuple, face: np.ndarray):
    """Component c of m_bar on the faces along c of the body cells, from
    the body field's component m_c (c first; `_div_views`): each face is
    the mean of its two cells, (above + below) * 0.5, a zero cell beyond
    the body."""
    body, ends, above, below = cells
    for plane in ends:
        plane[...] = 0.0
    np.copyto(body, m_c)
    np.add(above, below, out=face)
    face *= 0.5


def _div_terms(views: tuple, m: np.ndarray) -> np.ndarray:
    """div(h + m_bar) for the body field m on the operands of
    `_div_views`, as a flat divergence.  Each term is taken straight from
    the h store, (h[j + S] - h[j]) / h_c, and on the block of cells m_bar
    reaches it is replaced by the differences of P = (h + 0.0) + m_bar,
    as h + m_bar was formed when the whole component was copied: on the
    block the bits are those, off it they differ at most in the sign of
    a zero."""
    div, terms = views
    for c, (hi, lo, d, (by, hc), h_block, (P, P_body, P_hi, P_lo), D, d_block, order, cells,
            face) in enumerate(terms):
        _m_bar_face(m[..., c].transpose(order), cells, face)
        np.copyto(P, h_block)
        P += 0.0
        P_body += face
        np.subtract(P_hi, P_lo, out=D)
        by(D, hc, out=D)
        np.subtract(hi, lo, out=d)
        by(d, hc, out=d)
        np.copyto(d_block, D)
        if d is not div:
            div += d
    return div


# ---------------------------------------------------------------------------
# Poisson projection


def _dirichlet_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues of the 1-D 3-point Laplacian with zero ghosts at -1 and n."""
    k = np.arange(1, n + 1)
    return -4.0 * np.sin(np.pi * k / (2.0 * (n + 1))) ** 2 / h**2


def poisson_solve(rhs: np.ndarray, box: BoxGeometry,
                  work: Optional[tuple] = None,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """Solve Lap(phi) = rhs at cell centers with zero-Dirichlet ghosts.

    The 7-point Laplacian of the box is the Kronecker sum of three 1-D
    Dirichlet Laplacians, each diagonalised exactly by the type-I discrete
    sine transform, so the solve is a forward DST-I, a division by the
    summed eigenvalues and an inverse DST-I (the fast Poisson solver of
    Buzbee, Golub & Nielson 1970): O(N log N), no factorisation.

    The forward transform's first two passes skip the lines beyond the
    rhs's reach (`dst.reached_lines`; a projection's rhs is zero outside
    the body and its one-cell ring), with the same bits.  Both transforms
    run in the work buffers: `work` is the pair of flat float buffers
    of the odd extensions and the spectra, of at least the sizes
    `dst.parts(rhs.shape)` (fresh when None).  The eigenvalue sum
    (lx + ly) + lz is formed in the extensions' buffer between the
    transforms.  The forward result is divided in place and overwritten
    by phi, in `out` (an array shaped like rhs; fresh when None).
    """
    if work is None:
        work = tuple(_aligned_empty(n) for n in dst.parts(rhs.shape))
    ext, spec = work
    if out is None:
        out = _aligned_empty(rhs.shape)
    dst.transform(rhs, ext, spec, out, lines=dst.reached_lines(rhs, ext))
    lam = ext[:rhs.size].reshape(rhs.shape)
    np.add(_dirichlet_eigenvalues(box.nx, box.dx)[:, None, None],
           _dirichlet_eigenvalues(box.ny, box.dy)[None, :, None], out=lam)
    lam += _dirichlet_eigenvalues(box.nz, box.dz)[None, None, :]
    out /= lam
    # idstn's normalisation as pocketfft forms it, in long double
    scale = float(1 / np.longdouble(8 * (box.nx + 1) * (box.ny + 1) * (box.nz + 1)))
    return dst.transform(out, ext, spec, out, scale)


def init_divfree(m0: np.ndarray, h_raw, box: BoxGeometry,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """Magnetic excitation with div(h + m_bar) = 0 at every cell center.

    h = h_raw - grad phi with Lap phi = div m_bar: h_raw, a uniform
    3-vector, is divergence-free and enters after the solve; h_raw = 0
    gives the magnetostatic field.  m0 is the body magnetization; m_bar,
    its zero extension to the box, lives on the body face slabs.  The
    operands of `_div_terms` on the h store are built once
    (`_div_views`): the rhs is the kernel on the zeroed store, and -grad
    phi is checked with it, max|div(h + m_bar)| <= POISSON_TOL (1 +
    max|rhs|), before h_raw is added, so that a large h_raw does not
    swamp the check.  Returns the h store: `out` (its pads zero), written
    in place, or a fresh one.

    Every pass over h runs over whole store components, pads included,
    which are zeroed at the end.  h is the zeroed store of the rhs, then
    holds the solve's odd extensions, then -grad phi.  One flat scratch
    holds the divergence (the rhs, read in place by the solve) at its
    start and, after it, the divergence's later terms and `part` buffer,
    then the spectra and phi.  Phi lies on the store's index grid
    (`_plane_cells` of phi[S0:-S0]), so its gradient is flat differences.
    """
    h = _aligned_empty(store_shape(box)) if out is None else out
    shape = (box.nx, box.ny, box.nz)
    n_ext, n_spec = dst.parts(shape)
    S0 = _strides(box)[0]
    n_phi = (box.nx + 2) * S0
    n = _next8(box.nx * S0)
    scratch = _aligned_empty(n + max(n + h[0].size, n_spec + n_phi))
    part, after = scratch[2 * n:][:h[0].size], scratch[n:]
    views = _div_views(h, box, part, scratch)
    h.fill(0.0)
    rhs = _plane_cells(_div_terms(views, m0), box)
    rhs_max = max(rhs.max(), -rhs.min())
    phi = after[n_spec:n_spec + n_phi]
    phi.fill(0.0)
    poisson_solve(rhs, box, (_flat(h).reshape(-1)[:n_ext], after),
                  _plane_cells(phi[S0:-S0], box))
    np.negative(_gradient(phi, box, h), out=h)

    div = _div_terms(views, m0)
    resid = _plane_cells(np.abs(div, out=div), box).max()
    if not np.isfinite(resid) or resid > POISSON_TOL * (1.0 + rhs_max):
        raise SolverDiverged(f"divergence projection residual {resid:g} above tolerance")
    # -grad phi + h_raw rounds as h_raw - grad phi
    for a, raw in zip(_flat(h), np.asarray(h_raw, dtype=float).reshape(3)):
        a += raw
    for pad in _face_pads(h, box):
        pad[...] = 0.0
    return h


def divergence_drift(em: EMState, m: np.ndarray) -> float:
    """Max deviation of div(h + m_bar) from its recorded initial values
    (`record_div0`; zero when none is recorded).

    Both are in the flat layout of `_div_planes`, so the difference and
    its maximum are flat passes, and the call allocates nothing."""
    current = _div_planes(em, m)
    if em.div0 is not None:
        current -= em.div0
    np.abs(current, out=current)
    return float(current.max())


def record_div0(em: EMState, m: np.ndarray):
    """Record div(h + m_bar) for the body field m as the state's div0, in
    the flat layout of `_div_planes`."""
    em.div0 = _div_planes(em, m).copy()


def _div_planes(em: EMState, m: np.ndarray) -> np.ndarray:
    """div(h + m_bar) for the body field m as a flat divergence with the
    entries of the pad rows zero, in the workspace's tmp (valid until
    the workspace is next used): `_div_terms` of the h store on the
    workspace's `div_views`.
    """
    work = em.workspace()
    div = _div_terms(work.div_views, m)
    for pad in work.div_pads:
        pad[...] = 0.0
    return div


# ---------------------------------------------------------------------------
# time stepping


def cfl_limit(box: BoxGeometry, params: MaterialParams) -> float:
    c = params.speed_of_light
    return 1.0 / (c * np.sqrt(1.0 / box.dx**2 + 1.0 / box.dy**2 + 1.0 / box.dz**2))


def _mur_planes(e: np.ndarray, box: BoxGeometry) -> list:
    """Per axis: the boundary planes 0 and n of the two tangential e
    components as one view of the e store (`_wall_planes`), their inner
    neighbours 1 and n - 1 as another, and buffers for the old values of
    both, each with the wall axis second so that its passes run along
    rows.  The box needs 3 cells or more along every axis (`make_box`
    gives at least 3), so that no boundary plane is another's neighbour."""
    n = (box.nx, box.ny, box.nz)
    planes = []
    for axis, dst in enumerate(_wall_planes(e, box)):
        order = (0, axis + 1) + tuple(a for a in (1, 2, 3) if a != axis + 1)
        dst = dst.transpose(order)
        inner = _off_axis(e, axis, slice(1, n[axis], n[axis] - 2)).transpose(order)
        planes.append((axis, dst, inner, _aligned_empty(dst.shape),
                       _aligned_empty(dst.shape)))
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
    nothing and allocates nothing box-sized: each curl component is formed
    in the workspace's scratch and applied to its field component (with
    its conduction update) before the next is formed.  The step's Ohmic
    and source work, taken at the midpoint e as the semi-implicit update's
    identity has them, is added to `acc.ohmic` and `acc.source` when acc
    is given.
    """
    box = em.box
    limit = cfl_limit(box, params)
    if dt > limit * (1.0 + 1e-12):
        raise CFLViolation(f"dt={dt:g} exceeds the Yee bound {limit:g}")

    work = em.workspace()
    sigma, eps0 = params.sigma, params.eps0
    k = dt / eps0
    if em.bc == MUR1:
        # the boundary and next-inner planes before the update
        for _, dst, inner, old, inner_old in work.mur:
            np.copyto(old, dst)
            np.copyto(inner_old, inner)

    dV = box.cell_volume
    beta = sigma * dt / (2.0 * eps0)
    for term, e, e_body, curl_body, fc, e_new, e_mid in zip(
            work.curl_h_views, work.e_parts, work.e_body, work.curl_body, f_value,
            work.e_new, work.e_mid):
        ce = _apply_curl(term, k)
        if sigma != 0.0:
            # conduction acts on the body edges only, where e becomes
            # ((1 - beta) e + k (curl h - sigma f)) / (1 + beta); outside
            # them the update is the vacuum one, e += curl h
            if fc != 0.0:
                np.subtract(curl_body, k * sigma * fc, out=e_new)
                np.multiply(e_body, 1.0 - beta, out=e_mid)
                e_new += e_mid
            else:
                np.multiply(e_body, 1.0 - beta, out=e_new)
                e_new += curl_body
            e_new /= 1.0 + beta
            if acc is not None:
                # e_mid is twice the midpoint e; the factors 0.25 and 0.5
                # rescale exactly, so the sums keep the midpoint's bits
                np.add(e_body, e_new, out=e_mid)
                acc.ohmic += dt * sigma * dV * (0.25 * dot(e_mid, e_mid))
                if fc != 0.0:
                    e_mid *= 0.5 * fc
                    acc.source += dt * sigma * dV * esum(e_mid)
        e += ce
        if sigma != 0.0:
            np.copyto(e_body, e_new)

    if em.bc == MUR1:
        _apply_mur(box, work.mur, params, dt)

    for term, h, h_body, dm in zip(work.curl_e_views, work.h_parts, work.body_h,
                                   dm_faces or (None,) * 3):
        h -= _apply_curl(term, dt)
        if dm is not None:
            h_body -= dm
    return em


def stage_h_cells(em: EMState) -> np.ndarray:
    """The stage-begin h of a coupled step: `interp_h_to_cells` of the
    workspace's `body_h` views, in its `body_cells` (valid until the
    workspace is next used)."""
    work = em.workspace()
    return faces_to_cells(*work.body_h, out=work.body_cells)


def _midpoint_h_cells(em: EMState, m_dot: np.ndarray, dt: float) -> np.ndarray:
    """Predicted Maxwell h at the step midpoint, on magnetization cells.

    Freezing h at its stage-begin value injects (dt^2/2)|R^T m_dot|^2 of
    spurious electromagnetic energy per step, a sign-definite O(dt)
    fraction of the dissipated energy that swamps the energy-inequality
    diagnostic.  Centering the Zeeman coupling with an explicit predictor
    reduces the coupling error to O(dt^3) per step at the cost of a whole
    extra step of the integrator (`dynamics.step`: two field evaluations
    for Heun, four for RK4); divergence bookkeeping is unaffected because
    the h update still uses the realized rate.

    The body cells average only the body face slabs, so (dt/2) curl e
    and the rate m_dot are taken on those faces only; the result is the
    workspace's `body_cells`.  Private, so that the benchmark's tracer
    (which wraps public functions) books its transfers under the step.
    """
    work = em.workspace()
    half = 0.5 * dt
    rate = cells_to_faces(m_dot, out=work.rate_faces)
    for term, f, h, c, r in zip(work.body_curl_e_views, work.body_faces, work.body_h,
                                work.body_curl_faces, rate):
        # f = h - half curl e - half m_dot, in that order
        _apply_curl(term, half)
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
