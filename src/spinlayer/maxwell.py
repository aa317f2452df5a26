"""Maxwell solver on a truncated box around the magnetic body.

Staggered placement: e on cell edges, h on cell faces, so the two
discrete curls are exact adjoints and div(curl e) vanishes identically at
cell centers.  The h update carries the magnetization rate (zero outside
the body), which makes div(h + m_bar) a conserved quantity of the
coupled step up to roundoff.

The conduction term sigma (e + f) 1_Omega is integrated semi-implicitly,
which is unconditionally stable in sigma and keeps the Ohmic dissipation
sign-definite.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.fft

from .errors import CFLViolation, NonFinite, SolverDiverged
from .geometry import DomainGeometry
from .energetics import MaterialParams
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

    `ce` holds curl h on edges (its boundary edges are never written and
    stay zero), `ch` curl e on faces, `tmp` the two difference quotients
    of either curl.  `rate_faces` (a triple of the body face slabs) holds
    the magnetization rate on faces while a step's subcycles run; the
    midpoint-h predictor forms its h in `body_faces` and its cell average
    in `body_cells`.  Between steps the ledger's divergence drift forms
    m_bar in `rate_faces`, h + m_bar in `ch` and the divergence in `tmp`.
    `mur` holds the boundary planes of a Mur1 substep, allocated on the
    first one.
    """

    def __init__(self, box: BoxGeometry):
        self.ce = tuple(np.zeros(s) for s in edge_shapes(box))
        self.ch = tuple(np.empty(s) for s in face_shapes(box))
        self.tmp = np.empty(2 * max(a.size for a in self.ce + self.ch))
        mx, my, mz = box.mx, box.my, box.mz
        body_face_shapes = ((mx + 1, my, mz), (mx, my + 1, mz), (mx, my, mz + 1))
        self.rate_faces = tuple(np.empty(s) for s in body_face_shapes)
        self.body_faces = tuple(np.empty(s) for s in body_face_shapes)
        self.body_cells = np.empty((mx, my, mz, 3))
        self.mur = None


@dataclass
class EMState:
    box: BoxGeometry
    ex: np.ndarray
    ey: np.ndarray
    ez: np.ndarray
    hx: np.ndarray
    hy: np.ndarray
    hz: np.ndarray
    bc: str = PEC
    div0: Optional[np.ndarray] = None
    omega_masks: tuple = field(default=None, repr=False)
    work: Optional[_Workspace] = field(default=None, repr=False, compare=False)

    def copy(self) -> "EMState":
        return EMState(self.box, self.ex.copy(), self.ey.copy(), self.ez.copy(),
                       self.hx.copy(), self.hy.copy(), self.hz.copy(),
                       self.bc, None if self.div0 is None else self.div0.copy(),
                       self.omega_masks)

    def workspace(self) -> _Workspace:
        if self.work is None:
            self.work = _Workspace(self.box)
        return self.work

    def body_h(self) -> tuple:
        """Views of h on the body face slabs."""
        return tuple(h[slab] for h, slab in zip((self.hx, self.hy, self.hz),
                                                _body_face_slabs(self.box)))

    def body_cell_edges(self) -> tuple:
        """Views of the edges that bound the body cells: an edge field on a
        box of the body's size, whose curl is curl e on the body face
        slabs."""
        (cx, nx, _), (cy, ny, _), (cz, nz, _) = _body_ranges(self.box)
        return self.ex[cx, ny, nz], self.ey[nx, cy, nz], self.ez[nx, ny, cz]

    def assert_finite(self, step: int, t: float):
        """Raise NonFinite naming the step, t, the first non-finite
        component and its first bad index."""
        for name in ("ex", "ey", "ez", "hx", "hy", "hz"):
            a = getattr(self, name)
            if not np.isfinite(a).all():
                index = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
                raise NonFinite(f"electromagnetic field {name} became non-finite "
                                f"at step {step}, t={t:g}, first at index {index}")


def empty_em_state(box: BoxGeometry, bc: str = PEC) -> EMState:
    """Zero fields on the box with outer boundary bc (PEC or MUR1)."""
    if bc not in BOUNDARIES:
        raise ValueError(f"unknown boundary {bc!r} (choose from {BOUNDARIES})")
    es = edge_shapes(box)
    fs = face_shapes(box)
    state = EMState(box, np.zeros(es[0]), np.zeros(es[1]), np.zeros(es[2]),
                    np.zeros(fs[0]), np.zeros(fs[1]), np.zeros(fs[2]), bc=bc)
    state.omega_masks = _body_edge_masks(box)
    return state


class AppliedCurrent:
    """Spatially uniform forcing current inside the body.

    Presets: zero, or a Gaussian pulse amp * exp(-((t-t0)/width)^2 / 2).
    """

    def __init__(self, amplitude=(0.0, 0.0, 0.0), t0: float = 0.0,
                 width: float = 1.0, kind: str = "zero"):
        self.amplitude = np.asarray(amplitude, dtype=float)
        self.t0 = float(t0)
        self.width = float(width)
        self.kind = kind
        if kind not in ("zero", "pulse"):
            raise ValueError(f"unknown current preset {kind!r}")
        if kind == "pulse" and self.width <= 0:
            raise ValueError("pulse width must be positive")

    @staticmethod
    def zero() -> "AppliedCurrent":
        return AppliedCurrent()

    def value(self, t: float) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros(3)
        return self.amplitude * np.exp(-0.5 * ((t - self.t0) / self.width) ** 2)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero" or not np.any(self.amplitude)


# ---------------------------------------------------------------------------
# staggered-grid operators


def _curl_component(p_hi, p_lo, hp, q_hi, q_lo, hq, out, tmp):
    """out = (p_hi - p_lo)/hp - (q_hi - q_lo)/hq.

    Both quotients are formed in contiguous slices of tmp (at least twice
    the size of out), so only the last subtraction writes into out, which
    may be a strided view.
    """
    n = out.size
    p = tmp[:n].reshape(out.shape)
    q = tmp[n:2 * n].reshape(out.shape)
    np.subtract(p_hi, p_lo, out=p)
    np.divide(p, hp, out=p)
    np.subtract(q_hi, q_lo, out=q)
    np.divide(q, hq, out=q)
    np.subtract(p, q, out=out)


def curl_e(ex, ey, ez, box: BoxGeometry, out=None, tmp=None) -> tuple:
    """Edge field -> curl on faces.

    `out` (three face arrays) and `tmp` (a flat float array of at least
    twice the largest face size) make the call allocation-free.
    """
    dx, dy, dz = box.dx, box.dy, box.dz
    if out is None:
        out = tuple(np.empty(s) for s in face_shapes(box))
    if tmp is None:
        tmp = np.empty(2 * max(a.size for a in out))
    chx, chy, chz = out
    _curl_component(ez[:, 1:, :], ez[:, :-1, :], dy, ey[:, :, 1:], ey[:, :, :-1], dz,
                    chx, tmp)
    _curl_component(ex[:, :, 1:], ex[:, :, :-1], dz, ez[1:, :, :], ez[:-1, :, :], dx,
                    chy, tmp)
    _curl_component(ey[1:, :, :], ey[:-1, :, :], dx, ex[:, 1:, :], ex[:, :-1, :], dy,
                    chz, tmp)
    return out


def curl_h(hx, hy, hz, box: BoxGeometry, out=None, tmp=None) -> tuple:
    """Face field -> curl on interior edges; boundary edges stay zero.

    `out` (three edge arrays whose boundary edges are zero) and `tmp` (a
    flat float array of at least twice the largest edge size) make the call
    allocation-free; only the interior edges of `out` are written.
    """
    dx, dy, dz = box.dx, box.dy, box.dz
    if out is None:
        out = tuple(np.zeros(s) for s in edge_shapes(box))
    if tmp is None:
        tmp = np.empty(2 * max(a.size for a in out))
    cex, cey, cez = out
    _curl_component(hz[:, 1:, 1:-1], hz[:, :-1, 1:-1], dy,
                    hy[:, 1:-1, 1:], hy[:, 1:-1, :-1], dz, cex[:, 1:-1, 1:-1], tmp)
    _curl_component(hx[1:-1, :, 1:], hx[1:-1, :, :-1], dz,
                    hz[1:, :, 1:-1], hz[:-1, :, 1:-1], dx, cey[1:-1, :, 1:-1], tmp)
    _curl_component(hy[1:, 1:-1, :], hy[:-1, 1:-1, :], dx,
                    hx[1:-1, 1:, :], hx[1:-1, :-1, :], dy, cez[1:-1, 1:-1, :], tmp)
    return out


def div_faces(fx, fy, fz, box: BoxGeometry) -> np.ndarray:
    """Face field -> divergence at cell centers."""
    return ((fx[1:, :, :] - fx[:-1, :, :]) / box.dx
            + (fy[:, 1:, :] - fy[:, :-1, :]) / box.dy
            + (fz[:, :, 1:] - fz[:, :, :-1]) / box.dz)


def grad_cells(phi: np.ndarray, box: BoxGeometry) -> tuple:
    """Cell scalar -> gradient on faces, zero-Dirichlet ghosts outside."""
    p = np.pad(phi, 1)
    gx = (p[1:, 1:-1, 1:-1] - p[:-1, 1:-1, 1:-1]) / box.dx
    gy = (p[1:-1, 1:, 1:-1] - p[1:-1, :-1, 1:-1]) / box.dy
    gz = (p[1:-1, 1:-1, 1:] - p[1:-1, 1:-1, :-1]) / box.dz
    return gx, gy, gz


def cells_to_faces(c: np.ndarray, box: BoxGeometry, out=None) -> tuple:
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

    `out` (a cell 3-vector field) makes the call allocation-free.
    """
    if out is None:
        out = np.empty((fx.shape[0] - 1,) + fx.shape[1:] + (3,))
    for i, (lo, hi) in enumerate(((fx[:-1, :, :], fx[1:, :, :]),
                                  (fy[:, :-1, :], fy[:, 1:, :]),
                                  (fz[:, :, :-1], fz[:, :, 1:]))):
        c = out[..., i]
        np.add(hi, lo, out=c)
        c *= 0.5
    return out


def embed_cell_field(m: np.ndarray, box: BoxGeometry) -> np.ndarray:
    """Zero-extend a body cell field to the full box."""
    out = np.zeros((box.nx, box.ny, box.nz, 3))
    out[box.body_slices()] = m
    return out


def interp_h_to_cells(em: EMState, geom: DomainGeometry) -> np.ndarray:
    """Magnetic excitation averaged to body cell centers, from the body
    face slabs only."""
    return faces_to_cells(*em.body_h())


# ---------------------------------------------------------------------------
# Poisson projection


def _dirichlet_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues of the 1-D 3-point Laplacian with zero ghosts at -1 and n."""
    k = np.arange(1, n + 1)
    return -4.0 * np.sin(np.pi * k / (2.0 * (n + 1))) ** 2 / h**2


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
    return scipy.fft.idstn(scipy.fft.dstn(rhs, type=1) / lam, type=1)


def init_divfree(m0_cells: np.ndarray, h0_spec, box: BoxGeometry,
                 tol: float = POISSON_TOL) -> tuple:
    """Magnetic excitation with div(h + m_bar) = 0 at every cell center.

    h0_spec: "magnetostatic" (h = -grad phi with Lap phi = div m_bar),
    "zero", a length-3 uniform vector, or an explicit (hx, hy, hz) face
    triple; explicit data is corrected by a gradient.  m0_cells is the
    body magnetization already zero-extended to the box.
    """
    mf = cells_to_faces(m0_cells, box)
    if isinstance(h0_spec, str) and h0_spec in ("magnetostatic", "zero"):
        fs = face_shapes(box)
        h_raw = (np.zeros(fs[0]), np.zeros(fs[1]), np.zeros(fs[2]))
    elif isinstance(h0_spec, tuple) and len(h0_spec) == 3 and np.ndim(h0_spec[0]) == 3:
        h_raw = h0_spec
    else:
        vec = np.asarray(h0_spec, dtype=float).reshape(3)
        fs = face_shapes(box)
        h_raw = (np.full(fs[0], vec[0]), np.full(fs[1], vec[1]), np.full(fs[2], vec[2]))

    if isinstance(h0_spec, str) and h0_spec == "zero" and not np.any(m0_cells):
        return h_raw

    rhs = div_faces(h_raw[0] + mf[0], h_raw[1] + mf[1], h_raw[2] + mf[2], box)
    phi = poisson_solve(rhs, box)
    gx, gy, gz = grad_cells(phi, box)
    h = (h_raw[0] - gx, h_raw[1] - gy, h_raw[2] - gz)

    resid = np.max(np.abs(div_faces(h[0] + mf[0], h[1] + mf[1], h[2] + mf[2], box)))
    if not np.isfinite(resid) or resid > tol * (1.0 + np.max(np.abs(rhs))):
        raise SolverDiverged(f"divergence projection residual {resid:g} above tolerance")
    return h


def _divergence(em: EMState, m: np.ndarray) -> np.ndarray:
    """div(h + m_bar) at the box cell centers for the body field m.

    h + m_bar is formed in the workspace's face buffers, m_bar added on
    the body face slabs only (it vanishes elsewhere), and the divergence
    in the front of its `tmp`, which the returned array views: valid
    until the workspace is next used.  The operation order is that of
    `div_faces`, so the values are those of div_faces(h + m_bar).
    """
    box = em.box
    work = em.workspace()
    m_faces = cells_to_faces(m, box, out=work.rate_faces)
    for f, h, mf, slab in zip(work.ch, (em.hx, em.hy, em.hz), m_faces,
                              _body_face_slabs(box)):
        np.copyto(f, h)
        f[slab] += mf
    fx, fy, fz = work.ch
    n = box.nx * box.ny * box.nz
    div = work.tmp[:n].reshape(box.nx, box.ny, box.nz)
    t = work.tmp[n:2 * n].reshape(div.shape)
    np.subtract(fx[1:, :, :], fx[:-1, :, :], out=div)
    div /= box.dx
    np.subtract(fy[:, 1:, :], fy[:, :-1, :], out=t)
    t /= box.dy
    div += t
    np.subtract(fz[:, :, 1:], fz[:, :, :-1], out=t)
    t /= box.dz
    div += t
    return div


def divergence_drift(em: EMState, m: np.ndarray, geom: DomainGeometry) -> float:
    """Max deviation of div(h + m_bar) from its recorded initial values."""
    current = _divergence(em, m)
    if em.div0 is not None:
        current -= em.div0
    np.abs(current, out=current)
    return float(current.max())


def record_div0(em: EMState, m: np.ndarray, geom: DomainGeometry):
    em.div0 = _divergence(em, m).copy()


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


def _apply_mur(em: EMState, old: dict, params: MaterialParams, dt: float):
    """First-order absorbing update of tangential e on the six box faces."""
    coefs = [_mur_coef(params, dt, h) for h in (em.box.dx, em.box.dy, em.box.dz)]
    for name, axis in _MUR_PLANES:
        comp = getattr(em, name)
        coef = coefs[axis]
        lo_old, lo_in_old, hi_old, hi_in_old = old[(name, axis)]
        comp[_along(axis, 0)] = lo_in_old + coef * (comp[_along(axis, 1)] - lo_old)
        comp[_along(axis, -1)] = hi_in_old + coef * (comp[_along(axis, -2)] - hi_old)


def _capture_mur_old(em: EMState) -> dict:
    """The boundary and next-inner planes of the tangential e components,
    copied into the workspace (allocated on the first call)."""
    work = em.workspace()
    if work.mur is None:
        work.mur = {(name, axis): tuple(np.empty_like(getattr(em, name)[_along(axis, 0)])
                                        for _ in range(4))
                    for name, axis in _MUR_PLANES}
    for name, axis in _MUR_PLANES:
        comp = getattr(em, name)
        for buf, index in zip(work.mur[(name, axis)], (0, 1, -1, -2)):
            np.copyto(buf, comp[_along(axis, index)])
    return work.mur


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
    curl_h(em.hx, em.hy, em.hz, box, out=work.ce, tmp=work.tmp)
    mur_old = _capture_mur_old(em) if em.bc == MUR1 else None

    sigma, eps0, mu0 = params.sigma, params.eps0, params.mu0
    dV = box.cell_volume
    k = dt / eps0
    beta = sigma * dt / (2.0 * eps0)
    for e, ce, slab, fc in zip((em.ex, em.ey, em.ez), work.ce, _body_edge_slabs(box),
                               f_value):
        if sigma != 0.0:
            # conduction acts on the body edges only; outside them the
            # update is the vacuum one below
            e_body = e[slab]
            e_new = ((1.0 - beta) * e_body + k * (ce[slab] - sigma * fc)) / (1.0 + beta)
            if accum is not None:
                e_mid = 0.5 * (e_body + e_new)
                accum["ohmic"] += dt * (sigma / mu0) * dV * dot(e_mid, e_mid)
                if fc != 0.0:
                    accum["source"] += dt * (sigma / mu0) * dV * esum(fc * e_mid)
        np.multiply(ce, k, out=ce)
        np.add(e, ce, out=e)
        if sigma != 0.0:
            e[slab] = e_new

    if em.bc == MUR1:
        _apply_mur(em, mur_old, params, dt)

    curl_e(em.ex, em.ey, em.ez, box, out=work.ch, tmp=work.tmp)
    for h, ch in zip((em.hx, em.hy, em.hz), work.ch):
        np.multiply(ch, dt / mu0, out=ch)
        np.subtract(h, ch, out=h)
    if m_dot_faces is not None:
        for h, mf in zip(em.body_h(), m_dot_faces):
            rate = work.tmp[:mf.size].reshape(mf.shape)
            np.multiply(mf, dt, out=rate)
            h -= rate
    return em


def zero_boundary_tangential_e(em: EMState):
    """Enforce the perfectly conducting wall on tangential e."""
    em.ex[:, 0, :] = 0.0
    em.ex[:, -1, :] = 0.0
    em.ex[:, :, 0] = 0.0
    em.ex[:, :, -1] = 0.0
    em.ey[0, :, :] = 0.0
    em.ey[-1, :, :] = 0.0
    em.ey[:, :, 0] = 0.0
    em.ey[:, :, -1] = 0.0
    em.ez[0, :, :] = 0.0
    em.ez[-1, :, :] = 0.0
    em.ez[:, 0, :] = 0.0
    em.ez[:, -1, :] = 0.0
