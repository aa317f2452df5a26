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

from .errors import CFLViolation, SolverDiverged
from .geometry import DomainGeometry
from .energetics import MaterialParams
from .summation import esum

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


def _body_edge_slabs(box: BoxGeometry) -> tuple:
    """Index slabs of the edges whose midpoint lies strictly inside the body.

    An edge along an axis is inside when its cell index along that axis is
    a body cell and its node indices along the other two axes are interior
    body nodes, so each component's body edges form one rectangular block.
    """
    def half(o, m):
        return slice(o, o + m)

    def node(o, m):
        return slice(o + 1, o + m)

    return ((half(box.ox, box.mx), node(box.oy, box.my), node(box.oz, box.mz)),
            (node(box.ox, box.mx), half(box.oy, box.my), node(box.oz, box.mz)),
            (node(box.ox, box.mx), node(box.oy, box.my), half(box.oz, box.mz)))


def _body_edge_masks(box: BoxGeometry) -> tuple:
    """Boolean masks of the body edge slabs."""
    masks = []
    for shape, slab in zip(edge_shapes(box), _body_edge_slabs(box)):
        mask = np.zeros(shape, dtype=bool)
        mask[slab] = True
        masks.append(mask)
    return tuple(masks)


class _Workspace:
    """Preallocated buffers of one EMState's leapfrog step.

    `ce` holds curl h on edges (its boundary edges are never written and
    stay zero), `ch` curl e on faces, `tmp` the two difference quotients
    of either curl.
    """

    def __init__(self, box: BoxGeometry):
        self.ce = tuple(np.zeros(s) for s in edge_shapes(box))
        self.ch = tuple(np.empty(s) for s in face_shapes(box))
        self.tmp = np.empty(2 * max(a.size for a in self.ce + self.ch))


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

    def assert_finite(self, t: float):
        """Raise NonFinite naming t, the first non-finite component and
        its first bad index."""
        for name in ("ex", "ey", "ez", "hx", "hy", "hz"):
            a = getattr(self, name)
            if not np.isfinite(a).all():
                from .errors import NonFinite
                index = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
                raise NonFinite(f"electromagnetic field {name} became non-finite "
                                f"at t={t:g}, first at index {index}")


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


def cells_to_faces(c: np.ndarray, box: BoxGeometry) -> tuple:
    """Cell 3-vector field -> face samples (adjoint of faces_to_cells)."""
    px = np.pad(c[..., 0], ((1, 1), (0, 0), (0, 0)))
    py = np.pad(c[..., 1], ((0, 0), (1, 1), (0, 0)))
    pz = np.pad(c[..., 2], ((0, 0), (0, 0), (1, 1)))
    fx = 0.5 * (px[1:, :, :] + px[:-1, :, :])
    fy = 0.5 * (py[:, 1:, :] + py[:, :-1, :])
    fz = 0.5 * (pz[:, :, 1:] + pz[:, :, :-1])
    return fx, fy, fz


def faces_to_cells(fx, fy, fz) -> np.ndarray:
    """Face field -> cell-centered 3-vector by adjacent averaging."""
    cx = 0.5 * (fx[1:, :, :] + fx[:-1, :, :])
    cy = 0.5 * (fy[:, 1:, :] + fy[:, :-1, :])
    cz = 0.5 * (fz[:, :, 1:] + fz[:, :, :-1])
    return np.stack([cx, cy, cz], axis=-1)


def embed_cell_field(m: np.ndarray, box: BoxGeometry) -> np.ndarray:
    """Zero-extend a body cell field to the full box."""
    out = np.zeros((box.nx, box.ny, box.nz, 3))
    out[box.body_slices()] = m
    return out


def interp_h_to_cells(em: EMState, geom: DomainGeometry) -> np.ndarray:
    """Magnetic excitation averaged to body cell centers."""
    cells = faces_to_cells(em.hx, em.hy, em.hz)
    return cells[em.box.body_slices()]


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


def divergence_field(em: EMState, m_cells_box: np.ndarray) -> np.ndarray:
    mf = cells_to_faces(m_cells_box, em.box)
    return div_faces(em.hx + mf[0], em.hy + mf[1], em.hz + mf[2], em.box)


def divergence_drift(em: EMState, m: np.ndarray, geom: DomainGeometry) -> float:
    """Max deviation of div(h + m_bar) from its recorded initial values."""
    current = divergence_field(em, embed_cell_field(m, em.box))
    if em.div0 is None:
        return float(np.max(np.abs(current)))
    return float(np.max(np.abs(current - em.div0)))


def record_div0(em: EMState, m: np.ndarray, geom: DomainGeometry):
    em.div0 = divergence_field(em, embed_cell_field(m, em.box))


# ---------------------------------------------------------------------------
# time stepping


def cfl_limit(box: BoxGeometry, params: MaterialParams) -> float:
    c = params.speed_of_light
    return 1.0 / (c * np.sqrt(1.0 / box.dx**2 + 1.0 / box.dy**2 + 1.0 / box.dz**2))


def _mur_coef(params: MaterialParams, dt: float, h: float) -> float:
    c = params.speed_of_light
    return (c * dt - h) / (c * dt + h)


def _apply_mur(em: EMState, old: dict, params: MaterialParams, dt: float):
    """First-order absorbing update of tangential e on the six box faces."""
    cx = _mur_coef(params, dt, em.box.dx)
    cy = _mur_coef(params, dt, em.box.dy)
    cz = _mur_coef(params, dt, em.box.dz)
    for name, comp, axis, coef in (
            ("ey", em.ey, 0, cx), ("ez", em.ez, 0, cx),
            ("ex", em.ex, 1, cy), ("ez", em.ez, 1, cy),
            ("ex", em.ex, 2, cz), ("ey", em.ey, 2, cz)):
        lo_old, lo_in_old, hi_old, hi_in_old = old[(name, axis)]
        sl0 = [slice(None)] * 3
        sl1 = [slice(None)] * 3
        sl0[axis] = 0
        sl1[axis] = 1
        comp[tuple(sl0)] = lo_in_old + coef * (comp[tuple(sl1)] - lo_old)
        sl0[axis] = -1
        sl1[axis] = -2
        comp[tuple(sl0)] = hi_in_old + coef * (comp[tuple(sl1)] - hi_old)


def _capture_mur_old(em: EMState) -> dict:
    old = {}
    for name, comp, axis in (("ey", em.ey, 0), ("ez", em.ez, 0),
                             ("ex", em.ex, 1), ("ez", em.ez, 1),
                             ("ex", em.ex, 2), ("ey", em.ey, 2)):
        sl0 = [slice(None)] * 3
        sl1 = [slice(None)] * 3
        sl0[axis] = 0
        sl1[axis] = 1
        lo, lo_in = comp[tuple(sl0)].copy(), comp[tuple(sl1)].copy()
        sl0[axis] = -1
        sl1[axis] = -2
        hi, hi_in = comp[tuple(sl0)].copy(), comp[tuple(sl1)].copy()
        old[(name, axis)] = (lo, lo_in, hi, hi_in)
    return old


def fdtd_step(em: EMState, m_dot_faces: Optional[tuple], f_value: np.ndarray,
              params: MaterialParams, dt: float, accum: Optional[dict] = None) -> EMState:
    """One leapfrog step: e update (semi-implicit conduction), then h.

    m_dot_faces is the magnetization rate already transferred to the box
    faces (`cells_to_faces` of its zero extension), or None.  The fields
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
                accum["ohmic"] += dt * (sigma / mu0) * dV * esum(e_mid * e_mid)
                if fc != 0.0:
                    accum["source"] += dt * (sigma / mu0) * dV * esum(fc * e_mid)
        np.multiply(ce, k, out=ce)
        np.add(e, ce, out=e)
        if sigma != 0.0:
            e[slab] = e_new

    if em.bc == MUR1:
        _apply_mur(em, mur_old, params, dt)

    curl_e(em.ex, em.ey, em.ez, box, out=work.ch, tmp=work.tmp)
    faces = m_dot_faces if m_dot_faces is not None else (None, None, None)
    for h, ch, mf in zip((em.hx, em.hy, em.hz), work.ch, faces):
        np.multiply(ch, dt / mu0, out=ch)
        np.subtract(h, ch, out=h)
        if mf is not None:
            np.multiply(mf, dt, out=ch)
            np.subtract(h, ch, out=h)
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
