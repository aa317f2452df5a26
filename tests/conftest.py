import dataclasses
import math
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest

from spinlayer import maxwell as mx
from spinlayer.diagnostics import _axis_coords, _stationary_value, _torque
from spinlayer.dynamics import PROJECTED
from spinlayer.effective_field import penalty_field, thin_layer_field
from spinlayer.energetics import MaterialParams, _vector_field, apply_k
from spinlayer.summation import dot
from spinlayer.geometry import GeometryConfig, build_geometry


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak bytes tracemalloc saw during the call)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def small_geom():
    """4x4x(3+3) box with a thin layer two cells deep."""
    return build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 3, 3,
                                         eta=2 * 0.5 / 3))


@pytest.fixture
def small_sharp_geom(small_geom):
    """The grid of small_geom with the sharp one-cell spacer layer."""
    return sharp_geom(small_geom)


@pytest.fixture
def perturbed_poisson(monkeypatch):
    """maxwell.poisson_solve with one cell of its phi perturbed after the
    solve, so the projection's residual is far above its tolerance."""
    solve = mx.poisson_solve

    def perturbed(*args, **kwargs):
        phi = solve(*args, **kwargs)
        phi[1, 1, 1] += 1.0
        return phi
    monkeypatch.setattr(mx, "poisson_solve", perturbed)


def sharp_geom(geom):
    """The grid of geom with the sharp spacer layer, one cell deep: the
    geometry `build_geometry` makes from the same request without eta."""
    return dataclasses.replace(geom, eta=None, layer_cells=1)


def layer_geom(geom, mode):
    """geom itself for the mode word "thin_layer", its `sharp_geom` for
    "sharp": the geometry a scheme of that bc_mode runs on."""
    return geom if mode == "thin_layer" else sharp_geom(geom)


@pytest.fixture
def flat_geom():
    """8x8x(4+4) grid matching the acceptance desk scale."""
    return build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 8, 8, 4, 4,
                                         eta=0.25))


def random_unit_field(geom, seed=0):
    """Seeded white unit field, component-major like the stepped m."""
    rng = np.random.default_rng(seed)
    m = _vector_field(geom.field_shape())
    np.copyto(m, rng.standard_normal(m.shape))
    return np.divide(m, np.linalg.norm(m, axis=-1, keepdims=True), out=m)


def face_laplacian(m, geom):
    """The Neumann Laplacian axis by axis on the (..., 3) index grid: each
    face flux is added to the cell below the face and subtracted from the
    cell above, with no flux across the spacer.  The reference that
    `assemble_h_tot` with A = 1 and no other term (`plain_params()`)
    reproduces bit for bit (up to the sign of zero)."""
    out = np.zeros(m.shape)
    s = geom.spacer_index
    for axis, h in ((0, geom.dx), (1, geom.dy), (2, geom.dz)):
        lo = [slice(None)] * 4
        hi = [slice(None)] * 4
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        flux = (m[hi] - m[lo]) * (1.0 / h**2)
        if axis == 2:
            flux[:, :, s - 1] = 0.0
        out[lo] += flux
        out[hi] -= flux
    return out


def gilbert_solve(m, F, alpha):
    """Unique solution v of alpha v + m x v = F, for any m and alpha > 0,
    in closed form with `np.cross`:

        v = (alpha^2 F - alpha m x F + (m.F) m) / (alpha (alpha^2 + |m|^2)).

    m and F have the same shape (..., 3).  The oracle of the Gilbert
    inversion that `dynamics.llg_rhs` takes in its own closed form.
    """
    m = np.asarray(m, dtype=float)
    F = np.asarray(F, dtype=float)
    mdf = np.sum(m * F, axis=-1)[..., None]
    m2 = np.sum(m * m, axis=-1)[..., None]
    return (alpha**2 * F - alpha * np.cross(m, F) + mdf * m) / (alpha * (alpha**2 + m2))


def gilbert_projection_rhs(m, h_cells, geom, params, scheme):
    """The LLG rate assembled term by term and solved in Gilbert form: the
    reference for `dynamics.llg_rhs`, which sums h_tot in place and takes
    the rate of either constraint mode in one closed form.

    h_tot = h - K m + A lap(m) + the surface field of the geometry's layer +
    the penalty field; the rate is `gilbert_solve` of (1 + alpha^2) h_tot, and
    in projected mode its component along m (over max(|m|^2, 1e-300)) is
    removed.
    """
    h = np.zeros(m.shape) if h_cells is None else np.array(h_cells, dtype=float)
    if params.k_matrix is not None:
        h -= apply_k(params, m)
    if params.a_exch != 0.0:
        h += params.a_exch * face_laplacian(m, geom)
    thin_layer_field(m, geom, params, out=h)
    if params.penalty_k != 0.0:
        h += penalty_field(m, params)
    v = gilbert_solve(m, (1.0 + params.alpha**2) * h, params.alpha)
    if scheme.constraint == PROJECTED:
        m2 = np.maximum(np.sum(m * m, axis=-1), 1e-300)
        v -= (np.sum(v * m, axis=-1) / m2)[..., None] * m
    return v


def relax(m, field, evals):
    """Barzilai-Borwein descent on the sphere (Exl et al. 2014, J. Appl.
    Phys. 115:17D118, "LaBonte's method revisited"), the oracle of a
    critical point of the energy whose negative gradient per cell volume
    is field(m):

        m <- normalize(m + tau g),   g = h - (m.h) m,   h = field(m),

    with tau the BB1 step s.s/s.y and the BB2 step s.y/y.y in turn (s the
    change of m, y minus that of g), from tau = 0.01 at the first step.
    Stops after `evals` field evaluations, or once s.y is no longer
    positive, which happens at the rounding floor.  Returns (m, the
    evaluations used).
    """
    def tangential(m, h):
        return h - np.sum(m * h, axis=-1, keepdims=True) * m

    m = np.array(m)
    g = tangential(m, field(m))
    tau, used = 0.01, 1
    while used < evals:
        m_new = m + tau * g
        m_new /= np.linalg.norm(m_new, axis=-1, keepdims=True)
        g_new = tangential(m_new, field(m_new))
        used += 1
        s, y = m_new - m, g - g_new
        sy = float(np.sum(s * y))
        m, g = m_new, g_new
        if not sy > 0.0:
            break
        tau = float(np.sum(s * s)) / sy if used % 2 == 0 else sy / float(np.sum(y * y))
    return m, used


def plain_params(**overrides):
    """MaterialParams with exchange A = 1, alpha = 1 and no other term,
    but for the overrides."""
    kw = dict(a_exch=1.0, k_matrix=None, ks=0.0, j1=0.0, j2=0.0, alpha=1.0)
    kw.update(overrides)
    return MaterialParams(**kw)


def fd_gradient(energy_fn, m, step=1e-5):
    """Central-difference gradient of a scalar functional of m."""
    g = np.zeros_like(m)
    it = np.nditer(m, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        mp = m.copy()
        mp[idx] += step
        mn = m.copy()
        mn[idx] -= step
        g[idx] = (energy_fn(mp) - energy_fn(mn)) / (2.0 * step)
    return g


def spacer_oracle(m, geom, params):
    """Closed-form spacer integrals of the adjacent-cell traces.

    Midpoint rule with the cell footprint dx*dy per column: surface
    anisotropy (Ks/2) |gamma x nu|^2 over both faces, quadratic
    super-exchange (J1/2) |gamma+ - gamma-|^2 and biquadratic J2
    |gamma+ x gamma-|^2 once over the spacer.  Returns the
    (surf_anis, superexch_q, superexch_biq) columns of the sharp-mode
    energy breakdown.
    """
    s = geom.spacer_index
    gp, gm = m[:, :, s, :], m[:, :, s - 1, :]
    dA = geom.face_area
    ks = sum(math.fsum((g * g).ravel()) - math.fsum((g[..., 2] ** 2).ravel())
             for g in (gp, gm))
    jump = gp - gm
    wedge = np.cross(gp, gm)
    return (0.5 * params.ks * dA * ks,
            0.5 * params.j1 * dA * math.fsum((jump * jump).ravel()),
            params.j2 * dA * math.fsum((wedge * wedge).ravel()))


def face_stationary_form(m, h_cells, params, geom, phi_cells):
    """The stationary form written as a face sum, the reference for
    `stationarity_form` and the weak form's right-hand side.

    A dV sum over the interior faces off the spacer of
    (m_f x D_f m) . D_f phi, with m_f the face midpoint and D_f the
    difference quotient across the face, minus
    dV sum (m x (h + h_surf - K m)) . phi with h_surf the surface field of
    the geometry's layer.  The penalty field is parallel to m and pairs to
    zero.
    """
    s, nz = geom.spacer_index, geom.nz_total
    families = [((slice(1, None),), (slice(None, -1),), geom.dx),
                ((slice(None), slice(1, None)), (slice(None), slice(None, -1)), geom.dy)]
    for z0, z1 in ((0, s), (s, nz)):       # z faces within each slab
        if z1 - z0 >= 2:
            families.append(((slice(None), slice(None), slice(z0 + 1, z1)),
                             (slice(None), slice(None), slice(z0, z1 - 1)), geom.dz))
    dV = geom.cell_volume
    exchange = 0.0
    for hi, lo, d in families:
        wedge = np.cross(0.5 * (m[hi] + m[lo]), (m[hi] - m[lo]) / d)
        exchange += math.fsum((wedge * (phi_cells[hi] - phi_cells[lo]) / d).ravel())
    h = thin_layer_field(m, geom, params, out=h_cells.copy())
    if params.k_matrix is not None:
        h -= apply_k(params, m)
    torque = np.cross(m, h)
    return params.a_exch * dV * exchange - dV * math.fsum((torque * phi_cells).ravel())


# ---------------------------------------------------------------------------
# the weak and stationary forms per test function, over the torque of the
# library's `stationarity_report`: the oracles of the weak-form tests


@dataclass
class FieldSamples:
    """Field samples of a run, gathered as `dynamics.run`'s on_state hook
    (at log_every=1, every step).  m and the cell h are copied: `step`
    overwrites the m of two steps back, and the cell h lives in the
    Maxwell workspace."""

    times: list = field(default_factory=list)
    m: list = field(default_factory=list)
    h_cells: list = field(default_factory=list)

    def __call__(self, state, n):
        self.times.append(state.t)
        self.m.append(state.m.copy())
        self.h_cells.append(state.h_cells().copy())


def cell_coords(geom):
    """The body cell centers as three (nx, ny, nz) meshgrid arrays."""
    x = (np.arange(geom.nx) + 0.5) * geom.dx
    y = (np.arange(geom.ny) + 0.5) * geom.dy
    z = geom.z_centers()
    return np.meshgrid(x, y, z, indexing="ij")


def eval_on_cells(test_fn, geom):
    """A test function sampled at the body cell centers: the full
    (nx, ny, nz, 3) test field."""
    return test_fn(*cell_coords(geom))


def field_stationary_value(torque, phi_cells, geom):
    """-dV sum (m x h_tot) . phi over a full (..., 3) test field, every
    component paired: the reference that the report's one-component
    pairing (`diagnostics._stationary_value`) matches to roundoff."""
    return -geom.cell_volume * dot(torque, phi_cells)


def stationarity_form(u, H_cells, params, geom, test_fn):
    """Signed value of the six-term stationary weak form for one library
    test field, paired as the report pairs it: the shape on the axis
    coordinates in a fresh scalar field, against the torque component of
    its direction."""
    torque = _torque(u, H_cells, params, geom)
    s = np.empty(torque.shape[:-1])
    np.copyto(s, test_fn.shape(*_axis_coords(geom)))
    return _stationary_value(torque, s, test_fn.direction, geom)


def weak_residual_m(samples, test_fn, geom, params, signed=False):
    """Discrete mismatch of the magnetization weak form over the
    `FieldSamples` of a run.

    Midpoint quadrature in time: rates from consecutive samples, states
    averaged to the interval midpoint.  Smallness is evidence, not proof,
    since the test-function library is finite.  geom is the run's; its
    layer carries the spacer terms.
    """
    ms, hs, ts = samples.m, samples.h_cells, samples.times
    if len(ms) < 2:
        raise ValueError("need at least two stored samples")
    dV = geom.cell_volume
    alpha = params.alpha
    one_a2 = 1.0 + alpha**2
    phi_cells = eval_on_cells(test_fn, geom)

    lhs = 0.0
    rhs = 0.0
    for n in range(len(ms) - 1):
        dt = ts[n + 1] - ts[n]
        m_dot = (ms[n + 1] - ms[n]) / dt
        m_mid = 0.5 * (ms[n + 1] + ms[n])
        h_mid = 0.5 * (hs[n + 1] + hs[n])
        lhs += dt * dV * (dot(m_dot, phi_cells)
                          - alpha * dot(np.cross(m_mid, m_dot), phi_cells))
        torque = _torque(m_mid, h_mid, params, geom)
        rhs += dt * one_a2 * field_stationary_value(torque, phi_cells, geom)
    resid = lhs - rhs
    return resid if signed else abs(resid)

# ---------------------------------------------------------------------------
# the box forms of the body-local Maxwell coupling: the magnetization
# rate and m_bar zero-extended to the whole Yee box, and every face
# updated.  The library's body-local forms must agree with them bit for bit.


def embed_cell_field(m, box):
    """Zero-extend a body cell field to the full box."""
    out = np.zeros((box.nx, box.ny, box.nz, 3))
    out[box.body_slices()] = m
    return out


def padded_cells_to_faces(c):
    """Cell 3-vector field -> faces, each the mean of its two cells with
    zero-padded ghosts."""
    px = np.pad(c[..., 0], ((1, 1), (0, 0), (0, 0)))
    py = np.pad(c[..., 1], ((0, 0), (1, 1), (0, 0)))
    pz = np.pad(c[..., 2], ((0, 0), (0, 0), (1, 1)))
    return (0.5 * (px[1:, :, :] + px[:-1, :, :]),
            0.5 * (py[:, 1:, :] + py[:, :-1, :]),
            0.5 * (pz[:, :, 1:] + pz[:, :, :-1]))


def box_faces_to_body_cells(hx, hy, hz, box):
    """Face field averaged to cells over the whole box, then cut to the
    body."""
    cells = np.stack([0.5 * (hx[1:, :, :] + hx[:-1, :, :]),
                      0.5 * (hy[:, 1:, :] + hy[:, :-1, :]),
                      0.5 * (hz[:, :, 1:] + hz[:, :, :-1])], axis=-1)
    return cells[box.body_slices()]


def box_midpoint_h_cells(em, m_dot_pred, dt, mu0):
    """The midpoint-h predictor with (dt/2 mu0) curl e on every face of the
    box and the rate embedded into the box."""
    box = em.box
    half = 0.5 * dt
    chx, chy, chz = mx.face_views(workspace_curl(em, True, half / mu0), box)
    mdx, mdy, mdz = padded_cells_to_faces(embed_cell_field(m_dot_pred, box))
    hx = em.hx - chx - half * mdx
    hy = em.hy - chy - half * mdy
    hz = em.hz - chz - half * mdz
    return box_faces_to_body_cells(hx, hy, hz, box)


def box_fdtd_step(em, m_dot, f_value, params, dt, acc=None):
    """One leapfrog step with dt times the box-face transfer of the
    embedded rate subtracted from h on every face."""
    mx.fdtd_step(em, None, f_value, params, dt, acc)
    rate = padded_cells_to_faces(embed_cell_field(m_dot, em.box))
    for h, mf in zip((em.hx, em.hy, em.hz), rate):
        h -= mf * dt


def box_divergence(h, m, box):
    """div(h + m_bar) of an h store, with m embedded into the box."""
    mf = padded_cells_to_faces(embed_cell_field(m, box))
    return plain_div(*(a + b for a, b in zip(mx.face_views(h, box), mf)), box)


def plain_init_divfree(m0, h_raw, box):
    """The projection on face triples: h = h_raw - grad phi with
    Lap phi = div(0 + m_bar), h_raw a uniform vector, m_bar embedded
    into the box."""
    raw = tuple(float(v) for v in h_raw)
    mf = padded_cells_to_faces(embed_cell_field(m0, box))
    rhs = plain_div(*(0.0 + f for f in mf), box)
    phi = mx.poisson_solve(rhs, box)
    return tuple(r - g for r, g in zip(raw, plain_grad(phi, box)))


def plain_grad(phi, box):
    """Cell scalar -> gradient on faces, with zero ghost cells beyond the
    box."""
    return tuple(np.diff(np.pad(phi, [(1, 1) if a == axis else (0, 0) for a in range(3)]),
                         axis=axis) / h
                 for axis, h in enumerate((box.dx, box.dy, box.dz)))


# ---------------------------------------------------------------------------
# the plain-array Yee step: six separate component arrays, each curl
# component (p_hi - p_lo)/hp - (q_hi - q_lo)/hq, scaled after, and the rate
# times dt subtracted from h on every substep.  The store kernel takes
# (scale/hq) (r (p_hi - p_lo) - (q_hi - q_lo)) with r = hq/hp, and the
# stepper is handed dt times the rate, so the two agree to roundoff.

FIELD_NAMES = ("ex", "ey", "ez", "hx", "hy", "hz")


def edge_store(components, box):
    """An e store holding three edge arrays (zero pads)."""
    store = np.zeros(mx.store_shape(box))
    for view, a in zip(mx.edge_views(store, box), components):
        view[...] = a
    return store


def face_store(components, box):
    """An h store holding three face arrays (zero pads)."""
    store = np.zeros(mx.store_shape(box))
    for view, a in zip(mx.face_views(store, box), components):
        view[...] = a
    return store


def workspace_curl(em, forward, scale=1.0):
    """scale * the forward curl of em.e (on faces, an h store) or the
    backward curl of em.h (on the interior edges, an e store): the view
    set of em's workspace, applied component by component in its scratch
    (`_apply_curl`) as the coupled step applies it, each component copied
    into a fresh store."""
    work = em.workspace()
    out = np.empty(mx.store_shape(em.box))
    for term, o in zip(work.curl_e_views if forward else work.curl_h_views, mx._flat(out)):
        np.copyto(o, mx._apply_curl(term, scale))
    return out


def plain_curl_e(ex, ey, ez, box):
    """Edge field -> curl on faces."""
    dx, dy, dz = box.dx, box.dy, box.dz
    return ((ez[:, 1:, :] - ez[:, :-1, :]) / dy - (ey[:, :, 1:] - ey[:, :, :-1]) / dz,
            (ex[:, :, 1:] - ex[:, :, :-1]) / dz - (ez[1:, :, :] - ez[:-1, :, :]) / dx,
            (ey[1:, :, :] - ey[:-1, :, :]) / dx - (ex[:, 1:, :] - ex[:, :-1, :]) / dy)


def plain_div(fx, fy, fz, box):
    """Face field -> divergence at cell centers."""
    return (np.diff(fx, axis=0) / box.dx + np.diff(fy, axis=1) / box.dy
            + np.diff(fz, axis=2) / box.dz)


def plain_curl_h(hx, hy, hz, box):
    """Face field -> curl on interior edges; boundary edges zero."""
    dx, dy, dz = box.dx, box.dy, box.dz
    cex, cey, cez = (np.zeros(s) for s in mx.edge_shapes(box))
    cex[:, 1:-1, 1:-1] = ((hz[:, 1:, 1:-1] - hz[:, :-1, 1:-1]) / dy
                          - (hy[:, 1:-1, 1:] - hy[:, 1:-1, :-1]) / dz)
    cey[1:-1, :, 1:-1] = ((hx[1:-1, :, 1:] - hx[1:-1, :, :-1]) / dz
                          - (hz[1:, :, 1:-1] - hz[:-1, :, 1:-1]) / dx)
    cez[1:-1, 1:-1, :] = ((hy[1:, 1:-1, :] - hy[:-1, 1:-1, :]) / dx
                          - (hx[1:-1, 1:, :] - hx[1:-1, :-1, :]) / dy)
    return cex, cey, cez


def plain_fields(em):
    """Copies of the six components of an EMState, by name."""
    return {name: getattr(em, name).copy() for name in FIELD_NAMES}


def plain_fdtd_step(f, box, bc, m_dot, f_value, params, dt, acc):
    """One leapfrog step on the plain arrays `f` (by name), in place: e
    with semi-implicit conduction on the body edges, Mur1 on the six box
    faces, then h with dt times the body rate `m_dot` (cells) transferred
    to faces."""
    ex, ey, ez = f["ex"], f["ey"], f["ez"]
    mur_planes = (("ey", 0), ("ez", 0), ("ex", 1), ("ez", 1), ("ex", 2), ("ey", 2))
    old = {(name, axis): [np.take(f[name], i, axis=axis).copy() for i in (0, 1, -1, -2)]
           for name, axis in mur_planes}
    sigma, eps0, mu0 = params.sigma, params.eps0, params.mu0
    k = dt / eps0
    beta = sigma * dt / (2.0 * eps0)
    dV = box.cell_volume
    masks = mx.empty_em_state(box).omega_masks
    for e, ce, mask, fc in zip((ex, ey, ez), plain_curl_h(f["hx"], f["hy"], f["hz"], box),
                               masks, f_value):
        e_body = e[mask]
        e_new = ((1.0 - beta) * e_body + k * (ce[mask] - sigma * fc)) / (1.0 + beta)
        e_mid = 0.5 * (e_body + e_new)
        acc.ohmic += dt * (sigma / mu0) * dV * math.fsum(e_mid * e_mid)
        acc.source += dt * (sigma / mu0) * dV * math.fsum(fc * e_mid)
        e += k * ce
        e[mask] = e_new
    if bc == mx.MUR1:
        c = params.speed_of_light
        for name, axis in mur_planes:
            h = (box.dx, box.dy, box.dz)[axis]
            coef = (c * dt - h) / (c * dt + h)
            a = np.moveaxis(f[name], axis, 0)
            lo_old, lo_in_old, hi_old, hi_in_old = old[(name, axis)]
            a[0] = lo_in_old + coef * (a[1] - lo_old)
            a[-1] = hi_in_old + coef * (a[-2] - hi_old)
    rate = padded_cells_to_faces(embed_cell_field(m_dot, box))
    for name, ch, r in zip(("hx", "hy", "hz"), plain_curl_e(ex, ey, ez, box), rate):
        f[name] -= (dt / mu0) * ch + dt * r
