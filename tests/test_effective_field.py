import math

import numpy as np
import pytest

from spinlayer import maxwell as mx
from spinlayer.dynamics import PROJECTED, SchemeConfig, run
from spinlayer.effective_field import (assemble_h_tot, laplacian_neumann,
                                       penalty_field, thin_layer_field)
from spinlayer.energetics import (MaterialParams, anisotropy_energy, exchange_energy,
                                  penalty_energy, thin_layer_energy, total_energy,
                                  uniform_k_matrix)
from spinlayer.geometry import GeometryConfig, build_geometry

from conftest import (face_laplacian, fd_gradient, random_unit_field, sharp_geom,
                      spacer_oracle)


def plain_params(**overrides):
    kw = dict(a_exch=1.0, k_matrix=None, ks=0.0, j1=0.0, j2=0.0, alpha=1.0)
    kw.update(overrides)
    return MaterialParams(**kw)


IRREGULAR_GRIDS = [
    GeometryConfig(1.0, 0.6, 0.4, 0.8, 5, 3, 2, 4),     # nx, ny, nz all differ
    GeometryConfig(0.75, 1.0, 0.25, 0.75, 3, 4, 1, 3),  # a one-cell slab
    GeometryConfig(0.5, 1.5, 0.5, 0.5, 2, 3, 1, 1),     # one cell per slab
]
IRREGULAR_IDS = ["5x3x(2+4)", "3x4x(1+3)", "2x3x(1+1)"]


def sparse_neumann(geom):
    """Brute-force homogeneous-Neumann matrix of the cell grid, no
    coupling across the spacer."""
    n = geom.nx * geom.ny * geom.nz_total
    idx = np.arange(n).reshape(geom.nx, geom.ny, geom.nz_total)
    L = np.zeros((n, n))
    s = geom.spacer_index
    for i in range(geom.nx):
        for j in range(geom.ny):
            for k in range(geom.nz_total):
                row = idx[i, j, k]
                for (di, dj, dk, h2) in ((1, 0, 0, geom.dx**2), (-1, 0, 0, geom.dx**2),
                                         (0, 1, 0, geom.dy**2), (0, -1, 0, geom.dy**2),
                                         (0, 0, 1, geom.dz**2), (0, 0, -1, geom.dz**2)):
                    ii, jj, kk = i + di, j + dj, k + dk
                    if not (0 <= ii < geom.nx and 0 <= jj < geom.ny
                            and 0 <= kk < geom.nz_total):
                        continue
                    if dk and ((k < s) != (kk < s)):
                        continue  # no coupling across the spacer
                    L[row, idx[ii, jj, kk]] += 1.0 / h2
                    L[row, row] -= 1.0 / h2
    return L


class TestLaplacian:
    def test_constant_zero(self, small_geom):
        m = np.zeros(small_geom.field_shape())
        m[..., 1] = 3.0
        lap = laplacian_neumann(m, small_geom)
        assert np.abs(lap).max() == 0.0

    def test_cosine_interior(self):
        # m_x = cos(qx) has Laplacian -q^2 m_x up to O(dx^2); Richardson check
        errs = []
        for nx in (16, 32):
            geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, nx, 2, 2, 2))
            q = 2.0 * math.pi
            x = (np.arange(nx) + 0.5) * geom.dx
            m = np.zeros(geom.field_shape())
            m[..., 0] = np.cos(q * x)[:, None, None]
            lap = laplacian_neumann(m, geom)
            interior = lap[2:-2, :, :, 0]
            target = -q**2 * m[2:-2, :, :, 0]
            errs.append(np.abs(interior - target).max())
        order = math.log(errs[0] / errs[1]) / math.log(2.0)
        assert order > 1.9

    def test_matches_sparse_oracle(self):
        # brute-force homogeneous-Neumann matrix on a 4x4x(2+2) grid
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 2, 2))
        L = sparse_neumann(geom)
        rng = np.random.default_rng(0)
        m = rng.standard_normal(geom.field_shape())
        lap = laplacian_neumann(m, geom)
        for c in range(3):
            oracle = (L @ m[..., c].ravel()).reshape(m.shape[:3])
            assert np.allclose(lap[..., c], oracle, atol=1e-11)

    @pytest.mark.parametrize("grid", IRREGULAR_GRIDS, ids=IRREGULAR_IDS)
    def test_flat_kernel_matches_face_form_bit_for_bit(self, grid):
        # the flat offset differences zero exactly the wrap-around and
        # spacer faces: the same sums as the face form, in the same order
        geom = build_geometry(grid)
        m = random_unit_field(geom, seed=3)
        m *= 1.0 + np.arange(m.size).reshape(m.shape) % 7   # not unit, not smooth
        want = face_laplacian(m, geom)
        assert np.array_equal(laplacian_neumann(m, geom), want)
        # a row-major m is copied into the component-major layout first
        assert np.array_equal(laplacian_neumann(np.ascontiguousarray(m), geom), want)
        out = np.full(m.shape, np.nan)                      # a row-major out
        laplacian_neumann(m, geom, out=out, tmp=np.full(m.size, np.nan))
        assert np.array_equal(out, want)
        L = sparse_neumann(geom)
        for c in range(3):
            oracle = (L @ m[..., c].ravel()).reshape(m.shape[:3])
            assert np.allclose(want[..., c], oracle, atol=1e-11)

    @pytest.mark.parametrize("grid", IRREGULAR_GRIDS, ids=IRREGULAR_IDS)
    def test_exchange_gradient_is_the_laplacian(self, grid):
        # criterion 2 for the exchange term: the energy and its gradient
        # take their faces from the same kernel
        geom = build_geometry(grid)
        params = plain_params(a_exch=0.7)
        m = random_unit_field(geom, seed=5)
        g = fd_gradient(lambda mm: exchange_energy(mm, geom, params), m)
        want = -params.a_exch * laplacian_neumann(m, geom) * geom.cell_volume
        assert np.abs(g - want).max() < 1e-7 * np.abs(want).max()


class TestNonlinearGhost:
    """The nonlinear spacer condition in sharp mode: the surface field of
    the one-cell layer on the two cells next to the spacer."""

    def _params(self):
        return plain_params(ks=0.5, j1=0.7, j2=0.3)

    def test_inplane_equal_traces_give_homogeneous(self, small_sharp_geom):
        # equal in-plane traces: no torque, the field is parallel to m
        m = np.zeros(small_sharp_geom.field_shape())
        m[..., 0] = 1.0
        field = assemble_h_tot(m, None, small_sharp_geom, self._params())
        assert np.abs(np.cross(m, field)).max() < 1e-15

    def test_aligned_normal_state_stationary(self, small_sharp_geom):
        m = np.zeros(small_sharp_geom.field_shape())
        m[..., 2] = 1.0
        field = assemble_h_tot(m, None, small_sharp_geom, self._params())
        assert np.abs(field).max() < 1e-15

    def test_wedge_identity(self, small_sharp_geom):
        # dz gamma x h_surf = Ks (nu.g)(g x nu) + J1 g x g* + 2 J2 (g.g*)(g x g*)
        # on each spacer cell, nu = -e_z above the spacer and +e_z below
        m = random_unit_field(small_sharp_geom, seed=5)
        params = self._params()
        h = thin_layer_field(m, small_sharp_geom, params)
        s = small_sharp_geom.spacer_index
        gp, gm = m[:, :, s], m[:, :, s - 1]
        for gamma, gstar, nu_z, hs in ((gp, gm, -1.0, h[:, :, s]),
                                       (gm, gp, +1.0, h[:, :, s - 1])):
            nu = np.zeros_like(gamma)
            nu[..., 2] = nu_z
            lhs = small_sharp_geom.dz * np.cross(gamma, hs)
            rhs = (params.ks * np.sum(nu * gamma, -1)[..., None] * np.cross(gamma, nu)
                   + params.j1 * np.cross(gamma, gstar)
                   + 2 * params.j2 * np.sum(gamma * gstar, -1)[..., None]
                   * np.cross(gamma, gstar))
            assert np.abs(lhs - rhs).max() < 1e-14
        # supported exactly on the two spacer cells
        mask = np.ones(small_sharp_geom.nz_total, dtype=bool)
        mask[[s - 1, s]] = False
        assert np.abs(h[:, :, mask]).max() == 0.0

    def test_homogeneous_when_constants_vanish(self, small_sharp_geom):
        m = random_unit_field(small_sharp_geom, seed=2)
        assert not thin_layer_field(m, small_sharp_geom, plain_params()).any()


class TestThinLayerField:
    def test_no_eta_is_the_one_cell_layer(self):
        # a geometry without eta carries the sharp layer: the field of a
        # uniform in-plane m is -Ks/dz on the two spacer cells, 0 elsewhere
        g = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 3, 3))
        assert g.layer_cells == 1
        m = np.zeros(g.field_shape())
        m[..., 0] = 1.0
        field = thin_layer_field(m, g, plain_params(ks=0.4))
        s = g.spacer_index
        assert np.allclose(field[:, :, [s - 1, s], 0], -0.4 / g.dz)
        field[:, :, [s - 1, s], 0] = 0.0
        assert not field.any()

    def test_uniform_normal_zero(self, small_geom):
        m = np.zeros(small_geom.field_shape())
        m[..., 2] = 1.0
        params = plain_params(ks=0.4, j1=0.6, j2=0.2)
        assert np.abs(thin_layer_field(m, small_geom, params)).max() < 1e-15

    def test_uniform_inplane_closed_form(self, small_geom):
        m = np.zeros(small_geom.field_shape())
        m[..., 0] = 1.0
        ks = 0.4
        field = thin_layer_field(m, small_geom, plain_params(ks=ks))
        sl = small_geom.layer_slice()
        expected = -(ks / small_geom.eta)
        assert np.allclose(field[:, :, sl, 0], expected)
        # supported exactly on the flagged cells
        mask = np.ones(small_geom.nz_total, dtype=bool)
        mask[sl] = False
        assert np.abs(field[:, :, mask, :]).max() == 0.0

    def test_variational_consistency(self, small_geom):
        rng = np.random.default_rng(17)
        m = rng.standard_normal(small_geom.field_shape())
        params = plain_params(ks=0.4, j1=0.6, j2=0.2)
        field = thin_layer_field(m, small_geom, params)
        g = fd_gradient(lambda mm: thin_layer_energy(mm, small_geom, params), m)
        ref = -g / small_geom.cell_volume
        err = np.linalg.norm(field - ref, axis=-1)
        assert err.max() < 1e-6 * (1.0 + np.linalg.norm(ref, axis=-1)).max()


class TestPenaltyField:
    def test_unit_zero(self, small_geom):
        m = random_unit_field(small_geom)
        f = penalty_field(m, plain_params(penalty_k=3.0))
        assert np.abs(f).max() < 1e-14

    def test_closed_form(self, small_geom):
        m = np.zeros(small_geom.field_shape())
        m[..., 0] = 2.0
        f = penalty_field(m, plain_params(penalty_k=3.0))
        assert np.allclose(f[..., 0], -3.0 * 3.0 * 2.0)

    def test_matches_energy_gradient(self, small_geom):
        rng = np.random.default_rng(19)
        m = rng.standard_normal(small_geom.field_shape())
        params = plain_params(penalty_k=2.0)
        f = penalty_field(m, params)
        g = fd_gradient(lambda mm: penalty_energy(mm, small_geom, params), m)
        assert np.allclose(f, -g / small_geom.cell_volume, atol=1e-6)


def sharp_energy(m, geom, params, penalized=False):
    e = (exchange_energy(m, geom, params) + anisotropy_energy(m, geom, params)
         + sum(spacer_oracle(m, geom, params)))
    if penalized:
        e += penalty_energy(m, geom, params)
    return e


def thin_energy(m, geom, params, penalized=False):
    e = (exchange_energy(m, geom, params) + anisotropy_energy(m, geom, params)
         + thin_layer_energy(m, geom, params))
    if penalized:
        e += penalty_energy(m, geom, params)
    return e


class TestAssembleHTot:
    def _params(self, geom, **kw):
        base = dict(a_exch=0.7, ks=0.5, j1=0.4, j2=0.25, alpha=0.5,
                    k_matrix=uniform_k_matrix(np.array([[0.3, 0.1, 0.0],
                                                        [0.1, 0.2, 0.0],
                                                        [0.0, 0.0, 0.4]]), geom))
        base.update(kw)
        return MaterialParams(**base)

    def test_uniform_aligned_zero(self, small_sharp_geom):
        # easy axis e_z, m parallel, no fields: K m parallel to m gives torque
        # but the assembled field is -K m + surface contributions; with the
        # all-normal state surface terms vanish and -Km is along m
        m = np.zeros(small_sharp_geom.field_shape())
        m[..., 2] = 1.0
        params = plain_params(a_exch=0.7)
        field = assemble_h_tot(m, None, small_sharp_geom, params)
        assert np.abs(field).max() < 1e-14

    def test_pure_zeeman(self, small_sharp_geom):
        rng = np.random.default_rng(23)
        m = rng.standard_normal(small_sharp_geom.field_shape())
        h = np.zeros(small_sharp_geom.field_shape())
        h[..., 0] = 1.7
        params = plain_params(a_exch=0.0)
        field = assemble_h_tot(m, h, small_sharp_geom, params)
        assert np.allclose(field, h)

    def test_variational_thin_layer_penalized(self, small_geom):
        rng = np.random.default_rng(29)
        m = rng.standard_normal(small_geom.field_shape())
        m /= np.linalg.norm(m, axis=-1, keepdims=True)
        params = self._params(small_geom, penalty_k=2.0)
        field = assemble_h_tot(m, None, small_geom, params)
        g = fd_gradient(lambda mm: thin_energy(mm, small_geom, params, True), m)
        ref = -g / small_geom.cell_volume
        rel = np.linalg.norm(field - ref, axis=-1) / (1.0 + np.linalg.norm(ref, axis=-1))
        assert rel.max() < 1e-6

    def test_variational_sharp_tangential(self, small_sharp_geom):
        # the sharp field matches the gradient of the closed-form spacer
        # integrals in the tangent space of unit m
        rng = np.random.default_rng(31)
        m = rng.standard_normal(small_sharp_geom.field_shape())
        m /= np.linalg.norm(m, axis=-1, keepdims=True)
        params = self._params(small_sharp_geom)
        field = assemble_h_tot(m, None, small_sharp_geom, params)
        g = fd_gradient(lambda mm: sharp_energy(mm, small_sharp_geom, params), m)
        ref = -g / small_sharp_geom.cell_volume

        def tang(v):
            return v - np.sum(v * m, axis=-1, keepdims=True) * m

        rel = (np.linalg.norm(tang(field) - tang(ref), axis=-1)
               / (1.0 + np.linalg.norm(ref, axis=-1)))
        assert rel.max() < 1e-6

    def test_sharp_reduces_to_homogeneous_without_surface(self, small_sharp_geom):
        rng = np.random.default_rng(37)
        m = rng.standard_normal(small_sharp_geom.field_shape())
        params = plain_params(a_exch=0.9)
        sharp = assemble_h_tot(m, None, small_sharp_geom, params)
        assert np.allclose(sharp, 0.9 * laplacian_neumann(m, small_sharp_geom), atol=1e-13)

    def test_variational_sharp_penalized_full_gradient(self, small_sharp_geom):
        # sharp + penalized runs are unconstrained, so the whole field,
        # including its component along m, must be minus the gradient
        rng = np.random.default_rng(41)
        m = 1.3 * rng.standard_normal(small_sharp_geom.field_shape())
        params = self._params(small_sharp_geom, penalty_k=2.0)
        field = assemble_h_tot(m, None, small_sharp_geom, params)
        g = fd_gradient(lambda mm: sharp_energy(mm, small_sharp_geom, params, True), m)
        ref = -g / small_sharp_geom.cell_volume
        rel = np.linalg.norm(field - ref, axis=-1) / (1.0 + np.linalg.norm(ref, axis=-1))
        assert rel.max() < 1e-6


def _smooth_profile(geom, b=0.8, c=0.4):
    # criterion 6's in-plane profile: a phase jump 2c across the spacer
    z = geom.z_centers()
    ang = b * z + c * np.sign(z)
    m = np.zeros(geom.field_shape())
    m[..., 0] = np.cos(ang)
    m[..., 1] = np.sin(ang)
    return m


def test_eta_to_zero_converges_to_sharp():
    # eta = 2 dz against sharp mode (eta = dz) on the same grid, with dz
    # and eta refined together: the gaps are real discretization error
    params = MaterialParams(a_exch=0.02, k_matrix=None, ks=0.3, j1=0.4,
                            j2=0.25, alpha=1.0)
    dt, t_end = 2.5e-4, 0.1
    energy_gaps, traj_gaps, dzs = [], [], []
    for nz in (4, 8, 16):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, nz, nz,
                                             eta=2 * 0.5 / nz))
        layers = {"sharp": sharp_geom(geom), "thin_layer": geom}
        m = _smooth_profile(geom)
        e_sharp = total_energy(m, None, layers["sharp"], params).total
        e_thin = total_energy(m, None, geom, params).total
        energy_gaps.append(abs(e_thin - e_sharp))
        dzs.append(geom.dz)

        x = (np.arange(geom.nx) + 0.5) * geom.dx
        m[..., 2] += 0.2 * np.sin(np.pi * x)[:, None, None]
        m /= np.linalg.norm(m, axis=-1, keepdims=True)
        em = mx.empty_em_state(mx.make_box(geom, padding=4))
        em.hx[...] = 0.1
        em.hz[...] = 0.05
        finals = []
        for mode, g in layers.items():
            scheme = SchemeConfig(dt=dt, constraint=PROJECTED, bc_mode=mode)
            finals.append(run(g, params, scheme, m, None, None, t_end, log_every=1000,
                              h_fixed=mx.interp_h_to_cells(em)).final_state.m)
        traj_gaps.append(float(np.sqrt(np.sum((finals[1] - finals[0]) ** 2)
                                       * geom.cell_volume)))
    slope = float(np.polyfit(np.log(dzs), np.log(energy_gaps), 1)[0])
    assert 0.8 <= slope <= 1.2, (slope, energy_gaps)
    assert traj_gaps[0] > traj_gaps[1] > traj_gaps[2], traj_gaps
