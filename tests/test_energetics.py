import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlayer.energetics import (EnergyBreakdown, MaterialParams,
                                  anisotropy_energy, exchange_energy,
                                  maxwell_energy, penalty_energy,
                                  thin_layer_energy, total_energy,
                                  uniform_k_matrix)
from spinlayer.errors import ThinLayerInactive
from spinlayer.geometry import GeometryConfig, build_geometry
from spinlayer import maxwell as mx

from conftest import random_unit_field, spacer_oracle


def plain_params(geom=None, **overrides):
    kw = dict(a_exch=1.0, k_matrix=None, ks=0.0, j1=0.0, j2=0.0, alpha=1.0)
    kw.update(overrides)
    return MaterialParams(**kw)


class TestMaterialParams:
    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            plain_params(alpha=0.0)

    def test_rejects_asymmetric_k(self, small_geom):
        k = uniform_k_matrix(np.eye(3), small_geom)
        k[..., 0, 1] = 1.0
        with pytest.raises(ValueError):
            plain_params(k_matrix=k)

    def test_rejects_indefinite_k(self, small_geom):
        k = uniform_k_matrix(np.diag([1.0, 1.0, -0.5]), small_geom)
        with pytest.raises(ValueError):
            plain_params(k_matrix=k)

    def test_rejects_per_cell_k(self, small_geom):
        k = np.broadcast_to(np.eye(3), small_geom.field_shape()[:3] + (3, 3))
        with pytest.raises(ValueError, match="one 3x3"):
            plain_params(k_matrix=k)

    def test_rejects_negative_constants(self):
        for name in ("a_exch", "ks", "j1", "j2", "sigma", "penalty_k"):
            with pytest.raises(ValueError):
                plain_params(**{name: -1.0})


class TestExchange:
    def test_uniform_is_zero(self, small_geom):
        m = np.zeros(small_geom.field_shape())
        m[..., 2] = 1.0
        assert exchange_energy(m, small_geom, plain_params()) == 0.0

    def test_no_coupling_across_spacer(self, small_geom):
        # uniform within each slab, different across: still zero
        m = np.zeros(small_geom.field_shape())
        s = small_geom.spacer_index
        m[:, :, :s, 0] = 1.0
        m[:, :, s:, 1] = 1.0
        assert exchange_energy(m, small_geom, plain_params()) == 0.0

    @pytest.mark.parametrize("nz", [8, 16])
    def test_helix_density(self, nz):
        # m = (cos qz, sin qz, 0): density A q^2/2 with O(dz^2) error
        q = 2.0 * math.pi
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 2, 2, nz, nz))
        z = geom.z_centers()
        m = np.zeros(geom.field_shape())
        m[..., 0] = np.cos(q * z)
        m[..., 1] = np.sin(q * z)
        A = 0.5
        e = exchange_energy(m, geom, plain_params(a_exch=A))
        # face-sum oracle: one z-face per same-slab pair, |dm| = 2 sin(q dz / 2)
        dz = geom.dz
        n_faces = 2 * (nz - 1) * geom.nx * geom.ny
        dm2 = (2.0 * math.sin(q * dz / 2.0)) ** 2
        expected = 0.5 * A * n_faces * dm2 / dz**2 * geom.cell_volume
        assert e == pytest.approx(expected, rel=1e-12)
        # second-order approach to the continuum density
        density = e / (geom.cell_volume * geom.nx * geom.ny * 2 * (nz - 1))
        continuum = 0.5 * A * q**2
        assert abs(density - continuum) / continuum < (q * dz) ** 2 / 6

    def test_helix_density_converges_second_order(self):
        errs = []
        for nz in (8, 16):
            q = 2.0 * math.pi
            geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 2, 2, nz, nz))
            z = geom.z_centers()
            m = np.zeros(geom.field_shape())
            m[..., 0] = np.cos(q * z)
            m[..., 1] = np.sin(q * z)
            e = exchange_energy(m, geom, plain_params(a_exch=0.5))
            density = e / (geom.cell_volume * geom.nx * geom.ny * 2 * (nz - 1))
            errs.append(abs(density - 0.25 * q**2))
        order = math.log(errs[0] / errs[1]) / math.log(2.0)
        assert order > 1.9


class TestAnisotropy:
    def test_zero_k(self, small_geom):
        m = random_unit_field(small_geom)
        assert anisotropy_energy(m, small_geom, plain_params()) == 0.0

    def test_easy_axis_closed_form(self, small_geom):
        kappa = 0.7
        params = plain_params(k_matrix=uniform_k_matrix(np.diag([0, 0, kappa]), small_geom))
        m = np.zeros(small_geom.field_shape())
        m[..., 2] = 1.0
        vol = small_geom.base_lx * small_geom.base_ly * (small_geom.l_minus + small_geom.l_plus)
        e = anisotropy_energy(m, small_geom, params)
        assert e == pytest.approx(0.5 * kappa * vol, rel=1e-12)

    def test_random_against_dense_oracle(self, small_geom):
        rng = np.random.default_rng(42)
        kraw = rng.standard_normal((3, 3))
        k = kraw @ kraw.T  # SPD
        params = plain_params(k_matrix=k)
        m = rng.standard_normal(small_geom.field_shape())
        acc = 0.0
        for i in range(small_geom.nx):
            for j in range(small_geom.ny):
                for kk in range(small_geom.nz_total):
                    acc += 0.5 * m[i, j, kk] @ k @ m[i, j, kk]
        expected = acc * small_geom.cell_volume
        assert anisotropy_energy(m, small_geom, params) == pytest.approx(expected, rel=1e-12)


def sharp_surface(m, geom, params):
    """(surf_anis, superexch_q, superexch_biq) of the sharp-mode breakdown."""
    bd = total_energy(m, None, geom, params, bc_mode="sharp")
    return bd.surf_anis, bd.superexch_q, bd.superexch_biq


class TestSurfaceEnergies:
    """Sharp-mode spacer energies: the one-cell layer next to the spacer."""

    def _traces(self, geom, gp, gm):
        # gamma_plus on the upper slab, gamma_minus on the lower one
        m = np.zeros(geom.field_shape())
        s = geom.spacer_index
        m[:, :, s:] = gp
        m[:, :, :s] = gm
        return m

    def test_equal_traces_zero(self, small_geom):
        m = self._traces(small_geom, [1, 0, 0], [1, 0, 0])
        params = plain_params(j1=2.0, j2=3.0)
        assert sharp_surface(m, small_geom, params)[1:] == (0.0, 0.0)

    def test_antiparallel_closed_form(self, small_geom):
        # jump^2 = 4, wedge = 0, |spacer| = 1
        m = self._traces(small_geom, [1, 0, 0], [-1, 0, 0])
        params = plain_params(j1=0.7, j2=3.0)
        _, eq, eb = sharp_surface(m, small_geom, params)
        assert eq == pytest.approx(2.0 * 0.7, rel=1e-12)
        assert eb == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_closed_form(self, small_geom):
        m = self._traces(small_geom, [1, 0, 0], [0, 1, 0])
        params = plain_params(j1=0.7, j2=0.3)
        _, eq, eb = sharp_surface(m, small_geom, params)
        assert eq == pytest.approx(0.7, rel=1e-12)      # J1/2 * 2
        assert eb == pytest.approx(0.3, rel=1e-12)      # J2 * 1

    def test_swap_symmetric(self, small_geom):
        # exchanging the two spacer cells swaps the traces
        rng = np.random.default_rng(8)
        m = rng.standard_normal(small_geom.field_shape())
        s = small_geom.spacer_index
        swapped = m.copy()
        swapped[:, :, [s - 1, s]] = m[:, :, [s, s - 1]]
        params = plain_params(ks=0.6, j1=1.3, j2=0.4)
        assert sharp_surface(m, small_geom, params) == pytest.approx(
            sharp_surface(swapped, small_geom, params), rel=1e-14)

    def test_surface_anisotropy_aligned_zero(self, small_geom):
        m = self._traces(small_geom, [0, 0, 1], [0, 0, -1])
        assert sharp_surface(m, small_geom, plain_params(ks=2.0))[0] == 0.0

    def test_surface_anisotropy_inplane(self, small_geom):
        # Ks/2 per face, two faces, unit spacer area
        m = self._traces(small_geom, [1, 0, 0], [1, 0, 0])
        e = sharp_surface(m, small_geom, plain_params(ks=2.0))[0]
        assert e == pytest.approx(2.0, rel=1e-12)

    def test_surface_anisotropy_tilted(self, small_geom):
        v = [math.sqrt(0.5), 0.0, math.sqrt(0.5)]
        m = self._traces(small_geom, v, v)
        e = sharp_surface(m, small_geom, plain_params(ks=2.0))[0]
        assert e == pytest.approx(1.0, rel=1e-12)       # Ks/2 at 45 degrees

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_spacer_oracle_asymmetric(self, seed):
        # random non-unit fields on unequal slabs: the one-cell layer sums
        # are the closed-form spacer integrals of the adjacent-cell traces
        geom = build_geometry(GeometryConfig(1.0, 0.8, 0.5, 0.25, 5, 3, 4, 2))
        rng = np.random.default_rng(seed)
        m = 1.7 * rng.standard_normal(geom.field_shape())
        params = plain_params(ks=0.3, j1=0.7, j2=0.45)
        got = sharp_surface(m, geom, params)
        want = spacer_oracle(m, geom, params)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-14, abs=0.0)


class TestThinLayer:
    def test_inactive_raises(self):
        g = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 3, 3))
        m = np.zeros(g.field_shape())
        with pytest.raises(ThinLayerInactive):
            thin_layer_energy(m, g, plain_params(ks=1.0))

    def test_uniform_normal_zero(self, small_geom):
        m = np.zeros(small_geom.field_shape())
        m[..., 2] = 1.0
        params = plain_params(ks=1.0, j1=1.0, j2=1.0)
        assert thin_layer_energy(m, small_geom, params) == pytest.approx(0.0, abs=1e-15)

    def test_sign_profile_closed_form(self, small_geom):
        # m = sign(z) e_x: layer energy Ks + 2 J1 exactly, J2 term zero
        m = np.zeros(small_geom.field_shape())
        m[..., 0] = np.sign(small_geom.z_centers())
        params = plain_params(ks=0.8, j1=0.6, j2=0.9)
        e = thin_layer_energy(m, small_geom, params)
        assert e == pytest.approx(0.8 + 2 * 0.6, rel=1e-12)
        # matches the sharp surface energies of the same trace data
        assert e == pytest.approx(sum(spacer_oracle(m, small_geom, params)), rel=1e-12)
        assert e == pytest.approx(sum(sharp_surface(m, small_geom, params)), rel=1e-12)

    def test_layer_quadrature_oracle(self, small_geom):
        # naive per-cell sum over the layer
        rng = np.random.default_rng(4)
        m = rng.standard_normal(small_geom.field_shape())
        params = plain_params(ks=0.3, j1=0.7, j2=0.2)
        sl = small_geom.layer_slice()
        s = small_geom.spacer_index
        acc = 0.0
        for i in range(small_geom.nx):
            for j in range(small_geom.ny):
                for k in range(sl.start, sl.stop):
                    mm = m[i, j, k]
                    msym = m[i, j, 2 * s - 1 - k]
                    nu = np.array([0, 0, 1.0 if k < s else -1.0])
                    acc += params.ks * (mm @ mm - (mm @ nu) ** 2)
                    acc += params.j1 * (0.5 * (mm @ mm + msym @ msym) - mm @ msym)
                    acc += params.j2 * ((msym @ msym) * (mm @ mm) - (mm @ msym) ** 2)
        expected = acc * small_geom.cell_volume / (2 * small_geom.eta)
        e = thin_layer_energy(m, small_geom, params)
        assert e == pytest.approx(expected, rel=1e-12)

    def test_eta_limit_first_order(self):
        # smooth-in-z profile: |E_eta - E_sharp| = O(eta)
        b, c = 0.9, 0.5
        ks, j1, j2 = 0.3, 0.4, 0.25
        nz = 16
        gaps, etas = [], []
        e_sharp = (ks + 2 * j1 * math.sin(c) ** 2 + j2 * math.sin(2 * c) ** 2)
        for mult in (4, 2, 1):
            eta = mult * 0.5 / nz
            geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 2, 2, nz, nz, eta=eta))
            z = geom.z_centers()
            ang = b * z + c * np.sign(z)
            m = np.zeros(geom.field_shape())
            m[..., 0] = np.cos(ang)
            m[..., 1] = np.sin(ang)
            params = plain_params(ks=ks, j1=j1, j2=j2)
            gaps.append(abs(thin_layer_energy(m, geom, params) - e_sharp))
            etas.append(eta)
        assert gaps[0] > gaps[1] > gaps[2]
        slope = np.polyfit(np.log(etas), np.log(gaps), 1)[0]
        assert 0.7 < slope < 1.3


class TestPenaltyAndMaxwell:
    def test_penalty_unit_zero(self, small_geom):
        m = random_unit_field(small_geom)
        e = penalty_energy(m, small_geom, plain_params(penalty_k=5.0))
        assert e == pytest.approx(0.0, abs=1e-28)

    def test_penalty_closed_form(self, small_geom):
        m = np.zeros(small_geom.field_shape())
        m[..., 0] = 2.0
        vol = 1.0  # unit slab volume
        e = penalty_energy(m, small_geom, plain_params(penalty_k=4.0))
        assert e == pytest.approx(4.0 / 4.0 * 9.0 * vol, rel=1e-12)

    def test_penalty_random_oracle(self, small_geom):
        rng = np.random.default_rng(1)
        m = rng.standard_normal(small_geom.field_shape())
        dev = np.sum(m * m, axis=-1) - 1.0
        expected = 0.25 * 3.0 * float(np.sum(dev**2)) * small_geom.cell_volume
        e = penalty_energy(m, small_geom, plain_params(penalty_k=3.0))
        assert e == pytest.approx(expected, rel=1e-12)

    def test_maxwell_zero(self, small_geom):
        box = mx.make_box(small_geom, padding=2)
        em = mx.empty_em_state(box)
        assert maxwell_energy(em, plain_params()) == (0.0, 0.0)

    def test_maxwell_uniform_h(self, small_geom):
        box = mx.make_box(small_geom, padding=2)
        em = mx.empty_em_state(box)
        em.hx[...] = 1.0
        e_h, e_e = maxwell_energy(em, plain_params())
        # every x-face carries weight dV
        expected = 0.5 * em.hx.size * box.cell_volume
        assert e_h == pytest.approx(expected, rel=1e-12)
        assert e_e == 0.0

    def test_maxwell_random_oracle(self, small_geom):
        rng = np.random.default_rng(2)
        box = mx.make_box(small_geom, padding=2)
        em = mx.empty_em_state(box)
        for a in (em.ex, em.ey, em.ez, em.hx, em.hy, em.hz):
            a[...] = rng.standard_normal(a.shape)
        params = plain_params(mu0=2.0, eps0=0.5)
        e_h, e_e = maxwell_energy(em, params)
        dv = box.cell_volume
        assert e_h == pytest.approx(
            0.5 * dv * sum(float(np.sum(a * a)) for a in (em.hx, em.hy, em.hz)), rel=1e-12)
        assert e_e == pytest.approx(
            (0.5 * 0.5 / 2.0) * dv * sum(float(np.sum(a * a)) for a in (em.ex, em.ey, em.ez)),
            rel=1e-12)


class TestTotalEnergy:
    def test_ground_state_zero(self, small_geom):
        m = np.zeros(small_geom.field_shape())
        m[..., 2] = 1.0
        bd = total_energy(m, None, small_geom, plain_params(), bc_mode="sharp")
        assert bd.total == 0.0

    def test_components_sum(self, small_geom):
        rng = np.random.default_rng(12)
        m = rng.standard_normal(small_geom.field_shape())
        box = mx.make_box(small_geom, padding=2)
        em = mx.empty_em_state(box)
        em.ex[...] = rng.standard_normal(em.ex.shape)
        em.hz[...] = rng.standard_normal(em.hz.shape)
        params = plain_params(
            a_exch=0.3, ks=0.2, j1=0.1, j2=0.4, penalty_k=1.5,
            k_matrix=uniform_k_matrix(np.diag([0.2, 0.1, 0.3]), small_geom))
        bd = total_energy(m, em, small_geom, params, bc_mode="thin_layer",
                          constraint="penalized")
        parts = [bd.exchange, bd.anisotropy, bd.maxwell_h, bd.maxwell_e,
                 bd.surf_anis, bd.superexch_q, bd.superexch_biq, bd.penalty]
        assert bd.total == math.fsum(parts)

    def test_matches_individual_terms(self, small_geom):
        rng = np.random.default_rng(13)
        m = rng.standard_normal(small_geom.field_shape())
        params = plain_params(a_exch=0.3, ks=0.2, j1=0.1, j2=0.4)
        bd = total_energy(m, None, small_geom, params, bc_mode="sharp")
        assert bd.exchange == exchange_energy(m, small_geom, params)
        assert (bd.surf_anis, bd.superexch_q, bd.superexch_biq) == \
            thin_layer_energy(m, small_geom, params, split=True, cells=1)
        assert (bd.surf_anis, bd.superexch_q, bd.superexch_biq) == pytest.approx(
            spacer_oracle(m, small_geom, params), rel=1e-14)
        bd_thin = total_energy(m, None, small_geom, params, bc_mode="thin_layer")
        assert (bd_thin.surf_anis, bd_thin.superexch_q, bd_thin.superexch_biq) == \
            thin_layer_energy(m, small_geom, params, split=True)
        assert bd.penalty == 0.0  # projected mode

    def test_penalty_only_in_penalized_mode(self, small_geom):
        rng = np.random.default_rng(14)
        m = 1.5 * rng.standard_normal(small_geom.field_shape())
        params = plain_params(penalty_k=2.0)
        proj = total_energy(m, None, small_geom, params, bc_mode="sharp",
                            constraint="projected")
        pen = total_energy(m, None, small_geom, params, bc_mode="sharp",
                           constraint="penalized")
        assert proj.penalty == 0.0
        assert pen.penalty > 0.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_every_component_nonnegative(seed):
    geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 3, 3, 2, 2, eta=0.25))
    rng = np.random.default_rng(seed)
    m = 2.0 * rng.standard_normal(geom.field_shape())
    kraw = rng.standard_normal((3, 3))
    params = MaterialParams(a_exch=0.5, k_matrix=uniform_k_matrix(kraw @ kraw.T, geom),
                            ks=0.3, j1=0.2, j2=0.6, alpha=1.0, penalty_k=1.0)
    for mode in ("sharp", "thin_layer"):
        bd = total_energy(m, None, geom, params, bc_mode=mode, constraint="penalized")
        for name in EnergyBreakdown.COLUMNS:
            assert getattr(bd, name) >= -1e-13, f"{name} negative in {mode}"
