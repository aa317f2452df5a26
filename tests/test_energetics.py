import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlayer.effective_field import assemble_h_tot, penalty_field
from spinlayer.energetics import (EnergyBreakdown, MaterialParams, _aligned_empty,
                                  _vector_field, anisotropy_energy, apply_k,
                                  exchange_energy, maxwell_energy, penalty_energy,
                                  thin_layer_energy, total_energy,
                                  uniform_k_matrix)
from spinlayer.geometry import GeometryConfig, build_geometry
from spinlayer import maxwell as mx
from spinlayer.summation import dot

from conftest import plain_params, random_unit_field, sharp_geom, spacer_oracle


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

    @pytest.mark.parametrize("name", ["a_exch", "ks", "j1", "j2", "alpha", "mu0", "eps0",
                                      "sigma", "penalty_k", "k_matrix"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_constants_naming_them(self, name, value):
        # a comparison with NaN is false, so `x <= 0` alone lets NaN through
        given = np.diag([0.1, value, 0.0]) if name == "k_matrix" else value
        with pytest.raises(ValueError, match=f"^{name} must be .*finite"):
            plain_params(**{name: given})


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

    @pytest.mark.parametrize("k", [
        np.diag([0.05, 0.02, 0.03]),                                   # diagonal
        np.array([[2.0, 0.5, -0.3], [0.5, 1.0, 0.2], [-0.3, 0.2, 0.7]]),  # full
        np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]]),    # zero row
        np.diag([0.05, 0.02, 0.0]),                      # the benchmark's K
    ])
    def test_apply_k_matches_einsum(self, small_geom, k):
        # only the nonzero entries are multiplied, in einsum's order
        params = plain_params(k_matrix=k)
        m = np.random.default_rng(43).standard_normal(small_geom.field_shape())
        m[1, 2, 0] = 0.0
        want = np.einsum("ij,...j->...i", params.k_matrix, m)
        out = _vector_field(m.shape)
        for got in (apply_k(params, m), apply_k(params, m, out=out, tmp=np.empty(m.size))):
            assert got.shape == want.shape and (got == want).all()

    def test_apply_k_without_k_is_zero(self, small_geom):
        m = np.random.default_rng(44).standard_normal(small_geom.field_shape())
        out = np.full(m.shape, np.nan)
        assert apply_k(plain_params(), m, out=out) is out
        assert (out == 0.0).all() and (apply_k(plain_params(), m) == 0.0).all()


def sharp_surface(m, geom, params):
    """(surf_anis, superexch_q, superexch_biq) of the breakdown on the
    sharp layer of geom's grid."""
    bd = total_energy(m, None, sharp_geom(geom), params)
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
    def test_no_eta_is_the_one_cell_layer(self):
        # a geometry without eta carries the sharp layer, whose sums are
        # the closed-form spacer integrals of the adjacent-cell traces
        g = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 3, 3))
        assert g.layer_cells == 1 and g.layer_slice() == slice(2, 4)
        m = random_unit_field(g, seed=3)
        params = plain_params(ks=0.3, j1=0.7, j2=0.45)
        got = thin_layer_energy(m, g, params)
        assert got == pytest.approx(spacer_oracle(m, g, params), rel=1e-14)

    def test_uniform_normal_zero(self, small_geom):
        m = np.zeros(small_geom.field_shape())
        m[..., 2] = 1.0
        params = plain_params(ks=1.0, j1=1.0, j2=1.0)
        e = math.fsum(thin_layer_energy(m, small_geom, params))
        assert e == pytest.approx(0.0, abs=1e-15)

    def test_sign_profile_closed_form(self, small_geom):
        # m = sign(z) e_x: layer energy Ks + 2 J1 exactly, J2 term zero
        m = np.zeros(small_geom.field_shape())
        m[..., 0] = np.sign(small_geom.z_centers())
        params = plain_params(ks=0.8, j1=0.6, j2=0.9)
        e = math.fsum(thin_layer_energy(m, small_geom, params))
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
        e = math.fsum(thin_layer_energy(m, small_geom, params))
        assert e == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("component_major", [False, True])
    def test_scratch_keeps_the_bits_of_fresh_arrays(self, small_geom, component_major):
        # the jump and the wedge formed in copied layer blocks sum to the
        # bits of the fresh ml - ms and np.cross(ml, ms), in either layout
        # of m, with and without scratch, on the eta layer and the one-cell
        rng = np.random.default_rng(5)
        m = 1.3 * rng.standard_normal(small_geom.field_shape())
        if component_major:
            cm = _vector_field(m.shape)
            np.copyto(cm, m)
            m = cm
        params = plain_params(ks=0.3, j1=0.7, j2=0.2)
        for geom in (sharp_geom(small_geom), small_geom):
            ml = m[:, :, geom.layer_slice(), :]
            ms = ml[:, :, ::-1, :]
            w = geom.face_area / (2.0 * geom.layer_cells)
            jump, wedge = ml - ms, np.cross(ml, ms)
            want = (params.ks * w * dot(ml[..., :2], ml[..., :2]),
                    0.5 * params.j1 * w * dot(jump, jump),
                    params.j2 * w * dot(wedge, wedge))
            for tmp in (None, np.full(3 * m.size, np.nan)):
                assert thin_layer_energy(m, geom, params, tmp=tmp) == want

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
            gaps.append(abs(math.fsum(thin_layer_energy(m, geom, params)) - e_sharp))
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
        bd = total_energy(m, None, small_geom, plain_params())
        assert bd.total == 0.0

    def test_columns_are_the_fields_and_total_their_sum(self):
        # each term defaults to 0.0; total is no argument but the fsum of
        # the terms, and the columns are the fields in order, total last
        bd = EnergyBreakdown(exchange=0.1, maxwell_e=0.2, penalty=1e-17)
        assert EnergyBreakdown.COLUMNS == tuple(f.name for f in dataclasses.fields(bd))
        assert bd.as_tuple() == tuple(getattr(bd, c) for c in EnergyBreakdown.COLUMNS)
        assert bd.as_tuple() == (0.1, 0.0, 0.0, 0.2, 0.0, 0.0, 0.0, 1e-17,
                                 math.fsum([0.1, 0.2, 1e-17]))
        assert bd.total == math.fsum(bd.as_tuple()[:-1])
        assert EnergyBreakdown().as_tuple() == (0.0,) * len(EnergyBreakdown.COLUMNS)
        with pytest.raises(TypeError):
            EnergyBreakdown(total=1.0)

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
        bd = total_energy(m, em, small_geom, params)
        parts = [bd.exchange, bd.anisotropy, bd.maxwell_h, bd.maxwell_e,
                 bd.surf_anis, bd.superexch_q, bd.superexch_biq, bd.penalty]
        assert bd.total == math.fsum(parts)

    def test_matches_individual_terms(self, small_geom):
        rng = np.random.default_rng(13)
        m = rng.standard_normal(small_geom.field_shape())
        params = plain_params(a_exch=0.3, ks=0.2, j1=0.1, j2=0.4)
        sharp = sharp_geom(small_geom)
        bd = total_energy(m, None, sharp, params)
        assert bd.exchange == exchange_energy(m, small_geom, params)
        assert (bd.surf_anis, bd.superexch_q, bd.superexch_biq) == \
            thin_layer_energy(m, sharp, params)
        assert (bd.surf_anis, bd.superexch_q, bd.superexch_biq) == pytest.approx(
            spacer_oracle(m, small_geom, params), rel=1e-14)
        bd_thin = total_energy(m, None, small_geom, params)
        assert (bd_thin.surf_anis, bd_thin.superexch_q, bd_thin.superexch_biq) == \
            thin_layer_energy(m, small_geom, params)
        assert bd.penalty == 0.0  # penalty_k = 0

    def test_penalty_enters_iff_penalty_k_nonzero(self, small_geom):
        # energy and field alike, whatever constraint the stepper applies
        rng = np.random.default_rng(14)
        m = 1.5 * rng.standard_normal(small_geom.field_shape())
        h = rng.standard_normal(small_geom.field_shape())
        free = plain_params(a_exch=0.3, ks=0.2, j1=0.1, j2=0.4)
        pen = plain_params(a_exch=0.3, ks=0.2, j1=0.1, j2=0.4, penalty_k=2.0)
        p_field = penalty_field(m, pen)
        assert np.abs(p_field).max() > 1.0
        for geom in (sharp_geom(small_geom), small_geom):
            e_free = total_energy(m, None, geom, free)
            e_pen = total_energy(m, None, geom, pen)
            assert e_free.penalty == 0.0
            assert e_pen.penalty == penalty_energy(m, geom, pen) > 0.0
            assert e_pen.total == math.fsum(e_free.as_tuple()[:-1] + (e_pen.penalty,))
            f_free = assemble_h_tot(m, h, geom, free)
            f_pen = assemble_h_tot(m, h, geom, pen)
            assert np.allclose(f_pen - f_free, p_field, rtol=0, atol=1e-13)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_every_component_nonnegative(seed):
    geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 3, 3, 2, 2, eta=0.25))
    rng = np.random.default_rng(seed)
    m = 2.0 * rng.standard_normal(geom.field_shape())
    kraw = rng.standard_normal((3, 3))
    params = MaterialParams(a_exch=0.5, k_matrix=uniform_k_matrix(kraw @ kraw.T, geom),
                            ks=0.3, j1=0.2, j2=0.6, alpha=1.0, penalty_k=1.0)
    for g in (sharp_geom(geom), geom):
        bd = total_energy(m, None, g, params)
        for name in EnergyBreakdown.COLUMNS:
            assert getattr(bd, name) >= -1e-13, f"{name} negative, {g.layer_cells} cells"


@pytest.mark.parametrize("shape", [1, 7, 35937, (3, 11, 10, 10), (4, 4, 3, 3)])
def test_aligned_empty_starts_on_a_64_byte_boundary(shape):
    for zero in (False, True):
        a = _aligned_empty(shape, zero=zero)
        assert a.shape == (shape if isinstance(shape, tuple) else (shape,))
        assert a.dtype == np.float64 and a.flags.c_contiguous
        assert a.ctypes.data % 64 == 0
        # the slack before the data is under one cache line
        owner = a.base
        assert owner.flags.owndata
        assert 0 <= a.ctypes.data - owner.ctypes.data <= 56
        if zero:
            assert not a.any()
