import gc
import math
import tracemalloc

import numpy as np
import pytest

from spinlayer import maxwell as mx
from spinlayer.diagnostics import (LedgerRow, TestFunction, energy_inequality_residual,
                                   omega_limit_field, omega_limit_field_cells,
                                   saturation_deviation, stationarity_report,
                                   stationarity_residual)
from spinlayer.diagnostics import test_function_library as fn_library
from spinlayer.dynamics import SchemeConfig, _Workspace, run
from spinlayer.effective_field import assemble_h_tot, thin_layer_field
from spinlayer.energetics import EnergyBreakdown, total_energy, uniform_k_matrix
from spinlayer.geometry import GeometryConfig, build_geometry
from spinlayer.summation import dot

from conftest import (FieldSamples, box_divergence, eval_on_cells, face_stationary_form,
                      fd_gradient, field_stationary_value, layer_geom, plain_params,
                      random_unit_field, sharp_geom, stationarity_form, traced_peak,
                      weak_residual_m, workspace_curl)


def test_ledger_row_allocates_nothing_box_sized():
    # the W1 ledger row (every energy term, the divergence drift and the
    # saturation deviation) reduces from the fields, the Maxwell workspace
    # and the state's stage scratch, on the sharp layer, on the thin layer
    # two cells deep (as in the README run) and on one a whole slab deep:
    # the whole row allocates less than an eighth of one body component,
    # so neither a field-sized temporary nor a numpy iterator buffer
    grid = (1.0, 1.0, 0.5, 0.5, 16, 16, 8, 8)
    geom = build_geometry(GeometryConfig(*grid, eta=2 * 0.5 / 8))
    params = plain_params(a_exch=0.01, k_matrix=np.diag([0.05, 0.02, 0.0]),
                          ks=0.01, j1=0.01, j2=0.01, sigma=10.0, penalty_k=10.0)
    box = mx.make_box(geom, padding=8)
    m = random_unit_field(geom, seed=60)
    em = mx.empty_em_state(box)
    mx.init_divfree(m, (0.0, 0.0, 0.0), box, out=em.h)
    mx.record_div0(em, m)
    m = random_unit_field(geom, seed=61)
    for g in (sharp_geom(geom), geom, build_geometry(GeometryConfig(*grid, eta=0.5))):
        work = _Workspace(g, params)
        np.copyto(work.m[0], m)
        m = work.m[0]   # the row runs on slot 0: its m buffer and its views
        views = work.row[0]

        def row():
            return (total_energy(m, em, g, params, tmp=views),
                    mx.divergence_drift(em, m), saturation_deviation(m, views[-1]))

        warm = row()
        again, peak = traced_peak(row)
        assert again == warm
        assert again[0] == total_energy(m, em, g, params)
        assert peak < m[..., 0].nbytes // 8, g.layer_cells



def test_row_values_leave_no_cyclic_garbage():
    # with the cyclic collector off, whatever reading a row's values leaves
    # in a reference cycle stays live: 400 rows read through csv_values
    # (and so EnergyBreakdown.as_tuple) must keep under 2 KB
    rows = [LedgerRow(0.1 * i, EnergyBreakdown(exchange=1.0, maxwell_e=2.0),
                      0.0, 0.0, 0.0, 0.0, 0.0) for i in range(400)]
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        for row in rows:
            row.csv_values()
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert live < 2048, live


class TestEnergyInequality:
    def _static_run(self):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 3, 3, 2, 2))
        params = plain_params(a_exch=0.01)
        m0 = np.zeros(geom.field_shape())
        m0[..., 2] = 1.0
        box = mx.make_box(geom, padding=2)
        em = mx.empty_em_state(box)
        scheme = SchemeConfig(dt=1e-3, subcycles=1, constraint="projected")
        rows = []
        run(geom, params, scheme, m0, em, None, t_end=0.02, on_row=rows.append)
        return rows

    def test_residual_at_zero_is_zero(self):
        rows = self._static_run()
        assert rows[0].t == 0.0
        assert energy_inequality_residual(rows[0], rows[0]) == 0.0

    def test_static_aligned_state(self):
        rows = self._static_run()
        assert abs(energy_inequality_residual(rows[0], rows[-1])) < 1e-14

    def test_saturation_deviation(self):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 3, 3, 2, 2))
        m = random_unit_field(geom, 1)
        assert saturation_deviation(m) < 1e-14
        m[1, 1, 1] = (1.1, 0.0, 0.0)
        assert saturation_deviation(m) == pytest.approx(0.1, abs=1e-12)


class TestWeakResidual:
    def _short_run(self, nx, nz, dt, t_end):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, nx, nx, nz, nz))
        params = plain_params(a_exch=0.02, ks=0.05, j1=0.04, j2=0.02,
                              k_matrix=uniform_k_matrix(np.diag([0.1, 0.05, 0.0]), geom))
        box = mx.make_box(geom, padding=2)
        em = mx.empty_em_state(box)
        em.hx[...] = 0.2
        em.hz[...] = 0.1
        rng = np.random.default_rng(3)
        z = geom.z_centers()
        m0 = np.zeros(geom.field_shape())
        m0[..., 0] = np.cos(0.8 * z + 0.4 * np.sign(z))
        m0[..., 1] = np.sin(0.8 * z + 0.4 * np.sign(z))
        x = (np.arange(geom.nx) + 0.5) * geom.dx
        m0[..., 2] += 0.3 * np.sin(np.pi * x)[:, None, None]
        m0 /= np.linalg.norm(m0, axis=-1, keepdims=True)
        scheme = SchemeConfig(dt=dt, constraint="projected")
        samples = FieldSamples()
        run(geom, params, scheme, m0, None, None, t_end=t_end, on_state=samples,
            h_fixed=mx.interp_h_to_cells(em))
        return geom, params, samples

    def test_zero_test_function_gives_zero(self):
        geom, params, samples = self._short_run(4, 2, 2e-3, 0.02)
        zero = TestFunction(
            "zero.ex", lambda x, y, z: np.zeros(np.broadcast(x, y, z).shape), 0)
        assert weak_residual_m(samples, zero, geom, params) == 0.0

    def test_stationary_state_gives_zero(self):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 3, 3, 2, 2))
        params = plain_params(a_exch=0.02)
        m0 = np.zeros(geom.field_shape())
        m0[..., 2] = 1.0
        box = mx.make_box(geom, padding=2)
        em = mx.empty_em_state(box)
        scheme = SchemeConfig(dt=1e-3, constraint="projected")
        samples = FieldSamples()
        run(geom, params, scheme, m0, None, None, t_end=0.01, on_state=samples,
            h_fixed=mx.interp_h_to_cells(em))
        lib = fn_library(geom)
        for fn in lib[:6]:
            assert weak_residual_m(samples, fn, geom, params) < 1e-14

    def test_linearity_in_test_function(self):
        geom, params, samples = self._short_run(4, 2, 2e-3, 0.02)
        lib = fn_library(geom)
        f1, f2 = lib[3], lib[13]

        def combined(x, y, z):
            return f1(x, y, z) + f2(x, y, z)

        class Sum:
            def __call__(self, x, y, z):
                return f1(x, y, z) + f2(x, y, z)

        r1 = weak_residual_m(samples, f1, geom, params, signed=True)
        r2 = weak_residual_m(samples, f2, geom, params, signed=True)
        r12 = weak_residual_m(samples, Sum(), geom, params, signed=True)
        assert r12 == pytest.approx(r1 + r2, abs=1e-12 + 1e-9 * abs(r1 + r2))

    def test_refinement_slope(self):
        # residual decays under joint dt, dx refinement; dt scales with dx^2
        # because the spacer phase jump makes exchange rates grow as 1/dz^2
        resids = []
        for nx, nz, dt in ((4, 2, 2e-3), (8, 4, 5e-4)):
            geom, params, samples = self._short_run(nx, nz, dt, 0.04)
            lib = fn_library(geom)
            resids.append(max(weak_residual_m(samples, fn, geom, params)
                              for fn in lib))
        slope = math.log(resids[0] / resids[1]) / math.log(2.0)
        assert slope >= 1.0


class TestStationarity:
    def test_uniform_axis_state_zero(self):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 3, 3, 2, 2))
        params = plain_params(a_exch=0.0)
        u = np.zeros(geom.field_shape())
        u[..., 2] = 1.0
        H = np.zeros(geom.field_shape())
        lib = fn_library(geom)
        assert stationarity_residual(u, H, params, geom, lib) < 1e-15

    def test_uniform_inplane_j1_only_zero(self):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 3, 3, 2, 2))
        params = plain_params(a_exch=0.0, j1=0.8)
        u = np.zeros(geom.field_shape())
        u[..., 0] = 1.0
        H = np.zeros(geom.field_shape())
        lib = fn_library(geom)
        assert stationarity_residual(u, H, params, geom, lib) < 1e-15

    def _random_case(self, geom):
        params = plain_params(a_exch=0.3, ks=0.2, j1=0.4, j2=0.1,
                              k_matrix=np.diag([0.1, 0.05, 0.0]))
        u = random_unit_field(geom, seed=5)
        H = np.random.default_rng(6).standard_normal(geom.field_shape())
        return params, u, H

    @pytest.mark.parametrize("bc_mode", ["sharp", "thin_layer"])
    def test_report_equals_per_function_form(self, small_geom, bc_mode):
        geom = layer_geom(small_geom, bc_mode)
        params, u, H = self._random_case(geom)
        lib = fn_library(geom)
        report = stationarity_report(u, H, params, geom, lib)
        assert report == [(fn.name, abs(stationarity_form(u, H, params, geom, fn)))
                          for fn in lib]

    def test_report_evaluates_each_shape_once(self, small_geom):
        # the report pairs each test field's one component, s e_d, with
        # the torque component d: the same bits as the 27 fresh test
        # fields paired that way with the np.cross torque, with each of
        # the 9 shapes evaluated once; in a direction-major order every
        # shape is evaluated again, never taken stale
        params, u, H = self._random_case(small_geom)
        calls = {}

        def counted(fn):
            def shape(x, y, z):
                calls[fn.name] = calls.get(fn.name, 0) + 1
                return fn.shape(x, y, z)
            return shape

        lib = fn_library(small_geom)
        shapes = {}
        counted_lib = [TestFunction(fn.name, shapes.setdefault(fn.shape, counted(fn)),
                                    fn.direction) for fn in lib]
        torque = np.cross(u, assemble_h_tot(u, H, small_geom, params))
        fresh = []
        for fn in lib:
            d = fn.direction
            phi_d = np.ascontiguousarray(eval_on_cells(fn, small_geom)[..., d])
            fresh.append((fn.name, abs(-small_geom.cell_volume
                                       * dot(np.ascontiguousarray(torque[..., d]), phi_d))))
        assert stationarity_report(u, H, params, small_geom, counted_lib) == fresh
        assert len(calls) == 9 and set(calls.values()) == {1}
        by_direction = sorted(counted_lib, key=lambda fn: fn.direction)
        calls.clear()
        report = stationarity_report(u, H, params, small_geom, by_direction)
        assert sorted(report) == sorted(fresh)
        assert set(calls.values()) == {3}

    @pytest.mark.parametrize("bc_mode", ["sharp", "thin_layer"])
    def test_report_within_roundoff_of_full_field_pairing(self, flat_geom, bc_mode):
        # pairing the one nonzero component of s e_d changes only the
        # summation order of -dV sum (m x h_tot) . phi over the full test
        # field: for a non-unit m with the penalty on, every value is
        # within 1e-13 of the library's largest full-field value
        flat_geom = layer_geom(flat_geom, bc_mode)
        rng = np.random.default_rng(9)
        shape = flat_geom.field_shape()
        kraw = rng.standard_normal((3, 3))
        params = plain_params(a_exch=0.7, ks=0.5, j1=0.4, j2=0.25, alpha=0.5,
                              penalty_k=2.0, k_matrix=kraw @ kraw.T)
        u = 1.3 * rng.standard_normal(shape)
        H = rng.standard_normal(shape)
        torque = np.cross(u, assemble_h_tot(u, H, flat_geom, params))
        lib = fn_library(flat_geom)
        full = [abs(field_stationary_value(torque, eval_on_cells(fn, flat_geom), flat_geom))
                for fn in lib]
        report = stationarity_report(u, H, params, flat_geom, lib)
        assert [name for name, _ in report] == [fn.name for fn in lib]
        scale = max(full)
        assert scale > 0.0
        assert max(abs(got - want) for (_, got), want in zip(report, full)) <= 1e-13 * scale

    def test_report_builds_no_vector_test_field(self):
        # a warm report holds at most the h_tot assembly (the field and
        # its two-field scratch), then the torque, one scalar shape buffer
        # and a shape's temporaries: its peak stays below 3.5 body fields,
        # so no (..., 3) test field or 3-D coordinate grid is formed
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 16, 16, 8, 8,
                                             eta=2 * 0.5 / 8))
        params = plain_params(a_exch=0.01, k_matrix=np.diag([0.05, 0.02, 0.0]),
                              ks=0.01, j1=0.01, j2=0.01, penalty_k=10.0)
        m = random_unit_field(geom, seed=62)
        H = random_unit_field(geom, seed=63)
        for g in (sharp_geom(geom), geom):
            warm = stationarity_report(m, H, params, g)
            again, peak = traced_peak(stationarity_report, m, H, params, g)
            assert again == warm
            assert peak < 3.5 * m.nbytes, (g.layer_cells, peak / m.nbytes)

    def test_thin_layer_pairs_with_eta_surface_field(self, small_geom):
        # the two layers differ only in the surface field of the torque:
        # thin - sharp = -dV sum (u x (h_surf(eta) - h_surf(dz))) . phi
        assert small_geom.layer_cells == 2
        one = sharp_geom(small_geom)
        params, u, H = self._random_case(small_geom)
        dh = (thin_layer_field(u, small_geom, params)
              - thin_layer_field(u, one, params))
        torque = np.cross(u, dh)
        gaps = []
        for fn in fn_library(small_geom):
            thin = stationarity_form(u, H, params, small_geom, fn)
            sharp = stationarity_form(u, H, params, one, fn)
            want = -small_geom.cell_volume * np.sum(torque * eval_on_cells(fn, small_geom))
            assert thin - sharp == pytest.approx(want, rel=1e-9, abs=1e-13)
            gaps.append(abs(thin - sharp))
        assert max(gaps) > 1e-3

    @pytest.mark.parametrize("bc_mode", ["sharp", "thin_layer"])
    def test_forms_equal_face_sum_oracle(self, small_geom, bc_mode):
        # m x h_tot paired with phi is the face-sum form, for any field
        # (non-unit m, penalty on) and every library function
        small_geom = layer_geom(small_geom, bc_mode)
        rng = np.random.default_rng(8)
        shape = small_geom.field_shape()
        kraw = rng.standard_normal((3, 3))
        params = plain_params(a_exch=0.7, ks=0.5, j1=0.4, j2=0.25, alpha=0.5,
                              penalty_k=2.0, k_matrix=kraw @ kraw.T)
        ms = [1.3 * rng.standard_normal(shape) for _ in range(3)]
        hs = [rng.standard_normal(shape) for _ in range(3)]
        times = [0.0, 0.01, 0.03]
        samples = FieldSamples(times, ms, hs)
        dV, one_a2 = small_geom.cell_volume, 1.0 + params.alpha**2
        lib = fn_library(small_geom)
        stat, weak = [], []
        for fn in lib:
            phi = eval_on_cells(fn, small_geom)
            want = face_stationary_form(ms[0], hs[0], params, small_geom, phi)
            got = stationarity_form(ms[0], hs[0], params, small_geom, fn)
            stat.append((got, want))
            want = 0.0
            for n in range(2):
                dt = times[n + 1] - times[n]
                m_dot = (ms[n + 1] - ms[n]) / dt
                m_mid = 0.5 * (ms[n + 1] + ms[n])
                h_mid = 0.5 * (hs[n + 1] + hs[n])
                want += dt * dV * (np.sum(m_dot * phi)
                                   - params.alpha * np.sum(np.cross(m_mid, m_dot) * phi))
                want -= dt * one_a2 * face_stationary_form(m_mid, h_mid, params,
                                                           small_geom, phi)
            got = weak_residual_m(samples, fn, small_geom, params, signed=True)
            weak.append((got, want))
        # relative to the largest value over the library
        for pairs in (stat, weak):
            scale = max(abs(want) for _, want in pairs)
            assert max(abs(got - want) for got, want in pairs) <= 1e-13 * scale
        report = stationarity_report(ms[0], hs[0], params, small_geom, lib)
        assert report == [(fn.name, abs(got)) for fn, (got, _) in zip(lib, stat)]

    def test_library_has_27_entries(self):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 3, 3, 2, 2))
        assert len(fn_library(geom)) == 27


class TestOmegaLimitField:
    def test_zero_magnetization(self):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 3, 3, 2, 2))
        box = mx.make_box(geom, padding=3)
        H = omega_limit_field(np.zeros(geom.field_shape()), box)
        assert H.shape == mx.store_shape(box) and np.abs(H).max() == 0.0

    def test_uniform_slab_demag(self):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.25, 0.25, 8, 8, 2, 2))
        box = mx.make_box(geom, padding=6)
        u = np.zeros(geom.field_shape())
        u[..., 2] = 1.0
        Hc = omega_limit_field_cells(u, box, geom)
        center = Hc[geom.nx // 2, geom.ny // 2, geom.nz_total // 2]
        # interior field opposes the magnetization of a flat slab
        assert center[2] < -0.5

    def test_cells_peak_below_three_and_a_half_stores(self):
        # on the 32^3 box of W1 and the README config: the h store, the
        # projection's scratch, rhs and phi, and the body cell field
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 16, 16, 8, 8))
        box = mx.make_box(geom, padding=8)
        u = random_unit_field(geom, seed=13)
        warm = omega_limit_field_cells(u, box, geom)
        again, peak = traced_peak(omega_limit_field_cells, u, box, geom)
        store = np.zeros(mx.store_shape(box))
        assert again.tobytes() == warm.tobytes()
        assert peak < 3.5 * store.nbytes, peak / store.nbytes
        # solved into a given store: the same cells, and the store holds H
        assert omega_limit_field_cells(u, box, geom, out=store).tobytes() == warm.tobytes()
        assert store.tobytes() == omega_limit_field(u, box).tobytes()

    def test_discrete_characterization(self):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 2, 2))
        box = mx.make_box(geom, padding=4)
        u = random_unit_field(geom, seed=12)
        H = omega_limit_field(u, box)
        curl = workspace_curl(mx.EMState(box, np.zeros_like(H), H), False)
        assert np.abs(curl).max() < 1e-12
        assert np.abs(box_divergence(H, u, box)).max() < 1e-10

    def test_cells_field_is_minus_the_reduced_energy_gradient(self):
        # criterion 2 for the reduced energy E(m) = (dV/2) sum |H(m)|^2 over
        # the faces, H = omega_limit_field(m) = -P m_bar with P the
        # projection onto gradients: dE/dm = -dV omega_limit_field_cells(m)
        # holds only if the body cells average the faces as the adjoint of
        # m -> m_bar and the projection is orthogonal.  E is quadratic, so
        # central differences leave rounding alone.  Unequal spacings and
        # a body of unequal sides
        geom = build_geometry(GeometryConfig(0.9, 1.0, 0.6, 0.4, 3, 4, 3, 2))
        box = mx.make_box(geom, padding=2)
        m = random_unit_field(geom, seed=5)
        dV = box.cell_volume

        def reduced_energy(mm):
            H = omega_limit_field(mm, box)
            return 0.5 * dV * math.fsum((H * H).ravel())

        want = -dV * omega_limit_field_cells(m, box, geom)
        err = np.abs(fd_gradient(reduced_energy, m) - want).max()
        assert err <= 1e-8 * np.abs(want).max(), err
