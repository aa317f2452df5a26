import types

import numpy as np
import pytest
import scipy.fft
import scipy.sparse

from spinlayer import dst
from spinlayer import maxwell as mx
from spinlayer.energetics import MaterialParams, maxwell_energy
from spinlayer.errors import CFLViolation, SolverDiverged
from spinlayer.geometry import GeometryConfig, build_geometry

from conftest import (FIELD_NAMES, box_divergence, box_faces_to_body_cells,
                      box_fdtd_step, edge_store, face_store, padded_cells_to_faces,
                      plain_curl_e, plain_curl_h, plain_div, plain_fdtd_step,
                      plain_fields, plain_grad, plain_init_divfree, random_unit_field,
                      traced_peak, workspace_curl)


def em_params(**overrides):
    kw = dict(a_exch=0.0, k_matrix=None, ks=0.0, j1=0.0, j2=0.0, alpha=1.0)
    kw.update(overrides)
    return MaterialParams(**kw)


def random_em(box, seed=0, pec=True):
    em = mx.empty_em_state(box)
    rng = np.random.default_rng(seed)
    for a in (em.ex, em.ey, em.ez, em.hx, em.hy, em.hz):
        a[...] = rng.standard_normal(a.shape)
    if pec:
        mx.zero_boundary_tangential_e(em)
    return em


class TestOperators:
    def test_curl_adjointness(self, small_geom):
        # the pads of both stores are zero, so whole-store sums are the
        # edge and face sums
        box = mx.make_box(small_geom, padding=3)
        em = random_em(box, seed=1)
        lhs = float(np.sum(workspace_curl(em, False) * em.e))
        rhs = float(np.sum(em.h * workspace_curl(em, True)))
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_div_curl_zero(self, small_geom):
        box = mx.make_box(small_geom, padding=3)
        em = random_em(box, seed=2, pec=False)
        ch = mx.face_views(workspace_curl(em, True), box)
        assert np.abs(plain_div(*ch, box)).max() < 1e-12

    def test_curl_grad_zero(self, small_geom):
        box = mx.make_box(small_geom, padding=3)
        rng = np.random.default_rng(3)
        s0 = (box.ny + 1) * (box.nz + 1)
        phi = np.zeros((box.nx + 2) * s0)
        cells = mx._plane_cells(phi[s0:-s0], box)
        cells[...] = rng.standard_normal((box.nx, box.ny, box.nz))
        em = mx.empty_em_state(box)
        em.h[...] = np.nan
        g = mx._gradient(phi, box, em.h)
        assert_same_bits(g, face_store(plain_grad(cells, box), box))   # pads zero
        assert np.abs(workspace_curl(em, False)).max() < 1e-12

    @pytest.mark.parametrize("scale", [1.0, 0.37])
    def test_curls_match_plain_reference(self, scale):
        # unequal spacings, so every difference quotient has its own scale,
        # and a cubic cell, where the kernel skips the ratio h_b/h_a = 1;
        # the kernel folds the scale in, the reference scales afterwards
        for dx, dy, dz in ((0.3, 0.2, 0.45), (0.25, 0.25, 0.25)):
            box = mx.BoxGeometry(nx=7, ny=5, nz=6, dx=dx, dy=dy, dz=dz,
                                 ox=2, oy=2, oz=2, mx=3, my=1, mz=2)
            em = random_em(box, seed=7, pec=False)
            ce, ch = workspace_curl(em, False, scale), workspace_curl(em, True, scale)
            for got, want in zip(mx.edge_views(ce, box) + mx.face_views(ch, box),
                                 plain_curl_h(em.hx, em.hy, em.hz, box)
                                 + plain_curl_e(em.ex, em.ey, em.ez, box)):
                assert np.abs(got - scale * want).max() <= 1e-13 * np.abs(want).max()
            # and nothing lands on the pads: the stores hold the arrays alone
            assert_same_bits(ce, edge_store(mx.edge_views(ce, box), box))
            assert_same_bits(ch, face_store(mx.face_views(ch, box), box))

    def test_curl_overwrites_a_used_buffer(self, small_geom):
        # both curls form each component in the workspace scratch: each
        # must set every entry of the component it returns
        box = mx.make_box(small_geom, padding=2)
        em = random_em(box, seed=8, pec=False)
        work = em.workspace()
        for views, forward in ((work.curl_h_views, False), (work.curl_e_views, True)):
            want = workspace_curl(em, forward)
            for term, ref in zip(views, mx._flat(want)):
                work.scratch[...] = np.nan
                work.tmp[...] = np.nan
                assert_same_bits(mx._apply_curl(term, 1.0), ref)

    def test_window_matches_full_curl(self, small_geom):
        # the predictor's window computes the body faces bit for bit
        box = mx.make_box(small_geom, padding=2)
        em = random_em(box, seed=9, pec=False)
        work = em.workspace()
        want = mx._body_faces(workspace_curl(em, True, 0.25), box)
        for term, got, ref in zip(work.body_curl_e_views, work.body_curl_faces, want):
            work.scratch[...] = np.nan
            mx._apply_curl(term, 0.25)
            assert_same_bits(got, ref)

    def test_transfer_adjointness(self, small_geom):
        box = mx.make_box(small_geom, padding=2)
        rng = np.random.default_rng(4)
        c = rng.standard_normal((box.nx, box.ny, box.nz, 3))
        cf = mx.cells_to_faces(c)
        f = tuple(rng.standard_normal(a.shape) for a in cf)
        fc = mx.faces_to_cells(*f)
        lhs = sum(float(np.sum(a * b)) for a, b in zip(f, cf))
        rhs = float(np.sum(fc * c))
        assert lhs == pytest.approx(rhs, rel=1e-13)


class TestInterp:
    def test_uniform(self, small_geom):
        box = mx.make_box(small_geom, padding=2)
        em = mx.empty_em_state(box)
        em.hx[...] = 0.3
        em.hy[...] = -0.1
        em.hz[...] = 0.7
        cells = mx.interp_h_to_cells(em)
        assert np.allclose(cells, [0.3, -0.1, 0.7])

    def test_linear_exact(self, small_geom):
        box = mx.make_box(small_geom, padding=2)
        em = mx.empty_em_state(box)
        x_face = np.arange(box.nx + 1) * box.dx
        em.hx[...] = (2.0 * x_face + 1.0)[:, None, None]
        cells = mx.interp_h_to_cells(em)
        x_cell = (np.arange(box.nx) + 0.5) * box.dx
        expected = (2.0 * x_cell + 1.0)[box.ox:box.ox + small_geom.nx]
        assert np.allclose(cells[..., 0], expected[:, None, None])

    def test_random_against_direct_average(self, small_geom):
        box = mx.make_box(small_geom, padding=2)
        em = random_em(box, seed=5, pec=False)
        cells = mx.interp_h_to_cells(em)
        sx, sy, sz = box.body_slices()
        i, j, k = 1, 2, 3
        bi, bj, bk = i + box.ox, j + box.oy, k + box.oz
        assert cells[i, j, k, 0] == pytest.approx(
            0.5 * (em.hx[bi, bj, bk] + em.hx[bi + 1, bj, bk]))
        assert cells[i, j, k, 2] == pytest.approx(
            0.5 * (em.hz[bi, bj, bk] + em.hz[bi, bj, bk + 1]))


class TestInitDivfree:
    def test_zero_everything(self, small_geom):
        box = mx.make_box(small_geom, padding=3)
        m0 = np.zeros(small_geom.field_shape())
        h = mx.init_divfree(m0, (0.0, 0.0, 0.0), box)
        assert h.shape == mx.store_shape(box) and np.abs(h).max() == 0.0

    def test_uniform_unchanged_without_magnetization(self, small_geom):
        # a uniform h is discretely divergence-free: the projection is a no-op
        box = mx.make_box(small_geom, padding=3)
        m0 = np.zeros(small_geom.field_shape())
        h = mx.init_divfree(m0, (0.1, -0.2, 0.3), box)
        assert_same_bits(h, face_store([np.full(f.shape, v) for f, v in
                                        zip(mx.face_views(h, box), (0.1, -0.2, 0.3))], box))

    def test_uniform_is_magnetostatic_plus_the_vector(self, small_geom):
        box = mx.make_box(small_geom, padding=3)
        m = random_unit_field(small_geom, seed=6)
        h = mx.init_divfree(m, (0.1, -0.2, 0.3), box)
        want = mx.init_divfree(m, (0.0, 0.0, 0.0), box)
        for a, b, v in zip(mx.face_views(h, box), mx.face_views(want, box), (0.1, -0.2, 0.3)):
            assert np.abs(a - (b + v)).max() < 1e-12

    @pytest.mark.parametrize("raw", [(0.1, -0.2, 0.3), (1e12, -1e12, 5e11)])
    def test_uniform_is_added_after_the_magnetostatic_solve(self, small_geom, raw):
        # h_raw is divergence-free, so it stays out of the rhs: the
        # projection of m with raw is that of m alone plus raw on every
        # face, bit for bit, with zero pads, however large raw is
        box = mx.make_box(small_geom, padding=3)
        m = random_unit_field(small_geom, seed=6)
        want = mx.init_divfree(m, (0.0, 0.0, 0.0), box)
        for f, v in zip(mx.face_views(want, box), raw):
            f += v
        assert_same_bits(mx.init_divfree(m, raw, box), want)

    @pytest.mark.parametrize("geom, padding", [
        (GeometryConfig(1.0, 1.0, 0.5, 0.5, 16, 16, 8, 8), 8),               # coupled
        (GeometryConfig(1.0, 1.0, 0.5, 0.5, 16, 16, 8, 8, eta=0.125), 8),    # cli
        (GeometryConfig(1.0, 0.9, 0.25, 0.5, 5, 3, 2, 4), 3),                # uneven
    ])
    @pytest.mark.parametrize("h0", [(0.0, 0.0, 0.0), (0.1, -0.2, 0.3), (-0.0, 0.0, 2.5)],
                             ids=["zero", "h02", "h03"])
    def test_matches_plain_projection_bit_for_bit(self, geom, padding, h0):
        # the store projection repeats the face-triple arithmetic, pads zero
        geom = build_geometry(geom)
        box = mx.make_box(geom, padding=padding)
        m = random_unit_field(geom, seed=24)
        out = np.zeros(mx.store_shape(box))
        for f in mx.face_views(out, box):
            f[...] = np.nan                       # every face is written
        want = face_store(plain_init_divfree(m, h0, box), box)
        assert_same_bits(mx.init_divfree(m, h0, box, out=out), want)
        assert_same_bits(mx.init_divfree(m, h0, box), want)

    def test_projection_peak_below_two_and_a_half_stores(self):
        # on the 32^3 box of W1 and the README config, into a given store:
        # one flat scratch that serves m_bar, both divergences, the DST-I
        # spectra, phi and the rhs; the odd extensions go into the store
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 16, 16, 8, 8))
        box = mx.make_box(geom, padding=8)
        m = random_unit_field(geom, seed=25)
        h = np.zeros(mx.store_shape(box))
        want = mx.init_divfree(m, (0.1, -0.2, 0.3), box, out=h).copy()
        _, peak = traced_peak(mx.init_divfree, m, (0.1, -0.2, 0.3), box, out=h)
        assert_same_bits(h, want)
        assert peak < 2.5 * h.nbytes, peak / h.nbytes

    def test_a_solve_off_its_residual_raises_solver_diverged(self, small_geom,
                                                              perturbed_poisson):
        box = mx.make_box(small_geom, padding=3)
        m = random_unit_field(small_geom, seed=6)
        with pytest.raises(SolverDiverged, match="divergence projection residual .* above "
                                                 "tolerance"):
            mx.init_divfree(m, (0.0, 0.0, 0.0), box)

    def test_magnetostatic_residual(self, small_geom):
        box = mx.make_box(small_geom, padding=4)
        m = np.zeros(small_geom.field_shape())
        m[..., 2] = 1.0
        h = mx.init_divfree(m, (0.0, 0.0, 0.0), box)
        assert np.abs(box_divergence(h, m, box)).max() < 1e-10
        # slab interior field opposes the magnetization
        cells = box_faces_to_body_cells(*mx.face_views(h, box), box)
        center = cells[small_geom.nx // 2, small_geom.ny // 2,
                       small_geom.nz_total // 2]
        assert center[2] < -0.1


def kron_laplacian(box):
    """Assembled 7-point zero-Dirichlet Laplacian (test oracle only)."""
    def lap1d(n, h):
        return scipy.sparse.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                                  [-1, 0, 1]) / h**2

    ix, iy, iz = (scipy.sparse.identity(n) for n in (box.nx, box.ny, box.nz))
    return (scipy.sparse.kron(scipy.sparse.kron(lap1d(box.nx, box.dx), iy), iz)
            + scipy.sparse.kron(scipy.sparse.kron(ix, lap1d(box.ny, box.dy)), iz)
            + scipy.sparse.kron(scipy.sparse.kron(ix, iy), lap1d(box.nz, box.dz)))


class TestPoisson:
    def test_matches_assembled_laplacian(self):
        # non-cubic box, unequal spacings: every axis has its own spectrum
        box = mx.BoxGeometry(nx=5, ny=7, nz=9, dx=0.1, dy=0.2, dz=0.05,
                             ox=1, oy=1, oz=1, mx=2, my=2, mz=2)
        rhs = np.random.default_rng(20).standard_normal((5, 7, 9))
        phi = mx.poisson_solve(rhs, box)
        assert phi.shape == rhs.shape
        resid = kron_laplacian(box) @ phi.ravel() - rhs.ravel()
        assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(rhs)
        # phi overwrites the forward transform in `out`, which may be the rhs
        again = rhs.copy()
        assert mx.poisson_solve(again, box, out=again) is again
        assert again.tobytes() == phi.tobytes()

    @pytest.mark.parametrize("shape", [(8, 8, 8), (9, 9, 9), (6, 8, 11), (4, 1, 6),
                                       (2, 22, 66)])
    def test_matches_scipy_dst_bit_for_bit(self, shape):
        # the numpy DST-I repeats scipy.fft's pocketfft arithmetic: cubic
        # boxes, unequal axes, a one-cell axis, and a box (3 * 23 * 67
        # nodes) whose idstn normalisation differs in the last bit
        # between long double and double division
        box = mx.BoxGeometry(*shape, dx=0.1, dy=0.2, dz=0.05, ox=0, oy=0, oz=0,
                             mx=1, my=1, mz=1)
        rhs = np.random.default_rng(22).standard_normal(shape)
        rhs[0] = 0.0
        rhs[:, :, -1] = -0.0
        lam = (mx._dirichlet_eigenvalues(box.nx, box.dx)[:, None, None]
               + mx._dirichlet_eigenvalues(box.ny, box.dy)[None, :, None]
               + mx._dirichlet_eigenvalues(box.nz, box.dz)[None, None, :])
        want = scipy.fft.idstn(scipy.fft.dstn(rhs, type=1) / lam, type=1)
        assert mx.poisson_solve(rhs, box).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape, support, minus_zero", [
        ((32, 32, 32), np.s_[7:25, 7:25, 7:25], None),      # W1: body and ring
        ((12, 9, 20), np.s_[2:7, 3:6, 5:14], None),         # non-cubic
        ((10, 12, 14), np.s_[3:8, 0:5, 9:14], None),        # on the y = 0, z = nz walls
        ((16, 16, 16), np.s_[4:12, 4:12, 4:12], np.s_[:, 1, :]),   # -0.0 plane outside
        ((16, 16, 16), np.s_[4:12, 4:12, 4:12], np.s_[:, 14, 2]),  # -0.0 x-line outside
        ((16, 12, 10), np.s_[0:0], np.s_[2:9, 5:9, 3:6]),  # only zeros: their signs show
    ], ids=["w1", "non_cubic", "wall", "minus_zero_plane", "minus_zero_line",
            "signed_zeros"])
    def test_sub_box_rhs_matches_scipy_dst_bit_for_bit(self, shape, support, minus_zero):
        # the forward transform skips the lines beyond the rhs's entries
        # that are not +0.0 (a -0.0 entry counts as one) and copies their
        # zero spectra in: the bits of the transform of every line.  Those
        # zeros' signs reach the result only where a whole line of a later
        # pass is zero, as in an rhs of signed zeros alone
        box = mx.BoxGeometry(*shape, dx=0.1, dy=0.2, dz=0.05, ox=0, oy=0, oz=0,
                             mx=1, my=1, mz=1)
        rhs = np.zeros(shape)
        rhs[support] = np.random.default_rng(26).standard_normal(rhs[support].shape)
        if minus_zero is not None:
            rhs[minus_zero] = -0.0
        lam = (mx._dirichlet_eigenvalues(box.nx, box.dx)[:, None, None]
               + mx._dirichlet_eigenvalues(box.ny, box.dy)[None, :, None]
               + mx._dirichlet_eigenvalues(box.nz, box.dz)[None, None, :])
        ext, spec = (np.empty(n) for n in dst.parts(shape))
        lines = dst.reached_lines(rhs, ext)
        forward = dst.transform(rhs, ext, spec, np.empty(shape), lines=lines)
        assert forward.tobytes() == scipy.fft.dstn(rhs, type=1).tobytes()
        want = scipy.fft.idstn(scipy.fft.dstn(rhs, type=1) / lam, type=1)
        assert mx.poisson_solve(rhs, box).tobytes() == want.tobytes()

    def test_forward_transform_skips_lines_beyond_the_rhs(self, monkeypatch):
        # W1's projection rhs is +0.0 outside the body and its one-cell
        # ring, 18 cells along each axis of the 32^3 box: the forward
        # transform's pass 1 takes the 18 x 18 x-lines of that ring, pass 2
        # the y-lines of its 18 z-planes, pass 3 and the inverse all lines
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 16, 16, 8, 8))
        box = mx.make_box(geom, padding=8)
        m = random_unit_field(geom, seed=27)
        mx.init_divfree(m, (0.1, -0.2, 0.3), box)     # the zero spectra are cached
        lines, real_fft = [], dst.rfft

        def counting_rfft(e, *args, **kwargs):
            lines.append(e.size // e.shape[-1])
            return real_fft(e, *args, **kwargs)
        monkeypatch.setattr(dst, "rfft", counting_rfft)
        h = mx.init_divfree(m, (0.1, -0.2, 0.3), box)
        assert lines == [18 * 18, 18 * 32] + [32 * 32] * 4
        lines.clear()
        rhs = np.random.default_rng(27).standard_normal((32, 32, 32))
        mx.poisson_solve(rhs, box)
        assert lines == [32 * 32] * 6
        # the skip keeps the projection's bits, and allocates nothing
        # box-sized: what tracemalloc sees is numpy's iterator buffers,
        # which have a fixed size
        monkeypatch.undo()
        assert_same_bits(h, face_store(plain_init_divfree(m, (0.1, -0.2, 0.3), box), box))
        n_ext, n_spec = dst.parts(rhs.shape)
        work, out = np.empty(n_ext + n_spec), np.empty(rhs.shape)
        views = mx._div_views(np.zeros_like(h), box, np.empty(h[0].size), work)
        div = mx._div_terms(views, m)
        rhs = mx._plane_cells(div, box).copy()
        assert dst.reached_lines(rhs, work) == ((7, 25), (7, 25))
        _, peak = traced_peak(mx.poisson_solve, rhs, box,
                              (work[:n_ext], work[n_ext:]), out)
        assert peak < rhs.nbytes, peak / rhs.nbytes

    def test_w1_projection_residual(self):
        # the 32^3 Yee box of the criterion-3 runs
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 16, 16, 8, 8))
        box = mx.make_box(geom, padding=8)
        m = random_unit_field(geom, seed=21)
        h = mx.init_divfree(m, (0.0, 0.0, 0.0), box)
        assert np.abs(box_divergence(h, m, box)).max() < mx.POISSON_TOL


class TestFdtdStep:
    def test_cfl_enforced(self, small_geom):
        box = mx.make_box(small_geom, padding=2)
        em = mx.empty_em_state(box)
        params = em_params()
        with pytest.raises(CFLViolation):
            mx.fdtd_step(em, None, np.zeros(3), params, 10.0 * mx.cfl_limit(box, params))

    def test_unknown_boundary_rejected(self, small_geom):
        box = mx.make_box(small_geom, padding=2)
        assert [mx.empty_em_state(box, bc=bc).bc for bc in mx.BOUNDARIES] == ["pec", "mur1"]
        with pytest.raises(ValueError, match="'mur'"):
            mx.empty_em_state(box, bc="mur")

    def test_nothing_moves(self, small_geom):
        box = mx.make_box(small_geom, padding=2)
        em = mx.empty_em_state(box)
        params = em_params()
        mx.fdtd_step(em, None, np.zeros(3), params, 0.5 * mx.cfl_limit(box, params))
        for a in (em.ex, em.ey, em.ez, em.hx, em.hy, em.hz):
            assert np.abs(a).max() == 0.0

    def test_sigma_decay_factor(self, small_geom):
        box = mx.make_box(small_geom, padding=2)
        em = mx.empty_em_state(box)
        em.ex[...] = 1.0
        params = em_params(sigma=3.0)
        dt = 0.5 * mx.cfl_limit(box, params)
        before = em.ex.copy()
        mx.fdtd_step(em, None, np.zeros(3), params, dt)
        beta = params.sigma * dt / (2.0 * params.eps0)
        factor = (1.0 - beta) / (1.0 + beta)
        mask = em.omega_masks[0]
        assert np.allclose(em.ex[mask], factor * before[mask])
        assert np.array_equal(em.ex[~mask], before[~mask])

    def test_warm_step_allocates_nothing_box_sized(self):
        # the subcycle runs 8x per step; box-sized temporaries there cost
        # page faults whenever the allocator hands out fresh pages
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 16, 16, 8, 8))
        box = mx.make_box(geom, padding=8)
        em = random_em(box, seed=22)
        params = em_params(sigma=10.0)
        dt = 0.5 * mx.cfl_limit(box, params)
        m_dot = np.random.default_rng(23).standard_normal(geom.field_shape())
        dm_faces = tuple(dt * f for f in mx.cells_to_faces(m_dot))   # body faces
        f_value = np.array([0.1, 0.0, -0.2])
        acc = types.SimpleNamespace(ohmic=0.0, source=0.0)
        mx.fdtd_step(em, dm_faces, f_value, params, dt, acc)   # warm

        def substeps():
            for _ in range(8):
                mx.fdtd_step(em, dm_faces, f_value, params, dt, acc)
        _, peak = traced_peak(substeps)
        assert peak < em.ex.nbytes

    def test_plane_wave_speed(self):
        # Gaussian pulse in vacuum propagates at 1/sqrt(mu0 eps0) within 2%.
        # The z extent is tall enough that the clamped wall edges stay
        # causally disconnected from the center line for the whole run.
        box = mx.BoxGeometry(nx=160, ny=4, nz=160, dx=1.0, dy=1.0, dz=1.0,
                             ox=1, oy=1, oz=1, mx=2, my=2, mz=2)
        em = mx.empty_em_state(box)
        params = em_params()
        c = params.speed_of_light
        dt = 0.5 * mx.cfl_limit(box, params)
        x_edge = np.arange(box.nx + 1)  # ey nodes in x
        x0, w = 40.0, 6.0
        profile = np.exp(-0.5 * ((x_edge - x0) / w) ** 2)
        em.ey[...] = profile[:, None, None]
        # matching h_z half a cell and half a step ahead for +x travel
        x_face = np.arange(box.nx) + 0.5
        em.hz[...] = np.exp(-0.5 * ((x_face - x0 - 0.5 * c * dt) / w) ** 2)[:, None, None]
        n_steps = 150
        for _ in range(n_steps):
            mx.fdtd_step(em, None, np.zeros(3), params, dt)
        sig = em.ey[:, 2, box.nz // 2]
        i = int(np.argmax(sig))
        # parabolic refinement of the peak position
        denom = sig[i - 1] - 2 * sig[i] + sig[i + 1]
        peak = i + 0.5 * (sig[i - 1] - sig[i + 1]) / denom
        travelled = peak - x0
        assert travelled == pytest.approx(c * n_steps * dt, rel=0.02)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStores:
    """e and h are two padded stores; the six components are views."""

    @staticmethod
    def _driven(bc, seed):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.6, 0.4, 6, 5, 3, 2))
        box = mx.make_box(geom, padding=3)
        em = random_em(box, seed=seed, pec=bc == mx.PEC)
        em.bc = bc
        m_dot = np.random.default_rng(seed + 1).standard_normal(geom.field_shape())
        return em, m_dot

    @pytest.mark.parametrize("bc", mx.BOUNDARIES)
    def test_fdtd_step_matches_plain_reference(self, bc):
        # 50 substeps with conduction, a source, the rate and the wall;
        # the tolerance, 1e-12 of the largest field entry, was fixed
        # before measuring
        em, m_dot = self._driven(bc, 50)
        box = em.box
        ref = plain_fields(em)
        params = em_params(sigma=2.0)
        dt = 0.5 * mx.cfl_limit(box, params)
        f_value = np.array([0.3, -0.1, 0.2])
        acc = types.SimpleNamespace(ohmic=0.0, source=0.0)
        acc_ref = types.SimpleNamespace(ohmic=0.0, source=0.0)
        dm_faces = tuple(dt * f for f in mx.cells_to_faces(m_dot))
        for _ in range(50):
            mx.fdtd_step(em, dm_faces, f_value, params, dt, acc)
            plain_fdtd_step(ref, box, bc, m_dot, f_value, params, dt, acc_ref)
        scale = max(np.abs(a).max() for a in ref.values())
        for name in FIELD_NAMES:
            assert np.abs(getattr(em, name) - ref[name]).max() <= 1e-12 * scale
        assert acc.ohmic == pytest.approx(acc_ref.ohmic, rel=1e-12)
        assert acc.source == pytest.approx(acc_ref.source, rel=1e-12)

    def test_mur_planes_match_the_formula_bit_for_bit(self):
        # with h = 0 and no conduction e moves only on the Mur1 planes,
        # where in-place writes must keep the bits of
        # in_old + coef * (inner - old)
        em, _ = self._driven(mx.MUR1, 64)
        em.h[...] = 0.0
        box = em.box
        ref = plain_fields(em)
        params = em_params()
        dt = 0.5 * mx.cfl_limit(box, params)
        mx.fdtd_step(em, None, np.zeros(3), params, dt)
        plain_fdtd_step(ref, box, mx.MUR1, np.zeros((box.mx, box.my, box.mz, 3)),
                        np.zeros(3), params, dt,
                        types.SimpleNamespace(ohmic=0.0, source=0.0))
        for name in ("ex", "ey", "ez"):
            assert_same_bits(getattr(em, name), ref[name])

    @pytest.mark.parametrize("bc", mx.BOUNDARIES)
    def test_pads_stay_zero_and_pec_walls_hold(self, bc):
        em, m_dot = self._driven(bc, 60)
        box = em.box
        walls = {(name, axis, i): np.take(getattr(em, name), i, axis=axis).copy()
                 for name, axis in (("ey", 0), ("ez", 0), ("ex", 1), ("ez", 1),
                                    ("ex", 2), ("ey", 2))
                 for i in (0, -1)}
        params = em_params(sigma=2.0)
        dt = 0.5 * mx.cfl_limit(box, params)
        dm_faces = tuple(dt * f for f in mx.cells_to_faces(m_dot))
        for _ in range(50):
            mx.fdtd_step(em, dm_faces, np.array([0.3, -0.1, 0.2]), params, dt)
        for store, views in ((em.e, mx.edge_views), (em.h, mx.face_views)):
            outside = np.ones(store.shape, dtype=bool)
            for view in views(outside, box):
                view[...] = False
            assert outside.sum() > 0 and np.all(store[outside] == 0.0)
        if bc == mx.PEC:
            for (name, axis, i), plane in walls.items():
                assert_same_bits(np.take(getattr(em, name), i, axis=axis), plane)

    def test_pec_wall_zeroing_is_the_twelve_tangential_planes(self, small_geom):
        box = mx.make_box(small_geom, padding=2)
        em = random_em(box, seed=65, pec=False)
        ref = plain_fields(em)
        for name, axis in (("ex", 1), ("ex", 2), ("ey", 0), ("ey", 2), ("ez", 0), ("ez", 1)):
            plane = np.moveaxis(ref[name], axis, 0)
            plane[0] = 0.0
            plane[-1] = 0.0
        mx.zero_boundary_tangential_e(em)
        assert_same_bits(em.e, edge_store([ref[n] for n in ("ex", "ey", "ez")], box))
        assert_same_bits(em.h, face_store([ref[n] for n in ("hx", "hy", "hz")], box))

    def test_assigned_component_still_aliases_the_store(self, small_geom):
        box = mx.make_box(small_geom, padding=2)
        em = mx.empty_em_state(box)
        a = np.random.default_rng(61).standard_normal(em.hy.shape)
        em.hy = a
        assert np.shares_memory(em.hy, em.h) and not np.shares_memory(em.hy, a)
        assert_same_bits(em.hy, a)
        a[...] = 0.0                      # the store holds a copy
        assert np.abs(em.hy).max() > 0.0
        em.hy[1, 2, 3] = 7.0              # writes through the view land in the store
        assert em.h[1, 1, 2, 3] == 7.0
        with pytest.raises(ValueError):
            em.hx = np.zeros((2, 2, 2))

    def test_copy_is_independent(self, small_geom):
        box = mx.make_box(small_geom, padding=2)
        em = random_em(box, seed=62)
        mx.record_div0(em, random_unit_field(small_geom, seed=63))
        before = (em.e.copy(), em.h.copy(), em.div0.copy())
        dup = em.copy()
        for a, b in zip((dup.e, dup.h, dup.div0), before):
            assert_same_bits(a, b)
        dup.hx += 1.0
        dup.ez[...] = 0.0
        dup.div0[...] = 0.0
        assert np.shares_memory(dup.hx, dup.h) and np.shares_memory(dup.ez, dup.e)
        for a, b in zip((em.e, em.h, em.div0), before):
            assert_same_bits(a, b)

    @pytest.mark.parametrize("bc", mx.BOUNDARIES)
    def test_stepping_a_copy_leaves_the_original(self, bc):
        # the workspace views the stores it was built on: a copy builds its
        # own, so stepping it writes nothing into the original
        em, m_dot = self._driven(bc, 66)
        params = em_params(sigma=2.0)
        dt = 0.5 * mx.cfl_limit(em.box, params)
        dm_faces = tuple(dt * f for f in mx.cells_to_faces(m_dot))
        f_value = np.array([0.3, -0.1, 0.2])
        mx.fdtd_step(em, dm_faces, f_value, params, dt)     # the original's workspace
        before = (em.e.copy(), em.h.copy())
        dup = em.copy()
        for _ in range(4):
            mx.fdtd_step(dup, dm_faces, f_value, params, dt)
        assert_same_bits(em.e, before[0])
        assert_same_bits(em.h, before[1])
        assert dup.work is not None and dup.work is not em.work
        assert not np.shares_memory(dup.work.scratch, em.work.scratch)
        assert np.shares_memory(dup.work.body_h[0], dup.h)
        assert np.abs(dup.e - em.e).max() > 0.0

    def test_store_must_be_c_contiguous_of_the_store_shape(self, small_geom):
        box = mx.make_box(small_geom, padding=2)
        good = np.zeros(mx.store_shape(box))
        for bad in (np.asfortranarray(good), np.zeros((3, 2, 2, 2))):
            with pytest.raises(ValueError, match="C-contiguous"):
                mx.EMState(box, bad, good.copy())
            with pytest.raises(ValueError, match="C-contiguous"):
                mx.EMState(box, good.copy(), bad)


class TestBodyLocal:
    """The rate, m_bar and the stage-begin h touch only the body's faces;
    each must agree bit for bit with its embed-into-the-box form."""

    def test_cells_to_faces_matches_padded_form(self, small_geom):
        # signed zeros on the outermost cells keep their padded-form bits
        box = mx.make_box(small_geom, padding=2)
        c = np.random.default_rng(29).standard_normal(small_geom.field_shape())
        c[0, :, :, 0] = -0.0
        c[:, -1, :, 1] = -0.0
        out = tuple(np.full_like(f, np.nan) for f in padded_cells_to_faces(c))
        for got in (mx.cells_to_faces(c), mx.cells_to_faces(c, out=out)):
            for a, b in zip(got, padded_cells_to_faces(c)):
                assert_same_bits(a, b)

    @pytest.mark.parametrize("bc", mx.BOUNDARIES)
    def test_fdtd_step_matches_box_form(self, bc):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.6, 0.4, 6, 5, 3, 2))
        box = mx.make_box(geom, padding=3)
        em = random_em(box, seed=30, pec=bc == mx.PEC)
        em.bc = bc
        ref = em.copy()
        params = em_params(sigma=2.0)
        dt = 0.5 * mx.cfl_limit(box, params)
        m_dot = np.random.default_rng(31).standard_normal(geom.field_shape())
        f_value = np.array([0.3, -0.1, 0.2])
        acc = types.SimpleNamespace(ohmic=0.0, source=0.0)
        acc_ref = types.SimpleNamespace(ohmic=0.0, source=0.0)
        dm_faces = tuple(dt * f for f in mx.cells_to_faces(m_dot))
        for _ in range(4):
            mx.fdtd_step(em, dm_faces, f_value, params, dt, acc)
            box_fdtd_step(ref, m_dot, f_value, params, dt, acc_ref)
        for name in ("ex", "ey", "ez", "hx", "hy", "hz"):
            assert_same_bits(getattr(em, name), getattr(ref, name))
        assert acc == acc_ref

    def test_drift_and_interp_match_box_form(self, small_geom):
        box = mx.make_box(small_geom, padding=2)
        em = random_em(box, seed=32, pec=False)
        m0 = random_unit_field(small_geom, seed=33)
        mx.record_div0(em, m0)
        assert_same_bits(mx._plane_cells(em.div0, box), box_divergence(em.h, m0, box))
        div0 = mx._plane_cells(em.div0, box).copy()
        m = random_unit_field(small_geom, seed=34)
        em.hx *= 1.5
        drift = np.max(np.abs(box_divergence(em.h, m, box) - div0))
        assert mx.divergence_drift(em, m) == drift
        assert_same_bits(mx.interp_h_to_cells(em),
                         box_faces_to_body_cells(em.hx, em.hy, em.hz, box))


class TestDivergencePropagation:
    def test_zero_at_start(self, small_geom):
        box = mx.make_box(small_geom, padding=2)
        em = mx.empty_em_state(box)
        m = random_unit_field(small_geom)
        mx.init_divfree(m, (0.0, 0.0, 0.0), box, out=em.h)
        mx.record_div0(em, m)
        assert mx.divergence_drift(em, m) == 0.0

    def test_thousand_steps(self):
        # 16^3 box: drift stays at roundoff scale over 1000 coupled steps
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 8, 8, 4, 4))
        box = mx.make_box(geom, padding=4)
        em = mx.empty_em_state(box)
        m = random_unit_field(geom, seed=10)
        mx.init_divfree(m, (0.0, 0.0, 0.0), box, out=em.h)
        mx.record_div0(em, m)
        params = em_params(sigma=0.5)
        dt = 0.9 * mx.cfl_limit(box, params)
        rng = np.random.default_rng(11)
        m_dot = rng.standard_normal(geom.field_shape())
        dm_faces = tuple(dt * f for f in mx.cells_to_faces(m_dot))   # body faces
        for _ in range(1000):
            mx.fdtd_step(em, dm_faces, np.zeros(3), params, dt)
            m = m + dt * m_dot
        assert mx.divergence_drift(em, m) < 1e-12 * 1000

    def test_invariant_under_constant_shift(self, small_geom):
        box = mx.make_box(small_geom, padding=2)
        em = mx.empty_em_state(box)
        m = random_unit_field(small_geom)
        mx.record_div0(em, m)
        d0 = mx.divergence_drift(em, m)
        em.hx += 2.5
        em.hy -= 0.7
        em.hz += 1.2
        assert mx.divergence_drift(em, m) == pytest.approx(d0, abs=1e-12)


class TestEnergyBehavior:
    def _lowest_mode(self, box):
        em = mx.empty_em_state(box)
        y = np.arange(box.ny + 1) * box.dy
        z = np.arange(box.nz + 1) * box.dz
        Ly, Lz = box.ny * box.dy, box.nz * box.dz
        em.ex[...] = (np.sin(np.pi * y / Ly)[None, :, None]
                      * np.sin(np.pi * z / Lz)[None, None, :])
        mx.zero_boundary_tangential_e(em)
        return em

    @staticmethod
    def _staggered_energy(em, h_prev, params, box):
        dV = box.cell_volume
        e2 = sum(float(np.sum(a * a)) for a in (em.ex, em.ey, em.ez))
        hh = sum(float(np.sum(a * b)) for a, b in
                 zip((em.hx, em.hy, em.hz), h_prev))
        return 0.5 * hh * dV + 0.5 * params.eps0 / params.mu0 * e2 * dV

    def test_leapfrog_conservation(self, small_geom):
        """sigma=0, PEC: the leapfrog quadratic invariant is conserved to
        roundoff over 1000 steps; the colocated energy drifts at O(dt^2)."""
        box = mx.make_box(small_geom, padding=4)
        params = em_params()
        drift_colocated = []
        for halving in (1.0, 0.5):
            em = self._lowest_mode(box)
            dt = 0.5 * halving * mx.cfl_limit(box, params)
            e0 = sum(maxwell_energy(em, params))
            stag0 = None
            stag_end = None
            for n in range(1000):
                h_prev = (em.hx.copy(), em.hy.copy(), em.hz.copy())
                mx.fdtd_step(em, None, np.zeros(3), params, dt)
                stag = self._staggered_energy(em, h_prev, params, box)
                if stag0 is None:
                    stag0 = stag
                stag_end = stag
            assert abs(stag_end - stag0) / stag0 < 1e-4   # measured ~1e-13
            drift_colocated.append(abs(sum(maxwell_energy(em, params)) - e0) / e0)
        # colocated endpoint drift shrinks ~4x when dt halves
        assert drift_colocated[1] < 0.4 * drift_colocated[0]

    def test_ohmic_energy_nonincreasing(self, small_geom):
        box = mx.make_box(small_geom, padding=2)
        em = random_em(box, seed=12)
        params = em_params(sigma=2.0)
        dt = 0.5 * mx.cfl_limit(box, params)
        prev = None
        for n in range(50):
            h_prev = (em.hx.copy(), em.hy.copy(), em.hz.copy())
            mx.fdtd_step(em, None, np.zeros(3), params, dt)
            stag = self._staggered_energy(em, h_prev, params, box)
            if prev is not None:
                assert stag <= prev * (1.0 + 1e-12)
            prev = stag

    def test_mur_absorbs_normal_incidence(self):
        # first-order absorbing wall: a head-on pulse reflects below 2%
        box = mx.BoxGeometry(nx=120, ny=4, nz=320, dx=1.0, dy=1.0, dz=1.0,
                             ox=1, oy=1, oz=1, mx=2, my=2, mz=2)
        params = em_params()
        c = params.speed_of_light
        dt = 0.5 * mx.cfl_limit(box, params)
        em = mx.empty_em_state(box)
        em.bc = mx.MUR1
        x_edge = np.arange(box.nx + 1)
        x_face = np.arange(box.nx) + 0.5
        x0, w = 60.0, 5.0
        em.ey[...] = np.exp(-0.5 * ((x_edge - x0) / w) ** 2)[:, None, None]
        em.hz[...] = np.exp(-0.5 * ((x_face - x0 - 0.5 * c * dt) / w) ** 2)[:, None, None]
        # 500 steps: the +x pulse reaches the wall and any reflection returns
        # to the probe band while the z walls stay causally out of reach
        for _ in range(500):
            mx.fdtd_step(em, None, np.zeros(3), params, dt)
        refl = np.abs(em.ey[30:100, 2, box.nz // 2]).max()
        assert refl < 0.02


class TestAppliedCurrent:
    def test_closed_form_near_the_peak(self):
        f = mx.AppliedCurrent((1.0, -2.0, 0.0), t0=0.5, width=0.25)
        for t in (0.5, 0.6, 3.0, 10.0, 10.1):
            z = (t - 0.5) / 0.25
            want = f.amplitude * np.exp(-0.5 * z ** 2)
            assert f.value(t).tobytes() == want.tobytes()

    @pytest.mark.parametrize("t0, width, t", [
        (1e300, 1.0, 0.5),        # a distant pulse: (t - t0)/width = -1e300
        (0.01, 1e-200, 0.5),      # a narrow pulse: (t - t0)/width = 4.9e199
        (0.0, 1.0, 1e155),        # just past where the square overflows
        (0.0, 1.0, 40.0),         # where the Gaussian has underflowed
    ])
    def test_zero_where_the_gaussian_underflows(self, t0, width, t):
        # the square of (t - t0)/width overflows a Python float beyond
        # ~1.3e154; the Gaussian is 0 long before, and so is the current
        f = mx.AppliedCurrent((1.0, -2.0, 0.5), t0=t0, width=width)
        got = f.value(t)
        assert got.shape == (3,) and not got.any()
