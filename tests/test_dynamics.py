import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.ndimage import gaussian_filter

from spinlayer import diagnostics, dynamics, effective_field, energetics, presets
from spinlayer import maxwell as mx
from spinlayer.dynamics import (BC_MODES, CONSTRAINTS, PENALIZED, PROJECTED,
                                SchemeConfig, SimState, _advance_m, _state_terms,
                                exchange_dt_bound, llg_rhs, run, step,
                                validate_stability)
from spinlayer.effective_field import assemble_h_tot
from spinlayer.energetics import _vector_field, total_energy
from spinlayer.errors import CFLViolation, NonFinite
from spinlayer.geometry import DomainGeometry, GeometryConfig, build_geometry

from conftest import (box_divergence, box_midpoint_h_cells, gilbert_projection_rhs,
                      gilbert_solve, layer_geom, plain_params, random_unit_field,
                      traced_peak)


def single_spin_setup(alpha=0.2, h=(0.0, 0.0, 1.0), m0=(1.0, 0.0, 0.0)):
    geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 1, 1, 1, 1))
    params = plain_params(a_exch=0.0, alpha=alpha)
    box = mx.make_box(geom, padding=2)
    em = mx.empty_em_state(box)
    em.hx[...] = h[0]
    em.hy[...] = h[1]
    em.hz[...] = h[2]
    m = _vector_field(geom.field_shape())
    m[...] = m0
    return geom, params, em, m, np.asarray(h, dtype=float)


class TestGilbertSolve:
    def test_zero_m(self):
        F = np.array([1.0, 2.0, 3.0])
        v = gilbert_solve(np.zeros(3), F, 0.5)
        assert np.allclose(v, F / 0.5)

    def test_parallel_forcing(self):
        m = np.array([0.0, 0.0, 1.0])
        v = gilbert_solve(m, 3.0 * m, 0.25)
        assert np.allclose(v, 3.0 * m / 0.25)

    def test_residual_and_oracle(self):
        rng = np.random.default_rng(0)
        m = 2.0 * rng.standard_normal((500, 3))
        F = 10.0 * rng.standard_normal((500, 3))
        for alpha in (0.01, 0.3, 10.0):
            v = gilbert_solve(m, F, alpha)
            resid = np.linalg.norm(alpha * v + np.cross(m, v) - F, axis=-1)
            assert np.all(resid <= 1e-12 * (1.0 + np.linalg.norm(F, axis=-1)))
            # direct 3x3 solve oracle
            eye = np.eye(3)
            for i in range(0, 500, 50):
                mm = m[i]
                cross_mat = np.array([[0, -mm[2], mm[1]],
                                      [mm[2], 0, -mm[0]],
                                      [-mm[1], mm[0], 0]])
                vo = np.linalg.solve(alpha * eye + cross_mat, F[i])
                assert np.allclose(v[i], vo, atol=1e-12 * (1 + np.abs(vo).max()))

    def test_parallel_component_identity(self):
        # m . v = (m . F) / alpha exactly
        rng = np.random.default_rng(1)
        m = rng.standard_normal((200, 3))
        F = rng.standard_normal((200, 3))
        alpha = 0.7
        v = gilbert_solve(m, F, alpha)
        assert np.allclose(np.sum(m * v, -1), np.sum(m * F, -1) / alpha, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100000), alpha=st.floats(0.01, 10.0))
def test_gilbert_residual_contract(seed, alpha):
    rng = np.random.default_rng(seed)
    m = 2.0 * (2.0 * rng.random(3) - 1.0)
    F = 1e3 * (2.0 * rng.random(3) - 1.0)
    v = gilbert_solve(m, F, alpha)
    resid = np.linalg.norm(alpha * v + np.cross(m, v) - F)
    assert resid <= 1e-12 * (1.0 + np.linalg.norm(F))


class TestLlgRhs:
    def test_aligned_state_is_stationary(self):
        geom, params, em, m, h = single_spin_setup(h=(0, 0, 1), m0=(0, 0, 1))
        scheme = SchemeConfig(dt=1e-3)
        h_cells = mx.interp_h_to_cells(em)
        m_dot = llg_rhs(m, h_cells, geom, params, scheme)
        assert np.abs(m_dot).max() < 1e-14

    def test_reproduces_landau_lifshitz_form(self):
        # m perpendicular to h, projected mode: -m x h - alpha m x (m x h)
        geom, params, em, m, h = single_spin_setup(alpha=0.3)
        scheme = SchemeConfig(dt=1e-3, constraint="projected")
        h_cells = mx.interp_h_to_cells(em)
        m_dot = llg_rhs(m, h_cells, geom, params, scheme)
        expected = -np.cross(m, h_cells) - 0.3 * np.cross(m, np.cross(m, h_cells))
        assert np.abs(m_dot - expected).max() < 1e-12

    def test_penalized_keeps_parallel_component(self):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 2, 2, 1, 1))
        params = plain_params(a_exch=0.0, alpha=0.5, penalty_k=2.0)
        scheme = SchemeConfig(dt=1e-4, constraint="penalized")
        rng = np.random.default_rng(3)
        m = 1.3 * random_unit_field(geom, seed=4)
        h_cells = np.zeros(geom.field_shape())
        m_dot = llg_rhs(m, h_cells, geom, params, scheme)
        # for F = (1+a^2) F0, m.m_dot = (m.F)/alpha exactly
        F = (1.0 + 0.25) * (-params.penalty_k * (np.sum(m * m, -1) - 1.0))[..., None] * m
        assert np.allclose(np.sum(m * m_dot, -1), np.sum(m * F, -1) / 0.5, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.01, 10.0),
       bc_mode=st.sampled_from(BC_MODES), constraint=st.sampled_from(CONSTRAINTS),
       component_major=st.booleans())
def test_llg_rhs_matches_gilbert_solve_then_projection(seed, alpha, bc_mode,
                                                       constraint, component_major):
    # the closed Landau-Lifshitz form and the in-place h_tot equal the
    # term-by-term Gilbert solve (and projection) for any m: random norms
    # in 0..2 with one zero cell, every energy term and the penalty on
    geom = layer_geom(build_geometry(GeometryConfig(1.0, 0.75, 0.5, 0.5, 4, 3, 3, 3,
                                                    eta=2 * 0.5 / 3)), bc_mode)
    rng = np.random.default_rng(seed)
    shape = geom.field_shape()
    kraw = rng.standard_normal((3, 3))
    params = plain_params(a_exch=rng.uniform(0.0, 0.5), k_matrix=kraw @ kraw.T,
                          ks=rng.uniform(0.0, 0.5), j1=rng.uniform(0.0, 0.5),
                          j2=rng.uniform(0.0, 0.5), alpha=alpha,
                          penalty_k=rng.uniform(0.0, 5.0))
    m = rng.standard_normal(shape)
    m *= (2.0 * rng.random(shape[:-1]) / np.linalg.norm(m, axis=-1))[..., None]
    m[1, 2, 0] = 0.0
    if component_major:
        cm = _vector_field(shape)
        np.copyto(cm, m)
        m = cm
    h = rng.standard_normal(shape)
    scheme = SchemeConfig(dt=1e-3, constraint=constraint, bc_mode=bc_mode)
    got = llg_rhs(m, h, geom, params, scheme)
    want = gilbert_projection_rhs(m, h, geom, params, scheme)
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-13 * scale
    if constraint == PROJECTED:
        # tangential to roundoff: |v . m| against the scale of v times |m|
        assert np.abs(np.sum(got * m, axis=-1)).max() <= 1e-14 * scale * 2.0


def scalar_guard_rate(m, F, alpha, constraint):
    """`llg_rhs`'s closed form pass by pass, with |m|^2 guarded by numpy's
    scalar-operand maximum np.maximum(|m|^2, 1e-300)."""
    w = m[..., 0] * m[..., 0] + m[..., 1] * m[..., 1] + m[..., 2] * m[..., 2]
    w = np.maximum(w, 1e-300)
    s = m[..., 0] * F[..., 0] + m[..., 1] * F[..., 1] + m[..., 2] * F[..., 2]
    s = s / -alpha**2 if constraint == PENALIZED else s / w
    w = (1.0 + alpha**2) / (w + alpha**2)
    v = np.empty(m.shape)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        v[..., i] = ((m[..., k] * F[..., j] - m[..., j] * F[..., k])
                     + (F[..., i] - s * m[..., i]) * alpha) * w
    return v


@pytest.mark.parametrize("constraint", CONSTRAINTS)
def test_llg_rhs_guard_matches_the_scalar_form_bit_for_bit(constraint):
    # the guard takes an array operand filled with 1e-300; a zero cell and
    # a cell with |m|^2 = 3e-302 take the guard's value, which the latter's
    # projected rate shows
    geom = build_geometry(GeometryConfig(1.0, 0.75, 0.5, 0.5, 4, 3, 3, 3))
    rng = np.random.default_rng(26)
    params = plain_params(a_exch=0.3, k_matrix=np.diag([0.5, 0.2, 0.0]), alpha=0.7)
    m = _vector_field(geom.field_shape())
    np.copyto(m, rng.standard_normal(m.shape))
    m[1, 2, 0] = 0.0
    m[0, 1, 1] = 1e-151
    h = rng.standard_normal(m.shape)
    scheme = SchemeConfig(dt=1e-3, constraint=constraint)
    F = assemble_h_tot(m, h, geom, params)
    got = llg_rhs(m, h, geom, params, scheme)
    want = scalar_guard_rate(m, F, params.alpha, constraint)
    assert np.isfinite(want).all()
    assert (np.ascontiguousarray(got).view(np.int64) == want.view(np.int64)).all()


@pytest.mark.parametrize("name", ["dt", "stability_c"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_scheme_rejects_non_finite_numbers_naming_them(name, value):
    # a NaN stability_c used to skip the exchange bound, a NaN dt to fail
    # in the step count's int()
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        SchemeConfig(**{"dt": 1e-3, name: value})


@pytest.mark.parametrize("name", ["integrator", "constraint", "bc_mode"])
def test_scheme_rejects_an_unknown_word_naming_it(name):
    with pytest.raises(ValueError, match=f"^unknown {name} 'euler'"):
        SchemeConfig(dt=1e-3, **{name: "euler"})


@pytest.mark.parametrize("t_end, log_every, message", [
    (-1e-2, 1, "t_end must be nonnegative"), (1e-2, 0, "log_every must be at least 1")])
def test_run_rejects_a_negative_t_end_or_cadence(t_end, log_every, message):
    geom, params, em, m, _ = single_spin_setup()
    with pytest.raises(ValueError, match=message):
        run(geom, params, SchemeConfig(dt=1e-2), m, em, None, t_end, log_every=log_every)


class TestStep:
    def test_aligned_state_only_time_moves(self):
        geom, params, em, m, h = single_spin_setup(h=(0, 0, 1), m0=(0, 0, 1))
        scheme = SchemeConfig(dt=1e-2)
        state = SimState(t=0.0, m=m.copy(), em=None, geom=geom, params=params,
                         scheme=scheme, h_fixed=mx.interp_h_to_cells(em))
        step(state)
        assert state.t == pytest.approx(1e-2)
        assert np.allclose(state.m, m, atol=1e-15)

    def test_single_spin_matches_ode_oracle(self):
        geom, params, em, m0, h = single_spin_setup(alpha=0.2)
        sol = solve_ivp(
            lambda t, y: -np.cross(y, h) - 0.2 * np.cross(y, np.cross(y, h)),
            (0.0, 1.0), m0[0, 0, 0], rtol=1e-12, atol=1e-14, dense_output=True)
        scheme = SchemeConfig(dt=1e-3)
        state = SimState(t=0.0, m=m0.copy(), em=None, geom=geom, params=params,
                         scheme=scheme, h_fixed=mx.interp_h_to_cells(em))
        worst = 0.0
        for _ in range(1000):
            step(state)
            worst = max(worst, float(np.linalg.norm(
                state.m[0, 0, 0] - sol.sol(state.t))))
        assert worst < 5e-7

    def test_heun_second_order(self):
        geom, params, em, m0, h = single_spin_setup(alpha=0.2)
        sol = solve_ivp(
            lambda t, y: -np.cross(y, h) - 0.2 * np.cross(y, np.cross(y, h)),
            (0.0, 1.0), m0[0, 0, 0], rtol=1e-12, atol=1e-14, dense_output=True)
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            scheme = SchemeConfig(dt=dt)
            state = SimState(t=0.0, m=m0.copy(), em=None, geom=geom, params=params,
                             scheme=scheme, h_fixed=mx.interp_h_to_cells(em))
            worst = 0.0
            for _ in range(int(round(1.0 / dt))):
                step(state)
                worst = max(worst, float(np.linalg.norm(
                    state.m[0, 0, 0] - sol.sol(state.t))))
            errs.append(worst)
        order = math.log(errs[0] / errs[2]) / math.log(4.0)
        assert order >= 1.9

    def test_rk4_more_accurate_than_heun(self):
        geom, params, em, m0, h = single_spin_setup(alpha=0.2)
        sol = solve_ivp(
            lambda t, y: -np.cross(y, h) - 0.2 * np.cross(y, np.cross(y, h)),
            (0.0, 0.5), m0[0, 0, 0], rtol=1e-12, atol=1e-14, dense_output=True)
        final = {}
        for integ in ("heun", "rk4"):
            scheme = SchemeConfig(dt=2e-3, integrator=integ)
            state = SimState(t=0.0, m=m0.copy(), em=None, geom=geom, params=params,
                             scheme=scheme, h_fixed=mx.interp_h_to_cells(em))
            for _ in range(250):
                step(state)
            final[integ] = np.linalg.norm(state.m[0, 0, 0] - sol.sol(state.t))
        assert final["rk4"] < 1e-2 * final["heun"]

    def test_projected_norm_exact(self):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 2, 2))
        params = plain_params(a_exch=0.01, alpha=1.0)
        scheme = SchemeConfig(dt=1e-3, constraint="projected", bc_mode="sharp")
        state = SimState(t=0.0, m=random_unit_field(geom, 5), em=None, geom=geom,
                         params=params, scheme=scheme)
        for _ in range(20):
            step(state)
            norms = np.linalg.norm(state.m, axis=-1)
            assert np.abs(norms - 1.0).max() < 1e-14

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_guard(self):
        geom, params, em, m, h = single_spin_setup()
        scheme = SchemeConfig(dt=1e-3)
        state = SimState(t=0.0, m=m.copy(), em=None, geom=geom, params=params,
                         scheme=scheme, h_fixed=mx.interp_h_to_cells(em))
        state.m[0, 0, 0, 0] = np.inf
        with pytest.raises(NonFinite):
            step(state)

    def test_zero_norm_projection_rejected(self):
        geom, params, em, m, h = single_spin_setup(h=(0.0, 0.0, 0.0))
        scheme = SchemeConfig(dt=1e-3, constraint="projected")
        state = SimState(t=0.0, m=np.zeros(geom.field_shape()), em=None, geom=geom,
                         params=params, scheme=scheme, h_fixed=mx.interp_h_to_cells(em))
        with pytest.raises(NonFinite):
            step(state)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("constraint, bad_value, message", [
        ("penalized", 1e200, "magnetization m became non-finite at step 251, "
                             "t=0.25, first at cell (2, 1, 3)"),
        ("projected", 0.0, "renormalization of m at step 251, t=0.25 hit a zero "
                           "or non-finite norm, first at cell (2, 1, 3)"),
    ])
    def test_nonfinite_names_time_field_and_cell(self, constraint, bad_value, message):
        # a huge cell overflows the penalty field, a zero cell cannot be
        # renormalized; without exchange or surface coupling the bad cells
        # stay the only ones.  The state has taken 250 steps of 1e-3.
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 2, 2))
        m = random_unit_field(geom, seed=9)
        m[2, 1, 3] = bad_value
        m[3, 3, 3] = bad_value
        scheme = SchemeConfig(dt=1e-3, constraint=constraint)
        state = SimState(t=0.25, m=m, em=None, geom=geom,
                         params=plain_params(a_exch=0.0, penalty_k=1.0), scheme=scheme, n=250)
        with pytest.raises(NonFinite) as err:
            step(state)
        assert str(err.value) == message

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_em_names_step_time_field_and_index(self):
        # a NaN on a wall face, outside the body, spreads through the
        # fields but never reaches m within one step
        geom, params, em, m, h = single_spin_setup()
        em.hx[0, 0, 0] = np.nan
        scheme = SchemeConfig(dt=1e-3)
        state = SimState(t=0.25, m=m, em=em, geom=geom, params=params,
                         scheme=scheme, n=250)
        with pytest.raises(NonFinite) as err:
            step(state)
        assert str(err.value).startswith("electromagnetic field ")
        assert " became non-finite at step 251, t=0.25, first at index (" in str(err.value)

    @pytest.mark.parametrize("eta, bc_mode", [(None, "thin_layer"), (0.25, "sharp")])
    def test_bc_mode_must_name_the_geometry_layer(self, eta, bc_mode):
        # the spacer layer is the geometry's; a scheme word that names the
        # other one is rejected, by the state and so by run, in both
        # directions, and the matching word is accepted
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 2, 2, eta=eta))
        m = random_unit_field(geom, seed=3)
        params = plain_params(a_exch=0.0, ks=0.1, j1=0.1)
        other = "sharp" if bc_mode == "thin_layer" else "thin_layer"
        scheme = SchemeConfig(dt=1e-3, bc_mode=bc_mode)
        with pytest.raises(ValueError, match=f"bc_mode '{bc_mode}' does not name the "
                                             f"geometry's spacer layer, '{other}'"):
            SimState(t=0.0, m=m, em=None, geom=geom, params=params, scheme=scheme)
        with pytest.raises(ValueError, match="spacer layer"):
            run(geom, params, scheme, m, None, None, t_end=1e-3)
        scheme = SchemeConfig(dt=1e-3, bc_mode=other)
        assert run(geom, params, scheme, m, None, None, t_end=1e-3).final_state.n == 1

    def test_steps_are_counted(self):
        geom, params, em, m, h = single_spin_setup()
        scheme = SchemeConfig(dt=1e-3)
        traj = run(geom, params, scheme, m, em, None, t_end=5e-3)
        assert traj.final_state.n == 5

    def test_final_state_holds_the_last_row_integrals(self):
        # the state owns the integrals that the ledger rows read: after a
        # coupled sigma > 0 run with a pulse, bit for bit the last row's
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 2, 2))
        params = plain_params(a_exch=0.01, sigma=2.0)
        box = mx.make_box(geom, padding=2)
        em = mx.empty_em_state(box)
        m0 = random_unit_field(geom, seed=5)
        mx.init_divfree(m0, (0.0, 0.0, 0.0), box, out=em.h)
        f = mx.AppliedCurrent((0.5, 0.2, 0.0), t0=5e-3, width=3e-3)
        rows = []
        traj = run(geom, params, SchemeConfig(dt=1e-3, subcycles=2), m0, em, f,
                   t_end=1e-2, log_every=3, on_row=rows.append)
        state, last = traj.final_state, rows[-1]
        assert state.n == 10 and last.t == state.t
        assert state.dissipation > 0.0 and state.ohmic > 0.0 and state.source != 0.0
        for name in ("dissipation", "ohmic", "source"):
            assert getattr(state, name).hex() == getattr(last, name).hex()

    def test_state_takes_em_or_h_fixed_not_both(self):
        geom, params, em, m, h = single_spin_setup()
        h_fixed = mx.interp_h_to_cells(em)
        scheme = SchemeConfig(dt=1e-3)
        with pytest.raises(ValueError, match="em or h_fixed, not both"):
            SimState(t=0.0, m=m, em=em, geom=geom, params=params, scheme=scheme,
                     h_fixed=h_fixed)
        with pytest.raises(ValueError, match="em or h_fixed, not both"):
            run(geom, params, scheme, m, em, None, t_end=1e-3, h_fixed=h_fixed)

    def test_m0_of_another_grid_rejected(self):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 2, 2))
        with pytest.raises(ValueError, match=r"m has shape \(4, 4, 3, 3\), not the "
                                             r"geometry's field shape \(4, 4, 4, 3\)"):
            run(geom, plain_params(a_exch=0.01), SchemeConfig(dt=1e-3), np.ones((4, 4, 3, 3)),
                None, None, t_end=1e-3)

    def test_h_fixed_of_another_grid_rejected(self):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 2, 2))
        with pytest.raises(ValueError, match=r"h_fixed has shape \(4, 4, 3, 3\), not the "
                                             r"geometry's field shape \(4, 4, 4, 3\)"):
            run(geom, plain_params(a_exch=0.01), SchemeConfig(dt=1e-3),
                random_unit_field(geom, seed=3), None, None, t_end=1e-3,
                h_fixed=np.zeros((4, 4, 3, 3)))

    def test_em_of_another_body_rejected(self):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 2, 2))
        other = build_geometry(GeometryConfig(1.0, 1.0, 0.75, 0.75, 4, 4, 3, 3))
        em = mx.empty_em_state(mx.make_box(other, padding=2))
        with pytest.raises(ValueError, match=r"em's body has \(4, 4, 6\) cells, not the "
                                             r"geometry's \(4, 4, 4\)"):
            SimState(t=0.0, m=random_unit_field(geom, seed=3), em=em, geom=geom,
                     params=plain_params(a_exch=0.01), scheme=SchemeConfig(dt=1e-3))

    def test_replaced_params_take_effect_at_the_next_step(self):
        # the workspace's views hold the parameters (K, A/h^2, the penalty):
        # a state whose params are replaced steps as a fresh state with them
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 2, 2))
        first = plain_params(a_exch=0.01, k_matrix=np.diag([0.05, 0.02, 0.0]))
        then = plain_params(a_exch=0.02, k_matrix=np.diag([0.0, 0.03, 0.01]), penalty_k=10.0)
        scheme = SchemeConfig(dt=1e-3, constraint="penalized")
        state = SimState(t=0.0, m=random_unit_field(geom, seed=5), em=None, geom=geom,
                         params=first, scheme=scheme)
        step(state)
        fresh = SimState(t=state.t, m=state.m, em=None, geom=geom, params=then, scheme=scheme)
        state.params = then
        step(state)
        step(fresh)
        assert state.m.tobytes() == fresh.m.tobytes()

    def test_a_replaced_copy_steps_in_buffers_of_its_own(self):
        # the workspace is no constructor argument, so a dataclasses.replace
        # copy builds its own: stepping the copy leaves the original's m
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 2, 2))
        em = mx.empty_em_state(mx.make_box(geom, padding=2))
        m0 = random_unit_field(geom, seed=5)
        mx.init_divfree(m0, (0.0, 0.0, 0.0), em.box, out=em.h)
        state = SimState(t=0.0, m=m0, em=em, geom=geom,
                         params=plain_params(a_exch=0.01, sigma=2.0),
                         scheme=SchemeConfig(dt=1e-3, subcycles=2))
        step(state)
        before = state.m.tobytes()
        copy = dataclasses.replace(state, em=em.copy())
        step(copy)
        step(copy)
        assert state.m.tobytes() == before
        assert copy.m.tobytes() != before

    def test_exchange_stability_bound_enforced(self):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 2, 2))
        params = plain_params(a_exch=1.0)
        bound = exchange_dt_bound(geom, params)
        with pytest.raises(CFLViolation):
            validate_stability(SchemeConfig(dt=2 * bound), geom, params)
        validate_stability(SchemeConfig(dt=0.5 * bound), geom, params)

    def test_subcycles_must_cover_yee_cfl(self):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 2, 2))
        params = plain_params(a_exch=1e-4)
        box = mx.make_box(geom, padding=2)
        dt = 10.0 * mx.cfl_limit(box, params)
        with pytest.raises(CFLViolation):
            validate_stability(SchemeConfig(dt=dt, subcycles=1), geom, params, box)
        validate_stability(SchemeConfig(dt=dt, subcycles=16), geom, params, box)


class TestPenalizedConstraint:
    def test_doubling_k_tightens_saturation(self):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 3, 3, 2, 2))
        m0 = random_unit_field(geom, seed=6)
        box = mx.make_box(geom, padding=2)
        em0 = mx.empty_em_state(box)
        em0.hx[...] = 0.3
        sat = {}
        for k in (50.0, 100.0):
            params = plain_params(a_exch=0.01, alpha=1.0, penalty_k=k,
                                  ks=0.05, j1=0.05, j2=0.02)
            scheme = SchemeConfig(dt=2e-4, constraint="penalized", bc_mode="sharp")
            rows = []
            run(geom, params, scheme, m0, None, None, t_end=0.2, log_every=20,
                on_row=rows.append, h_fixed=mx.interp_h_to_cells(em0))
            sat[k] = max(r.saturation_dev for r in rows)
        assert sat[100.0] < sat[50.0]


class TestRun:
    def test_t_end_zero_gives_initial_row_only(self):
        geom, params, em, m, h = single_spin_setup()
        scheme = SchemeConfig(dt=1e-3)
        rows = []
        run(geom, params, scheme, m, None, None, t_end=0.0, on_row=rows.append,
            h_fixed=mx.interp_h_to_cells(em))
        assert len(rows) == 1
        assert rows[0].t == 0.0

    @pytest.mark.parametrize("log_every", [0, -2])
    def test_log_every_below_one_rejected(self, log_every):
        geom, params, em, m, h = single_spin_setup()
        scheme = SchemeConfig(dt=1e-3)
        with pytest.raises(ValueError, match="log_every"):
            run(geom, params, scheme, m, None, None, t_end=3e-3, log_every=log_every,
                h_fixed=mx.interp_h_to_cells(em))

    def test_nonfinite_m0_rejected_at_step_zero(self):
        geom, params, em, m, h = single_spin_setup()
        m = m.copy()
        m[0, 0, 0, 1] = np.nan
        scheme = SchemeConfig(dt=1e-3)
        with pytest.raises(NonFinite):
            run(geom, params, scheme, m, None, None, t_end=1e-3,
                h_fixed=mx.interp_h_to_cells(em))

    def test_nonfinite_m0_names_its_first_cell(self):
        # the state and so run name the first cell holding a NaN
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 2, 2))
        m = random_unit_field(geom, seed=9)
        m[2, 1, 3, 1] = np.nan
        m[3, 3, 3, 0] = np.nan
        scheme = SchemeConfig(dt=1e-3)
        message = "initial magnetization is not finite, first at cell (2, 1, 3)"
        with pytest.raises(NonFinite) as err:
            SimState(t=0.0, m=m, em=None, geom=geom, params=plain_params(a_exch=0.0),
                     scheme=scheme)
        assert str(err.value) == message
        with pytest.raises(NonFinite) as err:
            run(geom, plain_params(a_exch=0.0), scheme, m, None, None, t_end=1e-3)
        assert str(err.value) == message

    def test_nonfinite_row_names_its_step_and_first_column(self):
        # e = 1e155 overflows maxwell_e and so total in the t = 0 row: run
        # raises naming the step, t and first column, before on_row sees it
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 2, 2))
        params = plain_params(a_exch=0.01)
        em = mx.empty_em_state(mx.make_box(geom, padding=2))
        em.ex[...] = 1e155
        rows = []
        with pytest.raises(NonFinite) as err:
            run(geom, params, SchemeConfig(dt=2e-3, subcycles=4),
                random_unit_field(geom, seed=3), em, None, t_end=2e-3,
                on_row=rows.append)
        assert str(err.value) == ("2 ledger values at step 0, t=0 are not "
                                  "finite, first maxwell_e")
        assert rows == []

    def test_deterministic_rerun_bitwise(self):
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 2, 2))
        params = plain_params(a_exch=0.01, alpha=1.0, ks=0.03, j1=0.02, j2=0.01,
                              sigma=1.0)
        m0 = random_unit_field(geom, seed=7)
        box = mx.make_box(geom, padding=3)

        def one_run():
            em = mx.empty_em_state(box)
            mx.init_divfree(m0, (0.0, 0.0, 0.0), box, out=em.h)
            scheme = SchemeConfig(dt=1e-3, subcycles=1, constraint="projected",
                                  bc_mode="sharp")
            rows = []
            run(geom, params, scheme, m0, em, None, t_end=0.05,
                on_row=lambda row: rows.append(row.csv_values()))
            return rows

        a = one_run()
        assert len(a) == 51
        assert a == one_run()

    def test_memory_does_not_grow_with_the_step_count(self):
        # run streams each ledger row to on_row and keeps none, so 300
        # more logged steps leave its peak where 100 steps put it
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 2, 2, 1, 1))
        params = plain_params(a_exch=0.01, ks=0.01, j1=0.01, j2=0.01)
        scheme = SchemeConfig(dt=1e-3)
        m0 = random_unit_field(geom, seed=4)
        peaks = [traced_peak(run, geom, params, scheme, m0, None, None,
                             t_end=steps * scheme.dt, on_row=lambda row: None)[1]
                 for steps in (100, 400)]
        assert peaks[1] - peaks[0] < 16 * 1024, peaks

    def test_divergence_conserved_in_projected_mode(self):
        # renormalization does not break div(h + m_bar) bookkeeping
        geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 2, 2))
        params = plain_params(a_exch=0.01, alpha=1.0)
        m0 = random_unit_field(geom, seed=8)
        box = mx.make_box(geom, padding=3)
        em = mx.empty_em_state(box)
        mx.init_divfree(m0, (0.0, 0.0, 0.0), box, out=em.h)
        scheme = SchemeConfig(dt=1e-3, subcycles=1, constraint="projected",
                              bc_mode="sharp")
        rows = []
        run(geom, params, scheme, m0, em, None, t_end=0.1, on_row=rows.append)
        assert rows[-1].divergence_drift < 1e-12


def component_major(a):
    """Whether the (..., 3) field a is a view of a C-contiguous (3, ...)
    store, the layout the stepper works in."""
    return np.moveaxis(a, -1, 0).flags.c_contiguous


class TestLayout:
    def _coupled(self, integrator):
        geom = build_geometry(GeometryConfig(1.0, 0.75, 0.5, 0.75, 4, 3, 2, 3,
                                             eta=2 * 0.25))
        params = plain_params(a_exch=0.01, k_matrix=np.diag([0.05, 0.02, 0.0]),
                              ks=0.03, j1=0.02, j2=0.01, sigma=1.0, penalty_k=2.0)
        box = mx.make_box(geom, padding=2)
        constraint, bc_mode = (("projected", "sharp") if integrator == "heun"
                               else ("penalized", "thin_layer"))
        scheme = SchemeConfig(dt=1e-3, subcycles=2, integrator=integrator,
                              constraint=constraint, bc_mode=bc_mode)
        return layer_geom(geom, bc_mode), params, box, scheme

    @pytest.mark.parametrize("integrator", ["heun", "rk4"])
    def test_run_in_either_input_layout_gives_the_same_bits(self, integrator):
        # SimState copies m0 into the component-major layout once, so a
        # row-major m0 takes no other code path
        geom, params, box, scheme = self._coupled(integrator)
        m0 = random_unit_field(geom, seed=21)
        results = []
        for m_in in (np.ascontiguousarray(m0), m0):
            em = mx.empty_em_state(box)
            mx.init_divfree(m_in, (0.0, 0.0, 0.0), box, out=em.h)
            rows = []
            traj = run(geom, params, scheme, m_in, em, None, t_end=20 * scheme.dt,
                       on_row=lambda row: rows.append(row.csv_values()))
            results.append((rows, traj.final_state.m))
        (a, ma), (b, mb) = results
        assert len(a) == 21
        assert a == b
        assert (np.ascontiguousarray(ma).view(np.int64)
                == np.ascontiguousarray(mb).view(np.int64)).all()
        assert component_major(ma) and component_major(mb)

    def test_stepper_buffers_are_component_major(self):
        geom, params, box, scheme = self._coupled("rk4")
        em = mx.empty_em_state(box)
        m0 = np.ascontiguousarray(random_unit_field(geom, seed=2))
        seen = []
        run(geom, params, scheme, m0, em, None, t_end=2 * scheme.dt,
            on_state=lambda state, n: seen.append((state.m, state.workspace())))
        for m, work in seen:
            assert component_major(m)
            assert len(work.k) == 2 and len(work.m) == 2
            assert all(component_major(a) for a in (*work.k, *work.m))
        assert component_major(em.workspace().body_cells)
        assert component_major(mx.faces_to_cells(*em.workspace().body_h))

    def test_presets_are_component_major(self):
        geom = build_geometry(GeometryConfig(1.0, 0.75, 0.5, 0.75, 4, 3, 2, 3))
        for m in (presets.uniform_m((0.0, 0.6, 0.8), geom), presets.vortexish_m(geom),
                  presets.random_unit_m(geom, 4), presets.random_unit_m(geom, 4, 0.0)):
            assert m.shape == geom.field_shape() and component_major(m)


def scipy_random_unit_m(geom, seed, smooth_cells):
    """The random preset with scipy.ndimage's Gaussian (test oracle)."""
    m = np.random.default_rng(seed).standard_normal(geom.field_shape())
    if smooth_cells > 0:
        for c in range(3):
            m[..., c] = gaussian_filter(m[..., c], sigma=smooth_cells, mode="nearest")
    return m / np.linalg.norm(m, axis=-1, keepdims=True)


@pytest.mark.parametrize("grid", [(1.0, 1.0, 0.5, 0.5, 4, 4, 1, 1),
                                  (1.0, 0.75, 0.5, 0.75, 4, 3, 2, 3),
                                  (1.0, 1.0, 0.5, 0.5, 8, 8, 4, 4)])
@pytest.mark.parametrize("sigma", [0.0, 0.1, 0.5, 1.0, 1.5, 2.0, 4.0])
def test_random_preset_matches_scipy_gaussian(grid, sigma):
    # the numpy Gaussian repeats scipy.ndimage's arithmetic bit for bit, also
    # where its radius (up to 16 cells) exceeds the axis (4x4x2, 4x3x5)
    geom = build_geometry(GeometryConfig(*grid))
    got = presets.random_unit_m(geom, 9, sigma)
    want = scipy_random_unit_m(geom, 9, sigma)
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("grid", [(1.0, 1.0, 0.5, 0.5, 16, 16, 8, 8),     # coupled, cli
                                  (1.0, 1.0, 0.5, 0.5, 32, 32, 16, 16)])  # llg_only
def test_random_preset_filters_in_the_spent_draw(grid):
    # a warm call holds m and the draw, whose buffer serves the filter's
    # edge-padded copy and pair term, also where the radius (16 cells at
    # smooth_cells 4) spans the 16-cell axes; the bits stay scipy's
    geom = build_geometry(GeometryConfig(*grid))
    presets.random_unit_m(geom, 5, 4.0)
    m, peak = traced_peak(presets.random_unit_m, geom, 5, 4.0)
    assert peak <= 2.1 * m.nbytes, peak / m.nbytes
    assert np.ascontiguousarray(m).tobytes() == scipy_random_unit_m(geom, 5, 4.0).tobytes()


def test_warm_coupled_step_allocates_less_than_a_body_field():
    # the stage-begin cell h, the new m, the predictor, the subcycles and
    # the ledger row's terms all work in the state's buffers; what remains is
    # numpy's iterator buffers (fixed size) and small bookkeeping
    geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 24, 24, 12, 12))
    params = plain_params(a_exch=0.01, k_matrix=np.diag([0.05, 0.02, 0.0]),
                          ks=0.01, j1=0.01, j2=0.01, sigma=10.0)
    box = mx.make_box(geom, padding=2)
    em = mx.empty_em_state(box)
    m0 = random_unit_field(geom, seed=12)
    mx.init_divfree(m0, (0.0, 0.0, 0.0), box, out=em.h)
    m_in = m0.copy()
    state = SimState(t=0.0, m=m_in, em=em, geom=geom, params=params,
                     scheme=SchemeConfig(dt=1e-4, subcycles=2))
    for _ in range(3):
        step(state)

    def ledger_terms():
        return _state_terms(state.m, em, geom, params, _row_views(state))
    ledger_terms()
    peaks = [traced_peak(f)[1] for f in (lambda: step(state), ledger_terms)]
    assert max(peaks) < m0.nbytes
    # the new m alternates between two workspace buffers, never the
    # caller's, so the m of the step before stays intact
    before, kept = state.m, state.m.copy()
    step(state)
    assert state.m is not before and np.array_equal(before, kept)
    assert np.array_equal(m_in, m0)


@pytest.mark.parametrize("integrator, constraint, bc_mode, layer_cells", [
    pytest.param("heun", "projected", "sharp", 2, id="heun-projected-sharp"),
    pytest.param("rk4", "penalized", "thin_layer", 2, id="rk4-penalized-thin_layer"),
    pytest.param("rk4", "penalized", "thin_layer", 16, id="rk4-penalized-full_slab"),
])
def test_warm_stage_step_allocates_nothing_body_sized(integrator, constraint, bc_mode,
                                                      layer_cells):
    # every LLG stage, the surface field included, works in the state's
    # workspace, also with a thin layer a whole slab deep; what remains is
    # small bookkeeping
    geom = layer_geom(build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 32, 32, 16, 16,
                                                    eta=layer_cells * 0.5 / 16)),
                      bc_mode)
    params = plain_params(a_exch=0.01, k_matrix=np.diag([0.05, 0.02, 0.0]),
                          ks=0.01, j1=0.01, j2=0.01, penalty_k=10.0)
    scheme = SchemeConfig(dt=1e-5, integrator=integrator, constraint=constraint,
                          bc_mode=bc_mode)
    state = SimState(t=0.0, m=random_unit_field(geom, seed=11), em=None,
                     geom=geom, params=params, scheme=scheme)
    work = state.workspace()
    assert state.m is work.m[0]   # a step from slot 0 forms its stages in slot 1
    advance = (work, 0, None, scheme.dt, scheme)
    _advance_m(*advance)
    _, peak = traced_peak(_advance_m, *advance)
    assert peak < geom.nx * geom.ny * 8   # below one scalar plane of the body


@pytest.mark.parametrize("integrator", ["heun", "rk4"])
def test_fresh_run_holds_seven_fields(integrator):
    # beside the caller's m0 a run holds two stage rates, two m buffers (one
    # the state's own copy of m0) and the three-field kernel scratch, Heun
    # and RK4 alike; a separate stage m, a separate copy of m0 and four RK4
    # rates would read about 9.1 (Heun) and 11.1 (RK4)
    geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 24, 24, 12, 12))
    params = plain_params(a_exch=0.01, k_matrix=np.diag([0.05, 0.02, 0.0]),
                          ks=0.01, j1=0.01, j2=0.01)
    scheme = SchemeConfig(dt=1e-3, integrator=integrator)
    m0 = random_unit_field(geom, seed=13)
    rows = []
    traj, peak = traced_peak(run, geom, params, scheme, m0, None, None, 3 * scheme.dt,
                             on_row=rows.append)
    assert len(rows) == 4 and traj.final_state.n == 3
    assert peak < 7.5 * m0.nbytes, peak / m0.nbytes


def test_midpoint_h_matches_box_form():
    # curl e and the rate on the body faces only: the predicted body h is
    # bit-identical to the form that embeds the rate into the whole box
    geom = build_geometry(GeometryConfig(1.0, 1.0, 0.6, 0.4, 6, 5, 3, 2))
    box = mx.make_box(geom, padding=3)
    em = mx.empty_em_state(box)
    rng = np.random.default_rng(40)
    for a in (em.ex, em.ey, em.ez, em.hx, em.hy, em.hz):
        a[...] = rng.standard_normal(a.shape)
    params = plain_params(a_exch=0.0, mu0=1.7)
    dt = 3e-3
    m_dot = rng.standard_normal(geom.field_shape())
    want = box_midpoint_h_cells(em, m_dot, dt, params.mu0)
    for _ in range(2):   # the second call reuses the workspace buffers
        got = mx._midpoint_h_cells(em, m_dot, dt, params)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _row_views(state):
    """The ledger row's views of the slot of the state's m, as `run` takes them."""
    work = state.workspace()
    return work.row[state.m is work.m[1]]


def _view_inputs(constraint, bc_mode, penalty_k, integrator, field, bc=mx.PEC):
    """The inputs of a small run of the given kind: the geometry, the
    parameters, the scheme, m0, em (its h the divergence-free field of
    m0, its outer wall bc) with field "em", the current that goes with
    em, and with field "h_fixed" that h on the cells."""
    # dy = 0.15 is no power of two: the drift divides along y, and along x
    # and z multiplies by the exact reciprocal
    geom = layer_geom(build_geometry(GeometryConfig(1.0, 0.6, 0.5, 0.5, 4, 4, 4, 4,
                                                    eta=0.25)), bc_mode)
    params = plain_params(a_exch=0.01, k_matrix=np.diag([0.05, 0.02, 0.0]), ks=0.01,
                          j1=0.01, j2=0.01, sigma=2.0, penalty_k=penalty_k)
    scheme = SchemeConfig(dt=1e-3, subcycles=2, integrator=integrator,
                          constraint=constraint, bc_mode=bc_mode)
    box = mx.make_box(geom, padding=2)
    em = mx.empty_em_state(box, bc=bc)
    m0 = random_unit_field(geom, seed=70)
    mx.init_divfree(m0, (0.1, 0.0, -0.2), box, out=em.h)
    if field != "em":
        return (geom, params, scheme, m0, None, None,
                mx.interp_h_to_cells(em) if field == "h_fixed" else None)
    f = mx.AppliedCurrent((0.5, 0.2, 0.0), t0=2e-3, width=1e-3)
    return geom, params, scheme, m0, em, f, None


def plain_drift(em, m, m0, h0):
    """max |div(h + m_bar) - its initial value| from whole face arrays."""
    return float(np.abs(box_divergence(em.h, m, em.box) - box_divergence(h0, m0, em.box)).max())


def _grid_points():
    """Every combination of constraint, bc_mode, penalty_k, integrator and
    field that `_view_inputs` takes, em under both outer walls (Mur1's
    planes run lines of their own): 64 points.  Traced with sys.settrace,
    a step and a row of them run 16 distinct sets of package lines today
    (bc_mode and none against h_fixed change no set), but a rework of the
    step may split any of those sets, so the property tests run them all."""
    points = []
    for constraint in CONSTRAINTS:
        for bc_mode in BC_MODES:
            for penalty_k in (0.0, 10.0):
                for integrator in dynamics.INTEGRATORS:
                    name = f"{constraint}-{bc_mode}-k{penalty_k:g}-{integrator}"
                    points += [pytest.param(constraint, bc_mode, penalty_k, integrator,
                                            field, bc, id=f"{name}-{field}{suffix}")
                               for field, bc, suffix in (("em", mx.PEC, "-pec"),
                                                         ("em", mx.MUR1, "-mur1"),
                                                         ("none", mx.PEC, ""),
                                                         ("h_fixed", mx.PEC, ""))]
    return points


GRID_POINTS = _grid_points()
POINT_ARGS = "constraint, bc_mode, penalty_k, integrator, field, bc"


@pytest.mark.parametrize(POINT_ARGS, GRID_POINTS)
def test_steps_and_rows_allocate_no_views(constraint, bc_mode, penalty_k, integrator,
                                          field, bc):
    # a state's workspaces build the views of its stages, rows, predictor
    # and substeps for both slots when the state is made, so a run's first
    # steps and rows, and those after an m is assigned, allocate only
    # numpy's iterator buffers and small bookkeeping: 1.6 KB without a
    # field and 4.7 (PEC) to 5.8 KB (Mur1) with em on this 4x4x(4+4) grid,
    # whose m is 3 KB.  Views built per call raise the peak: the stage's
    # to 11.3 KB or more, the substep's curls to 9.9 KB
    point = (constraint, bc_mode, penalty_k, integrator, field, bc)
    geom, params, scheme, m0, em, f, h_fixed = _view_inputs(*point)
    # numpy fills its ufunc caches on a process's first steps and rows
    run(geom, params, scheme, m0, em, f, 2 * scheme.dt, on_row=lambda row: None,
        h_fixed=h_fixed)
    geom, params, scheme, m0, em, f, h_fixed = _view_inputs(*point)
    assigned = random_unit_field(geom, seed=71)
    peaks = []

    def trace(state, n):   # steps and rows 1 to 4, m assigned after step 2
        if n == 0:
            tracemalloc.start()
        elif n == 2:
            state.m = assigned
        elif n == 4:
            peaks.append(tracemalloc.get_traced_memory()[1])
    try:
        run(geom, params, scheme, m0, em, f, 4 * scheme.dt, on_row=lambda row: None,
            on_state=trace, h_fixed=h_fixed)
    finally:
        tracemalloc.stop()
    assert peaks[0] < 7 * 1024, peaks


# the builders of the views a step, a row and a substep run on (the
# composite ones build theirs with the others)
VIEW_BUILDERS = ("_vector_field", "_scalars", "_parts", "_empty_like", "_face_views",
                 "_flux_views", "_h_tot_views", "_rhs_views", "_energy_views", "_div_views",
                 "_curl_views", "_flat_span", "_off_axis", "_wall_planes", "_mur_planes",
                 "_body_faces", "_body_edge_slabs", "_body_face_slabs")


@pytest.mark.parametrize(POINT_ARGS, [
    pytest.param("projected", "thin_layer", 10.0, "rk4", "em", mx.MUR1,
                 id="projected-thin_layer-k10-rk4-em-mur1"),
    pytest.param("penalized", "sharp", 0.0, "heun", "none", mx.PEC,
                 id="penalized-sharp-k0-heun-none")])
def test_steps_and_rows_call_no_view_builder(constraint, bc_mode, penalty_k,
                                             integrator, field, bc, monkeypatch):
    # the one test that names the view builders: views of a few hundred
    # bytes built per call (the stage-begin h's three body-face views)
    # raise no peak that test_steps_and_rows_allocate_no_views could see.
    # The two points run every line that a point of GRID_POINTS runs
    geom, params, scheme, m0, em, f, h_fixed = _view_inputs(
        constraint, bc_mode, penalty_k, integrator, field, bc)
    assigned = random_unit_field(geom, seed=71)

    def forbidden(*args, **kwargs):
        raise AssertionError("a step or row built a view")

    def forbid(state, n):   # from the first step on, and after m is assigned
        if n == 2:
            state.m = assigned
        elif n == 0:
            for name in VIEW_BUILDERS:
                homes = [module for module in
                         (energetics, effective_field, dynamics, diagnostics, mx)
                         if hasattr(module, name)]
                assert homes, f"{name} is gone: the test would not see it called"
                for module in homes:
                    monkeypatch.setattr(module, name, forbidden)
            monkeypatch.setattr(DomainGeometry, "layer_slice", forbidden)

    final = run(geom, params, scheme, m0, em, f, 4 * scheme.dt, on_row=lambda row: None,
                on_state=forbid, h_fixed=h_fixed).final_state
    assert final.n == 4


@pytest.mark.parametrize(POINT_ARGS, GRID_POINTS)
def test_workspace_views_keep_the_bits_of_the_per_call_path(constraint, bc_mode, penalty_k,
                                                            integrator, field, bc):
    # a run's rows (every energy, the saturation deviation) have the bits
    # of the same terms formed per call of the state's m, and so do
    # llg_rhs and assemble_h_tot on the stepped state's stage views
    geom, params, scheme, m0, em, f, h_fixed = _view_inputs(
        constraint, bc_mode, penalty_k, integrator, field, bc)
    rows, checked = [], []

    def check(state, n):
        m, h, row = state.m, state.h_cells(), rows[-1]
        work = state.workspace()
        i = int(m is work.m[1])   # the slot of the state's m
        rate = llg_rhs(m, h, geom, params, scheme, out=work.k[i], tmp=work.rhs[i])
        assert rate.tobytes() == llg_rhs(m, h, geom, params, scheme).tobytes()
        h_tot, h_tot_views = work.rhs[i][:2]
        h_tot = assemble_h_tot(m, h, geom, params, out=h_tot, tmp=h_tot_views)
        assert h_tot.tobytes() == assemble_h_tot(m, h, geom, params).tobytes()
        assert row.breakdown.as_tuple() == total_energy(m, em, geom, params).as_tuple()
        assert row.saturation_dev.hex() == diagnostics.saturation_deviation(m).hex()
        checked.append(n)

    run(geom, params, scheme, m0, em, f, 2 * scheme.dt, on_row=rows.append,
        on_state=check, h_fixed=h_fixed)
    assert checked == [0, 1, 2]


@pytest.mark.parametrize(POINT_ARGS, GRID_POINTS)
def test_row_drift_is_the_whole_array_drift(constraint, bc_mode, penalty_k, integrator,
                                            field, bc):
    # a run's rows read the drift of div(h + m_bar) formed on whole face
    # arrays (0.0 without em), and so does divergence_drift where h holds
    # +-0.0, on and off the faces m_bar reaches
    geom, params, scheme, m0, em, f, h_fixed = _view_inputs(
        constraint, bc_mode, penalty_k, integrator, field, bc)
    h0 = None if em is None else em.h.copy()
    rows, checked = [], []

    def check(state, n):
        drift = 0.0 if em is None else plain_drift(em, state.m, m0, h0)
        assert rows[-1].divergence_drift == drift
        checked.append(n)

    final = run(geom, params, scheme, m0, em, f, 2 * scheme.dt, on_row=rows.append,
                on_state=check, h_fixed=h_fixed).final_state
    assert checked == [0, 1, 2]
    if em is None:
        return
    em.hx = np.where(np.arange(em.hx.shape[2]) % 2 == 0, -0.0, 0.0)
    em.hz[em.box.ox:em.box.ox + 2] = -0.0
    assert mx.divergence_drift(em, final.m) == plain_drift(em, final.m, m0, h0)


@pytest.mark.parametrize(POINT_ARGS, GRID_POINTS)
def test_state_never_writes_a_callers_m(constraint, bc_mode, penalty_k, integrator,
                                        field, bc):
    # the workspace copies the array handed in, one assigned before the
    # first step and one assigned to a stepped state into its m buffer of
    # slot 0, and never writes any of them
    point = (constraint, bc_mode, penalty_k, integrator, field, bc)
    geom = _view_inputs(*point)[0]
    handed, assigned, later = (random_unit_field(geom, seed=s) for s in (14, 15, 16))
    kept = handed.copy(), assigned.copy(), later.copy()

    def new_state():
        geom, params, scheme, _, em, _, h_fixed = _view_inputs(*point)
        return SimState(t=0.0, m=handed, em=em, geom=geom, params=params, scheme=scheme,
                        h_fixed=h_fixed)
    state = new_state()
    assert state.m is not handed
    state.m = assigned
    seen = set()
    for n in range(6):
        if n == 4:
            state.m = later
        step(state)
        seen.add(id(state.m))
    assert all(np.array_equal(a, b) for a, b in zip((handed, assigned, later), kept))
    assert not {id(handed), id(assigned), id(later)} & seen and len(seen) == 2
    # with its own copy still in place, the state steps in it
    state = new_state()
    own = state.m
    step(state)
    step(state)
    assert state.m is own and np.array_equal(handed, kept[0])


@pytest.mark.parametrize("bc", mx.BOUNDARIES)
@pytest.mark.parametrize("body, component", [((0.6, 0.4, 6, 5, 3, 2), 11 * 10 * 10),
                                             ((0.5, 0.5, 6, 6, 3, 3), 11 ** 3)],
                         ids=["even_component", "odd_component"])
def test_warm_coupled_step_writes_into_aligned_buffers(bc, body, component, monkeypatch):
    # every buffer a coupled step writes with out= starts on a 64-byte
    # boundary, also on a box whose odd store component leaves the second
    # component of each store off it
    geom = build_geometry(GeometryConfig(1.0, 1.0, *body))
    params = plain_params(a_exch=0.01, sigma=2.0)
    box = mx.make_box(geom, padding=2)
    em = mx.empty_em_state(box, bc=bc)
    assert em.e[0].size == component
    m0 = random_unit_field(geom, seed=43)
    mx.init_divfree(m0, (0.0, 0.0, 0.0), box, out=em.h)
    state = SimState(t=0.0, m=m0, em=em, geom=geom, params=params,
                     scheme=SchemeConfig(dt=1e-3, subcycles=2))
    f = mx.AppliedCurrent((0.5, 0.2, 0.0), t0=2e-3, width=1e-3)
    step(state, f)

    written, stages = [], []

    def recording_llg_rhs(*args, out=None, tmp=None):
        written.extend((out, tmp[0]))   # the stage's views: h_tot first, in the scratch
        stages.append(tmp)
        return llg_rhs(*args, out=out, tmp=tmp)

    monkeypatch.setattr(dynamics, "llg_rhs", recording_llg_rhs)
    step(state, f)
    assert len(written) == 8   # Heun, with the predictor's two stages
    work, mwork = state.workspace(), em.workspace()
    assert all(any(t is v for v in work.rhs) for t in stages)
    written += [em.e, em.h, state.m, *work.k, *work.m, work.tmp,
                mwork.scratch, mwork.tmp, *mwork.e_new, *mwork.e_mid,
                *mwork.rate_faces, *mwork.body_faces, mwork.body_cells]
    if bc == mx.MUR1:
        written += [buf for _, _, _, old, inner_old in mwork.mur
                    for buf in (old, inner_old)]
    for views in (mwork.curl_h_views, mwork.curl_e_views, mwork.body_curl_e_views):
        written += [term[i] for term in views for i in (4, 5)]   # o and t
    assert [a.ctypes.data % 64 for a in written] == [0] * len(written)


# Symmetries of the square box, as maps of an axial cell field (m and h):
# the cells move with the map and the components turn with it, reversed by
# a reflection's determinant.
def _mirror_x(v):
    out = v[::-1].copy()   # x -> -x; an axial vector keeps vx, flips vy, vz
    out[..., 1:] *= -1.0
    return out


def _rotate_z(v):
    out = np.rot90(v, 1, axes=(0, 1)).copy()   # (x, y) -> (-y, x)
    out[..., 0], out[..., 1] = -out[..., 1], out[..., 0].copy()
    return out


def _coupled_final_m(geom, m0, bc):
    """The final m of a tiny coupled run from m0, its initial h the
    magnetostatic field of m0."""
    params = plain_params(a_exch=0.01, k_matrix=np.diag([0.05, 0.05, 0.0]), ks=0.02,
                          j1=0.03, j2=0.01, alpha=0.3, sigma=10.0)
    em = mx.empty_em_state(mx.make_box(geom, padding=2), bc=bc)
    mx.init_divfree(m0, (0.0, 0.0, 0.0), em.box, out=em.h)
    scheme = SchemeConfig(dt=0.002, subcycles=4)
    return run(geom, params, scheme, m0, em, None, t_end=1.0).final_state.m


@pytest.mark.parametrize("bc", mx.BOUNDARIES)
@pytest.mark.parametrize("symmetry", [_mirror_x, _rotate_z], ids=["mirror_x", "rotate_z"])
def test_coupled_step_commutes_with_the_box_symmetries(bc, symmetry):
    # the run of the mapped m0 is the map of the run, until long after the
    # fields have reached the walls (0.5 away at speed 1)
    geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 2, 2))
    m0 = presets.random_unit_m(geom, 5, 1.0)
    final = _coupled_final_m(geom, m0, bc)
    want = symmetry(final)
    assert np.abs(want - final).max() > 0.1   # the map moves the run's m
    assert np.abs(_coupled_final_m(geom, symmetry(m0), bc) - want).max() <= 1e-13


# linear spin waves of the bilayer (Probe K): about m = e_z, with
# K = diag(k, k, 0), the spacer layer and h = h e_z, h_tot(e_z) = h e_z and
# psi = m_x + i m_y obeys psi_t = (i - alpha)(L + h) psi.  L is built by
# hand from the energies, not from the code's fields
WAVE_GEOM = GeometryConfig(1.0, 0.6, 0.5, 0.5, 4, 3, 4, 4)     # dx 0.25, dy 0.2, dz 0.125
WAVE = dict(a_exch=0.05, ks=0.5, j1=0.5, j2=0.25)
WAVE_K, WAVE_ALPHA, WAVE_EPS, WAVE_T = 2.0, 0.2, 1e-4, 0.8


def spin_wave_operator(geom, kx, ky, a_exch, ks, j1, j2, k=WAVE_K, layer_cells=1):
    """L on the z-columns of the lateral DCT-II mode (kx, ky): exchange
    per mode A (2 - 2 cos(pi kx / nx)) / dx^2, the same in y, and k on
    the diagonal; the Neumann second difference A / dz^2 inside each slab,
    with no bond across the spacer.  The surface energies act on the
    `layer_cells` cells on each side of the spacer (eta = layer_cells dz;
    the sharp layer is one cell) at weight dV / (2 eta) per cell, each
    cell paired with its mirror across the spacer: Ks / eta on each of
    them and a (J1 + 2 J2) / eta bond between mirror cells (J2's sin^2
    of the angle is quadratic in the deviation)."""
    nz, s = geom.nz_total, geom.spacer_index
    eta = layer_cells * geom.dz
    bond = np.array([[1.0, -1.0], [-1.0, 1.0]])
    lateral = (a_exch * (2.0 - 2.0 * math.cos(math.pi * kx / geom.nx)) / geom.dx**2
               + a_exch * (2.0 - 2.0 * math.cos(math.pi * ky / geom.ny)) / geom.dy**2 + k)
    L = np.diag(np.full(nz, lateral))
    for lo, hi in ((0, s), (s, nz)):
        for i in range(lo, hi - 1):
            L[i:i + 2, i:i + 2] += a_exch / geom.dz**2 * bond
    for below, above in zip(range(s - 1, s - 1 - layer_cells, -1), range(s, s + layer_cells)):
        L[below, below] += ks / eta
        L[above, above] += ks / eta
        pair = np.ix_((below, above), (below, above))
        L[pair] += (j1 + 2.0 * j2) / eta * bond
    return L


def spin_wave_amplitude(kx, ky, z_mode, dt, h, layer_cells=None):
    """(amplitude a of the mode at WAVE_T, its rate lambda + h, the
    largest deviation of psi from a times the mode), stepping
    m0 = normalize(e_z + WAVE_EPS * mode e_x) in h e_z by Heun, projected,
    on the sharp layer, or on a thin layer of `layer_cells` cells."""
    if layer_cells is None:
        geom, scheme = build_geometry(WAVE_GEOM), SchemeConfig(dt=dt)
    else:
        geom = build_geometry(dataclasses.replace(WAVE_GEOM, eta=layer_cells * 0.125))
        assert geom.layer_cells == layer_cells
        scheme = SchemeConfig(dt=dt, bc_mode="thin_layer")
    lam, vectors = np.linalg.eigh(spin_wave_operator(geom, kx, ky, **WAVE,
                                                     layer_cells=layer_cells or 1))
    mode = (np.cos(math.pi * kx * (np.arange(geom.nx) + 0.5) / geom.nx)[:, None, None]
            * np.cos(math.pi * ky * (np.arange(geom.ny) + 0.5) / geom.ny)[None, :, None]
            * vectors[:, z_mode])
    m0 = np.zeros(geom.field_shape())
    m0[..., 0] = WAVE_EPS * mode
    m0[..., 2] = 1.0
    m0 /= np.linalg.norm(m0, axis=-1, keepdims=True)
    h_fixed = np.zeros(geom.field_shape())
    h_fixed[..., 2] = h
    params = plain_params(k_matrix=np.diag([WAVE_K, WAVE_K, 0.0]), alpha=WAVE_ALPHA, **WAVE)
    m = run(geom, params, scheme, m0, None, None, WAVE_T, h_fixed=h_fixed).final_state.m
    psi = m[..., 0] + 1j * m[..., 1]
    a = np.sum(psi * mode) / np.sum(mode * mode)
    return a, lam[z_mode] + h, np.abs(psi - a * mode).max()


@pytest.mark.parametrize("kx, ky, z_mode, h, layer_cells", [
    (1, 1, 0, 0.0, None),     # a lateral mode, lowest in z
    (0, 0, 1, 0.0, None),     # the spacer-split partner of the uniform mode
    (1, 1, 0, 1.5, None),     # h e_z shifts every rate by h
    (1, 1, 0, 0.0, 2),        # the same two modes on a thin layer, eta = 2 dz
    (0, 0, 1, 0.0, 2),
], ids=["lateral", "spacer_split", "h_fixed", "thin_lateral", "thin_spacer_split"])
def test_linear_spin_wave_turns_and_decays_at_its_eigenvalue(kx, ky, z_mode, h,
                                                             layer_cells):
    # amplitude exp(-alpha lambda t) and phase lambda t of eps exp((i -
    # alpha) lambda t), to the Heun error, which falls at order 2 (the
    # O(eps^2) nonlinearity is far below it)
    errors = []
    for dt in (0.004, 0.002):
        a, rate, off_mode = spin_wave_amplitude(kx, ky, z_mode, dt, h, layer_cells)
        assert abs(abs(a) / WAVE_EPS - math.exp(-WAVE_ALPHA * rate * WAVE_T)) < 1e-3
        assert abs(np.angle(a * np.exp(-1j * rate * WAVE_T))) < 1e-3
        assert off_mode < 1e-9 * WAVE_EPS
        errors.append(abs(a / WAVE_EPS - np.exp((1j - WAVE_ALPHA) * rate * WAVE_T)))
    assert math.log2(errors[0] / errors[1]) >= 1.9, errors


@pytest.mark.parametrize("integrator", ["heun", "rk4"])
def test_coupled_step_converges_at_second_order_in_dt(integrator):
    # the coupled step, its Maxwell half included, at order 2 in dt with
    # the subcycle count fixed, RK4 as well as Heun (the predicted midpoint
    # h that both freeze couples at second order): the end states of dt0,
    # dt0/2, dt0/4 and dt0/8 (dt0 half the exchange bound) over T = 64 dt0,
    # their successive differences and the order of the finest pair, for m
    # and for the h store
    geom = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 6, 6, 3, 3))
    params = plain_params(a_exch=0.01, k_matrix=np.diag([0.05, 0.05, 0.0]), ks=0.02,
                          j1=0.03, j2=0.01, alpha=0.3, sigma=10.0)
    m0 = presets.random_unit_m(geom, 3)
    box = mx.make_box(geom, padding=4)
    dt0 = 0.5 * exchange_dt_bound(geom, params)
    ends = []
    for k in range(4):
        em = mx.empty_em_state(box)
        mx.init_divfree(m0, (0.0, 0.0, 0.0), box, out=em.h)
        scheme = SchemeConfig(dt=dt0 / 2**k, subcycles=2, integrator=integrator)
        final = run(geom, params, scheme, m0, em, None,
                    64 * dt0, log_every=1 << 30).final_state
        ends.append((final.m, final.em.h))
    for field in (0, 1):
        diffs = [np.abs(a[field] - b[field]).max() for a, b in zip(ends, ends[1:])]
        assert math.log2(diffs[1] / diffs[2]) >= 1.9, diffs
