import math

import numpy as np
import pytest

from spinlayer.effective_field import thin_layer_field
from spinlayer.energetics import apply_k, layer_cells
from spinlayer.geometry import GeometryConfig, build_geometry


@pytest.fixture
def small_geom():
    """4x4x(3+3) box with a thin layer two cells deep."""
    return build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 3, 3,
                                         eta=2 * 0.5 / 3))


@pytest.fixture
def flat_geom():
    """8x8x(4+4) grid matching the acceptance desk scale."""
    return build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 8, 8, 4, 4,
                                         eta=0.25))


def random_unit_field(geom, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal(geom.field_shape())
    return m / np.linalg.norm(m, axis=-1, keepdims=True)


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


def face_stationary_form(m, h_cells, params, geom, phi_cells, bc_mode="sharp"):
    """The stationary form written as a face sum, the reference for
    `diagnostics.stationarity_form` and the weak form's right-hand side.

    A dV sum over the interior faces off the spacer of
    (m_f x D_f m) . D_f phi, with m_f the face midpoint and D_f the
    difference quotient across the face, minus
    dV sum (m x (h + h_surf - K m)) . phi with h_surf the surface field of
    bc_mode.  The penalty field is parallel to m and pairs to zero.
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
    h = thin_layer_field(m, geom, params, cells=layer_cells(geom, bc_mode),
                         out=h_cells.copy())
    if params.k_matrix is not None:
        h -= apply_k(params, m)
    torque = np.cross(m, h)
    return params.a_exch * dV * exchange - dV * math.fsum((torque * phi_cells).ravel())
