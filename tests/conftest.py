import math

import numpy as np
import pytest

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
