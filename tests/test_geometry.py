import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlayer.errors import EtaTooLarge, NonTilingGrid
from spinlayer.geometry import GeometryConfig, _is_multiple, build_geometry

from conftest import random_unit_field


class TestBuildGeometry:
    def test_basic_tiling(self):
        g = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 8, 8, 4, 4))
        assert g.dz == pytest.approx(0.125)
        assert g.spacer_index == 4
        assert g.nz_total == 8
        # exact cell tiling of both slabs
        assert g.nz_minus * g.dz == pytest.approx(g.l_minus)
        assert g.nz_plus * g.dz == pytest.approx(g.l_plus)

    def test_eta_cells(self):
        g = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 8, 8, 4, 4, eta=0.25))
        assert g.layer_cells == 2
        assert g.layer_cells * g.dz == pytest.approx(g.eta)
        # without eta the layer is the sharp one, one cell deep
        sharp = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 8, 8, 4, 4))
        assert sharp.layer_cells == 1

    def test_eta_not_multiple_rejected(self):
        with pytest.raises((NonTilingGrid, EtaTooLarge)):
            build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 8, 8, 4, 4, eta=0.3))

    def test_eta_too_large(self):
        with pytest.raises(EtaTooLarge):
            build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 8, 8, 4, 4, eta=0.75))

    def test_mismatched_slab_spacing_rejected(self):
        with pytest.raises(NonTilingGrid):
            build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.4, 8, 8, 4, 4))

    def test_nonpositive_extent_rejected(self):
        with pytest.raises(NonTilingGrid):
            build_geometry(GeometryConfig(0.0, 1.0, 0.5, 0.5, 8, 8, 4, 4))

    @pytest.mark.parametrize("name", ["base_lx", "base_ly", "l_minus", "l_plus", "eta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_extent_rejected_naming_it(self, name, value):
        config = GeometryConfig(1.0, 1.0, 0.5, 0.5, 8, 8, 4, 4, eta=0.25)
        with pytest.raises(NonTilingGrid, match=f"^{name} must be positive and finite"):
            build_geometry(dataclasses.replace(config, **{name: value}))

    @pytest.mark.parametrize("name", ["nx", "ny", "nz_minus", "nz_plus"])
    def test_count_below_one_rejected_naming_it(self, name):
        config = GeometryConfig(1.0, 1.0, 0.5, 0.5, 8, 8, 4, 4)
        with pytest.raises(NonTilingGrid, match=f"^{name} must be at least 1"):
            build_geometry(dataclasses.replace(config, **{name: 0}))

    @pytest.mark.parametrize("order", [0, 2])
    def test_trace_order_other_than_one_rejected(self, order):
        with pytest.raises(NonTilingGrid):
            build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 4, 4, 2, 2,
                                          trace_order=order))

    def test_spacer_is_a_face(self):
        g = build_geometry(GeometryConfig(1.0, 1.0, 0.6, 0.4, 4, 4, 3, 2))
        z = g.z_centers()
        assert np.all(z[: g.nz_minus] < 0)
        assert np.all(z[g.nz_minus:] > 0)
        # no cell center sits on the spacer plane
        assert np.abs(z).min() == pytest.approx(g.dz / 2)


class TestTraces:
    """The spacer traces are the two cells of the sharp one-cell layer:
    its layer_slice(), lower plane first."""

    def test_uniform(self, small_sharp_geom):
        m = np.zeros(small_sharp_geom.field_shape())
        m[..., 2] = 1.0
        layer = m[:, :, small_sharp_geom.layer_slice()]
        assert layer.shape == (small_sharp_geom.nx, small_sharp_geom.ny, 2, 3)
        assert np.allclose(layer, [0, 0, 1])

    def test_sign_split(self, small_sharp_geom):
        m = np.zeros(small_sharp_geom.field_shape())
        s = small_sharp_geom.spacer_index
        m[:, :, s:, 0] = 1.0
        m[:, :, :s, 0] = -1.0
        layer = m[:, :, small_sharp_geom.layer_slice()]
        assert np.allclose(layer[:, :, 1, 0], 1.0)
        assert np.allclose(layer[:, :, 0, 0], -1.0)

    def test_against_direct_indexing(self, small_sharp_geom):
        m = random_unit_field(small_sharp_geom, seed=11)
        layer = m[:, :, small_sharp_geom.layer_slice()]
        s = small_sharp_geom.spacer_index
        for i in range(small_sharp_geom.nx):
            for j in range(small_sharp_geom.ny):
                assert np.array_equal(layer[i, j, 1], m[i, j, s])
                assert np.array_equal(layer[i, j, 0], m[i, j, s - 1])


@settings(max_examples=25, deadline=None)
@given(nzm=st.integers(1, 6), nzp=st.integers(1, 6), ec=st.integers(0, 6))
def test_eta_layer_fits_or_raises(nzm, nzp, ec):
    dz = 0.1
    eta = ec * dz if ec else None
    cfg = GeometryConfig(1.0, 1.0, nzm * dz, nzp * dz, 2, 2, nzm, nzp, eta=eta)
    if eta is not None and ec > min(nzm, nzp):
        with pytest.raises(EtaTooLarge):
            build_geometry(cfg)
    else:
        g = build_geometry(cfg)
        assert g.layer_cells == (ec if eta is not None else 1)
        sl = g.layer_slice()
        assert sl.stop - sl.start == 2 * g.layer_cells


@pytest.mark.parametrize("dt", [0.002, 1e-3, 0.012, 0.0244140625, 3e-5, 0.1])
def test_whole_step_counts_up_to_1e9_are_multiples(dt):
    # k * dt over dt lands within about 1.2e-7 of k for every k up to 1e9,
    # inside the absolute bound of 1e-6 steps; a count halfway between two
    # whole ones is not a multiple at any size, where the relative bound
    # alone (1e-9 of the count) passed it beyond 5e8 steps
    for k in (1, 7, 10**6, 10**9):
        assert _is_multiple(k * dt, dt), k
        assert not _is_multiple((k + 0.5) * dt, dt), k


def test_small_counts_keep_the_relative_bound():
    # the eta rule (eta / dz) and short runs keep the relative 1e-9
    assert _is_multiple(0.25 * (1 + 1e-10), 0.125)
    assert not _is_multiple(0.25 * (1 + 1e-8), 0.125)
    g = build_geometry(GeometryConfig(1.0, 1.0, 0.5, 0.5, 8, 8, 4, 4, eta=0.25 * (1 + 1e-10)))
    assert g.layer_cells == 2

