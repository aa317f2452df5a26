import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlayer.errors import EtaTooLarge, NonTilingGrid
from spinlayer.geometry import GeometryConfig, build_geometry

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
        assert g.eta_cells == 2
        assert g.eta_cells * g.dz == pytest.approx(g.eta)

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
    """The spacer traces are the two cells of the one-cell layer that
    sharp mode uses: layer_slice(1), lower plane first."""

    def test_uniform(self, small_geom):
        m = np.zeros(small_geom.field_shape())
        m[..., 2] = 1.0
        layer = m[:, :, small_geom.layer_slice(1)]
        assert layer.shape == (small_geom.nx, small_geom.ny, 2, 3)
        assert np.allclose(layer, [0, 0, 1])

    def test_sign_split(self, small_geom):
        m = np.zeros(small_geom.field_shape())
        s = small_geom.spacer_index
        m[:, :, s:, 0] = 1.0
        m[:, :, :s, 0] = -1.0
        layer = m[:, :, small_geom.layer_slice(1)]
        assert np.allclose(layer[:, :, 1, 0], 1.0)
        assert np.allclose(layer[:, :, 0, 0], -1.0)

    def test_against_direct_indexing(self, small_geom):
        m = random_unit_field(small_geom, seed=11)
        layer = m[:, :, small_geom.layer_slice(1)]
        s = small_geom.spacer_index
        for i in range(small_geom.nx):
            for j in range(small_geom.ny):
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
        assert g.eta_cells == (ec if eta is not None else 0)
        if g.eta_cells >= 1:
            sl = g.layer_slice()
            assert sl.stop - sl.start == 2 * ec
