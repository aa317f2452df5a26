"""Named initial magnetization presets.

Every preset returns a component-major field (`energetics._vector_field`),
the layout `dynamics.run` steps.
"""

import numpy as np
from scipy.ndimage import gaussian_filter

from .energetics import _vector_field
from .geometry import DomainGeometry


def uniform_m(vec, geom: DomainGeometry) -> np.ndarray:
    m = _vector_field(geom.field_shape())
    m[...] = np.asarray(vec, dtype=float)
    return m


def vortexish_m(geom: DomainGeometry, core: float = 0.25) -> np.ndarray:
    """In-plane circulation around the column axis with a soft z core."""
    x = (np.arange(geom.nx) + 0.5) * geom.dx - 0.5 * geom.base_lx
    y = (np.arange(geom.ny) + 0.5) * geom.dy - 0.5 * geom.base_ly
    X, Y = np.meshgrid(x, y, indexing="ij")
    r_core = core * min(geom.base_lx, geom.base_ly)
    m = _vector_field(geom.field_shape())
    m[..., 0] = -Y[:, :, None]
    m[..., 1] = X[:, :, None]
    m[..., 2] = r_core
    return np.divide(m, np.linalg.norm(m, axis=-1, keepdims=True), out=m)


def random_unit_m(geom: DomainGeometry, seed: int, smooth_cells: float = 1.5) -> np.ndarray:
    """Seeded random unit field, low-pass filtered over a few cells.

    smooth_cells=0 gives white per-cell directions; the default smoothing
    keeps the exchange energy of the draw grid-resolved.
    """
    rng = np.random.default_rng(seed)
    m = _vector_field(geom.field_shape())
    np.copyto(m, rng.standard_normal(m.shape))
    if smooth_cells > 0:
        for c in range(3):
            m[..., c] = gaussian_filter(m[..., c], sigma=smooth_cells, mode="nearest")
    norms = np.linalg.norm(m, axis=-1, keepdims=True)
    # a filtered draw can only hit zero norm with probability zero; guard anyway
    tiny = norms < 1e-12
    if np.any(tiny):
        m[tiny[..., 0]] = (0.0, 0.0, 1.0)
        norms = np.linalg.norm(m, axis=-1, keepdims=True)
    return np.divide(m, norms, out=m)
