"""Named initial magnetization presets.

Every preset returns a component-major field (`energetics._vector_field`),
the layout `dynamics.run` steps.
"""

import numpy as np
from numpy.random import default_rng

from .energetics import _vector_field
from .geometry import DomainGeometry

# z component of the vortex core, as a fraction of the shorter base side
VORTEX_CORE = 0.25


def uniform_m(vec, geom: DomainGeometry) -> np.ndarray:
    m = _vector_field(geom.field_shape())
    m[...] = np.asarray(vec, dtype=float)
    return m


def vortexish_m(geom: DomainGeometry) -> np.ndarray:
    """In-plane circulation around the column axis with a soft z core."""
    x = (np.arange(geom.nx) + 0.5) * geom.dx - 0.5 * geom.base_lx
    y = (np.arange(geom.ny) + 0.5) * geom.dy - 0.5 * geom.base_ly
    X, Y = np.meshgrid(x, y, indexing="ij")
    r_core = VORTEX_CORE * min(geom.base_lx, geom.base_ly)
    m = _vector_field(geom.field_shape())
    m[..., 0] = -Y[:, :, None]
    m[..., 1] = X[:, :, None]
    m[..., 2] = r_core
    return np.divide(m, np.linalg.norm(m, axis=-1, keepdims=True), out=m)


def _gaussian_nearest(a: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian filter of the 3-D array a with edge-replicating ("nearest")
    boundaries, truncated at 4 sigma: the bits of
    scipy.ndimage.gaussian_filter(a, sigma, mode="nearest").

    The axes are filtered in order 0, 1, 2 with the normalised sampled
    Gaussian w over the radius r = int(4 sigma + 0.5).  Each output is
    x[0] w[r] plus (x[-j] + x[+j]) w[r-j] for j = r ... 1, outermost pair
    first.  Each pass works on an edge-padded copy with the filtered axis
    leading, so every operand is one contiguous block; the padded copy,
    the output and the pair term are three buffers all passes share.
    """
    r = int(4.0 * sigma + 0.5)
    if r == 0:
        return a   # the one weight is 1.0
    k = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * k ** 2)
    w = w / w.sum()
    size = a.size
    pad = np.empty(size + 2 * r * max(size // n for n in a.shape))
    out, term = np.empty(size), np.empty(size)
    for axis in range(3):
        src = np.moveaxis(a, axis, 0)
        n = src.shape[0]
        p = pad[:(n + 2 * r) * (size // n)].reshape((n + 2 * r,) + src.shape[1:])
        p[:r] = src[0]
        p[r:r + n] = src
        p[r + n:] = src[-1]
        # the previous pass's output is copied into p, so out is free
        o, t = out.reshape(src.shape), term.reshape(src.shape)
        np.multiply(p[r:r + n], w[r], out=o)
        for j in range(r, 0, -1):
            np.add(p[r - j:r - j + n], p[r + j:r + j + n], out=t)
            t *= w[r - j]
            o += t
        a = np.moveaxis(o, 0, axis)
    return a


def random_unit_m(geom: DomainGeometry, seed: int, smooth_cells: float = 1.5) -> np.ndarray:
    """Seeded random unit field, low-pass filtered over a few cells.

    smooth_cells=0 gives white per-cell directions; the default smoothing
    keeps the exchange energy of the draw grid-resolved.
    """
    m = _vector_field(geom.field_shape())
    draw = default_rng(seed).standard_normal(m.shape)
    if smooth_cells > 0:
        for c in range(3):
            m[..., c] = _gaussian_nearest(draw[..., c], smooth_cells)
    else:
        np.copyto(m, draw)
    norms = np.linalg.norm(m, axis=-1, keepdims=True)
    # a filtered draw can only hit zero norm with probability zero; guard anyway
    tiny = norms < 1e-12
    if np.any(tiny):
        m[tiny[..., 0]] = (0.0, 0.0, 1.0)
        norms = np.linalg.norm(m, axis=-1, keepdims=True)
    return np.divide(m, norms, out=m)
