"""Named initial magnetization presets.

Every preset returns a component-major field (`energetics._vector_field`),
the layout `dynamics.run` steps.
"""

import math

import numpy as np
from numpy.random import default_rng

from .energetics import _components, _dot, _scalars, _vector_field
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


def _gaussian_nearest(m: np.ndarray, sigma: float, work: np.ndarray) -> np.ndarray:
    """Gaussian filter of each component of the component-major field m,
    in place, with edge-replicating ("nearest") boundaries, truncated at
    4 sigma: per component the bits of
    scipy.ndimage.gaussian_filter(m[..., c], sigma, mode="nearest").

    The axes are filtered in order 0, 1, 2 with the normalised sampled
    Gaussian w over the radius r = int(4 sigma + 0.5).  Each output is
    x[0] w[r] plus (x[-j] + x[+j]) w[r-j] for j = r ... 1, outermost pair
    first.  Each pass works on an edge-padded copy with the filtered axis
    leading, so every operand is one contiguous block, and writes into
    the component's own block; the padded copy and the pair term are
    carved from the flat float buffer `work`, which every pass of every
    component shares (a fresh one when `work` is too short).
    """
    r = int(4.0 * sigma + 0.5)
    if r == 0:
        return m   # the one weight is 1.0
    k = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * k ** 2)
    w = w / w.sum()
    shape = m.shape[:-1]
    size = math.prod(shape)
    npad = size + 2 * r * max(size // n for n in shape)
    if work.size < npad + size:
        work = np.empty(npad + size)
    pad, term = work[:npad], work[npad:npad + size]
    for c in range(3):
        a = m[..., c]
        for axis in range(3):
            src = np.moveaxis(a, axis, 0)
            n = src.shape[0]
            p = pad[:(n + 2 * r) * (size // n)].reshape((n + 2 * r,) + src.shape[1:])
            p[:r] = src[0]
            p[r:r + n] = src
            p[r + n:] = src[-1]
            # the previous pass's output is copied into p, so the block is free
            o, t = _components(m)[c].reshape(src.shape), term.reshape(src.shape)
            np.multiply(p[r:r + n], w[r], out=o)
            for j in range(r, 0, -1):
                np.add(p[r - j:r - j + n], p[r + j:r + j + n], out=t)
                t *= w[r - j]
                o += t
            a = np.moveaxis(o, 0, axis)
        # the block holds the last pass's axis order: back to the cell order
        t = term.reshape(shape)
        np.copyto(t, a)
        np.copyto(m[..., c], t)
    return m


def random_unit_m(geom: DomainGeometry, seed: int, smooth_cells: float = 1.5) -> np.ndarray:
    """Seeded random unit field, low-pass filtered over a few cells.

    smooth_cells=0 gives white per-cell directions; the default smoothing
    keeps the exchange energy of the draw grid-resolved.  Once copied
    into m, the draw's buffer is the scratch of the filter and of the
    norms, which `_dot` sums in np.linalg.norm's order.
    """
    m = _vector_field(geom.field_shape())
    draw = default_rng(seed).standard_normal(m.shape)
    np.copyto(m, draw)
    work = draw.reshape(-1)
    if smooth_cells > 0:
        _gaussian_nearest(m, smooth_cells, work)
    norms, t = _scalars(work, m.shape[:-1], 2)
    _dot(m, m, norms, t)
    np.sqrt(norms, out=norms)
    # a filtered draw can only hit zero norm with probability zero; guard anyway
    tiny = norms < 1e-12
    if tiny.any():
        m[tiny] = (0.0, 0.0, 1.0)
        norms[tiny] = 1.0   # the norm of (0, 0, 1)
    return np.divide(m, norms[..., None], out=m)
