"""Named initial magnetization presets.

Every preset returns a component-major field (`energetics._vector_field`),
the layout `dynamics.run` steps.
"""

import functools
import math

import numpy as np
from numpy.random import default_rng

from .energetics import _aligned_empty, _components, _dot, _scalars, _vector_field
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


@functools.lru_cache(maxsize=None)
def _pair_windows(n: int, depth: int, j: int) -> tuple:
    """The pair term x[i - j] + x[i + j] along axis 0 for i < n, where x
    is the edge-replicated ("nearest") extension of an n-row block and
    the padded copy p holds x on rows -depth ... n + depth - 1, as
    (left, right, rows) slices: p[left] + p[right] gives the term at
    `rows`, with one triple when j <= depth.

    A term beyond p is the edge row x[0] or x[n - 1]; it is read from the
    first or last depth + 1 rows of p, which all hold that row, in pieces
    of at most that many rows.
    """
    first, last = j - depth, n + depth - j   # the rows whose terms lie in p
    cuts = sorted({0, n} | {c for c in (first, last) if 0 < c < n})
    windows = []
    for lo, hi in zip(cuts, cuts[1:]):
        piece = hi - lo if first <= lo and hi <= last else depth + 1
        for a in range(lo, hi, piece):
            b = min(hi, a + piece)
            windows.append((slice(a - first, b - first) if a >= first else slice(0, b - a),
                            slice(a + j + depth, b + j + depth) if b <= last
                            else slice(n + 2 * depth - (b - a), n + 2 * depth),
                            slice(a, b)))
    return tuple(windows)


def _gaussian_nearest(m: np.ndarray, sigma: float, work: np.ndarray) -> np.ndarray:
    """Gaussian filter of each component of the component-major field m,
    in place, with edge-replicating ("nearest") boundaries, truncated at
    4 sigma: per component the bits of
    scipy.ndimage.gaussian_filter(m[..., c], sigma, mode="nearest").

    The axes are filtered in order 0, 1, 2 with the normalised sampled
    Gaussian w over the radius r = int(4 sigma + 0.5).  Each output is
    x[0] w[r] plus (x[-j] + x[+j]) w[r-j] for j = r ... 1, outermost pair
    first (`_pair_windows`).  Each pass works on an edge-padded copy with
    the filtered axis leading, so every operand is one contiguous block,
    and writes into the component's own block; the padded copy and the
    pair term are carved from the flat float buffer `work` (at least two
    components' floats), which every pass of every component shares.  The
    copy is padded r rows a side, or as many as `work` holds (half the
    axis when it holds three components).
    """
    r = int(4.0 * sigma + 0.5)
    if r == 0:
        return m   # the one weight is 1.0
    k = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * k ** 2)
    w = w / w.sum()
    shape = m.shape[:-1]
    size = math.prod(shape)
    for c in range(3):
        a = m[..., c]
        for axis in range(3):
            src = np.moveaxis(a, axis, 0)
            n = src.shape[0]
            depth = min(r, (work.size - 2 * size) // (2 * (size // n)))
            npad = (n + 2 * depth) * (size // n)
            p = work[:npad].reshape((n + 2 * depth,) + src.shape[1:])
            p[:depth] = src[0]
            p[depth:depth + n] = src
            p[depth + n:] = src[-1]
            # the previous pass's output is copied into p, so the block is free
            o = _components(m)[c].reshape(src.shape)
            t = work[npad:npad + size].reshape(src.shape)
            np.multiply(p[depth:depth + n], w[r], out=o)
            for j in range(r, 0, -1):
                for left, right, rows in _pair_windows(n, depth, j):
                    np.add(p[left], p[right], out=t[rows])
                t *= w[r - j]
                o += t
            a = np.moveaxis(o, 0, axis)
        # the block holds the last pass's axis order: back to the cell order
        t = work[:size].reshape(shape)
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
    draw = default_rng(seed).standard_normal(out=_aligned_empty(m.shape))
    np.copyto(m, draw)
    work = draw.reshape(-1)
    if smooth_cells > 0:
        _gaussian_nearest(m, smooth_cells, work)
    norms, t = _scalars(work, m.shape[:-1], 2)
    parts = _components(m)
    _dot(parts, parts, norms, t)
    np.sqrt(norms, out=norms)
    # a filtered draw can only hit zero norm with probability zero; guard anyway
    if norms.min() < 1e-12:
        tiny = norms < 1e-12
        m[tiny] = (0.0, 0.0, 1.0)
        norms[tiny] = 1.0   # the norm of (0, 0, 1)
    # per component: a broadcast divisor would make numpy buffer it
    for c in range(3):
        np.divide(m[..., c], norms, out=m[..., c])
    return m
