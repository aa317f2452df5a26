"""Type-I discrete sine transform of 3-D arrays through numpy.fft, with
the bits of scipy.fft.dstn(x, type=1) and its idstn.

Each axis is pocketfft's DST-I of length n: the real FFT of the odd
extension (0, x, 0, -x reversed) of length 2(n+1), whose negated
imaginary parts 1..n are the transform.  `maxwell.poisson_solve`
diagonalises the box Laplacian with it.
"""

import functools
import math
from typing import Optional

import numpy as np
from numpy.fft import rfft


def parts(shape: tuple) -> tuple:
    """Floats of the largest odd extension and of the largest spectrum
    (complex, two floats an entry) of `transform`'s passes over `shape`:
    the sizes of its two buffers."""
    size = math.prod(shape)
    return (max(size // n * 2 * (n + 1) for n in shape),
            max(size // n * 2 * (n + 2) for n in shape))


def _lines(src: np.ndarray, factor: float, ext: np.ndarray, spec: np.ndarray):
    """One pass of `transform` over the lines (last axis) of src: their odd
    extensions times `factor`, carved from the flat float buffer `ext`,
    and the real FFT of those into `spec`."""
    n = src.shape[-1]
    e = ext[:src.size // n * 2 * (n + 1)].reshape(src.shape[:-1] + (2 * (n + 1),))
    if factor == 1.0:
        np.copyto(e[..., 1:n + 1], src)   # x * 1.0 is x bit for bit
    else:
        np.multiply(src, factor, out=e[..., 1:n + 1])
    e[..., ::n + 1] = 0.0                 # entries 0 and n + 1
    np.negative(e[..., n:0:-1], out=e[..., n + 2:])
    rfft(e, axis=-1, out=spec)


@functools.lru_cache(maxsize=None)
def _zero_spectra(n: int) -> np.ndarray:
    """`_lines`'s spectra of a length-n line of +0.0 (row 0) and of one
    of -0.0 (row 1): zeros whose signs vary with n and the index."""
    lines = np.zeros((2, n))
    lines[1] = -0.0
    spec = np.empty((2, n + 2), complex)
    _lines(lines, 1.0, np.empty(4 * (n + 1)), spec)
    spec.flags.writeable = False
    return spec


def transform(x: np.ndarray, ext: np.ndarray, spec: np.ndarray, out: np.ndarray,
              scale: float = 1.0, lines: Optional[tuple] = None) -> np.ndarray:
    """DST-I of x along axes 0, 1 and 2, in that order, the result along
    axis 0 times `scale`, written into `out` (which may be x): the bits of
    scipy.fft.dstn(x, type=1), and with scale = 1/prod(2(n+1)) those of
    its idstn.

    The axis being transformed is last in the extension, filled from the
    previous pass's imaginary parts with the axes turned one step (so
    after three passes they are back in order) and with that pass's sign
    and scale as one factor.  The extension and the spectrum are carved
    from the flat float buffers `ext` and `spec` (at least
    `parts(x.shape)` entries; `spec` starting on a complex boundary), so
    the call allocates nothing box-sized.

    `lines`, the ranges ((y0, y1), (z0, z1)) along axes 1 and 2 outside
    which every entry of x is +0.0 (`reached_lines`), confines the real
    FFTs of pass 1 (x-lines at (y, z)) to y and z inside and those of
    pass 2 (y-lines at (z, kx)) to z inside.  Every other line of pass 1
    is all +0.0, and every other line of pass 2 holds pass 1's spectrum
    of such a line at its kx times the factor, one signed zero
    throughout, so their spectra are copied from `_zero_spectra`: the
    bits of the transform of every line.
    """
    size = x.size
    spec = spec[:parts(x.shape)[1]].view(complex)
    (y0, y1), (z0, z1) = lines or ((0, x.shape[1]), (0, x.shape[2]))
    blocks = (np.s_[y0:y1, z0:z1], np.s_[z0:z1], ())
    im, factor = x, 1.0
    for axis, (n, block) in enumerate(zip(x.shape, blocks)):
        src = im.transpose(1, 2, 0)
        s = spec[:size // n * (n + 2)].reshape(src.shape[:-1] + (n + 2,))
        _lines(src[block], factor, ext, s[block])
        if lines and axis == 0:
            zero = _zero_spectra(n)[0]
            s[:y0] = s[y1:] = s[y0:y1, :z0] = s[y0:y1, z1:] = zero
            skipped = zero.imag[1:n + 1]
        elif lines and axis == 1:
            # line (z, kx) holds skipped[kx] * factor at every y
            signs = np.signbit(skipped * factor).astype(np.intp)
            s[:z0] = s[z1:] = _zero_spectra(n)[signs]
        im = s.imag[..., 1:n + 1]
        # -(im * scale) is im * -scale bit for bit
        factor = -scale if axis == 0 else -1.0
    return np.negative(im, out=out)


def reached_lines(x: np.ndarray, work: np.ndarray) -> tuple:
    """The ranges ((y0, y1), (z0, z1)) along axes 1 and 2 of the entries
    of x whose bits are not those of +0.0 (the whole axes when there are
    none), from one mask pass into the flat float buffer `work` (at least
    x.size / 8 floats)."""
    mask = work[:-(-x.size // 8)].view(np.bool_)[:x.size].reshape(x.shape)
    np.not_equal(x.view(np.int64), 0, out=mask)
    plane = mask.any(axis=0)
    ranges = []
    for reached in (plane.any(axis=1), plane.any(axis=0)):
        at = np.flatnonzero(reached)
        ranges.append((int(at[0]), int(at[-1]) + 1) if at.size else (0, reached.size))
    return tuple(ranges)
