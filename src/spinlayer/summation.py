"""Reductions for energy bookkeeping.

Spatial sums are float64 numpy reductions over the arrays (or strided
views) that already exist: `esum` is `np.sum`, `dot` the sum of a
product, formed by `np.einsum` with explicit subscripts so that no
product array is materialized.  Neither calls BLAS (`np.einsum` does not
without `optimize`), so the summation order depends only on the shapes
and strides of the operands, never on a thread count or on memory
alignment, and reruns agree to the last bit.  Their rounding error is of
order 1e-15 of the sum of the magnitudes of the terms, seven orders below
the tightest energy tolerance used anywhere.

`fsum` (math.fsum, exact) adds the energy terms of a ledger row.
"""

import math
import string

import numpy as np


def esum(a) -> float:
    """Sum of all entries of `a` in float64."""
    return float(np.sum(a))


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum over all entries of a * b (same shape), without forming the
    product."""
    subscripts = string.ascii_lowercase[:np.ndim(a)]
    return float(np.einsum(f"{subscripts},{subscripts}->", a, b))


def fsum(values) -> float:
    """Exact sum of a (small) iterable of floats."""
    return math.fsum(values)
