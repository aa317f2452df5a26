import math

import numpy as np
import pytest

from spinlayer.summation import dot, esum


def fsum_oracle(a):
    return math.fsum(np.ravel(a))


@pytest.mark.parametrize("view", [
    lambda a: a,                          # the whole Yee box
    lambda a: a[1:, :, :] - a[:-1, :, :],  # a face difference
    lambda a: a[:, 1:-1, ::2],            # strided along two axes
    lambda a: a[8:24, 8:24, 8:24],        # a body inside the box
])
def test_esum_and_dot_match_fsum(view):
    rng = np.random.default_rng(50)
    for _ in range(5):
        a = view(rng.standard_normal((33, 32, 32)))
        b = view(rng.standard_normal((33, 32, 32)))
        for got, terms in ((esum(a), a), (dot(a, a), a * a), (dot(a, b), a * b)):
            scale = fsum_oracle(np.abs(terms))
            assert abs(got - fsum_oracle(terms)) <= 1e-14 * scale


def test_dot_over_vector_fields_and_component_views():
    rng = np.random.default_rng(51)
    m = rng.standard_normal((16, 16, 16, 3))
    inplane = m[..., :2]
    assert dot(inplane, inplane) == pytest.approx(fsum_oracle(inplane * inplane),
                                                 rel=1e-14)
    assert dot(m, m) == pytest.approx(fsum_oracle(m * m), rel=1e-14)


def test_reductions_repeat_bit_for_bit_at_any_alignment():
    # the summation order depends on shape and strides only
    rng = np.random.default_rng(52)
    base = rng.standard_normal(33 * 32 * 32)
    seen = set()
    for offset in range(4):
        buf = np.empty(base.size + 4)
        a = buf[offset:offset + base.size]
        a[...] = base
        a = a.reshape(33, 32, 32)
        seen.add((esum(a), dot(a, a), dot(a[1:], a[:-1])))
    assert len(seen) == 1
