import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ehtlab.numerics import checkpoint_sums, frac1


def _fsum_prefix(terms: np.ndarray, e: int) -> complex:
    return complex(math.fsum(terms[:e].real), math.fsum(terms[:e].imag))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 600),
       raw_ends=st.lists(st.integers(0, 600), min_size=1, max_size=200))
@example(seed=1, n=300, raw_ends=list(range(0, 200, 2)))  # > 64 ends, last below n
@example(seed=2, n=100, raw_ends=[0, 0, 5] + [100] * 70)  # repeated ends at the top
@example(seed=3, n=10, raw_ends=[0] * 80)  # all-zero prefix
def test_checkpoint_sums_match_fsum_prefixes(seed, n, raw_ends):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, n)
    terms = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    ends = sorted(min(e, n) for e in raw_ends)
    got = checkpoint_sums(terms, ends)
    assert got.shape == (len(ends),)
    for e, value in zip(ends, got):
        magnitude = math.fsum(np.abs(terms[:e]))
        assert abs(value - _fsum_prefix(terms, e)) <= 1e-13 * (1.0 + magnitude)


_FRAC1_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-300, -1e-300,
                1.0 - 2.0**-53, -(1.0 - 2.0**-53), 2.0**-53, -(2.0**-53), 1.0, -1.0,
                2.0**52 - 0.5, 2.0**52 + 1.0, -(2.0**52) + 0.5, -(2.0**52) - 1.0,
                2.0**53, -(2.0**53),
                1.7976931348623157e308, -1.7976931348623157e308, -3.0, 7.5, -7.5]


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
@example(xs=_FRAC1_EDGES)
def test_frac1_is_bitwise_mod_one(xs):
    x = np.array(xs, dtype=float)
    want = (x % 1.0).view(np.int64)
    assert np.array_equal(frac1(x).view(np.int64), want)
    frac1(x, out=x)  # in place, as the orbit kernels use it
    assert np.array_equal(x.view(np.int64), want)
