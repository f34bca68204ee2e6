import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ehtlab.numerics import checkpoint_sums


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
