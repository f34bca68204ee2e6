import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ehtlab.numerics import (
    _BLOCK_TERMS,
    ComplexNeumaierSum,
    NeumaierSum,
    checkpoint_blocks,
    checkpoint_sums,
    frac1,
)

from conftest import piecewise_checkpoint_sums


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


def _whole_array_checkpoint_sums(terms: np.ndarray, ends) -> np.ndarray:
    """Oracle: one reduceat over the whole range, then the Neumaier merge of
    the segment totals, kept here apart from `checkpoint_sums`."""
    ends = np.asarray(ends, dtype=np.int64)
    starts = np.concatenate(([0], ends))[:-1]
    nonempty = starts < ends
    seg = np.zeros(ends.size, dtype=complex)
    if nonempty.any():
        seg[nonempty] = np.add.reduceat(terms[: ends[-1]], starts[nonempty])
    out = np.empty(ends.size, dtype=complex)
    re = NeumaierSum()
    im = NeumaierSum()
    for i in range(ends.size):
        re.add(seg[i].real)
        im.add(seg[i].imag)
        out[i] = re.value + 1j * im.value
    return out


_SEGMENT = st.one_of(st.just(0), st.integers(1, 40), st.integers(500, 20_000),
                     st.integers(_BLOCK_TERMS, _BLOCK_TERMS + 3_000))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lengths=st.lists(_SEGMENT, min_size=1, max_size=24),
       spare=st.integers(0, 50))
@example(seed=4, lengths=[0, 0, 3, 0, _BLOCK_TERMS + 1, 0, 7], spare=0)  # empty and long segments
@example(seed=5, lengths=[_BLOCK_TERMS - 1, 1, 2, _BLOCK_TERMS, 1], spare=9)  # blocks end exactly
def test_block_plan_is_bitwise_the_whole_array_sum(seed, lengths, spare):
    ends = np.cumsum(lengths)
    ends = ends[ends <= 4 * _BLOCK_TERMS]
    if ends.size == 0:
        ends = np.zeros(1, dtype=np.int64)
    rng = np.random.default_rng(seed)
    n = int(ends[-1]) + spare
    scale = 10.0 ** rng.uniform(-3, 3, n)
    terms = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    whole = _whole_array_checkpoint_sums(terms, ends)
    assert np.array_equal(checkpoint_sums(terms, ends).view(np.int64), whole.view(np.int64))
    # the block plan tiles [0, ends[-1]) in blocks of at most _BLOCK_TERMS terms;
    # a block without ends is one full piece of a longer segment
    blocks = list(checkpoint_blocks(ends))
    assert [(i, lo) for i, _, lo, _ in blocks] == [(0, 0)] + [(j, hi) for _, j, _, hi in blocks[:-1]]
    assert blocks[-1][1] == ends.size and blocks[-1][3] == ends[-1]
    assert all(hi - lo <= _BLOCK_TERMS for _, _, lo, hi in blocks)
    assert all(hi == (ends[j - 1] if j > i else lo + _BLOCK_TERMS) for i, j, lo, hi in blocks)
    # the streamed form: each block alone, with the accumulator carried over
    acc = ComplexNeumaierSum()
    streamed = np.concatenate([checkpoint_sums(terms[lo:hi], ends[i:j] - lo, acc)
                               for i, j, lo, hi in blocks])
    fits = np.diff(ends, prepend=0).max() <= _BLOCK_TERMS
    want = whole if fits else piecewise_checkpoint_sums(terms, ends)
    assert np.array_equal(streamed.view(np.int64), want.view(np.int64))
    for e, value in zip(ends, streamed):
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
