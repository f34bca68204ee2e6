import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ehtlab.numerics import (
    _BLOCK_TERMS,
    _PHASE_BITS,
    MAX_PHASE_INDEX,
    NeumaierSum,
    UnitPhases,
    checkpoint_blocks,
    checkpoint_sums,
    frac1,
    stream_sums,
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
@example(seed=6, lengths=[2 * _BLOCK_TERMS + 5, 3], spare=1)  # a long first segment
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
    # the streamed form through stream_sums: the terms from index 0 and, where every end
    # is >= 1, a second stream from index 1, as the Abel main terms are, so a term
    # shorter in the first block
    shifted = ends[0] >= 1
    def streams(lo, hi, *_):
        yield terms[lo:hi]
        if shifted:
            yield terms[max(lo, 1) : hi]
    streamed, *shorter = stream_sums(streams, ends, "overflow")
    assert len(shorter) == shifted
    fits = np.diff(ends, prepend=0).max() <= _BLOCK_TERMS
    reference = _whole_array_checkpoint_sums if fits else piecewise_checkpoint_sums
    assert np.array_equal(streamed.view(np.int64), reference(terms, ends).view(np.int64))
    for e, value in zip(ends, streamed):
        magnitude = math.fsum(np.abs(terms[:e]))
        assert abs(value - _fsum_prefix(terms, e)) <= 1e-13 * (1.0 + magnitude)
    if not shifted:
        return
    # the second stream is the sum of terms[1:] at ends - 1; where its first segment spans
    # blocks its first piece is a term short, so the pieces differ from the reference's
    if ends[0] <= _BLOCK_TERMS:
        want = reference(terms[1:], ends - 1)
        assert np.array_equal(shorter[0].view(np.int64), want.view(np.int64))
    for e, value in zip(ends, shorter[0]):
        magnitude = math.fsum(np.abs(terms[:e]))
        assert abs(value - _fsum_prefix(terms[1:], e - 1)) <= 1e-13 * (1.0 + magnitude)


def test_stream_sums_raise_the_callers_overflow_error():
    # pytest turns a RuntimeWarning into an error: the overflow stays silent until the raise
    def huge(lo, hi, *_):
        yield np.full(hi - lo, 1e308, dtype=complex)
    with pytest.raises(OverflowError, match="^the sums overflow$"):
        stream_sums(huge, np.array([2, 3 * _BLOCK_TERMS]), "the sums overflow")


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


# ------------------------------------------------------------------ phase kernel

_U = 2.0**-53
_T = 1 << _PHASE_BITS  # the phase table's length
_ANGLES = (math.sqrt(2.0) - 1.0, 1.0 - math.sqrt(2.0), 0.123, 1.0 / math.sqrt(2.0))


def _exact_phase(theta: float, k: int) -> complex:
    """e(k theta) for the double theta, at 200 bits."""
    with mp.workprec(200):
        return complex(mp.expjpi(2 * k * mp.mpf(theta)))


@pytest.mark.parametrize("theta", _ANGLES)
def test_unit_phases_stay_within_24_ulps_at_every_index(theta):
    # the documented bound of UnitPhases, the same for every |k| < 2^27, against 200 bits
    rng = np.random.default_rng(17)
    edges = [0, 1, -1, _T - 1, _T, -_T, -_T - 1, MAX_PHASE_INDEX - 1, 1 - MAX_PHASE_INDEX]
    ks = np.concatenate([edges, rng.integers(1 - MAX_PHASE_INDEX, MAX_PHASE_INDEX, 300)])
    got = UnitPhases(theta)(ks)
    err = max(abs(z - _exact_phase(theta, k)) for z, k in zip(got.tolist(), ks.tolist()))
    assert err <= 24 * _U


def test_unit_phases_are_one_function_of_k_on_every_path():
    # runs either way, at every alignment to the table and across several of its
    # periods, and single indices give the bits the gathered path gives for the same k
    e = UnitPhases(0.123)
    for k0 in (-3 * _T - 7, -_T - 1, -_T, -1, 0, 5, _T - 1, MAX_PHASE_INDEX - 5 * _T):
        for n in (1, 2, _T - 1, _T, _T + 1, 4 * _T + 3, _BLOCK_TERMS):
            run = np.arange(k0, k0 + n, dtype=np.int64)
            for ks in (run, run[::-1]):
                gathered = e(np.append(ks, ks[0]))[:-1]  # not a run, so the gathered path
                got = np.ascontiguousarray(e(ks))
                assert np.array_equal(got.view(np.int64), gathered.view(np.int64))
    ks = np.array([5, -3, 40000, 5, 0, -7 * _T - 1])
    single = [e(np.array([k]))[0] for k in ks]
    assert np.array_equal(e(ks).view(np.int64), np.array(single).view(np.int64))
    assert e(ks.reshape(2, 3)).shape == (2, 3) and e(np.array([], dtype=np.int64)).size == 0


def test_unit_phases_keep_the_exact_angle_guard():
    e = UnitPhases(math.sqrt(2.0) - 1.0)
    e(np.array([MAX_PHASE_INDEX - 1, 1 - MAX_PHASE_INDEX]))
    for ks in ([MAX_PHASE_INDEX], [-MAX_PHASE_INDEX], [0, MAX_PHASE_INDEX],
               np.arange(MAX_PHASE_INDEX - 5, MAX_PHASE_INDEX + 1)):
        with pytest.raises(ValueError, match="exact-angle range"):
            e(np.asarray(ks))
    for theta in (1.5, -2.0, math.nan):
        with pytest.raises(ValueError, match="phase angle"):
            UnitPhases(theta)
