"""Exact identities checked over the sequence corpus on random radii and checkpoints.

Every tolerance here is the one the rest of the suite uses for the same
identity; the algebra of `symmetrize` and `truncate` holds bitwise.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ehtlab import numerics
from ehtlab.dynamics import array_pairs
from ehtlab.rates import parseval_holder_check
from ehtlab.sequences import named_sequence, transform_sequence
from ehtlab.transform import abel_identity_residual, orbit_traces

from conftest import corpus

CORPUS = corpus()
_SEQUENCE = st.sampled_from(CORPUS)


def _random_orbit(seed, n):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, 2 * n + 1) + 1j * rng.uniform(-1, 1, 2 * n + 1)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_SEQUENCE, st.integers(2, 4000), st.integers(0, 2**32 - 1), st.data())
def test_summation_by_parts_split_holds(a, n, seed, data):
    orbit = _random_orbit(seed, n)
    assert abel_identity_residual(a, orbit, n) <= 1e-10
    checkpoints = sorted(data.draw(st.lists(st.integers(1, n), min_size=1, max_size=6,
                                            unique=True)))
    # small blocks carry D_k and both accumulators across several block edges
    block_terms = data.draw(st.sampled_from([16, 256, numerics._BLOCK_TERMS]))
    with mock.patch.object(numerics, "_BLOCK_TERMS", block_terms):
        (trace,) = orbit_traces([a], array_pairs([orbit]), checkpoints, with_abel=True)
    H = trace.H_values
    main, tail = np.array(trace.abel_parts).T
    assert np.all(np.abs(H - (main + tail)) <= 1e-10 * (1.0 + np.abs(H)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_SEQUENCE, st.integers(1, 4000), st.integers(0, 500))
def test_grid_parseval_holds_on_every_grid_of_4n_plus_1_points_or_more(a, n, extra):
    res = parseval_holder_check(a, n, 4 * n + 1 + extra)
    assert res["pass"], res


def _bits(x):
    return np.ascontiguousarray(x, dtype=complex).view(np.int64)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_SEQUENCE, st.integers(0, 200), st.integers(0, 200), st.integers(0, 200))
def test_symmetrize_and_truncate_algebra(a, n, r, s):
    vals = a.range_values(n)
    ks = np.arange(-n, n + 1)
    sym = transform_sequence(a, "symmetrize")
    sym_vals = sym.range_values(n)
    # the positive side, reflected, and a fixed point of symmetrize
    assert np.array_equal(_bits(sym_vals[n:]), _bits(vals[n:]))
    assert np.array_equal(_bits(sym_vals[: n + 1]), _bits(vals[n:][::-1]))
    assert np.array_equal(_bits(transform_sequence(sym, "symmetrize").range_values(n)),
                          _bits(sym_vals))

    def truncate(b, radius):
        return transform_sequence(b, "truncate", r=radius)

    # truncate zeroes |k| > r and keeps the rest, so truncations compose by min
    kept = np.where(np.abs(ks) > r, 0.0, vals)
    assert np.array_equal(_bits(truncate(a, r).range_values(n)), _bits(kept))
    assert np.array_equal(_bits(truncate(truncate(a, r), s).range_values(n)),
                          _bits(truncate(a, min(r, s)).range_values(n)))
    # and commute with symmetrize
    assert np.array_equal(_bits(transform_sequence(truncate(a, r), "symmetrize").range_values(n)),
                          _bits(truncate(sym, r).range_values(n)))


def _symmetrized(draw, a):
    for _ in range(draw(st.integers(0, 2))):
        a = transform_sequence(a, "symmetrize")
    return a


_CYCLES = [named_sequence("cycle_indicator", convention=c) for c in ("symmetric", "signed")]


@st.composite
def _paired_sequences(draw):
    """Sequences with and without a pair rule: cycle indicators, symmetrized ones (nested
    too), and products of a symmetrized sequence with a cycle indicator."""
    a = _symmetrized(draw, draw(st.sampled_from(CORPUS)))
    if draw(st.booleans()):
        a = transform_sequence(a, "product", b=draw(st.sampled_from(_CYCLES)))
    return a


def _index_blocks():
    """Runs lo+1..hi (from 0 when lo = -1, at every offset mod 3, some past the block length)
    and arrays of k >= 0 that are not runs."""
    runs = st.builds(lambda lo, n: np.arange(lo + 1, lo + 1 + n, dtype=np.int64),
                     st.integers(-1, 3 * 10**4), st.integers(0, 3 * numerics._BLOCK_TERMS))
    scattered = st.lists(st.integers(0, 10**6), max_size=50).map(
        lambda ks: np.array(ks, dtype=np.int64))
    gapped = st.builds(lambda lo, n, gap: np.delete(np.arange(lo, lo + n, dtype=np.int64), gap),
                       st.integers(0, 100), st.integers(3, 40), st.integers(1, 2))
    return st.one_of(runs, scattered, gapped)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(_CYCLES), _paired_sequences()), _index_blocks(),
       st.integers(1, 4 * numerics._BLOCK_TERMS))
@example(_CYCLES[0], np.arange(0, 5, dtype=np.int64), 3 * numerics._BLOCK_TERMS)
@example(_CYCLES[1], np.arange(0, 5, dtype=np.int64), 3 * numerics._BLOCK_TERMS)
@example(_CYCLES[1], np.arange(4, 2 * numerics._BLOCK_TERMS + 6, dtype=np.int64), 1)
@example(_CYCLES[1], np.arange(2**63 - 3, 2**63 - 1, dtype=np.int64), 1)
@example(_CYCLES[1], np.array([2**63 - 3, 2**63 - 1], dtype=np.int64), 1)
def test_pair_values_are_both_sides_bitwise(a, ks, grow):
    want = [_bits(a.values(ks)), _bits(a.values(-ks))]
    got = a.pair_values(ks)
    assert [_bits(side).tolist() for side in got] == [w.tolist() for w in want]
    assert not any(side.flags.writeable for side in got)
    a.pair_values(np.arange(grow, 2 * grow, dtype=np.int64))  # grows the cycle tiles
    again = a.pair_values(ks)
    assert [_bits(side).tolist() for side in again] == [w.tolist() for w in want]
