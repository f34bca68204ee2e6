"""Exact identities checked over the sequence corpus on random radii and checkpoints.

Every tolerance here is the one the rest of the suite uses for the same
identity; the algebra of `symmetrize` and `truncate` holds bitwise.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from ehtlab import numerics
from ehtlab.dynamics import array_pairs
from ehtlab.rates import parseval_holder_check
from ehtlab.sequences import transform_sequence
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
