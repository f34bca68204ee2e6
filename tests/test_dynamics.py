import math
import tracemalloc

import mpmath as mp

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehtlab import dynamics
from ehtlab.dynamics import (
    CyclePoint,
    RotationPoint,
    SQRT2_TURNS,
    TorusPoint,
    constant_observable,
    cycle_indicator_observable,
    cycle_step_observable,
    lattice_orbit,
    make_system,
    orbit_pairs,
    orbit_values,
    point_values,
    rotation_character,
    rotation_raised_cosine,
    sample_points,
    torus_character,
    torus_power,
)
from ehtlab.numerics import _BLOCK_TERMS, UnitPhases, checkpoint_blocks

_LATTICE = 1 << 53


def _stepped(r, s, K, L):
    """M^k (r, s) mod L for k = -K..K, one Python step of [[2,1],[1,1]] or its inverse at a time."""
    fwd, bwd = [(r, s)], [(r, s)]
    for _ in range(K):
        x, y = fwd[-1]
        fwd.append(((2 * x + y) % L, (x + y) % L))
        x, y = bwd[-1]
        bwd.append(((x - y) % L, (2 * y - x) % L))
    return bwd[:0:-1] + fwd


def _on_lattice(r, s, L):
    """The point (r, s) / L of the L-lattice, for L a power of two, as a 2^53-lattice point."""
    return TorusPoint(r * (_LATTICE // L), s * (_LATTICE // L))


def test_rotation_rejects_rationals():
    with pytest.raises(ValueError):
        make_system("rotation", angle_turns=1.0 / 3.0)
    with pytest.raises(ValueError):
        make_system("rotation", angle_turns=355.0 / 113.0)
    make_system("rotation", angle_turns="sqrt2")  # fine


def test_rotation_triple_step():
    rot = make_system("rotation", angle_turns="sqrt2")
    f = rotation_character(1)
    x = RotationPoint(0.0)
    p3 = rot.iterate(x, 3)
    val = f.coord_fn(rot.orbit_coords(p3, np.array([0])))[0]
    assert val == pytest.approx(np.exp(2j * np.pi * 3 * rot.theta), abs=1e-13)


def test_rotation_orbit_matches_eigenfunction_law():
    rot = make_system("rotation", angle_turns="sqrt2")
    x0 = RotationPoint(0.37)
    for m in (1, 3, -2):
        f = rotation_character(m)
        orb = orbit_values(rot, f, x0, 50)
        phi_m = complex(np.exp(2j * np.pi * ((m * rot.theta) % 1.0)))
        f0 = orb[50]
        for k in range(-50, 51):
            assert orb[50 + k] == pytest.approx(f0 * phi_m**k, abs=1e-10)


def test_rotation_long_orbit_drift_free():
    # angle accumulation keeps phase error at rounding scale over 1e7 steps
    rot = make_system("rotation", angle_turns="sqrt2")
    f = rotation_character(1)
    x0 = RotationPoint(0.2)
    k = 10_000_000
    val = f.coord_fn(rot.orbit_coords(x0, np.array([k])))[0]
    exact_angle = (0.2 + (k * SQRT2_TURNS) % 1.0) % 1.0
    # reference via integer-split arithmetic on the same double theta
    hi = math.floor(SQRT2_TURNS * 2**26 + 0.5) / 2**26
    lo = SQRT2_TURNS - hi
    ref = ((k * hi) % 1.0 + (k * lo + 0.2)) % 1.0
    assert val == pytest.approx(np.exp(2j * np.pi * ref), abs=1e-12)


def test_three_cycle_orbit_pattern():
    # pattern of the step observable along the orbit started in the first cell:
    # value at shift k is (0, 1, -1) according to k mod 3
    cyc = make_system("three_cycle")
    f = cycle_step_observable()
    vals = [v.real for v in orbit_values(cyc, f, CyclePoint(0), 4)]
    assert vals == [-1, 0, 1, -1, 0, 1, -1, 0, 1]
    assert f.norm("l2") == pytest.approx(math.sqrt(2.0 / 3.0))


def test_torus_pointwise_map():
    tor = make_system("torus_automorphism")
    p = tor.default_point()  # (0.2, 0.3), rounded to the lattice
    assert (p.r / _LATTICE, p.s / _LATTICE) == (
        pytest.approx(0.2, abs=2**-53), pytest.approx(0.3, abs=2**-53))
    q = tor.iterate(p, 1)
    assert q == TorusPoint((2 * p.r + p.s) % _LATTICE, (p.r + p.s) % _LATTICE)
    assert (q.r / _LATTICE, q.s / _LATTICE) == (pytest.approx(0.7), pytest.approx(0.5))
    f = torus_character(1, 0)
    vals = orbit_values(tor, f, p, 1)
    assert vals[2] == pytest.approx(np.exp(2j * np.pi * 0.7))
    assert vals[0] == pytest.approx(np.exp(2j * np.pi * ((0.2 - 0.3) % 1.0)))


def test_invertibility():
    rng = np.random.default_rng(3)
    rot = make_system("rotation", angle_turns="sqrt2")
    cyc = make_system("three_cycle")
    tor = make_system("torus_automorphism")
    for sys_ in (rot, cyc, tor):
        for p in sys_.sample_points(1000, rng):
            # lazy shifts and lattice arithmetic are exactly invertible
            assert sys_.iterate(sys_.iterate(p, 1), -1) == p


def test_lattice_torus_points_exact():
    tor = make_system("torus_automorphism")
    p = _on_lattice(3, 7, 64)
    assert tor.iterate(tor.iterate(p, 1), -1) == p
    f = torus_character(2, 5)
    vals = orbit_values(tor, f, p, 300)  # far beyond float-orbit reliability
    assert np.allclose(np.abs(vals), 1.0)
    # the 64-lattice is invariant, and the orbit stays on it exactly
    rs, ss = tor.orbit_coords(p, np.arange(-300, 301))
    assert rs.dtype == ss.dtype == np.uint64
    want = [_on_lattice(*t, 64) for t in _stepped(3, 7, 300, 64)]
    assert list(zip(rs.tolist(), ss.tolist())) == [(q.r, q.s) for q in want]


def test_sampling_determinism_and_measure():
    rot = make_system("rotation", angle_turns="sqrt2")
    a = sample_points(rot, 4, seed=9)
    b = sample_points(rot, 4, seed=9)
    assert a == b
    assert all(0.0 <= p.t0 < 1.0 for p in a)

    cyc = make_system("three_cycle")
    pts = sample_points(cyc, 30_000, seed=1)
    frac = np.mean([p.cell0 == 0 for p in pts])
    assert abs(frac - 1.0 / 3.0) <= 0.01

    tor = make_system("torus_automorphism")
    pts = sample_points(tor, 10_000, seed=2)
    mean = np.mean([np.exp(2j * np.pi * p.r / _LATTICE) for p in pts])
    assert abs(mean) <= 0.05
    # the draws are multiples of 2^-53, so every point is the draw itself
    draws = np.random.default_rng(2).random((10_000, 2))
    assert [(p.r / _LATTICE, p.s / _LATTICE) for p in pts] == [tuple(d) for d in draws.tolist()]


def test_invariance_checks():
    # Monte-Carlo discrepancy |E[f o T] - E[f]| on points drawn from the invariant measure
    count = 4096
    tol = 3.0 / math.sqrt(count)
    for sys_, f in ((make_system("rotation", angle_turns="sqrt2"), rotation_character(1)),
                    (make_system("three_cycle"), cycle_indicator_observable()),
                    (make_system("torus_automorphism"), torus_character(1, 1))):
        pts = sample_points(sys_, count, seed=0)
        here = point_values(sys_, f, pts)
        there = point_values(sys_, f, [sys_.iterate(p, 1) for p in pts])
        assert abs(complex(np.mean(there) - np.mean(here))) <= tol, sys_.kind


def test_torus_character_orthogonality_on_lattice():
    # the 64-lattice is invariant, so the lattice mean of e((M^k w - w).x), w = (p, q),
    # is the exact integral <T^k f, f>: 1 when M^k w = w (mod 64), else 0
    for (p, q) in ((1, 0), (0, 1), (2, 3)):
        for k in list(range(-20, 0)) + list(range(1, 21)):
            assert torus_power(p, q, k, 64) != (p, q), (p, q, k)
    assert torus_power(1, 0, 0, 64) == (1, 0)


@pytest.mark.parametrize("r, s, L", [
    (3, 7, 64), (5, 11, 1000), (0, 1, 60), (59, 58, 90),
    (5, 3, 1 << 3), (100, 27, 1 << 7), (123456, 654321, 1 << 20),
    (0x1234567890ABCD, 0x0FEDCBA9876543, 1 << 53),
])
def test_lattice_orbit_matches_stepping_and_matrix_powers(r, s, L):
    K = 3000
    ref = _stepped(r, s, K, L)
    # the scalar power, at every k
    assert [torus_power(r, s, k, L) for k in range(-K, K + 1)] == ref
    # small |k|, with the matrix powers' entries as Python ints
    for k in range(-30, 31):
        M = [[2, 1], [1, 1]] if k >= 0 else [[1, -1], [-1, 2]]  # the matrix and its inverse
        Mk = np.linalg.matrix_power(np.array(M, dtype=np.int64), abs(k))
        assert tuple((a * r + b * s) % L for a, b in Mk.tolist()) == ref[k + K]
    if L & (L - 1):
        return  # the table path works on dyadic lattices only
    bits = L.bit_length() - 1
    pts = lattice_orbit(r, s, -K, K, bits)
    assert pts.dtype == np.uint64 and pts.shape == (2 * K + 1, 2)
    assert pts.tolist() == [list(t) for t in ref]
    # sub-ranges, on either side of k = 0 or across it, are slices of the same orbit
    for lo, hi in ((-K, -K), (-7, 3), (4, 9), (K, K)):
        assert lattice_orbit(r, s, lo, hi, bits).tolist() == pts[lo + K : hi + K + 1].tolist()
    # the lattice coordinates of the orbit are the stepped points', scaled to 2^53
    ks = np.array([3, -K, 0, K, 17, 3])
    rs, ss = make_system("torus_automorphism").orbit_coords(_on_lattice(r, s, L), ks)
    want = [_on_lattice(*ref[k + K], L) for k in ks]
    assert rs.tolist() == [p.r for p in want] and ss.tolist() == [p.s for p in want]


def test_three_cycle_orbits_repeat_one_period_bitwise():
    cyc = make_system("three_cycle")
    pts = [CyclePoint(c, s) for c in range(3) for s in (0, 1, 2, -5)]
    for f in (cycle_step_observable(), cycle_indicator_observable(),
              constant_observable("three_cycle", 0.5 - 2j)):
        for p in pts:
            for N in (*range(8), 100_001):
                ks = np.arange(-N, N + 1, dtype=np.int64)
                ref = np.asarray(f.coord_fn(cyc.orbit_coords(p, ks)), dtype=complex)
                got = orbit_values(cyc, f, p, N)
                assert got.shape == ref.shape and np.array_equal(_bits(got), _bits(ref))


def test_observable_norm_hints():
    assert cycle_indicator_observable().norm("l1") == pytest.approx(1.0 / 3.0)
    assert rotation_raised_cosine().norm("linf") == 2.0
    assert constant_observable("rotation", 2.0).norm("l2") == 2.0
    with pytest.raises(ValueError):
        rotation_character(1).norm("l7")


def test_unknown_system():
    with pytest.raises(ValueError):
        make_system("horocycle")


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.int64)


def test_rotation_coords_are_the_anchor_phase_times_the_kernel():
    # z = e(t0) e(k theta), with e(k theta) from the kernel at each k alone, bitwise; and
    # within 38 u of the exact e(t0 + k theta) of the doubles: the kernel's 24 u, 11.3 u
    # for the anchor's e(t0) (t0 < 1 turn) and 2.3 u for their product
    rot = make_system("rotation", angle_turns="sqrt2")
    ks = np.arange(-3000, 3001, dtype=np.int64)
    for p in (RotationPoint(0.1), RotationPoint(0.999999), RotationPoint(0.25, shift=-41)):
        anchor = np.exp(2j * np.pi * np.array([p.t0]))
        got = rot.orbit_coords(p, ks)
        ref = np.array([UnitPhases(SQRT2_TURNS)(np.array([k + p.shift]))[0] for k in ks])
        assert np.array_equal(_bits(got), _bits(ref * anchor))
        with mp.workdps(40):
            theta, t0 = mp.mpf(SQRT2_TURNS), mp.mpf(p.t0)
            for k in ks[::97].tolist():
                exact = mp.expjpi(2 * (t0 + (k + p.shift) * theta))
                assert abs(complex(exact) - got[k + 3000]) <= 38 * 2.0**-53


@pytest.mark.parametrize("system, observable", [
    ("rotation", rotation_raised_cosine()),
    ("rotation", rotation_character(3)),
    ("three_cycle", cycle_step_observable()),
    ("torus_automorphism", torus_character(1, 2)),
])
def test_orbit_rows_match_orbit_values_bitwise(system, observable):
    # the rows of one orbit_pairs source, block by block, against orbit_values at N +- k
    sys_ = make_system(system)
    pts = sample_points(sys_, 24, seed=5)
    if system == "rotation":
        pts[3] = RotationPoint(pts[3].t0, shift=17)  # off the shared table
        pts.append(RotationPoint(0.1, shift=-5))
    elif system == "three_cycle":
        pts.append(CyclePoint(2, shift=-4))
    else:
        pts.append(_on_lattice(3, 7, 64))
    N = 700
    rows = [orbit_values(sys_, observable, p, N) for p in pts]
    pairs = orbit_pairs(sys_, observable, pts, N)
    for lo, hi in ((0, 1), (1, N // 2), (N // 2, N)):
        ks = np.arange(lo + 1, hi + 1)
        values = list(pairs(lo, hi))
        assert len(values) == len(pts)
        for row, (vpos, vneg) in zip(rows, values):
            for v, want in ((vpos, row[N + ks]), (vneg, row[N - ks])):
                assert v.dtype == complex and v.shape == (hi - lo,)
                assert np.array_equal(_bits(v), _bits(want))
    at_points = np.array([orbit_values(sys_, observable, p, 0)[0] for p in pts])
    assert np.array_equal(_bits(point_values(sys_, observable, pts)), _bits(at_points))


@pytest.mark.parametrize("observable", [cycle_step_observable(), cycle_indicator_observable()])
def test_three_cycle_rows_are_slices_of_the_tiled_cells(observable):
    # every lo mod 3 and lo = 0, spans that grow the tiles past _BLOCK_TERMS, then shorter ones
    cyc = make_system("three_cycle")
    pts = [CyclePoint(cell) for cell in range(3)] + [CyclePoint(1, shift=-4), CyclePoint(2, 7)]
    N = 3 * _BLOCK_TERMS
    rows = [orbit_values(cyc, observable, p, N) for p in pts]
    pairs = orbit_pairs(cyc, observable, pts, N)
    spans = [(0, 1), (0, 7), (1, 3), (2, 9)] + [(lo, lo + _BLOCK_TERMS + 5) for lo in (0, 4, 5, 6)]
    for lo, hi in spans + [(N - 10, N), (11, 13), (3, 4)]:
        ks = np.arange(lo + 1, hi + 1)
        values = list(pairs(lo, hi))
        assert len(values) == len(pts)
        for row, (vpos, vneg) in zip(rows, values):
            assert np.array_equal(_bits(vpos), _bits(row[N + ks]))
            assert np.array_equal(_bits(vneg), _bits(row[N - ks]))


def test_rotation_character_one_returns_its_argument():
    # z**1 takes no fast path in numpy; the coordinate itself has the same bits
    rot = make_system("rotation", angle_turns="sqrt2")
    f = rotation_character(1)
    for p in (RotationPoint(0.1), RotationPoint(0.83, shift=-40)):
        z = rot.orbit_coords(p, np.arange(-5000, 5001))
        assert f.coord_fn(z) is z
        assert np.array_equal(_bits(f.coord_fn(z)), _bits(z**1))
    for vpos, vneg in orbit_pairs(rot, f, [RotationPoint(0.3)], 4000)(0, 4000):
        for v in (vpos, vneg):
            assert np.array_equal(_bits(v), _bits(v**1))


def test_orbit_rows_keep_the_exact_angle_guard(monkeypatch):
    # orbit_pairs validates every point when the source is built
    rot = make_system("rotation", angle_turns="sqrt2")
    f = rotation_character(1)
    monkeypatch.setattr(dynamics, "_MAX_SHIFT", 64)
    assert len(list(orbit_pairs(rot, f, [RotationPoint(0.3)], 63)(0, 63))) == 1
    with pytest.raises(ValueError, match="exact-angle range"):
        orbit_pairs(rot, f, [RotationPoint(0.3)], 64)  # shared table
    with pytest.raises(ValueError, match="exact-angle range"):
        orbit_pairs(rot, f, [RotationPoint(0.1), RotationPoint(0.3, shift=60)], 4)  # shifted
    with pytest.raises(ValueError, match="exact-angle range"):
        orbit_values(rot, f, RotationPoint(0.3), 64)
    with pytest.raises(ValueError, match="exact-angle range"):
        point_values(rot, f, [RotationPoint(0.3), RotationPoint(0.3, shift=-64)])
    with pytest.raises(ValueError, match="does not belong"):
        orbit_pairs(rot, cycle_step_observable(), [RotationPoint(0.3)], 4)


_POINTS = {
    "rotation": st.builds(RotationPoint, st.floats(0.0, 1.0, exclude_max=True),
                          st.integers(-2**20, 2**20)),
    "three_cycle": st.builds(CyclePoint, st.integers(0, 2), st.integers(-2**40, 2**40)),
    "torus_automorphism": st.builds(TorusPoint, st.integers(0, _LATTICE - 1),
                                    st.integers(0, _LATTICE - 1)),
}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_POINTS)), st.data())
def test_iterates_compose_bitwise(kind, data):
    # T^i then T^j is T^(i+j), and the orbit of T^i p is the orbit of p shifted by i,
    # bitwise; rotations keep |k| inside the exact-angle range
    sys_ = make_system(kind)
    bound = 2**20 if kind == "rotation" else 2**40
    p = data.draw(_POINTS[kind])
    i, j = data.draw(st.integers(-bound, bound)), data.draw(st.integers(-bound, bound))
    ks = np.array(data.draw(st.lists(st.integers(-1000, 1000), min_size=1, max_size=12)),
                  dtype=np.int64)
    assert sys_.iterate(sys_.iterate(p, i), j) == sys_.iterate(p, i + j)
    shifted, moved = sys_.orbit_coords(sys_.iterate(p, i), ks), sys_.orbit_coords(p, ks + i)
    assert np.asarray(shifted).tobytes() == np.asarray(moved).tobytes()
    if kind == "torus_automorphism":
        q = sys_.iterate(p, i)
        assert [c.tolist() for c in sys_.orbit_coords(q, np.array([0]))] == [[q.r], [q.s]]


def test_torus_orbit_rows_stream_in_small_memory():
    # 32 whole orbits at N = 2e5 would hold 32 x 6.4 MB; the rows come a block at a time
    tor = make_system("torus_automorphism")
    N, pts = 200_000, sample_points(tor, 32, seed=4)
    tracemalloc.start()
    try:
        pairs = orbit_pairs(tor, torus_character(1, 2), pts, N)
        for _, _, lo, hi in checkpoint_blocks(np.array([N])):
            for row in pairs(lo, hi):
                assert row[0].shape == row[1].shape == (hi - lo,)
        assert tracemalloc.get_traced_memory()[1] < 8 * 10**6
    finally:
        tracemalloc.stop()


def test_whole_torus_orbit_peaks_below_three_results():
    # the Fibonacci table is built to size and scaled in place, and the range
    # -N..N reads the rows as they are, so no third orbit-sized array is alive
    tor = make_system("torus_automorphism")
    N, p = 200_000, tor.default_point()
    tracemalloc.start()
    try:
        r, s = tor.orbit_coords(p, np.arange(-N, N + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (r.nbytes + s.nbytes)
    # any other ks gathers the rows of its own range
    ks = np.array([5, -3, 5, 0, 4])
    got = tor.orbit_coords(p, ks)
    assert [x.tolist() for x in got] == [r[ks + N].tolist(), s[ks + N].tolist()]
