import math

import numpy as np
import pytest

from ehtlab import dynamics
from ehtlab.dynamics import (
    CyclePoint,
    LatticeTorusPoint,
    RotationPoint,
    TORUS_MATRIX,
    TORUS_MATRIX_INV,
    SQRT2_TURNS,
    TorusPoint,
    constant_observable,
    cycle_indicator_observable,
    cycle_step_observable,
    invariance_check,
    lattice_character_correlation,
    lattice_orbit,
    make_system,
    orbit_pairs,
    orbit_values,
    point_values,
    rotation_character,
    rotation_raised_cosine,
    sample_points,
    torus_character,
)


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
    assert val == pytest.approx(rot.phi**3, abs=1e-13)


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
    p = TorusPoint(0.2, 0.3)
    q = tor.forward(p)
    assert (q.x, q.y) == (pytest.approx(0.7), pytest.approx(0.5))
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
            q = sys_.backward(sys_.forward(p))
            if sys_ is tor:
                assert abs(q.x - p.x) <= 1e-12 and abs(q.y - p.y) <= 1e-12
            else:
                assert q == p  # lazy shifts are exactly invertible


def test_lattice_torus_points_exact():
    tor = make_system("torus_automorphism")
    p = LatticeTorusPoint(3, 7, 64)
    q = tor.backward(tor.forward(p))
    assert (q.r, q.s, q.L) == (3, 7, 64)
    f = torus_character(2, 5)
    vals = orbit_values(tor, f, p, 30)  # far beyond float-orbit reliability
    assert np.allclose(np.abs(vals), 1.0)


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
    mean = np.mean([np.exp(2j * np.pi * p.x) for p in pts])
    assert abs(mean) <= 0.05


def test_invariance_checks():
    count = 4096
    tol = 3.0 / math.sqrt(count)
    rot = make_system("rotation", angle_turns="sqrt2")
    assert invariance_check(rot, [rotation_character(1)], count, seed=0) <= tol
    cyc = make_system("three_cycle")
    assert invariance_check(cyc, [cycle_indicator_observable()], count, seed=0) <= tol
    tor = make_system("torus_automorphism")
    assert invariance_check(tor, [torus_character(1, 1)], count, seed=0) <= tol


def test_torus_character_orthogonality_on_lattice():
    # the integer lattice is invariant, so these averages are exact integrals
    for (p, q) in ((1, 0), (0, 1), (2, 3)):
        for k in list(range(-20, 0)) + list(range(1, 21)):
            val = lattice_character_correlation(p, q, k, L=64)
            assert abs(val) <= 1e-12, (p, q, k)
    assert lattice_character_correlation(1, 0, 0, L=64) == pytest.approx(1.0)


@pytest.mark.parametrize("r, s, L", [(3, 7, 64), (5, 11, 1000), (0, 1, 60), (59, 58, 90)])
def test_lattice_orbit_matches_stepping_and_matrix_powers(r, s, L):
    tor = make_system("torus_automorphism")
    K = 150
    pts = lattice_orbit(r, s, L, -K, K)
    assert pts.dtype == np.int64 and pts.shape == (2 * K + 1, 2)
    steps = [LatticeTorusPoint(r, s, L)]
    for _ in range(K):
        steps.append(tor.forward(steps[-1]))
    back = [LatticeTorusPoint(r, s, L)]
    for _ in range(K):
        back.append(tor.backward(back[-1]))
    ref = [(p.r, p.s) for p in back[:0:-1] + steps]
    assert pts.tolist() == [list(t) for t in ref]
    # sub-ranges, on either side of k = 0 or across it, are slices of the same orbit
    for lo, hi in ((-K, -K), (-7, 3), (4, 9), (K, K)):
        assert lattice_orbit(r, s, L, lo, hi).tolist() == pts[lo + K : hi + K + 1].tolist()
    # small |k|, where the int64 matrix powers cannot overflow
    for k in range(-30, 31):
        Mk = np.linalg.matrix_power(TORUS_MATRIX if k >= 0 else TORUS_MATRIX_INV, abs(k))
        assert ((Mk @ np.array([r, s])) % L).tolist() == pts[k + K].tolist()
    # the float coordinates of a lattice orbit are the stepped points' r/L, s/L bitwise
    ks = np.array([3, -K, 0, K, 17, 3])
    xs, ys = tor.orbit_coords(LatticeTorusPoint(r, s, L), ks)
    step_xy = np.array([[p.r / L, p.s / L] for p in back[:0:-1] + steps])
    assert xs.tobytes() == step_xy[ks + K, 0].tobytes()
    assert ys.tobytes() == step_xy[ks + K, 1].tobytes()


def test_lattice_correlation_beyond_int64_matrix_powers():
    # M^k overflows int64 near |k| = 46; the orbit mod L must stay exact
    def exact(p, q, k, L):
        x, y = p, q
        for _ in range(abs(k)):
            x, y = ((2 * x + y) % L, (x + y) % L) if k > 0 else ((x - y) % L, (2 * y - x) % L)
        return 1.0 if (x, y) == (p % L, q % L) else 0.0
    for L in (60, 90):
        for k in (60, -60, 120, -120, 47, -50, 99):
            val = lattice_character_correlation(1, 0, k, L=L)
            assert abs(val - exact(1, 0, k, L)) <= 1e-12, (L, k)


def test_lattice_correlation_is_exact():
    # the lattice mean of a character is exactly 1 or 0, never rounding noise
    vals = [lattice_character_correlation(p, q, k, L=L)
            for (p, q) in ((1, 0), (0, 1), (2, 3)) for k in range(-20, 21) for L in (60, 64)]
    assert set(vals) == {0j, 1 + 0j}
    assert lattice_character_correlation(1, 0, 60, L=60) == 1.0


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


def test_orbit_csv_dump(tmp_path):
    from ehtlab.dynamics import orbit_to_csv
    rot = make_system("rotation", angle_turns="sqrt2")
    path = tmp_path / "orbit.csv"
    orbit_to_csv(rot, rotation_character(1), RotationPoint(0.2), 3, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "k,re,im"
    assert len(rows) == 8
    assert int(rows[1].split(",")[0]) == -3


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.int64)


def test_rotation_angles_match_remainder_reference():
    # the split-angle arithmetic with numpy's remainder, as a reference
    rot = make_system("rotation", angle_turns="sqrt2")
    hi = math.floor(SQRT2_TURNS * 2**26 + 0.5) / 2**26
    lo = SQRT2_TURNS - hi
    ks = np.arange(-3000, 3001, dtype=np.int64)
    for p in (RotationPoint(0.1), RotationPoint(0.999999), RotationPoint(0.25, shift=-41)):
        idx = ks + p.shift
        ref = ((idx * hi) % 1.0 + (idx * lo + p.t0)) % 1.0
        assert np.array_equal(_bits(rot.orbit_coords(p, ks)), _bits(ref))


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
        pts.append(LatticeTorusPoint(3, 7, 64))
    N = 6 if system == "torus_automorphism" else 700  # float torus orbits decay fast
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
