import itertools
import math
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from ehtlab import dynamics, numerics
from ehtlab.dynamics import (
    CyclePoint,
    RotationPoint,
    TorusPoint,
    cycle_step_observable,
    make_system,
    orbit_values,
    rotation_character,
    rotation_raised_cosine,
    sample_points,
    torus_character,
)
from ehtlab.numerics import _BLOCK_TERMS, checkpoint_blocks, checkpoint_sums
from ehtlab.sequences import (
    ModulatingSequence,
    from_values,
    named_sequence,
    transform_sequence,
)
from ehtlab import transform
from ehtlab.transform import (
    _maximal_sups,
    abel_identity_residual,
    cesaro_average_trace,
    default_checkpoints,
    eht_trace,
    l2_diff_vs_spectral,
    make_convergence_verdict,
    maximal_and_weak11,
    orbit_traces,
    wiener_wintner_sweep,
)

from conftest import piecewise_checkpoint_sums, reference_traces


# ------------------------------------------------- exact-rational Abel oracle

class QC:
    """Complex numbers with Fraction parts: exact field arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        return QC(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return QC(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return QC(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def over(self, k: int):
        return QC(self.re / k, self.im / k)

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im


def rational_abel_residual(avals, orbit, n) -> bool:
    """True when the summation-by-parts identity holds exactly in Q(i)."""
    N = len(orbit) // 2
    d = [avals[N + k] * orbit[N + k] - avals[N - k] * orbit[N - k] for k in range(1, n + 1)]
    direct = QC(0)
    for k in range(1, n + 1):
        direct = direct + d[k - 1].over(k)
    D = [QC(0)] * (n + 1)
    for k in range(1, n + 1):
        D[k] = D[k - 1] + d[k - 1]
    decomposed = QC(0)
    for k in range(1, n):
        decomposed = decomposed + D[k].over(k * (k + 1))
    decomposed = decomposed + D[n].over(n)
    return direct == decomposed


def test_abel_identity_exact_in_rationals():
    rng = np.random.default_rng(17)
    for trial in range(5):
        N = 20
        avals = [QC(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9))),
                    Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9))))
                 for _ in range(2 * N + 1)]
        orbit = [QC(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9))),
                    Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9))))
                 for _ in range(2 * N + 1)]
        for n in (2, 7, 20):
            assert rational_abel_residual(avals, orbit, n)


def test_abel_residual_float():
    rng = np.random.default_rng(3)
    n = 1000
    a = from_values(rng.uniform(-1, 1, 2 * n + 1) + 1j * rng.uniform(-1, 1, 2 * n + 1))
    orbit = rng.uniform(-1, 1, 2 * n + 1) + 1j * rng.uniform(-1, 1, 2 * n + 1)
    assert abel_identity_residual(a, orbit, n) <= 1e-10
    assert abel_identity_residual(a, np.zeros(2 * n + 1, complex), n) == 0.0
    one = named_sequence("constant", value=1.0)
    assert abel_identity_residual(one, np.ones(2 * n + 1, complex), n) == 0.0


def test_trace_constant_is_zero():
    # constant weights on a constant orbit cancel pairwise, exactly
    one = named_sequence("constant", value=0.5 + 0.25j)
    orbit = np.ones(201, dtype=complex)
    tr = eht_trace(one, orbit, [1, 10, 100])
    assert np.all(tr.H_values == 0)


def test_trace_odd_symmetry_null():
    # symmetric weights against an even orbit cancel exactly
    rng = np.random.default_rng(8)
    n = 64
    half = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    orbit = np.concatenate([half[::-1], [1.0 + 0j], half])
    a = transform_sequence(from_values(rng.standard_normal(2 * n + 1) + 0j), "symmetrize")
    tr = eht_trace(a, orbit, [4, 16, 64])
    assert np.all(tr.H_values == 0)


def test_three_cycle_closed_form():
    cyc = make_system("three_cycle")
    f = cycle_step_observable()
    seq = named_sequence("cycle_indicator")
    n = 400
    N = 3 * n + 1
    orbit = orbit_values(cyc, f, CyclePoint(0), N)
    tr = eht_trace(seq, orbit, [N])
    expected = 2.0 * sum(1.0 / (3 * m + 1) for m in range(n + 1))
    assert tr.H_values[0].real == pytest.approx(expected, abs=1e-12)
    assert tr.H_values[0].imag == 0.0


@pytest.mark.parametrize("convention", ["symmetric", "signed"])
def test_counterexample_digamma_closed_form(convention):
    # only k = 1 mod 3 carries weight: a_k = 1 and a_{-k} = s (+1 symmetric,
    # -1 signed), so on cell c every term is d / k with
    # d = step[(1+c)%3] - s * step[(2+c)%3] and, with M = (n-1)//3,
    # H_n = d * sum_{m<=M} 1/(3m+1) = (d/3) (psi(M + 4/3) - psi(1/3))
    from mpmath import mp

    cyc = make_system("three_cycle")
    f = cycle_step_observable()
    seq = named_sequence("cycle_indicator", convention=convention)
    s = 1 if convention == "symmetric" else -1
    step = cyc.STEP_VALUES
    cps = default_checkpoints(2 * 10**5, n_min=4)
    for cell in range(3):
        d = step[(1 + cell) % 3] - s * step[(2 + cell) % 3]
        tr = eht_trace(seq, orbit_values(cyc, f, CyclePoint(cell), cps[-1]), cps)
        assert np.all(tr.H_values.imag == 0)
        if d == 0:
            assert np.all(tr.H_values == 0), (convention, cell)
            continue
        with mp.workdps(30):
            expect = [float(d / mp.mpf(3) * (mp.digamma((n - 1) // 3 + mp.mpf(4) / 3)
                                             - mp.digamma(mp.mpf(1) / 3))) for n in cps]
        np.testing.assert_allclose(tr.H_values.real, expect, rtol=1e-12, atol=0)


def test_rotation_symmetric_modulation_closed_form():
    # weights lambda^|k| against an eigenfunction: the trace equals
    # f(x0) * sum ((phi lambda)^k - (conj(phi) lambda)^k) / k
    rot = make_system("rotation", angle_turns="sqrt2")
    f = rotation_character(1)
    lam = complex(np.exp(2j * np.pi * 0.31))
    x0 = RotationPoint(0.45)
    n = 1000
    orbit = orbit_values(rot, f, x0, n)
    seq = transform_sequence(
        transform_sequence(named_sequence("constant", value=1.0), "modulate", turns=0.31),
        "symmetrize")
    tr = eht_trace(seq, orbit, [n])
    phi = np.exp(2j * np.pi * rot.theta)
    ks = np.arange(1, n + 1)
    series = np.sum(((phi * lam) ** ks - (np.conj(phi) * lam) ** ks) / ks)
    expected = orbit[n] * series
    assert abs(tr.H_values[0] - expected) <= 1e-10 * (1 + abs(expected))


def test_incremental_matches_batch():
    rng = np.random.default_rng(21)
    n = 10_000
    a = from_values(rng.uniform(-1, 1, 2 * n + 1) + 1j * rng.uniform(-1, 1, 2 * n + 1))
    orbit = rng.uniform(-1, 1, 2 * n + 1) + 1j * rng.uniform(-1, 1, 2 * n + 1)
    cps = default_checkpoints(n, n_min=16)
    tr = eht_trace(a, orbit, cps)
    avals = a.range_values(n)
    for i, c in enumerate(cps):
        ks = np.arange(1, c + 1)
        batch = np.sum((avals[n + ks] * orbit[n + ks] - avals[n - ks] * orbit[n - ks]) / ks)
        assert abs(tr.H_values[i] - batch) <= 1e-11 * (1 + abs(batch))


def test_trace_validation_and_abel_parts():
    a = named_sequence("constant", value=1.0)
    orbit = np.ones(21, dtype=complex)
    with pytest.raises(ValueError):
        eht_trace(a, orbit, [5, 20])  # checkpoint beyond orbit radius
    with pytest.raises(ValueError):
        eht_trace(a, orbit, [7, 7])
    for bad in (np.ones(20, dtype=complex), np.ones((3, 7), dtype=complex)):
        with pytest.raises(ValueError, match="odd length"):
            eht_trace(a, bad, [2])
        with pytest.raises(ValueError, match="odd length"):
            abel_identity_residual(a, bad, 2)
    rng = np.random.default_rng(0)
    orbit = rng.standard_normal(21) + 1j * rng.standard_normal(21)
    tr = eht_trace(a, orbit, [2, 5, 10], with_abel=True)
    for H, (main, tail) in zip(tr.H_values, tr.abel_parts):
        assert abs(H - (main + tail)) <= 1e-10 * (1 + abs(H))


def test_every_schedule_is_validated_as_checkpoints():
    # as_checkpoints is the one validator: empty, nonpositive or unsorted
    # schedules are ValueErrors on every route, not IndexErrors
    a = named_sequence("constant", value=1.0)
    rot = make_system("rotation", angle_turns="sqrt2")
    for bad in ([], [0, 4], [8, 4]):
        with pytest.raises(ValueError, match="checkpoints must be"):
            l2_diff_vs_spectral(a, rot, rotation_character(1), bad, sample_count=2)
        with pytest.raises(ValueError, match="checkpoints must be"):
            cesaro_average_trace(a, rot, rotation_character(1), rot.default_point(), bad)
    # no default schedule is empty: a radius below n_min has no checkpoint
    assert default_checkpoints(4, n_min=4) == (4,)
    for n_max in (3, 0, -5):
        with pytest.raises(ValueError, match="no checkpoint lies in"):
            default_checkpoints(n_max, n_min=4)


def test_convergence_verdict_shapes():
    cps = default_checkpoints(1 << 12, n_min=16)
    n = np.asarray(cps, float)
    cauchy = make_convergence_verdict(cps, 1.0 / n + 0j)
    assert cauchy.verdict == "cauchy_trend"
    grow = make_convergence_verdict(cps, np.log(n) + 0j)
    assert grow.verdict == "diverging"
    assert grow.growth_fit.model == "log n"
    assert grow.growth_fit.coefficient == pytest.approx(1.0, rel=1e-6)
    flat = make_convergence_verdict(cps, np.zeros(len(cps), complex))
    assert flat.verdict == "cauchy_trend"
    # bounded but non-shrinking oscillation stays inconclusive
    wobble = make_convergence_verdict(cps, np.cos(np.arange(len(cps))) + 0j)
    assert wobble.verdict == "inconclusive"


def test_convergence_verdict_three_windows():
    # 16..128 holds exactly three dyadic windows, which the verdict grades on
    # the last window against the two before it
    cps = default_checkpoints(128, n_min=16)
    n = np.asarray(cps, float)
    alternating = 1.0 + 0.3 * (-1.0) ** np.arange(len(cps))
    for H, expect in ((1.0 + 1.0 / n, "cauchy_trend"),
                      (alternating, "inconclusive"),
                      (np.log(n), "diverging")):
        v = make_convergence_verdict(cps, H + 0j)
        assert len(v.oscillations) == 3
        assert v.verdict == expect


def test_wiener_wintner_sweep_verdicts():
    rot = make_system("rotation", angle_turns="sqrt2")
    f = rotation_character(1)
    cps = default_checkpoints(10**5, n_min=64)
    rows = wiener_wintner_sweep(rot, f, rot.default_point(), [-rot.theta, 0.17, 0.0], cps,
                                symmetric=True)
    assert rows[0]["verdict"].verdict == "diverging"
    fit = rows[0]["verdict"].growth_fit
    assert fit.model == "log n" and abs(fit.coefficient - 1.0) <= 0.1
    assert rows[1]["verdict"].verdict == "cauchy_trend"
    assert rows[1]["verdict"].oscillations[-1][2] < 1e-2
    # lambda = 1 symmetric weights on an eigenfunction still converge...
    assert rows[2]["verdict"].verdict == "cauchy_trend"

    # ...and with f constant every term vanishes identically
    from ehtlab.dynamics import constant_observable
    ones = constant_observable("rotation", 1.0)
    rows_const = wiener_wintner_sweep(rot, ones, rot.default_point(), [0.0],
                                      default_checkpoints(1 << 10), symmetric=True)
    assert np.all(rows_const[0]["trace"].H_values == 0)


def test_two_sided_sweep_always_settles():
    # two-sided modulation pairs k with -k into 2i Im((lam phi)^k)/k, which
    # settles for every lambda, including the symmetric-resonant one
    rot = make_system("rotation", angle_turns="sqrt2")
    f = rotation_character(1)
    cps = default_checkpoints(10**5, n_min=64)
    rows = wiener_wintner_sweep(rot, f, rot.default_point(), [-rot.theta, 0.41], cps,
                                symmetric=False)
    assert all(r["verdict"].verdict == "cauchy_trend" for r in rows)


def test_maximal_zero_function():
    rot = make_system("rotation", angle_turns="sqrt2")
    from ehtlab.dynamics import constant_observable
    zero = constant_observable("rotation", 0.0)
    out = maximal_and_weak11(named_sequence("sparse_dyadic"), rot, zero,
                             [0.5, 1, 2, 4], N=512, sample_count=64, seed=5)
    assert all(row["empirical_tail"] == 0.0 for row in out["tails"])


def test_maximal_three_cycle_tails():
    cyc = make_system("three_cycle")
    f = cycle_step_observable()
    seq = named_sequence("cycle_indicator")
    out = maximal_and_weak11(seq, cyc, f, [1.0, 4.0, 5.0, 8.0], N=10**5,
                             sample_count=900, seed=12)
    tails = {row["lambda"]: row["empirical_tail"] for row in out["tails"]}
    # every cell's sums blow up, so small thresholds catch everything...
    assert tails[1.0] == pytest.approx(1.0)
    # ...at 5 only the first cell (measure 1/3) has cleared the bar by n = 1e5
    assert abs(tails[5.0] - 1.0 / 3.0) <= 0.05
    assert tails[5.0] >= 1.0 / 3.0 - 0.05
    assert tails[8.0] <= tails[5.0]
    for row in out["tails"]:
        assert row["bound_ratio"] == pytest.approx(
            row["empirical_tail"] * row["lambda"] / f.norm("l1"))


def test_maximal_sparse_on_rotation_recorded():
    rot = make_system("rotation", angle_turns="sqrt2")
    f = rotation_character(1)
    out = maximal_and_weak11(named_sequence("sparse_dyadic"), rot, f,
                             [0.5, 1, 2, 4], N=1 << 12, sample_count=256, seed=4)
    ratios = [row["bound_ratio"] for row in out["tails"]]
    assert all(np.isfinite(r) for r in ratios)  # recorded, not asserted


def _reference_terms(a, sys_, f, p, N):
    """The per-sample loop's terms d_k / k, k = 1..N: one fresh orbit and fresh weight slices."""
    orbit = orbit_values(sys_, f, p, N)
    avals = a.range_values(N)
    d = avals[N + 1 :] * orbit[N + 1 :] - avals[N - 1 :: -1] * orbit[N - 1 :: -1]
    return d / np.arange(1, N + 1, dtype=float)


def _reference_sups(a, sys_, f, pts, N):
    """The per-sample loop: max |np.cumsum| of each point's own terms."""
    return np.array([float(np.max(np.abs(np.cumsum(_reference_terms(a, sys_, f, p, N)))))
                     for p in pts])


def _fsum_prefixes(xs):
    """math.fsum(xs[:n]) for n = 1..len(xs), from Shewchuk's exact partials grown term by term."""
    partials, out = [], []
    for x in xs:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
        out.append(math.fsum(partials))
    return np.array(out)


def _fsum_sups(a, sys_, f, pts, N):
    """max_n |H_n| of each point, with its terms' prefix sums correctly rounded (`math.fsum`)."""
    sups = []
    for p in pts:
        t = _reference_terms(a, sys_, f, p, N)
        sups.append(float(np.max(np.abs(_fsum_prefixes(t.real) + 1j * _fsum_prefixes(t.imag)))))
    return np.array(sups)


def _series_sup_bound(a, f, N):
    """A bound on |sup_n |H_n| - the fsum reference's| for the shared-trace route on a rotation.

    With u = 2^-53, S = sum |c_m| >= ||f||_inf over the declared series, M = max(1, |m|)
    and W = sum_{k<=N} (|a_k| + |a_{-k}|) / k, every term of each frequency trace is
    at most (|a_k| + |a_{-k}|) / k (1 + O(M u)):
    - each trace's prefix is one sequential cumsum, within gamma_{N-1} = (N - 1) u /
      (1 - (N - 1) u) <= N u of its terms' sum times the sum of their moduli (per component,
      then Minkowski), so the weighted traces carry at most N u S W;
    - a term of either side is within 64 M u S (|a_k| + |a_{-k}|) / k of the exact term:
      24 u of the phase kernel per factor e(k theta) and e(shift theta) of z^m, sqrt(5) u per
      complex product (anchor, powers, weights, a_k v_k), u per sum or difference, fl(1/k);
    - the combination sum_m w_m P_m (a product and a sum per term), |.| and the reference's
      correctly rounded fsum add at most 8 u S W.
    So the sups differ by at most u S W (N + 8 + 128 M) <= u S W (N + 136 M), of which N is
    the worst case of the sequential sums; it is derived from the arithmetic above, not
    fitted to the data.
    """
    series = f.meta["series"]
    S = sum(abs(c) for c in series.values())
    M = max(1, *(abs(m) for m in series))
    avals = np.abs(a.range_values(N))
    W = math.fsum((avals[N + 1 :] + avals[N - 1 :: -1]) / np.arange(1, N + 1))
    return 2.0**-53 * S * W * (N + 136 * M)


@pytest.mark.parametrize("system, observable, seq", [
    ("rotation", rotation_raised_cosine(), "hardy_littlewood"),
    ("rotation", rotation_character(2), "sparse_dyadic"),
    ("three_cycle", cycle_step_observable(), "cycle_indicator"),
    ("torus_automorphism", torus_character(1, 2), "hardy_littlewood"),
])
def test_maximal_sups_match_per_sample_loop_bitwise(system, observable, seq, monkeypatch):
    # the 3-cycle and the torus are bitwise the per-sample loop; a rotation's declared
    # series sums shared frequency traces instead, within a derived bound of math.fsum
    sys_ = make_system(system)
    a = named_sequence(seq)
    N, count, seed = 3000, 40, 8
    pts = sample_points(sys_, count, seed)
    if system == "rotation":
        pts.append(RotationPoint(0.3, shift=-23))  # off the shared turn table
        ref, tol = _fsum_sups(a, sys_, observable, pts, N), _series_sup_bound(a, observable, N)
    else:
        if system == "torus_automorphism":
            pts += [TorusPoint(3 << 47, 7 << 47), TorusPoint((1 << 53) - 1, 1)]
        ref, tol = _reference_sups(a, sys_, observable, pts, N), None
    for block_terms in (numerics._BLOCK_TERMS, 512):  # one block, then six, the last partial
        monkeypatch.setattr(numerics, "_BLOCK_TERMS", block_terms)
        got = _maximal_sups(a, sys_, observable, pts, N)[0]
        if tol is None:
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        else:
            assert np.max(np.abs(got - ref)) <= tol
    out = maximal_and_weak11(a, sys_, observable, [0.5, 1.0, 2.0], N, count, seed)
    ref, want = ref[:count], {"rotation": len(observable.meta.get("series", ())),
                              "three_cycle": 3}.get(system, count)
    quantiles = [float(q) for q in np.quantile(ref, [0.0, 0.5, 0.9, 1.0])]
    if tol is None:
        assert out["sup_quantiles"] == quantiles
    else:
        assert np.max(np.abs(np.subtract(out["sup_quantiles"], quantiles))) <= tol
    assert [row["empirical_tail"] for row in out["tails"]] == [
        float(np.mean(ref > lam)) for lam in (0.5, 1.0, 2.0)]
    assert out["basis_traces"] == want


def test_maximal_sups_keep_a_nan(monkeypatch):
    # one point meets a NaN in its fourth block; its later prefixes are NaN too
    monkeypatch.setattr(numerics, "_BLOCK_TERMS", 512)
    rot = make_system("rotation", angle_turns="sqrt2")
    pts = [RotationPoint(0.3), RotationPoint(0.7)]
    bad = rot.orbit_coords(pts[0], np.array([1800]))[0]
    f = dynamics.Observable("nan_once", "rotation",
                            lambda t: np.where(t == bad, np.nan, np.cos(2 * np.pi * t)) + 0j,
                            {"l1": 1.0})
    a = named_sequence("hardy_littlewood")
    ref = _reference_sups(a, rot, f, pts, 3000)
    assert np.isnan(ref[0]) and np.isfinite(ref[1])
    got = _maximal_sups(a, rot, f, pts, 3000)[0]
    assert np.isnan(got[0]) and got[1] == ref[1]


def test_series_route_never_evaluates_the_observable():
    # a rotation observable with a declared series is summed from the shared frequency
    # traces: its coord_fn is never called, and no index m k meets the exact-angle range
    def boom(z):
        raise AssertionError("coord_fn called on the series route")
    rot = make_system("rotation", angle_turns="sqrt2")
    a = named_sequence("hardy_littlewood")
    pts = sample_points(rot, 8, seed=2) + [RotationPoint(0.3, shift=-23)]
    for f in (rotation_raised_cosine(), rotation_character(3), rotation_character(-2),
              dynamics.constant_observable("rotation", 0.5 - 0.25j)):
        blind = replace(f, coord_fn=boom)
        got = _maximal_sups(a, rot, blind, pts, 1000)[0]
        ref = _fsum_sups(a, rot, f, pts, 1000)
        assert np.max(np.abs(got - ref)) <= _series_sup_bound(a, f, 1000), f.label
        out = maximal_and_weak11(a, rot, blind, [1.0], 1000, 8, seed=2)
        assert out["basis_traces"] == len(f.meta["series"])
    # m N = 5000 * 2^15 is beyond 2^27, but each index is |k| <= N; the reference here
    # is the per-sample np.cumsum, a sequential sum too, so the bound counts that twice
    f, N = rotation_character(5000), 1 << 15
    assert 5000 * N >= numerics.MAX_PHASE_INDEX
    got = _maximal_sups(a, rot, replace(f, coord_fn=boom), pts[:2], N)[0]
    ref = _reference_sups(a, rot, f, pts[:2], N)
    assert np.max(np.abs(got - ref)) <= 2 * _series_sup_bound(a, f, N)


def test_overflowing_shared_traces_leave_the_points_own_sums_to_decide():
    # a_{+-k} near 1.5e308 against f = 1e-10: the frequency-0 trace sums a_k - a_{-k},
    # which overflows, while every point's own terms 1e-10 (a_k - a_{-k}) stay finite
    rot = make_system("rotation", angle_turns="sqrt2")
    a = transform_sequence(named_sequence("hardy_littlewood"), "scale", c=1.5e308)
    f = dynamics.constant_observable("rotation", 1e-10)
    pts = sample_points(rot, 4, seed=1)
    assert not np.isfinite(_maximal_sups(a, rot, f, pts, 64)[0]).all()
    out = maximal_and_weak11(a, rot, f, [1e297], 64, 4, seed=1)
    ref = _reference_sups(a, rot, f, pts, 64)
    assert out["sup_quantiles"] == [float(q) for q in np.quantile(ref, [0.0, 0.5, 0.9, 1.0])]
    assert out["basis_traces"] == 4


def test_maximal_sups_stay_small_in_memory():
    # whole rows, the range memo and N-length buffers took 17.6 MB here
    rot = make_system("rotation", angle_turns="sqrt2")
    pts = sample_points(rot, 16, seed=3)
    a = named_sequence("hardy_littlewood")
    tracemalloc.start()
    try:
        _maximal_sups(a, rot, rotation_raised_cosine(), pts, 10**5)
        assert tracemalloc.get_traced_memory()[1] < 4 * 2**20
    finally:
        tracemalloc.stop()


def test_cesaro_average_decay(sparse_dyadic):
    rot = make_system("rotation", angle_turns="sqrt2")
    f = rotation_character(1)
    cps = [2**j for j in range(6, 15)]
    avg = cesaro_average_trace(sparse_dyadic, rot, f, rot.default_point(), cps)
    mags = np.abs(avg)
    assert mags[-1] < 0.02 and mags[-1] < mags[0]


def test_l2_rotation_signed_closed_form():
    # two-sided weights: the block-difference norm follows the signed sum
    rot = make_system("rotation", angle_turns="sqrt2")
    f = rotation_character(1)
    one = named_sequence("constant", value=1.0)
    res = l2_diff_vs_spectral(one, rot, f, [5, 20, 80], sample_count=64, seed=2)
    phi = np.exp(2j * np.pi * rot.theta)
    for row in res["rows"]:
        j = row["j"]
        ks = np.arange(1, j + 1)
        signed = abs(np.sum(phi**ks - phi ** (-ks)))
        assert row["spectral_value"] == pytest.approx(signed, abs=1e-10)
        assert row["mc_norm"] == pytest.approx(row["spectral_value"], abs=1e-8)


def test_l2_rotation_one_sided_matches_plain_sum():
    # one-sided weights: signed and plain sums coincide, pointwise modulus
    # is constant so any sample count reproduces the exact norm
    rot = make_system("rotation", angle_turns="sqrt2")
    f = rotation_character(2)
    rng = np.random.default_rng(7)
    n = 256
    vals = np.zeros(2 * n + 1, complex)
    vals[n + 1 :] = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    a = from_values(vals, label="one_sided_random", one_sided=True)
    res = l2_diff_vs_spectral(a, rot, f, [16, 64, 256], sample_count=32, seed=1)
    phi_m = complex(np.exp(2j * np.pi * ((2 * rot.theta) % 1.0)))
    avals = a.range_values(n)
    for row in res["rows"]:
        j = row["j"]
        ks = np.arange(1, j + 1)
        plain = abs(np.sum(avals[n + ks] * phi_m**ks))
        rel = abs(row["mc_norm"] - plain) / (1 + plain)
        assert rel <= 1e-8


def test_l2_torus_exact_lattice():
    tor = make_system("torus_automorphism")
    f = torus_character(1, 0)
    a = named_sequence("cycle_indicator")
    res = l2_diff_vs_spectral(a, tor, f, [16, 64, 256], seed=0)
    assert res["exact"]
    for row in res["rows"]:
        rel = abs(row["mc_norm"] - row["spectral_value"]) / (1 + row["spectral_value"])
        assert rel <= 1e-8
        # sqrt of sum of |a_k|^2 over 1 <= |k| <= j
        j = row["j"]
        expect = math.sqrt(2 * ((j + 2) // 3))
        assert row["spectral_value"] == pytest.approx(expect)


def test_l2_torus_exact_deep_truncations():
    # the grouped lattice quadrature is exact at every depth, under the sqrt(2j) cap
    tor = make_system("torus_automorphism")
    f = torus_character(1, 0)
    a = named_sequence("cycle_indicator")
    res = l2_diff_vs_spectral(a, tor, f, [1 << 12, 1 << 14])
    assert res["exact"]
    for row in res["rows"]:
        j = row["j"]
        closed = math.sqrt(2 * ((j + 2) // 3))
        assert abs(row["mc_norm"] - closed) / (1 + closed) <= 1e-8
        assert row["mc_norm"] <= math.sqrt(2 * j)


def test_l2_torus_collision_certificate(monkeypatch):
    # a lattice whose orbit period is below 2 jmax folds frequencies together,
    # so its average is no longer the Lebesgue integral: refuse it
    monkeypatch.setattr(transform, "_pisano_lattice_order", lambda jmax: 8)
    tor = make_system("torus_automorphism")
    with pytest.raises(ValueError, match="collide"):
        l2_diff_vs_spectral(named_sequence("cycle_indicator"), tor, torus_character(1, 0),
                            [4, 16], seed=0)


def test_l2_rejects_unsupported_observable():
    rot = make_system("rotation", angle_turns="sqrt2")
    from ehtlab.dynamics import rotation_raised_cosine
    with pytest.raises(ValueError):
        l2_diff_vs_spectral(named_sequence("constant"), rot, rotation_raised_cosine(),
                            [4], sample_count=8, seed=0)


def test_l2_rotation_streams_like_whole_rows(monkeypatch):
    # small blocks, so each sample's sums are carried across several of them
    monkeypatch.setattr(numerics, "_BLOCK_TERMS", 512)
    rot = make_system("rotation", angle_turns="sqrt2")
    f, m = rotation_character(2), 2
    a = named_sequence("hardy_littlewood")
    js, count, seed = default_checkpoints(2500, n_min=4), 24, 3
    assert len(list(checkpoint_blocks(np.asarray(js)))) >= 3
    res = l2_diff_vs_spectral(a, rot, f, js, sample_count=count, seed=seed)

    J = js[-1]
    avals = a.range_values(J)
    pos, neg = avals[J + 1 :], avals[J - 1 :: -1]
    acc = np.zeros(len(js))
    for p in sample_points(rot, count, seed):
        row = orbit_values(rot, f, p, J)
        acc += np.abs(checkpoint_sums(pos * row[J + 1 :] - neg * row[J - 1 :: -1], js)) ** 2
    mc = np.sqrt(acc / count)
    pows = rot.phases(m * np.arange(1, J + 1))  # e(m k theta) at the exact index m k
    spectral = np.abs(checkpoint_sums(pos * pows - neg * np.conj(pows), js)) * f.norm("l2")
    got = np.array([[r["mc_norm"], r["spectral_value"]] for r in res["rows"]])
    assert np.array_equal(got.view(np.int64), np.stack([mc, spectral], axis=1).view(np.int64))


def test_l2_zero_sequence():
    rot = make_system("rotation", angle_turns="sqrt2")
    zero = named_sequence("constant", value=0.0)
    res = l2_diff_vs_spectral(zero, rot, rotation_character(1), [4, 16],
                              sample_count=16, seed=0)
    for row in res["rows"]:
        assert row["mc_norm"] == 0.0 and row["spectral_value"] == 0.0


# ------------------------------------------------------------ streamed traces

def _bits(x):
    return np.asarray(x, dtype=complex).view(np.int64)


def _three_block_checkpoints(block_terms=_BLOCK_TERMS):
    # the last checkpoint spans at least three blocks of the plan
    cps = default_checkpoints(4 * block_terms, n_min=4)
    assert len(list(checkpoint_blocks(np.asarray(cps)))) >= 3
    return cps


def _whole_array_numerators(a, orbit):
    """d_k = a_k v_k - a_{-k} v_{-k}, k = 1..N, from the whole range and the whole orbit."""
    N = orbit.size // 2
    avals = a.range_values(N)
    return avals[N + 1 :] * orbit[N + 1 :] - avals[N - 1 :: -1] * orbit[N - 1 :: -1]


def _whole_array_abel(a, orbit, cps):
    """The summation-by-parts halves as one whole-range pass forms them."""
    D = np.cumsum(_whole_array_numerators(a, orbit))
    ks = np.arange(1, D.size + 1, dtype=float)
    mains = checkpoint_sums(D / (ks * (ks + 1.0)), np.asarray(cps) - 1)
    return [(complex(m), complex(D[n - 1] / n)) for m, n in zip(mains, cps)]


def _streamed(seqs, sys_, f, anchors, cps, **kw):
    """`orbit_traces` of the sequences against one orbit row per anchor."""
    return orbit_traces(seqs, dynamics.orbit_pairs(sys_, f, anchors, cps[-1]), cps, **kw)


def test_overflowing_sums_raise_without_warnings():
    # pytest turns a RuntimeWarning into an error, so an overflow must stay silent
    # until the non-finite sums raise OverflowError
    rot, f = make_system("rotation", angle_turns="sqrt2"), rotation_raised_cosine()
    huge, x0 = named_sequence("constant", value=1e308), rot.default_point()
    for with_abel in (True, False):
        with pytest.raises(OverflowError, match="non-finite"):
            _streamed([huge], rot, f, [x0], (16, 64), with_abel=with_abel)
    with pytest.raises(OverflowError, match="non-finite"):
        maximal_and_weak11(huge, rot, f, [1.0], 64, 4, seed=0)
    with pytest.raises(ValueError, match="finite"):
        maximal_and_weak11(named_sequence("constant"), rot, f, [1.0, math.nan], 64, 4, seed=0)
    with pytest.raises(OverflowError, match="non-finite"):
        cesaro_average_trace(named_sequence("constant", value=1e306), rot, f, x0, (1 << 12,))
    with pytest.raises(OverflowError, match="non-finite"):
        l2_diff_vs_spectral(huge, rot, rotation_character(1), [16, 64], sample_count=2)
    # D_n overflows at the checkpoint n alone, so H_n and the main part stay finite
    # and the tail must raise before the identity check
    n, table = 8, np.zeros(17)
    table[n + n - 1 :] = 1e308
    with pytest.raises(OverflowError, match="non-finite"):
        eht_trace(from_values(table), np.ones(2 * n + 1, dtype=complex), [n], with_abel=True)


def _assert_streams_like_eht_trace(seqs, sys_, f, anchors, cps):
    traces = _streamed(seqs, sys_, f, anchors, cps)
    assert len(traces) == len(anchors) * len(seqs)
    # row-major: anchor r against sequence s is trace r * len(seqs) + s
    for (x0, a), trace in zip(itertools.product(anchors, seqs), traces):
        # the whole-array sums: whole range, whole orbit, one checkpoint_sums
        d = _whole_array_numerators(a, orbit_values(sys_, f, x0, cps[-1]))
        want = checkpoint_sums(d / np.arange(1, d.size + 1, dtype=complex), cps)
        assert trace.checkpoints == tuple(cps) and trace.abel_parts is None
        assert np.array_equal(_bits(trace.H_values), _bits(want))


@pytest.mark.parametrize("f", [rotation_character(1), rotation_raised_cosine()])
def test_orbit_traces_match_eht_trace_on_rotations(f):
    rot = make_system("rotation", angle_turns="sqrt2")
    modulated = transform_sequence(
        transform_sequence(named_sequence("constant"), "modulate", turns=0.17), "symmetrize")
    seqs = [named_sequence("hardy_littlewood"), modulated]
    anchors = [RotationPoint(0.1), RotationPoint(0.37, shift=-41)]
    _assert_streams_like_eht_trace(seqs, rot, f, anchors, _three_block_checkpoints())


def test_orbit_traces_match_eht_trace_on_every_three_cycle_cell():
    cyc = make_system("three_cycle")
    seqs = [named_sequence("cycle_indicator", convention=conv) for conv in ("symmetric", "signed")]
    _assert_streams_like_eht_trace(seqs, cyc, cycle_step_observable(),
                                   [CyclePoint(cell) for cell in range(3)],
                                   _three_block_checkpoints())


def test_orbit_traces_match_eht_trace_on_torus_points():
    torus = make_system("torus_automorphism")
    _assert_streams_like_eht_trace([named_sequence("hardy_littlewood")], torus,
                                   torus_character(1, 2),
                                   [torus.default_point(), TorusPoint(3 << 47, 7 << 47)],
                                   _three_block_checkpoints())


def _first_block_end(cps):
    return next(checkpoint_blocks(np.asarray(cps)))[3]


@pytest.mark.parametrize("broken", ["bound", "symmetric", "finite", "a0_one_sided"])
def test_orbit_traces_check_the_flags_like_range_values(broken):
    cps = _three_block_checkpoints()
    past = _first_block_end(cps) + 1000  # flags break only past the first block

    def fn(ks):
        out = np.ones(ks.shape, dtype=complex)
        far = np.abs(ks) > past
        if broken == "bound":
            out[far] = 2.0
        elif broken == "symmetric":
            out[far & (ks < 0)] = -1.0
        elif broken == "finite":
            out[far] = np.inf
        else:
            out[ks < 0] = 0.0
        return out

    flags = {"bound": dict(bound=1.0), "symmetric": dict(bound=1.0, symmetric=True),
             "finite": dict(bound=None), "a0_one_sided": dict(bound=1.0, one_sided=True)}
    a = ModulatingSequence(f"broken[{broken}]", fn, **flags[broken])
    with pytest.raises(Exception) as ref:
        a.range_values(cps[-1])
    rot = make_system("rotation", angle_turns="sqrt2")
    f = rotation_character(1)
    with pytest.raises(ref.type):
        _streamed([a], rot, f, [rot.default_point()], cps)
    with pytest.raises(ref.type):
        _maximal_sups(a, rot, f, sample_points(rot, 2, seed=1), cps[-1])
    with pytest.raises(ref.type):
        l2_diff_vs_spectral(a, rot, f, cps, sample_count=2)
    if broken != "a0_one_sided":  # the flags hold on the first block
        a.pair_values(np.arange(0, past + 1))


@pytest.mark.parametrize("later_rows", [0, 1, 3])
def test_orbit_traces_reject_a_source_whose_row_count_changes(later_rows, monkeypatch):
    # blocks (0, 5] and (5, 10]: the first yields two rows, the second later_rows
    monkeypatch.setattr(numerics, "_BLOCK_TERMS", 4)
    pos, neg = np.ones(10, dtype=complex), np.ones(10, dtype=complex)

    def rows(lo, hi):
        return ((pos[lo:hi], neg[lo:hi]) for _ in range(2 if lo == 0 else later_rows))
    seqs = [named_sequence("constant"), named_sequence("hardy_littlewood")]
    with pytest.raises(ValueError, match="rows"):
        orbit_traces(seqs, rows, [5, 10])
    with pytest.raises(ValueError, match="rows"):
        orbit_traces(seqs, rows, [5, 10], with_abel=True)


def test_orbit_traces_hold_one_row_at_a_time():
    # a block's rows are never alive together: each is released before the
    # source makes the next, so a block costs one row however many there are
    made = []

    def rows(lo, hi):
        for _ in range(3):
            assert all(ref() is None for ref in made), "the previous row is still alive"
            row = (np.ones(hi - lo, dtype=complex), np.ones(hi - lo, dtype=complex))
            made[:] = [weakref.ref(v) for v in row]
            yield row
            del row
    traces = orbit_traces([named_sequence("constant"), named_sequence("hardy_littlewood")],
                          rows, [5, 10], with_abel=True)
    assert len(traces) == 6


def test_streamed_paths_keep_the_exact_angle_guard(monkeypatch):
    rot = make_system("rotation", angle_turns="sqrt2")
    f = rotation_character(1)
    a = named_sequence("hardy_littlewood")
    monkeypatch.setattr(dynamics, "_MAX_SHIFT", 64)

    def reached(self, x0, ks):
        raise AssertionError("orbit_coords reached before the exact-angle guard")
    monkeypatch.setattr(dynamics.Rotation, "orbit_coords", reached)
    cases = [
        lambda: orbit_values(rot, f, RotationPoint(0.3), 64),
        lambda: orbit_values(rot, f, RotationPoint(0.3, shift=60), 4),
        lambda: wiener_wintner_sweep(rot, f, RotationPoint(0.3), [0.25], (16, 64), True),
        lambda: wiener_wintner_sweep(rot, f, RotationPoint(0.3, shift=-1), [0.25], (63,), False),
        lambda: _streamed([a], rot, f, [RotationPoint(0.3), RotationPoint(0.3, shift=-60)],
                          (2, 4)),
        lambda: _maximal_sups(a, rot, f, [RotationPoint(0.3), RotationPoint(0.3, shift=-60)], 4),
    ]
    for case in cases:
        with pytest.raises(ValueError, match="exact-angle range"):
            case()


def test_long_orbit_sums_stay_small_in_memory():
    # numpy reports its buffers to tracemalloc; holding the whole orbit,
    # sequence range and term arrays took 107 MB for the cell below
    budget = 24 * 2**20
    cyc = make_system("three_cycle")
    tracemalloc.start()
    try:
        _streamed([named_sequence("cycle_indicator")], cyc, cycle_step_observable(),
                  [CyclePoint(0)], default_checkpoints(10**6, n_min=4))
        assert tracemalloc.get_traced_memory()[1] < budget
        tracemalloc.reset_peak()
        # the Abel split streams too: no whole-range D or main-term arrays
        _streamed([named_sequence("cycle_indicator")], cyc, cycle_step_observable(),
                  [CyclePoint(1)], default_checkpoints(10**6, n_min=4), with_abel=True)
        assert tracemalloc.get_traced_memory()[1] < budget
        tracemalloc.reset_peak()
        rot = make_system("rotation", angle_turns="sqrt2")
        wiener_wintner_sweep(rot, rotation_character(1), rot.default_point(),
                             [-rot.theta, 0.17, 0.35, 0.71],
                             default_checkpoints(1 << 20, n_min=64), symmetric=True)
        assert tracemalloc.get_traced_memory()[1] < budget
    finally:
        tracemalloc.stop()


def _block_edge_checkpoints(block_terms):
    # 1, 2 and each of the first three block ends -1/0/+1, then a partial block
    edges = [e + t for e in (block_terms, 2 * block_terms, 3 * block_terms) for t in (-1, 0, 1)]
    return [1, 2] + edges + [3 * block_terms + 400]


def _abel_case(system):
    """The system, observable, sequences and anchors of the streamed Abel checks."""
    if system == "rotation":
        return (make_system("rotation", angle_turns="sqrt2"), rotation_raised_cosine(),
                [named_sequence("hardy_littlewood"), named_sequence("sparse_dyadic")],
                [RotationPoint(0.1), RotationPoint(0.37, shift=-41)])
    # every cell and convention, the cells whose terms cancel exactly included
    return (make_system("three_cycle"), cycle_step_observable(),
            [named_sequence("cycle_indicator", convention=conv) for conv in ("symmetric", "signed")],
            [CyclePoint(cell) for cell in range(3)])


@pytest.mark.parametrize("system", ["rotation", "three_cycle"])
def test_streamed_abel_parts_match_the_whole_array_formula(system, monkeypatch):
    monkeypatch.setattr(numerics, "_BLOCK_TERMS", 512)
    cps = _block_edge_checkpoints(512)
    assert len(list(checkpoint_blocks(np.asarray(cps)))) >= 3
    sys_, f, seqs, anchors = _abel_case(system)
    streamed = _streamed(seqs, sys_, f, anchors, cps, with_abel=True)
    for (x0, a), trace in zip(itertools.product(anchors, seqs), streamed):
        orbit = orbit_values(sys_, f, x0, cps[-1])
        want = _whole_array_abel(a, orbit, cps)
        assert np.array_equal(_bits(trace.abel_parts), _bits(want))
        via_array = eht_trace(a, orbit, cps, with_abel=True)
        assert np.array_equal(_bits(via_array.abel_parts), _bits(want))
        assert np.array_equal(_bits(via_array.H_values), _bits(trace.H_values))


@pytest.mark.parametrize("system", ["rotation", "three_cycle"])
def test_streamed_sums_merge_the_pieces_of_a_long_gap(system, monkeypatch):
    # gaps of 1500 and 2600 terms are cut into 512-term pieces, blocks without ends
    monkeypatch.setattr(numerics, "_BLOCK_TERMS", 512)
    cps = [1, 2, 1502, 1503, 4103, 4200]
    blocks = list(checkpoint_blocks(np.asarray(cps)))
    assert max(hi - lo for _, _, lo, hi in blocks) == 512 and any(i == j for i, j, _, _ in blocks)
    sys_, f, seqs, anchors = _abel_case(system)
    streamed = _streamed(seqs, sys_, f, anchors, cps, with_abel=True)
    for (x0, a), trace in zip(itertools.product(anchors, seqs), streamed):
        orbit = orbit_values(sys_, f, x0, cps[-1])
        d = _whole_array_numerators(a, orbit)
        want = piecewise_checkpoint_sums(d / np.arange(1, d.size + 1, dtype=complex), cps)
        assert np.array_equal(_bits(trace.H_values), _bits(want))
        # D_k is one sequential cumsum whatever the plan, so the tails keep their bits
        whole = _whole_array_abel(a, orbit, cps)
        assert np.array_equal(_bits([t for _, t in trace.abel_parts]), _bits([t for _, t in whole]))
        for (main, _), (whole_main, _) in zip(trace.abel_parts, whole):
            assert main == pytest.approx(whole_main, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("system", ["rotation", "three_cycle", "torus_automorphism"])
def test_streamed_cesaro_average_matches_the_whole_array_one(system, monkeypatch):
    monkeypatch.setattr(numerics, "_BLOCK_TERMS", 512)
    if system == "torus_automorphism":
        sys_, f = make_system(system), torus_character(1, 2)
        seqs, anchors = [named_sequence("hardy_littlewood")], [
            sys_.default_point(), *sample_points(sys_, 2, seed=5)]
    else:
        sys_, f, seqs, anchors = _abel_case(system)
    # every gap fits in a block; then gaps of 1500 and 2600 terms are cut into pieces
    for cps, fits in ((_block_edge_checkpoints(512), True),
                      ([1, 2, 1502, 1503, 4103, 4200], False)):
        N = cps[-1]
        for x0, a in itertools.product(anchors, seqs):
            terms = a.range_values(N)[N:] * orbit_values(sys_, f, x0, N)[N:]
            sums = checkpoint_sums(terms, cps) if fits else piecewise_checkpoint_sums(terms, cps)
            got = cesaro_average_trace(a, sys_, f, x0, cps)
            assert np.array_equal(_bits(got), _bits(sums / np.asarray(cps)))


def _cell_traces_peak(N, with_abel):
    """The tracemalloc peak of the counterexample's three cells at checkpoints up to N."""
    cps = default_checkpoints(N, n_min=4)
    tracemalloc.start()
    try:
        _streamed([named_sequence("cycle_indicator")], make_system("three_cycle"),
                  cycle_step_observable(), [CyclePoint(cell) for cell in range(3)], cps,
                  with_abel=with_abel)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("with_abel", [False, True])
def test_orbit_traces_working_set_is_flat_in_N(with_abel):
    # the checkpoint gaps near 2^21 hold about 94550 terms; a block of a whole
    # gap peaked at 16.8 MB there against 2.6 MB at 2^17
    assert _cell_traces_peak(1 << 21, with_abel) <= 1.25 * _cell_traces_peak(1 << 17, with_abel)


@pytest.mark.parametrize("with_abel", [False, True])
@pytest.mark.parametrize("system", ["rotation", "three_cycle", "torus_automorphism"])
def test_orbit_traces_match_the_division_reference(system, with_abel):
    # terms d_k fl(1/k) against the reference's d_k / k; the gaps of 21808 and 16999
    # terms exceed 2^13, so their sums merge block-sized pieces
    cps = [1, 2, 3, 8191, 8192, 8193, 30001, 47000]
    if system == "torus_automorphism":
        sys_, f = make_system(system), torus_character(1, 2)
        seqs = [named_sequence("hardy_littlewood")]
        anchors = [sys_.default_point(), TorusPoint(3 << 47, 7 << 47)]
    else:
        sys_, f, seqs, anchors = _abel_case(system)  # the 3-cycle: every cell and convention
    traces = _streamed(seqs, sys_, f, anchors, cps, with_abel=with_abel)
    want = reference_traces(seqs, sys_, f, anchors, cps, with_abel=with_abel)
    assert len(traces) == len(want) == len(anchors) * len(seqs)
    for trace, (H, abel) in zip(traces, want):
        assert np.array_equal(_bits(trace.H_values), _bits(H))
        assert (trace.abel_parts is None) == (abel is None)
        parts = [z for pair in trace.abel_parts or () for z in pair]
        if with_abel:
            assert np.array_equal(_bits(trace.abel_parts), _bits(abel))
        # no component is -0.0, though terms such as the signed cell 0's include it
        assert not any(x == 0.0 and math.copysign(1.0, x) < 0.0
                       for z in [*trace.H_values.tolist(), *parts] for x in (z.real, z.imag))


def test_signed_cell_zero_terms_include_a_negative_zero():
    # so the check above sees a -0.0 term that its sums must not return
    a, cyc = named_sequence("cycle_indicator", convention="signed"), make_system("three_cycle")
    ks = np.arange(1, 10)
    (pos, neg), = dynamics.orbit_pairs(cyc, cycle_step_observable(), [CyclePoint(0)], 9)(0, 9)
    d = transform._numerators(a.pair_values(ks), pos, neg)
    assert any(x == 0.0 and math.copysign(1.0, x) < 0.0 for x in d.real.tolist())


def test_numerator_blocks_reuse_one_buffer_across_blocks():
    cyc = make_system("three_cycle")
    seqs = [named_sequence("cycle_indicator", convention=conv) for conv in ("symmetric", "signed")]
    N = 3 * _BLOCK_TERMS - 5
    block = transform._numerator_blocks(seqs, dynamics.orbit_pairs(
        cyc, cycle_step_observable(), [CyclePoint(cell) for cell in range(3)], N))
    ds = [d for lo, hi in ((0, _BLOCK_TERMS), (_BLOCK_TERMS, 2 * _BLOCK_TERMS),
                           (2 * _BLOCK_TERMS, N)) for d in block(lo, hi)]
    assert len(ds) == 3 * 3 * 2
    assert all(np.shares_memory(ds[0], d) for d in ds)


def test_streamed_abel_split_keeps_the_sign_of_a_zero():
    # d_1 = 1j * -1 = (-0.0, -1.0): the whole-range cumsum keeps D_1's -0.0,
    # and so does its tail D_1 / 1
    a = from_values([0, 0, 0, 0, 1j, 0.5, 0.25])
    orbit = np.array([0.5, 2.0, 0.0, 3.0, -1.0, 1.0j, 0.75])
    tr = eht_trace(a, orbit, [1, 2, 3], with_abel=True)
    want = _whole_array_abel(a, orbit, [1, 2, 3])
    assert math.copysign(1.0, want[0][1].real) == -1.0
    assert np.array_equal(_bits(tr.abel_parts), _bits(want))
