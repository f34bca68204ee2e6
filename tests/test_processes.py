import math

import numpy as np
import pytest

from ehtlab.dynamics import (
    Observable,
    constant_observable,
    make_system,
    orbit_values,
    rotation_raised_cosine,
    sample_points,
)
from ehtlab.errors import InvariantError
from ehtlab.processes import (
    CONSTANT,
    FactorSchedule,
    build_process,
    hilbert_partial_sums,
    process_eht_trace,
    seminorm_and_hilbert,
    structural_identity_check,
    truncated_approximant,
)
from ehtlab import numerics
from ehtlab.numerics import checkpoint_blocks, checkpoint_sums
from ehtlab.sequences import ModulatingSequence, named_sequence, transform_sequence
from ehtlab.transform import default_checkpoints


@pytest.fixture(scope="module")
def rotation():
    return make_system("rotation", angle_turns="sqrt2")


@pytest.fixture(scope="module")
def shrink_process(rotation):
    return build_process(rotation, rotation_raised_cosine(), seed=11)


def test_build_validation_rejects_bad_schedules(rotation):
    delta = rotation_raised_cosine()

    decreasing = FactorSchedule(lambda r: 1.0 / (r + 1.0), lambda r: r / (r + 1.0))
    with pytest.raises(InvariantError, match="decreases"):
        build_process(rotation, delta, decreasing)

    # monotone, but v_r = 2r/(r+1) delta overtakes delta from r = 2 on
    too_big = FactorSchedule(lambda r: 2.0 * r / (r + 1.0),
                             lambda r: (1.0 - r) / (r + 1.0))
    with pytest.raises(InvariantError, match="exceeds delta"):
        build_process(rotation, delta, too_big)

    doubled = FactorSchedule(lambda r: np.full(np.shape(r), 2.0), lambda r: -1.0)
    with pytest.raises(InvariantError, match="exceeds delta"):
        build_process(rotation, delta, doubled)

    # a NaN factor passes every comparison on the samples; the factor check fails it
    undefined = FactorSchedule(lambda r: np.full(np.shape(r), np.nan), lambda r: np.nan)
    with pytest.raises(InvariantError, match="not real nonnegative"):
        build_process(rotation, delta, undefined)


def test_validation_deltas_are_the_pointwise_ones(rotation):
    delta = rotation_raised_cosine()
    pts = sample_points(rotation, 300, seed=4)
    batched = np.array([orbit_values(rotation, delta, p, 0)[0] for p in pts])
    k0 = np.array([0], dtype=np.int64)
    per_point = np.array([delta.coord_fn(rotation.orbit_coords(p, k0))[0] for p in pts])
    assert np.array_equal(batched.view(np.int64), per_point.view(np.int64))
    F = build_process(rotation, delta, CONSTANT, validation_count=300, seed=4)
    evaluated = np.array([F.f_eval(0, p) for p in pts])
    assert np.array_equal(batched.real.copy().view(np.int64), evaluated.view(np.int64))

    # one negative sample among the 300 is enough to reject delta
    bad_z = rotation.orbit_coords(pts[123], k0)[0]
    spiky = Observable("spiky", "rotation",
                       lambda z: np.where(z == bad_z, -1.0, 1.0).astype(complex),
                       {"l1": 1.0, "l2": 1.0, "linf": 1.0})
    with pytest.raises(InvariantError, match="negative"):
        build_process(rotation, spiky, validation_count=300, seed=4)


def test_structural_identities_bitwise(rotation, shrink_process):
    pts = sample_points(rotation, 1000, seed=3)
    out = structural_identity_check(shrink_process, pts, [1, 2, 5, 9, 17])
    assert out == {"structure_exact": True, "symmetry_exact": True, "admissible": True}


def test_additive_process_is_equality_case(rotation):
    delta = rotation_raised_cosine()
    F = build_process(rotation, delta, CONSTANT)
    pts = sample_points(rotation, 200, seed=5)
    app = truncated_approximant(F, r=3, i=11, points=pts)
    assert app["sandwich_ok"]
    assert all(row["residual"] == 0.0 for row in app["rows"])  # g == f everywhere


def test_sandwich_residuals(rotation, shrink_process):
    pts = sample_points(rotation, 1000, seed=7)
    r = 4
    for i in (r + 3, -(r + 3)):
        app = truncated_approximant(shrink_process, r, i, pts)
        assert app["sandwich_ok"]
        for row in app["rows"]:
            assert 0.0 <= row["residual"] <= row["gap_bound"]
            # factory gap: (1/(r+1) - 1/(|i|+1)) delta <= delta/(r+1)
            assert row["gap_bound"] <= rotation_raised_cosine().norm("linf") / (r + 1)
    inside = truncated_approximant(shrink_process, r, 2, pts[:50])
    assert all(row["residual"] == 0.0 for row in inside["rows"])
    with pytest.raises(ValueError):
        truncated_approximant(shrink_process, 0, 1, pts[:1])


def test_process_trace_and_deviations(rotation, shrink_process, sparse_dyadic):
    cps = default_checkpoints(1 << 13)
    res = process_eht_trace(sparse_dyadic, shrink_process, rotation.default_point(),
                            cps, [4, 16, 64, 256])
    assert res["verdict"].verdict == "cauchy_trend"
    rows = res["approximants"]
    devs = [row["max_deviation"] for row in rows]
    assert all(d <= row["deviation_bound"] * (1 + 1e-12) for d, row in zip(devs, rows))
    assert all(b < a for a, b in zip(devs, devs[1:]))  # deviation shrinks with r
    bounds = [row["deviation_bound"] for row in rows]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert rows[0]["l2_gap"] == pytest.approx(math.sqrt(1.5) / 5.0)


def test_process_trace_constant_cancels(rotation):
    ones = constant_observable("rotation", 1.0)
    F = build_process(rotation, ones, CONSTANT)
    a = named_sequence("constant", value=1.0)
    res = process_eht_trace(a, F, rotation.default_point(), default_checkpoints(1 << 10), [4])
    assert np.all(res["trace"].H_values == 0)


def test_hilbert_partial_sums_routes():
    lam = complex(np.exp(2j * np.pi * 0.29))
    geo = transform_sequence(named_sequence("constant", value=1.0), "modulate", turns=0.29)
    cps = default_checkpoints(1 << 14, n_min=32)
    [sums] = hilbert_partial_sums([geo], cps)
    ks = np.arange(1, cps[-1] + 1)
    expect = np.sum((lam**ks - lam ** (-ks)) / ks)
    assert sums[-1] == pytest.approx(expect, abs=1e-10)


def test_seminorm_axioms(sparse_dyadic):
    schedule = [2**j for j in range(8, 14)]
    base = seminorm_and_hilbert(sparse_dyadic, 1.5, schedule)["seminorm"]
    scaled = seminorm_and_hilbert(
        transform_sequence(sparse_dyadic, "scale", c=3.0), 1.5, schedule)["seminorm"]
    assert scaled.limsup_proxy == pytest.approx(3.0 * base.limsup_proxy, rel=1e-12)
    # triangle inequality on the finite-n values
    other = named_sequence("cycle_indicator")
    o_est = seminorm_and_hilbert(other, 1.5, schedule)["seminorm"]
    both_fn = lambda ks: sparse_dyadic.values(ks) + other.values(ks)
    from ehtlab.sequences import ModulatingSequence
    both = ModulatingSequence("sum", both_fn, bound=None)
    b_est = seminorm_and_hilbert(both, 1.5, schedule)["seminorm"]
    for s, x, y in zip(b_est.values, base.values, o_est.values):
        assert s <= x + y + 1e-10


def test_hilbert_verdicts():
    schedule = [2**j for j in range(6, 15)]
    geo = transform_sequence(named_sequence("constant", value=1.0), "modulate", turns=0.29)
    assert seminorm_and_hilbert(geo, 1.5, schedule)["verdict"].verdict == "cauchy_trend"

    # one-sided all-ones: the sums are harmonic numbers
    from ehtlab.sequences import ModulatingSequence
    def heaviside(ks):
        return (ks >= 1).astype(complex)
    ones_right = ModulatingSequence("step", heaviside, bound=1.0, one_sided=True)
    out = seminorm_and_hilbert(ones_right, 1.5, schedule)
    assert out["verdict"].verdict == "diverging"
    assert out["verdict"].growth_fit.model == "log n"
    assert out["verdict"].growth_fit.coefficient == pytest.approx(1.0, abs=0.05)


def test_truncation_experiment(sparse_dyadic):
    schedule = [2**j for j in range(8, 14)]
    radii = [2**r for r in range(2, 15, 2)]  # final radius covers the window
    out = seminorm_and_hilbert(sparse_dyadic, 1.5, schedule, truncation_radii=radii)
    tails = [row["tail_seminorm_proxy"] for row in out["truncation_experiment"]]
    assert all(b <= a for a, b in zip(tails, tails[1:]))
    assert tails[-1] == 0.0  # radius reaches the window, the tail vanishes
    verdicts = {row["verdict"] for row in out["truncation_experiment"]}
    assert verdicts == {out["verdict"].verdict} == {"cauchy_trend"}


def test_bounded_multiplier_stability(sparse_dyadic):
    # bounded multipliers preserve the settled verdict along truncations
    rng = np.random.default_rng(13)
    table = rng.uniform(-1, 1, 2 * 16384 + 1) + 1j * rng.uniform(-1, 1, 2 * 16384 + 1)
    from ehtlab.sequences import ModulatingSequence
    def mult(ks):
        return sparse_dyadic.values(ks) * table[ks + 16384]
    ab = ModulatingSequence("a*b", mult, bound=None)
    schedule = [2**j for j in range(8, 15)]
    out = seminorm_and_hilbert(ab, 1.5, schedule, truncation_radii=[16, 256, 4096])
    assert out["verdict"].verdict == "cauchy_trend"
    assert all(r["verdict"] == "cauchy_trend" for r in out["truncation_experiment"])


def test_additive_sparse_trace_settles(rotation, sparse_dyadic):
    delta = rotation_raised_cosine()
    F = build_process(rotation, delta, CONSTANT)
    res = process_eht_trace(sparse_dyadic, F, rotation.default_point(),
                            default_checkpoints(1 << 13), [8])
    assert res["verdict"].verdict == "cauchy_trend"
    # the equality schedule leaves nothing for the approximant to miss
    assert res["approximants"][0]["max_deviation"] == 0.0


def _whole_array_process_rows(a, F, x0, cps, r_schedule):
    """The process deviations as whole-range arrays form them: f and each g^r
    over -N..N, one checkpoint_sums per trace, one pairwise tail-weight sum."""
    N = cps[-1]
    ks = np.arange(-N, N + 1, dtype=np.int64)
    avals = a.range_values(N)

    def trace(vals):
        d = avals[N + 1 :] * vals[N + 1 :] - avals[N - 1 :: -1] * vals[N - 1 :: -1]
        return checkpoint_sums(d / np.arange(1, N + 1, dtype=complex), cps)

    base = trace(F.f_values(x0, ks).astype(complex))
    weighted = np.abs(avals) * np.concatenate(
        [1.0 / np.abs(np.arange(-N, 0)), [0.0], 1.0 / np.arange(1, N + 1)])
    return [(float(np.max(np.abs(base - trace(F.g_values(x0, ks, r).astype(complex))))),
             F.delta.norm("linf") * F.schedule.gap(r) * float(np.sum(weighted[np.abs(ks) > r])))
            for r in r_schedule]


@pytest.mark.parametrize("system", ["rotation", "three_cycle"])
def test_process_sums_stream_one_sequence_evaluation_per_block(system, monkeypatch):
    monkeypatch.setattr(numerics, "_BLOCK_TERMS", 512)
    sys_ = make_system(system)
    delta = (rotation_raised_cosine() if system == "rotation"
             else constant_observable("three_cycle", 1.0))
    F = build_process(sys_, delta, validation_count=50, seed=3)
    cps = [1, 2, 511, 512, 513, 1023, 1024, 1025, 1600, 2500]
    blocks = len(list(checkpoint_blocks(np.asarray(cps))))
    assert blocks >= 3
    a = named_sequence("hardy_littlewood")
    calls = []
    counted = ModulatingSequence("counted", a.fn, bound=a.bound)
    original = ModulatingSequence.pair_values

    def pair_values(self, ks):
        if self is counted:
            calls.append(len(ks))
        return original(self, ks)
    monkeypatch.setattr(ModulatingSequence, "pair_values", pair_values)
    r_schedule = [0, 4, 600, 10**4]
    res = process_eht_trace(counted, F, sys_.default_point(), cps, r_schedule)
    # a_0, then one evaluation per block shared by f and every level
    assert len(calls) == 1 + blocks
    got = [(row["max_deviation"], row["deviation_bound"]) for row in res["approximants"]]
    want = _whole_array_process_rows(a, F, sys_.default_point(), cps, r_schedule)
    assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
