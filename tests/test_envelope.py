import math

import numpy as np
import pytest
from mpmath import mp

from ehtlab.envelope import (
    EnvelopeSpec,
    MajorantH,
    build_envelope,
    divergent_modulator_demo,
    envelope_modulator,
    evaluate_g,
    fejer_integral,
    fejer_variant_discrepancy,
    inverse_linear_majorant,
    inverse_log_majorant,
    kernel_eval,
    verify_envelope_conditions,
)
from ehtlab.errors import BudgetExceededError, DomainError, HorizonExceededError


# ---------------------------------------------------------------- kernels

def test_dirichlet_small_orders():
    assert kernel_eval("dirichlet", 0, math.pi) == pytest.approx(0.5)
    x = math.pi / 2
    direct = 0.5 + sum(math.cos(k * x) for k in (1, 2, 3))
    assert kernel_eval("dirichlet", 3, x) == pytest.approx(direct, abs=1e-12)
    assert direct == pytest.approx(-0.5)


def test_dirichlet_matches_cosine_sum():
    rng = np.random.default_rng(0)
    for x in rng.uniform(0.05, 2 * math.pi - 0.05, 25):
        for n in (1, 17, 160, 1000):
            direct = 0.5 + np.sum(np.cos(np.arange(1, n + 1) * x))
            assert kernel_eval("dirichlet", n, x) == pytest.approx(direct, abs=1e-10)


def test_fejer_is_mean_of_dirichlet():
    rng = np.random.default_rng(1)
    for x in rng.uniform(0.1, 2 * math.pi - 0.1, 10):
        for n in (0, 1, 5, 40):
            mean = np.mean([kernel_eval("dirichlet", k, x) for k in range(n + 1)])
            assert kernel_eval("fejer", n, x) == pytest.approx(mean, abs=1e-10)
            assert kernel_eval("fejer", n, x) >= 0.0


def test_fejer_integral_is_pi():
    for n in (1, 7, 33, 100):
        assert fejer_integral(n) == pytest.approx(math.pi, abs=1e-6)


def test_fejer_printed_variant_differs():
    # the printed closed-form variant is not the mean of the kernels; the
    # discrepancy is recorded rather than silently corrected
    gap = fejer_variant_discrepancy(8, [0.5, 1.5, 3.0, 5.0])
    assert gap > 1e-3


def test_kernel_domain_guard():
    with pytest.raises(DomainError):
        kernel_eval("dirichlet", 4, 0.0)
    with pytest.raises(DomainError):
        kernel_eval("fejer", 4, 2 * math.pi - 1e-12)
    with pytest.raises(ValueError):
        kernel_eval("mystery", 4, 1.0)


def test_kernel_huge_order_reduction():
    # orders far beyond float precision go through high-precision reduction
    n = 3**32 - 4
    val = kernel_eval("dirichlet", n, 1.0)
    with mp.workprec(200):
        ref = float(mp.sin(mp.fmod((mp.mpf(n) + mp.mpf("0.5")) * 1.0, 2 * mp.pi))
                    / (2 * mp.sin(mp.mpf("0.5"))))
    assert val == pytest.approx(ref, abs=1e-9)


def test_kernel_orders_beyond_double_mantissa():
    # n + 1/2 and (n + 1)/2 are not doubles here; the factor must be formed
    # exactly even when the caller runs at mpmath's default 53 bits
    n = 3**64 - 4
    with mp.workprec(400):
        half = 2 * mp.sin(mp.mpf("0.5"))
        dirichlet = float(mp.sin(mp.mpf(n) + mp.mpf("0.5")) / half)
        fejer = float(2 / (mp.mpf(n) + 1) * (mp.sin((mp.mpf(n) + 1) / 2) / half) ** 2)
    assert kernel_eval("dirichlet", n, 1.0) == pytest.approx(dirichlet, abs=1e-9)
    assert kernel_eval("fejer", n, 1.0) == pytest.approx(fejer, rel=1e-9)


_KINDS = ("dirichlet", "fejer", "fejer_printed")


@pytest.mark.parametrize("n", [0, 1, 100, 65535, 2**44 - 1, 2**45, 3**32 - 4])
@pytest.mark.parametrize("kind", _KINDS)
def test_kernel_array_matches_scalars_bitwise(kind, n):
    # both sides of the 2^45 reduction cutoff, plus the points next to the
    # singularities and an off-grid sample
    rng = np.random.default_rng(n % 9973)
    xs = np.concatenate([np.linspace(2e-9, 2 * math.pi - 2e-9, 41),
                         rng.uniform(0.0, 2 * math.pi, 23)]).reshape(8, 8)
    vals = kernel_eval(kind, n, xs)
    assert isinstance(vals, np.ndarray) and vals.shape == xs.shape
    scalars = [kernel_eval(kind, n, float(x)) for x in xs.flat]
    assert all(type(s) is float for s in scalars)
    assert vals.ravel().tobytes() == np.array(scalars).tobytes()


def test_kernel_results_ignore_ambient_precision():
    from ehtlab.envelope import kernel_series_l1_profile
    env = build_envelope(inverse_linear_majorant(), K=10)
    outside = ([fejer_integral(k) for k in (1, 10, 100)], kernel_series_l1_profile(env))
    with mp.workprec(140):
        inside = ([fejer_integral(k) for k in (1, 10, 100)], kernel_series_l1_profile(env))
    assert repr(outside) == repr(inside)


@pytest.mark.parametrize("bad_x", [0.5e-9, 2 * math.pi - 0.5e-9, 0.0, 2 * math.pi])
def test_kernel_domain_guard_covers_every_point(bad_x):
    xs = np.linspace(0.1, 2 * math.pi - 0.1, 16)
    xs[11] = bad_x
    for kind in _KINDS:
        with pytest.raises(DomainError):
            kernel_eval(kind, 4, xs)


def test_kernel_validation_for_arrays():
    xs = np.linspace(0.1, 2 * math.pi - 0.1, 16)
    with pytest.raises(ValueError, match="unknown kernel kind"):
        kernel_eval("mystery", 4, xs)
    for bad_n in (2.5, -1, mp.mpf("7.25")):
        for kind in _KINDS:
            with pytest.raises(ValueError, match="nonnegative integer"):
                kernel_eval(kind, bad_n, xs)


# ---------------------------------------------------------------- envelopes

def test_build_inverse_log_breakpoints():
    hm = inverse_log_majorant(3)
    env = build_envelope(hm, K=8)
    bps = env.practical_breakpoints()
    # thresholds M/2^(k+1) are met at 3^(2^k) - 3 (up to the float knife edge)
    for k, expect in ((1, 3**2 - 3), (2, 3**4 - 3), (3, 3**8 - 3), (4, 3**16 - 3)):
        assert abs(bps[k] - expect) <= 1
        with mp.workprec(120):
            assert float(hm.hhat(bps[k])) <= env.M / 2.0 ** (k + 1) * (1 + 1e-12)
    assert env.values[0] == env.M
    assert env.values[3] == pytest.approx(env.M / 8.0)


def test_build_inverse_linear_breakpoints():
    env = build_envelope(inverse_linear_majorant(), K=10)
    # the doubling-plus-3 rule dominates the threshold indices here
    assert env.practical_breakpoints()[:6] == [0, 3, 9, 21, 45, 93]


def test_conditions_pass_for_built_envelopes():
    for hm, K in ((inverse_log_majorant(3), 34), (inverse_linear_majorant(), 20),
                  (inverse_log_majorant(2), 12)):
        env = build_envelope(hm, K)
        rep = verify_envelope_conditions(env, hm)
        assert rep["all_pass"], (hm.label, rep)


def test_star1_geometric_tail():
    env = build_envelope(inverse_log_majorant(3), K=34)
    rep = verify_envelope_conditions(env, inverse_log_majorant(3))
    ps = rep["star1_partial_sums"]
    assert all(b >= a for a, b in zip(ps, ps[1:]))
    assert rep["star1_max_tail_ratio"] <= 0.6
    assert ps[-1] - ps[29] < 1e-6  # increments die off beyond breakpoint 30


def test_envelope_stays_above_h():
    hm = inverse_log_majorant(3)
    env = build_envelope(hm, K=10)
    ns = np.arange(0, 20_001)
    vals = env.values_at(ns)
    hs = np.array([hm.h(int(n)) for n in ns])
    assert np.all(vals >= hs)
    assert np.all(vals[1:] > hs[1:])


def test_degenerate_h_rejected():
    zero = MajorantH(lambda n: 0.0, lambda n: mp.mpf(2) ** (-n), horizon=1e6, label="zero")
    with pytest.raises(ValueError, match="explicit positive M"):
        build_envelope(zero, K=4)
    env = build_envelope(zero, K=4, M=1.0)  # explicit scale builds fine
    assert verify_envelope_conditions(env, zero)["all_pass"]


def test_horizon_exceeded():
    hm = MajorantH(lambda n: 1.0 / (1.0 + math.log1p(float(n))),
                   lambda n: 1.0 / (1.0 + float(mp.log(1 + n))),
                   horizon=1e4, label="slow")
    with pytest.raises(HorizonExceededError):
        build_envelope(hm, K=12)


def test_hand_built_violations_detected():
    with mp.workprec(80):
        # gap rule broken: n_1 - n_0 = 2 < 3
        bad_gap = EnvelopeSpec(
            M=1.0,
            breakpoints=(mp.mpf(0), mp.mpf(2), mp.mpf(7), mp.mpf(17)),
            values=(1.0, 0.5, 0.25, 0.125),
            slopes=(mp.mpf(-0.25), mp.mpf(-0.05), mp.mpf(-0.0125)),
        )
        assert not verify_envelope_conditions(bad_gap)["iv_integer_gaps"]

        # doubled slope s_{k+1} = 2 s_k breaks the wedge
        bad_wedge = EnvelopeSpec(
            M=1.0,
            breakpoints=(mp.mpf(0), mp.mpf(4), mp.mpf(11), mp.mpf(25)),
            values=(1.0, 0.5, 0.25, 0.125),
            slopes=(mp.mpf(-0.01), mp.mpf(-0.02), mp.mpf(-0.005)),
        )
        assert not verify_envelope_conditions(bad_wedge)["vi_slope_wedge"]

        # uniform slopes pass the wedge (0 sits strictly between s and -s)
        uniform = EnvelopeSpec(
            M=1.0,
            breakpoints=(mp.mpf(0), mp.mpf(4), mp.mpf(11), mp.mpf(25)),
            values=(1.0, 0.5, 0.25, 0.125),
            slopes=(mp.mpf(-1.0), mp.mpf(-1.0), mp.mpf(-1.0)),
        )
        assert verify_envelope_conditions(uniform)["vi_slope_wedge"]

        with pytest.raises(ValueError):
            EnvelopeSpec(M=1.0, breakpoints=(mp.mpf(0), mp.mpf(5), mp.mpf(4)),
                         values=(1.0, 0.5, 0.25), slopes=(mp.mpf(-0.1), mp.mpf(-0.2)))


def test_second_abel_identity_brute_force():
    # s_n = sum_{k<=n-2} (k+1) d2a_k F_k + n F_{n-1} da_{n-1} + a_n D_n
    # for arbitrary coefficient tables, against the direct cosine sum
    rng = np.random.default_rng(5)
    n = 200
    a = np.sort(rng.uniform(0.0, 1.0, n + 2))[::-1]  # decreasing, positive
    for x in (0.7, math.pi, 5.1):
        direct = 0.5 * a[0] + np.sum(a[1 : n + 1] * np.cos(np.arange(1, n + 1) * x))
        da = a[:-1] - a[1:]
        d2a = da[:-1] - da[1:]
        resummed = sum((k + 1) * d2a[k] * kernel_eval("fejer", k, x) for k in range(n - 1))
        resummed += n * kernel_eval("fejer", n - 1, x) * da[n - 1]
        resummed += a[n] * kernel_eval("dirichlet", n, x)
        assert resummed == pytest.approx(direct, abs=1e-9)


def test_evaluate_g_two_routes():
    env = build_envelope(inverse_linear_majorant(), K=26)
    [out] = evaluate_g(env, [math.pi], 1e-6)
    assert out["tail_bound"] <= 1e-6
    assert out["two_route_gap"] <= 1e-5
    assert out["first_form_residual"] <= 1e-9


def test_evaluate_g_profile_and_budget():
    env = build_envelope(inverse_linear_majorant(), K=26)
    xs = np.linspace(0.5, 2 * math.pi - 0.5, 7)
    rows = evaluate_g(env, xs, 1e-6, direct_cap=1 << 21)
    assert max(r["two_route_gap"] for r in rows) <= 1e-5
    assert max(r["tail_bound"] for r in rows) <= 1e-6
    shallow = build_envelope(inverse_linear_majorant(), K=8)
    with pytest.raises(BudgetExceededError):
        evaluate_g(shallow, [0.7], 1e-9)


def test_evaluate_g_slow_envelope():
    # the tail certificate covers continuations of the built envelope, so the
    # slope budget M/2^K must itself sit below tol: build deep (cheap), but
    # only a handful of kernel terms are ever evaluated
    env = build_envelope(inverse_log_majorant(2), K=22)
    [out] = evaluate_g(env, [2.0], 1e-6, direct_cap=1 << 17)
    assert out["tail_bound"] <= 1e-6
    assert out["first_form_residual"] <= 1e-9
    assert 3 <= out["terms_used"] <= 8
    # the direct sum is far from the limit at practical depth: the envelope
    # is still ~0.2 there, so only the identity route is sharp


def test_envelope_modulator_sequence():
    env = build_envelope(inverse_log_majorant(2), K=8)
    a = envelope_modulator(env, radius=4096)
    assert a.one_sided
    assert a.eval(0) == 0 and a.eval(-5) == 0
    assert a.eval(1).real == pytest.approx(float(env.values_at(np.array([1]))[0]))


def test_divergent_modulator_demo_small():
    demo = divergent_modulator_demo(10**5)
    sums = demo["oracle_partial_sums"]
    assert all(b > a for a, b in zip(sums, sums[1:]))  # positive terms
    assert demo["dominates_oracle"]
    assert demo["envelope_final"] >= demo["oracle_final"]
    assert demo["loglog_residual"] < 0.05


def test_values_at_bounds():
    env = build_envelope(inverse_linear_majorant(), K=6)
    with pytest.raises(ValueError):
        env.values_at(np.array([10**9]))  # beyond the built range
    with pytest.raises(ValueError):
        env.values_at(np.array([-1]))


def test_majorant_contract_probed():
    bad = MajorantH(lambda n: 1.0 / (n + 1.0), lambda n: 0.5 / (n + 1),
                    horizon=1e5, label="undershoot")
    with pytest.raises(ValueError, match="not a majorant"):
        build_envelope(bad, K=4)
    rising = MajorantH(lambda n: 0.0, lambda n: float(n), horizon=1e5, label="rising")
    with pytest.raises(ValueError, match="increases"):
        build_envelope(rising, K=4)


def test_second_differences_live_only_before_breakpoints():
    # finite differences of the emitted sequence against the closed form:
    # zero off breakpoints, s_{k+1} - s_k exactly one step before each one
    env = build_envelope(inverse_linear_majorant(), K=10)
    bps = env.practical_breakpoints()
    n_hi = bps[-1]
    a = env.values_at(np.arange(0, n_hi + 1))
    da = a[:-1] - a[1:]
    d2a = da[:-1] - da[1:]
    expected = np.zeros_like(d2a)
    for k in range(1, len(bps) - 1):
        expected[bps[k] - 1] = float(env.slopes[k] - env.slopes[k - 1])
    assert np.max(np.abs(d2a - expected)) <= 1e-12


def test_kernel_series_l1_uniformly_bounded():
    from ehtlab.envelope import kernel_series_l1_profile
    env = build_envelope(inverse_linear_majorant(), K=10)
    prof = kernel_series_l1_profile(env)
    assert prof["resolved"]
    # every truncation's integral sits under the certified cap
    assert all(v <= prof["uniform_bound_certificate"] * (1 + 1e-6)
               for v in prof["integrals"])
    assert prof["max_integral"] > 0
