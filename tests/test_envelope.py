import math
import tracemalloc

import numpy as np
import pytest
from mpmath import mp

from ehtlab import numerics
from ehtlab.envelope import (
    EnvelopeSpec,
    MajorantH,
    _WORKPREC,
    _probe_majorant,
    _threshold_index,
    build_envelope,
    divergent_modulator_demo,
    evaluate_g,
    fejer_integral,
    fejer_variant_discrepancy,
    inverse_linear_majorant,
    inverse_log_majorant,
    kernel_eval,
    verify_envelope_conditions,
)
from ehtlab.errors import BudgetExceededError, DomainError, HorizonExceededError, InvariantError


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
    # the thresholds M/2^(k+1) sit near hhat(3^(2^k) - 3); below 2^90 every breakpoint
    # the doubling rule leaves alone is the minimal n with hhat(n) <= M/2^(k+1)
    hm = inverse_log_majorant(3)
    env = build_envelope(hm, K=8)
    checked = 0
    with mp.workprec(_WORKPREC):
        for k in range(1, env.K + 1):
            n_k, thr = env.breakpoints[k], mp.mpf(env.M) / mp.power(2, k + 1)
            if n_k == 2 * env.breakpoints[k - 1] + 3 or n_k >= mp.ldexp(1, 90):
                continue
            assert hm.hhat(n_k) <= thr < hm.hhat(n_k - 1), k
            checked += 1
    assert checked == 5
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
    zero = MajorantH(lambda n: 0.0, lambda n: mp.mpf(2) ** (-n), lambda thr: -mp.log(thr, 2),
                     label="zero")
    with pytest.raises(ValueError, match="explicit positive M"):
        build_envelope(zero, K=4)
    env = build_envelope(zero, K=4, M=1.0)  # explicit scale builds fine
    assert verify_envelope_conditions(env, zero)["all_pass"]


def test_horizon_exceeded():
    # the breakpoints are 3^(2^k) - 3, which pass the 2^(2^40) horizon at k = 40
    assert build_envelope(inverse_log_majorant(), K=39).K == 39
    with pytest.raises(HorizonExceededError, match="within its horizon"):
        build_envelope(inverse_log_majorant(), K=40)


def _searched_threshold_index(hm, thr):
    """Reference: the first passing integer found by search (minimal where integers
    are exact). Double the exponent to bracket, bisect the exponent to a
    ratio-2^(1/4) bracket, then bisect the value."""
    if mp.mpf(hm.hhat(0)) <= thr:
        return mp.mpf(0)

    def passes(n) -> bool:
        return mp.mpf(hm.hhat(n)) <= thr

    e_lo, e_hi, e = 0.0, None, 1.0
    while e <= 2.0**40:
        if passes(mp.floor(mp.power(2, e))):
            e_hi = e
            break
        e_lo = e
        e *= 2
    if e_hi is None:
        raise HorizonExceededError(f"{hm.label}: beyond the horizon")
    while e_hi - e_lo > 0.25:
        e_mid = 0.5 * (e_lo + e_hi)
        if passes(mp.floor(mp.power(2, e_mid))):
            e_hi = e_mid
        else:
            e_lo = e_mid
    lo, hi = mp.floor(mp.power(2, e_lo)), mp.floor(mp.power(2, e_hi))
    if passes(lo):
        return lo if lo >= 1 else mp.mpf(1)
    while True:
        mid = mp.floor((lo + hi) / 2)
        if mid <= lo or mid >= hi:
            return hi
        if passes(mid):
            hi = mid
        else:
            lo = mid


_MAJORANTS = (inverse_log_majorant(3), inverse_log_majorant(2), inverse_linear_majorant())


@pytest.mark.parametrize("hm", _MAJORANTS, ids=lambda hm: hm.label)
def test_threshold_index_matches_the_search(hm):
    # thresholds hhat(x) at random real and integer x in [1, 2^90), where integers are
    # exact and the two picks are the same integer, and in [2^90, 2^(2^40)), where hhat
    # is flat over many representable n and both picks only have to pass and agree
    rng = np.random.default_rng(11)
    exact, plateau = rng.uniform(0.5, 89.9, 120), 2.0 ** rng.uniform(math.log2(90), 40, 60)
    with mp.workprec(_WORKPREC):
        for i, bits in enumerate(np.concatenate([exact, plateau])):
            x = mp.power(2, bits)
            thr = mp.mpf(hm.hhat(mp.floor(x) if i % 2 else x))
            got, want = _threshold_index(hm, thr), _searched_threshold_index(hm, thr)
            if bits < 90:
                assert got == want, (bits, got, want)
            else:
                assert hm.hhat(got) <= thr and hm.hhat(want) <= thr
                assert abs(got - want) <= want * mp.ldexp(1, 50 - _WORKPREC), bits


@pytest.mark.parametrize("hm, K", zip(_MAJORANTS, (39, 39, 60)),
                         ids=lambda v: getattr(v, "label", str(v)))
def test_build_thresholds_match_the_search(hm, K):
    # every build threshold M/2^(k+1) of the default M and three explicit ones, up to
    # the horizon; a threshold past it raises on both sides
    for M in (2.0 * hm.max_h(), 0.3, 1.0, 7.5):
        for k in range(1, K + 1):
            with mp.workprec(_WORKPREC):
                thr = mp.mpf(M) / mp.power(2, k + 1)
                try:
                    want = _searched_threshold_index(hm, thr)
                except HorizonExceededError:
                    with pytest.raises(HorizonExceededError):
                        _threshold_index(hm, thr)
                    break
                got = _threshold_index(hm, thr)
            assert repr(got) == repr(want), (M, k)


def test_wrong_inverse_raises():
    # an inverse short of the crossing, one past it, and short of it by a relative
    # 1e-9 where hhat is flat
    hm = inverse_linear_majorant()
    for inverse in (lambda thr: 1 / (2 * thr), lambda thr: 1 / thr):
        with pytest.raises(InvariantError, match="declared inverse"):
            build_envelope(MajorantH(hm.h, hm.hhat, inverse, label="wrong"), K=4)
    log = inverse_log_majorant(3)
    short = MajorantH(log.h, log.hhat, lambda thr: log.inverse(thr) * (1 - 1e-9), label="short")
    with mp.workprec(_WORKPREC), pytest.raises(InvariantError, match="declared inverse"):
        _threshold_index(short, log.hhat(mp.ldexp(1, 200)))


def test_each_breakpoint_costs_at_most_three_hhat_calls():
    hm, calls = inverse_log_majorant(3), []

    def counted(n):
        calls.append(n)
        return hm.hhat(n)
    # beyond the calls of the contract probe and max_h, each breakpoint costs hhat(0)
    # plus one check on the plateau, or two below 2^90 (three after a unit step)
    counting = MajorantH(hm.h, counted, hm.inverse, hm.label)
    _probe_majorant(counting)
    counting.max_h()
    overhead = len(calls)
    calls.clear()
    build_envelope(counting, K=34)
    assert len(calls) <= overhead + 3 * 34


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


def test_divergent_modulator_demo_small():
    demo = divergent_modulator_demo(10**5)
    sums = demo["oracle_partial_sums"]
    assert all(b > a for a, b in zip(sums, sums[1:]))  # positive terms
    assert demo["dominates_oracle"]
    assert demo["envelope_final"] >= demo["oracle_final"]
    assert demo["loglog_residual"] < 0.05


def test_divergent_modulator_sums_match_fsum_prefixes(monkeypatch):
    # both series, against correctly rounded sums of the demo's own terms; with
    # 64-term blocks (terms start at n = 2) N = 1000 ends mid-block, 577 on a
    # block end, 513 after one and 1024 on a power of two
    env = build_envelope(inverse_log_majorant(shift=2), K=12)
    for N, block in ((10**5, numerics._BLOCK_TERMS), (1000, 64), (577, 64), (513, 64), (1024, 64)):
        monkeypatch.setattr(numerics, "_BLOCK_TERMS", block)
        demo = divergent_modulator_demo(N)
        powers = [2**j for j in range(2, N.bit_length())]
        assert demo["checkpoints"] == (powers if powers[-1] == N else powers + [N])
        assert demo["dominates_oracle"]
        ns = np.arange(2, N + 1, dtype=np.int64)
        inv = 1.0 / ns
        for key, numerators in (("oracle_partial_sums", 1.0 / np.log(ns + 2.0)),
                                ("envelope_partial_sums", env.values_at(ns))):
            terms = (numerators * inv).tolist()
            for c, got in zip(demo["checkpoints"], demo[key]):
                bound = 1e-13 * (1.0 + math.fsum(map(abs, terms[: c - 1])))
                assert abs(got - math.fsum(terms[: c - 1])) <= bound, (N, key, c)


def test_divergent_modulator_stays_small_in_memory():
    # the 2^21-term span arrays took 61 MB here
    tracemalloc.start()
    try:
        divergent_modulator_demo(10**6)
        assert tracemalloc.get_traced_memory()[1] < 4 * 2**20
    finally:
        tracemalloc.stop()


def test_values_at_bounds():
    env = build_envelope(inverse_linear_majorant(), K=6)
    with pytest.raises(ValueError):
        env.values_at(np.array([10**9]))  # beyond the built range
    with pytest.raises(ValueError):
        env.values_at(np.array([-1]))


def test_majorant_contract_probed():
    bad = MajorantH(lambda n: 1.0 / (n + 1.0), lambda n: 0.5 / (n + 1), lambda thr: 0.5 / thr - 1,
                    label="undershoot")
    with pytest.raises(ValueError, match="not a majorant"):
        build_envelope(bad, K=4)
    rising = MajorantH(lambda n: 0.0, lambda n: float(n), lambda thr: thr, label="rising")
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


def _values_at_per_call(env, ns):
    """The envelope lookup with every table rebuilt per call, the last practical
    segment opened explicitly past the last practical breakpoint."""
    ns = np.asarray(ns, dtype=np.int64)
    bps = env.practical_breakpoints()
    if ns.size and ns.max() > bps[-1]:
        bps = bps + [int(ns.max()) + 1]
    bp_arr = np.asarray(bps, dtype=np.int64)
    seg = np.maximum(np.searchsorted(bp_arr, ns, side="left"), 1)
    v_lo = np.asarray([env.values[i] for i in range(len(bps))])[seg - 1]
    s = np.asarray([float(env.slopes[i]) for i in range(min(len(env.slopes), len(bps)))])
    return v_lo + s[seg - 1] * (ns - bp_arr[seg - 1])


def test_values_at_matches_the_per_call_tables():
    env = build_envelope(inverse_log_majorant(3), K=34)
    bps = env.practical_breakpoints()
    assert len(bps) < env.K + 1  # some breakpoints lie past the practical cap
    # n = 0, every practical breakpoint and its neighbours, a point inside each
    # segment, then indices past the last practical breakpoint (to 2**63 - 2: the
    # reference appends max + 1, which overflows int64 at 2**63 - 1)
    ns = sorted({0, 1} | {b + t for b in bps for t in (-1, 0, 1) if b + t >= 0}
                | {(a + b) // 2 for a, b in zip(bps, bps[1:])}
                | {bps[-1] + 2, 10**18, 2**62, 2**63 - 2})
    for chunk in ([ns[0]], ns, ns[:5], ns[-3:], np.array(ns[::-1])):
        got, want = env.values_at(chunk), _values_at_per_call(env, chunk)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
