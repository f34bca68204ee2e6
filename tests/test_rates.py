import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from ehtlab.rates import (
    RATE_CLASSES,
    RateParams,
    abs_prefix_ratios,
    abs_prefix_sums,
    check_A_alpha,
    exp_sum_grid,
    exp_sum_sup,
    parseval_holder_check,
    rate_class,
    rate_report,
)
from ehtlab.sequences import (
    ModulatingSequence,
    from_values,
    named_sequence,
    transform_sequence,
)

SCHEDULE = tuple(2**j for j in range(8, 16))


def power_log_decay():
    # |sum| ~ n^{0.45}/log^2 n: comfortably inside the alpha = 1.45 sup class
    def fn(ks):
        m = np.abs(ks).astype(float)
        return ((1.0 + m) ** -0.55 / np.log(m + 3.0) ** 2).astype(complex)
    return ModulatingSequence("power_log_decay", fn, bound=1.0, symmetric=True)


def test_prefix_sums_monotone(sequence_corpus):
    for a in sequence_corpus:
        sums = abs_prefix_sums(a, SCHEDULE)
        assert np.all(np.diff(sums) >= 0)


def test_star_verdicts(sparse_dyadic):
    params = RateParams(beta=0.5, schedule=SCHEDULE)
    # prefix sums of the dyadic-support sequence grow like log^2 n
    rep = abs_prefix_ratios(sparse_dyadic, "star", params)
    assert rep.verdict == "bounded_on_schedule"
    rep2 = abs_prefix_ratios(named_sequence("constant", value=1.0), "star", params)
    assert rep2.verdict == "growing"
    zero = named_sequence("constant", value=0.0)
    rep3 = abs_prefix_ratios(zero, "star", params)
    assert rep3.verdict == "bounded_on_schedule" and max(rep3.ratios) == 0.0


def test_star_closed_form_ratio():
    one = named_sequence("constant", value=1.0)
    params = RateParams(beta=0.5, schedule=(16, 64))
    rep = abs_prefix_ratios(one, "star", params)
    assert rep.ratios[0] == pytest.approx(33 / 4.0)
    assert rep.ratios[1] == pytest.approx(129 / 8.0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        RateParams(schedule=(4, 4, 8))
    with pytest.raises(ValueError, match="positive"):
        RateParams(schedule=(0, 4))
    # only the log-weighted prefix class needs n >= 2
    with pytest.raises(ValueError, match="log n > 0"):
        abs_prefix_ratios(named_sequence("constant"), "m_alpha", RateParams(schedule=(1, 4)))
    for kind in ("star", "two_sided_raw"):
        rep = abs_prefix_ratios(named_sequence("constant"), kind, RateParams(schedule=(1, 4)))
        assert rep.ratios[0] == 3.0  # |a_k| = 1 for |k| <= 1


@pytest.mark.parametrize("klass", sorted(RATE_CLASSES))
def test_each_class_reads_exactly_its_declared_params(klass):
    # a class's ratios move with each field it declares and with no other one, so a
    # config key of a field it does not declare would change nothing
    base = RateParams(schedule=(16, 64, 256))
    ratios = rate_report(named_sequence("hardy_littlewood"), klass, base).ratios
    for key, value in (("alpha", 1.75), ("beta", 0.25), ("grid_order", 4099)):
        moved = rate_report(named_sequence("hardy_littlewood"), klass,
                            dataclasses.replace(base, **{key: value})).ratios
        assert (moved != ratios) == (key in RATE_CLASSES[klass].reads), key
    assert rate_class("A") is RATE_CLASSES["a_alpha"]
    with pytest.raises(ValueError, match="unknown rates class"):
        rate_class("nope")


def test_exp_sum_matches_brute_force():
    rng = np.random.default_rng(0)
    a = from_values(rng.standard_normal(41) + 1j * rng.standard_normal(41))
    n, G = 20, 128
    grid = exp_sum_grid(a, n, G)
    zs = np.exp(2j * np.pi * np.arange(G) / G)
    ks = np.arange(-n, n + 1)
    vals = a.range_values(n)
    brute = np.array([np.sum(vals * z**ks) for z in zs])
    assert np.max(np.abs(grid - brute)) < 1e-12 * np.max(np.abs(brute))
    one_grid = exp_sum_grid(a, n, G, side="one_sided")
    brute_one = np.array([np.sum(vals[n + 1 :] * z ** ks[n + 1 :]) for z in zs])
    assert np.max(np.abs(one_grid - brute_one)) < 1e-12 * (1 + np.max(np.abs(brute_one)))


def test_exp_sum_aligned_geometric():
    G = 1024
    lam0 = complex(np.exp(2j * np.pi * 5 / G))
    a = transform_sequence(named_sequence("constant", value=1.0), "modulate", turns=5 / G)
    grid = exp_sum_grid(a, 100, G)
    g_star = int(np.argmax(np.abs(grid)))
    assert np.abs(grid[g_star]) == pytest.approx(201.0)
    # attained at the conjugate frequency
    assert complex(np.exp(2j * np.pi * g_star / G)) == pytest.approx(np.conj(lam0))


def test_exp_sum_alternating():
    a = transform_sequence(named_sequence("constant", value=1.0), "modulate", turns=0.5)
    assert exp_sum_sup(a, 10, 80) == pytest.approx(21.0)


def test_exp_sum_grid_too_small():
    with pytest.raises(ValueError):
        exp_sum_sup(named_sequence("constant"), 10, 15)


def test_hardy_littlewood_class_memberships():
    hl = named_sequence("hardy_littlewood")
    params = RateParams(alpha=1.5, schedule=SCHEDULE)
    # prefix absolute sums are the full 2n+1, so the log-weighted prefix test grows
    assert abs_prefix_ratios(hl, "m_alpha", params).verdict == "growing"
    # O(sqrt n) exponential sums: bounded under the plain n^(1-alpha) weight
    plain = check_A_alpha(hl, params, include_log=False)
    assert plain.verdict == "bounded_on_schedule"
    # the log-weighted variant climbs like log^1.5 n on any finite schedule
    logged = check_A_alpha(hl, params)
    assert logged.verdict == "growing"
    # log-speed growth registers as a small apparent exponent, well below
    # the sqrt exponent of the raw suprema
    assert logged.fitted_exponent < 0.3
    # log 1 = 0 would zero the head window and fake a "growing" verdict, so the
    # log-weighted class rejects n = 1 before any evaluation; the unweighted ones accept it
    tiny = RateParams(alpha=1.5, schedule=(1, 2, 4, 8))
    calls = []
    counted = ModulatingSequence("counted", lambda ks: calls.append(ks) or hl.values(ks), bound=1.0)
    with pytest.raises(ValueError, match="log n > 0"):
        check_A_alpha(counted, tiny)
    assert calls == []
    assert len(check_A_alpha(hl, tiny, include_log=False).ratios) == 4
    assert len(rate_report(hl, "one_sided_sup", tiny).ratios) == 4


def test_hardy_littlewood_sqrt_exponent():
    hl = named_sequence("hardy_littlewood")
    sups = [exp_sum_sup(hl, n, 8 * n) for n in SCHEDULE]
    from ehtlab.numerics import fit_loglog
    fit = fit_loglog(np.asarray(SCHEDULE, float), np.asarray(sups))
    assert 0.45 <= fit.slope <= 0.60


def test_a_alpha_zero_sequence():
    rep = check_A_alpha(named_sequence("constant", value=0.0),
                        RateParams(alpha=2.0, schedule=(16, 64, 256)))
    assert max(rep.ratios) == 0.0 and rep.verdict == "bounded_on_schedule"


def test_bounded_class_example():
    rep = check_A_alpha(power_log_decay(), RateParams(alpha=1.45, schedule=SCHEDULE))
    assert rep.verdict == "bounded_on_schedule"


def test_one_sided_sup_report(sparse_dyadic):
    # dyadic-support sums are O(log^2 n) uniformly on the circle
    rep = rate_report(sparse_dyadic, "one_sided_sup", RateParams(beta=0.5, schedule=SCHEDULE))
    assert rep.verdict == "bounded_on_schedule"
    # a one-sided geometric sum peaks at height ~ n near its conjugate
    # frequency, so the n^(1-beta) weight cannot tame it
    a = transform_sequence(named_sequence("constant", value=1.0), "modulate", turns=0.31)
    rep2 = rate_report(a, "one_sided_sup", RateParams(beta=0.5, schedule=SCHEDULE))
    assert rep2.verdict == "growing"


def test_parseval_holder_examples():
    one = named_sequence("constant", value=1.0)
    res = parseval_holder_check(one, 8, 4 * 8 + 1)
    assert res["lhs"] == pytest.approx(17.0)
    assert res["rhs"] == pytest.approx(17.0)  # Cauchy-Schwarz equality at constant modulus
    assert res["pass"]

    hl = named_sequence("hardy_littlewood")
    res = parseval_holder_check(hl, 64, 4 * 64 + 1)
    assert res["mid"] == pytest.approx(129.0, rel=1e-10)

    sd = named_sequence("sparse_dyadic")
    res = parseval_holder_check(sd, 16, 4 * 16 + 1)
    assert res["lhs"] == pytest.approx(20.0)
    assert res["lhs"] <= res["rhs"]


def test_parseval_grid_requirement():
    with pytest.raises(ValueError):
        parseval_holder_check(named_sequence("constant"), 8, 32)


def test_parseval_exact_over_corpus(sequence_corpus):
    for a in sequence_corpus:
        for n in (16, 256, 4096):
            res = parseval_holder_check(a, n, 4 * n + 1)
            assert res["pass"], f"{a.label} failed at n={n}: {res}"


def test_sup_invariant_under_grid_modulation(sequence_corpus):
    # rotating by a grid frequency permutes the grid, so the sup is unchanged
    n, G = 256, 2048
    for a in sequence_corpus:
        moded = transform_sequence(a, "modulate", turns=37 / G)
        s0 = exp_sum_sup(a, n, G)
        s1 = exp_sum_sup(moded, n, G)
        assert abs(s0 - s1) <= 1e-10 * (1 + s0)


def test_holder_transfer_chain(sequence_corpus):
    # finite-n shadow of the sup-class -> prefix-class containment: if
    # sup_grid |sum_{|k|<=n} a_k z^k| <= C n^(alpha_src-1)/log^alpha_src(n), the
    # Cauchy-Schwarz/Parseval chain bounds the prefix ratio at alpha_dst by
    # sqrt(2) C (n+1)^(1/2) n^(alpha_src-alpha_dst) log^(alpha_dst-alpha_src)(n)
    alpha_src, alpha_dst = 1.45, 2.0
    schedule = tuple(2**j for j in range(8, 13))
    for a in sequence_corpus + [power_log_decay()]:
        sup_rep = check_A_alpha(a, RateParams(alpha=alpha_src, schedule=schedule))
        C = sup_rep.sup_estimate
        pre_rep = abs_prefix_ratios(a, "m_alpha", RateParams(alpha=alpha_dst, schedule=schedule))
        for n, ratio in zip(schedule, pre_rep.ratios):
            bound = math.sqrt(2.0) * C * math.sqrt(n + 1.0) * n ** (alpha_src - alpha_dst) \
                * math.log(n) ** (alpha_dst - alpha_src)
            assert ratio <= bound * (1 + 1e-9)


# ------------------------------------------------- in-place grids, largest first

def _scatter_grid(a, n, G, side):
    """The index-scatter grid that `exp_sum_grid` replaced, kept as its oracle."""
    coeffs = np.zeros(G, dtype=complex)
    if side == "two_sided":
        coeffs[np.mod(np.arange(-n, n + 1, dtype=np.int64), G)] = a.range_values(n)
    else:
        coeffs[np.mod(np.arange(1, n + 1, dtype=np.int64), G)] = a.range_values(n)[n + 1 :]
    return np.fft.ifft(coeffs) * G


@pytest.mark.parametrize("side", ["two_sided", "one_sided"])
@pytest.mark.parametrize("n, G", [(1, 3), (1, 8), (37, 75), (100, 1001), (300, 4096)])
def test_exp_sum_grid_is_bitwise_the_scatter_grid(side, n, G):
    # n = 1, the minimal G = 2n+1, an odd G and powers of two
    rng = np.random.default_rng(n)
    a = from_values(rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1))
    assert exp_sum_grid(a, n, G, side).tobytes() == _scatter_grid(a, n, G, side).tobytes()
    hl = named_sequence("hardy_littlewood")
    assert exp_sum_grid(hl, n, G, side).tobytes() == _scatter_grid(hl, n, G, side).tobytes()


def test_exp_sum_grid_rejects_a_bad_side_before_evaluating():
    calls = []
    a = ModulatingSequence("counted", lambda ks: calls.append(ks.size) or np.ones(ks.size, complex),
                           bound=1.0)
    with pytest.raises(ValueError, match="unknown side"):
        exp_sum_grid(a, 4, 9, "both")
    assert calls == []


@pytest.mark.parametrize("klass", ["a_alpha", "a_alpha_plain", "one_sided_sup"])
@pytest.mark.parametrize("name, grid_order", [("hardy_littlewood", None), ("sparse_dyadic", 4099)])
def test_schedule_is_bitwise_an_ascending_loop_on_fresh_sequences(klass, name, grid_order):
    # each reference radius gets a fresh sequence, so the schedule's memo
    # views must round like fresh evaluations
    schedule = (64, 100, 256, 1024)
    got = rate_report(named_sequence(name), klass, RateParams(schedule=schedule, grid_order=grid_order))
    ref = [rate_report(named_sequence(name), klass, RateParams(schedule=(n,), grid_order=grid_order))
           for n in schedule]
    assert np.array(got.ratios).tobytes() == np.array([r.ratios[0] for r in ref]).tobytes()
    assert got.grid_order == tuple(r.grid_order[0] for r in ref)


def test_schedule_runs_largest_grid_first_on_one_evaluation(monkeypatch):
    lengths, evaluated = [], []
    ifft = np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda c, *args, **kw: lengths.append(c.size) or ifft(c, *args, **kw))
    hl = named_sequence("hardy_littlewood")
    a = ModulatingSequence("counted", lambda ks: evaluated.append(ks.size) or hl.values(ks), bound=1.0)
    params = RateParams(schedule=(256, 512, 1024))
    check_A_alpha(a, params)
    rate_report(a, "one_sided_sup", params)
    assert lengths == [8192, 4096, 2048] * 2
    assert evaluated == [2 * 1024 + 1]  # the memo is filled once, at the largest radius


def test_exp_sum_sup_stays_near_one_grid_in_memory():
    # the scatter grid peaked at 2.14 grids of 16 G bytes here: the
    # coefficients, the ifft output, its scaled copy and the index arrays
    n, G = 2**16, 2**19
    a = named_sequence("hardy_littlewood")
    a.range_values(n)
    tracemalloc.start()
    try:
        exp_sum_sup(a, n, G)
        assert tracemalloc.get_traced_memory()[1] < 1.6 * 16 * G
    finally:
        tracemalloc.stop()
