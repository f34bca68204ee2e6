import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehtlab.cli import _SEQUENCES, _spec
from ehtlab.dynamics import SQRT2_TURNS, RotationPoint, make_system
from ehtlab.errors import InvariantError
from ehtlab.numerics import _BLOCK_TERMS
from ehtlab.sequences import (
    ModulatingSequence,
    _cycle_indicator,
    from_values,
    named_sequence,
    transform_sequence,
    trig_poly_sequence,
)


def _sequence_from_spec(sp: dict) -> ModulatingSequence:
    return _spec({"sequence": sp}, "sequence", _SEQUENCES)


def test_trig_poly_constant():
    a = trig_poly_sequence([(1.0, 0.0)])
    assert all(a.eval(k) == 1.0 for k in (-3, 0, 5))
    assert a.symmetric


def test_trig_poly_quarter_turn():
    a = trig_poly_sequence([(1.0, 0.25)])
    assert a.eval(4) == pytest.approx(1.0)
    assert a.eval(2) == pytest.approx(-1.0)


def test_trig_poly_bound_over_range():
    a = trig_poly_sequence([(1.0, 0.3), (2.0, 0.5)])
    assert a.bound == 3.0
    assert a.eval(0) == pytest.approx(3.0)
    vals = a.range_values(10**4)
    assert np.max(np.abs(vals)) <= 3.0 + 1e-12


def test_trig_poly_rejects_no_terms_and_non_finite_angles():
    with pytest.raises(ValueError, match="at least one term"):
        trig_poly_sequence([])
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="not finite"):
            trig_poly_sequence([(1.0, 0.25), (1.0, bad)])


def test_hardy_littlewood_values():
    a = named_sequence("hardy_littlewood")
    assert a.eval(1) == pytest.approx(1.0)  # log 1 = 0
    assert a.eval(0) == 1.0
    assert np.allclose(np.abs(a.range_values(2)), 1.0)


def test_sparse_dyadic_values():
    a = named_sequence("sparse_dyadic")
    assert a.eval(4) == 2
    assert a.eval(-8) == 3
    assert a.eval(5) == 0
    assert a.eval(1) == 0  # exponents start at j = 1
    assert [v.real for v in a.range_values(4)] == [2, 0, 1, 0, 0, 0, 1, 0, 2]


def test_cycle_indicator_conventions():
    sym = named_sequence("cycle_indicator")
    assert (sym.eval(1), sym.eval(-1), sym.eval(3), sym.eval(4)) == (1, 1, 0, 1)
    assert sym.eval(0) == 0
    signed = named_sequence("cycle_indicator", convention="signed")
    assert (signed.eval(1), signed.eval(-1), signed.eval(-4)) == (1, -1, -1)
    assert signed.eval(-2) == 0
    # per index: state 1 moved k steps lands in state 2 exactly when k = 1 mod 3
    ks = np.arange(-40, 41, dtype=np.int64)
    hit = [k != 0 and abs(k) % 3 == 1 for k in ks]
    assert sym.values(ks).tolist() == [complex(h) for h in hit]
    assert signed.values(ks).tolist() == [complex(h * (1 if k > 0 else -1)) for k, h in zip(ks, hit)]
    with pytest.raises(ValueError):
        named_sequence("cycle_indicator", convention="odd")


def test_eval_range_plumbing():
    one = named_sequence("constant", value=1.0)
    assert list(one.range_values(1)) == [1, 1, 1]
    # memoized: repeated calls return identical arrays, larger cache is sliced
    a = named_sequence("hardy_littlewood")
    big = a.range_values(50)
    small = a.range_values(7)
    assert np.array_equal(small, big[50 - 7 : 50 + 8])
    assert np.array_equal(a.range_values(50), big)


def test_truncate_and_compose():
    a = transform_sequence(named_sequence("constant", value=1.0), "truncate", r=2)
    assert a.eval(3) == 0 and a.eval(-2) == 1
    # truncate(r) then eval_range(n <= r) sees the original values
    base = named_sequence("hardy_littlewood")
    tr = transform_sequence(base, "truncate", r=64)
    assert np.array_equal(tr.range_values(32), base.range_values(32))


def test_symmetrize_and_scale():
    one_sided = from_values([0, 0, 0, 5.0, 0], label="spike", one_sided=False)
    sym = transform_sequence(one_sided, "symmetrize")
    assert sym.eval(-1) == 5.0 and sym.symmetric
    sc = transform_sequence(one_sided, "scale", c=2j)
    assert sc.eval(1) == 10j


def test_modulate_alternating_and_flags():
    alt = transform_sequence(named_sequence("constant", value=1.0), "modulate", turns=0.5)
    assert [alt.eval(k) for k in (-2, -1, 0, 1, 2)] == [1, -1, 1, -1, 1]
    assert alt.symmetric
    for turns in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="not finite"):
            transform_sequence(named_sequence("constant"), "modulate", turns=turns)
    with pytest.raises(ValueError, match="needs an angle"):
        transform_sequence(named_sequence("constant"), "modulate")


def test_modulate_preserves_modulus():
    base = named_sequence("hardy_littlewood")
    mod = transform_sequence(base, "modulate", turns=0.2371)
    n = 2048
    assert np.allclose(np.abs(mod.range_values(n)), np.abs(base.range_values(n)),
                       rtol=1e-13, atol=0)


def test_modulate_phase_at_eight_million_matches_200_bits():
    # the sweep's resonant angle and two configured ones: e(k theta) of the double theta,
    # within the phase kernel's 24 u; a single rounded product k * theta would drift like
    # k 2^-53 turns, and recovering theta from e(theta) (0.71 came back as -0.2900000000000001)
    # missed by 4.4e-10 turns at k = 8e6
    ks = np.array([8_000_000, -8_000_000, 100_000, 1_000_000])
    for theta in (-SQRT2_TURNS, 0.17, 0.71):
        mod = _sequence_from_spec({"op": "modulate", "angle_turns": theta,
                                   "base": {"name": "constant"}})
        with mp.workprec(200):
            want = [complex(mp.expjpi(2 * k * mp.mpf(theta))) for k in ks.tolist()]
        err = max(abs(z - w) for z, w in zip(mod.values(ks).tolist(), want))
        assert err <= 24 * 2.0**-53, theta


def test_half_turn_modulation_is_exact_signs():
    for base in ({"name": "constant"}, {"name": "cycle_indicator"}):
        half = _sequence_from_spec({"op": "modulate", "angle_turns": 0.5, "base": base})
        assert half.symmetric
        ks = np.arange(-9, 10)
        want = _sequence_from_spec(base).values(ks) * (-1.0) ** ks
        got = half.values(ks)
        assert np.array_equal(got.real, want.real) and np.all(got.imag == 0)
    assert np.array_equal(half.range_values(2**14), half.range_values(2**14)[::-1])


def test_angles_are_reduced_exactly():
    # 3.7 - 4 is exact, and it is the angle the sequence runs on
    spec = lambda t: {"op": "modulate", "angle_turns": t, "base": {"name": "hardy_littlewood"}}
    far, near = _sequence_from_spec(spec(3.7)), _sequence_from_spec(spec(3.7 - 4))
    assert far.range_values(5000).tobytes() == near.range_values(5000).tobytes()
    poly = lambda t: trig_poly_sequence([(1.0, t), (0.5j, 0.125)])
    assert poly(3.7).range_values(5000).tobytes() == poly(3.7 - 4).range_values(5000).tobytes()


def test_phases_beyond_the_exact_angle_range_raise():
    modulated = transform_sequence(named_sequence("constant"), "modulate", turns=0.3)
    poly = trig_poly_sequence([(1.0, 0.3), (2.0, 0.25)])
    rotation = make_system("rotation", angle_turns="sqrt2")
    for k in (2**27, -(2**27)):
        for evaluate in (modulated.values, poly.values,
                         lambda ks: rotation.orbit_coords(RotationPoint(0.1), ks)):
            with pytest.raises(ValueError, match="exact-angle range"):
                evaluate(np.array([k]))
    assert np.isfinite(poly.values(np.array([2**27 - 1, 1 - 2**27]))).all()


def test_product_bound_propagation():
    a = named_sequence("constant", value=2.0)
    b = named_sequence("cycle_indicator")
    p = transform_sequence(a, "product", b=b)
    assert p.bound == 2.0
    assert p.eval(1) == 2.0 and p.eval(2) == 0.0


def test_bound_invariant_enforced():
    bad = from_values([1.0, 1.0, 1.0], label="liar")
    object.__setattr__(bad, "bound", 0.5)
    with pytest.raises(InvariantError):
        bad.range_values(1)


def test_nan_values_fail_a_declared_bound():
    # NaN compares False with any bound, so the check must pass only values <= the bound
    nan = ModulatingSequence("x", lambda ks: np.full(ks.shape, np.nan + 0j), bound=1.0)
    with pytest.raises(InvariantError, match="exceeds declared bound"):
        nan.range_values(2)
    with pytest.raises(InvariantError, match="exceeds declared bound"):
        nan.pair_values(np.arange(3))


def test_symmetric_flag_enforced():
    vals = np.array([1.0, 0.0, 2.0])  # a_{-1} != a_1
    bad = from_values(vals, label="asym", symmetric=True)
    with pytest.raises(InvariantError):
        bad.range_values(1)


def test_flag_failures_name_the_range():
    # a_{-2} = 1 and a_2 = 2; the message names the block of pair_values, or the range
    bad = from_values([1.0, 0.0, 0.0, 0.0, 2.0], label="asym", symmetric=True)
    with pytest.raises(InvariantError, match=re.escape("asym: symmetric flag violated on +-[1, 2]")):
        bad.pair_values(np.arange(1, 3))
    with pytest.raises(InvariantError, match=re.escape("asym: symmetric flag violated on [-2, 2]")):
        bad.range_values(2)
    bad.pair_values(np.arange(0, 0))  # no empty block fails


def _block_corpus():
    """Every named sequence, a trig polynomial, a table and each `transform_sequence` op."""
    rng = np.random.default_rng(7)
    table = from_values(rng.standard_normal(2 * _BLOCK_TERMS + 1)
                        + 1j * rng.standard_normal(2 * _BLOCK_TERMS + 1))
    hl = named_sequence("hardy_littlewood")
    tp = trig_poly_sequence([(1.0, 0.3), (0.5 - 2j, -0.123456789), (2.0, 0.5)])
    return [hl, named_sequence("sparse_dyadic"), named_sequence("cycle_indicator"),
            named_sequence("cycle_indicator", convention="signed"),
            named_sequence("constant", value=0.7 - 0.3j), tp, table,
            transform_sequence(hl, "symmetrize"), transform_sequence(tp, "truncate", r=5000),
            transform_sequence(hl, "scale", c=-1.5 + 0.5j), transform_sequence(hl, "product", b=tp),
            *(transform_sequence(hl, "modulate", turns=t) for t in (0.0, 0.5, 0.3183))]


@pytest.mark.parametrize("n", [_BLOCK_TERMS - 1, _BLOCK_TERMS, 3 * _BLOCK_TERMS + 5])
def test_range_values_in_blocks_is_bitwise_one_call(n):
    for fresh, one in zip(_block_corpus(), _block_corpus()):
        sizes = []
        counted = ModulatingSequence(fresh.label, lambda ks, f=fresh.fn: sizes.append(ks.size) or f(ks),
                                     bound=fresh.bound, symmetric=fresh.symmetric)
        whole = one.values(np.arange(-n, n + 1))
        assert counted.range_values(n).tobytes() == whole.tobytes(), fresh.label
        assert max(sizes) <= _BLOCK_TERMS and sum(sizes) == 2 * n + 1


def test_flag_failures_in_a_late_block_raise_the_one_call_message():
    n = 3 * _BLOCK_TERMS + 5
    lopsided = lambda ks: np.where(ks == n, 2.0, np.where(ks == -n, 0.5, 1.0)).astype(complex)
    with pytest.raises(InvariantError, match=re.escape("liar: |a_k| = 2.0 exceeds declared bound 1.0")):
        ModulatingSequence("liar", lopsided, bound=1.0).range_values(n)
    with pytest.raises(InvariantError, match=re.escape(f"asym: symmetric flag violated on [-{n}, {n}]")):
        ModulatingSequence("asym", lopsided, bound=2.0, symmetric=True).range_values(n)
    shrunk = ModulatingSequence("short", lambda ks: np.ones(min(ks.size, 10), dtype=complex), bound=1.0)
    with pytest.raises(InvariantError, match="short: evaluator changed the index shape"):
        shrunk.range_values(n)


def test_symmetrize_evaluates_its_base_once_per_block():
    calls = []

    def fn(ks):
        calls.append(ks.size)
        return np.exp(1j * ks.astype(float))
    base = ModulatingSequence("counted", fn, bound=1.0)
    sym = transform_sequence(base, "symmetrize")
    ks = np.arange(1, 301, dtype=np.int64)
    for a in (sym, transform_sequence(sym, "symmetrize")):  # nested too
        calls.clear()
        pos, neg = a.pair_values(ks)
        assert calls == [ks.size] and pos is neg
    # a sequence without a pair rule evaluates both sides
    calls.clear()
    transform_sequence(sym, "scale", c=2.0).pair_values(ks)
    assert calls == [ks.size, ks.size]


def test_declared_symmetry_is_still_compared_in_pair_values(monkeypatch):
    # a table that breaks its symmetric flag is caught through a product with a
    # symmetrized sequence, whose own two sides are one array
    liar = from_values([1.0, 0.0, 2.0], label="liar", symmetric=True)
    sym = transform_sequence(named_sequence("hardy_littlewood"), "symmetrize")
    p = transform_sequence(sym, "product", b=liar)
    assert p.symmetric
    with pytest.raises(InvariantError, match="liar.*symmetric flag violated"):
        p.pair_values(np.arange(0, 3))
    # the symmetric cycle indicator returns two tiles, so its sides are compared
    compared = []
    array_equal = np.array_equal
    monkeypatch.setattr(np, "array_equal",
                        lambda *args: compared.append(1) or array_equal(*args))
    pos, neg = named_sequence("cycle_indicator").pair_values(np.arange(1, 100))
    assert pos is not neg and compared == [1]
    compared.clear()
    sym.pair_values(np.arange(1, 100))
    assert compared == []


def _masked_cycle_indicator(ks, signed_negative):
    out = np.zeros(ks.shape, dtype=complex)
    res = ks % 3
    out[(ks > 0) & (res == 1)] = 1.0
    out[(ks < 0) & (res == 2)] = -1.0 if signed_negative else 1.0
    return out


@pytest.mark.parametrize("signed", [False, True])
def test_cycle_indicator_table_matches_the_mask_form(signed):
    ks = np.arange(-10**5, 10**5 + 1, dtype=np.int64)
    want = _masked_cycle_indicator(ks, signed).view(np.int64)
    assert np.array_equal(_cycle_indicator(ks, signed).view(np.int64), want)


@settings(derandomize=True, max_examples=40)
@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
def test_truncate_is_compositional(r, n):
    base = named_sequence("hardy_littlewood")
    tr = transform_sequence(base, "truncate", r=r)
    vals = tr.range_values(n)
    expect = base.range_values(n).copy()
    ks = np.arange(-n, n + 1)
    expect[np.abs(ks) > r] = 0
    assert np.array_equal(vals, expect)


@settings(derandomize=True, max_examples=30)
@given(st.integers(min_value=1, max_value=30))
def test_symmetrize_idempotent(n):
    rng = np.random.default_rng(5)
    a = from_values(rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1))
    s1 = transform_sequence(a, "symmetrize")
    s2 = transform_sequence(s1, "symmetrize")
    assert np.array_equal(s1.range_values(n), s2.range_values(n))


def test_corpus_bounds_hold_at_ten_thousand(sequence_corpus):
    for a in sequence_corpus:
        if a.bound is None:
            continue
        vals = a.range_values(10**4)  # flag checks run inside
        assert np.max(np.abs(vals)) <= a.bound * (1 + 1e-9)
