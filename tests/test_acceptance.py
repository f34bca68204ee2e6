"""Acceptance gate: every shipped claim at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s`; each criterion prints one
PASS line on success (pytest reports FAIL otherwise) and enforces its runtime
budget where one is stated.
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from ehtlab.cli import parse_config, run_experiment
from ehtlab.dynamics import (
    CyclePoint,
    cycle_step_observable,
    make_system,
    orbit_values,
    rotation_character,
    rotation_raised_cosine,
    sample_points,
    torus_character,
)
from ehtlab.envelope import (
    build_envelope,
    divergent_modulator_demo,
    evaluate_g,
    fejer_integral,
    inverse_linear_majorant,
    inverse_log_majorant,
    verify_envelope_conditions,
)
from ehtlab.numerics import fit_loglog
from ehtlab.processes import (
    build_process,
    process_eht_trace,
    seminorm_and_hilbert,
    structural_identity_check,
    truncated_approximant,
)
from ehtlab.rates import exp_sum_sup, parseval_holder_check
from ehtlab.sequences import from_values, named_sequence
from ehtlab.transform import (
    abel_identity_residual,
    default_checkpoints,
    eht_trace,
    l2_diff_vs_spectral,
    wiener_wintner_sweep,
)

from conftest import corpus

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(num: int, detail: str) -> None:
    print(f"[criterion {num:2d}] PASS  {detail}")


# ---------------------------------------------------------------- criterion 1

class QC:
    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return QC(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return QC(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return QC(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def over(self, k):
        return QC(self.re / k, self.im / k)

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im


def test_criterion_1_abel_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    n = 1000
    worst = 0.0
    for _ in range(200):
        a = from_values(rng.uniform(-1, 1, 2 * n + 1) + 1j * rng.uniform(-1, 1, 2 * n + 1))
        orbit = rng.uniform(-1, 1, 2 * n + 1) + 1j * rng.uniform(-1, 1, 2 * n + 1)
        worst = max(worst, abel_identity_residual(a, orbit, n))
    assert worst <= 1e-10

    # exact-rational oracle: the identity is algebraic, residual exactly zero
    for trial in range(3):
        N = 20
        rat = lambda: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
        avals = [QC(rat(), rat()) for _ in range(2 * N + 1)]
        orbit = [QC(rat(), rat()) for _ in range(2 * N + 1)]
        for nn in (2, 11, 20):
            d = [avals[N + k] * orbit[N + k] - avals[N - k] * orbit[N - k]
                 for k in range(1, nn + 1)]
            direct = QC(0)
            for k in range(1, nn + 1):
                direct = direct + d[k - 1].over(k)
            D = QC(0)
            decomposed = QC(0)
            for k in range(1, nn):
                D = D + d[k - 1]
                decomposed = decomposed + D.over(k * (k + 1))
            D = D + d[nn - 1]
            decomposed = decomposed + D.over(nn)
            assert direct == decomposed
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(1, f"max residual {worst:.2e} over 200 cases at n=1000; rational oracle exact; {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_hardy_littlewood_exponent():
    t0 = time.monotonic()
    hl = named_sequence("hardy_littlewood")
    schedule = [2**j for j in range(8, 16)]
    sups = [exp_sum_sup(hl, n, 8 * n) for n in schedule]
    fit = fit_loglog(np.asarray(schedule, float), np.asarray(sups))
    assert 0.45 <= fit.slope <= 0.60
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(2, f"fitted exponent {fit.slope:.4f} in [0.45, 0.60]; {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_counterexample_growth_law():
    t0 = time.monotonic()
    cyc = make_system("three_cycle")
    f = cycle_step_observable()
    seq = named_sequence("cycle_indicator")  # symmetric convention
    n_hi = 10**6
    orbit = orbit_values(cyc, f, CyclePoint(0), 3 * n_hi + 1)
    ns = np.arange(10, n_hi + 1)
    trace = eht_trace(seq, orbit, 3 * ns + 1)
    H = trace.H_values.real
    assert np.all(trace.H_values.imag == 0)
    assert np.all(np.diff(H) >= 0)  # monotone increase
    model = (2.0 / 3.0) * np.log(3.0 * ns + 1.0)
    c = float(np.mean(H - model))
    dev = float(np.max(np.abs(H - model - c)))
    assert dev <= 1.0
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(3, f"fitted c {c:.4f}, max |H - (2/3)log(3n+1) - c| = {dev:.3f} <= 1 "
               f"over n in [10, 1e6]; {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_resonance_growth():
    t0 = time.monotonic()
    rot = make_system("rotation", angle_turns="sqrt2")
    f = rotation_character(1)
    x0 = rot.default_point()

    res = wiener_wintner_sweep(rot, f, x0, [-rot.theta],
                               default_checkpoints(10**6, n_min=64), symmetric=True)[0]
    fit = res["verdict"].growth_fit
    assert res["verdict"].verdict == "diverging"
    assert fit.model == "log n"
    assert abs(fit.coefficient - 1.0) <= 0.1

    rows = wiener_wintner_sweep(rot, f, x0, [0.17, 0.35, 0.71],
                                default_checkpoints(10**5, n_min=64), symmetric=True)
    for row in rows:
        assert row["verdict"].verdict == "cauchy_trend"
        assert row["verdict"].oscillations[-1][2] < 1e-2
    elapsed = time.monotonic() - t0
    _report(4, f"resonant log-n coefficient {fit.coefficient:.4f} (within 10% of 1); "
               f"3 off-resonance trends settle, final oscillation "
               f"{max(r['verdict'].oscillations[-1][2] for r in rows):.2e} < 1e-2; {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_parseval_holder_chain():
    worst = 0.0
    for a in corpus():
        for n in (16, 128, 1024, 4096):
            res = parseval_holder_check(a, n, 4 * n + 1)
            assert res["pass"], (a.label, n, res)
            worst = max(worst, res["parseval_rel_err"])
            # the chain uses the corrected term count (2n+1)^(1/2)
            assert res["holder_factor"] == "(2n+1)^(1/2)"
            assert res["lhs"] <= res["rhs"] * (1 + 1e-12)
    _report(5, f"grid identity exact to {worst:.2e} rel (<= 1e-10) for "
               f"{len(corpus())} corpus sequences at n up to 4096, G = 4n+1")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_envelope_construction():
    hm = inverse_log_majorant(3)
    env = build_envelope(hm, K=36)
    rep = verify_envelope_conditions(env, hm)
    assert rep["all_pass"], rep
    ps = rep["star1_partial_sums"]
    assert ps[-1] - ps[29] < 1e-6

    worst_pi = max(abs(fejer_integral(k) - math.pi) for k in range(1, 101))
    assert worst_pi <= 1e-6

    # two-route agreement needs coefficients actually reaching ~1e-6 at a
    # summable depth, hence the fast minorant through the same construction
    fast = build_envelope(inverse_linear_majorant(), K=26)
    xs = np.linspace(0.5, 2 * math.pi - 0.5, 100)
    rows = evaluate_g(fast, xs, tol=1e-6, direct_cap=1 << 21)
    gap = max(r["two_route_gap"] for r in rows)
    assert gap <= 1e-5
    assert max(r["tail_bound"] for r in rows) <= 1e-6
    _report(6, f"conditions (i)-(vi) pass for the 1/log(n+3) envelope (36 breakpoints); "
               f"weighted-difference sums move {ps[-1]-ps[29]:.2e} beyond breakpoint 30; "
               f"max |kernel integral - pi| = {worst_pi:.2e}; "
               f"two-route gap {gap:.2e} <= 1e-5 at 100 points")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_divergent_modulator():
    t0 = time.monotonic()
    demo = divergent_modulator_demo(10**7)
    final = demo["oracle_final"]
    assert 2.9 <= final <= 3.3
    assert demo["loglog_residual"] < 0.05
    assert demo["dominates_oracle"]
    assert demo["envelope_final"] >= demo["oracle_final"]
    sums = demo["oracle_partial_sums"]
    assert all(b > a for a, b in zip(sums, sums[1:]))
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(7, f"oracle partial sum {final:.4f} in 3.1 +/- 0.2 at N=1e7, "
               f"loglog fit residual {demo['loglog_residual']:.2e} < 0.05, "
               f"envelope dominates termwise; {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_spectral_identity():
    rot = make_system("rotation", angle_turns="sqrt2")
    rng = np.random.default_rng(77)
    j_schedule = (16, 64, 256, 1024)
    jmax = j_schedule[-1]

    # rotation eigenfunctions with one-sided weights, where the stated form
    # |sum_{1<=|k|<=j} a_k phi^k| is exactly the block-difference norm
    worst_rot = 0.0
    for m, make_vals in ((1, lambda: rng.uniform(-1, 1, jmax) + 1j * rng.uniform(-1, 1, jmax)),
                         (3, lambda: np.exp(1j * rng.uniform(0, 2 * np.pi, jmax)))):
        vals = np.zeros(2 * jmax + 1, complex)
        vals[jmax + 1 :] = make_vals()
        a = from_values(vals, one_sided=True, label=f"one_sided_m{m}")
        f = rotation_character(m)
        res = l2_diff_vs_spectral(a, rot, f, j_schedule, sample_count=128, seed=5)
        avals = a.range_values(jmax)
        phi_m = complex(np.exp(2j * np.pi * ((m * rot.theta) % 1.0)))
        for row in res["rows"]:
            ks = np.arange(-row["j"], row["j"] + 1)
            ks = ks[ks != 0]
            literal = abs(np.sum(avals[ks + jmax] * phi_m ** ks.astype(float)))
            rel = abs(row["mc_norm"] - literal) / (1 + literal)
            worst_rot = max(worst_rot, rel)
            assert rel <= 1e-8

    # torus characters with exact lattice quadrature against the flat-measure
    # closed form (sum of |a_k|^2)
    worst_tor = 0.0
    tor = make_system("torus_automorphism")
    f = torus_character(1, 0)
    sym_vals = rng.uniform(-1, 1, jmax + 1) + 1j * rng.uniform(-1, 1, jmax + 1)
    table = np.concatenate([np.conj(sym_vals[1:])[::-1], sym_vals])
    for a in (named_sequence("cycle_indicator"), from_values(table, label="hermitian_random")):
        res = l2_diff_vs_spectral(a, tor, f, j_schedule, seed=0)
        assert res["exact"]
        avals = a.range_values(jmax)
        for row in res["rows"]:
            j = row["j"]
            sq = np.abs(avals) ** 2
            expect = math.sqrt(float(np.sum(sq[jmax + 1 : jmax + j + 1])
                                     + np.sum(sq[jmax - j : jmax])))
            rel = abs(row["mc_norm"] - expect) / (1 + expect)
            worst_tor = max(worst_tor, rel)
            assert rel <= 1e-8
    _report(8, f"eigenfunction route max rel err {worst_rot:.2e}, exact-lattice torus "
               f"route max rel err {worst_tor:.2e} (both <= 1e-8, j <= 1024)")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_process_suite():
    rot = make_system("rotation", angle_turns="sqrt2")
    delta = rotation_raised_cosine()
    F = build_process(rot, delta, seed=11)
    pts = sample_points(rot, 1000, seed=31)

    chk = structural_identity_check(F, pts, [1, 2, 5, 9, 16])
    assert chk == {"structure_exact": True, "symmetry_exact": True, "admissible": True}

    for r, i in ((2, 5), (4, 7), (4, -7), (8, 20), (8, 3)):
        app = truncated_approximant(F, r, i, pts)
        assert app["sandwich_ok"], (r, i)

    sd = named_sequence("sparse_dyadic")
    res = process_eht_trace(sd, F, rot.default_point(),
                            default_checkpoints(1 << 13), [4, 16, 64, 256])
    rows = res["approximants"]
    devs = [row["max_deviation"] for row in rows]
    bounds = [row["deviation_bound"] for row in rows]
    gaps = [row["l2_gap"] for row in rows]
    assert all(d <= b * (1 + 1e-12) for d, b in zip(devs, bounds))
    assert all(b2 < b1 for b1, b2 in zip(devs, devs[1:]))
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    schedule = [2**j for j in range(8, 14)]
    out = seminorm_and_hilbert(sd, 1.5, schedule,
                               truncation_radii=[2**r for r in range(2, 15, 2)])
    tails = [row["tail_seminorm_proxy"] for row in out["truncation_experiment"]]
    assert all(b <= a for a, b in zip(tails, tails[1:]))
    assert tails[-1] == 0.0
    verdicts = {row["verdict"] for row in out["truncation_experiment"]}
    assert verdicts == {out["verdict"].verdict}
    _report(9, f"structural identities bitwise on 1000 points; sandwich holds at 5 (r, i) "
               f"pairs x 1000 points; deviations {devs[0]:.1e} -> {devs[-1]:.1e} under "
               f"bounds; truncation seminorm {tails[0]:.2f} -> 0 with stable verdicts")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_determinism(tmp_path):
    digests = {}
    for cfg_path in sorted(CONFIG_DIR.glob("*.json")):
        raw = json.loads(cfg_path.read_text())
        blobs = []
        for tag in ("a", "b"):
            raw_run = dict(raw)
            raw_run["out_dir"] = str(tmp_path / cfg_path.stem / tag)
            code, _ = run_experiment(parse_config(raw_run))
            assert code == 0, cfg_path.name
            blobs.append((tmp_path / cfg_path.stem / tag / "report.json").read_bytes())
        assert blobs[0] == blobs[1], f"{cfg_path.name} not reproducible"
        digests[cfg_path.stem] = len(blobs[0])
    assert len(digests) == 6
    _report(10, f"6 shipped configs byte-identical across repeated runs: "
                f"{sorted(digests)}")
