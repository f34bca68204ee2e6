"""The benchmark's workloads: batches of `ehtlab run` experiments and their checks.

Every experiment is one fresh `python -m ehtlab.cli run ...` process. Its
config is generated here from the workload seed (the transform and process
sampling seeds derive from it) or is one of the repository's shipped
configs. `check(report)` returns the failed headline checks: the values the
paper's closed forms or the lab's exact oracles fix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

SQRT2 = {"kind": "rotation", "angle_turns": "sqrt2"}
TRIG_POLY = {"name": "trig_poly", "terms": [[1.0, 0.09765625], [[2.0, 0.5], 0.29296875]]}
TRIG_POLY_ANGLES = (0.09765625, 0.29296875)


@dataclass(frozen=True)
class Experiment:
    """One `ehtlab run`; every experiment is expected to exit 0."""
    name: str
    check: Callable[[dict], list[str]]
    config: dict | None = None   # generated config, or None for a shipped one
    shipped: str | None = None   # path of a shipped config, relative to the repo root
    note: str = ""


def _within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def check_counterexample(report: dict) -> list[str]:
    conv = report["results"]["conventions"]
    bad = []
    if "symmetric" in conv:
        v = conv["symmetric"]["cell_0"]["verdict"]
        fit = v["growth_fit"] or {}
        if v["verdict"] != "diverging" or fit.get("model") != "log n" \
                or not _within(fit.get("coefficient", 0.0), 2.0 / 3.0, 0.10):
            bad.append(f"symmetric cell_0 is {v['verdict']} with fit {fit}, "
                       "expected diverging like (2/3) log n")
    if "signed" in conv:
        h = conv["signed"]["cell_0"]["H_final"]
        if h != {"re": 0.0, "im": 0.0}:
            bad.append(f"signed cell_0 H_final = {h}, expected exactly 0")
    return bad


def check_sweep(report: dict) -> list[str]:
    rows = report["results"]["per_lambda"]
    bad = []
    resonant, *others = rows  # "resonant" is the first entry of every swept grid here
    fit = resonant["verdict"]["growth_fit"] or {}
    if resonant["verdict"]["verdict"] != "diverging" or fit.get("model") != "log n" \
            or not _within(fit.get("coefficient", 0.0), 1.0, 0.10):
        bad.append(f"resonant lambda is {resonant['verdict']['verdict']} with fit {fit}, "
                   "expected diverging like log n")
    for row in others:
        if row["verdict"]["verdict"] != "cauchy_trend":
            bad.append(f"off-resonance lambda {row['theta_turns']} is "
                       f"{row['verdict']['verdict']}, expected cauchy_trend")
    return bad


def check_rates(report: dict) -> list[str]:
    ok = report["results"]["parseval_check_at_min_n"]["pass"]
    return [] if ok else ["grid Parseval / Cauchy-Schwarz check failed"]


def check_prop27(report: dict) -> list[str]:
    r = report["results"]
    bad = []
    if not r["conditions"]["all_pass"]:
        bad.append("envelope conditions fail")
    for order, value in zip(r["kernel_integral_check"]["orders"],
                            r["kernel_integral_check"]["values"]):
        if abs(value - math.pi) > 1e-6:
            bad.append(f"kernel integral of order {order} is {value}, expected pi")
    prof = r.get("l1_profile")
    if prof is not None and not prof["max_integral"] <= prof["uniform_bound_certificate"]:
        bad.append(f"l1 profile {prof['max_integral']} exceeds its certificate "
                   f"{prof['uniform_bound_certificate']}")
    mod = r.get("divergent_modulator")
    if mod is not None and not (mod["dominates_oracle"] and mod["loglog_residual"] < 0.05):
        bad.append(f"divergent modulator: dominates={mod['dominates_oracle']}, "
                   f"loglog residual {mod['loglog_residual']}")
    return bad


def _turn_distance(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def check_spectral(report: dict) -> list[str]:
    spec = report["results"]["spectrum"]
    n = spec["n"]
    thetas = [atom["theta"] for atom in spec["atoms"]]
    return [f"no atom within 8/n of angle {angle} (atoms at {thetas})"
            for angle in TRIG_POLY_ANGLES
            if not any(_turn_distance(t, angle) <= 8.0 / n for t in thetas)]


def check_process(report: dict) -> list[str]:
    return [f"r={row['r']}: deviation {row['max_deviation']} exceeds bound {row['bound']}"
            for row in report["results"]["deviations"]
            if not row["max_deviation"] <= row["bound"]]


def check_maximal(report: dict) -> list[str]:
    """Internal consistency of the maximal-function tail profile."""
    m = report["results"]["maximal"]
    tails = [row["empirical_tail"] for row in m["tails"]]
    q = m["sup_quantiles"]
    bad = []
    if any(b > a for a, b in zip(tails, tails[1:])):
        bad.append(f"empirical tails {tails} increase with lambda")
    if any(b < a for a, b in zip(q, q[1:])) or not all(math.isfinite(x) for x in q):
        bad.append(f"sup quantiles {q} are not finite and nondecreasing")
    return bad


def check_transform(report: dict) -> list[str]:
    verdict = report["results"]["verdict"]["verdict"]
    if verdict not in ("cauchy_trend", "diverging", "inconclusive"):
        return [f"unknown verdict {verdict!r}"]
    return []


def _derived_seed(seed: int, salt: int) -> int:
    """A deterministic per-experiment sampling seed from the workload seed."""
    return (seed * 1_000_003 + salt) % (1 << 31)


def many_orbits(seed: int) -> list[Experiment]:
    maximal = {"kind": "transform", "seed": _derived_seed(seed, 1), "params": {
        "sequence": {"name": "hardy_littlewood"}, "system": SQRT2,
        "observable": {"kind": "raised_cosine"},
        # off only so the sampled path gets timed at all: the Abel split of
        # the main trace trips the checkpoint_sums defect that
        # readme_default_transform shows
        "with_abel": False,
        "maximal": {"N": 100_000, "sample_count": 128}}}
    validation = {"kind": "process", "seed": _derived_seed(seed, 2), "params": {
        "system": SQRT2, "validation_count": 6_000}}
    return [
        Experiment("transform_maximal", check_maximal, config=maximal,
                   note="with_abel false only so the sampled maximal path is timed at all"),
        Experiment("process_validation", check_process, config=validation),
        Experiment("shipped_process", check_process,
                   shipped="configs/process_sparse_rotation.json"),
        Experiment("readme_default_transform", check_transform,
                   config={"kind": "transform", "seed": _derived_seed(seed, 3)},
                   note="the README's default `ehtlab run transform`: exits 1 with an "
                        "InvariantError at the seed (dense checkpoint_sums path); "
                        "counted as failed"),
    ]


def long_orbits(seed: int) -> list[Experiment]:
    return [
        Experiment("counterexample_both", check_counterexample, config={
            "kind": "counterexample", "params": {"N": 2_000_000, "convention": "both"}}),
        Experiment("sweep_long", check_sweep, config={
            "kind": "sweep", "params": {"system": SQRT2, "n_max": 1_000_000}}),
        Experiment("shipped_counterexample", check_counterexample,
                   shipped="configs/counterexample_three_cycle.json"),
        Experiment("shipped_sweep", check_sweep, shipped="configs/sweep_resonance.json"),
    ]


def grids_kernels(seed: int) -> list[Experiment]:
    return [
        Experiment("rates_a_alpha", check_rates, config={"kind": "rates", "params": {
            "sequence": {"name": "hardy_littlewood"}, "class": "a_alpha",
            "schedule": [2 ** j for j in range(8, 19)]}}),
        Experiment("spectral_resonance", check_spectral, config={"kind": "spectral", "params": {
            "sequence": TRIG_POLY, "n": 1 << 13, "threshold": 0.2,
            "resonance_system": SQRT2}}),
        Experiment("prop27_inverse_linear", check_prop27, config={"kind": "prop27", "params": {
            "h": "inverse-linear", "K": 10, "l1_profile": True}}),
        Experiment("prop27_inverse_log", check_prop27, config={"kind": "prop27", "params": {
            "h": "inverse-log", "K": 34, "evaluate": {}, "l1_profile": True,
            "modulator_N": 1_000_000}}),
        Experiment("shipped_rates", check_rates, shipped="configs/rates_hardy_littlewood.json"),
        Experiment("shipped_spectral", check_spectral,
                   shipped="configs/spectral_trig_poly.json"),
        Experiment("shipped_prop27", check_prop27, shipped="configs/prop27_slow_envelope.json"),
    ]


WORKLOADS = {
    "many_orbits": many_orbits,
    "long_orbits": long_orbits,
    "grids_kernels": grids_kernels,
}
