"""Batch front door: validate a config, run one experiment, write reports.

One experiment per process invocation. Reports are JSON (canonical key
order, shortest-roundtrip floats, no timestamps) so identical (config, seed)
pairs produce byte-identical bytes; traces go to CSV next to the report.
Exit codes: 0 success, 2 config/schema violation, 3 numerical budget
exceeded.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .dynamics import (
    CyclePoint,
    cycle_indicator_observable,
    cycle_step_observable,
    constant_observable,
    make_system,
    orbit_values,
    rotation_character,
    rotation_raised_cosine,
    torus_character,
)
from .envelope import (
    build_envelope,
    divergent_modulator_demo,
    evaluate_g,
    fejer_integral,
    fejer_variant_discrepancy,
    inverse_linear_majorant,
    inverse_log_majorant,
    kernel_series_l1_profile,
    verify_envelope_conditions,
)
from .errors import BudgetExceededError, HorizonExceededError, InvariantError
from .processes import build_process, process_eht_trace, seminorm_and_hilbert
from .rates import RateParams, parseval_holder_check, rate_report
from .sequences import ModulatingSequence, TrigPolynomial, named_sequence, trig_poly_sequence, transform_sequence
from .spectral import gamma_and_spectrum, match_resonances
from .transform import (
    as_checkpoints,
    cesaro_average_trace,
    default_checkpoints,
    eht_trace,
    make_convergence_verdict,
    maximal_and_weak11,
    wiener_wintner_sweep,
)

class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int | None
    out_dir: str
    params: dict

    def identity_dict(self) -> dict:
        """The experiment identity: everything except where outputs land."""
        return {"kind": self.kind, "seed": self.seed, "params": self.params}


_TOP_KEYS = {"kind", "seed", "out_dir", "params"}


def parse_config(raw: dict) -> ExperimentConfig:
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level config fields: {sorted(unknown)}")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    bad = set(params) - _KINDS[kind].params
    if bad:
        raise ConfigError(f"unknown params for {kind}: {sorted(bad)}")
    seed = raw.get("seed")
    if seed is None and _KINDS[kind].needs_seed:
        raise ConfigError(f"experiment kind {kind!r} samples points and requires a seed")
    if seed is not None and not isinstance(seed, int):
        raise ConfigError("seed must be an integer")
    return ExperimentConfig(kind=kind, seed=seed, out_dir=str(raw.get("out_dir", ".")),
                            params=params)


# ------------------------------------------------------------ spec -> objects

_SEQUENCE_KEYS = {"name", "value", "convention", "terms", "op", "base", "r", "c", "angle_turns", "b"}
_SYSTEM_KEYS = {"kind", "angle_turns"}
# the keys each nested spec may hold; params keys are checked per kind in parse_config
_SPEC_KEYS = {
    "sequence": _SEQUENCE_KEYS, "base": _SEQUENCE_KEYS, "b": _SEQUENCE_KEYS,
    "system": _SYSTEM_KEYS, "resonance_system": _SYSTEM_KEYS,
    "observable": {"kind", "m", "p", "q", "value"},
    "maximal": {"lambdas", "N", "sample_count"},
    "evaluate": {"x_lo", "x_hi", "x_count", "tol"},
}


def _spec(parent: dict, key: str, default: dict | None = None) -> dict:
    """The nested spec parent[key] (or `default` when absent; required when no
    default is given), which must be a JSON object holding only known keys."""
    sp = parent[key] if default is None else parent.get(key, default)
    if not isinstance(sp, dict):
        raise ConfigError(f"{key} must be a JSON object, got {sp!r}")
    unknown = set(sp) - _SPEC_KEYS.get(key, set(sp))
    if unknown:
        raise ConfigError(f"unknown fields in {key}: {sorted(unknown)}")
    return sp


def _sequence_from_spec(sp: dict) -> ModulatingSequence:
    if "op" in sp:
        base = _sequence_from_spec(_spec(sp, "base", {}))
        op = sp["op"]
        kwargs = {}
        if op == "truncate":
            kwargs["r"] = int(sp["r"])
        elif op == "scale":
            kwargs["c"] = _complex_of(sp["c"])
        elif op == "modulate":
            kwargs["lam"] = complex(np.exp(2j * np.pi * float(sp["angle_turns"])))
        elif op == "product":
            kwargs["b"] = _sequence_from_spec(_spec(sp, "b"))
        return transform_sequence(base, op, **kwargs)
    name = sp["name"]
    if name == "trig_poly":
        terms = tuple((_complex_of(coeff), complex(np.exp(2j * np.pi * float(turns))))
                      for coeff, turns in sp["terms"])
        return trig_poly_sequence(TrigPolynomial(terms))
    if name == "constant":
        return named_sequence("constant", value=_complex_of(sp.get("value", 1.0)))
    if name == "cycle_indicator":
        return named_sequence("cycle_indicator", convention=sp.get("convention", "symmetric"))
    return named_sequence(name)


def _complex_of(v) -> complex:
    if isinstance(v, (list, tuple)) and len(v) == 2:
        z = complex(float(v[0]), float(v[1]))
    else:
        z = complex(float(v), 0.0)
    if not cmath.isfinite(z):
        raise ConfigError(f"complex value {v!r} is not finite")
    return z


def _system_from_spec(sp: dict):
    return make_system(sp["kind"], angle_turns=sp.get("angle_turns", "sqrt2"))


def _observable_from_spec(sp: dict, sys_kind: str):
    kind = sp.get("kind")
    if kind == "rotation_character":
        return rotation_character(int(sp.get("m", 1)))
    if kind == "raised_cosine":
        return rotation_raised_cosine()
    if kind == "cycle_step":
        return cycle_step_observable()
    if kind == "indicator_A":
        return cycle_indicator_observable()
    if kind == "torus_character":
        return torus_character(int(sp.get("p", 1)), int(sp.get("q", 0)))
    if kind == "constant":
        return constant_observable(sys_kind, _complex_of(sp.get("value", 1.0)))
    raise ConfigError(f"unknown observable kind {kind!r}")


# ------------------------------------------------------------- serialization

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def canonical_json(payload: dict) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=1, ensure_ascii=True)


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_json(cfg.identity_dict()).encode()).hexdigest()


# --------------------------------------------------------------- experiments

def _run_rates(cfg: ExperimentConfig, out: Path) -> dict:
    p = cfg.params
    seq = _sequence_from_spec(_spec(p, "sequence", {"name": "hardy_littlewood"}))
    klass = p.get("class", "a_alpha")
    klass = {"A": "a_alpha", "A-plain": "a_alpha_plain", "M": "m_alpha"}.get(klass, klass)
    schedule = tuple(int(n) for n in p.get("schedule", [2**j for j in range(8, 16)]))
    rp = RateParams(alpha=float(p.get("alpha", 1.5)), beta=float(p.get("beta", 0.5)),
                    schedule=schedule, grid_order=p.get("grid_order"))
    report = rate_report(seq, klass, rp)
    parseval = parseval_holder_check(seq, schedule[0], 4 * schedule[0] + 1)
    with open(out / "ratios.csv", "w") as fh:
        fh.write("n,ratio\n")
        for n, r in zip(report.schedule, report.ratios):
            fh.write(f"{n},{r!r}\n")
    return {"rate_report": asdict(report), "parseval_check_at_min_n": parseval}


def _run_transform(cfg: ExperimentConfig, out: Path) -> dict:
    p = cfg.params
    sys_ = _system_from_spec(_spec(p, "system", {"kind": "rotation"}))
    seq = _sequence_from_spec(_spec(p, "sequence", {"name": "sparse_dyadic"}))
    obs = _observable_from_spec(_spec(p, "observable", {"kind": "rotation_character"}), sys_.kind)
    checkpoints = as_checkpoints(p.get("checkpoints", default_checkpoints(1 << 14)))
    orbit = orbit_values(sys_, obs, sys_.default_point(), checkpoints[-1])
    trace = eht_trace(seq, orbit, checkpoints, with_abel=bool(p.get("with_abel", True)))
    trace.to_csv(out / "trace.csv")
    verdict = make_convergence_verdict(checkpoints, trace.H_values)
    averages = cesaro_average_trace(seq, orbit, checkpoints)
    result = {"verdict": asdict(verdict), "checkpoints": list(checkpoints),
              "H_final": complex(trace.H_values[-1]),
              "cesaro_average_final_abs": float(abs(averages[-1]))}
    if "maximal" in p:
        m = _spec(p, "maximal")
        result["maximal"] = maximal_and_weak11(
            seq, sys_, obs, [float(x) for x in m.get("lambdas", [0.5, 1, 2, 4])],
            int(m.get("N", 1 << 14)), int(m.get("sample_count", 512)), cfg.seed)
    return result


def _run_counterexample(cfg: ExperimentConfig, out: Path) -> dict:
    p = cfg.params
    N = int(float(p.get("N", 1e5)))
    convention = p.get("convention", "symmetric")
    conventions = ("symmetric", "signed") if convention == "both" else (convention,)
    sys_ = make_system("three_cycle")
    obs = cycle_step_observable()
    checkpoints = default_checkpoints(N, n_min=4)
    results = {}
    for conv in conventions:
        seq = named_sequence("cycle_indicator", convention=conv)
        per_cell = {}
        for cell in range(3):
            orbit = orbit_values(sys_, obs, CyclePoint(cell), N)
            trace = eht_trace(seq, orbit, checkpoints)
            verdict = make_convergence_verdict(checkpoints, trace.H_values)
            per_cell[f"cell_{cell}"] = {
                "H_final": complex(trace.H_values[-1]),
                "verdict": asdict(verdict),
            }
            if cell == 0:
                trace.to_csv(out / f"trace_{conv}.csv")
            del orbit, trace  # else they stay alive while the next cell builds its own
        results[conv] = per_cell
    return {"N": N, "conventions": results}


def _run_prop27(cfg: ExperimentConfig, out: Path) -> dict:
    p = cfg.params
    h_name = p.get("h", "inverse-log")
    if h_name == "inverse-log":
        hm = inverse_log_majorant(shift=3)
    elif h_name == "inverse-log2":
        hm = inverse_log_majorant(shift=2)
    elif h_name == "inverse-linear":
        hm = inverse_linear_majorant()
    else:
        raise ConfigError(f"unknown majorant {h_name!r}")
    K = int(p.get("K", 20))
    env = build_envelope(hm, K, M=p.get("M"))
    conditions = verify_envelope_conditions(env, hm)
    result = {
        "envelope": env.to_dict(),
        "conditions": conditions,
        "kernel_integral_check": {
            "orders": [1, 10, 100],
            "values": [fejer_integral(k) for k in (1, 10, 100)],
            "printed_variant_max_gap_at_n8": fejer_variant_discrepancy(
                8, [0.5, 1.5, 3.0, 5.0]),
        },
    }
    if "evaluate" in p:
        ev = _spec(p, "evaluate")
        xs = np.linspace(float(ev.get("x_lo", 0.5)), float(ev.get("x_hi", 5.78)),
                         int(ev.get("x_count", 20)))
        tol = float(ev.get("tol", 1e-6))
        rows = evaluate_g(env, xs, tol)
        with open(out / "g_eval.csv", "w") as fh:
            fh.write("x,g,tail_bound,s_n_direct\n")
            for r in rows:
                fh.write(f"{r['x']!r},{r['g_value']!r},{r['tail_bound']!r},{r['s_n_direct']!r}\n")
        result["evaluate_g"] = {
            "max_two_route_gap": max(r["two_route_gap"] for r in rows),
            "max_first_form_residual": max(r["first_form_residual"] for r in rows),
            "n_direct": rows[0]["n_direct"],
        }
    if p.get("l1_profile"):
        # keep kernel orders resolvable: only breakpoints below 2^16
        usable = sum(1 for b in env.practical_breakpoints(1 << 16) if b >= 1) - 1
        result["l1_profile"] = kernel_series_l1_profile(env, max_terms=max(1, usable))
    if "modulator_N" in p:
        result["divergent_modulator"] = divergent_modulator_demo(int(float(p["modulator_N"])))
    return result


def _run_spectral(cfg: ExperimentConfig, out: Path) -> dict:
    p = cfg.params
    seq = _sequence_from_spec(_spec(p, "sequence", {"name": "hardy_littlewood"}))
    n = int(p.get("n", 1 << 12))
    grid_order = int(p.get("grid_order", 4 * n))
    est = gamma_and_spectrum(seq, grid_order, n, float(p.get("threshold", 0.1)))
    result = {"spectrum": est.to_dict()}
    if "resonance_system" in p:
        result["resonance"] = match_resonances(
            est, _system_from_spec(_spec(p, "resonance_system")))
    return result


def _run_process(cfg: ExperimentConfig, out: Path) -> dict:
    p = cfg.params
    sys_ = _system_from_spec(_spec(p, "system", {"kind": "rotation"}))
    seq = _sequence_from_spec(_spec(p, "sequence", {"name": "sparse_dyadic"}))
    delta = rotation_raised_cosine() if sys_.kind == "rotation" else constant_observable(sys_.kind, 1.0)
    F = build_process(sys_, delta, validation_count=int(p.get("validation_count", 1000)),
                      seed=cfg.seed)
    r_schedule = [int(r) for r in p.get("r_schedule", [4, 16, 64, 256])]
    res = process_eht_trace(seq, F, sys_.default_point(),
                            p.get("checkpoints", default_checkpoints(1 << 13)), r_schedule)
    res["trace"].to_csv(out / "process_trace.csv")
    payload = {
        "r_schedule": r_schedule,
        "deviations": [{"r": row["r"], "max_deviation": row["max_deviation"],
                        "bound": row["deviation_bound"]} for row in res["approximants"]],
        "verdict": asdict(res["verdict"]),
    }
    alpha = float(p.get("seminorm_alpha", 1.5))
    schedule = tuple(int(n) for n in p.get("seminorm_schedule", [2**j for j in range(8, 14)]))
    radii = p.get("truncation_radii")
    sh = seminorm_and_hilbert(seq, alpha, schedule,
                              None if radii is None else [int(r) for r in radii])
    payload["seminorm"] = asdict(sh["seminorm"])
    payload["hilbert_verdict"] = sh["verdict"].verdict
    if "truncation_experiment" in sh:
        payload["truncation_experiment"] = sh["truncation_experiment"]
    return payload


def _run_sweep(cfg: ExperimentConfig, out: Path) -> dict:
    p = cfg.params
    sys_ = _system_from_spec(_spec(p, "system", {"kind": "rotation"}))
    if sys_.kind != "rotation":
        raise ConfigError("sweep experiments run on rotations")
    obs = rotation_character(int(p.get("m", 1)))
    n_max = int(float(p.get("n_max", 1e5)))
    checkpoints = default_checkpoints(n_max, n_min=64)
    lambdas = p.get("lambdas_turns", ["resonant", 0.17, 0.35, 0.71])
    lam_grid = []
    for item in lambdas:
        if item == "resonant":
            lam_grid.append(complex(np.exp(-2j * np.pi * sys_.theta)))
        else:
            lam_grid.append(complex(np.exp(2j * np.pi * float(item))))
    rows = wiener_wintner_sweep(sys_, obs, sys_.default_point(), lam_grid, checkpoints,
                                symmetric=bool(p.get("symmetric", True)))
    payload = []
    for i, row in enumerate(rows):
        row["trace"].to_csv(out / f"sweep_lambda_{i}.csv")
        payload.append({
            "theta_turns": row["theta_turns"],
            "verdict": asdict(row["verdict"]),
            "H_final_abs": float(abs(row["trace"].H_values[-1])),
        })
    return {"n_max": n_max, "per_lambda": payload}


class _Kind(NamedTuple):
    """One experiment kind: its runner, the params keys it accepts and its
    `describe` text (a field, not the runner's docstring, which -OO strips)."""
    run: Callable[[ExperimentConfig, Path], dict]
    params: set[str]
    text: str
    needs_seed: bool = False  # the kind samples points


_KINDS = {
    "rates": _Kind(
        _run_rates, {"sequence", "class", "alpha", "beta", "schedule", "grid_order"},
        """rates: growth-rate membership tests for a modulating sequence.
Classes: star (prefix |a_k| sums vs n^beta), m_alpha (prefix sums vs
n^(alpha-1)/log^alpha n), a_alpha (grid sup of two-sided exponential sums,
log-weighted), a_alpha_plain (same without the log factor), one_sided_sup
(one-sided sums vs n^(1-beta)), two_sided_raw.
Params: sequence, class, alpha, beta, schedule, grid_order.
Output: report.json (schedule, ratios, sup_estimate, fitted_exponent,
residual, verdict, grid_order) and ratios.csv."""),
    "transform": _Kind(
        _run_transform,
        {"sequence", "system", "observable", "checkpoints", "with_abel", "maximal"},
        """transform: checkpointed weighted orbit sums sum' a_k f(T^k x)/k with the
summation-by-parts split and a dyadic-window convergence verdict; optional
maximal-function tail profile over a lambda grid (requires seed).
Params: sequence, system, observable, checkpoints, with_abel, maximal.
Orbits start at the system's default point.
Output: trace.csv (n, re_H, im_H, abel_main, abel_tail), report.json.""", needs_seed=True),
    "counterexample": _Kind(
        _run_counterexample, {"N", "convention"},
        """counterexample: the 3-cycle visit-indicator sequence on the three-cell
system. Two negative-index conventions ship: 'symmetric' (a_{-n} = a_n),
which makes the sums on the first cell grow like (2/3) log n, and 'signed'
(a_{-n} = -1 wherever a_n = 1), whose displayed sums on the first cell
cancel to zero; convention 'both' runs the pair. Traces are reported for a
point of each cell.
Params: N, convention.
Output: trace_<convention>.csv, report.json with per-cell verdicts."""),
    "prop27": _Kind(
        _run_prop27, {"h", "K", "M", "evaluate", "modulator_N", "l1_profile"},
        """prop27: piecewise-linear envelope above a vanishing minorant h with
doubling integer breakpoints. Verifies conditions (i) stays above h,
(ii) strictly decreasing, (iii) starts at M and heads to zero,
(iv) integer breakpoints with gaps >= 3, (v) doubling rule
n_{k+1} <= 2(n_{k+1}-n_k), (vi) slope wedge s_k < s_{k+1}-s_k < -s_k;
reports the weighted second-difference partial sums with a geometric tail,
the positive-kernel integral check (= pi), and optionally the two-route
evaluation of the limit function g, the L1 profile of the partial kernel
series against its uniform bound, and the divergent-modulator demo.
Params: h (inverse-log | inverse-log2 | inverse-linear), K, M, evaluate,
modulator_N, l1_profile.
Output: report.json, g_eval.csv (x, g, tail_bound, s_n_direct)."""),
    "spectral": _Kind(
        _run_spectral, {"sequence", "n", "grid_order", "threshold", "resonance_system"},
        """spectral: correlation table, Fourier-Bohr means on a roots-of-unity grid,
threshold-plus-refinement atom detection, and optionally collisions of the
detected atoms with a rotation's eigenvalue powers (which predict divergence
of the symmetric modulation at the colliding atom).
Params: sequence, n, grid_order, threshold, resonance_system.
Output: report.json (n, gamma[{k,re,im}], atoms[{theta, gamma, mass}])."""),
    "process": _Kind(
        _run_process,
        {"system", "sequence", "r_schedule", "checkpoints", "validation_count",
         "seminorm_alpha", "seminorm_schedule", "truncation_radii"},
        """process: monotone admissible family f_i = v_{|i|} o T^i from the shrink
schedule v_r = (1-1/(r+1)) delta, with weighted process sums, truncated
additive approximants at the given r schedule, deviation bounds, the
log-weighted seminorm of the modulating sequence, and the truncation
experiment (requires seed for validation sampling).
Params: system, sequence, r_schedule, checkpoints, validation_count,
seminorm_alpha, seminorm_schedule, truncation_radii.
Output: process_trace.csv, report.json (r_schedule, deviations, seminorm,
verdict).""", needs_seed=True),
    "sweep": _Kind(
        _run_sweep, {"system", "m", "lambdas_turns", "n_max", "symmetric"},
        """sweep: unit-circle modulation sweep on a rotation; 'resonant' in
lambdas_turns selects the conjugate of the rotation factor, where the
symmetric modulation grows like log n; off-resonance entries settle into a
Cauchy trend.
Params: system, m, lambdas_turns, n_max, symmetric.
Output: sweep_lambda_<i>.csv per lambda, report.json."""),
}
KINDS = tuple(_KINDS)


def run_experiment(cfg: ExperimentConfig) -> tuple[int, dict]:
    """Run one experiment; returns (exit_code, report dict) and writes files.

    A spec the runner cannot turn into objects (a missing field, a value its
    constructor rejects) raises ConfigError; exhausted budgets and horizons
    return exit code 3 with the error in the report. An InvariantError marks
    a fault of the program, not of the config, and propagates unchanged.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = {"version": __version__, "kind": cfg.kind, "config": cfg.identity_dict(),
              "config_sha256": config_hash(cfg)}
    code = 0
    try:
        report["results"] = _KINDS[cfg.kind].run(cfg, out)
    except (BudgetExceededError, HorizonExceededError) as exc:
        report["error"] = str(exc)
        code = 3
    except InvariantError:
        raise
    except KeyError as exc:
        raise ConfigError(f"missing field {exc.args[0]!r} in the {cfg.kind} params") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    (out / "report.json").write_text(canonical_json(report) + "\n")
    return code, report


def describe(kind: str) -> str:
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; choose from {KINDS}")
    return _KINDS[kind].text


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ehtlab", description="numerical experiments runner")
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one experiment")
    runp.add_argument("kind", nargs="?", choices=KINDS)
    runp.add_argument("--config", type=str, help="JSON config path")
    runp.add_argument("--seed", type=int)
    runp.add_argument("--out-dir", type=str)
    runp.add_argument("--N", type=str, help="size shortcut (counterexample, prop27 modulator)")
    runp.add_argument("--convention", type=str, help="counterexample index convention")
    runp.add_argument("--seq", type=str, help="named sequence shortcut (rates)")
    runp.add_argument("--class", dest="klass", type=str, help="rates class shortcut")
    runp.add_argument("--alpha", type=float)
    runp.add_argument("--beta", type=float)
    runp.add_argument("--h", type=str, help="prop27 minorant shortcut")
    runp.add_argument("--K", type=int, help="prop27 breakpoint count")

    desc = sub.add_parser("describe", help="describe an experiment kind")
    desc.add_argument("kind", type=str)
    return ap


def _config_from_args(args) -> ExperimentConfig:
    raw: dict = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    if args.kind:
        raw.setdefault("kind", args.kind)
    if "kind" not in raw:
        raise ConfigError("no experiment kind given (positional or in --config)")
    params = dict(_spec(raw, "params", {}))
    if args.N is not None:
        key = "N" if raw["kind"] == "counterexample" else "modulator_N"
        params[key] = int(float(args.N))
    if args.convention is not None:
        params["convention"] = args.convention
    if args.seq is not None:
        params["sequence"] = {"name": args.seq}
    if args.klass is not None:
        params["class"] = args.klass
    if args.alpha is not None:
        params["alpha"] = args.alpha
    if args.beta is not None:
        params["beta"] = args.beta
    if args.h is not None:
        params["h"] = args.h
    if args.K is not None:
        params["K"] = args.K
    if params:
        raw["params"] = params
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out_dir is not None:
        raw["out_dir"] = args.out_dir
    return parse_config(raw)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "describe":
        try:
            print(describe(args.kind))
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    try:
        cfg = _config_from_args(args)
        code, report = run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"{cfg.kind}: report written to {Path(cfg.out_dir) / 'report.json'} "
          f"(config {report['config_sha256'][:12]})")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
