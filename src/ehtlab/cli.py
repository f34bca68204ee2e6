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
import json
import math
import sys
from dataclasses import asdict, dataclass
from functools import partial
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
    orbit_pairs,
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
from .rates import (RATE_ALIASES, RATE_CLASSES, RateParams, parseval_holder_check, rate_class,
                    rate_report)
from .sequences import ModulatingSequence, named_sequence, trig_poly_sequence, transform_sequence
from .spectral import gamma_and_spectrum, match_resonances
from .transform import (
    as_checkpoints,
    cesaro_average_trace,
    default_checkpoints,
    eht_trace,  # unused here; perfbench/test_perfbench.py looks it up in this module
    make_convergence_verdict,
    maximal_and_weak11,
    orbit_traces,
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
    if unknown := set(raw) - _TOP_KEYS:
        raise ConfigError(f"unknown top-level config fields: {sorted(unknown)}")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
    if not isinstance(params := raw.get("params", {}), dict):
        raise ConfigError(f"params must be a JSON object, got {params!r}")
    if bad := set(params) - _KINDS[kind].params:
        raise ConfigError(f"unknown params for {kind}: {sorted(bad)}")
    seed = raw.get("seed")
    if seed is None and _KINDS[kind].needs_seed:
        raise ConfigError(f"experiment kind {kind!r} samples points and requires a seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    out_dir = raw.get("out_dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigError(f"out_dir must be a string, got {out_dir!r}")
    return ExperimentConfig(kind=kind, seed=seed, out_dir=out_dir, params=params)


# ------------------------------------------------------------ spec -> objects

class _Form(NamedTuple):
    """One form of a nested spec: the keys it takes and its builder (spec, *caller's args)."""
    keys: set[str]
    build: Callable[..., object] = lambda sp: sp


def _spec(parent: dict, key: str, forms: _Form | dict, default: dict | None = None, *args):
    """The object that spec parent[key] (`default` when absent) describes. It names its form by
    the first field of `forms` it holds, else needs the last (or `forms` is its one form), and
    it holds only that form's keys."""
    sp = parent[key] if default is None else parent.get(key, default)
    if not isinstance(sp, dict):
        raise ConfigError(f"{key} must be a JSON object, got {sp!r}")
    if not isinstance(forms, _Form):
        field = next((f for f in forms if f in sp), [*forms][-1])
        if not isinstance(name := sp[field], str) or name not in forms[field]:
            raise ConfigError(f"unknown {key} {field} {name!r}")
        forms = forms[field][name]
    if unknown := set(sp) - forms.keys:
        raise ConfigError(f"unknown fields in {key}: {sorted(unknown)}")
    return forms.build(sp, *args)


def _op(sp: dict, **kwargs) -> ModulatingSequence:
    return transform_sequence(_spec(sp, "base", _SEQUENCES, {}), sp["op"], **kwargs)


_SEQUENCES = {
    "op": {
        "symmetrize": _Form({"op", "base"}, _op),
        "truncate": _Form({"op", "base", "r"}, lambda sp: _op(sp, r=_integer(sp["r"], "r"))),
        "scale": _Form({"op", "base", "c"}, lambda sp: _op(sp, c=_complex_of(sp["c"]))),
        "modulate": _Form({"op", "base", "angle_turns"}, lambda sp: _op(
            sp, turns=_number(sp["angle_turns"], "angle_turns"))),
        "product": _Form({"op", "base", "b"}, lambda sp: _op(sp, b=_spec(sp, "b", _SEQUENCES))),
    },
    "name": {
        **{name: _Form({"name"}, lambda sp: named_sequence(sp["name"]))
           for name in ("hardy_littlewood", "sparse_dyadic")},
        "constant": _Form({"name", "value"}, lambda sp: named_sequence(
            "constant", value=_complex_of(sp.get("value", 1.0)))),
        "cycle_indicator": _Form({"name", "convention"}, lambda sp: named_sequence(
            "cycle_indicator", convention=sp.get("convention", "symmetric"))),
        "trig_poly": _Form({"name", "terms"}, lambda sp: trig_poly_sequence(
            [(_complex_of(coeff), _number(turns, "terms")) for coeff, turns in sp["terms"]])),
    },
}


def _rotation(sp: dict):
    angle = sp.get("angle_turns", "sqrt2")
    return make_system("rotation",
                       angle_turns=angle if angle == "sqrt2" else _number(angle, "angle_turns"))


_SYSTEMS = {"kind": {
    "rotation": _Form({"kind", "angle_turns"}, _rotation),
    **{kind: _Form({"kind"}, lambda sp: make_system(sp["kind"]))
       for kind in ("three_cycle", "torus_automorphism")},
}}
_OBSERVABLES = {"kind": {
    "rotation_character": _Form({"kind", "m"}, lambda sp, _: rotation_character(
        _integer(sp.get("m", 1), "m"))),
    "raised_cosine": _Form({"kind"}, lambda sp, _: rotation_raised_cosine()),
    "cycle_step": _Form({"kind"}, lambda sp, _: cycle_step_observable()),
    "indicator_A": _Form({"kind"}, lambda sp, _: cycle_indicator_observable()),
    "torus_character": _Form({"kind", "p", "q"}, lambda sp, _: torus_character(
        _integer(sp.get("p", 1), "p"), _integer(sp.get("q", 0), "q"))),
    "constant": _Form({"kind", "value"}, lambda sp, sys_kind: constant_observable(
        sys_kind, _complex_of(sp.get("value", 1.0)))),
}}
# read in place by their runners
_MAXIMAL = _Form({"lambdas", "N", "sample_count"})
_EVALUATE = _Form({"x_lo", "x_hi", "x_count", "tol"})
_MAJORANTS = {"inverse-log": partial(inverse_log_majorant, shift=3),
              "inverse-log2": partial(inverse_log_majorant, shift=2),
              "inverse-linear": inverse_linear_majorant}


def _complex_of(v) -> complex:
    re, im = v if isinstance(v, list) and len(v) == 2 else (v, 0.0)
    z = complex(_number(re, "complex value"), _number(im, "complex value"))
    if not cmath.isfinite(z):
        raise ConfigError(f"complex value {v!r} is not finite")
    return z


def _flag(p: dict, key: str, default: bool) -> bool:
    if not isinstance(value := p.get(key, default), bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _number(value, key: str) -> float:
    """The config value of `key` as a float: a JSON number, not a boolean or a string.
    The callers check its range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _integer(value, key: str, least: int | None = None) -> int:
    """`_number`, and a whole one (1e5 is 100000), at least `least` when given."""
    if not _number(value, key).is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{key} must be >= {least}, got {int(value)}")
    return int(value)


def _numbers(values, key: str, each=_number) -> list:
    """`each` of every item of the list `values`."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers, got {values!r}")
    return [each(v, key) for v in values]


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
    return json.dumps(_jsonable(payload), sort_keys=True, indent=1, allow_nan=False)


def config_hash(cfg: ExperimentConfig) -> str:
    import hashlib  # here, not at the top: `ehtlab describe` never hashes
    return hashlib.sha256(canonical_json(cfg.identity_dict()).encode()).hexdigest()


# --------------------------------------------------------------- experiments

class _Rows(list):
    """A CSV table: rows of Python strings and numbers, the header first; a cell is its str."""

    def to_csv(self, path: Path) -> None:
        path.write_text("".join(",".join(map(str, row)) + "\n" for row in self))


# the RateParams fields that a rates class may read, by their config keys
_RATE_KEYS = {"alpha": _number, "beta": _number, "grid_order": _integer}


def _run_rates(cfg: ExperimentConfig) -> tuple[dict, dict]:
    p = cfg.params
    klass = p.get("class", "a_alpha")
    reads = rate_class(klass).reads
    if unread := [key for key in _RATE_KEYS if key in p and key not in reads]:
        raise ConfigError(f"rates class {klass} does not read {unread}")
    seq = _spec(p, "sequence", _SEQUENCES, {"name": "hardy_littlewood"})
    schedule = tuple(_numbers(p.get("schedule", [2**j for j in range(8, 16)]), "schedule",
                              _integer))
    rp = RateParams(schedule=schedule, **{key: _RATE_KEYS[key](p[key], key)
                                          for key in reads if key in p})
    report = rate_report(seq, klass, rp)
    parseval = parseval_holder_check(seq, schedule[0], 4 * schedule[0] + 1)
    return ({"rate_report": asdict(report), "parseval_check_at_min_n": parseval},
            {"ratios.csv": _Rows([("n", "ratio"), *zip(report.schedule, report.ratios)])})


def _run_transform(cfg: ExperimentConfig) -> tuple[dict, dict]:
    p = cfg.params
    sys_ = _spec(p, "system", _SYSTEMS, {"kind": "rotation"})
    seq = _spec(p, "sequence", _SEQUENCES, {"name": "sparse_dyadic"})
    obs = _spec(p, "observable", _OBSERVABLES, {"kind": "rotation_character"}, sys_.kind)
    checkpoints = as_checkpoints(_numbers(p.get("checkpoints", default_checkpoints(1 << 14)),
                                          "checkpoints", _integer))
    with_abel = _flag(p, "with_abel", True)
    if "maximal" in p:
        m = _spec(p, "maximal", _MAXIMAL)
        lambdas = _numbers(m.get("lambdas", [0.5, 1, 2, 4]), "lambdas")
        if not all(map(math.isfinite, lambdas)):
            raise ConfigError(f"lambdas must be finite, got {lambdas}")
        maximal = (lambdas, _integer(m.get("N", 1 << 14), "N", 1),
                   _integer(m.get("sample_count", 512), "sample_count", 1))
    x0 = sys_.default_point()
    [trace] = orbit_traces([seq], orbit_pairs(sys_, obs, [x0], checkpoints[-1]), checkpoints,
                           with_abel=with_abel)
    verdict = make_convergence_verdict(checkpoints, trace.H_values)
    averages = cesaro_average_trace(seq, sys_, obs, x0, checkpoints)
    result = {"verdict": asdict(verdict), "checkpoints": list(checkpoints),
              "H_final": complex(trace.H_values[-1]),
              "cesaro_average_final_abs": float(abs(averages[-1]))}
    if "maximal" in p:
        result["maximal"] = maximal_and_weak11(seq, sys_, obs, *maximal, cfg.seed)
    return result, {"trace.csv": trace}


def _run_counterexample(cfg: ExperimentConfig) -> tuple[dict, dict]:
    p = cfg.params
    N = _integer(p.get("N", 100_000), "N")
    convention = p.get("convention", "symmetric")
    conventions = ("symmetric", "signed") if convention == "both" else (convention,)
    sys_ = make_system("three_cycle")
    obs = cycle_step_observable()
    checkpoints = default_checkpoints(N, n_min=4)
    cells = orbit_pairs(sys_, obs, [CyclePoint(cell) for cell in range(3)], checkpoints[-1])
    traces = orbit_traces([named_sequence("cycle_indicator", convention=conv)
                           for conv in conventions], cells, checkpoints)
    results, tables = {}, {}
    for s, conv in enumerate(conventions):
        tables[f"trace_{conv}.csv"] = traces[s]
        results[conv] = {
            f"cell_{cell}": {
                "H_final": complex(trace.H_values[-1]),
                "verdict": asdict(make_convergence_verdict(checkpoints, trace.H_values)),
            }
            for cell, trace in enumerate(traces[s :: len(conventions)])  # cell-major
        }
    return {"N": N, "conventions": results}, tables


def _run_prop27(cfg: ExperimentConfig) -> tuple[dict, dict]:
    p = cfg.params
    if not isinstance(h := p.get("h", "inverse-log"), str) or h not in _MAJORANTS:
        raise ConfigError(f"unknown majorant {h!r}")
    hm = _MAJORANTS[h]()
    K, M = _integer(p.get("K", 20), "K"), p.get("M")
    if "evaluate" in p:
        ev = _spec(p, "evaluate", _EVALUATE)
        xs = np.linspace(_number(ev.get("x_lo", 0.5), "x_lo"),
                         _number(ev.get("x_hi", 5.78), "x_hi"),
                         _integer(ev.get("x_count", 20), "x_count"))
        tol = _number(ev.get("tol", 1e-6), "tol")
        if not 0 < tol < math.inf:  # NaN fails too
            raise ConfigError(f"tol must be positive and finite, got {tol!r}")
    l1_profile = _flag(p, "l1_profile", False)
    modulator_N = _integer(p["modulator_N"], "modulator_N", 10) if "modulator_N" in p else None
    env = build_envelope(hm, K, M=None if M is None else _number(M, "M"))
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
    tables = {}
    if "evaluate" in p:
        rows = evaluate_g(env, xs, tol)
        tables["g_eval.csv"] = _Rows([("x", "g", "tail_bound", "s_n_direct")] + [
            (r["x"], r["g_value"], r["tail_bound"], r["s_n_direct"]) for r in rows])
        result["evaluate_g"] = {
            "max_two_route_gap": max(r["two_route_gap"] for r in rows),
            "max_first_form_residual": max(r["first_form_residual"] for r in rows),
            "n_direct": rows[0]["n_direct"],
        }
    if l1_profile:
        # keep kernel orders resolvable: only breakpoints below 2^16
        usable = sum(1 for b in env.practical_breakpoints(1 << 16) if b >= 1) - 1
        result["l1_profile"] = kernel_series_l1_profile(env, max_terms=max(1, usable))
    if modulator_N is not None:
        result["divergent_modulator"] = divergent_modulator_demo(modulator_N)
    return result, tables


def _run_spectral(cfg: ExperimentConfig) -> tuple[dict, dict]:
    p = cfg.params
    seq = _spec(p, "sequence", _SEQUENCES, {"name": "hardy_littlewood"})
    rsys = _spec(p, "resonance_system", _SYSTEMS) if "resonance_system" in p else None
    if rsys is not None and rsys.kind == "three_cycle":
        raise ConfigError("resonance_system must be a rotation or the torus_automorphism")
    n = _integer(p.get("n", 1 << 12), "n")
    grid_order = _integer(p.get("grid_order", 4 * n), "grid_order")
    est = gamma_and_spectrum(seq, grid_order, n, _number(p.get("threshold", 0.1), "threshold"))
    result = {"spectrum": est.to_dict()}
    if rsys is not None:
        result["resonance"] = match_resonances(est, rsys)
    return result, {}


def _run_process(cfg: ExperimentConfig) -> tuple[dict, dict]:
    p = cfg.params
    sys_ = _spec(p, "system", _SYSTEMS, {"kind": "rotation"})
    seq = _spec(p, "sequence", _SEQUENCES, {"name": "sparse_dyadic"})
    validation_count = _integer(p.get("validation_count", 1000), "validation_count")
    r_schedule = _numbers(p.get("r_schedule", [4, 16, 64, 256]), "r_schedule",
                          partial(_integer, least=0))
    checkpoints = as_checkpoints(_numbers(p.get("checkpoints", default_checkpoints(1 << 13)),
                                          "checkpoints", _integer))
    alpha = _number(p.get("seminorm_alpha", 1.5), "seminorm_alpha")
    if not 1.0 < alpha <= 2.0:  # NaN fails too
        raise ConfigError(f"seminorm_alpha must lie in (1, 2], got {alpha}")
    schedule = tuple(_numbers(p.get("seminorm_schedule", [2**j for j in range(8, 14)]),
                              "seminorm_schedule", partial(_integer, least=2)))
    # the rate checks' rule, and the Hilbert verdict's grid, which starts at 16
    if not schedule or schedule[-1] < 16 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigError(f"seminorm_schedule must increase strictly to >= 16, got {schedule}")
    radii = p.get("truncation_radii")
    radii = None if radii is None else _numbers(radii, "truncation_radii",
                                                partial(_integer, least=0))
    delta = rotation_raised_cosine() if sys_.kind == "rotation" else constant_observable(sys_.kind, 1.0)
    F = build_process(sys_, delta, seed=cfg.seed, validation_count=validation_count)
    res = process_eht_trace(seq, F, sys_.default_point(), checkpoints, r_schedule)
    payload = {
        "r_schedule": r_schedule,
        "deviations": [{"r": row["r"], "max_deviation": row["max_deviation"],
                        "bound": row["deviation_bound"]} for row in res["approximants"]],
        "verdict": asdict(res["verdict"]),
    }
    sh = seminorm_and_hilbert(seq, alpha, schedule, radii)
    payload["seminorm"] = asdict(sh["seminorm"])
    payload["hilbert_verdict"] = sh["verdict"].verdict
    if "truncation_experiment" in sh:
        payload["truncation_experiment"] = sh["truncation_experiment"]
    return payload, {"process_trace.csv": res["trace"]}


def _run_sweep(cfg: ExperimentConfig) -> tuple[dict, dict]:
    p = cfg.params
    sys_ = _spec(p, "system", _SYSTEMS, {"kind": "rotation"})
    if sys_.kind != "rotation":
        raise ConfigError("sweep experiments run on rotations")
    obs = rotation_character(_integer(p.get("m", 1), "m"))
    n_max = _integer(p.get("n_max", 100_000), "n_max")
    checkpoints = default_checkpoints(n_max, n_min=64)
    thetas = [-sys_.theta if item == "resonant" else _number(item, "lambdas_turns")
              for item in p.get("lambdas_turns", ["resonant", 0.17, 0.35, 0.71])]
    rows = wiener_wintner_sweep(sys_, obs, sys_.default_point(), thetas, checkpoints,
                                symmetric=_flag(p, "symmetric", True))
    payload, tables = [], {}
    for i, row in enumerate(rows):
        tables[f"sweep_lambda_{i}.csv"] = row["trace"]
        payload.append({
            "theta_turns": row["theta_turns"],
            "verdict": asdict(row["verdict"]),
            "H_final_abs": float(abs(row["trace"].H_values[-1])),
        })
    return {"n_max": n_max, "per_lambda": payload}, tables


class _Kind(NamedTuple):
    """One experiment kind: its runner, the params keys it accepts and its
    `describe` text (a field, not the runner's docstring, which -OO strips)."""
    run: Callable[[ExperimentConfig], tuple[dict, dict]]
    params: set[str]
    text: str
    needs_seed: bool = False  # the kind samples points


_KINDS = {
    "rates": _Kind(
        _run_rates, {"sequence", "class", "alpha", "beta", "schedule", "grid_order"},
        """rates: growth-rate membership tests for a modulating sequence.
Classes, each with the params of alpha, beta and grid_order it reads; a
config that sets one it does not read exits 2:
{}Aliases: {}.
Output: report.json (schedule, ratios, sup_estimate, fitted_exponent,
residual, verdict, grid_order) and ratios.csv.""".format(
            "".join(f"  {name}: {c.text} [{', '.join(c.reads) or 'none'}]\n"
                    for name, c in RATE_CLASSES.items()),
            ", ".join(f"{alias} = {name}" for alias, name in RATE_ALIASES.items()))),
    "transform": _Kind(
        _run_transform,
        {"sequence", "system", "observable", "checkpoints", "with_abel", "maximal"},
        """transform: checkpointed weighted orbit sums sum' a_k f(T^k x)/k with the
summation-by-parts split and a dyadic-window convergence verdict; optional
maximal-function tail profile over a lambda grid (requires seed).
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
series against its uniform bound, and the divergent-modulator demo. The
minorant h is inverse-log, inverse-log2 or inverse-linear.
Output: report.json, g_eval.csv (x, g, tail_bound, s_n_direct)."""),
    "spectral": _Kind(
        _run_spectral, {"sequence", "n", "grid_order", "threshold", "resonance_system"},
        """spectral: correlation table, Fourier-Bohr means on a roots-of-unity grid,
threshold-plus-refinement atom detection, and optionally collisions of the
detected atoms with a rotation's eigenvalue powers (which predict divergence
of the symmetric modulation at the colliding atom).
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
Output: process_trace.csv, report.json (r_schedule, deviations, seminorm,
verdict).""", needs_seed=True),
    "sweep": _Kind(
        _run_sweep, {"system", "m", "lambdas_turns", "n_max", "symmetric"},
        """sweep: unit-circle modulation sweep on a rotation over the angles
lambdas_turns, in turns; 'resonant' selects the negated rotation angle, where
the symmetric modulation grows like log n; off-resonance entries settle into a
Cauchy trend. Each row's theta_turns is the angle as configured.
Output: sweep_lambda_<i>.csv per lambda, report.json."""),
}
KINDS = tuple(_KINDS)


def run_experiment(cfg: ExperimentConfig) -> tuple[int, dict]:
    """Run one experiment; returns (exit_code, report dict) and writes files.

    The runner reads every param before it computes and returns its tables
    by file name; out_dir is made first and, once the report serializes, the
    tables and then report.json are written. An unwritable out_dir, a spec
    the runner cannot turn into objects (a missing field, a value its
    constructor rejects) or a report with a NaN or an infinity, which JSON
    cannot carry, raises ConfigError; exhausted budgets, horizons and memory
    return exit code 3 with the error in the report. An InvariantError marks
    a fault of the program, not of the config, and propagates unchanged.
    """
    out = Path(cfg.out_dir)
    report = {"version": __version__, "kind": cfg.kind, "config": cfg.identity_dict()}
    code, tables = 0, {}
    try:
        out.mkdir(parents=True, exist_ok=True)
        try:
            report["results"], tables = _KINDS[cfg.kind].run(cfg)
        except (BudgetExceededError, HorizonExceededError) as exc:
            report["error"] = str(exc)
            code = 3
        except MemoryError as exc:
            report["error"] = f"out of memory: {exc}"
            code = 3
        # the backstop, after the runner's own checks: a NaN or an infinity anywhere raises
        report["config_sha256"] = config_hash(cfg)
        text = canonical_json(report)
        for name, table in tables.items():
            table.to_csv(out / name)
        (out / "report.json").write_text(text + "\n")
    except InvariantError:
        raise
    except KeyError as exc:
        raise ConfigError(f"missing field {exc.args[0]!r} in the {cfg.kind} params") from exc
    except OSError as exc:  # runners open no file: this is out_dir
        raise ConfigError(f"cannot write to out_dir {cfg.out_dir}: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    return code, report


def describe(kind: str) -> str:
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; choose from {KINDS}")
    return f"{_KINDS[kind].text}\nParams: {', '.join(sorted(_KINDS[kind].params))}."


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
    shortcuts = {"convention": args.convention, "class": args.klass, "alpha": args.alpha,
                 "beta": args.beta, "h": args.h, "K": args.K,
                 "sequence": None if args.seq is None else {"name": args.seq}}
    if args.N is not None:
        try:
            N = float(args.N)
        except ValueError as exc:
            raise ConfigError(f"--N must be a number, got {args.N!r}") from exc
        # a whole --N is stored as an int, so 1e3 hashes as 1000
        shortcuts["modulator_N" if raw["kind"] == "prop27" else "N"] = _integer(N, "--N")
    if isinstance(params := raw.setdefault("params", {}), dict):  # parse_config rejects others
        params.update({key: value for key, value in shortcuts.items() if value is not None})
    raw.update({key: getattr(args, key) for key in ("seed", "out_dir")
                if getattr(args, key) is not None})
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
