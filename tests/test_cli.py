import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ehtlab import __version__
from ehtlab.cli import (
    _KINDS,
    ConfigError,
    KINDS,
    describe,
    main,
    parse_config,
    run_experiment,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_cli(args):
    return main(args)


def test_describe_all_kinds(capsys):
    for kind in KINDS:
        assert run_cli(["describe", kind]) == 0
    out = describe("counterexample")
    assert "symmetric" in out and "signed" in out  # both index conventions
    rates = describe("rates")
    for token in ("star", "m_alpha", "a_alpha", "one_sided_sup"):
        assert token in rates
    prop = describe("prop27")
    for token in ("(i)", "(ii)", "(iii)", "(iv)", "(v)", "(vi)"):
        assert token in prop


@pytest.mark.parametrize("kind", KINDS)
def test_describe_lists_every_param_key(kind):
    params = describe(kind).split("Params:")[1].split("Output:")[0]
    assert _KINDS[kind].params <= set(re.findall(r"\w+", params))


def test_describe_unknown_kind_exits_2():
    assert run_cli(["describe", "nonsense"]) == 2


def test_config_schema_validation():
    with pytest.raises(ConfigError, match="unknown top-level"):
        parse_config({"kind": "rates", "bogus": 1})
    with pytest.raises(ConfigError, match="unknown params"):
        parse_config({"kind": "rates", "params": {"frequency": 3}})
    with pytest.raises(ConfigError, match="requires a seed"):
        parse_config({"kind": "process", "params": {}})
    with pytest.raises(ConfigError, match="kind"):
        parse_config({"params": {}})
    cfg = parse_config({"kind": "rates", "params": {"class": "star"}})
    assert cfg.seed is None


def test_cli_bad_config_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "rates", "mystery": True}))
    assert run_cli(["run", "--config", str(bad)]) == 2
    assert run_cli(["run", "--config", str(tmp_path / "missing.json")]) == 2
    # the former `threads` knob is no longer part of the schema
    bad.write_text(json.dumps({"kind": "rates", "threads": 1}))
    capsys.readouterr()
    assert run_cli(["run", "--config", str(bad)]) == 2
    assert "unknown top-level config fields: ['threads']" in capsys.readouterr().err
    # transform runs from the system's default point; x0_angle was never read
    bad.write_text(json.dumps({"kind": "transform", "seed": 1, "params": {"x0_angle": 0.3}}))
    assert run_cli(["run", "--config", str(bad)]) == 2
    assert "unknown params for transform: ['x0_angle']" in capsys.readouterr().err
    # values and specs the runner rejects while building its objects
    out = str(tmp_path / "o")
    assert run_cli(["run", "rates", "--alpha", "3", "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert err == "config error: alpha must lie in (1, 2]\n"
    bad.write_text(json.dumps({"kind": "rates", "params": {
        "sequence": {"op": "truncate", "base": {"name": "hardy_littlewood"}}}}))
    assert run_cli(["run", "--config", str(bad), "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "'r'" in err and err.count("\n") == 1
    # wrong nested types, unknown nested keys, non-finite sizes and undecodable
    # files are config errors too
    prop27_eval = {"h": "inverse-linear", "K": 10, "evaluate": 3}
    trig_short = {"sequence": {"name": "trig_poly", "terms": [[1]]}, "n": 64}
    typo_seq = {"sequence": {"name": "hardy_littlewood", "valu": 3}}
    typo_obs = {"observable": {"kind": "rotation_character", "n": 2}}
    for raw in ({"kind": "transform", "seed": 1, "params": {"maximal": 5}},
                {"kind": "rates", "params": typo_seq},
                {"kind": "rates", "params": {"class": "bogus"}},
                {"kind": "transform", "seed": 1, "params": typo_obs},
                {"kind": "transform", "seed": 1, "params": {"observable": "x"}},
                {"kind": "prop27", "params": prop27_eval},
                {"kind": "spectral", "params": trig_short},
                {"kind": "spectral", "params": {"n": 64, "sequence": {
                    "op": "scale", "c": 1e308, "base": {"name": "sparse_dyadic"}}}},
                '{"kind": "counterexample", "params": {"N": 1e400}}',
                {"kind": "rates", "params": [1]},
                b"\xff\xfe"):
        if isinstance(raw, bytes):
            bad.write_bytes(raw)
        else:
            bad.write_text(raw if isinstance(raw, str) else json.dumps(raw))
        assert run_cli(["run", "--config", str(bad), "--out-dir", out]) == 2, raw
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, (raw, err)
    # non-finite values, given or reached by overflow, are config errors
    huge = {"op": "scale", "c": [1e200, 1e200], "base": {"name": "sparse_dyadic"}}
    for seq in ({"name": "constant", "value": float("nan")},
                {"op": "scale", "c": float("inf"), "base": {"name": "hardy_littlewood"}},
                {"name": "trig_poly", "terms": [[[1, float("nan")], 0.25]]},
                {"op": "scale", "c": 1e200, "base": {"name": "constant", "value": 1e200}},
                {"op": "product", "base": huge, "b": huge}):
        bad.write_text(json.dumps({"kind": "rates", "params": {
            "sequence": seq, "schedule": [64]}}))
        assert run_cli(["run", "--config", str(bad), "--out-dir", out]) == 2, seq
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, (seq, err)
    bad.write_text(json.dumps({"kind": "transform", "seed": 1, "params": {
        "observable": {"kind": "constant", "value": float("nan")}, "checkpoints": [64]}}))
    assert run_cli(["run", "--config", str(bad), "--out-dir", out]) == 2
    assert capsys.readouterr().err == "config error: complex value nan is not finite\n"


def test_budget_exceeded_exit_3(tmp_path):
    cfg = tmp_path / "tight.json"
    budget = {"h": "inverse-linear", "K": 8, "evaluate": {"x_count": 1, "tol": 1e-12}}
    horizon = {"h": "inverse-log", "K": 45}
    for i, params in enumerate((budget, horizon)):
        cfg.write_text(json.dumps({"kind": "prop27", "params": params}))
        out = tmp_path / f"o{i}"
        assert run_cli(["run", "--config", str(cfg), "--out-dir", str(out)]) == 3, params
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"config", "config_sha256", "error", "kind", "version"}


def test_invariant_failure_is_not_a_config_error(tmp_path, monkeypatch):
    from ehtlab import cli
    from ehtlab.errors import InvariantError

    def broken(cfg, out):
        raise InvariantError("evaluator changed the index shape")

    monkeypatch.setitem(cli._KINDS, "rates", cli._KINDS["rates"]._replace(run=broken))
    with pytest.raises(InvariantError):
        run_cli(["run", "rates", "--out-dir", str(tmp_path / "o")])


def test_run_via_flags(tmp_path):
    out = tmp_path / "ce"
    code = run_cli(["run", "counterexample", "--N", "1e3", "--convention", "symmetric",
                    "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["version"] == __version__
    assert report["kind"] == "counterexample"
    assert len(report["config_sha256"]) == 64
    assert report["results"]["conventions"]["symmetric"]["cell_0"]["verdict"]["verdict"] == "diverging"
    assert (out / "trace_symmetric.csv").exists()


def test_rates_flags(tmp_path):
    out = tmp_path / "rates"
    code = run_cli(["run", "rates", "--seq", "hardy_littlewood", "--class", "a_alpha_plain",
                    "--alpha", "1.5", "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["rate_report"]["verdict"] == "bounded_on_schedule"
    assert (out / "ratios.csv").exists()


def test_transform_config(tmp_path):
    cfg = parse_config({
        "kind": "transform",
        "seed": 5,
        "out_dir": str(tmp_path),
        "params": {
            "sequence": {"name": "sparse_dyadic"},
            "system": {"kind": "rotation"},
            "observable": {"kind": "rotation_character", "m": 1},
            "checkpoints": [16, 27, 45, 64, 101, 128, 210, 256, 423, 512, 845, 1024],
            "maximal": {"lambdas": [0.5, 1, 2, 4], "N": 2048, "sample_count": 64},
        },
    })
    code, report = run_experiment(cfg)
    assert code == 0
    assert (tmp_path / "trace.csv").exists()
    rows = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert rows[0] == "n,re_H,im_H,abel_main,abel_tail"
    assert len(rows) == 13
    assert all("bound_ratio" in r for r in report["results"]["maximal"]["tails"])


def test_readme_default_transform(tmp_path):
    # default checkpoints are dense, so the Abel main sums end below the orbit
    # radius and must stop there
    assert run_cli(["run", "transform", "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert rows[0] == "n,re_H,im_H,abel_main,abel_tail"
    assert len(rows) > 65
    assert all(len(r.split(",")) == 5 and "" not in r.split(",") for r in rows[1:])


def test_identity_hash_ignores_out_dir(tmp_path):
    base = {"kind": "rates", "params": {"class": "star"}}
    a = parse_config({**base, "out_dir": str(tmp_path / "a")})
    b = parse_config({**base, "out_dir": str(tmp_path / "b")})
    from ehtlab.cli import config_hash
    assert config_hash(a) == config_hash(b)


@pytest.mark.parametrize("name", [p.stem for p in sorted(CONFIG_DIR.glob("*.json"))])
def test_shipped_configs_deterministic(tmp_path, name):
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    reports = []
    for tag in ("one", "two"):
        raw_run = dict(raw)
        raw_run["out_dir"] = str(tmp_path / tag)
        code, _ = run_experiment(parse_config(raw_run))
        assert code == 0
        reports.append((tmp_path / tag / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_shipped_config_golden_verdicts(tmp_path):
    raw = json.loads((CONFIG_DIR / "sweep_resonance.json").read_text())
    raw["out_dir"] = str(tmp_path)
    code, report = run_experiment(parse_config(raw))
    assert code == 0
    verdicts = [p["verdict"]["verdict"] for p in report["results"]["per_lambda"]]
    assert verdicts == ["diverging", "cauchy_trend", "cauchy_trend", "cauchy_trend"]


def test_rates_class_aliases(tmp_path):
    code = run_cli(["run", "rates", "--seq", "sparse_dyadic", "--class", "M",
                    "--alpha", "1.5", "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["results"]["rate_report"]["kind"] == "abs_prefix[m_alpha]"


def test_jsonable_handles_numpy_scalars():
    import numpy as np
    from ehtlab.cli import _jsonable
    out = _jsonable({"b": np.bool_(True), "c": np.complex128(1 + 2j),
                     "f": np.float64(0.5), "i": np.int64(3),
                     "arr": np.array([1.0, 2.0])})
    assert out == {"b": True, "c": {"re": 1.0, "im": 2.0}, "f": 0.5, "i": 3,
                   "arr": [1.0, 2.0]}


def test_prop27_l1_profile_param(tmp_path):
    cfg = parse_config({
        "kind": "prop27",
        "out_dir": str(tmp_path),
        "params": {"h": "inverse-linear", "K": 10, "l1_profile": True},
    })
    code, report = run_experiment(cfg)
    assert code == 0
    prof = report["results"]["l1_profile"]
    assert prof["max_integral"] <= prof["uniform_bound_certificate"] * (1 + 1e-6)


# ------------------------------------------------------------- fuzzed configs
#
# Every generated value is a valid small one, a wrong type, zero, a negative,
# an infinity or NaN; any key may be missing, and unknown keys appear at the
# top level and in params. Sizes are capped for runtime only.

_NASTY = st.sampled_from([0, -1, -7.5, float("inf"), float("-inf"), float("nan")])
_WRONG = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                   st.lists(st.integers(-2, 3), max_size=3),
                   st.dictionaries(st.text(max_size=3), st.integers(-2, 3), max_size=2))


_MISSING = object()


def _mostly(good, other):
    """`good` three times in four, so that most configs get past their first key."""
    return st.integers(0, 3).flatmap(lambda i: good if i else other)


def _value(good):
    return _mostly(good, st.one_of(_NASTY, _WRONG))


def _size(cap):
    return _value(st.integers(1, cap))


def _keys(required, optional):
    """The required keys, and each optional key three times in four."""
    keys = {**required, **{k: _mostly(v, st.just(_MISSING)) for k, v in optional.items()}}
    return st.fixed_dictionaries(keys).map(
        lambda d: {k: v for k, v in d.items() if v is not _MISSING})


def _obj(required, optional=None):
    return _value(_keys(required, optional or {}))


_REAL = _value(st.floats(-2, 2))
_TURNS = _value(st.floats(0, 1))
_LEAF = st.one_of(
    _obj({"name": _value(st.sampled_from(["hardy_littlewood", "sparse_dyadic", "nope"]))}),
    _obj({"name": st.just("constant")}, {"value": _REAL}),
    _obj({"name": st.just("cycle_indicator")},
         {"convention": _value(st.sampled_from(["symmetric", "signed"]))}),
    _obj({"name": st.just("trig_poly"),
          "terms": _value(st.lists(_value(st.lists(_REAL, min_size=2, max_size=2)),
                                   max_size=3))}),
)


def _op(inner):
    return _obj({"op": _value(st.sampled_from(
                     ["symmetrize", "truncate", "scale", "modulate", "product", "nope"]))},
                {"base": inner, "r": _size(50), "c": _REAL, "angle_turns": _TURNS,
                 "b": inner})


_SEQUENCE = _LEAF
for _ in range(3):  # sequence ops nest up to depth 3
    _SEQUENCE = st.one_of(_LEAF, _op(_SEQUENCE))
_SYSTEM = _obj({"kind": _value(st.sampled_from(
                   ["rotation", "three_cycle", "torus_automorphism", "nope"]))},
               {"angle_turns": _value(st.one_of(st.just("sqrt2"), st.floats(0, 1)))})
_OBSERVABLE = _obj({"kind": _value(st.sampled_from(
                       ["rotation_character", "raised_cosine", "cycle_step", "indicator_A",
                        "torus_character", "constant", "nope"]))},
                   {"m": _value(st.integers(-3, 3)), "p": _value(st.integers(-3, 3)),
                    "q": _value(st.integers(-3, 3)), "value": _REAL})
_POINTS = _value(st.lists(st.integers(1, 2000), min_size=1, max_size=4))
_ALPHA = _value(st.floats(1.01, 2))
_BOOL = _value(st.booleans())

_PARAMS = {
    "rates": {"sequence": _SEQUENCE,
              "class": _value(st.sampled_from(["star", "m_alpha", "a_alpha", "a_alpha_plain",
                                               "one_sided_sup", "two_sided_raw", "A", "M",
                                               "A-plain", "nope"])),
              "alpha": _ALPHA, "beta": _value(st.floats(0, 1)), "schedule": _POINTS,
              "grid_order": _size(2000)},
    "transform": {"sequence": _SEQUENCE, "system": _SYSTEM, "observable": _OBSERVABLE,
                  "checkpoints": _POINTS, "with_abel": _BOOL,
                  "maximal": _obj({}, {"lambdas": _value(st.lists(_REAL, max_size=3)),
                                       "N": _size(2000), "sample_count": _size(8)})},
    "counterexample": {"N": _size(2000),
                       "convention": _value(st.sampled_from(
                           ["symmetric", "signed", "both", "nope"]))},
    "prop27": {"h": _value(st.sampled_from(
                   ["inverse-log", "inverse-log2", "inverse-linear", "nope"])),
               "K": _size(8), "M": _value(st.floats(0.1, 10)),
               "evaluate": _obj({}, {"x_lo": _value(st.floats(0, 7)),
                                     "x_hi": _value(st.floats(0, 7)),
                                     "x_count": _size(8), "tol": _value(st.floats(1e-9, 1))}),
               "modulator_N": _size(2000), "l1_profile": _BOOL},
    "spectral": {"sequence": _SEQUENCE, "n": _size(64), "grid_order": _size(2000),
                 "threshold": _value(st.floats(0.05, 1)), "resonance_system": _SYSTEM},
    "process": {"system": _SYSTEM, "sequence": _SEQUENCE,
                "r_schedule": _value(st.lists(st.integers(-2, 50), max_size=3)),
                "checkpoints": _POINTS, "validation_count": _size(50),
                "seminorm_alpha": _ALPHA, "seminorm_schedule": _POINTS,
                "truncation_radii": _value(st.lists(st.integers(-2, 50), max_size=2))},
    "sweep": {"system": _SYSTEM, "m": _value(st.integers(-3, 3)),
              "lambdas_turns": _value(st.lists(st.one_of(st.just("resonant"), _TURNS),
                                               max_size=3)),
              "n_max": _size(2000), "symmetric": _BOOL},
}


def _params(kind):
    params = _obj({}, _PARAMS[kind])
    if kind == "spectral":
        # every local maximum above the threshold is refined, so a small
        # positive threshold costs like a size: it always comes with a small
        # explicit n, never the default n = 4096
        rest = {k: v for k, v in _PARAMS[kind].items() if k not in ("n", "threshold")}
        small = _keys({"n": _size(64), "threshold": st.floats(1e-300, 0.05)}, rest)
        params = st.one_of(params, small)
    return params


def _config(kind):
    raw = _keys({"kind": st.just(kind)},
                {"seed": _value(st.integers(0, 100)), "params": _params(kind)})
    # one config in five carries an unknown key
    unknown = st.one_of(raw.map(lambda r: {**r, "nope": 1}),
                        raw.map(lambda r: {**r, "params": {**r["params"], "nope": 1}}
                                if isinstance(r.get("params"), dict) else r))
    return st.integers(0, 4).flatmap(lambda i: raw if i else unknown)


_CONFIGS = st.one_of(*(_config(kind) for kind in KINDS),
                     st.fixed_dictionaries({"kind": _value(st.just("nope"))}), _WRONG)


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_CONFIGS)
# shapes the fuzz found ending in tracebacks
@example({"kind": "sweep", "params": {"n_max": 1}})
@example({"kind": "transform", "seed": 1, "params": {"checkpoints": []}})
@example({"kind": "spectral", "params": {"n": 57, "threshold": False}})
@example({"kind": "process", "seed": 1, "params": {"checkpoints": [64], "r_schedule": [-1]}})
@example({"kind": "rates", "params": {"sequence": {"name": "constant", "value": float("nan")},
                                      "schedule": [64]}})
def test_fuzzed_configs_exit_0_2_or_3(raw):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(raw))
        code = run_cli(["run", "--config", str(cfg), "--out-dir", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
