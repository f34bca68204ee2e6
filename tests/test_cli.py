import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings, strategies as st

from ehtlab import __version__
from ehtlab.dynamics import SQRT2_TURNS
from ehtlab.cli import (
    _KINDS,
    _OBSERVABLES,
    _SEQUENCES,
    _SYSTEMS,
    ConfigError,
    KINDS,
    describe,
    main,
    parse_config,
    run_experiment,
)
from ehtlab.rates import RATE_ALIASES, RATE_CLASSES, rate_class

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC = str(Path(__file__).resolve().parent.parent / "src")


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


def test_orbit_runs_do_not_load_mpmath(tmp_path):
    # only the envelope functions need mpmath, and they import it on first use;
    # pytest has loaded it already, so this needs a fresh interpreter
    code = ("import sys; from ehtlab.cli import main; loaded = 'mpmath' in sys.modules;"
            "code = main(['run', 'counterexample', '--N', '5000', '--convention', 'both',"
            f" '--out-dir', {str(tmp_path)!r}]);"
            "print(loaded, code, 'mpmath' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.splitlines()[-1].split() == ["False", "0", "False"]


def test_describe_does_not_load_hashlib():
    # only a run hashes its config; `describe` skips the module
    code = ("import sys; from ehtlab.cli import main; code = main(['describe', 'rates']);"
            "print(code, 'hashlib' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.splitlines()[-1].split() == ["0", "False"]


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
    # out_dir names a directory, so it must be a string
    for out_dir in (None, ["a"], 3):
        with pytest.raises(ConfigError, match="out_dir must be a string"):
            parse_config({"kind": "rates", "out_dir": out_dir})


def _not_numbers():
    """(config, key) pairs whose value for key is a boolean, a string or a fraction where
    the config wants a number or a size."""
    maximal = lambda **kw: {"kind": "transform", "seed": 1, "params": {
        "checkpoints": [64], "maximal": {"N": 64, "sample_count": 2, **kw}}}
    sweep = lambda **kw: {"kind": "sweep", "params": {"n_max": 256, **kw}}
    prop27 = lambda **kw: {"kind": "prop27", "params": {"h": "inverse-linear", "K": 10, **kw}}
    modulate = lambda turns: {"op": "modulate", "angle_turns": turns, "base": {"name": "constant"}}
    return ((maximal(N=True), "N"), (maximal(sample_count=True), "sample_count"),
            (maximal(lambdas=[True]), "lambdas"), (maximal(N=64.5), "N"),
            (maximal(lambdas="1"), "lambdas"),
            (sweep(lambdas_turns=[True, 0.25]), "lambdas_turns"),
            (sweep(lambdas_turns=["0.25"]), "lambdas_turns"), (sweep(n_max=True), "n_max"),
            (sweep(system={"kind": "rotation", "angle_turns": True}), "angle_turns"),
            (sweep(m=True), "m"),
            ({"kind": "counterexample", "params": {"N": True}}, "N"),
            ({"kind": "counterexample", "params": {"N": "1e5"}}, "N"),
            (prop27(K=True), "K"), (prop27(M=True), "M"),
            (prop27(modulator_N=True), "modulator_N"),
            (prop27(evaluate={"x_count": True}), "x_count"),
            (prop27(evaluate={"tol": True}), "tol"), (prop27(evaluate={"x_lo": "0.5"}), "x_lo"),
            ({"kind": "rates", "params": {"schedule": [True, 64]}}, "schedule"),
            ({"kind": "rates", "params": {"alpha": True}}, "alpha"),
            ({"kind": "rates", "params": {"class": "star", "beta": True}}, "beta"),
            ({"kind": "spectral", "params": {"n": 64, "sequence": modulate(True)}}, "angle_turns"),
            ({"kind": "spectral", "params": {"n": 64, "sequence": {
                "name": "trig_poly", "terms": [[1, True]]}}}, "terms"),
            ({"kind": "spectral", "params": {"n": 64, "threshold": True}}, "threshold"),
            ({"kind": "spectral", "params": {"n": 64, "sequence": {
                "name": "constant", "value": True}}}, "complex value"))


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
    # --N is the modulator size of prop27 and N everywhere else, the key it names
    for kind, N in (("rates", "5"), ("spectral", "64")):
        assert run_cli(["run", kind, "--N", N, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: unknown params for {kind}: ['N']\n"
    bad.write_text(json.dumps({"kind": "prop27", "params": {
        "h": "inverse-log", "K": 34, "evaluate": {}, "modulator_N": 5}}))
    assert run_cli(["run", "--config", str(bad)]) == 2
    assert capsys.readouterr().err == "config error: modulator_N must be >= 10, got 5\n"
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
    maximal_at = lambda N: {"kind": "transform", "seed": 1, "params": {
        "checkpoints": [64], "maximal": {"N": N, "sample_count": 2}}}
    for raw in ({"kind": "transform", "seed": 1, "params": {"maximal": 5}},
                maximal_at(0),
                maximal_at(-1),
                {"kind": "transform", "seed": 1, "params": {"maximal": {"sample_count": 0}}},
                {"kind": "process", "seed": 1, "params": {"seminorm_alpha": 1}},
                {"kind": "process", "seed": 1, "params": {"seminorm_alpha": float("nan")}},
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
                {"kind": "rates", "params": {"class": "star", "schedule": [0, 4]}},
                {"kind": "sweep", "params": {"lambdas_turns": []}},
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
                {"op": "product", "base": huge, "b": huge},
                # finite values (about 1.4e200) whose squares overflow in the Parseval check
                {"op": "scale", "c": [1e200, 1e200], "base": {
                    "op": "product", "base": {"name": "sparse_dyadic"},
                    "b": {"name": "sparse_dyadic"}}}):
        bad.write_text(json.dumps({"kind": "rates", "params": {
            "sequence": seq, "schedule": [64]}}))
        assert run_cli(["run", "--config", str(bad), "--out-dir", out]) == 2, seq
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, (seq, err)
    bad.write_text(json.dumps({"kind": "transform", "seed": 1, "params": {
        "observable": {"kind": "constant", "value": float("nan")}, "checkpoints": [64]}}))
    assert run_cli(["run", "--config", str(bad), "--out-dir", out]) == 2
    assert capsys.readouterr().err == "config error: complex value nan is not finite\n"
    # report.json carries no NaN or Infinity: a NaN or an infinite angle or threshold,
    # as a JSON number or as a string, and sums that overflow, with the Abel split on
    # and off, are config errors
    maximal = lambda lam: {"checkpoints": [64], "maximal": {"lambdas": [1, lam], "N": 64,
                                                             "sample_count": 2}}
    modulate = lambda turns: {"op": "modulate", "angle_turns": turns, "base": {"name": "constant"}}
    huge = {"sequence": {"name": "constant", "value": 1e308}, "checkpoints": [16, 64],
            "observable": {"kind": "raised_cosine"}}
    for x in (float("nan"), float("inf"), "nan", "-inf"):
        for raw in ({"kind": "spectral", "params": {"n": 64, "sequence": modulate(x)}},
                    {"kind": "spectral", "params": {"n": 64, "sequence": {
                        "name": "trig_poly", "terms": [[1, 0.25], [1, x]]}}},
                    {"kind": "sweep", "params": {"n_max": 256, "lambdas_turns": [0.25, x]}},
                    {"kind": "transform", "seed": 1, "params": maximal(x)}):
            bad.write_text(json.dumps(raw))
            assert run_cli(["run", "--config", str(bad), "--out-dir", out]) == 2, raw
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, (raw, err)
    for with_abel in (True, False):
        bad.write_text(json.dumps({"kind": "transform", "seed": 1,
                                   "params": {**huge, "with_abel": with_abel}}))
        assert run_cli(["run", "--config", str(bad), "--out-dir", out]) == 2, with_abel
        assert capsys.readouterr().err == ("config error: the partial sums H_n overflow to "
                                           "non-finite values\n")
    # the config's booleans take JSON true and false only, its seed an integer only, and
    # its numbers JSON numbers only (sizes whole ones)
    for raw, key in (({"kind": "transform", "seed": 1,
                       "params": {"checkpoints": [64], "with_abel": "false"}}, "with_abel"),
                     ({"kind": "sweep", "params": {"n_max": 256, "symmetric": "false"}},
                      "symmetric"),
                     ({"kind": "prop27", "params": {"h": "inverse-linear", "K": 10,
                                                    "l1_profile": 1}}, "l1_profile"),
                     ({"kind": "transform", "seed": True, "params": {"checkpoints": [64]}},
                      "seed")) + _not_numbers():
        bad.write_text(json.dumps(raw))
        assert run_cli(["run", "--config", str(bad), "--out-dir", out]) == 2, raw
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be ") and err.count("\n") == 1, err
    # resonances are matched on the systems that have them
    bad.write_text(json.dumps({"kind": "spectral", "params": {
        "n": 64, "resonance_system": {"kind": "three_cycle"}}}))
    assert run_cli(["run", "--config", str(bad), "--out-dir", out]) == 2
    assert capsys.readouterr().err == ("config error: resonance_system must be a rotation "
                                       "or the torus_automorphism\n")
    # the log weight vanishes at n = 1, so the log-weighted classes reject that
    # radius; the classes that take no log accept it
    for klass, code in (("a_alpha", 2), ("m_alpha", 2), ("star", 0), ("two_sided_raw", 0)):
        bad.write_text(json.dumps({"kind": "rates", "params": {
            "sequence": {"name": "hardy_littlewood"}, "class": klass, "schedule": [1, 2, 4, 8]}}))
        assert run_cli(["run", "--config", str(bad), "--out-dir", out]) == code, klass
        assert capsys.readouterr().err == ("config error: schedule entries must be >= 2 so "
                                           "that log n > 0\n" if code else ""), klass
    # an empty evaluation grid is refused by evaluate_g itself
    bad.write_text(json.dumps({"kind": "prop27", "params": {
        "h": "inverse-linear", "K": 10, "evaluate": {"x_count": 0}}}))
    assert run_cli(["run", "--config", str(bad), "--out-dir", out]) == 2
    assert capsys.readouterr().err == "config error: the evaluation points of g must be nonempty\n"
    # the envelope scale and the tail tolerance must be positive and finite
    envelope = {"h": "inverse-linear", "K": 10}
    for params in ({**envelope, "M": float("inf")},
                   {**envelope, "M": float("nan")},
                   {**envelope, "evaluate": {"x_count": 1, "tol": float("nan")}},
                   {**envelope, "evaluate": {"x_count": 1, "tol": -1}},
                   {**envelope, "evaluate": {"x_count": 1, "tol": 0}}):
        bad.write_text(json.dumps({"kind": "prop27", "params": params}))
        assert run_cli(["run", "--config", str(bad), "--out-dir", out]) == 2, params
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "must be positive and finite" in err, params
        assert err.count("\n") == 1, (params, err)


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


def test_memory_error_exits_3_without_a_traceback(tmp_path, monkeypatch, capsys):
    # a stand-in for an allocation the machine refuses; never allocate one for real
    from ehtlab import rates

    def refused(*args, **kwargs):
        raise MemoryError("Unable to allocate 128. GiB for an array")

    monkeypatch.setattr(rates, "exp_sum_grid", refused)
    out = tmp_path / "o"
    assert run_cli(["run", "rates", "--class", "a_alpha", "--out-dir", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["error"] == "out of memory: Unable to allocate 128. GiB for an array"


def test_invariant_failure_is_not_a_config_error(tmp_path, monkeypatch):
    from ehtlab import cli
    from ehtlab.errors import InvariantError

    def broken(cfg):
        raise InvariantError("evaluator changed the index shape")

    monkeypatch.setitem(cli._KINDS, "rates", cli._KINDS["rates"]._replace(run=broken))
    with pytest.raises(InvariantError):
        run_cli(["run", "rates", "--out-dir", str(tmp_path / "o")])


def test_failed_runs_leave_no_file(tmp_path, capsys):
    # each rejection comes after the runner's main computation; the tables are written
    # only once the report has serialized, so out_dir stays empty
    huge = {"op": "scale", "c": 1e308, "base": {"name": "constant"}}
    for kind, params in (
            ("transform", {"checkpoints": [64], "sequence": huge,
                           "observable": {"kind": "raised_cosine"}}),
            ("prop27", {"h": "inverse-log", "K": 34, "evaluate": {"x_lo": 0}}),
            ("process", {"checkpoints": [64], "sequence": huge})):
        out = tmp_path / kind
        raw = {"kind": kind, "seed": 1, "params": params}
        (tmp_path / "c.json").write_text(json.dumps(raw))
        assert run_cli(["run", "--config", str(tmp_path / "c.json"), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, (kind, err)
        assert list(out.iterdir()) == [], kind


def test_params_are_read_before_the_first_computation(tmp_path, monkeypatch, capsys):
    from ehtlab import cli

    def started(*args, **kwargs):
        raise AssertionError("computation started before every param was read")
    for name in ("orbit_traces", "build_envelope", "build_process"):
        monkeypatch.setattr(cli, name, started)
    nan, inf = float("nan"), float("inf")
    for kind, params, message in (
            ("transform", {"maximal": {"N": "many"}}, "N must be a number, got 'many'"),
            ("prop27", {"evaluate": {"tol": "tiny"}}, "tol must be a number, got 'tiny'"),
            ("transform", {"maximal": {"N": 0}}, "N must be >= 1, got 0"),
            ("transform", {"maximal": {"sample_count": 0}}, "sample_count must be >= 1, got 0"),
            ("prop27", {"modulator_N": 5}, "modulator_N must be >= 10, got 5"),
            ("process", {"seminorm_alpha": "x"}, "seminorm_alpha must be a number, got 'x'"),
            ("process", {"seminorm_alpha": 3}, "seminorm_alpha must lie in (1, 2], got 3.0"),
            ("transform", {"maximal": {"lambdas": [1, nan]}},
             "lambdas must be finite, got [1.0, nan]"),
            ("transform", {"maximal": {"lambdas": [-inf]}}, "lambdas must be finite, got [-inf]"),
            ("process", {"truncation_radii": [4, -1]}, "truncation_radii must be >= 0, got -1"),
            ("process", {"r_schedule": [-1]}, "r_schedule must be >= 0, got -1"),
            ("process", {"checkpoints": [64, 16]},
             "checkpoints must be nonempty, positive and strictly increasing"),
            ("process", {"checkpoints": []},
             "checkpoints must be nonempty, positive and strictly increasing"),
            ("process", {"seminorm_schedule": [1, 64]}, "seminorm_schedule must be >= 2, got 1"),
            ("prop27", {"evaluate": {"tol": -1}}, "tol must be positive and finite, got -1.0"),
            ("prop27", {"evaluate": {"tol": nan}}, "tol must be positive and finite, got nan"),
            ("prop27", {"evaluate": {"tol": inf}}, "tol must be positive and finite, got inf"),
            ("process", {"seminorm_schedule": [64, 32]},
             "seminorm_schedule must increase strictly to >= 16, got (64, 32)"),
            ("process", {"seminorm_schedule": [4, 8]},
             "seminorm_schedule must increase strictly to >= 16, got (4, 8)")):
        (tmp_path / "c.json").write_text(json.dumps({"kind": kind, "seed": 1, "params": params}))
        assert run_cli(["run", "--config", str(tmp_path / "c.json"),
                        "--out-dir", str(tmp_path / kind)]) == 2, kind
        assert capsys.readouterr().err == f"config error: {message}\n"


class _Lookups(dict):
    """A config object that records which of its keys are looked up."""

    def __init__(self, raw: dict):
        super().__init__({k: _Lookups(v) if isinstance(v, dict) else v for k, v in raw.items()})
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def unread(self, path="params") -> list[str]:
        """The keys of this object and of every nested one that nothing looked up."""
        return [f"{path}.{key}" for key in sorted(set(self) - self.read)] + [
            miss for key, v in self.items() if isinstance(v, _Lookups)
            for miss in v.unread(f"{path}.{key}")]


# every params key of every kind, and every key of every nested form they hold
_ALL_PARAMS = {
    # one config per class, holding the params of alpha, beta and grid_order the class reads
    "rates": [{"sequence": {"op": "truncate", "base": {"name": "constant", "value": 2}, "r": 9},
               "class": klass, "schedule": [64, 128],
               **{k: v for k, v in (("alpha", 1.7), ("beta", 0.3), ("grid_order", 1024))
                  if k in RATE_CLASSES[klass].reads}} for klass in RATE_CLASSES],
    "transform": {"sequence": {"op": "product", "base": {"name": "sparse_dyadic"},
                               "b": {"name": "cycle_indicator", "convention": "signed"}},
                  "system": {"kind": "rotation", "angle_turns": 0.3090169943749474},
                  "observable": {"kind": "rotation_character", "m": 2},
                  "checkpoints": [16, 64], "with_abel": True,
                  "maximal": {"lambdas": [1], "N": 64, "sample_count": 2}},
    "counterexample": {"N": 64, "convention": "both"},
    "prop27": {"h": "inverse-linear", "K": 10, "M": 1.0, "l1_profile": True, "modulator_N": 100,
               "evaluate": {"x_lo": 0.5, "x_hi": 1.0, "x_count": 2, "tol": 1e-6}},
    "spectral": {"sequence": {"op": "modulate", "angle_turns": 0.25, "base": {
                     "name": "trig_poly", "terms": [[1, 0.25]]}},
                 "n": 64, "grid_order": 256, "threshold": 0.1,
                 "resonance_system": {"kind": "torus_automorphism"}},
    "process": {"system": {"kind": "rotation"}, "sequence": {
                    "op": "scale", "c": [1, 2], "base": {"op": "symmetrize", "base": {
                        "name": "hardy_littlewood"}}},
                "r_schedule": [4], "checkpoints": [64], "validation_count": 10,
                "seminorm_alpha": 1.5, "seminorm_schedule": [16, 64], "truncation_radii": [4]},
    "sweep": {"system": {"kind": "rotation", "angle_turns": "sqrt2"}, "m": 1,
              "lambdas_turns": [0.25], "n_max": 256, "symmetric": True},
}


class _Started(Exception):
    pass


@pytest.mark.parametrize("kind", KINDS)
def test_every_declared_param_is_read_before_the_first_computation(kind, monkeypatch):
    # a declared key that its runner never looks up would be a knob that does nothing
    from ehtlab import cli
    from ehtlab.cli import ExperimentConfig

    def started(*args, **kwargs):
        raise _Started
    for name in ("orbit_traces", "build_envelope", "build_process", "rate_report",
                 "gamma_and_spectrum", "wiener_wintner_sweep"):
        monkeypatch.setattr(cli, name, started)
    configs = _ALL_PARAMS[kind] if kind == "rates" else [_ALL_PARAMS[kind]]
    assert set().union(*configs) == _KINDS[kind].params
    for raw in configs:
        params = _Lookups(raw)
        with pytest.raises(_Started):
            _KINDS[kind].run(ExperimentConfig(kind, 1, ".", params))
        assert params.unread() == [], raw


# one spec of every form, holding every key the form declares
_FULL_FORMS = (
    ("sequence", {"op": "symmetrize", "base": {"name": "hardy_littlewood"}}),
    ("sequence", {"op": "truncate", "base": {"name": "hardy_littlewood"}, "r": 3}),
    ("sequence", {"op": "scale", "base": {"name": "hardy_littlewood"}, "c": [1, 2]}),
    ("sequence", {"op": "modulate", "base": {"name": "hardy_littlewood"}, "angle_turns": 0.25}),
    ("sequence", {"op": "product", "base": {"name": "hardy_littlewood"},
                  "b": {"name": "sparse_dyadic"}}),
    ("sequence", {"name": "hardy_littlewood"}),
    ("sequence", {"name": "sparse_dyadic"}),
    ("sequence", {"name": "constant", "value": 2}),
    ("sequence", {"name": "cycle_indicator", "convention": "signed"}),
    ("sequence", {"name": "trig_poly", "terms": [[1, 0.25]]}),
    ("system", {"kind": "rotation", "angle_turns": 0.3090169943749474}),
    ("system", {"kind": "three_cycle"}),
    ("system", {"kind": "torus_automorphism"}),
    ("observable", {"kind": "rotation_character", "m": 2}),
    ("observable", {"kind": "raised_cosine"}),
    ("observable", {"kind": "cycle_step"}),
    ("observable", {"kind": "indicator_A"}),
    ("observable", {"kind": "torus_character", "p": 1, "q": 2}),
    ("observable", {"kind": "constant", "value": 1}),
)


def test_every_declared_spec_key_is_read_by_its_builder():
    from ehtlab.cli import _OBSERVABLES, _SEQUENCES, _SYSTEMS, _spec
    families = {"sequence": _SEQUENCES, "system": _SYSTEMS, "observable": _OBSERVABLES}
    seen = set()
    for key, raw in _FULL_FORMS:
        field = "op" if "op" in raw else "name" if key == "sequence" else "kind"
        form = families[key][field][raw[field]]
        assert set(raw) == form.keys, raw
        seen.add((key, field, raw[field]))
        sp = _Lookups(raw)
        _spec({key: sp}, key, families[key], None, *(("rotation",) if key == "observable" else ()))
        assert sp.unread(key) == [], raw
    assert seen == {(key, field, name) for key, forms in families.items()
                    for field, table in forms.items() for name in table}


# a valid spec of each form plus a key of another form of the same spec; without that
# key, each config runs
def _sequence(raw):
    return "spectral", {"sequence": raw, "n": 64}


def _orbit(**specs):
    return "transform", {"checkpoints": [64], **specs}


_CYCLE, _TORUS = {"kind": "three_cycle"}, {"kind": "torus_automorphism"}


@pytest.mark.parametrize("config, key, foreign", [
    (_sequence({"op": "symmetrize", "base": {"name": "constant"}, "c": 2}), "sequence", ["c"]),
    (_sequence({"op": "truncate", "base": {"name": "constant"}, "r": 3, "name": "constant"}),
     "sequence", ["name"]),
    (_sequence({"op": "scale", "base": {"name": "constant"}, "c": 2, "angle_turns": 0.25}),
     "sequence", ["angle_turns"]),
    (_sequence({"op": "modulate", "base": {"name": "constant"}, "angle_turns": 0.25,
                "b": {"name": "constant"}}), "sequence", ["b"]),
    (_sequence({"op": "product", "base": {"name": "constant"}, "b": {"name": "constant"},
                "r": 3}), "sequence", ["r"]),
    (_sequence({"name": "hardy_littlewood", "value": 2}), "sequence", ["value"]),
    (_sequence({"name": "sparse_dyadic", "convention": "signed"}), "sequence", ["convention"]),
    # the nested b was never parsed
    (_sequence({"name": "constant", "r": 3, "b": {"name": "zzz"}}), "sequence", ["b", "r"]),
    (_sequence({"name": "cycle_indicator", "terms": [[1, 0.25]]}), "sequence", ["terms"]),
    (_sequence({"name": "trig_poly", "terms": [[1, 0.25]], "base": {"name": "constant"}}),
     "sequence", ["base"]),
    (_orbit(system={**_CYCLE, "angle_turns": 0.25}, observable={"kind": "cycle_step"}),
     "system", ["angle_turns"]),
    (_orbit(system={**_TORUS, "angle_turns": 0.25}, observable={"kind": "torus_character"}),
     "system", ["angle_turns"]),
    (_orbit(observable={"kind": "rotation_character", "m": 2, "value": 1}),
     "observable", ["value"]),
    (_orbit(observable={"kind": "raised_cosine", "m": 2}), "observable", ["m"]),
    (_orbit(system=_CYCLE, observable={"kind": "cycle_step", "p": 1}), "observable", ["p"]),
    (_orbit(system=_CYCLE, observable={"kind": "indicator_A", "q": 1}), "observable", ["q"]),
    (_orbit(system=_TORUS, observable={"kind": "torus_character", "p": 1, "m": 2}),
     "observable", ["m"]),
    (_orbit(observable={"kind": "constant", "value": 1, "m": 2}), "observable", ["m"]),
])
def test_a_key_of_another_form_exits_2(tmp_path, capsys, config, key, foreign):
    kind, params = config
    (tmp_path / "c.json").write_text(json.dumps({"kind": kind, "seed": 1, "params": params}))
    out = tmp_path / "out"
    assert run_cli(["run", "--config", str(tmp_path / "c.json"), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: unknown fields in {key}: {foreign}\n"
    assert list(out.iterdir()) == []


# every (class, param) pair whose param the class does not read: a knob that would change
# the config hash and nothing else
_UNREAD_RATE_PARAMS = [("star", "alpha"), ("star", "grid_order"), ("m_alpha", "beta"),
                       ("m_alpha", "grid_order"), ("two_sided_raw", "alpha"),
                       ("two_sided_raw", "beta"), ("two_sided_raw", "grid_order"),
                       ("a_alpha", "beta"), ("a_alpha_plain", "beta"), ("one_sided_sup", "alpha")]


@pytest.mark.parametrize("klass, key, route", [
    (klass, key, route) for klass, key in _UNREAD_RATE_PARAMS
    for route in ("config", "flag") if route == "config" or key != "grid_order"])  # no --grid_order
def test_a_param_the_rates_class_does_not_read_exits_2(tmp_path, monkeypatch, capsys, klass,
                                                       key, route):
    from ehtlab import cli

    def started(*args, **kwargs):
        raise AssertionError("computation started before the params were checked")
    for name in ("rate_report", "parseval_holder_check"):
        monkeypatch.setattr(cli, name, started)
    value = {"alpha": 1.9, "beta": 0.3, "grid_order": 99999}[key]
    out = tmp_path / "out"
    if route == "flag":
        args = ["run", "rates", "--class", klass, f"--{key}", str(value)]
    else:
        (tmp_path / "c.json").write_text(json.dumps({"kind": "rates", "params": {
            "class": klass, key: value}}))
        args = ["run", "--config", str(tmp_path / "c.json")]
    assert run_cli(args + ["--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: rates class {klass} does not read ['{key}']\n"
    assert list(out.iterdir()) == []
    assert sorted(set(_UNREAD_RATE_PARAMS)) == sorted(
        (c, k) for c in RATE_CLASSES for k in ("alpha", "beta", "grid_order")
        if k not in RATE_CLASSES[c].reads)


# sha256 of ratios.csv and then report.json of one small config per class, as the
# rates classes wrote them before they became one table
_RATES_DIGESTS = {
    "star": ({"beta": 0.3},
             "1a0bba99e4ca09e0a352ddc5ba8ff8cfe11011646243ac34ef0fdb71c6a02911"),
    "m_alpha": ({"alpha": 1.7},
                "a68b9759d32eacb9e4230ce16a39a8496baabd990853f0b3fd29459ca795c09d"),
    "two_sided_raw": ({}, "c856a89864e5d510a5b3056f0b52362b63f783dcfb7e42f0f394f24e30d99515"),
    "a_alpha": ({"alpha": 1.7, "grid_order": 2049},
                "a46dd37488a8b03e07fa741f20884b301ab89d82d1f503a6e766c95d9b2f80ae"),
    "a_alpha_plain": ({"alpha": 1.7, "grid_order": 2049},
                      "5318ab4540a1555c9835328f9a2586df23608f8dd8fcd298aacf57c3d1878c32"),
    "one_sided_sup": ({"beta": 0.3, "grid_order": 2049},
                      "135e4b587fdfd69aca3e17644172f09cd124c9c33f634fece01f83e1d376fd86"),
}


@pytest.mark.parametrize("klass", sorted(_RATES_DIGESTS))
def test_each_rates_class_keeps_its_report_bytes(tmp_path, klass):
    import hashlib
    params, digest = _RATES_DIGESTS[klass]
    assert _run_config(tmp_path, {"kind": "rates", "params": {
        "sequence": {"name": "sparse_dyadic"}, "class": klass, "schedule": [16, 64, 512],
        **params}}, "rates") == 0
    out = tmp_path / "rates"
    data = (out / "ratios.csv").read_bytes() + (out / "report.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_unwritable_out_dir_exits_2(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    assert run_cli(["run", "rates", "--class", "star", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write to out_dir ") and err.count("\n") == 1


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
    # --N is stored as an int, so the config hash is the one of {"N": 1000}
    assert report["config"]["params"] == {"N": 1000, "convention": "symmetric"}
    assert type(report["config"]["params"]["N"]) is int


def test_bad_sizes_exit_2_with_one_config_error_line(tmp_path, capsys):
    out = str(tmp_path / "o")
    cfg = tmp_path / "small.json"
    runs = [["run", "counterexample", "--N", n]
            for n in ("abc", "nan", "1e400", "2.5", "0", "4000.9")]
    # a fraction is not truncated: 10.5 is not the modulator size 10
    runs += [["run", "prop27", "--N", n] for n in ("1e400", "10.5")]
    for N in (0, 1, 2, 3):  # a counterexample needs a checkpoint in [4, N]
        cfg.write_text(json.dumps({"kind": "counterexample", "params": {"N": N}}))
        runs.append(["run", "--config", str(cfg)])
    for args in runs:
        assert run_cli(args + ["--out-dir", out]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, (args, err)


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


def _run_config(tmp_path, raw: dict, name: str) -> int:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    return run_cli(["run", "--config", str(path), "--out-dir", str(tmp_path / name)])


def test_near_real_trig_poly_frequencies_run(tmp_path):
    # an angle of 1e-13 turn is not exactly 0, so the sequence is not flagged symmetric,
    # which its values at +-k would violate
    near = {"name": "trig_poly", "terms": [[1.0, 1e-13]]}
    assert _run_config(tmp_path, {"kind": "transform", "seed": 1, "params": {
        "sequence": near, "checkpoints": [16, 64, 256]}}, "transform") == 0
    assert _run_config(tmp_path, {"kind": "spectral", "params": {
        "sequence": near, "n": 256}}, "spectral") == 0
    # angles of exactly 0 and 1/2 turn stay symmetric through the phase kernel
    from ehtlab.cli import _SEQUENCES, _spec
    sym = _spec({"sequence": {"name": "trig_poly", "terms": [[1, 0], [2, 0.5]]}}, "sequence",
                _SEQUENCES)
    assert sym.symmetric
    sym.range_values(2**14)
    assert _run_config(tmp_path, {"kind": "spectral", "params": {
        "sequence": {"name": "trig_poly", "terms": [[1, 0], [2, 0.5]]}, "n": 256}},
        "symmetric") == 0


def test_sweep_reports_the_configured_angles(tmp_path):
    # each theta_turns is the angle as configured, "resonant" the negated rotation angle;
    # an angle outside [-1/2, 1/2] runs on its exact reduction, so 3.7 sweeps as 3.7 - 4
    angles = ["resonant", 0.17, 0.71, 3.7, 3.7 - 4]
    assert _run_config(tmp_path, {"kind": "sweep", "params": {
        "n_max": 4096, "lambdas_turns": angles}}, "sweep") == 0
    out = tmp_path / "sweep"
    rows = json.loads((out / "report.json").read_text())["results"]["per_lambda"]
    assert [row["theta_turns"] for row in rows] == [-SQRT2_TURNS, 0.17, 0.71, 3.7, 3.7 - 4]
    assert (out / "sweep_lambda_3.csv").read_bytes() == (out / "sweep_lambda_4.csv").read_bytes()
    assert rows[3] == {**rows[4], "theta_turns": 3.7}


def test_phase_indices_beyond_the_exact_angle_range_exit_2(tmp_path, monkeypatch, capsys):
    # the rotation's guard fires when the orbit source is built
    rotation = {"kind": "transform", "seed": 1, "params": {"checkpoints": [2**27]}}
    assert _run_config(tmp_path, rotation, "rotation") == 2
    # a modulated weight on the 3-cycle reaches the kernel's own guard, here lowered
    from ehtlab import numerics
    monkeypatch.setattr(numerics, "MAX_PHASE_INDEX", 64)
    modulated = {"kind": "transform", "seed": 1, "params": {
        "system": {"kind": "three_cycle"}, "observable": {"kind": "cycle_step"},
        "sequence": {"op": "modulate", "angle_turns": 0.3, "base": {"name": "constant"}},
        "checkpoints": [16, 100]}}
    assert _run_config(tmp_path, modulated, "modulated") == 2
    assert "exact-angle range" in capsys.readouterr().err


def test_readme_default_transform(tmp_path):
    # default checkpoints are dense, so the Abel main sums end below the orbit
    # radius and must stop there
    assert run_cli(["run", "transform", "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert rows[0] == "n,re_H,im_H,abel_main,abel_tail"
    assert len(rows) > 65
    assert all(len(r.split(",")) == 5 and "" not in r.split(",") for r in rows[1:])


@pytest.mark.parametrize("system", ["rotation", "three_cycle", "torus_automorphism"])
def test_transform_runner_working_set_is_flat_in_N(tmp_path, system):
    # a whole orbit and its Cesaro range peaked at 164 MiB at N = 2^20, against 10 MiB at 2^16
    observable = {"rotation": "rotation_character", "three_cycle": "cycle_step",
                  "torus_automorphism": "torus_character"}[system]

    def peak(e):
        cfg = parse_config({"kind": "transform", "seed": 1, "out_dir": str(tmp_path), "params": {
            "system": {"kind": system}, "observable": {"kind": observable},
            "checkpoints": [2**j for j in range(4, e + 1)]}})
        tracemalloc.start()
        try:
            assert run_experiment(cfg)[0] == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # first-use allocations stay out of the measured runs
    assert peak(20) <= 1.25 * peak(16)


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


def _mostly(good, other, odds=4):
    """`good` odds - 1 times in `odds`, so that most configs get past their first key."""
    return st.integers(1, odds).flatmap(lambda i: other if i == odds else good)


def _value(good, odds=4):
    return _mostly(good, st.one_of(_NASTY, _WRONG), odds)


def _size(cap, odds=4):
    return _value(st.integers(1, cap), odds)


def _keys(required, optional, odds=4):
    """The required keys, and each optional key odds - 1 times in `odds`."""
    keys = {**required, **{k: _mostly(v, st.just(_MISSING), odds) for k, v in optional.items()}}
    return st.fixed_dictionaries(keys).map(
        lambda d: {k: v for k, v in d.items() if v is not _MISSING})


def _obj(required, optional=None):
    return _value(_keys(required, optional or {}))


_REAL = _value(st.floats(-2, 2))
_TURNS = _value(st.floats(0, 1))
# A spec is nested in other specs, so its own faults are rarer, one in eight each: a spec
# of the wrong type, a wrong name, a missing key, a nasty value or a key of another form.
def _with_foreign(spec, foreign: dict):
    """`spec`, a strategy of dicts, that one time in eight also holds one key of `foreign`."""
    if not foreign:
        return spec
    extra = st.sampled_from(sorted(foreign)).flatmap(lambda k: foreign[k].map(lambda v: {k: v}))
    return _mostly(spec, st.tuples(spec, extra).map(lambda t: {**t[0], **t[1]}), 8)


def _forms(table, values) -> dict:
    """A strategy per form of `table`, a `cli` table of spec forms, by form name: the form's
    naming field holds its name, each other key of the form is drawn from `values`, and a
    spec may hold a key of another form too."""
    return {name: _value(_with_foreign(
                _keys({field: _value(st.just(name), 8)},
                      {k: values[k] for k in form.keys - {field}}, 8),
                {k: v for k, v in values.items() if k not in form.keys}), 8)
            for field, forms in table.items() for name, form in forms.items()}


def _sequence_values(inner):
    real = _value(st.floats(-2, 2), 8)
    return {"base": inner, "b": inner, "r": _size(50, 8), "c": real,
            "angle_turns": _value(st.floats(0, 1), 8), "value": real,
            "convention": _value(st.sampled_from(["symmetric", "signed"]), 8),
            "terms": _value(st.lists(_value(st.lists(real, min_size=2, max_size=2), 8),
                                     min_size=1, max_size=3), 8)}


_SEQUENCE = st.one_of(*_forms({"name": _SEQUENCES["name"]},
                              _sequence_values(st.just({"name": "constant"}))).values())
for _ in range(3):  # sequence ops nest up to depth 3
    _SEQUENCE_FORMS = _forms(_SEQUENCES, _sequence_values(_SEQUENCE))
    _SEQUENCE = st.one_of(*_SEQUENCE_FORMS.values())
_SYSTEM_FORMS = _forms(_SYSTEMS, {"angle_turns": _value(st.one_of(st.just("sqrt2"),
                                                                  st.floats(0, 1)), 8)})
_SYSTEM = st.one_of(*_SYSTEM_FORMS.values())
_OBSERVABLE_FORMS = _forms(_OBSERVABLES, {**{k: _value(st.integers(-3, 3), 8) for k in "mpq"},
                                          "value": _value(st.floats(-2, 2), 8)})
_OBSERVABLE = st.one_of(*_OBSERVABLE_FORMS.values())
_POINTS = _value(st.lists(st.integers(1, 2000), min_size=1, max_size=4))
_ALPHA = _value(st.floats(1.01, 2))
_BOOL = _value(st.booleans())

_PARAMS = {
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


# the params of each rates class, named or by alias: the keys of its class, drawn like a
# spec form's, and one time in eight a key of another class
_RATE_VALUES = {"alpha": _value(st.floats(1.01, 2), 8), "beta": _value(st.floats(0.01, 0.99), 8),
                # mostly at least 4 max(schedule) + 1, as a fixed grid must be
                "grid_order": _value(_mostly(st.integers(8001, 9000), st.integers(1, 8000)), 8)}
_RATES_FORMS = {
    name: _value(_with_foreign(
        _keys({}, {"sequence": _SEQUENCE, "class": _value(st.just(name), 8),
                   "schedule": _value(st.lists(st.integers(1, 2000), min_size=1, max_size=4,
                                               unique=True).map(sorted), 8),
                   **{k: _RATE_VALUES[k] for k in rate_class(name).reads}}, 8),
        {k: v for k, v in _RATE_VALUES.items() if k not in rate_class(name).reads}), 8)
    for name in (*RATE_CLASSES, *RATE_ALIASES)}


def _params(kind):
    if kind == "rates":
        return st.one_of(*_RATES_FORMS.values())
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
@example({"kind": "counterexample", "params": {"N": 3}})
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


def _draws(strategy, n: int) -> list:
    """`n` draws of `strategy`, the same ones on every run."""
    drawn = []

    @settings(derandomize=True, database=None, max_examples=n, phases=[Phase.generate],
              deadline=None, suppress_health_check=list(HealthCheck))
    @given(strategy)
    def draw(x):
        drawn.append(x)
    draw()
    return drawn


def _reaches_rate_report(raw, monkeypatch) -> bool:
    from ehtlab import cli

    def started(*args, **kwargs):
        raise _Started
    monkeypatch.setattr(cli, "rate_report", started)
    try:
        cfg = parse_config({"kind": "rates", "params": raw})
        _KINDS["rates"].run(cfg)
    except _Started:
        return True
    except (ConfigError, ValueError, TypeError, KeyError):
        return False
    raise AssertionError("the rates runner returned without computing")


def _builds(key, table, raw) -> bool:
    from ehtlab.cli import _spec
    try:
        _spec({key: raw}, key, table, None, *(("rotation",) if key == "observable" else ()))
    except (ConfigError, ValueError, TypeError, KeyError):
        return False
    return True


def test_every_fuzzed_form_builds_above_its_floor(monkeypatch):
    # a form that the fuzz almost never builds is tested no further than its key check; each
    # form's draws are a fixed set, so the count is exact, and one draw in ten must build
    draws, counts = 60, {}
    for key, table, forms in (("sequence", _SEQUENCES, _SEQUENCE_FORMS),
                              ("system", _SYSTEMS, _SYSTEM_FORMS),
                              ("observable", _OBSERVABLES, _OBSERVABLE_FORMS)):
        for name, strategy in forms.items():
            counts[key, name] = sum(_builds(key, table, raw) for raw in _draws(strategy, draws))
    for name in RATE_CLASSES:  # an alias draws its class's keys
        counts["rates", name] = sum(_reaches_rate_report(raw, monkeypatch)
                                    for raw in _draws(_RATES_FORMS[name], draws))
    assert len(counts) == 25
    assert {form: n for form, n in counts.items() if n < draws // 10} == {}


# ----------------------------------------------------- fuzzed shortcut flags
#
# The flags of `run` are converted in `_config_from_args`, which the config
# fuzz above never reaches. Each value is a small valid one or arbitrary text
# without digits (digits could spell a size too large for a quick test).

_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Nd", "Cs")), max_size=6)


def _flag(good):
    return st.one_of(good, _TEXT)


_REAL_TEXT = st.floats(allow_nan=True, allow_infinity=True).map(repr)
_SHORTCUTS = {
    "--N": _flag(st.one_of(st.integers(-3, 2000).map(str),
                           st.sampled_from(["2.5", "1e3", "nan", "inf", "-inf", "1e400", ""]))),
    "--convention": _flag(st.sampled_from(["symmetric", "signed", "both"])),
    "--seq": _flag(st.sampled_from(["hardy_littlewood", "sparse_dyadic", "constant",
                                    "cycle_indicator"])),
    "--class": _flag(st.sampled_from(["star", "m_alpha", "a_alpha", "a_alpha_plain",
                                      "one_sided_sup", "two_sided_raw", "A", "M", "A-plain"])),
    "--alpha": _flag(st.one_of(st.floats(1.01, 2).map(repr), _REAL_TEXT)),
    "--beta": _flag(st.one_of(st.floats(0.01, 0.99).map(repr), _REAL_TEXT)),
    "--h": _flag(st.sampled_from(["inverse-log", "inverse-log2", "inverse-linear"])),
    "--K": _flag(st.integers(-3, 40).map(str)),
}
# one to three distinct flags, each as --flag=value so that a value starting
# with "-" reaches the converter
_FLAG_ARGS = st.lists(st.sampled_from(sorted(_SHORTCUTS)), min_size=1, max_size=3,
                      unique=True).flatmap(
    lambda flags: st.tuples(*(_SHORTCUTS[f].map(lambda v, f=f: f"{f}={v}") for f in flags)))


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(KINDS), _FLAG_ARGS)
@example("counterexample", ("--N=3",))
@example("counterexample", ("--N=abc",))
@example("prop27", ("--N=1e400",))
def test_fuzzed_shortcut_flags_exit_0_2_or_3(kind, flags):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            code = run_cli(["run", kind, *flags, "--out-dir", str(Path(tmp) / "out")])
        except SystemExit as exc:  # argparse rejects what its type= cannot convert
            code = exc.code
    assert code in (0, 2, 3)
