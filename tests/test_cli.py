import json
import re
from pathlib import Path

import pytest

from ehtlab import __version__
from ehtlab.cli import (
    _PARAM_KEYS,
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
    assert _PARAM_KEYS[kind] <= set(re.findall(r"\w+", params))


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


def test_budget_exceeded_exit_3(tmp_path):
    cfg = tmp_path / "tight.json"
    cfg.write_text(json.dumps({
        "kind": "prop27",
        "params": {"h": "inverse-linear", "K": 8,
                   "evaluate": {"x_count": 1, "tol": 1e-12}},
    }))
    assert run_cli(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 3
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert "error" in report


def test_invariant_failure_is_not_a_config_error(tmp_path, monkeypatch):
    from ehtlab import cli
    from ehtlab.errors import InvariantError

    def broken(cfg, out):
        raise InvariantError("evaluator changed the index shape")

    monkeypatch.setitem(cli._RUNNERS, "rates", broken)
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
