"""Tests of the benchmark's own arithmetic, tracer and report checks.

Run from the repository root: python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Experiment, check_counterexample  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def span(id_, parent, start, end, name="f", layer="transform", aggregates=None, **extra):
    return {"id": id_, "parent": parent, "trace": "t", "name": name, "layer": layer,
            "start": start, "end": end, "error": False, "counters": {},
            "aggregates": aggregates or {}, **extra}


def test_union_length_merges_overlaps_and_clips():
    assert layers.union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert layers.union_length([(1, 3), (2, 5), (7, 8)], 2.5, 7.5) == 3
    assert layers.union_length([], 0, 1) == 0
    assert layers.union_length([(4, 4), (6, 5)], 0, 10) == 0


def test_self_time_is_duration_minus_union_of_children():
    agg = {"kernel_eval": {"layer": "envelope", "count": 3, "total_s": 0.5, "errors": 0,
                           "counters": {}}}
    spans = [span(0, None, 0.0, 10.0, aggregates=agg),
             span(1, 0, 1.0, 4.0), span(2, 0, 3.0, 6.0), span(3, 1, 1.5, 2.0)]
    selfs = layers.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 0.5)
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(0.5)


def test_busy_plus_unattributed_equals_wall():
    agg = {"kernel_eval": {"layer": "envelope", "count": 4, "total_s": 0.25, "errors": 1,
                           "counters": {"kernel_evals": 4}}}
    spans = [span(0, None, 1.0, 3.0, name="main", layer="cli", aggregates=agg),
             span(1, 0, 1.5, 2.5, name="build_envelope", layer="envelope")]
    m = layers.layer_metrics([{"spans": spans, "wall_s": 3.5, "bytes_written": 10}], 2.8)
    busy = sum(m[f"{layer}.busy_s"] for layer in tracer.LAYERS)
    assert busy + m["trace.unattributed_s"] == pytest.approx(3.5)
    assert m["trace.unattributed_s"] == pytest.approx(1.5)
    assert m["envelope.busy_s"] == pytest.approx(1.25)
    assert m["cli.busy_s"] == pytest.approx(0.75)
    assert m["envelope.kernel_evals"] == 4
    assert m["envelope.errors"] == 1
    assert m["envelope.build_s"] == pytest.approx(1.0)
    assert m["trace.overhead_ratio"] == pytest.approx(3.5 / 2.8 - 1.0)
    assert list(m) == layers.metric_names()


def _namespace_snapshot():
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "ehtlab" or name.startswith("ehtlab.")):
            snap[name] = dict(vars(mod))
            for key, value in vars(mod).items():
                if isinstance(value, type) and value.__module__.startswith("ehtlab"):
                    snap[f"{name}:{key}"] = dict(vars(value))
    return snap


def test_every_wrapped_name_is_restored():
    import ehtlab.cli  # noqa: F401

    before = _namespace_snapshot()
    t = tracer.Tracer.install()
    wrapped = {(id(owner), attr) for owner, attr, _ in t._restore}
    # every target is wrapped at least where it is defined
    assert len(wrapped) >= len(tracer.TARGETS)
    original = before["ehtlab.transform"]["eht_trace"]
    bound = [vars(sys.modules[m])["eht_trace"]
             for m in ("ehtlab", "ehtlab.transform", "ehtlab.cli", "ehtlab.processes")]
    assert all(fn is bound[0] and fn is not original for fn in bound)
    t.restore()
    after = _namespace_snapshot()
    assert before.keys() == after.keys()
    for key in before:
        assert before[key].keys() == after[key].keys(), key
        for attr in before[key]:
            assert before[key][attr] is after[key][attr], f"{key}.{attr} not restored"


def test_aggregated_counts_add_up():
    from ehtlab import envelope

    targets = [tracer.Target("ehtlab.envelope", "fejer_integral", "envelope"),
               tracer.Target("ehtlab.envelope", "kernel_eval", "envelope", aggregate=True,
                             counters={"kernel_evals": tracer._one})]
    t = tracer.Tracer.install(targets)
    try:
        envelope.kernel_eval("fejer", 2, 1.0)  # no open span: untraced
        for n in (3, 5):
            envelope.fejer_integral(n)
    finally:
        t.restore()
    assert [s["name"] for s in t.spans] == ["fejer_integral", "fejer_integral"]
    counts = [s["aggregates"]["kernel_eval"]["count"] for s in t.spans]
    assert counts == [4 * (3 + 1), 4 * (5 + 1)]  # one evaluation per quadrature node
    for s in t.spans:
        rec = s["aggregates"]["kernel_eval"]
        assert rec["counters"]["kernel_evals"] == rec["count"]
        assert 0 < rec["total_s"] <= s["end"] - s["start"]
    m = layers.layer_metrics([{"spans": t.spans, "wall_s": 1.0, "bytes_written": 0}], 1.0)
    assert m["envelope.kernel_evals"] == sum(counts)


def test_traced_cli_run_has_one_root_and_checks_pass(tmp_path):
    spans_path = tmp_path / "spans.json"
    code = tracer.main([str(spans_path), "ce#0", "run", "--config",
                        str(ROOT / "configs" / "counterexample_three_cycle.json"),
                        "--out-dir", str(tmp_path / "out")])
    assert code == 0
    spans = json.loads(spans_path.read_text())["spans"]
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["main"]
    assert {s["trace"] for s in spans} == {"ce#0"}
    names = {s["name"] for s in spans}
    assert {"orbit_values", "eht_trace", "checkpoint_sums", "run_experiment",
            "canonical_json", "TransformTrace.to_csv"} <= names
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert check_counterexample(report) == []
    m = layers.layer_metrics([{"spans": spans, "wall_s": roots[0]["end"] - roots[0]["start"],
                               "bytes_written": 0}], 1.0)
    assert m["trace.unattributed_s"] == pytest.approx(0.0, abs=1e-9)
    assert m["numerics.terms_summed"] > 0 and m["dynamics.orbit_points"] > 0


def _fake_execution(bdir: Path, exp: Experiment, report_bytes: bytes | None, code: int = 0):
    out = bdir / exp.name
    out.mkdir(parents=True)
    (bdir / f"{exp.name}.err").write_text("")
    if report_bytes is not None:
        (out / "report.json").write_bytes(report_bytes)
    ex = run.Execution(exp.name, code, 1.0, 1.0, 10.0)
    run.inspect_outputs(exp, ex, bdir)
    return ex


GOOD_CE = {"results": {"conventions": {
    "symmetric": {"cell_0": {"H_final": {"re": 7.49, "im": 0.0}, "verdict": {
        "verdict": "diverging", "growth_fit": {"model": "log n", "coefficient": 0.6659}}}},
    "signed": {"cell_0": {"H_final": {"re": 0.0, "im": 0.0}, "verdict": {
        "verdict": "cauchy_trend", "growth_fit": None}}}}}}


def test_corrupted_report_counts_as_failure(tmp_path):
    exp = Experiment("ce", check_counterexample, config={"kind": "counterexample"})
    good = _fake_execution(tmp_path / "a", exp, json.dumps(GOOD_CE).encode())
    assert good.problems == [] and not good.check_failed and good.digest

    corrupted = json.loads(json.dumps(GOOD_CE))
    corrupted["results"]["conventions"]["signed"]["cell_0"]["H_final"]["re"] = 1e-3
    bad = _fake_execution(tmp_path / "b", exp, json.dumps(corrupted).encode())
    assert bad.check_failed and any("signed cell_0" in p for p in bad.problems)

    garbage = _fake_execution(tmp_path / "c", exp, b"{not json")
    assert garbage.check_failed and garbage.problems

    missing = _fake_execution(tmp_path / "d", exp, None)
    assert missing.check_failed and missing.problems == ["no report.json written"]

    crashed = _fake_execution(tmp_path / "e", exp, None, code=1)
    assert crashed.problems and not crashed.check_failed

    assert run.tally([run.Batch(False, [good, crashed])]) == (2, 1, True)
    assert run.tally([run.Batch(False, [good, bad])]) == (2, 1, False)
    assert run.tally([run.Batch(False, [good, garbage, missing])]) == (3, 2, False)


def test_report_bytes_must_repeat_across_batches(tmp_path):
    exp = Experiment("ce", check_counterexample, config={"kind": "counterexample"})
    first = _fake_execution(tmp_path / "a", exp, json.dumps(GOOD_CE).encode())
    same = _fake_execution(tmp_path / "b", exp, json.dumps(GOOD_CE).encode())
    other = _fake_execution(tmp_path / "c", exp, json.dumps(GOOD_CE, indent=1).encode())
    batches = [run.Batch(False, [first]), run.Batch(False, [same]), run.Batch(True, [other])]
    run.compare_digests(batches)
    assert not first.problems and not same.problems
    assert other.check_failed and "differs" in other.problems[0]


def test_workloads_derive_sampling_seeds_from_the_workload_seed():
    for make in WORKLOADS.values():
        assert make(3) == make(3)
    seeds = lambda seed: [e.config.get("seed") for e in WORKLOADS["many_orbits"](seed)
                          if e.config]
    assert seeds(1) != seeds(2)
    names = [e.name for make in WORKLOADS.values() for e in make(0)]
    assert len(names) == len(set(names))


def test_percentile_needs_ten_runs_beyond_it():
    assert "no percentile" in run.percentile_line([1.0] * 10)
    line = run.percentile_line([float(i) for i in range(1, 21)])
    assert "p50 10.0000" in line and "over 20 runs" in line
