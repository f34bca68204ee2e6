"""Per-layer metrics from the spans `tracer.py` writes.

A layer's busy time is the self time of its spans plus the total time of
its aggregated calls. A span's self time is its duration minus the part of
its interval covered by child spans, minus the time of the calls aggregated
on it. The spans of one process form a single call chain, so the busy times
of all layers add up to the summed duration of the root spans; traced wall
time minus that sum is `trace.unattributed_s` (interpreter start, import,
tracer set-up and span output).
"""

from __future__ import annotations

import math

from tracer import LAYERS, TARGETS

# bytes per orbit point (one complex128 observable value)
ORBIT_POINT_BYTES = 16
# bytes per FFT point: one complex128 input and one complex128 output
FFT_POINT_BYTES = 32

# per-layer counters summed from span and aggregate counters, in output order
LAYER_COUNTERS = {
    layer: tuple(dict.fromkeys(c for t in TARGETS if t.layer == layer for c in t.counters))
    for layer in LAYERS
}

# per-layer metrics derived after summing, in output order
_DERIVED = {
    "dynamics": ("orbit_bytes_computed",),
    "sequences": ("memo_hit_ratio",),
    "transform": ("verdict_s",),
    "rates": ("fft_flops_computed", "fft_bytes_computed"),
    "envelope": ("kernel_eval_s", "build_s"),
    "cli": ("bytes_written",),
}


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of child spans and aggregated time."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = union_length(children.get(s["id"], ()), s["start"], s["end"])
        folded = sum(a["total_s"] for a in s["aggregates"].values())
        out[s["id"]] = (s["end"] - s["start"]) - covered - folded
    return out


def metric_names() -> list[str]:
    """Every per-layer metric `layer_metrics` reports, in output order."""
    names = []
    for layer in LAYERS:
        names.append(f"{layer}.busy_s")
        names.extend(f"{layer}.{c}" for c in LAYER_COUNTERS[layer])
        names.extend(f"{layer}.{m}" for m in _DERIVED.get(layer, ()))
        names.append(f"{layer}.errors")
    names += ["trace.unattributed_s", "trace.overhead_ratio"]
    return names


UNITS = {
    "busy_s": "s", "verdict_s": "s", "kernel_eval_s": "s", "build_s": "s",
    "unattributed_s": "s", "overhead_ratio": "1", "memo_hit_ratio": "1",
    "orbit_bytes_computed": "B", "fft_bytes_computed": "B", "bytes_written": "B",
    "fft_flops_computed": "flop",
}


def unit_of(name: str) -> str:
    return UNITS.get(name.rpartition(".")[2], "count")


def layer_metrics(experiments: list[dict], untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced batch.

    Each experiment is {"spans": [...], "wall_s": traced wall time of its
    process, "bytes_written": size of its outputs}. `untraced_wall_s` is the
    batch wall time of an untraced batch, the base of `trace.overhead_ratio`.
    """
    m = {name: 0.0 for name in metric_names()}
    wall = 0.0
    range_calls = memo_hits = 0
    for exp in experiments:
        spans = exp["spans"]
        wall += exp["wall_s"]
        m["cli.bytes_written"] += exp["bytes_written"]
        selfs = self_times(spans)
        for s in spans:
            layer = s["layer"]
            m[f"{layer}.busy_s"] += selfs[s["id"]]
            m[f"{layer}.errors"] += s["error"]
            for name, value in s["counters"].items():
                m[f"{layer}.{name}"] += value
            for rec in s["aggregates"].values():
                m[f"{rec['layer']}.busy_s"] += rec["total_s"]
                m[f"{rec['layer']}.errors"] += rec["errors"]
                for name, value in rec["counters"].items():
                    m[f"{rec['layer']}.{name}"] += value
            duration = s["end"] - s["start"]
            if s["name"] == "make_convergence_verdict":
                m["transform.verdict_s"] += duration
            elif s["name"] == "build_envelope":
                m["envelope.build_s"] += duration
            elif s["name"] == "exp_sum_grid":
                g = s["counters"]["fft_points"]
                m["rates.fft_flops_computed"] += 5.0 * g * math.log2(g)
            elif s["name"] == "ModulatingSequence.range_values":
                range_calls += 1
                memo_hits += "ModulatingSequence.values" not in s["aggregates"]
            kernel = s["aggregates"].get("kernel_eval")
            if kernel is not None:
                m["envelope.kernel_eval_s"] += kernel["total_s"]
    m["dynamics.orbit_bytes_computed"] = ORBIT_POINT_BYTES * m["dynamics.orbit_points"]
    m["sequences.memo_hit_ratio"] = memo_hits / range_calls if range_calls else 0.0
    m["rates.fft_bytes_computed"] = FFT_POINT_BYTES * m["rates.fft_points"]
    busy = sum(m[f"{layer}.busy_s"] for layer in LAYERS)
    m["trace.unattributed_s"] = wall - busy
    m["trace.overhead_ratio"] = wall / untraced_wall_s - 1.0
    return m

