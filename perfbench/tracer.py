"""Span tracer for ehtlab's public functions, installed from outside the package.

`Tracer.install()` replaces each function named in `TARGETS` with a wrapper in
every `ehtlab` namespace that bound it (the defining module, modules that
imported it by name, the package itself) and on the owning class for
methods; `restore()` puts every original back.

Each wrapped call records a span: name, layer, start, end, parent span and
whether an exception passed through it, plus the counters its target
declares. Targets marked `aggregate` are called too often for one span per
call; their calls are folded into one count-and-total record on the parent
span, and wrapped calls nested inside them run untraced (their time belongs
to the aggregated call). Spans stay in memory until `dump()`.

Run as a script it traces one `ehtlab` CLI invocation:

    PYTHONPATH=src python perfbench/tracer.py spans.json <trace-id> run --config cfg.json

The import of `ehtlab.cli` happens before tracing starts, so interpreter
start and import show up as unattributed time, never as a layer's busy time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


def _arg(name: str) -> Callable:
    """Counter reading a numeric argument by parameter name."""
    def read(bound, result):
        return int(bound.arguments[name])
    return read


def _size_of(name: str) -> Callable:
    def read(bound, result):
        return int(getattr(bound.arguments[name], "size", 0))
    return read


def _one(bound, result):
    return 1


@dataclass(frozen=True)
class Target:
    module: str
    qualname: str
    layer: str
    aggregate: bool = False
    # counter name -> fn(bound arguments, result) -> number
    counters: dict = field(default_factory=dict)


TARGETS: tuple[Target, ...] = (
    Target("ehtlab.sequences", "ModulatingSequence.range_values", "sequences",
           counters={"range_calls": _one}),
    Target("ehtlab.sequences", "ModulatingSequence.values", "sequences", aggregate=True,
           counters={"elements_evaluated": _size_of("ks")}),
    Target("ehtlab.dynamics", "orbit_values", "dynamics"),
    Target("ehtlab.dynamics", "sample_points", "dynamics"),
    *(Target("ehtlab.dynamics", f"{cls}.orbit_coords", "dynamics", aggregate=True,
             counters={"orbit_calls": _one, "orbit_points": _size_of("ks")})
      for cls in ("Rotation", "ThreeCycle", "TorusAutomorphism")),
    Target("ehtlab.transform", "eht_trace", "transform", counters={"trace_calls": _one}),
    Target("ehtlab.transform", "maximal_and_weak11", "transform",
           counters={"samples": _arg("sample_count")}),
    Target("ehtlab.transform", "wiener_wintner_sweep", "transform"),
    Target("ehtlab.transform", "make_convergence_verdict", "transform"),
    Target("ehtlab.transform", "cesaro_average_trace", "transform"),
    Target("ehtlab.numerics", "checkpoint_sums", "numerics",
           counters={"calls": _one, "terms_summed": _size_of("terms")}),
    Target("ehtlab.numerics", "fit_line", "numerics", counters={"calls": _one}),
    Target("ehtlab.rates", "exp_sum_grid", "rates",
           counters={"grid_calls": _one, "fft_points": _arg("grid_order")}),
    Target("ehtlab.rates", "check_A_alpha", "rates"),
    Target("ehtlab.rates", "abs_prefix_ratios", "rates"),
    Target("ehtlab.rates", "parseval_holder_check", "rates"),
    Target("ehtlab.spectral", "gamma_and_spectrum", "spectral",
           counters={"grid_points": _arg("grid_order"),
                     "atoms": lambda bound, result: len(result.atoms)}),
    Target("ehtlab.spectral", "correlation_table", "spectral"),
    Target("ehtlab.spectral", "resonance_report", "spectral"),
    Target("ehtlab.envelope", "build_envelope", "envelope"),
    Target("ehtlab.envelope", "kernel_eval", "envelope", aggregate=True,
           counters={"kernel_evals": _one}),
    Target("ehtlab.envelope", "evaluate_g", "envelope"),
    Target("ehtlab.envelope", "kernel_series_l1_profile", "envelope"),
    Target("ehtlab.envelope", "fejer_integral", "envelope"),
    Target("ehtlab.envelope", "divergent_modulator_demo", "envelope"),
    Target("ehtlab.envelope", "verify_envelope_conditions", "envelope"),
    Target("ehtlab.processes", "build_process", "processes",
           counters={"validation_points": _arg("validation_count")}),
    Target("ehtlab.processes", "process_eht_trace", "processes"),
    Target("ehtlab.processes", "seminorm_and_hilbert", "processes"),
    Target("ehtlab.cli", "main", "cli"),
    Target("ehtlab.cli", "run_experiment", "cli"),
    Target("ehtlab.cli", "canonical_json", "cli"),
    # CSV writing is the front door's output stage, whatever module defines it
    Target("ehtlab.transform", "TransformTrace.to_csv", "cli"),
)

LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))


class Tracer:
    """Records spans of the wrapped calls of one process."""

    def __init__(self, trace_id: str = ""):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._suppressed = 0
        self._restore: list[tuple[object, str, object]] = []
        self._clock = time.perf_counter

    # ---------------------------------------------------------- wrapping

    @classmethod
    def install(cls, targets=TARGETS, trace_id: str = "") -> "Tracer":
        tracer = cls(trace_id)
        for t in targets:
            tracer._wrap(t)
        return tracer

    def _wrap(self, t: Target) -> None:
        module = importlib.import_module(t.module)
        owner_name, _, attr = t.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(t, original))
            return
        original = getattr(module, attr)
        wrapper = self._wrapper(t, original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "ehtlab" or name.startswith("ehtlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrapper(self, t: Target, fn: Callable) -> Callable:
        sig = inspect.signature(fn)
        counters = tuple(t.counters.items())
        clock = self._clock

        if t.aggregate:
            @functools.wraps(fn)
            def aggregated(*args, **kwargs):
                if self._suppressed or not self._stack:
                    return fn(*args, **kwargs)
                self._suppressed += 1
                start = clock()
                failed = True
                try:
                    result = fn(*args, **kwargs)
                    failed = False
                    return result
                finally:
                    elapsed = clock() - start
                    self._suppressed -= 1
                    rec = self._stack[-1]["aggregates"].setdefault(
                        t.qualname, {"layer": t.layer, "count": 0, "total_s": 0.0,
                                     "errors": 0, "counters": {}})
                    rec["count"] += 1
                    rec["total_s"] += elapsed
                    rec["errors"] += failed
                    if counters and not failed:
                        bound = sig.bind(*args, **kwargs)
                        c = rec["counters"]
                        for name, read in counters:
                            c[name] = c.get(name, 0) + read(bound, result)
            return aggregated

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if self._suppressed:
                return fn(*args, **kwargs)
            parent = self._stack[-1]["id"] if self._stack else None
            span = {"id": len(self.spans), "parent": parent, "trace": self.trace_id,
                    "name": t.qualname, "layer": t.layer, "start": clock(), "end": None,
                    "error": False, "counters": {}, "aggregates": {}}
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = clock()
                self._stack.pop()
            if counters:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counters"] = {name: read(bound, result) for name, read in counters}
            return result
        return spanned

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"trace": self.trace_id, "spans": self.spans}, fh)


def main(argv: list[str]) -> int:
    spans_path, trace_id, cli_argv = argv[0], argv[1], argv[2:]
    import ehtlab.cli  # noqa: F401  (imported before tracing: counts as unattributed)

    tracer = Tracer.install(trace_id=trace_id)
    try:
        return sys.modules["ehtlab.cli"].main(cli_argv)
    finally:
        tracer.restore()
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
