"""ehtlab benchmark: batches of `ehtlab run` experiments timed end to end.

Run from the repository root:

    python3 perfbench/run.py --workload many_orbits --seed 1 --seconds 40 --trace 0

The workload's batch (see `workloads.py`) runs serially, one fresh
`python -m ehtlab.cli run --config ...` process per experiment: a closed
loop with one client. Batches repeat until `--seconds` is spent; every
report is checked (exit code, headline values, byte-identical bytes across
batches). With `--trace 0` the last stdout line holds the end-to-end
metrics (medians over the batches):

    batch_s      wall time of a batch, summed from spawn to reap per process
    cpu_s        user + sys time of the batch's processes (os.wait4 rusage)
    peak_rss_mb  largest ru_maxrss of any process of the batch
    setup_s      median wall time of a fresh `ehtlab describe <kind>`
                 process (interpreter start plus `import ehtlab.cli`)

With `--trace 1` untraced and traced batches alternate; traced processes
run under `tracer.py` and the last line holds the per-layer metrics of the
traced batch with the median wall time (see `layers.py`). Lines before the
last one print the environment, each experiment's exit code, checks and
report sha256, and every metric with its unit, `failed_ratio` included.
Outputs go to `.perfbench_runs/` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
from workloads import WORKLOADS, Experiment

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 5
# a run must end within 180 s; stop starting processes well before that
HARD_DEADLINE_S = 165.0


@dataclass
class Execution:
    """One `ehtlab` process of one batch."""
    experiment: str
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    digest: str | None = None
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)
    check_failed: bool = False  # a written report failed a check
    spans: list | None = None


@dataclass
class Batch:
    traced: bool
    executions: list[Execution]

    @property
    def wall_s(self) -> float:
        return sum(e.wall_s for e in self.executions)

    @property
    def cpu_s(self) -> float:
        return sum(e.cpu_s for e in self.executions)

    @property
    def rss_mb(self) -> float:
        return max(e.rss_mb for e in self.executions)


class Runner:
    """Spawns experiment processes and measures them from outside."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")

    def spawn(self, argv: list[str], log_stem: Path) -> tuple[int, float, float, float]:
        """Run one process to completion: (exit code, wall s, cpu s, max rss MB)."""
        with open(f"{log_stem}.out", "w") as out, open(f"{log_stem}.err", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, max(0.01, self.deadline - time.monotonic()))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)

    def run_batch(self, exps: list[Experiment], configs: dict[str, Path], index: int,
                  traced: bool) -> Batch:
        bdir = self.workdir / f"batch{index}"
        bdir.mkdir(parents=True)
        executions = []
        for exp in exps:
            out = bdir / exp.name
            cli = ["run", "--config", str(configs[exp.name]), "--out-dir", str(out)]
            if traced:
                spans = bdir / f"{exp.name}.spans.json"
                argv = [sys.executable, str(BENCH / "tracer.py"), str(spans),
                        f"{exp.name}#{index}", *cli]
            else:
                argv = [sys.executable, "-m", "ehtlab.cli", *cli]
            code, wall, cpu, rss = self.spawn(argv, bdir / exp.name)
            executions.append(Execution(exp.name, code, wall, cpu, rss))
        for exp, ex in zip(exps, executions):
            inspect_outputs(exp, ex, bdir)
        shutil.rmtree(bdir)
        return Batch(traced, executions)


def inspect_outputs(exp: Experiment, ex: Execution, bdir: Path) -> None:
    """Exit code, report checks, digest and output size of one execution."""
    out = bdir / exp.name
    if ex.exit_code != 0:
        err = (bdir / f"{exp.name}.err").read_text().strip().splitlines()
        ex.problems.append(f"exit code {ex.exit_code}, expected 0"
                           + (f": {err[-1]}" if err else ""))
    if out.is_dir():
        ex.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    report_path = out / "report.json"
    if ex.exit_code == 0:
        if not report_path.is_file():
            ex.problems.append("no report.json written")
            ex.check_failed = True
        else:
            raw = report_path.read_bytes()
            ex.digest = hashlib.sha256(raw).hexdigest()
            failures = check_report(exp, raw)
            if failures:
                ex.problems.extend(failures)
                ex.check_failed = True
    spans_path = bdir / f"{exp.name}.spans.json"
    if spans_path.is_file():
        ex.spans = json.loads(spans_path.read_text())["spans"]


def check_report(exp: Experiment, raw: bytes) -> list[str]:
    try:
        report = json.loads(raw)
        return exp.check(report)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"report unreadable by its check: {type(exc).__name__}: {exc}"]


def compare_digests(batches: list[Batch]) -> None:
    """Flag every report whose bytes differ from the first batch's report."""
    first: dict[str, str] = {}
    for b in batches:
        for ex in b.executions:
            if ex.digest is None:
                continue
            ref = first.setdefault(ex.experiment, ex.digest)
            if ex.digest != ref:
                ex.problems.append(f"report sha256 {ex.digest[:16]} differs from "
                                   f"the first batch's {ref[:16]}")
                ex.check_failed = True


def tally(batches: list[Batch]) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over every execution of the run.

    An execution fails when it misses its expected exit code or when its
    report fails a check; the run is correct when no report the program
    wrote failed a check or changed bytes between batches.
    """
    executions = [ex for b in batches for ex in b.executions]
    failed = sum(1 for ex in executions if ex.problems)
    return len(executions), failed, not any(ex.check_failed for ex in executions)


# ------------------------------------------------------------------ environment

def git_commit(root: Path) -> str | None:
    """Commit of a git checkout, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        h.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(runner: Runner) -> dict:
    code, *_ = runner.spawn([sys.executable, str(BENCH / "envprobe.py")],
                            runner.workdir / "envprobe")
    if code != 0:
        raise SetupError("environment probe failed: "
                         + (runner.workdir / "envprobe.err").read_text().strip())
    env = json.loads((runner.workdir / "envprobe.out").read_text())
    env.update(nproc=os.cpu_count(), git_commit=git_commit(ROOT),
               source_sha256=source_digest(ROOT))
    return env


class SetupError(RuntimeError):
    pass


def measure_setup(runner: Runner, exps: list[Experiment], configs: dict[str, Path]) -> list[float]:
    kinds = [json.loads(configs[e.name].read_text())["kind"] for e in exps]
    times = []
    for i in range(SETUP_REPEATS):
        kind = kinds[i % len(kinds)]
        code, wall, _, _ = runner.spawn([sys.executable, "-m", "ehtlab.cli", "describe", kind],
                                        runner.workdir / f"setup{i}")
        if code != 0:
            raise SetupError(f"`ehtlab describe {kind}` exited {code}: "
                             + (runner.workdir / f"setup{i}.err").read_text().strip())
        times.append(wall)
    return times


def write_configs(exps: list[Experiment], workdir: Path) -> dict[str, Path]:
    paths = {}
    for exp in exps:
        if exp.config is None:
            path = ROOT / exp.shipped
            if not path.is_file():
                raise SetupError(f"shipped config {exp.shipped} not found")
        else:
            path = workdir / "configs" / f"{exp.name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(exp.config, indent=1, sort_keys=True) + "\n")
        paths[exp.name] = path
    return paths


# ----------------------------------------------------------------- measurement

def measure(runner: Runner, exps, configs, seconds: float, trace: bool) -> list[Batch]:
    """Repeat batches while the next one is expected to fit in `seconds`.

    Untraced only, or untraced and traced alternating; at least one of each
    kind needed, even when a single batch outlasts `seconds`.
    """
    kinds = [False, True] if trace else [False]
    batches: list[Batch] = []
    spent: dict[bool, list[float]] = {k: [] for k in kinds}
    start = time.monotonic()
    index = 0
    while True:
        traced = kinds[index % len(kinds)]
        if spent[traced]:
            expected = statistics.median(spent[traced])
            now = time.monotonic()
            if now - start + expected > seconds or now + 1.5 * expected > runner.deadline:
                break
        t0 = time.monotonic()
        batches.append(runner.run_batch(exps, configs, index, traced))
        spent[traced].append(time.monotonic() - t0)
        index += 1
    return batches


def percentile_line(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten runs beyond it."""
    n = len(values)
    med = statistics.median(values)
    if n < 11:
        return f"median {med:.4f} over {n} runs; no percentile has ten runs beyond it"
    ordered = sorted(values)
    rank = n - 10  # 1-based rank with exactly ten runs above it
    return (f"median {med:.4f}, p{100.0 * rank / n:.0f} {ordered[rank - 1]:.4f} "
            f"over {n} runs")


def summarize(exps: list[Experiment], batches: list[Batch]) -> list[str]:
    lines = []
    for exp in exps:
        runs = [ex for b in batches for ex in b.executions if ex.experiment == exp.name]
        digests = sorted({ex.digest for ex in runs if ex.digest})
        problems = sorted({p for ex in runs for p in ex.problems})
        walls = [ex.wall_s for ex in runs]
        status = "ok" if not problems else "FAILED: " + " | ".join(problems)
        lines.append(f"# {exp.name}: exit {sorted({ex.exit_code for ex in runs})} "
                     f"(expected 0), "
                     f"wall median {statistics.median(walls):.3f} s over {len(walls)}, "
                     f"report sha256 {','.join(digests) or '-'}; {status}")
        if exp.note:
            lines.append(f"#   note: {exp.note}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "ehtlab" / "cli.py").is_file():
        print(f"error: no ehtlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS / f"{tag}.work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workdir, deadline)
    exps = WORKLOADS[args.workload](args.seed)
    try:
        configs = write_configs(exps, workdir)
        env = environment(runner)
        setup = measure_setup(runner, exps, configs)
        load_before = os.getloadavg()
        batches = measure(runner, exps, configs, args.seconds, bool(args.trace))
        load_after = os.getloadavg()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    compare_digests(batches)
    attempted, failed, correct = tally(batches)
    untraced = [b for b in batches if not b.traced]

    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, loadavg_before=load_before, loadavg_after=load_after)
    lines = ["# environment: " + json.dumps(env, sort_keys=True)]
    lines += summarize(exps, batches)
    batch_walls = [b.wall_s for b in untraced]
    e2e = {
        "batch_s": (statistics.median(batch_walls), "s"),
        "cpu_s": (statistics.median(b.cpu_s for b in untraced), "s"),
        "peak_rss_mb": (statistics.median(b.rss_mb for b in untraced), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    lines.append(f"batch_s {e2e['batch_s'][0]:.4f} s ({percentile_line(batch_walls)})")
    for name in ("cpu_s", "peak_rss_mb", "setup_s"):
        lines.append(f"{name} {e2e[name][0]:.4f} {e2e[name][1]}")
    lines.append(f"failed_ratio {failed / attempted:.4f} 1 ({failed} of {attempted} "
                 f"experiments failed)")

    if args.trace:
        traced = sorted((b for b in batches if b.traced), key=lambda b: b.wall_s)
        chosen = traced[(len(traced) - 1) // 2]
        per_layer = layers.layer_metrics(
            [{"spans": ex.spans or [], "wall_s": ex.wall_s, "bytes_written": ex.bytes_written}
             for ex in chosen.executions],
            statistics.median(batch_walls))
        metrics = {k: {"value": v, "unit": layers.unit_of(k)} for k, v in per_layer.items()}
        busy = sum(v for k, v in per_layer.items() if k.endswith(".busy_s"))
        lines.append(f"# traced batch wall {chosen.wall_s:.4f} s (median of {len(traced)} "
                     f"traced batches); busy_s sum + trace.unattributed_s = "
                     f"{busy + per_layer['trace.unattributed_s']:.4f} s")
        lines += [f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    RUNS.mkdir(exist_ok=True)
    record = {"environment": env, "setup_s": setup, "metrics": metrics,
              "batches": [{"traced": b.traced, "wall_s": b.wall_s, "cpu_s": b.cpu_s,
                           "rss_mb": b.rss_mb,
                           "executions": [{k: v for k, v in vars(ex).items() if k != "spans"}
                                          for ex in b.executions]} for b in batches]}
    (RUNS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
