"""Symmetric strongly bounded admissible process families and their
truncated additive approximants.

A process here is the canonical monotone form f_i = v_{|i|} o T^i with
0 <= v_r <= v_{r+1} <= delta: symmetry (f_i = f_{-i} o T^{2i}) and
admissibility (f_{+-i} o T^{+-1} <= f_{+-(i+1)}) then hold identically, and
because points carry their orbit index lazily the identities hold bitwise on
every sampled point, not merely within a tolerance. The levels come from
one factor schedule v_r = c(r) delta (`FactorSchedule`): `SHRINK` has
c(r) = r/(r+1), `CONSTANT` has c(r) = 1, the additive case. The truncated
approximant freezes v at level r outside [-r, r]:
    g_i^r = v_min(|i|, r) o T^i,
so 0 <= f_i - g_i^r <= (1 - c(r)) delta o T^i with equality inside the window.

The weighted-sum side lives in `seminorm_and_hilbert`: the log-weighted
prefix seminorm of a sequence, the dyadic Cauchy-trend verdict of
sum' c_k / k, and the truncation experiment that drives approximation
arguments (seminorm of the tail -> 0 while the verdict stays put).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .dynamics import DynamicalSystem, Observable, orbit_pairs, point_values, sample_points
from .errors import InvariantError
from .rates import RateParams, abs_prefix_ratios
from .sequences import ModulatingSequence, transform_sequence
from .transform import (
    as_checkpoints,
    default_checkpoints,
    eht_trace,  # unused here; perfbench/test_perfbench.py looks it up in this module
    make_convergence_verdict,
    orbit_traces,
)


@dataclass(frozen=True)
class FactorSchedule:
    """Monotone schedule v_r = c(r) * delta with 0 <= c(r) <= c(r+1) <= 1.

    `factor` maps a float array of levels r to c(r); `gap` is the closed form
    of 1 - c(r), kept separate because subtracting from one rounds differently.
    """

    factor: Callable[[np.ndarray], np.ndarray]
    gap: Callable[[int], float]


SHRINK = FactorSchedule(lambda r: r / (r + 1.0), lambda r: 1.0 / (r + 1.0))
CONSTANT = FactorSchedule(np.ones_like, lambda r: 0.0)


@dataclass(frozen=True)
class AdmissibleProcess:
    sys: DynamicalSystem
    delta: Observable
    schedule: FactorSchedule

    def _delta_along(self, x0, ks: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.delta.coord_fn(self.sys.orbit_coords(x0, ks)))
        return vals.real

    def f_values(self, x0, ks: np.ndarray) -> np.ndarray:
        """f_i(x0) = v_{|i|}(T^i x0) for each i in ks."""
        return self.g_values(x0, ks, math.inf)

    def f_eval(self, i: int, x0) -> float:
        return float(self.f_values(x0, np.array([i], dtype=np.int64))[0])

    def g_values(self, x0, ks: np.ndarray, r: float) -> np.ndarray:
        """Truncated approximant g_i^r(x0) = v_min(|i|, r)(T^i x0)."""
        ks = np.asarray(ks, dtype=np.int64)
        levels = np.minimum(np.abs(ks).astype(float), r)
        return self.schedule.factor(levels) * self._delta_along(x0, ks)


def build_process(sys: DynamicalSystem, delta: Observable, schedule: FactorSchedule = SHRINK, *,
                  validation_count: int = 1000, seed: int = 7) -> AdmissibleProcess:
    """Validated process from a monotone factor schedule (default: SHRINK).

    Validation draws `validation_count` points, on which delta must be real and
    nonnegative, and requires the probe factors 0 <= c(0) <= c(1) <= c(2) <= c(4)
    <= c(8) <= c(16) <= 1 (a NaN fails). Rounding is monotone, so v_r <= v_{r+1}
    <= delta then holds on every sample; any violation is a hard error.
    """
    pts = sample_points(sys, validation_count, seed)
    dvals = point_values(sys, delta, pts)
    if np.any(np.abs(dvals.imag) > 0):
        raise InvariantError("invalid process: delta takes non-real values")
    if np.any(dvals.real < 0):
        raise InvariantError("invalid process: delta takes negative values")
    probe_radii = (0, 1, 2, 4, 8, 16)
    factors = np.asarray(schedule.factor(np.asarray(probe_radii, dtype=float)))
    prev = 0.0
    for r, c in zip(probe_radii, factors):
        if c.imag != 0 or not c.real >= 0:
            raise InvariantError(f"invalid process: v_{r} is not real nonnegative")
        if c.real > 1:
            raise InvariantError(f"invalid process: v_{r} exceeds delta on a sample")
        if c.real < prev:
            raise InvariantError(f"invalid process: schedule decreases at r = {r}")
        prev = c.real
    return AdmissibleProcess(sys, delta, schedule)


def structural_identity_check(F: AdmissibleProcess, points, i_list: Sequence[int]) -> dict:
    """Bitwise verification of the defining identities on the given points.

    structure   : f_i(x) equals v_{|i|} evaluated at the lazily shifted point
    symmetry    : f_i(x) equals f_{-i}(T^{2i} x)
    admissible  : f_i(T x) <= f_{i+1}(x) and f_{-i}(T^{-1} x) <= f_{-(i+1)}(x)
    """
    sys = F.sys
    ks0 = np.array([0], dtype=np.int64)
    exact_structure = exact_symmetry = admissible = True
    for x in points:
        for i in i_list:
            fi = F.f_eval(i, x)
            c = F.schedule.factor(np.array([abs(int(i))], dtype=float))
            if float((c * F._delta_along(sys.iterate(x, i), ks0))[0]) != fi:
                exact_structure = False
            if F.f_eval(-i, sys.iterate(x, 2 * i)) != fi:
                exact_symmetry = False
            if F.f_eval(abs(i), sys.iterate(x, 1)) > F.f_eval(abs(i) + 1, x):
                admissible = False
            if F.f_eval(-abs(i), sys.iterate(x, -1)) > F.f_eval(-abs(i) - 1, x):
                admissible = False
    return {"structure_exact": exact_structure, "symmetry_exact": exact_symmetry,
            "admissible": admissible}


def truncated_approximant(F: AdmissibleProcess, r: int, i: int, points) -> dict:
    """g_i^r on the given points with the sandwich residual check.

    Inside the window (|i| <= r) the residual f_i - g_i^r must vanish
    exactly; outside it must lie in [0, (delta - v_r)(T^i x)].
    """
    if r < 1:
        raise ValueError("approximant level r must be >= 1")
    ks = np.array([i], dtype=np.int64)
    rows = []
    ok = True
    c_r = F.schedule.factor(np.array([r], dtype=float))[0]
    for x in points:
        f = float(F.f_values(x, ks)[0])
        g = float(F.g_values(x, ks, r)[0])
        d = float(F._delta_along(x, ks)[0])
        gap = d - float(c_r * d)
        resid = f - g
        if abs(i) <= r:
            ok = ok and resid == 0.0
        else:
            ok = ok and (0.0 <= resid <= gap)
        rows.append({"f": f, "g": g, "residual": resid, "gap_bound": gap})
    return {"r": r, "i": i, "sandwich_ok": ok, "rows": rows}


def process_eht_trace(a: ModulatingSequence, F: AdmissibleProcess, x0,
                      checkpoints: Sequence[int], r_schedule: Sequence[int]) -> dict:
    """Weighted process sums sum' a_i f_i(x0)/i with approximant comparisons.

    For each r the trace of sum' a_i g_i^r(x0)/i is computed alongside; the
    max checkpoint deviation is reported against the rigorous pointwise bound
    sup|delta - v_r| * sum_{r<|i|<=N} |a_i|/|i|, where the sup gap is the closed
    form sup|delta| * (1 - c(r)). The L2 gap ||delta - v_r||_2 rides along for
    scale.
    """
    checkpoints = as_checkpoints(checkpoints)
    N = checkpoints[-1]
    levels = sorted(int(r) for r in r_schedule)
    if levels and levels[0] < 0:
        raise ValueError("approximant level r must be >= 0")
    delta = orbit_pairs(F.sys, F.delta, [x0], N)

    def values(lo: int, hi: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        # f = g^inf, then g^r for each level, as g_values forms them, from one delta per block
        ks, ((pos, neg),) = np.arange(lo + 1, hi + 1, dtype=float), delta(lo, hi)
        for c in (F.schedule.factor(np.minimum(ks, r)) for r in (math.inf, *levels)):
            yield (c * pos.real).astype(complex), (c * neg.real).astype(complex)

    base, *traces = orbit_traces([a], values, checkpoints)
    verdict = make_convergence_verdict(checkpoints, base.H_values)

    # |a_i| / |i| over -N..N, whole, so the pairwise sum of each tail r < |i| <= N,
    # the two ends of the array joined, rounds as one sum does
    weighted = np.abs(a.range_values(N)) * np.concatenate(
        [1.0 / np.abs(np.arange(-N, 0)), [0.0], 1.0 / np.arange(1, N + 1)])
    rows = [{"r": r, "max_deviation": float(np.max(np.abs(base.H_values - trace.H_values))),
             "deviation_bound": (F.delta.norm("linf") * F.schedule.gap(r) * float(np.sum(
                 np.concatenate((weighted[: max(N - r, 0)], weighted[N + r + 1 :]))))),
             "l2_gap": F.delta.norm("l2") * F.schedule.gap(r)}
            for r, trace in zip(levels, traces)]
    return {"trace": base, "verdict": verdict, "approximants": rows}


@dataclass(frozen=True)
class SeminormEstimate:
    alpha: float
    schedule: tuple[int, ...]
    values: tuple[float, ...]
    limsup_proxy: float  # max over the final dyadic windows, a proxy only


def _seminorm_values(c: ModulatingSequence, alpha: float, schedule: Sequence[int]) -> SeminormEstimate:
    report = abs_prefix_ratios(c, "m_alpha", RateParams(alpha=alpha, schedule=tuple(schedule)))
    vals = report.ratios
    proxy = max(vals[-min(3, len(vals)):])
    return SeminormEstimate(alpha, tuple(int(n) for n in schedule), vals, float(proxy))


def hilbert_partial_sums(cs: Sequence[ModulatingSequence],
                         checkpoints: Sequence[int]) -> list[np.ndarray]:
    """sum_{1<=|k|<=n} c_k / k at the checkpoints for each sequence c: one `orbit_traces`
    call, one stream per sequence, against one row of ones."""
    def ones(lo: int, hi: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        one = np.ones(hi - lo, dtype=complex)
        yield one, one
    return [trace.H_values for trace in orbit_traces(cs, ones, checkpoints)]


def seminorm_and_hilbert(c: ModulatingSequence, alpha: float, N_schedule: Sequence[int],
                         truncation_radii: Sequence[int] | None = None) -> dict:
    """Log-weighted prefix seminorm plus the Cauchy-trend verdict of sum' c_k/k.

    With `truncation_radii` the Prop-style truncation experiment runs too:
    for each radius r the seminorm of c - truncate(c, r) (the tail) and the
    verdict of the truncated sums are reported; the tail seminorm must fall
    toward zero while every verdict agrees if the approximation argument is
    to carry the limit.
    """
    schedule = tuple(int(n) for n in N_schedule)
    est = _seminorm_values(c, alpha, schedule)
    radii = [] if truncation_radii is None else [int(r) for r in truncation_radii]
    truncated = [transform_sequence(c, "truncate", r=r) for r in radii]
    # the verdict grid is denser than any user schedule: window oscillations
    # need several samples per octave to be meaningful
    cps = default_checkpoints(schedule[-1], n_min=min(64, max(16, schedule[-1] // 64)))
    verdict, *verdicts = (make_convergence_verdict(cps, sums)
                          for sums in hilbert_partial_sums([c, *truncated], cps))
    out = {"seminorm": est, "verdict": verdict}
    if truncation_radii is not None:
        rows = []
        for r, tr, tr_verdict in zip(radii, truncated, verdicts):
            tail_fn = lambda ks, base=c, t=tr: base.values(ks) - t.values(ks)
            tail = ModulatingSequence(f"tail({c.label},{r})", tail_fn, bound=None)
            tail_est = _seminorm_values(tail, alpha, schedule)
            rows.append({"r": r, "tail_seminorm_proxy": tail_est.limsup_proxy,
                         "verdict": tr_verdict.verdict})
        out["truncation_experiment"] = rows
    return out
