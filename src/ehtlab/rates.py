"""Finite-n tests of growth-rate conditions on modulating sequences.

Everything here is a finite computation: prefix sums of |a_k| against power
or power-over-log normalizations, suprema of two-sided exponential sums over
roots-of-unity grids (via FFT, never O(G*n)), and the Cauchy-Schwarz /
Parseval chain that links the two. Boundedness can only be judged "on
schedule", so reports carry the raw ratios alongside the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .numerics import fit_loglog
from .sequences import ModulatingSequence

GROWTH_FACTOR = 1.5
DEFAULT_SCHEDULE = tuple(2**j for j in range(8, 16))


@dataclass(frozen=True)
class RateParams:
    """Parameters shared by the rate checks.

    alpha in (1, 2], beta in (0, 1); `schedule` is the strictly increasing
    list of radii n; `grid_order`, when given, fixes the root-of-unity grid
    for every n (must be >= 4*max(schedule) + 1 for Parseval-exact use),
    otherwise each n uses the default G = 8n grid.
    """

    alpha: float = 1.5
    beta: float = 0.5
    schedule: tuple[int, ...] = DEFAULT_SCHEDULE
    grid_order: int | None = None

    def __post_init__(self):
        if not (1.0 < self.alpha <= 2.0):
            raise ValueError("alpha must lie in (1, 2]")
        if not (0.0 < self.beta < 1.0):
            raise ValueError("beta must lie in (0, 1)")
        sched = tuple(int(n) for n in self.schedule)
        if len(sched) == 0 or any(b <= a for a, b in zip(sched, sched[1:])):
            raise ValueError("schedule must be nonempty and strictly increasing")
        object.__setattr__(self, "schedule", sched)
        if self.grid_order is not None and self.grid_order < 4 * sched[-1] + 1:
            raise ValueError("fixed grid_order must be >= 4*max(schedule) + 1")

    def grid_for(self, n: int) -> int:
        return self.grid_order if self.grid_order is not None else 8 * n


@dataclass(frozen=True)
class RateReport:
    """Per-n normalized ratios plus a bounded/growing verdict.

    `sup_estimate` is the max ratio over the schedule (finite-n stand-in for
    the sup constant); `verdict` is "growing" exactly when the trailing-window
    mean of the ratios exceeds the leading-window mean by `growth_factor`.
    """

    kind: str
    schedule: tuple[int, ...]
    ratios: tuple[float, ...]
    sup_estimate: float
    fitted_exponent: float
    residual: float
    verdict: str
    grid_order: tuple[int, ...] | None = None
    params: dict = field(default_factory=dict)


def _verdict(ratios: np.ndarray) -> str:
    w = max(1, len(ratios) // 3)
    head = float(np.mean(ratios[:w]))
    tail = float(np.mean(ratios[-w:]))
    return "growing" if tail > GROWTH_FACTOR * head else "bounded_on_schedule"


def _report(kind: str, schedule, ratios, grids=None, **params) -> RateReport:
    ratios = np.asarray(ratios, dtype=float)
    fit = fit_loglog(np.asarray(schedule, dtype=float), ratios)
    return RateReport(
        kind=kind,
        schedule=tuple(int(n) for n in schedule),
        ratios=tuple(float(r) for r in ratios),
        sup_estimate=float(ratios.max()) if ratios.size else 0.0,
        fitted_exponent=fit.slope,
        residual=fit.residual,
        verdict=_verdict(ratios),
        grid_order=None if grids is None else tuple(int(g) for g in grids),
        params=params,
    )


def abs_prefix_sums(a: ModulatingSequence, schedule: Sequence[int]) -> np.ndarray:
    """sum_{|k| <= n} |a_k| for each n of the schedule."""
    n_max = max(schedule)
    mags = np.abs(a.range_values(n_max))
    csum = np.cumsum(mags)
    total = lambda n: csum[n_max + n] - (csum[n_max - n - 1] if n_max - n - 1 >= 0 else 0.0)
    return np.array([total(int(n)) for n in schedule])


def abs_prefix_ratios(a: ModulatingSequence, kind: str, params: RateParams) -> RateReport:
    """Prefix absolute sums against the requested normalization.

    kind = "star" divides by n^beta, "m_alpha" by n^(alpha-1)/log^alpha(n),
    "two_sided_raw" leaves the sums unnormalized.
    """
    if min(params.schedule) < 2:
        raise ValueError("schedule entries must be >= 2 so that log n > 0")
    sums = abs_prefix_sums(a, params.schedule)
    n = np.asarray(params.schedule, dtype=float)
    if kind == "star":
        ratios = sums / n**params.beta
        extra = {"beta": params.beta}
    elif kind == "m_alpha":
        ratios = sums * np.log(n) ** params.alpha / n ** (params.alpha - 1.0)
        extra = {"alpha": params.alpha}
    elif kind == "two_sided_raw":
        ratios = sums
        extra = {}
    else:
        raise ValueError(f"unknown prefix-ratio kind {kind!r}")
    return _report(f"abs_prefix[{kind}]", params.schedule, ratios, sequence=a.label, **extra)


def exp_sum_grid(a: ModulatingSequence, n: int, grid_order: int, side: str = "two_sided") -> np.ndarray:
    """Values of the exponential sum on all G-th roots of unity.

    Entry g holds sum_k a_k z^k at z = exp(2*pi*i*g/G), with k over [-n, n]
    (two_sided) or [1, n] (one_sided). Computed with one FFT: O(G log G + n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if grid_order < 2 * n + 1:
        raise ValueError("grid_order must be >= 2n+1")
    coeffs = np.zeros(grid_order, dtype=complex)
    if side == "two_sided":
        ks = np.arange(-n, n + 1, dtype=np.int64)
        coeffs[np.mod(ks, grid_order)] = a.range_values(n)
    elif side == "one_sided":
        ks = np.arange(1, n + 1, dtype=np.int64)
        coeffs[np.mod(ks, grid_order)] = a.range_values(n)[n + 1 :]
    else:
        raise ValueError(f"unknown side {side!r}")
    return np.fft.ifft(coeffs) * grid_order


def exp_sum_sup(a: ModulatingSequence, n: int, grid_order: int, side: str = "two_sided") -> float:
    """max over the G-th roots of unity of |sum a_k z^k|."""
    return float(np.max(np.abs(exp_sum_grid(a, n, grid_order, side))))


def check_A_alpha(a: ModulatingSequence, params: RateParams, *, include_log: bool = True) -> RateReport:
    """Two-sided exponential-sum growth class.

    ratio_n = (log^alpha n / n^(alpha-1)) * sup_grid |sum_{|k|<=n} a_k z^k|;
    `include_log=False` drops the log factor (the plain n^(1-alpha) weight),
    which is the variant under which unit-modulus oscillating sequences with
    O(sqrt n) sums register as bounded at alpha = 3/2.
    """
    grids = [params.grid_for(n) for n in params.schedule]
    sups = np.array([exp_sum_sup(a, n, g, "two_sided") for n, g in zip(params.schedule, grids)])
    n = np.asarray(params.schedule, dtype=float)
    weight = 1.0 / n ** (params.alpha - 1.0)
    if include_log:
        weight = weight * np.log(n) ** params.alpha
    kind = "A_alpha" if include_log else "A_alpha_plain"
    return _report(kind, params.schedule, sups * weight, grids,
                   alpha=params.alpha, sequence=a.label)


def one_sided_sup_ratios(a: ModulatingSequence, params: RateParams) -> RateReport:
    """One-sided exponential-sum condition: sup_grid |sum_{k=1}^n a_k z^k| / n^(1-beta)."""
    grids = [params.grid_for(n) for n in params.schedule]
    sups = np.array([exp_sum_sup(a, n, g, "one_sided") for n, g in zip(params.schedule, grids)])
    n = np.asarray(params.schedule, dtype=float)
    return _report("one_sided_sup", params.schedule, sups / n ** (1.0 - params.beta), grids,
                   beta=params.beta, sequence=a.label)


def rate_report(a: ModulatingSequence, klass: str, params: RateParams) -> RateReport:
    """The rate check of one class: star, m_alpha or two_sided_raw (prefix
    |a_k| sums), a_alpha or a_alpha_plain (two-sided exponential sums with or
    without the log weight), or one_sided_sup."""
    if klass in ("star", "m_alpha", "two_sided_raw"):
        return abs_prefix_ratios(a, klass, params)
    if klass in ("a_alpha", "a_alpha_plain"):
        return check_A_alpha(a, params, include_log=klass == "a_alpha")
    if klass == "one_sided_sup":
        return one_sided_sup_ratios(a, params)
    raise ValueError(f"unknown rates class {klass!r}")


def parseval_holder_check(a: ModulatingSequence, n: int, grid_order: int) -> dict:
    """Cauchy-Schwarz chain and grid Parseval identity at radius n.

    lhs = sum |a_k|, rhs = (2n+1)^(1/2) * (sum |a_k|^2)^(1/2) and
    mid = grid mean of |sum a_k z^k|^2 which equals sum |a_k|^2 exactly
    whenever grid_order >= 4n+1 (the integrand is a trig polynomial of
    degree 2n). The (2n+1)^(1/2) factor counts the actual number of terms;
    with 2n terms the inequality fails for constant sequences, and the
    replacement is recorded in the result.
    """
    if grid_order < 4 * n + 1:
        raise ValueError("grid_order must be >= 4n+1 for exact Parseval quadrature")
    vals = a.range_values(n)
    lhs = float(np.sum(np.abs(vals)))
    sq = float(np.sum(np.abs(vals) ** 2))
    grid_vals = exp_sum_grid(a, n, grid_order, "two_sided")
    mid = float(np.mean(np.abs(grid_vals) ** 2))
    rhs = math.sqrt(2 * n + 1) * math.sqrt(sq)
    parseval_rel = abs(mid - sq) / max(sq, 1e-300) if sq > 0 else abs(mid)
    ok = lhs <= rhs * (1.0 + 1e-12) + 1e-300 and parseval_rel <= 1e-10
    return {
        "n": n,
        "grid_order": grid_order,
        "lhs": lhs,
        "mid": mid,
        "sum_sq": sq,
        "rhs": rhs,
        "parseval_rel_err": parseval_rel,
        "holder_factor": "(2n+1)^(1/2)",
        "pass": bool(ok),
    }


def holder_transfer_bound(sup_constant: float, alpha_src: float, alpha_dst: float,
                          n: int) -> float:
    """Finite-n bound transferred from an exponential-sum constant.

    If sup_grid |sum_{|k|<=n} a_k z^k| <= C * n^(alpha_src-1)/log^alpha_src(n)
    at this n, then the Cauchy-Schwarz/Parseval chain gives
    (log^alpha_dst n / n^(alpha_dst-1)) * sum |a_k|
        <= sqrt(2) * C * (n+1)^(1/2) * n^(alpha_src-alpha_dst) * log^(alpha_dst-alpha_src)(n).
    """
    ln = math.log(n)
    return math.sqrt(2.0) * sup_constant * math.sqrt(n + 1.0) * n ** (alpha_src - alpha_dst) \
        * ln ** (alpha_dst - alpha_src)


def rate_crossover(alpha: float, beta: float, n_max: int = 1 << 22) -> int | None:
    """Smallest n0 with n^(alpha-1)/log^alpha(n) >= n^beta for every n in
    [n0, n_max], or None when the comparison still fails at n_max.

    Finite-n location of the threshold beyond which the power-over-log weight
    dominates the plain power weight (relevant when alpha > 1 + beta; note the
    comparison also holds spuriously at tiny n where log n < 1).
    """
    ns = np.arange(2, n_max + 1, dtype=float)
    holds = ns ** (alpha - 1.0) / np.log(ns) ** alpha >= ns**beta
    if not holds[-1]:
        return None
    failures = np.flatnonzero(~holds)
    return 2 if failures.size == 0 else int(failures[-1] + 1 + 2)


def besicovitch_witness_check(a: ModulatingSequence, w: ModulatingSequence, kind: str,
                              params: RateParams) -> dict:
    """Witness-based class membership: test a - w against a rate condition.

    The membership definitions are existential in the witness w (a sequence
    induced by a trigonometric polynomial); the caller supplies the witness
    and this check reports the rate verdict of the difference plus the
    Cesaro means (1/n) sum_{|k|<=n} |a_k - w_k|.
    """
    diff_fn = lambda ks: a.values(ks) - w.values(ks)
    bound = None if (a.bound is None or w.bound is None) else a.bound + w.bound
    diff = ModulatingSequence(f"({a.label})-({w.label})", diff_fn, bound=bound)
    report = rate_report(diff, kind, params)
    sums = abs_prefix_sums(diff, params.schedule)
    cesaro = [float(s / n) for s, n in zip(sums, params.schedule)]
    return {"witness": w.label, "report": report, "cesaro_means": cesaro}
