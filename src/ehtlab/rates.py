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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .numerics import fit_loglog
from .sequences import ModulatingSequence

GROWTH_FACTOR = 1.5
DEFAULT_SCHEDULE = tuple(2**j for j in range(8, 16))


@dataclass(frozen=True)
class RateParams:
    """Parameters shared by the rate checks.

    alpha in (1, 2], beta in (0, 1); `schedule` is the strictly increasing
    list of radii n >= 1; `grid_order`, when given, fixes the root-of-unity grid
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
        if len(sched) == 0 or sched[0] < 1 or any(b <= a for a, b in zip(sched, sched[1:])):
            raise ValueError("schedule must be nonempty, positive and strictly increasing")
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


class RateClass(NamedTuple):
    """One growth-rate class: its report `kind`, the sums it weighs (`side` None for the
    prefix sums of |a_k|, else the side of the grid sups), whether its weight takes log n,
    the `RateParams` fields it reads besides the schedule, a line for `describe` and its
    ratio of the sums s at the radii n."""
    kind: str
    side: str | None
    log: bool
    reads: tuple[str, ...]
    text: str
    ratio: Callable[[np.ndarray, np.ndarray, RateParams], np.ndarray]


RATE_CLASSES = {
    "star": RateClass("abs_prefix[star]", None, False, ("beta",), "prefix |a_k| sums vs n^beta",
                      lambda s, n, p: s / n**p.beta),
    "m_alpha": RateClass("abs_prefix[m_alpha]", None, True, ("alpha",),
                         "prefix |a_k| sums vs n^(alpha-1)/log^alpha n",
                         lambda s, n, p: s * np.log(n) ** p.alpha / n ** (p.alpha - 1.0)),
    "two_sided_raw": RateClass("abs_prefix[two_sided_raw]", None, False, (),
                               "prefix |a_k| sums, unnormalized", lambda s, n, p: s),
    "a_alpha": RateClass("A_alpha", "two_sided", True, ("alpha", "grid_order"),
                         "grid sup of two-sided exponential sums vs n^(alpha-1)/log^alpha n",
                         lambda s, n, p: s * (1.0 / n ** (p.alpha - 1.0) * np.log(n) ** p.alpha)),
    # unit-modulus oscillating sequences with O(sqrt n) sums are bounded here at alpha = 3/2
    "a_alpha_plain": RateClass("A_alpha_plain", "two_sided", False, ("alpha", "grid_order"),
                               "the same vs n^(alpha-1), without the log factor",
                               lambda s, n, p: s * (1.0 / n ** (p.alpha - 1.0))),
    "one_sided_sup": RateClass("one_sided_sup", "one_sided", False, ("beta", "grid_order"),
                               "grid sup of one-sided exponential sums vs n^(1-beta)",
                               lambda s, n, p: s / n ** (1.0 - p.beta)),
}
RATE_ALIASES = {"A": "a_alpha", "A-plain": "a_alpha_plain", "M": "m_alpha"}


def rate_class(name) -> RateClass:
    """The entry of `RATE_CLASSES` that `name`, or the alias `name`, names."""
    if not isinstance(name, str) or RATE_ALIASES.get(name, name) not in RATE_CLASSES:
        raise ValueError(f"unknown rates class {name!r}")
    return RATE_CLASSES[RATE_ALIASES.get(name, name)]


def abs_prefix_sums(a: ModulatingSequence, schedule: Sequence[int]) -> np.ndarray:
    """sum_{|k| <= n} |a_k| for each n of the schedule."""
    n_max = max(schedule)
    mags = np.abs(a.range_values(n_max))
    csum = np.cumsum(mags)
    total = lambda n: csum[n_max + n] - (csum[n_max - n - 1] if n_max - n - 1 >= 0 else 0.0)
    return np.array([total(int(n)) for n in schedule])


def abs_prefix_ratios(a: ModulatingSequence, kind: str, params: RateParams) -> RateReport:
    """`rate_report` of a prefix-sum class: star, m_alpha or two_sided_raw."""
    return rate_report(a, kind, params)


def exp_sum_grid(a: ModulatingSequence, n: int, grid_order: int, side: str = "two_sided") -> np.ndarray:
    """Values of the exponential sum on all G-th roots of unity.

    Entry g holds sum_k a_k z^k at z = exp(2*pi*i*g/G), with k over [-n, n]
    (two_sided) or [1, n] (one_sided). Computed with one in-place FFT: O(G log G + n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if grid_order < 2 * n + 1:
        raise ValueError("grid_order must be >= 2n+1")
    if side not in ("two_sided", "one_sided"):
        raise ValueError(f"unknown side {side!r}")
    vals = a.range_values(n)
    coeffs = np.zeros(grid_order, dtype=complex)
    if side == "two_sided":
        coeffs[: n + 1] = vals[n:]
        coeffs[grid_order - n :] = vals[:n]
    else:
        coeffs[1 : n + 1] = vals[n + 1 :]
    np.fft.ifft(coeffs, out=coeffs)
    return np.multiply(coeffs, grid_order, out=coeffs)


def exp_sum_sup(a: ModulatingSequence, n: int, grid_order: int, side: str = "two_sided") -> float:
    """max over the G-th roots of unity of |sum a_k z^k|."""
    return float(np.max(np.abs(exp_sum_grid(a, n, grid_order, side))))


def check_A_alpha(a: ModulatingSequence, params: RateParams, *, include_log: bool = True) -> RateReport:
    """`rate_report` of class a_alpha, or a_alpha_plain with `include_log=False`."""
    return rate_report(a, "a_alpha" if include_log else "a_alpha_plain", params)


def rate_report(a: ModulatingSequence, klass: str, params: RateParams) -> RateReport:
    """The rate check of the class `klass` (a name or an alias): its ratios over the
    schedule and their verdict. The grid classes run their schedule largest radius
    first, so the `range_values` memo is filled once (smaller radii read views) and
    the largest FFT runs while no smaller grid is alive."""
    c = rate_class(klass)
    if c.log and min(params.schedule) < 2:
        raise ValueError("schedule entries must be >= 2 so that log n > 0")
    grids = None
    if c.side is None:
        sums = abs_prefix_sums(a, params.schedule)
    else:
        grids = [params.grid_for(n) for n in params.schedule]
        sums = np.array([exp_sum_sup(a, n, g, c.side)
                         for n, g in zip(params.schedule[::-1], grids[::-1])][::-1])
    n = np.asarray(params.schedule, dtype=float)
    ratios = c.ratio(sums, n, params)
    fit = fit_loglog(n, ratios)
    return RateReport(
        kind=c.kind,
        schedule=params.schedule,
        ratios=tuple(float(r) for r in ratios),
        sup_estimate=float(ratios.max()),
        fitted_exponent=fit.slope,
        residual=fit.residual,
        verdict=_verdict(ratios),
        grid_order=None if grids is None else tuple(grids),
        params={"sequence": a.label, **{key: getattr(params, key) for key in c.reads
                                        if key != "grid_order"}},
    )


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
    grid_vals = exp_sum_grid(a, n, grid_order, "two_sided")
    # finite values can still square past the double range
    with np.errstate(over="ignore"):
        sq = float(np.sum(np.abs(vals) ** 2))
        mid = float(np.mean(np.abs(grid_vals) ** 2))
    if not (math.isfinite(sq) and math.isfinite(mid)):
        raise OverflowError(f"{a.label}: squared values overflow at n = {n}")
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
