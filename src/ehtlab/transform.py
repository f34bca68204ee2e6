"""Modulated singular partial sums along orbits, with convergence diagnostics.

The central object is the checkpointed partial sum
    H_n(x) = sum_{1<=|k|<=n} a_k f(T^k x) / k
accumulated pairwise in k (the +k and -k terms enter together, so symmetric
cancellations are exact) with error-compensated segment merging. The module
also provides the summation-by-parts decomposition of H_n through the
one-sided block sums S_{+-j}, a weak (1,1) tail profiler, a unit-circle
modulation sweep, and the L2-versus-spectral cross-check for eigenfunctions
and torus characters.

"Converges" is never decided here: finite data yields a three-valued verdict
(cauchy_trend / diverging / inconclusive) from dyadic-window oscillations.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .dynamics import (
    Rotation,
    TorusAutomorphism,
    DynamicalSystem,
    Observable,
    _check_points,
    _orbit_basis,
    array_pairs,
    lattice_orbit,
    orbit_pairs,
    sample_points,
)
from .errors import InvariantError
from .numerics import checkpoint_blocks, fit_line, stream_sums
from .sequences import ModulatingSequence, named_sequence, transform_sequence


@dataclass(frozen=True)
class GrowthFit:
    model: str        # "log n" or "log log n"
    coefficient: float
    intercept: float
    residual: float


@dataclass(frozen=True)
class ConvergenceVerdict:
    oscillations: tuple[tuple[int, int, float], ...]  # (window lo, window hi, max |H_n - H_m|)
    verdict: str  # cauchy_trend | diverging | inconclusive
    growth_fit: GrowthFit | None = None


@dataclass(frozen=True)
class TransformTrace:
    checkpoints: tuple[int, ...]
    H_values: np.ndarray                       # complex, one per checkpoint
    abel_parts: tuple[tuple[complex, complex], ...] | None = None

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "re_H", "im_H", "abel_main", "abel_tail"])
            for i, n in enumerate(self.checkpoints):
                row = [n, repr(float(self.H_values[i].real)), repr(float(self.H_values[i].imag))]
                if self.abel_parts is not None:
                    main, tail = self.abel_parts[i]
                    row += [repr(abs(main)), repr(abs(tail))]
                else:
                    row += ["", ""]
                w.writerow(row)


_GOLDEN_OFFSETS = tuple(sorted((0.6180339887498949 * i) % 1.0 for i in range(16)))


def default_checkpoints(n_max: int, n_min: int = 16) -> tuple[int, ...]:
    """Up to sixteen low-discrepancy checkpoints per octave from n_min to n_max.

    The per-window oscillation statistic needs several samples per dyadic
    window, and uniformly spaced samples alias against modulations whose
    frequency is nearly rational with a dyadic denominator (every sample in
    a window then lands on the same phase). Golden-ratio placement inside
    each octave makes the pairwise gaps incommensurate.
    """
    if n_max < n_min:
        raise ValueError(f"no checkpoint lies in [{n_min}, {n_max}]: {n_max} is below {n_min}")
    pts = set()
    j = max(3, int(math.floor(math.log2(n_min))))
    while 2**j <= n_max:
        for c in _GOLDEN_OFFSETS:
            p = int(math.floor(2**j * (1.0 + c)))
            if p <= n_max:
                pts.add(p)
        j += 1
    pts.add(n_max)
    return tuple(sorted(p for p in pts if n_min <= p <= n_max))


def as_checkpoints(checkpoints: Sequence[int]) -> tuple[int, ...]:
    """The checkpoints as a tuple of ints, which must be nonempty, positive and increasing."""
    checkpoints = tuple(int(n) for n in checkpoints)
    if not checkpoints or any(b <= a for a, b in zip((0,) + checkpoints, checkpoints)):
        raise ValueError("checkpoints must be nonempty, positive and strictly increasing")
    return checkpoints


class _Buffers(dict):
    """A stream's block arrays by name, zeroed when made and grown when a block needs more."""

    def __call__(self, name: str, n: int, dtype=complex) -> np.ndarray:
        if name not in self or self[name].size < n:
            self[name] = np.zeros(n, dtype=dtype)
        return self[name][:n]


def _reciprocals(buffers: _Buffers, lo: int, hi: int) -> np.ndarray:
    """fl(1/k) + 0i, k = lo+1..hi. numpy divides a + bi by k + 0i as (a + b 0, b - a 0) fl(1/k),
    so for finite d the product d fl(1/k) is d / k up to the sign of a zero, which no
    sum tells apart: a `stream_sums` sum is never -0.0, and |H_n| drops the sign."""
    inv = buffers("inv", hi - lo)  # the imaginary parts stay the zeros made
    np.divide(1.0, np.arange(lo + 1, hi + 1, dtype=float), out=inv.real)
    return inv


def _numerators(weights: tuple[np.ndarray, np.ndarray], vpos: np.ndarray, vneg: np.ndarray,
                out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """d_k = a_k v_k - a_{-k} v_{-k} for the weights (a_{+k}, a_{-k}) of a run of k >= 1.

    `out` and `scratch` are reused when given. Terms are always d_k fl(1/k),
    formed after d_k: scaling the weights by 1/k beforehand would round differently.
    """
    pos, neg = weights
    out = np.multiply(pos, vpos, out=out)
    return np.subtract(out, np.multiply(neg, vneg, out=scratch), out=out)


def _numerator_blocks(seqs: Sequence[ModulatingSequence], rows: Callable,
                      buffers: _Buffers | None = None
                      ) -> Callable[..., Iterator[np.ndarray]]:
    """A function (lo, hi, *_) -> d_k, k = lo+1..hi, of every sequence against every row, row-major.

    Per block a_{+-k} of each sequence is evaluated once (`pair_values`) and
    the rows of `rows(lo, hi)` are read one at a time; each d_k is written
    into the buffer "d" of the stream's `buffers` (the caller's when given),
    with "scratch" beside it, to be used before the next comes. a_0 is
    flag-checked here, so blocks covering 1..n check `range_values(n)`'s
    flags. Every block must yield as many rows as the first.
    """
    for a in seqs:
        a.pair_values(np.zeros(1, dtype=np.int64))
    first_rows, buffers = math.inf, _Buffers() if buffers is None else buffers

    def block(lo: int, hi: int, *_) -> Iterator[np.ndarray]:
        nonlocal first_rows
        ks = np.arange(lo + 1, hi + 1, dtype=np.int64)
        weights = [a.pair_values(ks) for a in seqs]
        n_rows = 0
        for values in rows(lo, hi):
            n_rows += 1
            # taken after the first row: above the block's temporaries, whose heap is then reused
            d, scratch = buffers("d", ks.size), buffers("scratch", ks.size)
            for w in weights:
                yield _numerators(w, *values, out=d, scratch=scratch)
            del values  # so that one row is alive at a time, not two
        if first_rows not in (math.inf, n_rows):  # every trace must get every block's terms
            raise ValueError(f"the block source yielded {first_rows} rows in its first block "
                             f"and {n_rows} in ({lo}, {hi}]")
        first_rows = n_rows
    return block


def eht_trace(a: ModulatingSequence, orbit: np.ndarray, checkpoints: Sequence[int],
              *, with_abel: bool = False) -> TransformTrace:
    """Partial sums H_n of a against one whole orbit array, at the given checkpoints.

    `orbit` holds f(T^k x0) for -N <= k <= N; every checkpoint must satisfy
    1 <= n <= N. This is `orbit_traces` on the array's slices, `with_abel`
    included.
    """
    checkpoints, rows = as_checkpoints(checkpoints), array_pairs([orbit])
    if checkpoints[-1] > orbit.size // 2:
        raise ValueError(f"checkpoints must lie in [1, {orbit.size // 2}] for this orbit")
    return orbit_traces([a], rows, checkpoints, with_abel=with_abel)[0]


def orbit_traces(seqs: Sequence[ModulatingSequence], rows: Callable,
                 checkpoints: Sequence[int], *, with_abel: bool = False) -> list[TransformTrace]:
    """H_n = sum_{1<=|k|<=n} a_k v_k / k at the checkpoints for every sequence a and row v.

    `rows(lo, hi)` yields (v_k, v_{-k}) for k = lo+1..hi per row, in order
    (`orbit_pairs`, `array_pairs`). The traces are row-major: row r against
    sequence s is trace `r * len(seqs) + s`. Each trace's terms d_k fl(1/k)
    (`_reciprocals`) are one stream of `stream_sums`, so no array of length N
    is built, and the block arrays are made once.
    `with_abel` adds the two halves of the summation-by-parts identity
        H_n = sum_{k<n} (S_k - S_{-k})/(k(k+1)) + (S_n - S_{-n})/n,
    whose sum must reproduce H_n up to pure rounding error: D_k = S_k - S_{-k}
    is one sequential `np.cumsum` carried across the blocks, the main terms
    (k >= 1) stream before the trace's own, and the tails are read off D.
    Non-finite sums raise OverflowError.
    """
    checkpoints = as_checkpoints(checkpoints)
    ends = np.asarray(checkpoints, dtype=np.int64)
    numerators, buffers = _numerator_blocks(seqs, rows), _Buffers()
    tails = defaultdict(lambda: np.empty(ends.size, dtype=complex))
    D_lo = defaultdict(lambda: complex(-0.0, -0.0))  # -0.0 + x is x, even for x = -0.0
    overflow = "the partial sums H_n overflow to non-finite values"

    def block(lo: int, hi: int, i: int, j: int) -> Iterator[np.ndarray]:
        inv = _reciprocals(buffers, lo, hi)
        if with_abel:
            # D_lo..D_hi; the block's main terms D_k / (k(k+1)) run k = start..hi-1,
            # and its checkpoints lo < n <= hi are ends[i:j]
            start, D = max(lo, 1), buffers("D", hi - lo + 1)
            kf = np.arange(start, hi, dtype=float)
            denominators = np.multiply(kf, kf + 1.0, out=buffers("den", kf.size, float))
        for p, d in enumerate(numerators(lo, hi)):
            if with_abel:
                D[0], D[1:] = D_lo[p], d
                D_lo[p] = np.cumsum(D, out=D)[-1]
                tails[p][i:j] = D[ends[i:j] - lo] / ends[i:j]  # before D holds the main terms
                yield np.divide(D[start - lo : -1], denominators, out=D[start - lo : -1])
            yield np.multiply(d, inv, out=d)
    sums = stream_sums(block, ends, overflow)
    if not with_abel:
        return [TransformTrace(checkpoints, h) for h in sums]
    H, mains, tails = sums[1::2], sums[::2], np.array(list(tails.values()))
    if not np.isfinite(tails).all():
        raise OverflowError(overflow)
    if not np.all(np.abs(H - (mains + tails)) <= 1e-10 * (1.0 + np.abs(H))):  # NaN fails too
        raise InvariantError("summation-by-parts split disagrees with the direct sum beyond "
                             "rounding scale")
    return [TransformTrace(checkpoints, h, tuple(zip(m, t)))
            for h, m, t in zip(H, mains.tolist(), tails.tolist())]


def abel_identity_residual(a: ModulatingSequence, orbit: np.ndarray, n: int) -> float:
    """Relative residual of the summation-by-parts identity at radius n.

    The identity is algebraically exact, so anything above pure floating-point
    noise indicates a bug.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    N = orbit.size // 2
    if n > N:
        raise ValueError("orbit radius too small for requested n")
    weights, values = array_pairs([a.range_values(N), orbit])(0, n)
    numerators = _numerators(weights, *values)
    direct = complex((numerators / np.arange(1, n + 1, dtype=complex)).sum())
    D = np.cumsum(numerators)
    ks = np.arange(1, n, dtype=float)
    main = complex(np.sum(D[: n - 1] / (ks * (ks + 1.0))))
    tail = complex(D[n - 1] / n)
    return abs(direct - (main + tail)) / (1.0 + abs(direct))


def make_convergence_verdict(checkpoints: Sequence[int], H: np.ndarray) -> ConvergenceVerdict:
    """Dyadic-window oscillation verdict for a checkpointed partial-sum path."""
    checkpoints = np.asarray(checkpoints, dtype=np.int64)
    H = np.asarray(H, dtype=complex)

    windows: list[tuple[int, int, float]] = []
    j = int(math.floor(math.log2(checkpoints[0])))
    j_max = int(math.floor(math.log2(checkpoints[-1])))
    while j <= j_max:
        lo, hi = 2**j, 2 ** (j + 1)
        if hi > checkpoints[-1]:
            break  # a truncated trailing window would understate its oscillation
        sel = (checkpoints >= lo) & (checkpoints <= hi)
        vals = H[sel]
        if vals.size >= 2:
            osc = float(np.max(np.abs(vals[:, None] - vals[None, :])))
            windows.append((lo, hi, osc))
        j += 1

    fit = _growth_fit(checkpoints, H)
    if len(windows) < 3:
        verdict = "cauchy_trend" if np.all(H == H[0]) else "inconclusive"
        return ConvergenceVerdict(tuple(windows), verdict, fit)

    osc = [w[2] for w in windows]
    # rounding-scale wiggle on an otherwise constant path carries no decay
    # trend to grade; call it settled
    floor = 1e-9 * (1.0 + float(np.max(np.abs(H))))
    if max(osc[-3:]) <= floor:
        settled = True
    else:
        # sampled window sups carry ~2x multiplicative noise, so the halving
        # trend is judged on the largest available window blocks: a 1/n tail
        # decays 2^b-fold across blocks of b windows, leaving real margin
        # against the factor-2 requirement once b reaches 3. Sparse series
        # concentrate a window's oscillation in one erratic jump, which makes
        # the block maximum noisy; the block mean covers that regime, and
        # neither statistic lets a constant or growing oscillation through.
        b = min(3, len(osc) // 2)
        if b >= 2:
            late, early = osc[-b:], osc[-2 * b : -b]
            settled = (max(late) <= 0.5 * max(early)
                       or sum(late) <= 0.5 * sum(early))
        else:
            settled = osc[-1] <= 0.5 * osc[-3] and osc[-1] <= osc[-2]
    if settled:
        verdict = "cauchy_trend"
    elif fit is not None and _is_diverging(fit, checkpoints):
        verdict = "diverging"
    else:
        verdict = "inconclusive"
    return ConvergenceVerdict(tuple(windows), verdict, fit)


def _growth_fit(checkpoints: np.ndarray, H: np.ndarray) -> GrowthFit | None:
    usable = checkpoints >= 4
    if usable.sum() < 4:
        return None
    n = checkpoints[usable].astype(float)
    y = np.abs(H[usable])
    start = n.size // 3  # drop the head transient; at least 3 of the >= 4 points remain
    n, y = n[start:], y[start:]
    # the first of the two models with the smaller residual
    f, model = min(((fit_line(x, y), model) for model, x in (
        ("log n", np.log(n)), ("log log n", np.log(np.log(n))))), key=lambda t: t[0].residual)
    return GrowthFit(model, f.slope, f.intercept, f.residual)


def _is_diverging(fit: GrowthFit, checkpoints: np.ndarray) -> bool:
    n = checkpoints[checkpoints >= 4].astype(float)
    if n.size < 2 or fit.coefficient <= 0.02:
        return False
    x = np.log(n) if fit.model == "log n" else np.log(np.log(n))
    rise = fit.coefficient * (x.max() - x.min())
    return fit.residual <= 0.3 * max(rise, 0.1)


def cesaro_average_trace(a: ModulatingSequence, sys: DynamicalSystem, f: Observable, x0,
                         checkpoints: Sequence[int]) -> np.ndarray:
    """(1/n) sum_{k=0}^{n-1} a_k f(T^k x0) at each checkpoint.

    The terms stream through `stream_sums`, so no array of length n is built.
    The orbit request is validated first; a non-finite sum raises OverflowError.
    """
    checkpoints = np.asarray(as_checkpoints(checkpoints), dtype=np.int64)
    _check_points(sys, f, [x0], checkpoints[-1] - 1)

    def block(lo: int, hi: int, *_) -> Iterator[np.ndarray]:
        ks = np.arange(lo, hi, dtype=np.int64)
        yield a.values(ks) * np.asarray(f.coord_fn(sys.orbit_coords(x0, ks)), dtype=complex)
    [sums] = stream_sums(block, checkpoints, "the Cesaro sums overflow to non-finite values")
    return sums / checkpoints


def maximal_and_weak11(a: ModulatingSequence, sys: DynamicalSystem, f: Observable,
                       lambdas: Sequence[float], N: int, sample_count: int,
                       seed: int) -> dict:
    """Empirical tail profile of the maximal function sup_{n<=N} |H_n|.

    For each threshold lam, `empirical_tail` is the sampled measure of
    {x : sup_n |H_n(x)| > lam} and `bound_ratio` is tail * lam / ||f||_1.
    The ratios are reported, never asserted against a theoretical constant.
    The sups come from `_maximal_sups`; `basis_traces` counts the traces
    they were formed from (`_orbit_basis`). A shared trace can overflow
    where no point's own sums do, so then the points' own traces decide.
    """
    if N < 1:
        raise ValueError(f"maximal radius N must be >= 1, got {N}")
    if not all(math.isfinite(lam) for lam in lambdas):
        raise ValueError(f"maximal thresholds must be finite, got {list(lambdas)}")
    norm1 = f.norm("l1")
    points = sample_points(sys, sample_count, seed)
    sups, basis_traces = _maximal_sups(a, sys, f, points, N)
    if not np.isfinite(sups).all() and "series" in f.meta:
        f = replace(f, meta={})
        sups, basis_traces = _maximal_sups(a, sys, f, points, N)
    if not np.isfinite(sups).all():
        raise OverflowError("the partial sums H_n overflow to non-finite values")
    rows = []
    for lam in lambdas:
        tail = float(np.mean(sups > lam))
        rows.append({"lambda": float(lam), "empirical_tail": tail,
                     "bound_ratio": tail * float(lam) / norm1 if norm1 > 0 else 0.0})
    return {"N": N, "sample_count": sample_count, "f_l1": norm1, "tails": rows,
            "basis_traces": basis_traces,
            "sup_quantiles": [float(q) for q in np.quantile(sups, [0.0, 0.5, 0.9, 1.0])]}


def _maximal_sups(a: ModulatingSequence, sys: DynamicalSystem, f: Observable, points,
                  N: int) -> tuple[np.ndarray, int]:
    """max_{1<=n<=N} |H_n(p)| for each point p, from the basis traces of `_orbit_basis`
    streamed in the blocks of `checkpoint_blocks`, and the number of those traces.

    A trace's terms are d_k fl(1/k) (`_reciprocals`), as in `orbit_traces`;
    its carried prefix is added into its first term of the block, so the
    sequential `np.cumsum` gives bitwise its whole-row prefix sums. A point
    that is its own trace takes that trace's sups, bitwise a per-point
    loop's. A point on shared traces forms H_n = sum w P_n over its terms
    (w, P) in one reused buffer, so no orbit row, numerator or cumsum is
    made per point; H_n and w P_n take the numerators' two buffers, which
    are free once the block's traces are formed. The running `np.maximum`
    keeps a NaN, as one whole-row max does.
    """
    rows, combos = _orbit_basis(sys, f, points, N)
    buffers, prefix = _Buffers(), defaultdict(complex)
    numerators = _numerator_blocks([a], rows, buffers)
    shared = {b for combo in combos for b, w in combo if w is not None}
    sups, block_sups = np.full(len(points), -np.inf), np.empty(len(points))
    with np.errstate(over="ignore", invalid="ignore"):  # the caller rejects a non-finite sup
        for _, _, lo, hi in checkpoint_blocks(np.array([N])):
            inv, mags = _reciprocals(buffers, lo, hi), buffers("mags", hi - lo, float)
            traces = []  # a shared trace's prefix sums, or the block sup of an own one
            for b, terms in enumerate(numerators(lo, hi)):
                # a shared trace's sums are a new array: made after the block's evaluations,
                # so that these reuse the memory of the last block's sums
                P = np.multiply(terms, inv, out=None if b in shared else terms)
                P[0] += prefix[b]
                np.cumsum(P, out=P)
                prefix[b] = P[-1]
                traces.append(P if b in shared else np.abs(P, out=mags).max())
            for i, ((b, w), *rest) in enumerate(combos):
                if w is None:
                    block_sups[i] = traces[b]
                    continue
                H = np.multiply(traces[b], w, out=buffers("d", hi - lo))
                for b, w in rest:
                    H += np.multiply(traces[b], w, out=buffers("scratch", hi - lo))
                block_sups[i] = np.abs(H, out=mags).max()
            np.maximum(sups, block_sups, out=sups)
    return sups, len({b for combo in combos for b, _ in combo})


def wiener_wintner_sweep(sys: DynamicalSystem, f: Observable, x0, thetas: Sequence[float],
                         checkpoints: Sequence[int], symmetric: bool) -> list[dict]:
    """Unit-circle modulation sweep: one trace and verdict per angle theta in turns.

    symmetric=True modulates by e(|k| theta) (the resonance-prone variant),
    otherwise by e(k theta); each row reports its `theta_turns` as given.
    """
    checkpoints = as_checkpoints(checkpoints)
    if len(thetas) == 0:
        raise ValueError("the angle grid must be nonempty")
    seqs = []
    for theta in thetas:
        a = transform_sequence(named_sequence("constant"), "modulate", turns=theta)
        seqs.append(transform_sequence(a, "symmetrize") if symmetric else a)
    traces = orbit_traces(seqs, orbit_pairs(sys, f, [x0], checkpoints[-1]), checkpoints)
    return [{"theta_turns": float(theta), "trace": trace,
             "verdict": make_convergence_verdict(checkpoints, trace.H_values)}
            for theta, trace in zip(thetas, traces)]


# ------------------------------------------------------- L2 vs spectral route

def l2_diff_vs_spectral(a: ModulatingSequence, sys: DynamicalSystem, f: Observable,
                        j_schedule: Sequence[int], sample_count: int = 256,
                        seed: int = 0) -> dict:
    """||S_j - S_{-j}||_2 estimated from orbits versus its spectral closed form.

    S_{+-j} = sum_{i=1}^j a_{+-i} f o T^{+-i}. For a rotation eigenfunction
    z^m (its declared series is the one term {m: 1}) with eigenvalue phi the
    difference has constant pointwise modulus and the closed form is
    |sum_{i<=j} (a_i phi^i - a_{-i} phi^-i)| * ||f||_2 (the one-sided case
    reduces to |sum_{1<=|k|<=j} a_k phi^k|). For a torus
    character the spectral measure is Lebesgue and the closed form is
    (sum_{1<=|k|<=j} |a_k|^2)^(1/2), and the L2 value is the exact lattice
    quadrature: on an L x L lattice large enough that the shifted frequencies
    u_i = w M^i stay distinct mod L (verified at runtime), the lattice mean of
    |sum_i c_i e(u_i.x/L)|^2 is sum_i |c_i|^2.
    `sample_count` and `seed` drive the rotation route only.
    """
    j_schedule = as_checkpoints(j_schedule)
    jmax = j_schedule[-1]
    ends = np.asarray(j_schedule)

    series = f.meta.get("series", {})
    if isinstance(sys, Rotation) and len(series) == 1 and list(series.values()) == [1]:
        [m] = series  # f = z^m: the eigenfunction's frequency, from its declared series
        orbits = orbit_pairs(sys, f, sample_points(sys, sample_count, seed), jmax)

        def rows(lo: int, hi: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
            # row 0: the eigenvalue's powers e(m k theta), by the rotation's phase
            # kernel at the exact index m k; row s >= 1: the orbit of sample s
            pows = sys.phases(m * np.arange(lo + 1, hi + 1, dtype=np.int64))
            return itertools.chain([(pows, np.conj(pows))], orbits(lo, hi))

        P = stream_sums(_numerator_blocks([a], rows), ends,
                        "the sums S_j - S_-j overflow to non-finite values")
        spectral = np.abs(P[0]) * f.norm("l2")

        acc = np.zeros(ends.size)
        for sums in P[1:]:  # in sample order, so the mean rounds as a per-sample loop's
            acc += np.abs(sums) ** 2
        mc = np.sqrt(acc / sample_count)
        return {
            "kind": "rotation_eigenfunction",
            "rows": [{"j": int(j), "mc_norm": float(mcv), "spectral_value": float(sv)}
                     for j, mcv, sv in zip(j_schedule, mc, spectral)],
            "sample_count": sample_count,
            "exact": False,
        }

    if isinstance(sys, TorusAutomorphism) and "pq" in f.meta:
        return _torus_l2(a, f, j_schedule)

    raise ValueError("l2_diff_vs_spectral supports rotation eigenfunctions and torus characters")


def _pisano_lattice_order(jmax: int) -> int:
    # period of the matrix orbit mod 2^e is 3*2^(e-1); need it above 4*jmax
    e = 3
    while 3 * 2 ** (e - 1) <= 4 * jmax:
        e += 1
    return 2**e


def _torus_l2(a: ModulatingSequence, f: Observable, j_schedule) -> dict:
    p, q = f.meta["pq"]
    jmax = j_schedule[-1]
    L = _pisano_lattice_order(jmax)

    freqs = lattice_orbit(p % L, q % L, -jmax, jmax, bits=L.bit_length() - 1)  # index i + jmax
    used = np.concatenate([freqs[:jmax], freqs[jmax + 1 :]])
    if np.unique(used[:, 0] * np.uint64(L) + used[:, 1]).size != used.shape[0]:
        raise ValueError(f"lattice order {L} too small: shifted frequencies collide mod L")

    # the lattice mean of |S_j - S_-j|^2 sums |a_i|^2 over one distinct frequency
    # per 1 <= |i| <= j; the terms are added in increasing |i|, -i before +i
    avals = a.range_values(jmax)
    sq = np.abs(np.stack([avals[jmax - 1 :: -1], avals[jmax + 1 :]], axis=1)) ** 2
    mean = np.cumsum(sq.ravel())[2 * np.asarray(j_schedule) - 1]
    mc = np.sqrt(mean) * f.norm("l2")

    cums = np.cumsum(sq[:, 1]) + np.cumsum(sq[:, 0])
    spectral = np.sqrt(cums[np.asarray(j_schedule) - 1]) * f.norm("l2")
    return {
        "kind": "torus_character",
        "rows": [{"j": int(j), "mc_norm": float(m_), "spectral_value": float(s_)}
                 for j, m_, s_ in zip(j_schedule, mc, spectral)],
        "lattice_order": L,
        "exact": True,
        "counts": [2 * j for j in j_schedule],
    }
