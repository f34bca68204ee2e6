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
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import (
    Rotation,
    TorusAutomorphism,
    DynamicalSystem,
    Observable,
    lattice_orbit,
    orbit_rows,
    orbit_values,
    sample_points,
)
from .errors import InvariantError
from .numerics import checkpoint_sums, fit_line, frac1
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
    """Eight low-discrepancy checkpoints per octave up to n_max.

    The per-window oscillation statistic needs several samples per dyadic
    window, and uniformly spaced samples alias against modulations whose
    frequency is nearly rational with a dyadic denominator (every sample in
    a window then lands on the same phase). Golden-ratio placement inside
    each octave makes the pairwise gaps incommensurate.
    """
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
    """The checkpoints as a tuple of ints, which must be nonempty and strictly increasing."""
    checkpoints = tuple(int(n) for n in checkpoints)
    if not checkpoints or any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be nonempty and strictly increasing")
    return checkpoints


@dataclass(frozen=True)
class _PairWeights:
    """The weights a_{+k}, a_{-k} and the divisors k for k = 1..N of one sequence.

    Formed once per (sequence, N) and shared by every orbit of that radius.
    `neg` is the reversed view of the memoized range. Terms are always
    (a_k v_k - a_{-k} v_{-k}) / k in that order: dividing the weights by k
    beforehand would round differently.
    """

    pos: np.ndarray
    neg: np.ndarray
    ks: np.ndarray  # complex, so dividing complex numerators needs no cast

    @classmethod
    def of(cls, a: ModulatingSequence, N: int) -> "_PairWeights":
        avals = a.range_values(N)
        return cls(avals[N + 1 :], avals[N - 1 :: -1], np.arange(1, N + 1, dtype=complex))

    def numerators(self, vpos: np.ndarray, vneg: np.ndarray, out: np.ndarray | None = None,
                   scratch: np.ndarray | None = None) -> np.ndarray:
        """a_k u_k - a_{-k} w_k for k = 1..N; `out` and `scratch` are reused when given."""
        out = np.multiply(self.pos, vpos, out=out)
        return np.subtract(out, np.multiply(self.neg, vneg, out=scratch), out=out)

    def orbit_numerators(self, orbit: np.ndarray, out: np.ndarray | None = None,
                         scratch: np.ndarray | None = None) -> np.ndarray:
        """Numerators d_k = a_k v_k - a_{-k} v_{-k} of a two-sided orbit of radius N."""
        N = self.pos.size
        return self.numerators(orbit[N + 1 :], orbit[N - 1 :: -1], out, scratch)


def _pairwise_terms(a: ModulatingSequence, orbit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerators d_k = a_k v_k - a_{-k} v_{-k} and terms d_k / k for k = 1..N."""
    if orbit.ndim != 1 or orbit.size % 2 == 0:
        raise ValueError("orbit must be a two-sided array of odd length")
    w = _PairWeights.of(a, orbit.size // 2)
    numerators = w.orbit_numerators(orbit)
    return numerators, numerators / w.ks


def eht_trace(a: ModulatingSequence, orbit: np.ndarray, checkpoints: Sequence[int],
              *, with_abel: bool = False) -> TransformTrace:
    """Partial sums H_n at the given checkpoints (k = 0 is always excluded).

    `orbit` holds f(T^k x0) for -N <= k <= N; every checkpoint must satisfy
    1 <= n <= N. When `with_abel` is set the trace carries the two halves of
    the summation-by-parts identity
        H_n = sum_{k<n} (S_k - S_{-k})/(k(k+1)) + (S_n - S_{-n})/n,
    whose sum must reproduce H_n up to pure rounding error.
    """
    checkpoints = as_checkpoints(checkpoints)
    N = orbit.size // 2
    if checkpoints[0] < 1 or checkpoints[-1] > N:
        raise ValueError(f"checkpoints must lie in [1, {N}] for this orbit")

    numerators, terms = _pairwise_terms(a, orbit)
    H = checkpoint_sums(terms, np.asarray(checkpoints))

    abel = None
    if with_abel:
        D = np.cumsum(numerators)
        ks = np.arange(1, N + 1, dtype=float)
        main_terms = D / (ks * (ks + 1.0))
        mains = checkpoint_sums(main_terms, np.asarray(checkpoints) - 1)
        abel = tuple(
            (complex(m), complex(D[n - 1] / n)) for m, n in zip(mains, checkpoints)
        )
        for Hn, (main, tail) in zip(H, abel):
            if abs(Hn - (main + tail)) > 1e-10 * (1.0 + abs(Hn)):
                raise InvariantError(
                    "summation-by-parts split disagrees with the direct sum "
                    "beyond rounding scale"
                )
    return TransformTrace(checkpoints, H, abel)


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
    numerators, terms = _pairwise_terms(a, orbit)
    direct = complex(terms[:n].sum())
    D = np.cumsum(numerators[:n])
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
    fits = []
    for model, x in (("log n", np.log(n)), ("log log n", np.log(np.log(n)))):
        f = fit_line(x, y)
        fits.append((f.residual, model, f))
    fits.sort(key=lambda t: t[0])
    _, model, f = fits[0]
    return GrowthFit(model, f.slope, f.intercept, f.residual)


def _is_diverging(fit: GrowthFit, checkpoints: np.ndarray) -> bool:
    n = checkpoints[checkpoints >= 4].astype(float)
    if n.size < 2 or fit.coefficient <= 0.02:
        return False
    x = np.log(n) if fit.model == "log n" else np.log(np.log(n))
    rise = fit.coefficient * (x.max() - x.min())
    return fit.residual <= 0.3 * max(rise, 0.1)


def cesaro_average_trace(a: ModulatingSequence, orbit: np.ndarray,
                         checkpoints: Sequence[int]) -> np.ndarray:
    """(1/n) sum_{k=0}^{n-1} a_k f(T^k x0) at each checkpoint."""
    N = orbit.size // 2
    checkpoints = np.asarray(checkpoints, dtype=np.int64)
    if checkpoints[-1] > N + 1:
        raise ValueError("orbit too short for the requested averages")
    avals = a.range_values(N)
    terms = avals[N:] * orbit[N:]
    sums = checkpoint_sums(terms, checkpoints)
    return sums / checkpoints


def maximal_and_weak11(a: ModulatingSequence, sys: DynamicalSystem, f: Observable,
                       lambdas: Sequence[float], N: int, sample_count: int,
                       seed: int) -> dict:
    """Empirical tail profile of the maximal function sup_{n<=N} |H_n|.

    For each threshold lam, `empirical_tail` is the sampled measure of
    {x : sup_n |H_n(x)| > lam} and `bound_ratio` is tail * lam / ||f||_1.
    The ratios are reported, never asserted against a theoretical constant.
    """
    norm1 = f.norm("l1")
    sups = _maximal_sups(a, sys, f, sample_points(sys, sample_count, seed), N)
    rows = []
    for lam in lambdas:
        tail = float(np.mean(sups > lam))
        rows.append({"lambda": float(lam), "empirical_tail": tail,
                     "bound_ratio": tail * float(lam) / norm1 if norm1 > 0 else 0.0})
    return {"N": N, "sample_count": sample_count, "f_l1": norm1, "tails": rows,
            "sup_quantiles": [float(q) for q in np.quantile(sups, [0.0, 0.5, 0.9, 1.0])]}


def _maximal_sups(a: ModulatingSequence, sys: DynamicalSystem, f: Observable, points,
                  N: int) -> np.ndarray:
    """max_{1<=n<=N} |H_n(p)| for each point p, one reused set of buffers for all."""
    w = _PairWeights.of(a, N)
    terms, scratch, mags = np.empty(N, dtype=complex), np.empty(N, dtype=complex), np.empty(N)
    sups = np.empty(len(points))
    rows = orbit_rows(sys, f, points, N)
    for i in range(len(points)):
        # the row is bound to no name, so it is freed before the next is built
        w.orbit_numerators(next(rows), out=terms, scratch=scratch)
        np.divide(terms, w.ks, out=terms)
        np.abs(np.cumsum(terms, out=terms), out=mags)
        sups[i] = mags.max()
    return sups


def wiener_wintner_sweep(sys: DynamicalSystem, f: Observable, x0, lam_grid: Sequence[complex],
                         checkpoints: Sequence[int], symmetric: bool) -> list[dict]:
    """Unit-circle modulation sweep: one trace and verdict per lambda.

    symmetric=True modulates by lambda^|k| (the resonance-prone variant),
    otherwise by lambda^k.
    """
    checkpoints = as_checkpoints(checkpoints)
    orbit = orbit_values(sys, f, x0, checkpoints[-1])
    out = []
    for lam in lam_grid:
        lam = complex(lam)  # the modulate op checks |lam| = 1
        theta = math.atan2(lam.imag, lam.real) / (2 * math.pi)
        a = transform_sequence(named_sequence("constant"), "modulate", lam=lam)
        if symmetric:
            a = transform_sequence(a, "symmetrize")
        trace = eht_trace(a, orbit, checkpoints)
        out.append({"theta_turns": theta, "trace": trace,
                    "verdict": make_convergence_verdict(checkpoints, trace.H_values)})
    return out


# ------------------------------------------------------- L2 vs spectral route

def l2_diff_vs_spectral(a: ModulatingSequence, sys: DynamicalSystem, f: Observable,
                        j_schedule: Sequence[int], sample_count: int = 256,
                        seed: int = 0) -> dict:
    """||S_j - S_{-j}||_2 estimated from orbits versus its spectral closed form.

    S_{+-j} = sum_{i=1}^j a_{+-i} f o T^{+-i}. For a rotation eigenfunction
    with eigenvalue phi the difference has constant pointwise modulus and the
    closed form is |sum_{i<=j} (a_i phi^i - a_{-i} phi^-i)| * ||f||_2 (the
    one-sided case reduces to |sum_{1<=|k|<=j} a_k phi^k|). For a torus
    character the spectral measure is Lebesgue and the closed form is
    (sum_{1<=|k|<=j} |a_k|^2)^(1/2), and the L2 value is the exact lattice
    quadrature: on an L x L lattice large enough that the shifted frequencies
    u_i = w M^i stay distinct mod L (verified at runtime), the lattice mean of
    |sum_i c_i e(u_i.x/L)|^2 is sum_u |sum_{i: u_i = u} c_i|^2.
    `sample_count` and `seed` drive the rotation route only.
    """
    j_schedule = tuple(int(j) for j in j_schedule)
    if any(j < 1 for j in j_schedule) or any(b <= a_ for a_, b in zip(j_schedule, j_schedule[1:])):
        raise ValueError("j_schedule must be increasing positive integers")
    jmax = j_schedule[-1]
    ends = np.asarray(j_schedule)

    if isinstance(sys, Rotation) and "m" in f.meta:
        m = int(f.meta["m"])
        ks = np.arange(1, jmax + 1, dtype=np.int64)
        # eigenvalue powers by the same drift-free angle arithmetic as orbits
        pows_pos = np.exp(2j * np.pi * frac1(ks * (m * sys.theta)))
        w = _PairWeights.of(a, jmax)
        P = checkpoint_sums(w.numerators(pows_pos, np.conj(pows_pos)), ends)
        spectral = np.abs(P) * f.norm("l2")

        numerators, scratch = np.empty(jmax, dtype=complex), np.empty(jmax, dtype=complex)
        acc = np.zeros(len(j_schedule))
        rows = orbit_rows(sys, f, sample_points(sys, sample_count, seed), jmax)
        for _ in range(sample_count):
            w.orbit_numerators(next(rows), out=numerators, scratch=scratch)
            acc += np.abs(checkpoint_sums(numerators, ends)) ** 2
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

    freqs = lattice_orbit(p % L, q % L, L, -jmax, jmax)  # index i + jmax
    used = np.concatenate([freqs[:jmax], freqs[jmax + 1 :]])
    codes, group = np.unique(used[:, 0] * L + used[:, 1], return_inverse=True)
    if codes.size != used.shape[0]:
        raise ValueError(f"lattice order {L} too small: shifted frequencies collide mod L")

    avals = a.range_values(jmax)
    signed = np.concatenate([-avals[:jmax], avals[jmax + 1 :]])  # index order -jmax..-1, 1..jmax
    idx_i = np.concatenate([np.arange(-jmax, 0), np.arange(1, jmax + 1)])
    order = np.argsort(np.abs(idx_i), kind="stable")  # add terms in increasing |i|
    signed = signed[order]
    group = group[order]

    # lattice mean of |S|^2: the squared moduli of the per-frequency coefficient sums
    mean = np.empty(len(j_schedule))
    for jidx, j in enumerate(j_schedule):
        re = np.bincount(group[: 2 * j], weights=signed[: 2 * j].real)
        im = np.bincount(group[: 2 * j], weights=signed[: 2 * j].imag)
        mean[jidx] = np.sum(re**2 + im**2)
    mc = np.sqrt(mean) * f.norm("l2")

    sq = np.abs(avals) ** 2
    cums = np.cumsum(sq[jmax + 1 :]) + np.cumsum(sq[jmax - 1 :: -1])
    spectral = np.sqrt(cums[np.asarray(j_schedule) - 1]) * f.norm("l2")
    return {
        "kind": "torus_character",
        "rows": [{"j": int(j), "mc_norm": float(m_), "spectral_value": float(s_)}
                 for j, m_, s_ in zip(j_schedule, mc, spectral)],
        "lattice_order": L,
        "exact": True,
        "counts": [2 * j for j in j_schedule],
    }
