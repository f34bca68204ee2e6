"""Invertible measure-preserving systems with exact orbit evaluation.

Three concrete systems: an irrational circle rotation, the 3-cycle rotation
realized as rotation by 1/3 with the cell partition [0,1/3), [1/3,2/3),
[2/3,1), and the unit-determinant torus automorphism [[2,1],[1,1]].

T^i followed by T^j is T^(i+j) bitwise, not just within a tolerance, so the
structural identities used elsewhere hold exactly. Rotation and 3-cycle
points remember their orbit index lazily (anchor plus integer shift). A
rotation orbit's coordinate is the unit complex z = e(t0) e(k theta), e(x) =
exp(2 pi i x): e(t0) by one array evaluation on every path, e(k theta) by
the rotation's `numerics.UnitPhases`, a function of k alone within 24 ulps
of exact for every |k| < 2^27 (a larger index raises). A torus point
is an integer pair on the 2^53 lattice, which the matrix maps to itself, so
its orbit is exact integer arithmetic at every k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .numerics import MAX_PHASE_INDEX, UnitPhases, periodic_runs

SQRT2_TURNS = math.sqrt(2.0) - 1.0  # sqrt(2) mod 1
_MAX_SHIFT = MAX_PHASE_INDEX  # the orbit index |k + shift| must stay below it


def _check_index_range(max_abs_k: int) -> None:
    if max_abs_k >= _MAX_SHIFT:
        raise ValueError(f"orbit index beyond the exact-angle range (|k| < {_MAX_SHIFT})")


def _anchor_phases(points: Sequence) -> np.ndarray:
    """e(t0) of each rotation point, one array evaluation on every path."""
    return np.exp(2j * np.pi * np.array([p.t0 for p in points], dtype=float))


@dataclass(frozen=True)
class RotationPoint:
    t0: float      # anchor angle in turns, [0, 1)
    shift: int = 0


@dataclass(frozen=True)
class CyclePoint:
    cell0: int       # 0, 1, 2: which third of the circle the anchor sits in
    shift: int = 0


_LATTICE_BITS = 53  # x = r / 2^53 is an exact double for every integer 0 <= r < 2^53


@dataclass(frozen=True)
class TorusPoint:
    """The point (r, s) / 2^53 of the torus, 0 <= r, s < 2^53."""
    r: int
    s: int


@dataclass(frozen=True)
class Observable:
    """Complex observable evaluated on system-specific orbit coordinates.

    `coord_fn` receives the coordinate array produced by the system's
    `orbit_coords` (unit complex z, cell indices, or an (r, s) pair of uint64
    lattice arrays) and returns complex values. `norms` carries closed-form
    L1/L2/Linf values when known; `meta` carries structure other modules
    exploit: a rotation observable's finite Fourier series f = sum_m c_m z^m
    as `"series"` {m: c_m}, a torus character's frequency as `"pq"`.
    """

    label: str
    system_kind: str
    coord_fn: Callable
    norms: dict
    meta: dict = field(default_factory=dict)

    def norm(self, which: str) -> float:
        if which not in self.norms:
            raise ValueError(f"{self.label}: no closed-form {which} norm available")
        return self.norms[which]


class Rotation:
    kind = "rotation"

    def __init__(self, angle_turns: float):
        theta = float(angle_turns) % 1.0
        frac = Fraction(theta).limit_denominator(10**6)
        if abs(theta - float(frac)) < 1e-15:
            raise ValueError(
                f"rotation angle {theta} is (indistinguishable from) the rational "
                f"{frac}; pick an irrational angle"
            )
        self.theta = theta
        self.phases = UnitPhases(theta)

    def iterate(self, p: RotationPoint, j: int) -> RotationPoint:
        return RotationPoint(p.t0, p.shift + int(j))

    def orbit_coords(self, x0: RotationPoint, ks: np.ndarray) -> np.ndarray:
        """The unit complex coordinates z = e(t0) e((k + shift) theta) of T^k x0."""
        idx = np.asarray(ks, dtype=np.int64) + x0.shift  # the kernel keeps |idx| < 2^27
        return np.multiply(self.phases(idx), _anchor_phases([x0]))

    def sample_points(self, count: int, rng: np.random.Generator) -> list[RotationPoint]:
        return [RotationPoint(float(t)) for t in rng.random(count)]

    def default_point(self) -> RotationPoint:
        # generic anchor: t0 = 0 or 1/2 would make even observables
        # reflection-symmetric along the orbit and cancel symmetric sums
        return RotationPoint(0.1)


class ThreeCycle:
    """Rotation by 1/3 with the three-cell partition; orbits live on Z/3."""

    kind = "three_cycle"
    # cell values of the balanced step observable: 0 on A, 1 on TA, -1 on T^2 A
    STEP_VALUES = (0.0, 1.0, -1.0)

    def iterate(self, p: CyclePoint, j: int) -> CyclePoint:
        return CyclePoint(p.cell0, p.shift + int(j))

    def orbit_coords(self, x0: CyclePoint, ks: np.ndarray) -> np.ndarray:
        return (np.asarray(ks, dtype=np.int64) + x0.cell0 + x0.shift) % 3

    def sample_points(self, count: int, rng: np.random.Generator) -> list[CyclePoint]:
        return [CyclePoint(int(c)) for c in rng.integers(0, 3, size=count)]

    def default_point(self) -> CyclePoint:
        return CyclePoint(0)


def _fibonacci(n: int) -> np.ndarray:
    """F_0..F_n mod 2^64 as uint64: from F_0..F_m, F_{m+i} = F_m F_{i+1} + F_{m-1} F_i, i < m."""
    F = np.empty(max(n, 2) + 1, dtype=np.uint64)
    F[:3] = 0, 1, 1
    m = 2  # F_0..F_m are set; the next ones are written in place, i = 1..min(m - 1, n - m)
    with np.errstate(over="ignore"):
        while m < n:
            c = min(m - 1, n - m)
            new = np.multiply(F[m], F[2 : c + 2], out=F[m + 1 : m + c + 1])
            new += F[m - 1] * F[1 : c + 1]
            m += c
    return F[: n + 1]


def torus_power(r: int, s: int, k: int, modulus: int = 1 << _LATTICE_BITS) -> tuple[int, int]:
    """M^k (r, s) mod `modulus` for M = [[2,1],[1,1]] and any integer k, in Python ints.

    M^k = [[F_{2k+1}, F_{2k}], [F_{2k}, F_{2k-1}]] and M^-k = [[F_{2k-1}, -F_{2k}],
    [-F_{2k}, F_{2k+1}]] for k >= 0; (F_{2|k|}, F_{2|k|+1}) comes by fast doubling.
    """
    a, b = 0, 1  # (F_n, F_{n+1}) for n = the leading bits of 2|k| read so far
    for bit in bin(2 * abs(k))[2:]:
        a, b = a * (2 * b - a) % modulus, (a * a + b * b) % modulus
        if bit == "1":
            a, b = b, (a + b) % modulus
    c = b - a  # F_{2|k|-1}
    if k >= 0:
        return (b * r + a * s) % modulus, (a * r + c * s) % modulus
    return (c * r - a * s) % modulus, (b * s - a * r) % modulus


def lattice_orbit(r: int, s: int, lo: int, hi: int, bits: int = _LATTICE_BITS,
                  fib: np.ndarray | None = None) -> np.ndarray:
    """M^k (r, s) mod 2^bits for k = lo..hi as an (hi - lo + 1, 2) uint64 array.

    With the anchor (a, b) = M^(lo-1) (r, s), one scalar power, and G_n =
    F_{n+1} a + F_n b, the rows are M^j (a, b) = (G_{2j}, G_{2j-1}) for
    j = 1..hi-lo+1. `fib` is the table F_0..F_{2(hi-lo)+3} mod 2^64, built
    here unless a caller shares one. uint64 arithmetic wraps mod 2^64, so G
    is exact mod 2^64 and its low bits are exact mod 2^bits. M is symmetric,
    so the rows are also the frequencies w M^k of the character e(w.x) with
    w = (r, s).
    """
    a, b = torus_power(r, s, lo - 1, 1 << bits)
    own = fib is None
    fib = _fibonacci(2 * (hi - lo) + 3) if own else fib
    with np.errstate(over="ignore"):
        g = fib[2:] * np.uint64(a)
        # a table built here is scaled in place: a whole orbit then holds two arrays, not three
        g += np.multiply(fib[1:-1], np.uint64(b), out=fib[1:-1] if own else None)
    g &= np.uint64((1 << bits) - 1)
    return g.reshape(-1, 2)[:, ::-1]


class TorusAutomorphism:
    """Unit square with Lebesgue measure under [[2,1],[1,1]] mod 1.

    Totally ergodic with countable Lebesgue spectrum on the nonconstant
    characters; it also serves as the weakly-mixing exemplar (no system
    separating the two classes is provided).

    Hyperbolicity amplifies float rounding by ~2.6x per step, so points live
    on the invariant 2^53 lattice (`TorusPoint`) and every orbit is computed
    exactly in integers: `orbit_coords` returns the lattice coordinates
    (r, s) as uint64 arrays, from one scalar power and one Fibonacci table.
    """

    kind = "torus_automorphism"

    def iterate(self, p: TorusPoint, j: int) -> TorusPoint:
        return TorusPoint(*torus_power(p.r, p.s, int(j)))

    def orbit_coords(self, x0: TorusPoint, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ks = np.asarray(ks, dtype=np.int64)
        lo, hi = int(ks.min()), int(ks.max())
        rows = lattice_orbit(x0.r, x0.s, lo, hi)
        if ks.size != hi - lo + 1 or np.any(ks[1:] <= ks[:-1]):  # not the range lo..hi itself
            rows = rows[ks - lo]
        return rows[:, 0], rows[:, 1]

    def sample_points(self, count: int, rng: np.random.Generator) -> list[TorusPoint]:
        # Generator.random draws are multiples of 2^-53, so every point is exact
        pts = (rng.random((count, 2)) * 2.0**_LATTICE_BITS).astype(np.int64).tolist()
        return [TorusPoint(r, s) for r, s in pts]

    def default_point(self) -> TorusPoint:
        return TorusPoint(round(0.2 * 2.0**_LATTICE_BITS), round(0.3 * 2.0**_LATTICE_BITS))


DynamicalSystem = Rotation | ThreeCycle | TorusAutomorphism


def make_system(kind: str, **params) -> DynamicalSystem:
    """Factory: rotation(angle_turns=...), three_cycle, torus_automorphism."""
    if kind == "rotation":
        angle = params.get("angle_turns", SQRT2_TURNS)
        return Rotation(float(SQRT2_TURNS if angle == "sqrt2" else angle))
    if kind == "three_cycle":
        return ThreeCycle()
    if kind == "torus_automorphism":
        return TorusAutomorphism()
    raise ValueError(f"unknown system kind {kind!r}")


# ---------------------------------------------------------------- observables

def _power(z, m: int):
    """z**m for m >= 1, as the character z^m computes it."""
    return z if m == 1 else z**m  # z**1 takes no fast path; npy_cpow returns z for it


def rotation_character(m: int = 1) -> Observable:
    """The eigenfunction z^m, e(m t) at the angle t; eigenvalue e(m theta)."""
    def fn(z: np.ndarray) -> np.ndarray:
        return _power(z, m)
    return Observable(f"z^{m}", "rotation", fn, {"l1": 1.0, "l2": 1.0, "linf": 1.0},
                      meta={"series": {int(m): 1}})


def rotation_raised_cosine() -> Observable:
    """Nonnegative observable 1 + cos(2 pi t) = 1 + (z + 1/z)/2; mean 1, sup 2."""
    def fn(z: np.ndarray) -> np.ndarray:
        f = np.add(z.real, 1.0)
        np.maximum(f, 0.0, out=f)  # |z| is 1 only to rounding: keep 0 <= f <= 2
        return np.minimum(f, 2.0, out=f).astype(complex)
    return Observable("1+cos", "rotation", fn,
                      {"l1": 1.0, "l2": math.sqrt(1.5), "linf": 2.0},
                      meta={"series": {0: 1, 1: 0.5, -1: 0.5}})


def cycle_step_observable() -> Observable:
    """0 on the first cell, 1 on its image, -1 on the second image."""
    table = np.array(ThreeCycle.STEP_VALUES, dtype=complex)
    def fn(cells: np.ndarray) -> np.ndarray:
        return table[cells]
    return Observable("cycle_step", "three_cycle", fn,
                      {"l1": 2.0 / 3.0, "l2": math.sqrt(2.0 / 3.0), "linf": 1.0})


def cycle_indicator_observable() -> Observable:
    table = np.array([1.0, 0.0, 0.0], dtype=complex)
    def fn(cells: np.ndarray) -> np.ndarray:
        return table[cells]
    return Observable("indicator_A", "three_cycle", fn,
                      {"l1": 1.0 / 3.0, "l2": 1.0 / math.sqrt(3.0), "linf": 1.0})


def torus_character(p: int, q: int) -> Observable:
    """e(px + qy), with the phase taken exactly as the integer (p r + q s) mod 2^53."""
    pu, qu = (np.uint64(c % (1 << _LATTICE_BITS)) for c in (p, q))

    def fn(coords) -> np.ndarray:
        rs, ss = coords
        with np.errstate(over="ignore"):
            phase = (pu * rs + qu * ss) & np.uint64((1 << _LATTICE_BITS) - 1)
        return np.exp(2j * np.pi * (phase * 2.0**-_LATTICE_BITS))
    return Observable(f"e(px+qy)[{p},{q}]", "torus_automorphism", fn,
                      {"l1": 1.0, "l2": 1.0, "linf": 1.0}, meta={"pq": (int(p), int(q))})


def constant_observable(sys_kind: str, c: complex = 1.0) -> Observable:
    cc = complex(c)
    def fn(coords) -> np.ndarray:
        base = coords[0] if isinstance(coords, tuple) else coords
        return np.full(np.shape(base), cc, dtype=complex)
    return Observable(f"const({cc:.3g})", sys_kind, fn,
                      {"l1": abs(cc), "l2": abs(cc), "linf": abs(cc)},
                      meta={"series": {0: cc}} if sys_kind == "rotation" else {})


# ----------------------------------------------------------------- operations

def _check_orbit_request(sys: DynamicalSystem, f: Observable, N: int) -> None:
    if N < 0:
        raise ValueError("orbit radius must be nonnegative")
    if f.system_kind != sys.kind:
        raise ValueError(f"observable {f.label} does not belong to system {sys.kind}")


def _check_anchor_range(sys: DynamicalSystem, x0, N: int) -> None:
    """The exact-angle guard for the orbit of radius N around x0, raised before any allocation."""
    if isinstance(sys, Rotation):
        _check_index_range(N + abs(x0.shift))


def _check_points(sys: DynamicalSystem, f: Observable, points: Sequence, N: int) -> None:
    _check_orbit_request(sys, f, N)
    for p in points:
        _check_anchor_range(sys, p, N)


def orbit_values(sys: DynamicalSystem, f: Observable, x0, N: int) -> np.ndarray:
    """f(T^k x0) for -N <= k <= N as a length 2N+1 complex array."""
    _check_orbit_request(sys, f, N)
    _check_anchor_range(sys, x0, N)
    ks = np.arange(-N, N + 1, dtype=np.int64)
    return np.asarray(f.coord_fn(sys.orbit_coords(x0, ks)), dtype=complex)


def orbit_pairs(sys: DynamicalSystem, f: Observable, points: Sequence,
                N: int) -> Callable[[int, int], Iterator[tuple[np.ndarray, np.ndarray]]]:
    """A function (lo, hi) -> the pairs (f(T^k p), f(T^-k p)) for k = lo+1..hi, 0 <= lo < hi <= N.

    The pairs come one per point, in order, each bitwise `orbit_values(sys,
    f, p, N)` at N + k and N - k. On a rotation the phase rows e(+-k theta)
    come from the rotation's `UnitPhases` table once per call and are shared
    by every unshifted point, which only multiplies them by its anchor phase
    e(t0) to get its coordinates z; a shifted point gets rows of its own.
    Three-cycle rows are read-only views: runs of the cell values forward and
    reversed (`numerics.periodic_runs`), shared by every point. On the torus the
    Fibonacci table of the block is built once per call and shared by every
    point (`lattice_orbit`); the rows are exact integers, so they equal
    `orbit_coords`'s at every k. Every point is
    validated here, before the first block, the exact-angle range included.
    """
    _check_points(sys, f, points, N)
    if isinstance(sys, TorusAutomorphism):
        def torus_pairs(lo: int, hi: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
            fib = _fibonacci(2 * (hi - lo) + 1)
            for p in points:
                pos = lattice_orbit(p.r, p.s, lo + 1, hi, fib=fib)
                neg = lattice_orbit(p.r, p.s, -hi, -lo - 1, fib=fib)[::-1]
                yield tuple(np.asarray(f.coord_fn((rows[:, 0], rows[:, 1])), dtype=complex)
                            for rows in (pos, neg))
        return torus_pairs
    if isinstance(sys, ThreeCycle):
        # f(T^+-k p) = f(cell (c +- k) % 3) for c = cell0 + shift: the rows of every point are
        # runs of the cell values forward, f(t % 3), and reversed, f(-t % 3)
        cells = point_values(sys, f, [CyclePoint(c) for c in range(3)])
        fwd, rev = periodic_runs(cells), periodic_runs(cells[[0, 2, 1]])
        return lambda lo, hi: ((fwd(lo + 1 + p.cell0 + p.shift, hi - lo),
                                rev(lo + 1 - p.cell0 - p.shift, hi - lo)) for p in points)

    anchors = _anchor_phases(points)

    def rotation_pairs(lo: int, hi: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        ks = np.arange(lo + 1, hi + 1, dtype=np.int64)
        shared = [sys.phases(s) for s in (ks, -ks)]
        for i, p in enumerate(points):
            rows = shared if not p.shift else [sys.phases(s + p.shift) for s in (ks, -ks)]
            yield tuple(np.asarray(f.coord_fn(np.multiply(row, anchors[i : i + 1])), dtype=complex)
                        for row in rows)
    return rotation_pairs


def _orbit_basis(sys: DynamicalSystem, f: Observable, points: Sequence, N: int
                 ) -> tuple[Callable[[int, int], Iterator[tuple[np.ndarray, np.ndarray]]], list]:
    """The basis traces of the points' orbits: (rows, combos), f(T^k p_i) = sum w v_k
    over the terms (b, w) of combos[i], v_k the values of trace b.

    `rows(lo, hi)` yields one pair (v_k, v_{-k}), k = lo+1..hi, per trace, as
    `orbit_pairs` does. On a rotation, an observable that declares its series
    f(z) = sum_m c_m z^m has one trace per frequency m with c_m != 0, shared
    by every point: the shared rows e(+-k theta) to the power |m| (`_power`;
    the two rows trade places for m < 0, and are the scalar 1.0 for m = 0),
    with the weight c_m z0^m for the point's coordinate z0 = e(t0) e(shift
    theta), conj(z0) standing for 1/z0 on the unit circle. No index m k is
    formed, so only |k + shift| meets the exact-angle range. Otherwise (no
    declared series, or no term c_m != 0) each distinct orbit is its own
    trace, with weight None (taken as is): one per point, or one per cell
    (cell0 + shift) % 3 on the 3-cycle. Every point is validated here,
    before the first block.
    """
    series = f.meta.get("series", {}) if isinstance(sys, Rotation) else {}
    terms = [(m, c) for m, c in series.items() if c != 0]  # no weight 0 meets a NaN or inf
    if not terms:
        keys = [CyclePoint((p.cell0 + p.shift) % 3) if isinstance(sys, ThreeCycle) else p
                for p in points]
        trace = {key: b for b, key in enumerate(dict.fromkeys(keys))}
        return orbit_pairs(sys, f, list(trace), N), [((trace[key], None),) for key in keys]
    _check_points(sys, f, points, N)
    combos = []
    for p, z in zip(points, _anchor_phases(points).tolist()):
        if p.shift:  # e(0 theta) is 1 exactly
            z *= complex(sys.phases(np.array([p.shift]))[0])
        combos.append(tuple(
            (b, c * (1 if m == 0 else _power(z if m > 0 else z.conjugate(), abs(m))))
            for b, (m, c) in enumerate(terms)))

    def series_pairs(lo: int, hi: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        ks = np.arange(lo + 1, hi + 1, dtype=np.int64)
        pos, neg = sys.phases(ks), sys.phases(-ks)
        for m, _ in terms:
            if m == 0:
                yield 1.0, 1.0  # z^0: a_k 1.0 is a_k exactly, with no row of ones
            else:
                yield tuple(_power(row, abs(m)) for row in ((pos, neg) if m > 0 else (neg, pos)))
    return series_pairs, combos


def array_pairs(arrays: Sequence[np.ndarray]
                ) -> Callable[[int, int], Iterator[tuple[np.ndarray, np.ndarray]]]:
    """A function (lo, hi) -> the views (v[N + k], v[N - k]), k = lo+1..hi, of each
    two-sided array v of length 2N+1, N >= hi, one pair per array in order."""
    if any(v.ndim != 1 or v.size % 2 == 0 for v in arrays):
        raise ValueError("orbit must be a two-sided array of odd length")
    halves = [(v[v.size // 2 + 1 :], v[v.size // 2 - 1 :: -1]) for v in arrays]
    return lambda lo, hi: ((pos[lo:hi], neg[lo:hi]) for pos, neg in halves)


def point_values(sys: DynamicalSystem, f: Observable, points: Sequence) -> np.ndarray:
    """f(p) for each of the points in one evaluation, bitwise `orbit_values(sys, f, p, 0)[0]`.

    The coordinates are the ones `orbit_coords(p, [0])` gives, computed with
    the same arithmetic for all points at once.
    """
    _check_orbit_request(sys, f, 0)
    if isinstance(sys, Rotation):
        shifts = np.array([p.shift for p in points], dtype=np.int64)
        _check_index_range(int(np.max(np.abs(shifts), initial=0)))
        coords = np.multiply(sys.phases(shifts), _anchor_phases(points))
    elif isinstance(sys, ThreeCycle):
        coords = np.array([p.cell0 + p.shift for p in points], dtype=np.int64) % 3
    else:
        rs = np.array([(p.r, p.s) for p in points], dtype=np.uint64).reshape(-1, 2)
        coords = (rs[:, 0], rs[:, 1])
    return np.asarray(f.coord_fn(coords), dtype=complex)


def sample_points(sys: DynamicalSystem, count: int, seed: int) -> list:
    """Deterministic pseudorandom points from the invariant measure."""
    if count < 1:
        raise ValueError("need at least one sample point")
    rng = np.random.default_rng(seed)
    return sys.sample_points(count, rng)
