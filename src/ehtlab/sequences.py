"""Two-sided complex modulating sequences and the operations that combine them.

A `ModulatingSequence` is a pure, total map k -> a_k on the integers carrying
metadata flags (finite bound, symmetry a_{-k} = a_k, one-sidedness) that the
rest of the package relies on. Evaluation is vectorized over numpy int64
index arrays and memoized per symmetric range so that 1e7-term experiments
stay affordable; memoization never changes values.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvariantError
from .numerics import frac1

_BOUND_RTOL = 1e-9


@dataclass(frozen=True)
class TrigPolynomial:
    """Finite linear combination of geometric sequences k -> lambda^k.

    `terms` is a list of (coefficient, frequency) pairs; every frequency must
    lie on the unit circle (within 1e-12). The induced sequence
    w(k) = sum_j c_j lambda_j^k is bounded by sum |c_j|.
    """

    terms: tuple[tuple[complex, complex], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("trig polynomial needs at least one term")
        for _, lam in self.terms:
            if not abs(abs(lam) - 1.0) <= 1e-12:  # NaN fails too
                raise ValueError(f"frequency {lam!r} is not on the unit circle")

    @property
    def coefficient_bound(self) -> float:
        return float(sum(abs(c) for c, _ in self.terms))


@dataclass(frozen=True)
class ModulatingSequence:
    """Evaluator of a_k for k in Z plus metadata flags.

    `fn` maps an int64 index array to complex128 values; it must be pure.
    `bound` is a finite sup bound or None for unbounded sequences. Flags are
    enforced on every evaluated range (see `range_values`).
    """

    label: str
    fn: Callable[[np.ndarray], np.ndarray]
    bound: float | None
    symmetric: bool = False
    one_sided: bool = False
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.bound is not None and not math.isfinite(self.bound):
            raise ValueError(f"{self.label}: declared bound {self.bound} is not finite")

    def values(self, ks: np.ndarray) -> np.ndarray:
        ks = np.asarray(ks, dtype=np.int64)
        out = np.asarray(self.fn(ks), dtype=complex)
        if out.shape != ks.shape:
            raise InvariantError(f"{self.label}: evaluator changed the index shape")
        return out

    def eval(self, k: int) -> complex:
        return complex(self.values(np.array([k], dtype=np.int64))[0])

    def range_values(self, n: int) -> np.ndarray:
        """Values a_{-n} .. a_n (length 2n+1), memoized and flag-checked."""
        if n < 0:
            raise ValueError("range radius must be nonnegative")
        cached_n, cached = self._cache.get("range", (-1, None))
        if cached_n < n:
            # overflow surfaces as the non-finite values _check_flags rejects
            with np.errstate(over="ignore", invalid="ignore"):
                arr = self.values(np.arange(-n, n + 1, dtype=np.int64))
            self._check_flags(arr, n)
            arr.setflags(write=False)
            self._cache["range"] = (n, arr)
            cached_n, cached = n, arr
        mid = cached_n
        view = cached[mid - n : mid + n + 1]
        view.setflags(write=False)
        return view

    def _check_flags(self, arr: np.ndarray, n: int) -> None:
        if self.bound is not None:
            worst = float(np.max(np.abs(arr))) if arr.size else 0.0
            if worst > self.bound * (1.0 + _BOUND_RTOL) + 1e-300:
                raise InvariantError(
                    f"{self.label}: |a_k| = {worst} exceeds declared bound {self.bound}"
                )
        elif not np.isfinite(arr).all():
            # no declared bound catches overflow in a scaled or multiplied unbounded sequence
            raise OverflowError(f"{self.label}: non-finite values on [-{n}, {n}]")
        if self.symmetric and n > 0:
            if not np.array_equal(arr[: n][::-1], arr[n + 1 :]):
                raise InvariantError(f"{self.label}: symmetric flag violated on [-{n}, {n}]")
        if self.one_sided:
            if np.any(arr[: n + 1] != 0):
                raise InvariantError(f"{self.label}: one_sided flag violated on [-{n}, 0]")


def from_values(values: Sequence[complex], label: str = "tabulated", **flags) -> ModulatingSequence:
    """Sequence backed by an explicit symmetric table (zero outside).

    `values` has odd length 2n+1 and is indexed by k = -n..n.
    """
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 1 or arr.size % 2 == 0:
        raise ValueError("value table must be one-dimensional with odd length")
    n = arr.size // 2
    bound = float(np.max(np.abs(arr))) if arr.size else 0.0

    def fn(ks: np.ndarray) -> np.ndarray:
        out = np.zeros(ks.shape, dtype=complex)
        inside = np.abs(ks) <= n
        out[inside] = arr[ks[inside] + n]
        return out

    return ModulatingSequence(label=label, fn=fn, bound=bound, **flags)


def trig_poly_sequence(p: TrigPolynomial) -> ModulatingSequence:
    """Sequence induced by a trigonometric polynomial: a_k = sum_j c_j lambda_j^k."""
    coeffs = np.array([c for c, _ in p.terms], dtype=complex)
    angles = np.array([math.atan2(l.imag, l.real) / (2 * math.pi) for _, l in p.terms])
    all_real = all(abs(l.imag) <= 1e-12 for _, l in p.terms)

    def fn(ks: np.ndarray) -> np.ndarray:
        # lambda^k by angle arithmetic; exact modulus 1 for every k
        phases = np.exp(2j * np.pi * frac1(ks[:, None] * angles[None, :]))
        return phases @ coeffs

    label = "trig_poly(" + ",".join(f"{c:.3g}@{th:.4f}" for c, th in zip(coeffs, angles)) + ")"
    return ModulatingSequence(
        label=label, fn=fn, bound=p.coefficient_bound, symmetric=all_real,
    )


def _hardy_littlewood(ks: np.ndarray) -> np.ndarray:
    out = np.ones(ks.shape, dtype=complex)
    nz = ks != 0
    k = ks[nz].astype(float)
    out[nz] = np.exp(1j * k * np.log(np.abs(k)))
    return out


def _sparse_dyadic(ks: np.ndarray) -> np.ndarray:
    out = np.zeros(ks.shape, dtype=complex)
    mag = np.abs(ks)
    pos = mag >= 2
    m = mag[pos]
    j = np.round(np.log2(m)).astype(np.int64)
    hit = (np.int64(1) << j) == m
    vals = np.zeros(m.shape, dtype=complex)
    vals[hit] = j[hit]
    out[pos] = vals
    return out


def _cycle_indicator(ks: np.ndarray, signed_negative: bool) -> np.ndarray:
    # positive side: 1 exactly when the 3-cycle shift of state 1 lands in {2},
    # i.e. k = 1 mod 3; negative side (-k = 1 mod 3, i.e. k = 2 mod 3) per the
    # chosen convention
    out = np.zeros(ks.shape, dtype=complex)
    res = ks % 3
    out[(ks > 0) & (res == 1)] = 1.0
    out[(ks < 0) & (res == 2)] = -1.0 if signed_negative else 1.0
    return out


def named_sequence(name: str, value: complex = 1.0, convention: str = "symmetric") -> ModulatingSequence:
    """Built-in sequences used across the experiments.

    hardy_littlewood : a_k = exp(i k log|k|), a_0 = 1 (continuous limit).
    sparse_dyadic    : a_k = j when |k| = 2^j with j >= 1, else 0 (unbounded).
    cycle_indicator  : visit indicator of state 2 along the 3-cycle started at
                       state 1; `convention` picks the negative-index extension:
                       "symmetric" (a_{-n} = a_n) or "signed" (a_{-n} = -1
                       wherever a_n = 1).
    constant         : a_k = value.
    """
    if name == "hardy_littlewood":
        return ModulatingSequence("hardy_littlewood", _hardy_littlewood, bound=1.0)
    if name == "sparse_dyadic":
        return ModulatingSequence("sparse_dyadic", _sparse_dyadic, bound=None, symmetric=True)
    if name == "cycle_indicator":
        if convention not in ("symmetric", "signed"):
            raise ValueError(f"unknown cycle_indicator convention {convention!r}")
        signed = convention == "signed"
        return ModulatingSequence(
            f"cycle_indicator[{convention}]",
            lambda ks, s=signed: _cycle_indicator(ks, s),
            bound=1.0, symmetric=not signed,
        )
    if name == "constant":
        c = complex(value)
        return ModulatingSequence(
            f"constant({c:.6g})",
            lambda ks: np.full(ks.shape, c, dtype=complex),
            bound=abs(c), symmetric=True,
        )
    raise ValueError(f"unknown named sequence {name!r}")


def transform_sequence(a: ModulatingSequence, op: str, *, r: int | None = None,
                       c: complex | None = None, b: ModulatingSequence | None = None,
                       lam: complex | None = None) -> ModulatingSequence:
    """Combinators: symmetrize | truncate(r) | scale(c) | product(b) | modulate(lam).

    symmetrize reflects the positive side onto the negative one; truncate
    zeroes outside [-r, r]; modulate maps a_k -> lam^k a_k and requires
    |lam| = 1. Metadata flags propagate conservatively.
    """
    if op == "symmetrize":
        def fn(ks: np.ndarray) -> np.ndarray:
            return a.values(np.abs(ks).astype(np.int64))
        return ModulatingSequence(f"symmetrize({a.label})", fn, bound=a.bound, symmetric=True)

    if op == "truncate":
        if r is None or r < 0:
            raise ValueError("truncate needs a radius r >= 0")
        def fn(ks: np.ndarray) -> np.ndarray:
            out = a.values(ks).copy()
            out[np.abs(ks) > r] = 0.0
            return out
        return ModulatingSequence(f"truncate({a.label},{r})", fn, bound=a.bound,
                                  symmetric=a.symmetric, one_sided=a.one_sided)

    if op == "scale":
        if c is None:
            raise ValueError("scale needs a factor c")
        cc = complex(c)
        def fn(ks: np.ndarray) -> np.ndarray:
            return cc * a.values(ks)
        return ModulatingSequence(f"scale({a.label},{cc:.6g})", fn,
                                  bound=None if a.bound is None else abs(cc) * a.bound,
                                  symmetric=a.symmetric, one_sided=a.one_sided)

    if op == "product":
        if b is None:
            raise ValueError("product needs a second sequence b")
        def fn(ks: np.ndarray) -> np.ndarray:
            return a.values(ks) * b.values(ks)
        bound = None if (a.bound is None or b.bound is None) else a.bound * b.bound
        return ModulatingSequence(f"product({a.label},{b.label})", fn, bound=bound,
                                  symmetric=a.symmetric and b.symmetric,
                                  one_sided=a.one_sided or b.one_sided)

    if op == "modulate":
        if lam is None:
            raise ValueError("modulate needs a unit-modulus factor lam")
        lam = complex(lam)
        if not abs(abs(lam) - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"modulation factor must have |lam| = 1, got |{lam!r}|")
        theta = math.atan2(lam.imag, lam.real) / (2 * math.pi)
        if lam == 1.0:
            fn = a.values
        elif lam == -1.0:
            # exact alternating signs keep symmetry flags honest
            def fn(ks: np.ndarray) -> np.ndarray:
                return a.values(ks) * (1.0 - 2.0 * (ks % 2))
        else:
            def fn(ks: np.ndarray) -> np.ndarray:
                return a.values(ks) * np.exp(2j * np.pi * frac1(ks * theta))
        return ModulatingSequence(f"modulate({a.label},{theta:.6f})", fn, bound=a.bound,
                                  symmetric=a.symmetric and lam in (1.0, -1.0),
                                  one_sided=a.one_sided)

    raise ValueError(f"unknown sequence op {op!r}")


def sequence_to_csv(a: ModulatingSequence, n: int, path) -> None:
    """Dump a_k for |k| <= n as CSV with columns k, re, im."""
    vals = a.range_values(n)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "re", "im"])
        for k, v in zip(range(-n, n + 1), vals):
            w.writerow([k, repr(float(v.real)), repr(float(v.imag))])
