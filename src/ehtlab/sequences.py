"""Two-sided complex modulating sequences and the operations that combine them.

A `ModulatingSequence` is a pure, total map k -> a_k on the integers carrying
metadata flags (finite bound, symmetry a_{-k} = a_k, one-sidedness) that the
rest of the package relies on. Evaluation is vectorized over numpy int64
index arrays. `range_values` memoizes the largest symmetric range asked for,
so the several passes of one experiment over a_{-n}..a_n evaluate it once;
`pair_values` gives a_{+-k} for one block of indices, which lets long orbit
sums stream without holding a 2n+1 range, and evaluates each distinct value
once for `symmetrize`d sequences and the cycle indicator. Both check the
flags on what they return, and neither changes values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvariantError
from .numerics import UnitPhases, periodic_runs

_BOUND_RTOL = 1e-9


@dataclass(frozen=True)
class ModulatingSequence:
    """Evaluator of a_k for k in Z plus metadata flags.

    `fn` maps an int64 index array to complex128 values; it must be pure.
    `bound` is a finite sup bound or None for unbounded sequences. Flags are
    enforced on every evaluated range (see `range_values`). `_pairs`, if set,
    is the type's rule (seq, ks) -> (a_ks, a_-ks) for `pair_values`.
    """

    label: str
    fn: Callable[[np.ndarray], np.ndarray]
    bound: float | None
    symmetric: bool = False
    one_sided: bool = False
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    _pairs: Callable[..., tuple] | None = field(default=None, repr=False, compare=False)

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
            self._check_flags(arr[n:], arr[n::-1], lambda: f"[-{n}, {n}]")
            arr.setflags(write=False)
            self._cache["range"] = cached_n, cached = n, arr
        return cached[cached_n - n : cached_n + n + 1]  # a view of the read-only memo

    def pair_values(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Read-only a_k and a_{-k} for the indices ks >= 0, bitwise (values(ks), values(-ks)).

        `_pairs` evaluates each distinct value once: one array for both sides of a
        `symmetrize`d sequence, tile slices of the cycle indicator for a run of ks. The flags
        are checked on what is returned, so blocks covering 0..n check what `range_values(n)`
        checks; the symmetry comparison is skipped only when both sides are one array.
        """
        ks = np.asarray(ks, dtype=np.int64)
        with np.errstate(over="ignore", invalid="ignore"):
            pos, neg = self._pairs(self, ks) if self._pairs else (self.values(ks), self.values(-ks))
        self._check_flags(pos, neg, lambda: f"+-[{ks.min()}, {ks.max()}]")  # no empty ks fails
        pos.setflags(write=False)
        neg.setflags(write=False)
        return pos, neg

    def _check_flags(self, pos: np.ndarray, neg: np.ndarray, where: Callable[[], str]) -> None:
        """Check the flags on a_k (`pos`) and a_{-k} (`neg`), k >= 0; a failure calls `where()`."""
        sides = (pos,) if pos is neg else (pos, neg)  # one array is symmetric by construction
        if self.bound is not None:
            # np.max keeps a NaN, as one np.max over the whole range does, and a NaN fails
            worst = float(np.max([np.max(np.abs(side), initial=0.0) for side in sides]))
            if not worst <= self.bound * (1.0 + _BOUND_RTOL) + 1e-300:
                raise InvariantError(f"{self.label}: |a_k| = {worst} exceeds declared bound "
                                     f"{self.bound}")
        elif not all(np.isfinite(side).all() for side in sides):
            # no declared bound catches overflow in a scaled or multiplied unbounded sequence
            raise OverflowError(f"{self.label}: non-finite values on {where()}")
        if self.symmetric and pos is not neg and not np.array_equal(pos, neg):
            raise InvariantError(f"{self.label}: symmetric flag violated on {where()}")
        if self.one_sided and np.any(neg != 0):
            raise InvariantError(f"{self.label}: one_sided flag violated on {where()}")


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


def _reduced_turns(turns: float) -> float:
    """The angle theta - round(theta) in [-1/2, 1/2] turn of theta = float(turns), exactly
    (Sterbenz); a NaN or an infinite angle raises ValueError."""
    theta = float(turns)
    if not math.isfinite(theta):
        raise ValueError(f"angle {theta!r} turns is not finite")
    return theta - round(theta)


def trig_poly_sequence(terms: Sequence[tuple[complex, float]]) -> ModulatingSequence:
    """a_k = sum_j c_j e(k theta_j) for the (c_j, theta_j) `terms`, theta_j in turns.

    e(k theta_j) is `UnitPhases` at the reduced angle (`_reduced_turns`); |a_k| <= sum |c_j|,
    and the sequence is symmetric when every reduced angle is exactly 0 or +-1/2 turn.
    """
    if not terms:
        raise ValueError("trig polynomial needs at least one term")
    coeffs = [complex(c) for c, _ in terms]
    angles = [_reduced_turns(theta) for _, theta in terms]
    phases = [UnitPhases(theta) for theta in angles]

    def fn(ks: np.ndarray) -> np.ndarray:
        out = np.multiply(phases[0](ks), coeffs[0])
        for c, e in zip(coeffs[1:], phases[1:]):
            out += np.multiply(e(ks), c)
        return out

    label = "trig_poly(" + ",".join(f"{c:.3g}@{th:.4f}" for c, th in zip(coeffs, angles)) + ")"
    return ModulatingSequence(
        label=label, fn=fn, bound=float(sum(abs(c) for c in coeffs)),
        symmetric=all(abs(theta) in (0.0, 0.5) for theta in angles),
    )


def _hardy_littlewood(ks: np.ndarray) -> np.ndarray:
    out = np.ones(ks.shape, dtype=complex)
    nz = ks != 0
    k = ks[nz].astype(float)
    out[nz] = np.exp(1j * k * np.log(np.abs(k)))
    return out


def _sparse_dyadic(ks: np.ndarray) -> np.ndarray:
    mag = np.abs(ks)
    j = np.round(np.log2(np.maximum(mag, 1))).astype(np.int64)
    return np.where((mag >= 2) & ((np.int64(1) << j) == mag), j, 0).astype(complex)


def _cycle_indicator(ks: np.ndarray, signed_negative: bool) -> np.ndarray:
    # a_k = 1 for k > 0 with k = 1 mod 3 (the 3-cycle shift of state 1 lands in {2});
    # a_k = +-1, per the chosen convention, for k < 0 with k = 2 mod 3, that is at k = -n
    # wherever a_n = 1; 0 elsewhere. The table is indexed by k mod 3, plus 3 for k < 0
    table = np.array([0, 1, 0, 0, 0, -1 if signed_negative else 1], dtype=complex)
    return table[ks % 3 + 3 * (ks < 0)]


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
        # the period-3 tiles a_{+-k}, k = 0, 1, 2, serve a run of consecutive ks >= 0
        pos, neg = (periodic_runs(_cycle_indicator(np.arange(0, 3 * side, side), signed))
                    for side in (1, -1))

        def pairs(seq: ModulatingSequence, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            start = int(ks[0]) if ks.ndim == 1 and ks.size else -1
            if 0 <= start == int(ks[-1]) - ks.size + 1 and np.all(ks[1:] > ks[:-1]):
                return pos(start, ks.size), neg(start, ks.size)
            return seq.values(ks), seq.values(-ks)
        return ModulatingSequence(f"cycle_indicator[{convention}]",
                                  lambda ks, s=signed: _cycle_indicator(ks, s),
                                  bound=1.0, symmetric=not signed, _pairs=pairs)
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
                       turns: float | None = None) -> ModulatingSequence:
    """Combinators: symmetrize | truncate(r) | scale(c) | product(b) | modulate(turns).

    symmetrize reflects the positive side onto the negative one; truncate
    zeroes outside [-r, r]; modulate maps a_k -> e(k theta) a_k, theta = `_reduced_turns(turns)`,
    exactly at theta = 0 and +-1/2 (a_k and (-1)^k a_k), else by `UnitPhases` (|k| < 2^27).
    Metadata flags propagate conservatively.
    """
    if op == "symmetrize":
        def fn(ks: np.ndarray) -> np.ndarray:
            return a.values(np.abs(ks).astype(np.int64, copy=False))
        return ModulatingSequence(f"symmetrize({a.label})", fn, bound=a.bound, symmetric=True,
                                  _pairs=lambda seq, ks: (seq.values(ks),) * 2)

    if op == "truncate":
        if r is None or r < 0:
            raise ValueError("truncate needs a radius r >= 0")
        def fn(ks: np.ndarray) -> np.ndarray:
            return np.where(np.abs(ks) > r, 0.0, a.values(ks))
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
        if turns is None:
            raise ValueError("modulate needs an angle in turns")
        theta = _reduced_turns(turns)
        if theta == 0.0:
            fn = a.values
        elif abs(theta) == 0.5:
            # exact alternating signs keep symmetry flags honest
            def fn(ks: np.ndarray) -> np.ndarray:
                return a.values(ks) * (1.0 - 2.0 * (ks % 2))
        else:
            phases = UnitPhases(theta)

            def fn(ks: np.ndarray) -> np.ndarray:
                return a.values(ks) * phases(ks)
        return ModulatingSequence(f"modulate({a.label},{theta:.6f})", fn, bound=a.bound,
                                  symmetric=a.symmetric and abs(theta) in (0.0, 0.5),
                                  one_sided=a.one_sided)

    raise ValueError(f"unknown sequence op {op!r}")
