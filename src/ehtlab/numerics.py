"""Accurate summation and small fitting helpers used throughout the package.

Partial sums with 1/k weights lose digits under naive accumulation once n
reaches 1e6-1e7, so every checkpointed sum goes through `checkpoint_sums`
(pairwise segment sums, compensated merge), block by block in `stream_sums`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np


def frac1(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x mod 1`` for arrays of finite doubles, bitwise equal to ``x % 1.0``.

    The difference is exact (Sterbenz) except on (-1, 0), where it is the
    single rounding of ``x + 1`` that numpy's remainder also performs after
    its exact ``fmod``; every integer, -0.0 included, gives +0.0. It runs
    several times faster than numpy's remainder. `out` may be `x` itself.
    """
    return np.subtract(x, np.floor(x), out=out)


_PHASE_BITS = 11  # a phase table holds e(r theta) for 0 <= r < 2^11 (32 KB)
MAX_PHASE_INDEX = 1 << 27  # the exact-angle range of the phase kernel


def _table_phases(parts: tuple[float, float, float], js: np.ndarray) -> np.ndarray:
    """e(j theta), |j| <= 2^27, for theta = h1 + h2 + h3 (`UnitPhases`): j h1, j h2,
    their fractional parts, the sum of these and its reduction to [-1/2, 1/2] are
    exact; adding j h3 (|j h3| <= 2^-26) is the one rounding of the angle in turns."""
    h1, h2, h3 = parts
    x = frac1(js * h1)
    x += frac1(js * h2)
    x -= np.rint(x)
    x += js * h3
    return np.exp(2j * np.pi * x)


class UnitPhases:
    """k -> e(k theta) = exp(2 pi i k theta) for int64 arrays k, theta in turns, |theta| <= 1.

    With k = q 2^11 + r, 0 <= r < 2^11, e(k theta) is the table entry e(r
    theta), built once per instance, times the coarse factor e(q 2^11 theta).
    Each factor is within 10.3 u (u = 2^-53) of exact: u/2 turn for the angle,
    1.35 pi u for its scaling by 2 pi, 2.9 u for cos and sin; so the value is
    within 24 u of the exact e(k theta) of the double theta at every
    |k| < 2^27, and a larger |k| raises ValueError. A run of consecutive k,
    either way, multiplies table slices by one coarse factor each (a
    descending run comes back as a reversed view); any other array gathers
    both factors. Both give the same bits, so the value depends on (theta, k)
    alone.
    """

    __slots__ = ("_parts", "_table")

    def __init__(self, theta: float):
        if not abs(theta) <= 1.0:  # NaN fails too
            raise ValueError(f"phase angle must lie in [-1, 1] turn, got {theta!r}")
        # theta = h1 + h2 + h3 exactly, h1 and h2 on the 2^-26 and 2^-52 grids, |h3| <= 2^-53;
        # both differences are exact (Sterbenz)
        h1 = math.floor(theta * 2.0**26 + 0.5) / 2.0**26
        h2 = math.floor((theta - h1) * 2.0**52 + 0.5) / 2.0**52
        self._parts = (h1, h2, theta - h1 - h2)
        self._table = _table_phases(self._parts, np.arange(1 << _PHASE_BITS))

    def __call__(self, ks: np.ndarray) -> np.ndarray:
        ks, mask = np.asarray(ks, dtype=np.int64), (1 << _PHASE_BITS) - 1
        lo, hi = (int(ks.min()), int(ks.max())) if ks.size else (0, 0)
        if max(-lo, hi) >= MAX_PHASE_INDEX:
            raise ValueError(f"phase index beyond the exact-angle range (|k| < {MAX_PHASE_INDEX})")
        if ks.ndim == 1 and ks.size and hi - lo == ks.size - 1 and (
                np.all(ks[1:] > ks[:-1]) or np.all(ks[1:] < ks[:-1])):
            out = np.empty(ks.size, dtype=complex)  # the run lo..hi, ascending
            starts = np.arange(lo & ~mask, hi + 1, mask + 1)  # one table period each
            for start, coarse in zip(starts.tolist(), _table_phases(self._parts, starts)):
                first, end = max(lo, start), min(hi + 1, start + mask + 1)
                np.multiply(self._table[first - start : end - start], coarse,
                            out=out[first - lo : end - lo])
            return out if ks[0] == lo else out[::-1]
        out = self._table[ks & mask]
        return np.multiply(out, _table_phases(self._parts, ks & ~mask), out=out)


def periodic_runs(period: np.ndarray) -> Callable[[int, int], np.ndarray]:
    """(start, count) -> the read-only run v[(start + i) % p], i < count, of the period v of
    length p: a slice of v tiled, the tile grown on demand."""
    tile = period[:0]

    def run(start: int, count: int) -> np.ndarray:
        nonlocal tile
        if tile.size < count + period.size - 1:  # room for a run at every offset
            tile = np.tile(period, count // period.size + 2)
            tile.setflags(write=False)
        return tile[start % period.size :][:count]
    return run


class NeumaierSum:
    """Compensated accumulator (Kahan with Neumaier's correction).

    Keeps a running sum plus the rounding carry; `value` returns their total.
    """

    __slots__ = ("_s", "_c")

    def __init__(self, start: float = 0.0):
        self._s = float(start)
        self._c = 0.0

    def add(self, x: float) -> None:
        t = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - t) + x
        else:
            self._c += (x - t) + self._s
        self._s = t

    @property
    def value(self) -> float:
        return self._s + self._c


class ComplexNeumaierSum:
    """`NeumaierSum` on the real and the imaginary parts separately."""

    __slots__ = ("re", "im")

    def __init__(self):
        self.re = NeumaierSum()
        self.im = NeumaierSum()

    def add(self, z: complex) -> None:
        self.re.add(z.real)
        self.im.add(z.imag)

    @property
    def value(self) -> complex:
        return self.re.value + 1j * self.im.value


# the block length of every streamed loop; no block of the checkpoint plan is longer
_BLOCK_TERMS = 1 << 13


def checkpoint_blocks(ends: np.ndarray) -> Iterator[tuple[int, int, int, int]]:
    """The block plan of the nondecreasing ``ends``: tuples ``(i, j, lo, hi)``.

    Segment ``s`` covers the terms ``[ends[s-1], ends[s])`` (``[0, ends[0])``
    for the first). Block ``(i, j, lo, hi)`` covers ``[lo, hi)`` and holds the
    ends ``i..j-1``; no block is longer than `_BLOCK_TERMS` terms. Whole
    segments join a block while it has room. A longer segment is cut from
    its start into `_BLOCK_TERMS`-term pieces, each a block ``(i, i, lo, hi)``
    that holds no end, and its remainder starts the next block.
    """
    i = lo = 0
    ends = ends.tolist()
    for j, end in enumerate(ends):
        if end - lo > _BLOCK_TERMS and j > i:  # segment j does not fit: close the block before it
            yield i, j, lo, ends[j - 1]
            i, lo = j, ends[j - 1]
        while end - lo > _BLOCK_TERMS:
            yield i, i, lo, lo + _BLOCK_TERMS
            lo += _BLOCK_TERMS
    if ends:
        yield i, len(ends), lo, ends[-1]


def checkpoint_sums(terms: np.ndarray, ends: Sequence[int],
                    acc: ComplexNeumaierSum | None = None) -> np.ndarray:
    """Prefix sums ``sum(terms[:e])`` for each ``e`` in the nondecreasing ``ends``.

    The range up to the last end is cut into segments at the ends (pairwise
    within a segment) and the segment totals are merged with a compensated
    accumulator, so the error never accumulates linearly across the range.
    A given `acc` continues the sums and is advanced over every term, those
    after the last end forming one more segment, so `stream_sums` sums a
    stream one block of `checkpoint_blocks` at a time, its accumulator carried. A
    segment's sum depends on its own terms only: the streamed sums are
    bitwise the whole-array ones wherever no segment is longer than
    `_BLOCK_TERMS`, and a longer one is the compensated merge of its pieces.
    """
    ends = np.asarray(ends, dtype=np.int64)
    if ends.size and (np.any(np.diff(ends) < 0) or ends[0] < 0 or ends[-1] > terms.size):
        raise ValueError("checkpoint ends must be nondecreasing and within the term range")
    bounds = ends
    if acc is not None and terms.size > (ends[-1] if ends.size else 0):
        bounds = np.append(ends, terms.size)
    starts = np.concatenate(([0], bounds))[:-1]
    nonempty = starts < bounds
    seg = np.zeros(bounds.size, dtype=complex)
    if nonempty.any():
        # reduceat sums from each index up to the next one, and would read
        # terms[start] for an empty segment, so only nonempty starts go in
        seg[nonempty] = np.add.reduceat(terms[: bounds[-1]], starts[nonempty])
    acc = ComplexNeumaierSum() if acc is None else acc
    out = np.empty(bounds.size, dtype=complex)
    for i, z in enumerate(seg.tolist()):
        acc.add(z)
        out[i] = acc.value
    return out[: ends.size]


def stream_sums(blocks: Callable[[int, int, int, int], Iterable[np.ndarray]], ends: np.ndarray,
                overflow: str) -> np.ndarray:
    """Prefix sums at the increasing `ends` of streams fed block by block, row s stream s's.

    Per block ``(i, j, lo, hi)`` of `checkpoint_blocks`, `blocks(lo, hi, i, j)`
    yields each stream's terms up to index ``hi - 1`` in stream order (a stream
    that starts later yields a shorter first array), each summed by
    `checkpoint_sums` at ``ends[i:j]`` with the stream's carried accumulator
    before the next is drawn. Overflow
    warnings are off; a non-finite sum raises OverflowError(`overflow`).
    """
    sums = defaultdict(lambda: np.empty(ends.size, dtype=complex))
    accs = defaultdict(ComplexNeumaierSum)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, j, lo, hi in checkpoint_blocks(ends):
            for s, terms in enumerate(blocks(lo, hi, i, j)):
                sums[s][i:j] = checkpoint_sums(terms, ends[i:j] - (hi - terms.size), accs[s])
    sums = np.array(list(sums.values()))
    if not np.isfinite(sums).all():
        raise OverflowError(overflow)
    return sums


@dataclass(frozen=True)
class LineFit:
    slope: float
    intercept: float
    residual: float  # rms of fit residuals


def fit_line(x: np.ndarray, y: np.ndarray) -> LineFit:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two points to fit a line")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return LineFit(float(slope), float(intercept), float(np.sqrt(np.mean(resid**2))))


def fit_loglog(n: np.ndarray, y: np.ndarray) -> LineFit:
    """Least-squares exponent fit of y ~ C * n**slope (positive data only)."""
    n = np.asarray(n, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = y > 0
    if mask.sum() < 2:
        return LineFit(0.0, -math.inf, 0.0)
    return fit_line(np.log(n[mask]), np.log(y[mask]))
