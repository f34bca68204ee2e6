import numpy as np
import pytest

from ehtlab import numerics
from ehtlab.dynamics import orbit_values
from ehtlab.numerics import ComplexNeumaierSum, checkpoint_blocks, checkpoint_sums
from ehtlab.sequences import (
    from_values,
    named_sequence,
    transform_sequence,
    trig_poly_sequence,
)


def _random_tabulated(seed: int, n: int = 4200):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1, 1, 2 * n + 1) + 1j * rng.uniform(-1, 1, 2 * n + 1)
    return from_values(vals, label=f"random[{seed}]")


def corpus():
    """Bounded sequences exercised by the grid-identity and spectrum tests."""
    tp = trig_poly_sequence([(1.0, 0.3), (2.0, 0.5)])
    return [
        named_sequence("hardy_littlewood"),
        named_sequence("cycle_indicator"),
        named_sequence("cycle_indicator", convention="signed"),
        named_sequence("constant", value=1.0),
        named_sequence("constant", value=0.7 - 0.3j),
        tp,
        transform_sequence(named_sequence("hardy_littlewood"), "modulate", turns=0.123),
        transform_sequence(named_sequence("constant", value=1.0), "modulate", turns=0.5),
        _random_tabulated(42),
    ]


@pytest.fixture(scope="session")
def sequence_corpus():
    return corpus()


@pytest.fixture(scope="session")
def sparse_dyadic():
    return named_sequence("sparse_dyadic")


def piecewise_checkpoint_sums(terms: np.ndarray, ends) -> np.ndarray:
    """Oracle of the streamed prefix sums: each segment between ends is cut
    from its start into `_BLOCK_TERMS`-term pieces, every piece is summed
    alone, and the pieces merge in order in one `ComplexNeumaierSum`."""
    block, acc, out, start = numerics._BLOCK_TERMS, ComplexNeumaierSum(), [], 0
    for e in ends:
        if e == start:
            acc.add(0j)
        for lo in range(start, e, block):
            acc.add(complex(np.add.reduceat(terms[lo : min(lo + block, e)], [0])[0]))
        out.append(acc.value)
        start = e
    return np.array(out, dtype=complex)


def reference_traces(seqs, sys_, f, points, checkpoints, with_abel=False):
    """Oracle of `orbit_traces` on the `orbit_pairs` rows of the points: (H, Abel parts)
    per trace, row-major. Each trace streams the block plan alone, from its point's whole
    `orbit_values` row, with its terms formed by the complex division d_k / k."""
    ends = np.asarray(checkpoints, dtype=np.int64)
    N, out = int(ends[-1]), []
    for p in points:
        v = orbit_values(sys_, f, p, N)
        for a in seqs:
            H, acc, abel, main_acc = [], ComplexNeumaierSum(), [], ComplexNeumaierSum()
            D_lo = complex(-0.0, -0.0)
            for i, j, lo, hi in checkpoint_blocks(ends):
                ks = np.arange(lo + 1, hi + 1, dtype=np.int64)
                pos, neg = a.pair_values(ks)
                d = pos * v[N + ks] - neg * v[N - ks]
                if with_abel:
                    start, D = max(lo, 1), np.cumsum(np.concatenate(([D_lo], d)))
                    D_lo, kf = D[-1], np.arange(start, hi, dtype=float)
                    mains = checkpoint_sums(D[start - lo : hi - lo] / (kf * (kf + 1.0)),
                                            ends[i:j] - start, main_acc)
                    abel += zip(mains.tolist(), (D[ends[i:j] - lo] / ends[i:j]).tolist())
                H += checkpoint_sums(d / ks.astype(complex), ends[i:j] - lo, acc).tolist()
            out.append((np.array(H), abel if with_abel else None))
    return out
