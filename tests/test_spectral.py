import math

import numpy as np
import pytest

from ehtlab.dynamics import make_system
from ehtlab.sequences import (
    named_sequence,
    transform_sequence,
    trig_poly_sequence,
)
from ehtlab.spectral import (
    correlation_table,
    gamma_and_spectrum,
    resonance_report,
)


def correlation_estimate(a, k, n):
    """(1/n) sum_{j=1}^{n} a_{j+k} conj(a_j), one lag at a time; negative lags by
    conjugation. The per-lag reference for `correlation_table`."""
    if k < 0:
        return complex(np.conj(correlation_estimate(a, -k, n)))
    js = np.arange(1, n + 1, dtype=np.int64)
    vals_j = a.values(js)
    if k == 0:
        # exactly real, so conjugation symmetry holds on the nose at lag 0
        return complex(float(np.mean(np.abs(vals_j) ** 2)), 0.0)
    return complex(np.mean(a.values(js + k) * np.conj(vals_j)))


def geometric(theta):
    lam = complex(np.exp(2j * np.pi * theta))
    return transform_sequence(named_sequence("constant", value=1.0), "modulate", turns=theta), lam


def test_correlation_examples():
    geo, lam = geometric(0.3)
    lags, gam = correlation_table(geo, 7, 400)
    for k in (0, 1, 3, 7):
        # every term of the average is the constant lam^k
        assert gam[7 + k] == pytest.approx(lam**k, abs=1e-13)
    zero = named_sequence("constant", value=0.0)
    assert correlation_table(zero, 2, 100)[1][4] == 0.0
    one = named_sequence("constant", value=1.0)
    assert correlation_table(one, 5, 100)[1][10] == pytest.approx(1.0)


def test_correlation_hermitian_by_construction():
    hl = named_sequence("hardy_littlewood")
    lags, gam = correlation_table(hl, 8, 2048)
    for i, k in enumerate(lags):
        j = np.flatnonzero(lags == -k)[0]
        assert gam[j] == np.conj(gam[i])


def test_correlation_table_is_the_per_lag_estimate_bitwise(sequence_corpus):
    for a in sequence_corpus:
        for n, K in ((1, 3), (1000, 16), (4097, 12)):
            lags, table = correlation_table(a, K, n)
            ref = np.array([correlation_estimate(a, int(k), n) for k in lags])
            # the lag-0 slot holds the conjugate of the real estimate (imaginary part -0.0)
            ref[K] = np.conj(ref[K])
            assert np.array_equal(table.view(np.int64), ref.view(np.int64)), (a.label, n)
            est = gamma_and_spectrum(a, 2 * n + 1, n, threshold=math.inf, corr_lags=K)
            assert np.array_equal(est.gamma_hat.view(np.int64), table.view(np.int64))
            assert np.array_equal(est.lags, lags)


def test_spectrum_single_atom():
    G = 1024
    geo, lam = geometric(5 / G)
    n = 2048
    est = gamma_and_spectrum(geo, 8 * G, n, threshold=0.5)
    assert len(est.atoms) == 1
    atom = est.atoms[0]
    assert atom.theta_turns == pytest.approx(5 / G, abs=1e-9)
    assert abs(atom.gamma - 1.0) <= 2.0 / n
    # off-atom grid values obey the geometric-sum envelope
    zs = np.exp(2j * np.pi * np.arange(8 * G) / (8 * G))
    far = np.abs(zs - lam) > 0.1
    bound = 2.0 / (n * np.abs(1.0 - np.conj(lam) * zs[far])) + 2.0 / n
    assert np.all(np.abs(est.Gamma_grid[far]) <= bound)


def test_spectrum_trig_poly_atoms_and_masses():
    G = 1024
    tp = trig_poly_sequence([(1.0, 100 / G), (2.0, 300 / G)])
    n = 4000
    est = gamma_and_spectrum(tp, 8 * G, n, threshold=0.2)
    assert len(est.atoms) == 2
    a1, a2 = est.atoms
    assert a1.theta_turns == pytest.approx(100 / G, abs=5e-7)
    assert a2.theta_turns == pytest.approx(300 / G, abs=5e-7)
    # Gamma at an atom approaches its coefficient at rate O(1/n)
    assert abs(a1.gamma - 1.0) <= 8.0 / n
    assert abs(a2.gamma - 2.0) <= 8.0 / n
    assert abs(a1.mass - 1.0) <= 20.0 / n
    assert abs(a2.mass - 4.0) <= 40.0 / n
    # mass stays within the declared range
    assert all(0 <= a.mass <= tp.bound**2 * (1 + 1e-6) for a in est.atoms)


def test_spectrum_empty_for_flat_sums():
    hl = named_sequence("hardy_littlewood")
    n = 1 << 14
    est = gamma_and_spectrum(hl, 4 * n, n, threshold=0.1)
    assert est.atoms == ()
    assert np.max(np.abs(est.Gamma_grid)) < 0.1


def test_atom_mass_stays_bounded():
    G = 512
    geo, lam = geometric(7 / G)
    n = 1000
    est = gamma_and_spectrum(geo, 4 * G, n, threshold=0.5)
    # the mass is |Gamma|^2, which stays O(1) at the atom
    assert est.atoms[0].mass <= 1.1


def test_toeplitz_psd_proxy(sequence_corpus):
    n = 1 << 14
    for a in sequence_corpus:
        if a.bound is None:
            continue
        lags, gam = correlation_table(a, 12, n)
        # the Hermitian Toeplitz matrix of the lags is positive semidefinite in the limit
        r = np.arange(13)
        floor = -1e-6 * max(a.bound**2, 1.0)
        assert np.linalg.eigvalsh(gam[12 + r[:, None] - r[None, :]]).min() >= floor, a.label


def test_resonance_collision_with_rotation():
    rot = make_system("rotation", angle_turns="sqrt2")
    geo = transform_sequence(named_sequence("constant", value=1.0), "modulate", turns=-rot.theta)
    rep = resonance_report(geo, rot, n=4096)
    assert any(c["m"] == -1 for c in rep["collisions"])
    pred = rep["collisions"][0]["prediction"]
    assert "diverges" in pred

    # cross-check the prediction against the sweep machinery
    from ehtlab.dynamics import rotation_character
    from ehtlab.transform import default_checkpoints, wiener_wintner_sweep
    rows = wiener_wintner_sweep(rot, rotation_character(1), rot.default_point(),
                                [-rot.theta], default_checkpoints(1 << 16, n_min=64),
                                symmetric=True)
    assert rows[0]["verdict"].verdict == "diverging"


def test_resonance_avoided():
    rot = make_system("rotation", angle_turns="sqrt2")
    tp = trig_poly_sequence([(1.0, 0.05)])
    rep = resonance_report(tp, rot, n=4096)
    assert rep["collisions"] == []
    assert len(rep["atoms"]) == 1

    from ehtlab.dynamics import rotation_character
    from ehtlab.transform import default_checkpoints, wiener_wintner_sweep
    rows = wiener_wintner_sweep(rot, rotation_character(1), rot.default_point(),
                                [0.05],
                                default_checkpoints(1 << 16, n_min=64), symmetric=True)
    assert rows[0]["verdict"].verdict == "cauchy_trend"


def test_resonance_torus_always_empty():
    tor = make_system("torus_automorphism")
    geo, _ = geometric(0.2)
    rep = resonance_report(geo, tor)
    assert rep["collisions"] == []


def test_resonance_rejects_unknown_system():
    with pytest.raises(ValueError):
        resonance_report(named_sequence("constant"), object())


def test_spectral_report_schema():
    geo, _ = geometric(0.3)
    est = gamma_and_spectrum(geo, 4096, 1000, threshold=0.5)
    d = est.to_dict()
    assert set(d) == {"n", "grid_order", "threshold", "gamma", "atoms"}
    assert {"k", "re", "im"} == set(d["gamma"][0])
    assert {"theta", "gamma_re", "gamma_im", "mass"} == set(d["atoms"][0])
