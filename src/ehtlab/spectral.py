"""Correlation, Fourier-Bohr means, and atom detection for one-sided sequences.

The Cesaro autocorrelation gamma(k) = lim (1/n) sum a_{j+k} conj(a_j) is
estimated at finite truncation, extended to negative lags by conjugation, and
is positive definite in the limit (finite-n estimates can dip slightly
below). The Fourier-Bohr mean
Gamma(z) = lim (1/n) sum_{j<=n} a_j conj(z)^j vanishes off a countable set;
the nonvanishing points form the spectrum, detected here by thresholding
|Gamma| on a roots-of-unity grid and sharpening each hit by golden-section
search on the arc. All spectral claims are "at truncation n"; the truncation
and grid order ride along in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Rotation, TorusAutomorphism, DynamicalSystem
from .numerics import frac1
from .sequences import ModulatingSequence

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
M_BOUND = 32  # match_resonances tries the eigenvalue powers phi^m with 0 < |m| <= M_BOUND


@dataclass(frozen=True)
class SpectrumAtom:
    theta_turns: float     # location exp(2 pi i theta)
    gamma: complex         # Fourier-Bohr mean at the refined location
    mass: float            # |gamma|^2, the atom weight of the spectral measure


@dataclass(frozen=True)
class SpectralEstimate:
    truncation: int
    grid_order: int
    threshold: float
    gamma_hat: np.ndarray          # correlations for lags -K..K
    lags: np.ndarray
    Gamma_grid: np.ndarray         # Fourier-Bohr means on the grid
    atoms: tuple[SpectrumAtom, ...]

    def to_dict(self) -> dict:
        return {
            "n": self.truncation,
            "grid_order": self.grid_order,
            "threshold": self.threshold,
            "gamma": [{"k": int(k), "re": float(g.real), "im": float(g.imag)}
                      for k, g in zip(self.lags, self.gamma_hat)],
            "atoms": [{"theta": a.theta_turns, "gamma_re": float(a.gamma.real),
                       "gamma_im": float(a.gamma.imag), "mass": a.mass}
                      for a in self.atoms],
        }


def correlation_table(a: ModulatingSequence, K: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Correlations (1/n) sum_{j=1}^{n} a_{j+k} conj(a_j) for all lags -K..K,
    negative lags by conjugation, from one evaluation of a_0 .. a_{n+K}."""
    if n < 1:
        raise ValueError("truncation n must be >= 1")
    v = a.range_values(n + K)[n + K :]
    base = np.conj(v[1 : n + 1])
    out = np.empty(2 * K + 1, dtype=complex)
    # lag 0 is exactly real; its slot holds the conjugate like the negative
    # lags, so the imaginary part is -0.0
    out[K] = np.conj(complex(float(np.mean(np.abs(v[1 : n + 1]) ** 2)), 0.0))
    for k in range(1, K + 1):
        g = complex(np.mean(v[1 + k : n + 1 + k] * base))
        out[K + k] = g
        out[K - k] = np.conj(g)
    return np.arange(-K, K + 1), out


def _gamma_at(a_vals: np.ndarray, n: int, theta: float) -> complex:
    js = np.arange(0, n + 1)
    return complex(np.sum(a_vals * np.exp(-2j * np.pi * frac1(js * theta))) / n)


def _refine_atom(a_vals: np.ndarray, n: int, lo: float, hi: float) -> float:
    # golden-section maximization of |Gamma| on the arc [lo, hi] (turns), 60 steps
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = abs(_gamma_at(a_vals, n, x1)), abs(_gamma_at(a_vals, n, x2))
    for _ in range(60):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = abs(_gamma_at(a_vals, n, x2))
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = abs(_gamma_at(a_vals, n, x1))
    return 0.5 * (lo + hi)


def gamma_and_spectrum(a: ModulatingSequence, grid_order: int, n: int,
                       threshold: float, corr_lags: int = 16) -> SpectralEstimate:
    """Fourier-Bohr means on a roots-of-unity grid plus detected atoms.

    Grid entry g holds (1/n) sum_{j=0}^{n} a_j conj(z)^j at z = e(g/G); local
    maxima of |Gamma| above `threshold` seed a golden-section refinement over
    the two neighboring grid arcs, and each refined point contributes an atom
    with mass |Gamma|^2.
    """
    if grid_order < 2 * n + 1:
        raise ValueError("grid_order must be >= 2n+1")
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    # one flag-checked evaluation serves the grid and, through the
    # `range_values` memo, every correlation lag
    a_vals = a.range_values(n + corr_lags)[n + corr_lags :][: n + 1]
    coeffs = np.zeros(grid_order, dtype=complex)
    coeffs[: n + 1] = a_vals
    # sum a_j conj(z)^j at z = e(g/G) is a plain forward DFT
    sums = np.fft.fft(coeffs)
    Gamma = sums / n

    mags = np.abs(Gamma)
    hits = np.flatnonzero(
        (mags >= threshold)
        & (mags >= np.roll(mags, 1))
        & (mags > np.roll(mags, -1))
    )
    candidates = []
    for g in hits:
        theta = _refine_atom(a_vals, n, (g - 1) / grid_order, (g + 1) / grid_order) % 1.0
        gam = _gamma_at(a_vals, n, theta)
        candidates.append(SpectrumAtom(theta, gam, abs(gam) ** 2))
    # a genuine atom of weight |c| drags kernel sidelobes of height ~|c|/(pi n d)
    # above the threshold out to distance d ~ |c|/(pi n t); suppress weaker
    # candidates inside that exclusion arc of each stronger one
    candidates.sort(key=lambda at: -abs(at.gamma))
    atoms: list[SpectrumAtom] = []
    for cand in candidates:
        shadowed = False
        for kept in atoms:
            d = abs(cand.theta_turns - kept.theta_turns)
            d = min(d, 1.0 - d)
            if d * n <= max(4.0, 2.0 * abs(kept.gamma) / threshold):
                shadowed = True
                break
        if not shadowed:
            atoms.append(cand)
    atoms.sort(key=lambda at: at.theta_turns)

    lags, gam_table = correlation_table(a, corr_lags, n)
    return SpectralEstimate(
        truncation=n, grid_order=grid_order, threshold=threshold,
        gamma_hat=gam_table, lags=lags, Gamma_grid=Gamma, atoms=tuple(atoms),
    )


def resonance_report(a: ModulatingSequence, sys: DynamicalSystem, *,
                     n: int = 1 << 14) -> dict:
    """Collisions between the detected spectrum atoms of `a` at truncation n
    and the system's point spectrum: `match_resonances` applied to a fresh
    `gamma_and_spectrum` on the 4n grid at threshold 0.1 (computed for
    rotations only; see there)."""
    est = None
    if isinstance(sys, Rotation):
        est = gamma_and_spectrum(a, 4 * n, n, 0.1)
    return match_resonances(est, sys)


def match_resonances(est: SpectralEstimate | None, sys: DynamicalSystem) -> dict:
    """Collisions between the atoms of an existing estimate and the point spectrum.

    For a rotation the eigenvalues are the powers phi^m; an atom within
    max(8/n, 1e-9) turns (n the estimate's truncation) of phi^m for some
    0 < |m| <= M_BOUND is a collision, and a collision predicts divergence of
    the symmetric modulation lambda^|k| at that atom (cross-check with the
    sweep). The torus automorphism has no nonconstant eigenfunctions, so its
    collision list is empty by construction and the estimate is not read.
    """
    if isinstance(sys, TorusAutomorphism):
        return {"system": sys.kind, "collisions": [], "atoms": [],
                "note": "continuous spectrum on nonconstant functions"}
    if not isinstance(sys, Rotation):
        raise ValueError("match_resonances supports rotations and the torus automorphism")
    n = est.truncation
    tol = max(8.0 / n, 1e-9)
    collisions = []
    for atom in est.atoms:
        for m in range(-M_BOUND, M_BOUND + 1):
            if m == 0:
                continue
            eig_theta = (m * sys.theta) % 1.0
            d = abs(atom.theta_turns - eig_theta)
            d = min(d, 1.0 - d)
            if d <= tol:
                collisions.append({
                    "theta": atom.theta_turns, "m": m, "distance_turns": d,
                    "mass": atom.mass,
                    "prediction": "symmetric modulation at this atom diverges",
                })
    return {
        "system": sys.kind,
        "rotation_turns": sys.theta,
        "truncation": n,
        "atoms": [{"theta": at.theta_turns, "mass": at.mass} for at in est.atoms],
        "collisions": collisions,
    }
