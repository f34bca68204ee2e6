"""Piecewise-linear envelopes above a vanishing minorant, and the cosine
series they generate.

Given h with h(n) -> 0, the construction picks doubling integer breakpoints
n_k with envelope values M/2^k and affine interpolation, which keeps the
sequence above h while making sum (n+1) |second difference| summable with a
geometric tail. The limit function of the cosine series is evaluated two
independent ways: through the nonnegative-kernel resummation over breakpoint
terms (with a certified tail bound) and through direct partial sums.

Breakpoints grow doubly-exponentially for slowly vanishing h (for
h(n) = 1/log(n+3) they are exactly 3^(2^k) - 3), far beyond int64 and even
beyond float64 exponents, so they are carried as integer-valued mpmath
floats: arbitrary exponent, exact comparisons, and slope ratios that never
underflow. Everything consumed at practical indices is converted back to
floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from mpmath import mp

from .errors import BudgetExceededError, DomainError, HorizonExceededError
from .numerics import NeumaierSum, checkpoint_sums
from .sequences import ModulatingSequence

_WORKPREC = 140
_TWO_PI = 2.0 * math.pi
_EDGE = 1e-9
_MAX_H_SCAN = 1 << 20


# ------------------------------------------------------------------ majorants

@dataclass(frozen=True)
class MajorantH:
    """A target minorant h plus a computable nonincreasing majorant of it.

    `h` is evaluated at integers; `hhat` must dominate h, never increase, and
    tend to zero. It is evaluated at integer-valued mpmath floats during
    breakpoint search, so it must tolerate huge arguments unless `horizon`
    caps the search. `horizon=None` means unbounded search (capped only by an
    internal exponent guard).
    """

    h: Callable
    hhat: Callable
    horizon: float | None
    label: str

    def max_h(self) -> float:
        """Certified max of h: scan a prefix of at most 2^20 indices until hhat
        drops below the max seen."""
        cap = _MAX_H_SCAN if self.horizon is None else int(min(self.horizon, _MAX_H_SCAN))
        scan = 1024
        best = -math.inf
        scanned = 0
        while True:
            hi = min(scan, cap)
            for n in range(scanned, hi + 1):
                v = float(self.h(n))
                if v > best:
                    best = v
            scanned = hi + 1
            if best >= float(self.hhat(hi)):
                return best
            if hi >= cap:
                if best <= 0.0:
                    return best
                raise HorizonExceededError(
                    f"{self.label}: could not certify max h within scan horizon {hi}"
                )
            scan *= 4


def inverse_log_majorant(shift: int = 3) -> MajorantH:
    """h(n) = 1/log(n + shift), its own majorant (needs shift >= 2)."""
    if shift < 2:
        raise ValueError("shift must be >= 2 so that log(n + shift) > 0 at n = 0")

    def h(n):
        return 1.0 / math.log(n + shift)

    def hhat(n):
        # accepts mpmath arguments of arbitrary magnitude
        return 1.0 / mp.log(n + shift)

    return MajorantH(h, hhat, horizon=None, label=f"1/log(n+{shift})")


def inverse_linear_majorant() -> MajorantH:
    def h(n):
        return 1.0 / (n + 1.0)

    def hhat(n):
        return 1.0 / (n + 1)

    return MajorantH(h, hhat, horizon=None, label="1/(n+1)")


# ------------------------------------------------------------------- envelope

@dataclass(frozen=True)
class EnvelopeSpec:
    """Breakpoints n_k (integer-valued mpf), values M/2^k and slopes.

    Shape constraints (increasing integer breakpoints starting at 0) are
    enforced on construction; the analytic conditions are the business of
    `verify_envelope_conditions` so that deliberately broken envelopes can be
    built and diagnosed.
    """

    M: float
    breakpoints: tuple        # mpf, length K+1, n_0 = 0
    values: tuple[float, ...]  # a(n_k) = M/2^k, length K+1
    slopes: tuple             # mpf, length K, slope on (n_{k-1}, n_k)
    majorant_label: str = ""

    def __post_init__(self):
        if len(self.breakpoints) != len(self.values) or len(self.slopes) != len(self.values) - 1:
            raise ValueError("inconsistent envelope arrays")
        if len(self.breakpoints) < 3:
            raise ValueError("need at least two breakpoints beyond n_0")
        if self.breakpoints[0] != 0:
            raise ValueError("n_0 must be 0")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not b > a:
                raise ValueError("breakpoints must be strictly increasing")

    @property
    def K(self) -> int:
        return len(self.breakpoints) - 1

    def practical_breakpoints(self, cap: int = 1 << 62) -> list[int]:
        """The breakpoints that fit below `cap`, as exact Python ints."""
        out = []
        for b in self.breakpoints:
            if b > cap:
                break
            out.append(int(b))
        return out

    def values_at(self, ns: np.ndarray) -> np.ndarray:
        """a(n) for integer n (vectorized); n must not exceed the last breakpoint."""
        ns = np.asarray(ns, dtype=np.int64)
        if ns.size and (ns.min() < 0):
            raise ValueError("envelope indices must be nonnegative")
        if ns.size and mp.mpf(int(ns.max())) > self.breakpoints[-1]:
            raise ValueError("envelope too shallow for the requested index range")
        bps = self.practical_breakpoints()
        if ns.size and ns.max() > bps[-1]:
            bps = bps + [int(ns.max()) + 1]  # open last practical segment
        bp_arr = np.asarray(bps, dtype=np.int64)
        seg = np.searchsorted(bp_arr, ns, side="left")
        seg = np.maximum(seg, 1)  # n = 0 belongs to the first segment
        lo = bp_arr[seg - 1]
        v_lo = np.asarray([self.values[i] for i in range(len(bps))])[seg - 1]
        s = np.asarray([float(self.slopes[i]) for i in range(min(len(self.slopes), len(bps)))])
        return v_lo + s[seg - 1] * (ns - lo)

    def to_dict(self) -> dict:
        return {
            "M": self.M,
            "lambda": 2.0,  # the doubling factor, fixed by build_envelope (values M/2^k)
            "breakpoints": [mp.nstr(mp.mpf(b), 20) for b in self.breakpoints],
            "values": list(self.values),
            "slopes": [mp.nstr(mp.mpf(s), 20) for s in self.slopes],
            "majorant": self.majorant_label,
        }


def _search_threshold_index(hm: MajorantH, threshold) -> "mp.mpf":
    """Smallest found integer n with hhat(n) <= threshold (minimal when exact
    integer arithmetic applies; within rounding of minimal beyond 2^53).

    Three phases keep the cost logarithmic in the answer's exponent even when
    that exponent is itself astronomical: double the exponent to bracket,
    bisect the exponent to a ratio-2^(1/4) bracket, then bisect the value.
    """
    thr = mp.mpf(threshold)
    if mp.mpf(hm.hhat(0)) <= thr:
        return mp.mpf(0)
    cap_exp = 2.0**40 if hm.horizon is None else math.log2(hm.horizon) + 1

    def passes(n) -> bool:
        return mp.mpf(hm.hhat(n)) <= thr

    e_lo, e_hi = 0.0, None
    e = 1.0
    while e <= cap_exp:
        cand = mp.power(2, e)
        if hm.horizon is not None and cand > hm.horizon:
            cand = mp.mpf(hm.horizon)
        if passes(mp.floor(cand)):
            e_hi = float(mp.log(cand, 2))  # cand may be horizon-clamped, so recover its exponent
            break
        e_lo = float(mp.log(cand, 2))
        if hm.horizon is not None and cand >= hm.horizon:
            break
        e *= 2
    if e_hi is None:
        raise HorizonExceededError(
            f"{hm.label}: majorant never reaches {float(thr)} within its horizon"
        )
    while e_hi - e_lo > 0.25:
        e_mid = 0.5 * (e_lo + e_hi)
        if passes(mp.floor(mp.power(2, e_mid))):
            e_hi = e_mid
        else:
            e_lo = e_mid

    lo = mp.floor(mp.power(2, e_lo))
    hi = mp.floor(mp.power(2, e_hi))
    if passes(lo):  # exponent bracket can collapse at small scales
        return lo if lo >= 1 else mp.mpf(1)
    while True:
        mid = mp.floor((lo + hi) / 2)
        if mid <= lo or mid >= hi:
            return hi
        if passes(mid):
            hi = mid
        else:
            lo = mid


def _probe_majorant(hm: MajorantH) -> None:
    """Spot-check the majorant contract: hhat >= h and hhat nonincreasing."""
    cap = 4096 if hm.horizon is None else int(min(hm.horizon, 4096))
    probes = sorted({0, 1, 2, 3, 5, 17, 100, cap // 3, cap} - {-1})
    with mp.workprec(_WORKPREC):
        prev = None
        for n in probes:
            hh = float(mp.mpf(hm.hhat(n)))
            # rounding headroom: h and hhat may be the same quantity computed
            # through float64 and mpmath respectively
            if hh < float(hm.h(n)) * (1.0 - 1e-12) - 1e-300:
                raise ValueError(f"{hm.label}: hhat({n}) < h({n}); not a majorant")
            if prev is not None and hh > prev * (1.0 + 1e-12) + 1e-300:
                raise ValueError(f"{hm.label}: hhat increases at n = {n}")
            prev = hh


def build_envelope(hm: MajorantH, K: int, M: float | None = None) -> EnvelopeSpec:
    """Doubling-breakpoint envelope with K segments above the majorant.

    n_0 = 0, n_k = max(m_k, 2 n_{k-1} + 3) where m_k is the first index at
    which hhat drops below M/2^(k+1); values a(n_k) = M/2^k with affine
    interpolation. By construction a(n) >= hhat(n) >= h(n) everywhere and
    the gap/doubling/slope conditions hold.

    M defaults to twice the certified max of h; a degenerate h (max <= 0)
    is rejected so callers must supply an explicit positive M.
    """
    if K < 2:
        raise ValueError("need K >= 2 segments")
    _probe_majorant(hm)
    with mp.workprec(_WORKPREC):
        if M is None:
            peak = hm.max_h()
            if peak <= 0.0:
                raise ValueError(
                    f"{hm.label}: max h <= 0 gives the degenerate scale M = 0; "
                    "pass an explicit positive M to build anyway"
                )
            M = 2.0 * peak
        if M <= 0:
            raise ValueError("M must be positive")
        bps = [mp.mpf(0)]
        values = [float(M)]
        slopes = []
        for k in range(1, K + 1):
            m_k = _search_threshold_index(hm, mp.mpf(M) / mp.power(2, k + 1))
            n_k = max(m_k, 2 * bps[-1] + 3)
            v_k = float(M / 2.0**k)
            slopes.append((mp.mpf(v_k) - mp.mpf(values[-1])) / (n_k - bps[-1]))
            bps.append(n_k)
            values.append(v_k)
        return EnvelopeSpec(M=float(M), breakpoints=tuple(bps),
                            values=tuple(values), slopes=tuple(slopes),
                            majorant_label=hm.label)


def envelope_modulator(env: EnvelopeSpec, radius: int) -> ModulatingSequence:
    """One-sided modulating sequence from the envelope: a_n for 1 <= n <= radius,
    zero for n <= 0 and beyond the radius (the trace range must stay inside)."""
    table = env.values_at(np.arange(0, radius + 1))

    def fn(ks: np.ndarray) -> np.ndarray:
        out = np.zeros(ks.shape, dtype=complex)
        sel = (ks >= 1) & (ks <= radius)
        out[sel] = table[ks[sel]]
        return out

    return ModulatingSequence(f"envelope[{env.majorant_label}]<= {radius}", fn,
                              bound=float(env.M), one_sided=True)


def _kernel_coefficients(env: EnvelopeSpec, count: int) -> list[float]:
    """The kernel weights n_k (s_{k+1} - s_k) for k = 1..count, formed at the
    working precision."""
    with mp.workprec(_WORKPREC):
        return [float(env.breakpoints[k] * (env.slopes[k] - env.slopes[k - 1]))
                for k in range(1, count + 1)]


def verify_envelope_conditions(env: EnvelopeSpec, hm: MajorantH | None = None) -> dict:
    """Check the construction conditions and the weighted second-difference sum.

    Returns per-condition pass/fail plus the closed-form partial sums of
    sum_k n_k |s_k - s_{k+1}| (the only nonzero second differences sit one
    step before each breakpoint) and a geometric-tail certificate.
    """
    with mp.workprec(_WORKPREC):
        bps, vals, slopes = env.breakpoints, env.values, env.slopes
        K = env.K
        report: dict = {}

        if hm is None:
            report["i_above_h"] = None
        else:
            cert = all(mp.mpf(hm.hhat(bps[k])) <= mp.mpf(env.M) / mp.power(2, k + 1)
                       for k in range(1, K + 1))
            prefix_n = int(min(bps[1], 200_000))
            prefix_ok = all(float(hm.h(n)) <= env.M / 2.0 for n in range(prefix_n + 1))
            scan_hi = int(min(bps[-1], 20_000))
            scan_vals = env.values_at(np.arange(scan_hi + 1))
            scan_ok = all(scan_vals[n] > float(hm.h(n)) or
                          (scan_vals[n] >= float(hm.h(n)) and n == 0)
                          for n in range(scan_hi + 1))
            report["i_above_h"] = bool(cert and prefix_ok and scan_ok)

        report["ii_strictly_decreasing"] = bool(all(s < 0 for s in slopes))
        report["iii_starts_at_M"] = bool(vals[0] == env.M)
        report["iii_final_value"] = vals[-1]
        report["iv_integer_gaps"] = bool(
            all(mp.floor(b) == b for b in bps)
            and all(b - a >= 3 for a, b in zip(bps, bps[1:]))
        )
        report["v_doubling"] = bool(
            all(bps[k + 1] <= 2 * (bps[k + 1] - bps[k]) for k in range(K))
        )
        # the wedge s_k < s_{k+1} - s_k < -s_k, tested in the equivalent
        # cancellation-free form 2 s_k < s_{k+1} < 0 (the subtraction itself
        # rounds to -s_k once consecutive slopes differ by more than the
        # working precision, which breaks the strict inequality spuriously)
        report["vi_slope_wedge"] = bool(
            all(2 * slopes[k] < slopes[k + 1] < 0 for k in range(K - 1))
        )

        terms = [abs(c) for c in _kernel_coefficients(env, K - 1)]
        partial = checkpoint_sums(np.asarray(terms), np.arange(1, K)).real
        ratios = [terms[i + 1] / terms[i] for i in range(len(terms) - 1) if terms[i] > 0]
        tail_ratio = max(ratios[len(ratios) // 2 :], default=0.0)
        report["star1_terms"] = terms
        report["star1_partial_sums"] = partial
        report["star1_max_tail_ratio"] = tail_ratio
        report["all_pass"] = bool(
            (report["i_above_h"] in (True, None))
            and report["ii_strictly_decreasing"]
            and report["iii_starts_at_M"]
            and report["iv_integer_gaps"]
            and report["v_doubling"]
            and report["vi_slope_wedge"]
        )
        return report


# -------------------------------------------------------------------- kernels

def _sin_of_multiple(factor, xs: np.ndarray) -> np.ndarray:
    """sin(factor * x) at every point, where factor is an mpf multiple of 1/4
    of any size.

    Below 2^45 the float64 product is exact enough and one vectorized sine
    serves the whole array; beyond it each product is reduced mod 2 pi at a
    precision matched to the factor's magnitude.
    """
    mag = mp.mag(factor)
    if mag < 45:
        return np.sin(float(factor) * xs)
    if mag > 1_000_000:
        raise DomainError("kernel index too large for trigonometric reduction")
    with mp.workprec(int(mag) + 90):
        f, two_pi = mp.mpf(factor), 2 * mp.pi
        return np.array([float(mp.sin(mp.fmod(f * mp.mpf(float(x)), two_pi)))
                         for x in xs.flat]).reshape(xs.shape)


def kernel_eval(kind: str, n, x):
    """Closed-form positive/oscillating summability kernels on (0, 2 pi).

    dirichlet      : 1/2 + sum_{k=1}^n cos(kx) = sin((n+1/2)x) / (2 sin(x/2))
    fejer          : mean of the dirichlet kernels of orders 0..n,
                     (2/(n+1)) * (sin((n+1)x/2) / (2 sin(x/2)))^2, >= 0
    fejer_printed  : variant with sin((n+1/2)x/2) in place of sin((n+1)x/2);
                     kept as a diagnostic because its mean-of-kernels identity
                     fails (see `fejer_variant_discrepancy`)

    `x` is a float or an array of points; the result is a float or an array
    of the same shape, and every point must lie in (1e-9, 2 pi - 1e-9).
    Orders whose sine factor stays below 2^45 take one float64 path over the
    whole array; larger orders reduce each product mod 2 pi in mpmath. The
    factor is formed at a fixed working precision and the rest is float64,
    so the result does not depend on the caller's mpmath precision.
    """
    xs = np.asarray(x, dtype=float)
    inside = (xs > _EDGE) & (xs < _TWO_PI - _EDGE)
    if not inside.all():
        raise DomainError(f"x = {xs[~inside].flat[0]} is within 1e-9 of the kernel "
                          "singularities")
    with mp.workprec(_WORKPREC):
        order = mp.mpf(n)
        if mp.floor(order) != order or order < 0:
            raise ValueError("kernel order must be a nonnegative integer")
        if kind == "dirichlet":
            factor = order + mp.mpf("0.5")
        elif kind == "fejer":
            factor = (order + 1) / 2
        elif kind == "fejer_printed":
            factor = (order + mp.mpf("0.5")) / 2
        else:
            raise ValueError(f"unknown kernel kind {kind!r}")
        scale = float(2 / (order + 1))
    r = _sin_of_multiple(factor, xs) / (2.0 * np.sin(0.5 * xs))
    if kind != "dirichlet":
        r = scale * (r * r)
    return float(r) if r.ndim == 0 else r


def fejer_integral(n: int) -> float:
    """Integral over (0, 2 pi) of the order-n nonnegative kernel via midpoint
    quadrature on a grid fine enough to be exact for its trig-poly degree."""
    G = 4 * (int(n) + 1)
    xs = _TWO_PI * (np.arange(G) + 0.5) / G
    return float(kernel_eval("fejer", n, xs).sum() * _TWO_PI / G)


def fejer_variant_discrepancy(n: int, xs: Sequence[float]) -> float:
    """max |fejer - fejer_printed| over the sample points (diagnostic record)."""
    xs = np.asarray(xs, dtype=float)
    gap = kernel_eval("fejer", n, xs) - kernel_eval("fejer_printed", n, xs)
    return float(np.max(np.abs(gap)))


# ------------------------------------------------------------ limit function

def _dirichlet_block_sum(lo: int, hi: int, x: float) -> float:
    """sum_{k=lo}^{hi} D_k(x) in closed form (empty when hi < lo)."""
    if hi < lo:
        return 0.0
    denom = 4.0 * math.sin(0.5 * x) ** 2
    return (math.cos(lo * x) - math.cos((hi + 1) * x)) / denom


def evaluate_g(env: EnvelopeSpec, xs: Sequence[float], tol: float,
               direct_cap: int = 1 << 23) -> list[dict]:
    """Limit of the cosine series with envelope coefficients, two ways, at
    each point of `xs`.

    Kernel route: the resummed series has one term per breakpoint,
    n_k (s_{k+1} - s_k) F_{n_k - 1}(x); terms are added until the certified
    remaining tail (including a rigorous allowance for everything beyond the
    built envelope, from the slope budget a(n_K) = M/2^K) drops below `tol`.
    Direct route: s_n(x) = a_0/2 + sum_{k<=n} a_k cos(kx) at the largest
    breakpoint below `direct_cap`, plus the block-summed form
    s_n = sum Delta a_k D_k + a_n D_n as an internal identity check. The
    direct-route coefficient table is built once and shared by every point.
    """
    bps = env.practical_breakpoints(direct_cap)
    n_direct = bps[-1]
    if n_direct < 1:
        raise ValueError("no usable breakpoint below direct_cap")
    avals = env.values_at(np.arange(0, n_direct + 1))
    chunk = 1 << 20
    K = env.K
    coefs = _kernel_coefficients(env, K - 1)
    rows = []
    with mp.workprec(_WORKPREC):
        dslopes = [abs(float(env.slopes[k] - env.slopes[k + 1])) for k in range(K - 1)]
        for x in xs:
            x = float(x)
            if not (_EDGE < x < _TWO_PI - _EDGE):
                raise DomainError(f"x = {x} is within 1e-9 of the series singularities")
            q = 1.0 / (2.0 * math.sin(0.5 * x)) ** 2
            beyond = 2.0 * q * 2.0 * (abs(float(env.slopes[-1])) + env.M / 2.0**K / 3.0)
            suffix = [0.0] * (K - 1) + [beyond]
            for i in range(K - 2, -1, -1):
                suffix[i] = suffix[i + 1] + 2.0 * q * dslopes[i]

            acc = NeumaierSum()
            used = 0
            tail_bound = suffix[0]  # K >= 2 for every EnvelopeSpec
            for k in range(1, K):
                if suffix[k - 1] <= tol:
                    tail_bound = suffix[k - 1]
                    break
                acc.add(coefs[k - 1] * kernel_eval("fejer", env.breakpoints[k] - 1, x))
                used = k
                tail_bound = suffix[k]
            if tail_bound > tol:
                raise BudgetExceededError(
                    f"kernel tail {tail_bound:.3e} stuck above tol {tol:.3e}; "
                    "build a deeper envelope"
                )
            g_value = acc.value

            direct = NeumaierSum(0.5 * avals[0])
            for lo in range(1, n_direct + 1, chunk):
                hi = min(lo + chunk - 1, n_direct)
                ns = np.arange(lo, hi + 1)
                direct.add(float(np.dot(avals[lo : hi + 1], np.cos(ns * x))))
            s_direct = direct.value

            # block-summed first identity at the same n
            first = NeumaierSum()
            for j in range(1, len(bps)):
                seg_lo, seg_hi = bps[j - 1], min(bps[j], n_direct) - 1
                first.add(-float(env.slopes[j - 1]) * _dirichlet_block_sum(seg_lo, seg_hi, x))
                if bps[j] >= n_direct:
                    break
            first.add(float(avals[n_direct]) * kernel_eval("dirichlet", n_direct, x))

            rows.append({
                "x": x,
                "g_value": g_value,
                "tail_bound": tail_bound,
                "terms_used": used,
                "s_n_direct": s_direct,
                "n_direct": n_direct,
                "first_form_residual": abs(first.value - s_direct),
                "two_route_gap": abs(g_value - s_direct),
            })
    return rows


def kernel_series_l1_profile(env: EnvelopeSpec, max_terms: int | None = None) -> dict:
    """Grid quadrature of |partial kernel series| on (eps, 2 pi - eps), eps = 1e-3.

    The resummed series has nonnegative kernels and a summable coefficient
    stream, so these integrals must stay uniformly bounded in the truncation
    depth (the certified cap is pi times the weighted second-difference sum).
    Values are midpoint-rule estimates on a grid of four points per top
    kernel order (capped at 2^18), and the `resolved` flag records whether the
    top order was actually resolved.
    """
    bps = env.practical_breakpoints()
    terms_avail = min(len(bps) - 1, env.K - 1)
    if max_terms is not None:
        terms_avail = min(terms_avail, max_terms)
    if terms_avail < 1:
        raise ValueError("no practical breakpoint terms to integrate")
    top_order = bps[terms_avail] - 1
    eps = 1e-3
    G = min(4 * (top_order + 1), 1 << 18)
    xs = 2.0 * math.pi * (np.arange(G) + 0.5) / G
    keep = (xs > eps) & (xs < 2.0 * math.pi - eps)
    xs = xs[keep]
    partial = np.zeros(xs.size)
    integrals = []
    cum = 0.0
    for k, coef in enumerate(_kernel_coefficients(env, terms_avail), start=1):
        partial += coef * kernel_eval("fejer", bps[k] - 1, xs)
        cum += abs(coef)
        integrals.append(float(np.sum(np.abs(partial)) * 2.0 * math.pi / G))
    return {
        "eps": eps,
        "grid": G,
        "resolved": bool(G >= 4 * top_order),
        "breakpoint_orders": [bps[k] - 1 for k in range(1, terms_avail + 1)],
        "integrals": integrals,
        "uniform_bound_certificate": math.pi * cum,
        "max_integral": max(integrals),
    }


# --------------------------------------------------- divergent modulator demo

def divergent_modulator_demo(N: int) -> dict:
    """Partial sums of sum_{n=2}^{N} a_n / n for the slow envelope sequence.

    The oracle is the bare minorant a_n = 1/log(n+2) (the n+2 shift keeps
    index 1 regular and changes nothing asymptotically); the envelope built
    on that minorant dominates it termwise, so its sums grow at least as fast.
    Both are reported at the powers of two up to N and at N, and fitted
    against log log N + c.
    """
    if N < 10:
        raise ValueError("N must be >= 10")
    checkpoints = [n for n in (2**j for j in range(2, 64)) if n <= N]
    if checkpoints[-1] != N:
        checkpoints.append(N)

    hm = inverse_log_majorant(shift=2)
    env = build_envelope(hm, K=12)

    acc_o = NeumaierSum()
    acc_e = NeumaierSum()
    sums_o, sums_e = [], []
    dominated = True
    ci = 0
    chunk = 1 << 21
    for lo in range(2, N + 1, chunk):
        hi = min(lo + chunk - 1, N)
        ns = np.arange(lo, hi + 1, dtype=np.int64)
        h_vals = 1.0 / np.log(ns + 2.0)
        a_vals = env.values_at(ns)
        if not np.all(a_vals >= h_vals):
            dominated = False
        inv = 1.0 / ns
        o_terms = h_vals * inv
        e_terms = a_vals * inv
        csum_o = np.cumsum(o_terms)
        csum_e = np.cumsum(e_terms)
        while ci < len(checkpoints) and checkpoints[ci] <= hi:
            idx = checkpoints[ci] - lo
            sums_o.append(acc_o.value + csum_o[idx])
            sums_e.append(acc_e.value + csum_e[idx])
            ci += 1
        acc_o.add(float(csum_o[-1]))
        acc_e.add(float(csum_e[-1]))

    cks = np.asarray(checkpoints, dtype=float)
    fit_from = cks >= 1000
    window = cks[fit_from] if fit_from.sum() >= 3 else cks
    target = np.log(np.log(window))
    vals = np.asarray(sums_o)[fit_from] if fit_from.sum() >= 3 else np.asarray(sums_o)
    c_hat = float(np.mean(vals - target))
    residual = float(np.sqrt(np.mean((vals - target - c_hat) ** 2)))

    return {
        "N": N,
        "checkpoints": checkpoints,
        "oracle_partial_sums": [float(s) for s in sums_o],
        "envelope_partial_sums": [float(s) for s in sums_e],
        "oracle_final": float(sums_o[-1]),
        "envelope_final": float(sums_e[-1]),
        "dominates_oracle": bool(dominated),
        "loglog_offset": c_hat,
        "loglog_residual": residual,
    }
