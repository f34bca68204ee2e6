"""Numerical laboratory for modulated weighted orbit sums over
measure-preserving systems: rate-condition classes, divergence
counterexamples, slowly-decaying cosine series, sequence spectra, and
admissible-process approximation."""

__version__ = "0.1.0"

import os

# ehtlab's BLAS calls are all small; extra OpenBLAS workers only spin and stall,
# and a threaded ddot rounds differently, so reports would depend on the core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .sequences import (
    ModulatingSequence,
    from_values,
    named_sequence,
    transform_sequence,
    trig_poly_sequence,
)
from .rates import (
    RateParams,
    RateReport,
    abs_prefix_ratios,
    check_A_alpha,
    exp_sum_grid,
    exp_sum_sup,
    parseval_holder_check,
    rate_report,
)
from .dynamics import (
    Observable,
    make_system,
    orbit_values,
    sample_points,
)
from .transform import (
    ConvergenceVerdict,
    TransformTrace,
    abel_identity_residual,
    cesaro_average_trace,
    default_checkpoints,
    eht_trace,
    l2_diff_vs_spectral,
    make_convergence_verdict,
    maximal_and_weak11,
    orbit_traces,
    wiener_wintner_sweep,
)
from .envelope import (
    EnvelopeSpec,
    MajorantH,
    build_envelope,
    divergent_modulator_demo,
    evaluate_g,
    fejer_integral,
    kernel_eval,
    verify_envelope_conditions,
)
from .spectral import (
    SpectralEstimate,
    gamma_and_spectrum,
    match_resonances,
    resonance_report,
)
from .processes import (
    AdmissibleProcess,
    SeminormEstimate,
    build_process,
    process_eht_trace,
    seminorm_and_hilbert,
    truncated_approximant,
)
