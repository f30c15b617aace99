"""Numerical laboratory for a dissipative Schrodinger evolution.

The package evaluates the semigroup with complex time on band-limited
data, sweeps maximal-function ratios across frequency scales, and runs
the arithmetic lower-bound experiment that exhibits the sharp Sobolev
threshold for pointwise convergence.
"""

__version__ = "0.1.0"

from .profiles import (
    Case1Product,
    Case3Counterexample,
    CounterexampleParams,
    ModelParams,
    PlaneWaveSurrogate,
    SpectrumDescriptor,
    l2_norm,
    sobolev_norm,
    spectrum_eval,
)
from .propagator import (
    FactorizedEvaluation,
    SpaceTimePoint,
    evaluate_p_gamma,
    factorized_evaluate,
)
from .maximal import (
    ScalingReport,
    SpaceGrid,
    TimeGrid,
    exponent_sweep,
    l2_ball_norm,
    maximal_ratio,
    sup_over_time,
    theoretical_exponent,
)
from .numbertheory import (
    CubeFamily,
    GaussSumParams,
    PreconditionError,
    abel_sum_identity,
    dirichlet_simultaneous,
    gauss_modulus_law,
    gauss_modulus_worst,
    gauss_sum,
    totient,
    vitali_scaled_union,
    weyl_bound_rhs,
)
from .counterexample import (
    LowerBoundRecord,
    LowerBoundReport,
    OmegaStarDraws,
    OmegaStarSample,
    error_budget,
    lower_bound_experiment,
    omega_measure_lower,
    sample_omega_star,
    select_time,
    v2_measure_lower,
)

__all__ = [name for name in dir() if not name.startswith("_")]
