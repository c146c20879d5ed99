"""Complex-valued quasi-arithmetic means and closed-form Cauchy estimation.

The package turns the geometric and Mobius-reciprocal means of real samples,
taken with complex-valued transforms, into unbiased strongly consistent
estimators of the joint Cauchy location-scale parameter mu + sigma*i, and
ships a seeded Monte Carlo harness that verifies every limiting property
(unbiasedness, n*Var limits, CLT isotropy, Cramer-Rao comparisons) at desk
scale.
"""

from ._version import __version__
from .branch import branch_arg, branch_log, branch_pow
from .cauchy import (
    CauchyParams,
    TheoreticalAsymptotics,
    asymptotic_variance_geometric,
    asymptotic_variance_mobius,
    asymptotic_variance_two_step,
    cdf,
    cramer_rao_bound,
    density,
    expected_generator_value,
    integrate_real_line,
    quantile,
    sample,
    zolotarev_second_moment,
)
from .estimators import (
    EstimateRecord,
    geometric_estimate,
    mobius_estimate,
    sign_dichotomy,
    two_step_mobius,
)
from .exceptions import DomainError, ExperimentError, NumericalError, QuadratureError
from .generators import Generator, MobiusReciprocal, ShiftedLog, qam
from .harness import (
    CauchySource,
    CltDiagnostics,
    ExperimentConfig,
    ExperimentReport,
    HarmonicCheckReport,
    UniformSource,
    clt_diagnostics,
    harmonic_identity_check,
    run_experiment,
    theoretical_targets,
)

__all__ = [
    "CauchyParams",
    "CauchySource",
    "CltDiagnostics",
    "DomainError",
    "EstimateRecord",
    "ExperimentConfig",
    "ExperimentError",
    "ExperimentReport",
    "Generator",
    "HarmonicCheckReport",
    "MobiusReciprocal",
    "NumericalError",
    "QuadratureError",
    "ShiftedLog",
    "TheoreticalAsymptotics",
    "UniformSource",
    "asymptotic_variance_geometric",
    "asymptotic_variance_mobius",
    "asymptotic_variance_two_step",
    "branch_arg",
    "branch_log",
    "branch_pow",
    "cdf",
    "clt_diagnostics",
    "cramer_rao_bound",
    "density",
    "expected_generator_value",
    "geometric_estimate",
    "harmonic_identity_check",
    "integrate_real_line",
    "mobius_estimate",
    "qam",
    "quantile",
    "run_experiment",
    "sample",
    "sign_dichotomy",
    "theoretical_targets",
    "two_step_mobius",
    "zolotarev_second_moment",
]
