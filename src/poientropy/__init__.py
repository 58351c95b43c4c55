"""Certified error bounds for Poisson approximation of Bernoulli-sum entropy.

The package computes how far the entropy of W = sum of (possibly dependent,
non-identically distributed) Bernoulli indicators can sit from the entropy
of a Poisson variable with the same mean, with every bound backed by an
explicit certificate and validated against an exact small-instance oracle.
"""

from .bounds import (
    ConditionCheck,
    ConditionViolated,
    EntropyBoundReport,
    MomentSummary,
    NoApplicableBound,
    best_independent_bound,
    entropy_bound_general,
    entropy_bound_independent,
    entropy_bound_independent_sharp,
    g_of_p,
)
from .chenstein import (
    ChenSteinCoefficients,
    DependencySpec,
    TvBoundReport,
    coefficients_from_spec,
    coefficients_independent,
    dependency_spec_from_dict,
    tv_bound_report,
    tv_lower_barbour_hall,
    tv_upper_agg,
    tv_upper_barbour_hall,
    tv_upper_lecam,
)
from .exact import (
    BernoulliSystem,
    Pmf,
    exact_distribution,
    pmf_entropy,
    tv_to_poisson,
)
from .logspace import LogScalar, log1mexp, log_gamma, log_sum_exp
from .models import (
    Example1Case,
    MonteCarloResult,
    Table1Row,
    arithmetic_moments,
    hypercube_coefficients,
    hypercube_monte_carlo,
    reproduce_example1,
    reproduce_table1,
)
from .poisson import (
    EntropyValue,
    binomial_entropy,
    chen_stein_residual,
    poisson_entropy,
    poisson_entropy_asymptotic,
    poisson_entropy_series,
    poisson_log_pmf,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # logspace
    "LogScalar",
    "log_gamma",
    "log_sum_exp",
    "log1mexp",
    # poisson
    "EntropyValue",
    "poisson_log_pmf",
    "poisson_entropy",
    "poisson_entropy_series",
    "poisson_entropy_asymptotic",
    "binomial_entropy",
    "chen_stein_residual",
    # exact oracle
    "BernoulliSystem",
    "Pmf",
    "exact_distribution",
    "pmf_entropy",
    "tv_to_poisson",
    # chen-stein
    "DependencySpec",
    "dependency_spec_from_dict",
    "ChenSteinCoefficients",
    "TvBoundReport",
    "coefficients_from_spec",
    "coefficients_independent",
    "tv_upper_barbour_hall",
    "tv_lower_barbour_hall",
    "tv_upper_lecam",
    "tv_upper_agg",
    "tv_bound_report",
    # entropy bounds
    "MomentSummary",
    "ConditionCheck",
    "ConditionViolated",
    "NoApplicableBound",
    "EntropyBoundReport",
    "g_of_p",
    "entropy_bound_general",
    "entropy_bound_independent",
    "entropy_bound_independent_sharp",
    "best_independent_bound",
    # worked models
    "arithmetic_moments",
    "hypercube_coefficients",
    "hypercube_monte_carlo",
    "MonteCarloResult",
    "Example1Case",
    "Table1Row",
    "reproduce_example1",
    "reproduce_table1",
]
