"""Maximum-likelihood estimation of finite determinantal point processes.

Exact subset probabilities and samplers for L-ensembles, the likelihood
gradient and Hessian, Newton-Raphson and stochastic gradient maximizers,
closed-form 2x2 and block estimators, and Monte Carlo verification of
consistency, asymptotic normality, and the normal-approximation rate.
"""

from .asymptotics import (
    CltResult,
    RateReport,
    asymptotic_covariance,
    berry_esseen_experiment,
    clt_experiment,
    covariance_2x2_explicit,
    is_irreducible,
)
from .closed_form import (
    BlockStructure,
    TwoByTwoParams,
    forward_probs_2x2,
    mle_2x2,
    mle_block,
    moments_estimator,
)
from .errors import (
    ConfigError,
    DegenerateTable,
    DppError,
    EigendecompositionFailure,
    EigenvalueOutOfRange,
    EmptyBatch,
    GroundSetTooLarge,
    NotSymmetric,
    ReducibleKernel,
    SingularHessian,
    SingularPrincipalMinor,
    SupportMismatch,
    ZeroB,
)
from .kernels import (
    DistributionTable,
    KernelMatrix,
    atomic_probability_from_marginal,
    ensemble_probability,
    enumerate_distribution,
    inclusion_probabilities,
    kernel_from_text,
    kernel_to_text,
    load_kernel,
    marginal_of,
    save_kernel,
    sign_distance,
    validate_kernel,
)
from .likelihood import (
    LikelihoodContext,
    empirical_distribution,
    gradient,
    hessian,
    log_likelihood,
    vech_embedding,
)
from .optimize import IterationTrace, newton_raphson, sgd
from .sampling import (
    SampleBatch,
    load_batch,
    make_rng,
    sample_batch,
    save_batch,
)

__version__ = "0.1.0"
