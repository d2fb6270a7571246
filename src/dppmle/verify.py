"""Self-check suites wiring the independent oracles against each other.

Every check is deterministic under its seed and returns a record the CLI
prints as one pass/fail line. ``quick`` stays within a minute on a
laptop; ``full`` adds the large-replication normality check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import chisquare

from .asymptotics import (
    chart_covariance_2x2,
    clt_experiment,
    covariance_2x2_explicit,
)
from .closed_form import TwoByTwoParams, chart_log_likelihood, forward_probs_2x2, mle_2x2
from .kernels import (
    ENSEMBLE,
    DistributionTable,
    KernelMatrix,
    atomic_probability_from_marginal,
    enumerate_distribution,
    inclusion_probabilities,
    marginal_of,
    subset_indices,
    validate_kernel,
)
from .likelihood import LikelihoodContext, gradient, hessian
from .numdiff import fd_gradient, fd_hessian, fd_hessian_of
from .sampling import sample_batch
from .verify_support import random_ensemble

QUICK = "quick"
FULL = "full"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_probability_oracles(seed: int, kernels: int = 50) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(kernels):
        n = int(rng.integers(2, 4))
        kernel = random_ensemble(n, rng)
        table = enumerate_distribution(kernel)
        marginal = marginal_of(kernel)
        inclusion = inclusion_probabilities(table)
        for mask in range(1 << n):
            idx = subset_indices(mask)
            atomic = atomic_probability_from_marginal(marginal, mask)
            worst = max(worst, abs(atomic - table.probs[mask]))
            det_minor = np.linalg.det(marginal.entries[np.ix_(idx, idx)]) if idx else 1.0
            worst = max(worst, abs(inclusion[mask] - det_minor))
        worst = max(worst, abs(table.probs.sum() - 1.0))
    return CheckResult("probability-oracles", worst <= 1e-10, f"max deviation {worst:.3e}")


def _check_gradient_fd(seed: int, instances: int = 20) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(2, 4))
        kernel = random_ensemble(n, rng, jitter=0.3)
        probs = rng.dirichlet(np.ones(1 << n))
        ctx = LikelihoodContext(_as_table(n, probs))
        analytic = gradient(ctx, kernel)
        numeric = fd_gradient(ctx, kernel)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / (1.0 + np.abs(analytic)))))
    return CheckResult("gradient-vs-finite-difference", worst <= 1e-6, f"max rel error {worst:.3e}")


def _check_hessian_fd(seed: int, instances: int = 10) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(2, 4))
        kernel = random_ensemble(n, rng, jitter=0.3)
        probs = rng.dirichlet(np.ones(1 << n))
        ctx = LikelihoodContext(_as_table(n, probs))
        analytic = hessian(ctx, kernel)
        numeric = fd_hessian(ctx, kernel)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / (1.0 + np.abs(analytic)))))
    return CheckResult("hessian-vs-finite-difference", worst <= 1e-4, f"max rel error {worst:.3e}")


def _check_sampler(seed: int, draws: int = 20_000) -> CheckResult:
    kernel = validate_kernel([[1.0, 1.0], [1.0, 2.0]], ENSEMBLE)
    table = enumerate_distribution(kernel)
    batch = sample_batch(kernel, draws, seed, "spectral")
    counts = np.bincount(batch.masks, minlength=4)
    stat, p_value = chisquare(counts, table.probs * draws)
    return CheckResult("spectral-vs-enumeration", p_value > 1e-3, f"chi-square p={p_value:.4f}")


def _check_covariance_formula(seed: int, instances: int = 5) -> CheckResult:
    rng = np.random.default_rng(seed)
    cases = [TwoByTwoParams(1.0, 1.0, 2.0)]
    while len(cases) < instances:
        a, c = rng.uniform(0.5, 3.0, size=2)
        b = rng.uniform(0.2, 0.9) * np.sqrt(a * c)
        cases.append(TwoByTwoParams(float(a), float(b), float(c)))
    worst = 0.0
    for params in cases:
        explicit = covariance_2x2_explicit(params)
        table = forward_probs_2x2(params)
        theta = np.array([params.a, params.b, params.c])
        curvature = fd_hessian_of(lambda t: chart_log_likelihood(t, table), theta)
        # product against the identity keeps finite-difference noise from
        # being amplified by the curvature's condition number
        residual = -curvature @ explicit - np.eye(3)
        worst = max(worst, float(np.max(np.abs(residual))))
    fixed = covariance_2x2_explicit(TwoByTwoParams(1.0, 1.0, 2.0))
    expected = np.array([[10.0, 12.5, 10.0], [12.5, 20.0, 20.0], [10.0, 20.0, 30.0]])
    exact_ok = np.allclose(fixed, expected, rtol=0, atol=1e-9)
    return CheckResult(
        "covariance-vs-hessian-inverse",
        worst <= 1e-4 and exact_ok,
        f"max product residual {worst:.3e}",
    )


def _check_closed_form_round_trip(seed: int, instances: int = 50) -> CheckResult:
    # a and c come back within 1e-12. b = sqrt(p1 p2 - p0 p3)/p0 amplifies the
    # discriminant's cancellation; its bound is six times the measured worst
    # error over 1e5 instances, 0.17 eps (1+a)(1+c)(1+ac) / max(b, sqrt(eps a c)).
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    worst, passed = 0.0, True
    for _ in range(instances):
        a, c = rng.uniform(0.3, 4.0, size=2)
        b = rng.uniform(0.0, 0.95) * np.sqrt(a * c)
        params = TwoByTwoParams(float(a), float(b), float(c))
        recovered, tag = mle_2x2(forward_probs_2x2(params))
        dev = np.abs([recovered.a - a, recovered.b - b, recovered.c - c])
        b_tol = eps * (1 + a) * (1 + c) * (1 + a * c) / max(b, np.sqrt(eps * a * c))
        passed = passed and max(dev[0], dev[2]) <= 1e-12 and dev[1] <= b_tol
        worst = max(worst, float(dev.max()))
    return CheckResult("closed-form-round-trip", passed, f"max deviation {worst:.3e}")


def _check_clt(seed: int, reps: int = 10_000, n: int = 10_000) -> CheckResult:
    params = TwoByTwoParams(1.0, 1.0, 2.0)
    kernel = KernelMatrix(2, params.matrix(), ENSEMBLE)
    result = clt_experiment(kernel, n, reps, seed)
    empirical = chart_covariance_2x2(result.covariance)
    theoretical = covariance_2x2_explicit(params)
    rel = float(np.max(np.abs(empirical - theoretical) / np.abs(theoretical)))
    return CheckResult("monte-carlo-clt-covariance", rel <= 0.10, f"max rel error {rel:.3f}")


def _as_table(n: int, probs: np.ndarray) -> DistributionTable:
    probs = np.asarray(probs, dtype=float)
    return DistributionTable(n, probs / probs.sum())


def run_checks(level: str = QUICK, seed: int = 0) -> list[CheckResult]:
    checks = [
        _check_probability_oracles(seed),
        _check_gradient_fd(seed + 1),
        _check_hessian_fd(seed + 2),
        _check_sampler(seed + 3),
        _check_covariance_formula(seed + 4),
        _check_closed_form_round_trip(seed + 5),
    ]
    if level == FULL:
        checks.append(_check_clt(seed + 6))
    return checks
