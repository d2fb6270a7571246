"""Self-check suites wiring the independent oracles against each other.

Every check is deterministic under its seed and returns a record the CLI
prints as one pass/fail line. ``quick`` stays within a minute on a
laptop; ``full`` adds the large-replication normality check. Five
measurements are public functions, because the acceptance tests make
them too, each with its own seed, count and threshold: the probability
routes, the sampler against enumeration, the derivatives against finite
differences, the covariance formula and the 2x2 CLT covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import clt_experiment, covariance_2x2_explicit
from .closed_form import forward_probs_2x2, mle_2x2
from .kernels import (
    ENSEMBLE,
    DistributionTable,
    KernelMatrix,
    atomic_probability_from_marginal,
    ensemble_probability,
    enumerate_distribution,
    inclusion_probabilities,
    marginal_of,
    subset_indices,
)
from .likelihood import LikelihoodContext, gradient, hessian, vech_embedding
from .numdiff import fd_gradient, fd_hessian
from .sampling import SEED_LIMIT, _seed, sample_batch
from .verify_support import random_ensemble

QUICK = "quick"
FULL = "full"

#: The dense 2x2 benchmark kernel, (a, b, c) = (1, 1, 2) in the vech chart.
BENCHMARK = KernelMatrix(np.array([[1.0, 1.0], [1.0, 2.0]]), ENSEMBLE)
#: Asymptotic covariance of the (a, b, c) estimate at BENCHMARK.
BENCHMARK_COV = np.array([[10.0, 12.5, 10.0], [12.5, 20.0, 20.0], [10.0, 20.0, 30.0]])


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def probability_route_deviation(seed: int, kernels: int, max_size: int) -> float:
    """Worst disagreement of the probability routes on random ensembles of size 2..max_size.

    Per subset, the direct ensemble probability, the atomic probability
    from the marginal kernel and the enumerated table agree, and the
    table's containment probability equals the marginal's principal
    minor; each table sums to 1.
    """
    rng = np.random.default_rng(_seed(seed))
    worst = 0.0
    for _ in range(kernels):
        n = int(rng.integers(2, max_size + 1))
        kernel = random_ensemble(n, rng)
        table = enumerate_distribution(kernel)
        marginal = marginal_of(kernel)
        containment = inclusion_probabilities(table)
        for mask in range(1 << n):
            direct = ensemble_probability(kernel, mask)
            atomic = atomic_probability_from_marginal(marginal, mask)
            idx = subset_indices(mask)
            minor = np.linalg.det(marginal.entries[np.ix_(idx, idx)]) if idx else 1.0
            worst = max(worst, abs(direct - table.probs[mask]), abs(atomic - direct),
                        abs(atomic - table.probs[mask]), abs(containment[mask] - minor))
        worst = max(worst, abs(table.probs.sum() - 1.0))
    return worst


def sampler_fit(draws: int, seed: int) -> tuple[float, float]:
    """TV distance and chi-square p-value of spectral draws of BENCHMARK against its table."""
    from scipy.special import chdtrc

    table = enumerate_distribution(BENCHMARK)
    batch = sample_batch(BENCHMARK, draws, seed, "spectral")
    counts = np.bincount(batch.masks, minlength=4)
    expected = table.probs * draws
    p_value = chdtrc(counts.size - 1, ((counts - expected) ** 2 / expected).sum())
    return 0.5 * float(np.abs(counts / draws - table.probs).sum()), float(p_value)


def derivative_errors(rng: np.random.Generator, sizes, routes) -> list[float]:
    """Worst relative error of each (analytic, finite-difference) pair in ``routes``.

    One problem per entry of ``sizes``: a kernel of that size with a
    widened ridge and a Dirichlet table, both drawn from ``rng``. The
    error is max |analytic - numeric| / (1 + |analytic|) over entries.
    """
    worst = [0.0] * len(routes)
    for n in sizes:
        kernel = random_ensemble(n, rng, jitter=0.3)
        probs = rng.dirichlet(np.ones(1 << n))
        ctx = LikelihoodContext(DistributionTable(probs / probs.sum()))
        for k, (analytic, numeric) in enumerate(routes):
            exact = analytic(ctx, kernel)
            error = np.abs(exact - numeric(ctx, kernel)) / (1.0 + np.abs(exact))
            worst[k] = max(worst[k], float(np.max(error)))
    return worst


def covariance_formula_errors(seed: int, instances: int) -> tuple[bool, float, float]:
    """The explicit 2x2 covariance against the inverse finite-difference curvature.

    The first case is BENCHMARK, the others random (a, b, c) with
    0 < b < sqrt(ac) drawn from ``seed``. The curvature is the (a, b, c)
    chart's, J^T @ fd_hessian @ J with J = vech_embedding(2), of
    log_likelihood on the kernel's own table. Returns whether the formula
    gives BENCHMARK_COV at BENCHMARK (atol 1e-9), the worst entry of
    -curvature @ explicit - I, and the worst relative entry error of the
    formula against inv(-curvature). The product keeps finite-difference
    noise from being amplified by the curvature's condition number.
    """
    rng = np.random.default_rng(_seed(seed))
    cases = [BENCHMARK.entries]
    while len(cases) < instances:
        a, c = rng.uniform(0.5, 3.0, size=2)
        b = rng.uniform(0.2, 0.9) * np.sqrt(a * c)
        cases.append(np.array([[a, b], [b, c]]))
    embed = vech_embedding(2)
    residual = rel = 0.0
    for entries in cases:
        explicit = covariance_2x2_explicit(entries)
        ctx = LikelihoodContext(forward_probs_2x2(entries))
        curvature = embed.T @ fd_hessian(ctx, entries) @ embed
        residual = max(residual, float(np.max(np.abs(-curvature @ explicit - np.eye(3)))))
        oracle = np.linalg.inv(-curvature)
        rel = max(rel, float(np.max(np.abs(explicit - oracle) / np.abs(oracle))))
    exact_ok = bool(np.allclose(covariance_2x2_explicit(BENCHMARK), BENCHMARK_COV, rtol=0, atol=1e-9))
    return exact_ok, residual, rel


def clt_covariance_error(seed: int, reps: int, n: int) -> tuple[float, int]:
    """Worst relative entry error of the Monte Carlo CLT covariance at BENCHMARK, and failures."""
    result = clt_experiment(BENCHMARK, n, reps, seed)
    rel = float(np.max(np.abs(result.covariance - BENCHMARK_COV) / BENCHMARK_COV))
    return rel, result.failures


def _check_closed_form_round_trip(seed: int, instances: int = 50) -> CheckResult:
    # a and c come back within 1e-12. b = sqrt(p1 p2 - p0 p3)/p0 amplifies the
    # discriminant's cancellation; its bound is six times the measured worst
    # error over 1e5 instances, 0.17 eps (1+a)(1+c)(1+ac) / max(b, sqrt(eps a c)).
    rng = np.random.default_rng(_seed(seed))
    eps = np.finfo(float).eps
    worst, passed = 0.0, True
    for _ in range(instances):
        a, c = rng.uniform(0.3, 4.0, size=2)
        b = rng.uniform(0.0, 0.95) * np.sqrt(a * c)
        recovered, tag = mle_2x2(forward_probs_2x2(np.array([[a, b], [b, c]])))
        dev = np.abs(recovered.entries[[0, 0, 1], [0, 1, 1]] - [a, b, c])
        b_tol = eps * (1 + a) * (1 + c) * (1 + a * c) / max(b, np.sqrt(eps * a * c))
        passed = passed and max(dev[0], dev[2]) <= 1e-12 and dev[1] <= b_tol
        worst = max(worst, float(dev.max()))
    return CheckResult("closed-form-round-trip", passed, f"max deviation {worst:.3e}")


def run_checks(level: str = QUICK, seed: int = 0) -> list[CheckResult]:
    # The base seed must be a Philox key; check k runs at seed + k, wrapped into [0, 2**128).
    seeds = [(_seed(seed) + k) % SEED_LIMIT for k in range(7)]
    worst = probability_route_deviation(seeds[0], kernels=50, max_size=3)
    checks = [CheckResult("probability-oracles", worst <= 1e-10, f"max deviation {worst:.3e}")]
    # The sizes are drawn lazily, before each problem, from the problems' own stream.
    for name, k, instances, routes, bound in (
        ("gradient-vs-finite-difference", 1, 20, (gradient, fd_gradient), 1e-6),
        ("hessian-vs-finite-difference", 2, 10, (hessian, fd_hessian), 1e-4),
    ):
        rng = np.random.default_rng(seeds[k])
        sizes = (int(rng.integers(2, 4)) for _ in range(instances))
        (worst,) = derivative_errors(rng, sizes, [routes])
        checks.append(CheckResult(name, worst <= bound, f"max rel error {worst:.3e}"))
    _, p_value = sampler_fit(draws=20_000, seed=seeds[3])
    checks.append(CheckResult("spectral-vs-enumeration", p_value > 1e-3, f"chi-square p={p_value:.4f}"))
    exact_ok, residual, _ = covariance_formula_errors(seeds[4], instances=5)
    checks.append(CheckResult("covariance-vs-hessian-inverse", residual <= 1e-4 and exact_ok,
                              f"max product residual {residual:.3e}"))
    checks.append(_check_closed_form_round_trip(seeds[5]))
    if level == FULL:
        rel, _ = clt_covariance_error(seeds[6], reps=10_000, n=10_000)
        checks.append(CheckResult("monte-carlo-clt-covariance", rel <= 0.10, f"max rel error {rel:.3f}"))
    return checks
