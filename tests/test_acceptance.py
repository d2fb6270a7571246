"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Every tolerance and budget is pinned here; nothing is deferred to later
calibration. Criterion 5 judges the 2x2 closed form by the acceptance
region of its own asymptotic law (criterion 7's covariance), and
criterion 6b starts plain Newton inside the basin of the saddle it is
meant to find; their docstrings derive each threshold. Criteria 1, 2, 3,
7 and 8 make their measurements with the functions of ``dppmle.verify``,
which the CLI's ``verify`` runs at its own seeds and counts.
"""

import sys
import time

import numpy as np
from scipy.stats import chi2

from dppmle.asymptotics import berry_esseen_experiment
from dppmle.closed_form import (
    INTERIOR,
    TwoByTwoParams,
    _mle_2x2_arrays,
    chart_log_likelihood,
    forward_probs_2x2,
    mle_2x2,
)
from dppmle.kernels import DistributionTable, enumerate_distribution, sign_distance, validate_kernel
from dppmle.likelihood import LikelihoodContext, empirical_distribution, gradient, hessian, log_likelihood
from dppmle.numdiff import fd_gradient, fd_hessian
from dppmle.optimize import CONVERGED, newton_raphson, sgd
from dppmle.sampling import make_rng, sample_batch
from dppmle.verify import (
    clt_covariance_error,
    covariance_formula_errors,
    derivative_errors,
    probability_route_deviation,
    sampler_fit,
)
from dppmle.verify_support import random_irreducible_ensemble
from oracles import chart_gradient

DENSE2 = np.array([[1.0, 1.0], [1.0, 2.0]])
DENSE2_START = np.array([[0.5, 0.1], [0.1, 0.5]])
SADDLE_START = np.array([[0.5, 1e-3], [1e-3, 0.5]])
DIAG3 = np.diag([7.0, 5.0, 9.0])
EXPECTED_COV = np.array([[10.0, 12.5, 10.0], [12.5, 20.0, 20.0], [10.0, 20.0, 30.0]])


def record(name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"[{status}] {name}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s over budget {budget:.0f}s"


def test_criterion_1_probability_oracle_equivalence():
    """Three probability routes agree to 1e-10 on 200 random ensembles."""
    start = time.monotonic()
    worst = probability_route_deviation(seed=1001, kernels=200, max_size=4)
    record("criterion 1 (oracle equivalence)", worst <= 1e-10,
           f"max deviation {worst:.2e} <= 1e-10", time.monotonic() - start, 10.0)


def test_criterion_2_sampler_correctness():
    """Spectral draws match the enumerated law in TV and chi-square."""
    start = time.monotonic()
    tv, p_value = sampler_fit(draws=100_000, seed=3)
    record("criterion 2 (sampler correctness)", tv <= 0.01 and p_value > 1e-3,
           f"TV {tv:.4f} <= 0.01, chi-square p {p_value:.4f} > 1e-3",
           time.monotonic() - start, 30.0)


def test_criterion_3_gradient_hessian_fd():
    """Analytic derivatives match central differences on 100 random instances."""
    start = time.monotonic()
    worst_g, worst_h = derivative_errors(
        np.random.default_rng(1003), [2, 3] * 50, [(gradient, fd_gradient), (hessian, fd_hessian)]
    )
    record("criterion 3 (derivative oracles)", worst_g <= 1e-6 and worst_h <= 1e-4,
           f"gradient rel {worst_g:.2e} <= 1e-6, hessian rel {worst_h:.2e} <= 1e-4",
           time.monotonic() - start, 60.0)


def test_criterion_4_closed_form_optimality():
    """The 2x2 maximizer beats a 50^3 constrained grid on 50 empirical tables."""
    start = time.monotonic()
    rng = np.random.default_rng(1004)
    grid = np.linspace(0.1, 5.0, 50)
    a_g, b_g, c_g = np.meshgrid(grid, grid, grid, indexing="ij")
    feasible = a_g * c_g - b_g**2 > 0
    beaten = 0
    worst_resid = 0.0
    checked = 0
    while checked < 50:
        a0, c0 = rng.uniform(0.4, 3.0, size=2)
        b0 = rng.uniform(0.1, 0.9) * np.sqrt(a0 * c0)
        exact = forward_probs_2x2(TwoByTwoParams(float(a0), float(b0), float(c0)))
        counts = rng.multinomial(1000, exact.probs)
        if np.any(counts == 0):
            continue
        table = DistributionTable(counts / 1000)
        params, tag = mle_2x2(table)
        if tag != INTERIOR:
            continue
        checked += 1
        p0, p1, p2, p3 = table.probs
        with np.errstate(divide="ignore", invalid="ignore"):
            values = (p1 * np.log(a_g) + p2 * np.log(c_g)
                      + p3 * np.log(a_g * c_g - b_g**2)
                      - np.log((a_g + 1) * (c_g + 1) - b_g**2))
        values = np.where(feasible, values, -np.inf)
        if chart_log_likelihood((params.a, params.b, params.c), table) < values.max() - 1e-12:
            beaten += 1
        worst_resid = max(worst_resid, float(np.max(np.abs(
            chart_gradient((params.a, params.b, params.c), table)))))
    record("criterion 4 (closed-form optimality)", beaten == 0 and worst_resid <= 1e-9,
           f"grid wins {beaten}/50, stationarity residual {worst_resid:.2e} <= 1e-9",
           time.monotonic() - start, 60.0)


def test_criterion_5_two_by_two_reproduction():
    """Estimates inside the 99% region of their asymptotic law in >= 95 of 100 runs.

    Criterion 7 pins the covariance of the scaled error sqrt(n) (theta_hat -
    theta) at EXPECTED_COV, so at n = 30000 the statistic n d' EXPECTED_COV^-1 d,
    with d the estimate minus (1, 1, 2), is asymptotically chi-square with 3
    degrees of freedom. A run passes when it is at most chi2_3(0.99) = 11.34.
    A correct estimator then misses the count of 95 with probability 5e-4
    (per-run coverage measured 0.990 over 2e5 replications); seeds 0-99
    give 99/100.

    The region replaces a 0.05 entrywise box, which is only 1.58 standard
    deviations in c (sd sqrt(30/30000) = 0.0316): its per-run coverage is
    0.870 (2e5 replications), so a correct estimator reached 95/100 with
    probability 0.007, and seeds 0-99 give 92/100, still reported below.
    The region is stricter where it counts. By the noncentral chi-square
    law, a +0.03 bias in c, inside the old box and under one sd, reaches
    95/100 with probability 1.4e-3 (seeds 0-99 give 88/100); biases of
    0.02 in a or 0.03 in b reach it with probability 1.3e-15 and 7e-73.
    """
    start = time.monotonic()
    table = enumerate_distribution(validate_kernel(DENSE2, "ensemble"))
    truth = np.array([1.0, 1.0, 2.0])
    precision = np.linalg.inv(EXPECTED_COV)
    threshold = chi2.ppf(0.99, df=3)
    passes = 0
    in_box = 0
    for seed in range(100):
        rng = make_rng(seed)
        cells = rng.multinomial(30_000, table.probs) / 30_000
        (a, b, c), _, ok = _mle_2x2_arrays(cells)
        error = np.array([float(a), float(b), float(c)]) - truth
        if bool(ok) and 30_000 * error @ precision @ error <= threshold:
            passes += 1
        if bool(ok) and np.all(np.abs(error) <= 0.05):
            in_box += 1
    record("criterion 5 (closed-form reproduction)", passes >= 95,
           f"{passes}/100 runs inside the chi2_3(0.99) = {threshold:.2f} region "
           f"(need >= 95); {in_box}/100 within 0.05 entrywise",
           time.monotonic() - start, 120.0)


def test_criterion_6a_diagonal_benchmark():
    """Newton and SGD recover the diagonal benchmark within stated bands."""
    start = time.monotonic()
    kernel = validate_kernel(DIAG3, "ensemble")
    batch = sample_batch(kernel, 30_000, 3, "enumeration")
    ctx = LikelihoodContext(empirical_distribution(batch))
    newton_est, newton_trace = newton_raphson(ctx, np.eye(3), max_iter=100)
    newton_err = float(np.max(np.abs(newton_est.entries - DIAG3)))
    sgd_est, sgd_trace = sgd(batch, np.eye(3), eta=0.1, iters=60_000, seed=3,
                             trace_every=5000)
    sgd_err = float(np.max(np.abs(sgd_est.entries - DIAG3)))
    ok = (newton_trace.status == CONVERGED and newton_err <= 0.3 and sgd_err <= 0.4)
    record("criterion 6a (diagonal benchmark)", ok,
           f"newton err {newton_err:.3f} <= 0.3, sgd err {sgd_err:.3f} <= 0.4",
           time.monotonic() - start, 600.0)


def test_criterion_6b_newton_wrong_critical_point():
    """Newton from a near-diagonal start lands on the b=0 saddle in most seeds.

    The diagonal-restricted maximizer (about 0.667, 0, 1.5) is a
    nondegenerate saddle of the full likelihood: at seed 0 the N^2 Hessian
    there has eigenvalues (-0.525, -0.109, 0.042, 0.042), with curvature
    +0.042 along the symmetric off-diagonal direction. Plain Newton is
    locally attracted to every nondegenerate critical point, so it lands
    there from diag(0.5, 0.5) with any off-diagonal b0 from 1e-6 to 1e-2
    (20/20 seeds each); from b0 = 0.03 no seed does. SADDLE_START uses
    b0 = 1e-3, an order of magnitude inside that edge. DENSE2_START
    (b0 = 0.1) lies outside the basin: 19/20 seeds reach the true
    maximizer and one diverges, reported below but not asserted. Newton
    is affine-invariant and its derivatives match finite differences
    (criterion 3), so no change of chart moves that start into the basin.

    A landing is a wrong critical point, not merely a small b: the run
    converged, its likelihood is strictly below the closed-form maximum of
    the same table (measured gap 0.012-0.016), and the curvature along
    (E01 + E10)/sqrt(2) is positive (measured 0.038-0.045), on top of the
    b, a and c bands.
    """
    start = time.monotonic()
    kernel = validate_kernel(DENSE2, "ensemble")
    off_diagonal = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    hits = 0
    to_truth = 0
    for seed in range(20):
        batch = sample_batch(kernel, 30_000, seed, "enumeration")
        ctx = LikelihoodContext(empirical_distribution(batch))
        estimate, trace = newton_raphson(ctx, SADDLE_START, max_iter=100)
        e = estimate.entries
        params, _ = mle_2x2(ctx.dist)
        best = chart_log_likelihood((params.a, params.b, params.c), ctx.dist)
        in_bands = (abs(e[0, 1]) < 0.05 and abs(e[0, 0] - 0.657) <= 0.2
                    and abs(e[1, 1] - 1.499) <= 0.2)
        if (trace.status == CONVERGED and in_bands and log_likelihood(ctx, e) < best
                and off_diagonal @ hessian(ctx, e) @ off_diagonal > 0):
            hits += 1
        benchmark, benchmark_trace = newton_raphson(ctx, DENSE2_START, max_iter=100)
        if benchmark_trace.status == CONVERGED and sign_distance(benchmark, DENSE2)[0] < 0.15:
            to_truth += 1
    record("criterion 6b (wrong critical point)", hits > 10,
           f"b=0 saddle landings from b0=1e-3 {hits}/20 (need > 10); "
           f"from DENSE2_START {to_truth}/20 converged to the true maximizer",
           time.monotonic() - start, 600.0)


def test_criterion_6c_sgd_instability():
    """SGD on the repulsive 2x2 benchmark is flagged unstable."""
    start = time.monotonic()
    kernel = validate_kernel(DENSE2, "ensemble")
    diverged = 0
    nondecay = 0
    for seed in range(20):
        batch = sample_batch(kernel, 30_000, seed, "enumeration")
        _, trace = sgd(batch, DENSE2_START, eta=0.1, iters=60_000, seed=seed)
        if trace.status == "diverged":
            diverged += 1
        norms = np.asarray(trace.grad_norms)
        tenth = max(len(norms) // 10, 1)
        if np.median(norms[-tenth:]) >= np.median(norms[:tenth]):
            nondecay += 1
    record("criterion 6c (sgd instability)", diverged >= 1 or nondecay >= 1,
           f"diverged {diverged}/20, grad-norm non-decay {nondecay}/20",
           time.monotonic() - start, 600.0)


def test_criterion_7_covariance_formula():
    """The explicit covariance equals the benchmark matrix and the curvature inverse."""
    start = time.monotonic()
    # One instance: the benchmark (1, 1, 2) only, so the seed draws nothing.
    exact_ok, _, rel = covariance_formula_errors(seed=0, instances=1)
    record("criterion 7 (covariance formula)", exact_ok and rel <= 1e-4,
           f"matches benchmark matrix: {exact_ok}, inverse-curvature rel {rel:.2e} <= 1e-4",
           time.monotonic() - start, 5.0)


def test_criterion_8_clt_covariance():
    """Monte Carlo covariance of scaled errors matches the closed form within 10%."""
    start = time.monotonic()
    rel, failures = clt_covariance_error(seed=11, reps=10_000, n=10_000)
    record("criterion 8 (clt covariance)", failures == 0 and rel <= 0.10,
           f"max entrywise rel {rel:.3f} <= 0.10, failures {failures}",
           time.monotonic() - start, 600.0)


def test_criterion_9_normal_approximation_rate():
    """Kolmogorov distances decay with n and the largest size is nearly normal."""
    start = time.monotonic()
    report = berry_esseen_experiment(
        TwoByTwoParams(1.0, 1.0, 2.0), (100, 400, 1600, 6400), 5000, 42
    )
    noise = 2.0 / np.sqrt(5000)
    dists = report.kolmogorov_distances
    monotone = all(later <= earlier + noise for earlier, later in zip(dists, dists[1:]))
    record("criterion 9 (normal approximation rate)", monotone and dists[-1] <= 0.05,
           f"distances {[round(d, 4) for d in dists]} nonincreasing within {noise:.3f}, "
           f"final {dists[-1]:.4f} <= 0.05",
           time.monotonic() - start, 900.0)


def test_criterion_10_consistency_trend():
    """Median orbit distance strictly decreases with n for both estimator routes."""
    start = time.monotonic()
    kernel2 = validate_kernel(DENSE2, "ensemble")
    table2 = enumerate_distribution(kernel2)
    medians2 = []
    for n in (300, 3000, 30_000):
        dists = []
        for seed in range(100):
            rng = make_rng(seed * 1000 + n)
            cells = rng.multinomial(n, table2.probs) / n
            (a, b, c), _, ok = _mle_2x2_arrays(cells)
            estimate = np.array([[float(a), float(b)], [float(b), float(c)]])
            dists.append(sign_distance(estimate, kernel2)[0] if bool(ok) else np.inf)
        medians2.append(float(np.median(dists)))
    closed_ok = medians2[0] > medians2[1] > medians2[2]

    kernel3 = random_irreducible_ensemble(3, np.random.default_rng(5))
    table3 = enumerate_distribution(kernel3)
    medians3 = []
    for n in (300, 3000, 30_000):
        dists = []
        for seed in range(100):
            rng = make_rng(seed * 7919 + n)
            counts = rng.multinomial(n, table3.probs)
            ctx = LikelihoodContext(DistributionTable(counts / n))
            estimate, trace = newton_raphson(ctx, kernel3, max_iter=100)
            if trace.status == CONVERGED:
                dists.append(sign_distance(estimate, kernel3)[0])
            else:
                dists.append(np.inf)
        medians3.append(float(np.median(dists)))
    newton_ok = medians3[0] > medians3[1] > medians3[2]
    record("criterion 10 (consistency trend)", closed_ok and newton_ok,
           f"closed-form medians {[round(m, 4) for m in medians2]}, "
           f"newton medians {[round(m, 4) for m in medians3]}, both strictly decreasing",
           time.monotonic() - start, 600.0)
