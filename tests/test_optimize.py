"""Solver behavior: fixed points, convergence, reproducible pathologies."""

import numpy as np
import pytest

from dppmle.closed_form import mle_2x2
from dppmle.errors import ConfigError, SingularPrincipalMinor
from dppmle.experiments import (
    NEWTON,
    SGD,
    TRIDIAGONAL_3,
    TRIDIAGONAL_3_START,
    estimate,
    preset_configs,
)
from dppmle.kernels import (
    DistributionTable,
    enumerate_distribution,
    subset_indices,
    validate_kernel,
)
from dppmle.likelihood import (
    LikelihoodContext,
    LikelihoodPoint,
    empirical_distribution,
    gradient,
    hessian,
    log_likelihood,
    vech_embedding,
)
from dppmle.optimize import (
    BLOWUP_LIMIT,
    CONVERGED,
    DIVERGED,
    MAX_ITER,
    SINGULAR,
    IterationTrace,
    _blown_up,
    _lu_sign,
    newton_raphson,
    sgd,
)
from dppmle.sampling import SampleBatch, make_rng, sample_batch
from dppmle.verify_support import random_irreducible_ensemble

DENSE2 = np.array([[1.0, 1.0], [1.0, 2.0]])
DIAG3 = np.diag([7.0, 5.0, 9.0])
# LU of this start swaps rows 0 and 1 and has the pivots 1, 0.99, -2: det > 0
# although both the permutation and the pivots are odd; its {0, 1} minor has det < 0.
SWAPPED_START = np.array([[0.1, 1.0, 0.0], [1.0, 0.1, 0.0], [0.0, 0.0, -2.0]])
TABLE1_SGD = {c.kernel_id: c for c in preset_configs("table1") if c.method == SGD}
TABLE1_NEWTON = {c.kernel_id: c for c in preset_configs("table1") if c.method == NEWTON}


def _gather_scatter_sgd(batch, initial, eta, iters, seed, trace_every=100):
    """Reference SGD: slice L_Z by index, factorize it alone, scatter its inverse into -(L + I)^{-1}."""
    entries = np.array(initial, dtype=float)
    entries = (entries + entries.T) / 2.0
    ctx = LikelihoodContext(empirical_distribution(batch))
    picks = make_rng(seed).integers(0, len(batch), size=iters)
    eye = np.eye(entries.shape[0])
    trace = IterationTrace(steps=iters)
    for step in range(iters):
        if step % trace_every == 0:
            point = LikelihoodPoint(ctx, entries)
            try:
                grad_norm = float(np.linalg.norm(point.gradient()))
            except (SingularPrincipalMinor, np.linalg.LinAlgError):
                trace.status, trace.steps = DIVERGED, step
                break
            trace.record(entries, point.value, grad_norm)
        block = np.ix_(*[subset_indices(int(batch.masks[picks[step]]))] * 2)
        try:
            update = -np.linalg.inv(entries + eye)
            if np.linalg.slogdet(entries[block])[0] <= 0:
                trace.status, trace.steps = DIVERGED, step
                break
            update[block] += np.linalg.inv(entries[block])
        except np.linalg.LinAlgError:
            trace.status, trace.steps = DIVERGED, step
            break
        candidate = entries + eta * update
        if not np.all(np.isfinite(candidate)) or np.max(np.abs(candidate)) > BLOWUP_LIMIT:
            trace.status, trace.steps = DIVERGED, step
            break
        entries = candidate
    return (entries + entries.T) / 2.0, trace


def _textbook_newton(ctx, initial, max_iter, grad_tol=1e-8):
    """Reference Newton: the vech-chart loop over the public objective, gradient and Hessian."""
    entries = np.array(initial, dtype=float)
    candidate = entries = (entries + entries.T) / 2.0
    embed = vech_embedding(entries.shape[0])
    trace = IterationTrace()
    for step in range(max_iter + 1):
        value = log_likelihood(ctx, candidate)
        if value == -np.inf:
            trace.status, trace.steps = DIVERGED, max(step - 1, 0)
            break
        entries, grad = candidate, gradient(ctx, candidate)
        grad_norm = float(np.linalg.norm(grad))
        trace.record(entries, value, grad_norm)
        trace.steps = step
        if grad_norm <= grad_tol:
            trace.status = CONVERGED
            break
        if step == max_iter:
            break
        try:
            x = np.linalg.solve(embed.T @ hessian(ctx, entries) @ embed, embed.T @ grad.reshape(-1))
        except np.linalg.LinAlgError:
            trace.status = SINGULAR
            break
        candidate = entries - (embed @ x).reshape(grad.shape)
        if not np.all(np.isfinite(candidate)) or np.max(np.abs(candidate)) > BLOWUP_LIMIT:
            trace.status = DIVERGED
            break
    return (entries + entries.T) / 2.0, trace


def _assert_same_trace(trace, expected_trace):
    assert trace.status == expected_trace.status
    assert trace.steps == expected_trace.steps
    assert len(trace.iterates) == len(expected_trace.iterates)
    assert all(np.array_equal(a, b) for a, b in zip(trace.iterates, expected_trace.iterates))
    # bit for bit, a NaN matching a NaN
    np.testing.assert_array_equal(trace.objective, expected_trace.objective, strict=True)
    np.testing.assert_array_equal(trace.grad_norms, expected_trace.grad_norms, strict=True)


def _assert_same_run(batch, initial, eta, iters, seed, trace_every=100):
    estimate, trace = sgd(batch, initial, eta=eta, iters=iters, seed=seed, trace_every=trace_every)
    expected, expected_trace = _gather_scatter_sgd(batch, initial, eta, iters, seed, trace_every)
    _assert_same_trace(trace, expected_trace)
    assert np.array_equal(estimate.entries, expected)
    return trace.status


class TestNewton:
    def test_fixed_point_at_truth(self):
        kernel = validate_kernel(DENSE2, "ensemble")
        ctx = LikelihoodContext(enumerate_distribution(kernel))
        estimate, trace = newton_raphson(ctx, kernel, max_iter=10)
        assert trace.status == CONVERGED
        assert np.linalg.norm(estimate.entries - DENSE2) <= 1e-10

    def test_exact_diagonal_problem_decouples(self):
        # per-coordinate scalar maximizer is q/(1-q) with q the inclusion rate
        kernel = validate_kernel(DIAG3, "ensemble")
        ctx = LikelihoodContext(enumerate_distribution(kernel))
        estimate, trace = newton_raphson(ctx, np.eye(3), max_iter=100, grad_tol=1e-10)
        assert trace.status == CONVERGED
        np.testing.assert_allclose(estimate.entries, DIAG3, atol=1e-6)
        off_diag = estimate.entries[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off_diag, 0.0, atol=1e-9)

    def test_monotone_tail_near_optimum(self, rng):
        kernel = validate_kernel(DENSE2, "ensemble")
        ctx = LikelihoodContext(enumerate_distribution(kernel))
        start = DENSE2 + 0.05 * np.array([[1.0, -0.5], [-0.5, 0.8]])
        _, trace = newton_raphson(ctx, start, max_iter=50, grad_tol=1e-12)
        values = [
            v for v, g in zip(trace.objective, trace.grad_norms) if g < 0.1
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_trace_lists_share_length(self):
        kernel = validate_kernel(DENSE2, "ensemble")
        ctx = LikelihoodContext(enumerate_distribution(kernel))
        _, trace = newton_raphson(ctx, np.eye(2), max_iter=30)
        assert len(trace.iterates) == len(trace.objective) == len(trace.grad_norms)

    def test_csv_schema(self):
        kernel = validate_kernel(DENSE2, "ensemble")
        ctx = LikelihoodContext(enumerate_distribution(kernel))
        _, trace = newton_raphson(ctx, np.eye(2), max_iter=5)
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "iter,objective,grad_norm"
        assert len(lines) == len(trace.objective) + 1

    def test_initial_size_must_match(self):
        ctx = LikelihoodContext(enumerate_distribution(validate_kernel(DENSE2, "ensemble")))
        with pytest.raises(ValueError):
            newton_raphson(ctx, np.eye(3), max_iter=5)

    @pytest.mark.parametrize("trace_every", [0, -3])
    def test_trace_every_below_one_rejected(self, trace_every):
        ctx = LikelihoodContext(enumerate_distribution(validate_kernel(DENSE2, "ensemble")))
        with pytest.raises(ConfigError, match="trace_every"):
            newton_raphson(ctx, np.eye(2), max_iter=5, trace_every=trace_every)

    def test_flat_curvature_ends_singular(self):
        # at I the curvatures in a and c are 1/4 - p1 and 1/4 - p2, both 0 here, so the
        # vech curvature is diag(0, 1/2, 0): the first solve fails and I comes back
        ctx = LikelihoodContext(DistributionTable(np.array([0.5, 0.25, 0.25, 0.0])))
        estimate, trace = newton_raphson(ctx, np.eye(2))
        assert trace.status == SINGULAR
        assert len(trace.iterates) == 1
        assert np.array_equal(estimate.entries, np.eye(2))

    def test_blow_up_ends_diverged_at_last_valid_iterate(self):
        # from I the objective is convex along the diagonal and its gradient decays
        # like 1/a, so Newton heads for infinity: the diagonal about doubles per step
        # until the 26th iterate's candidate passes BLOWUP_LIMIT
        ctx = LikelihoodContext(DistributionTable(np.array([0.9, 0.05, 0.05, 0.0])))
        estimate, trace = newton_raphson(ctx, np.eye(2))
        assert trace.status == DIVERGED
        assert len(trace.iterates) == 26
        assert np.array_equal(estimate.entries, trace.iterates[-1])
        assert BLOWUP_LIMIT / 2 < estimate.entries[0, 0] == estimate.entries[1, 1] <= BLOWUP_LIMIT
        assert estimate.entries[0, 1] == 0.0
        # one more step from there is the rejected candidate
        _, again = newton_raphson(ctx, estimate, max_iter=1)
        assert again.status == DIVERGED and len(again.iterates) == 1

    def test_singular_supported_minor_at_start_ends_diverged(self):
        # every subset is drawn and the start's {0, 1} minor is singular, so the
        # first gradient fails before anything is recorded
        ctx = LikelihoodContext(DistributionTable(np.full(4, 0.25)))
        estimate, trace = newton_raphson(ctx, np.ones((2, 2)))
        assert trace.status == DIVERGED
        assert trace.iterates == [] and trace.objective == [] and trace.grad_norms == []
        assert np.array_equal(estimate.entries, np.ones((2, 2)))

    @pytest.mark.parametrize("probs, start", [
        ([0.0, 0.0, 1.0, 0.0], [[-1.0, 0.0], [0.0, 2.0]]),  # L + I singular, the {1} minor positive
        ([0.25] * 4, [[1.0, 3.0], [3.0, 1.0]]),  # nonsingular, but the {0, 1} minor is -8
    ], ids=["singular-normalizer", "negative-minor"])
    def test_start_outside_the_domain_ends_diverged(self, probs, start):
        ctx = LikelihoodContext(DistributionTable(np.array(probs)))
        estimate, trace = newton_raphson(ctx, np.array(start))
        assert trace.status == DIVERGED
        assert trace.iterates == [] and trace.objective == [] and trace.grad_norms == []
        assert np.array_equal(estimate.entries, start)

    @pytest.mark.parametrize("probs, start, max_iter, status", [
        (None, DENSE2 + 0.05 * np.array([[1.0, -0.5], [-0.5, 0.8]]), 100, CONVERGED),
        (None, DENSE2 + 0.05 * np.array([[1.0, -0.5], [-0.5, 0.8]]), 2, MAX_ITER),
        ([0.25] * 4, [[1.0, 3.0], [3.0, 1.0]], 100, DIVERGED),
        ([0.25, 0.21, 0.48, 0.06], [[0.6, 0.4], [0.4, 1.0]], 100, DIVERGED),
        ([0.5, 0.25, 0.25, 0.0], np.eye(2), 100, SINGULAR),
        ([0.9, 0.05, 0.05, 0.0], np.eye(2), 100, DIVERGED),
    ], ids=["converged", "max-iter", "diverged-at-start", "diverged-later", "singular", "blow-up"])
    def test_steps_index_the_returned_point(self, probs, start, max_iter, status):
        table = enumerate_distribution(validate_kernel(DENSE2, "ensemble")) if probs is None \
            else DistributionTable(np.array(probs))
        ctx = LikelihoodContext(table)
        estimate, trace = newton_raphson(ctx, np.array(start), max_iter=max_iter)
        assert trace.status == status
        assert trace.steps == max(len(trace.iterates) - 1, 0)
        if trace.iterates:
            assert np.array_equal(estimate.entries, trace.iterates[-1])
        # the count does not depend on how thinly the run is traced
        _, thinned = newton_raphson(ctx, np.array(start), max_iter=max_iter, trace_every=4)
        assert (thinned.status, thinned.steps) == (status, trace.steps)

    def test_empirical_dense2_converges_to_mle(self):
        kernel = validate_kernel(DENSE2, "ensemble")
        batch = sample_batch(kernel, 30_000, 0, "enumeration")
        ctx = LikelihoodContext(empirical_distribution(batch))
        estimate, trace = newton_raphson(ctx, np.array([[0.5, 0.1], [0.1, 0.5]]))
        assert trace.status == CONVERGED
        assert np.linalg.norm(gradient(ctx, estimate.entries)) <= 1e-8
        # the maximizer sits near the truth at this sample size
        assert np.max(np.abs(estimate.entries - DENSE2)) < 0.1

    @staticmethod
    def _moves_from_maximizer(ctx, start) -> list:
        """(status, drift) when ten Newton steps from an exact maximizer end badly or move."""
        estimate, trace = newton_raphson(ctx, start, max_iter=10, grad_tol=0.0)
        drift = float(np.max(np.abs(estimate.entries - start)))
        return [(trace.status, drift)] if trace.status in (SINGULAR, DIVERGED) or drift > 1e-9 else []

    def test_holds_at_closed_form_maximizer(self):
        # At every interior 2x2 MLE the N^2 Hessian annihilates the antisymmetric
        # direction; a step in the upper-triangle chart never meets that null space.
        kernel = validate_kernel(DENSE2, "ensemble")
        moved = []
        for seed in range(30):
            batch = sample_batch(kernel, 30_000, seed, "enumeration")
            ctx = LikelihoodContext(empirical_distribution(batch))
            estimate, _ = mle_2x2(ctx.dist)
            moved += self._moves_from_maximizer(ctx, estimate.entries)
        assert moved == []

    def test_holds_at_truth_of_theoretical_table(self):
        rng = np.random.default_rng(3)
        moved = []
        for n in (2, 3):
            for _ in range(50):
                kernel = random_irreducible_ensemble(n, rng)
                ctx = LikelihoodContext(enumerate_distribution(kernel))
                moved += self._moves_from_maximizer(ctx, kernel.entries)
        assert moved == []


class TestSgd:
    def test_one_step_all_full_draws(self):
        batch = SampleBatch(2, np.full(10, 0b11), 0, "enumeration")
        estimate, _ = sgd(batch, np.eye(2), eta=0.1, iters=1, seed=0, trace_every=10**9)
        np.testing.assert_allclose(estimate.entries, 1.05 * np.eye(2))

    def test_one_step_all_empty_draws(self):
        batch = SampleBatch(2, np.zeros(10, dtype=int), 0, "enumeration")
        estimate, _ = sgd(batch, np.eye(2), eta=0.1, iters=1, seed=0, trace_every=10**9)
        np.testing.assert_allclose(estimate.entries, 0.95 * np.eye(2))

    def test_determinism(self):
        kernel = validate_kernel(DIAG3, "ensemble")
        batch = sample_batch(kernel, 2000, 4, "enumeration")
        a, trace_a = sgd(batch, np.eye(3), eta=0.1, iters=2000, seed=11)
        b, trace_b = sgd(batch, np.eye(3), eta=0.1, iters=2000, seed=11)
        np.testing.assert_array_equal(a.entries, b.entries)
        assert trace_a.objective == trace_b.objective

    def test_diagonal_recovery(self):
        kernel = validate_kernel(DIAG3, "ensemble")
        batch = sample_batch(kernel, 30_000, 3, "enumeration")
        estimate, trace = sgd(batch, np.eye(3), eta=0.1, iters=60_000, seed=3,
                              trace_every=5000)
        assert trace.status == MAX_ITER and trace.steps == 60_000
        np.testing.assert_allclose(estimate.entries.diagonal(), [7.0, 5.0, 9.0], atol=0.2)
        off_diag = estimate.entries[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off_diag, 0.0, atol=1e-12)

    def test_single_step_unbiasedness(self):
        # grouped by draw value, the average update reproduces the batch gradient
        kernel = validate_kernel(DENSE2, "ensemble")
        batch = sample_batch(kernel, 5000, 5, "enumeration")
        ctx = LikelihoodContext(empirical_distribution(batch))
        point = np.array([[0.5, 0.05], [0.05, 0.6]])
        expected = gradient(ctx, point)
        rng = make_rng(77)
        picks = rng.integers(0, len(batch), size=100_000)
        pick_masks = batch.masks[picks]
        mean_update = -np.linalg.inv(point + np.eye(2))
        for mask in range(4):
            weight = np.mean(pick_masks == mask)
            if mask == 0 or weight == 0:
                continue
            idx = subset_indices(mask)
            padded = np.zeros((2, 2))
            padded[np.ix_(idx, idx)] = np.linalg.inv(point[np.ix_(idx, idx)])
            mean_update += weight * padded
        rel = np.linalg.norm(mean_update - expected) / np.linalg.norm(expected)
        assert rel <= 0.02

    def test_unstable_on_repulsive_kernel(self):
        # the plain update blows up on the strongly repulsive 2x2 benchmark
        kernel = validate_kernel(DENSE2, "ensemble")
        batch = sample_batch(kernel, 30_000, 0, "enumeration")
        _, trace = sgd(batch, np.array([[0.5, 0.1], [0.1, 0.5]]), eta=0.1,
                       iters=60_000, seed=0)
        assert trace.status == DIVERGED

    def test_eta_validation(self):
        batch = SampleBatch(2, np.zeros(5, dtype=int), 0, "enumeration")
        with pytest.raises(ConfigError):
            sgd(batch, np.eye(2), eta=0.0, iters=10, seed=0)

    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_non_finite_eta_rejected(self, eta):
        batch = SampleBatch(2, np.zeros(5, dtype=int), 0, "enumeration")
        with pytest.raises(ConfigError, match="positive finite"):
            sgd(batch, np.eye(2), eta=eta, iters=10, seed=0)

    @pytest.mark.parametrize("eta", [True, np.array([0.1]), "0.1", 10**400],
                             ids=["bool", "array", "string", "huge-int"])
    def test_eta_is_a_real_number(self, eta):
        # the step-size rule that configs and estimate apply
        batch = SampleBatch(2, np.zeros(5, dtype=int), 0, "enumeration")
        with pytest.raises(ConfigError, match="^eta: "):
            sgd(batch, np.eye(2), eta=eta, iters=10, seed=0)

    def test_singular_normalizer_ends_diverged(self):
        # every draw is {1}, whose minor 2 is positive, but L + I = diag(0, 3) is singular
        batch = SampleBatch(2, np.full(5, 0b10), 0, "enumeration")
        assert _assert_same_run(batch, np.diag([-1.0, 2.0]), 0.1, 10, 0) == DIVERGED
        estimate, trace = sgd(batch, np.diag([-1.0, 2.0]), eta=0.1, iters=10, seed=0)
        assert trace.iterates == [] and trace.steps == 0
        assert np.array_equal(estimate.entries, np.diag([-1.0, 2.0]))

    def test_diverged_run_counts_the_steps_it_took(self):
        # table1's dense2x2 SGD cell at seed 0 stops at step 1767 of its 60000; every
        # point before the failed update is traced, so the trace holds 1768
        config = TABLE1_SGD["dense2x2"]
        batch = sample_batch(validate_kernel(config.kernel, "ensemble"), 30_000, 0, config.sampler)
        _, status, iterations = estimate(SGD, batch, config.initial, config.iterations, config.eta, 0)
        _, trace = sgd(batch, config.initial, eta=config.eta, iters=config.iterations, seed=0, trace_every=1)
        assert status == trace.status == DIVERGED
        assert iterations == trace.steps == len(trace.iterates) - 1 == 1767

    def test_initial_size_must_match(self):
        batch = SampleBatch(2, np.array([0, 3, 1]), 0, "enumeration")
        with pytest.raises(ValueError):
            sgd(batch, np.eye(3), eta=0.1, iters=10, seed=0)

    @pytest.mark.parametrize("trace_every", [0, -3])
    def test_trace_every_below_one_rejected(self, trace_every):
        batch = SampleBatch(2, np.array([0, 3, 1]), 0, "enumeration")
        with pytest.raises(ConfigError, match="trace_every"):
            sgd(batch, np.eye(2), eta=0.1, iters=10, seed=0, trace_every=trace_every)


@pytest.mark.parametrize("solver", ["newton", "sgd"])
def test_start_at_identity_keeps_estimate_diagonal(solver):
    # the gradient at a diagonal kernel is diagonal (see test_likelihood), and so is
    # every step: from I, without an initial kernel, a dense truth comes back diagonal
    batch = sample_batch(validate_kernel(DENSE2, "ensemble"), 3000, 0, "enumeration")
    if solver == "newton":
        estimate, _ = newton_raphson(LikelihoodContext(empirical_distribution(batch)), np.eye(2))
    else:
        estimate, _ = sgd(batch, np.eye(2), iters=3000, seed=0)
    assert estimate.entries[0, 1] == estimate.entries[1, 0] == 0.0


@pytest.mark.parametrize("budget", [10**20, 2.5, -1, 0, True], ids=["1e20", "float", "negative", "zero", "bool"])
@pytest.mark.parametrize("solver", ["newton", "sgd"])
def test_iteration_budget_is_a_count(solver, budget):
    # the count rule of sample sizes and replications; unchecked, numpy or range fails or runs no step
    batch = SampleBatch(2, np.array([0, 3, 1]), 0, "enumeration")
    with pytest.raises(ConfigError, match="iterations"):
        if solver == "newton":
            newton_raphson(LikelihoodContext(empirical_distribution(batch)), np.eye(2), max_iter=budget)
        else:
            sgd(batch, np.eye(2), iters=budget)


@pytest.mark.parametrize("trace_every", [True, 2.5, "3", 0, -3, 2**53 + 1],
                         ids=["bool", "float", "string", "zero", "negative", "2-pow-53-plus-1"])
@pytest.mark.parametrize("solver", ["newton", "sgd"])
def test_trace_every_is_a_count(solver, trace_every):
    batch = SampleBatch(2, np.array([0, 3, 1]), 0, "enumeration")
    with pytest.raises(ConfigError, match="^trace_every"):
        if solver == "newton":
            newton_raphson(LikelihoodContext(empirical_distribution(batch)), np.eye(2), trace_every=trace_every)
        else:
            sgd(batch, np.eye(2), iters=10, trace_every=trace_every)


@pytest.mark.parametrize("grad_tol, message", [
    (np.nan, "grad_tol must be a nonnegative finite number, not nan"),
    (np.inf, "grad_tol must be a nonnegative finite number, not inf"),
    (-1e-8, "grad_tol must be a nonnegative finite number, not -1e-08"),
    ("x", "grad_tol: 'x' is not a real number"),
    (True, "grad_tol: True is not a real number"),
    (10**400, "grad_tol: int too large to convert to float"),
], ids=["nan", "inf", "negative", "string", "bool", "huge-int"])
def test_grad_tol_is_a_finite_real_at_least_zero(grad_tol, message):
    ctx = LikelihoodContext(enumerate_distribution(validate_kernel(DENSE2, "ensemble")))
    with pytest.raises(ConfigError) as info:
        newton_raphson(ctx, np.eye(2), grad_tol=grad_tol)
    assert str(info.value) == message


def _empty_then_singleton_batch() -> SampleBatch:
    """Two items; seed 1 draws the empty set at step 0 and {0} from step 1 on."""
    picks = make_rng(1).integers(0, 10, size=2)
    assert picks[0] != picks[1]
    masks = np.full(10, 0b01)
    masks[picks[0]] = 0
    return SampleBatch(2, masks, 0, "enumeration")


class TestStepHelpers:
    @pytest.mark.parametrize("position", [0, 4, 8])
    def test_nan_anywhere_is_blown_up(self, position):
        candidate = np.ones(9)
        candidate[position] = np.nan
        assert _blown_up(candidate.reshape(3, 3))
        assert _blown_up(np.asfortranarray(candidate.reshape(3, 3)))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinity_is_blown_up(self, value):
        candidate = np.eye(3)
        candidate[1, 2] = value
        assert _blown_up(candidate)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_limit_is_inclusive(self, sign):
        candidate = np.eye(3)
        candidate[2, 0] = sign * BLOWUP_LIMIT
        assert not _blown_up(candidate)
        candidate[2, 0] = sign * np.nextafter(BLOWUP_LIMIT, np.inf)
        assert _blown_up(candidate)

    def test_finite_sum_overflow_is_blown_up(self):
        assert _blown_up(np.full((3, 3), 1e308))

    def test_lu_sign_matches_slogdet(self):
        from scipy.linalg.lapack import dgetrf

        rng = np.random.default_rng(5)
        seen = set()
        for n in range(1, 7):
            for _ in range(200):
                matrix = rng.standard_normal((n, n))
                if rng.random() < 0.5:
                    # diagonally dominant, so no row swap, with random pivot signs
                    matrix += np.diag(rng.choice([-1.0, 1.0], n) * (n + 2.0))
                lu, piv, info = dgetrf(matrix)
                assert info == 0
                identity = piv.tolist() == list(range(n))
                negatives = int(np.sum(lu.diagonal() < 0))
                seen.add((identity, negatives % 2))
                assert _lu_sign(lu, piv) == np.linalg.slogdet(matrix)[0]
        assert seen == {(True, 0), (True, 1), (False, 0), (False, 1)}


class TestEmbeddedStep:
    """The embedded-minor step reproduces the gather/scatter step bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kernel_id", sorted(TABLE1_SGD))
    def test_table1_trajectories(self, kernel_id, seed):
        config = TABLE1_SGD[kernel_id]
        truth = validate_kernel(config.kernel, "ensemble")
        batch = sample_batch(truth, 30_000, seed, config.sampler)
        status = _assert_same_run(batch, config.initial, config.eta, 3000, seed)
        if kernel_id == "dense2x2":
            assert status == DIVERGED

    @pytest.mark.parametrize("eta", [0.01, 0.1])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n_ground", [4, 5])
    def test_random_irreducible_kernels(self, n_ground, seed, eta):
        truth = random_irreducible_ensemble(n_ground, np.random.default_rng(seed))
        batch = sample_batch(truth, 2000, seed, "enumeration")
        _assert_same_run(batch, np.eye(n_ground), eta, 2000, seed)

    def test_blow_up_after_a_valid_step(self):
        # step 0 takes I to 2^-30 I; step 1 inverts the {0} minor, so the
        # candidate's first entry is about 2.1e9, finite and past the limit
        batch = _empty_then_singleton_batch()
        eta = 2.0 * (1.0 - 2.0**-30)
        assert _assert_same_run(batch, np.eye(2), eta, 3, 1, trace_every=1) == DIVERGED
        _, trace = sgd(batch, np.eye(2), eta=eta, iters=3, seed=1, trace_every=1)
        assert len(trace.iterates) == 2

    def test_non_finite_after_a_valid_step(self):
        # the subnormal first entry survives step 0; step 1 inverts it to inf
        batch = _empty_then_singleton_batch()
        start = np.diag([1e-315, 1.0])
        eta = 5e-324
        assert _assert_same_run(batch, start, eta, 3, 1, trace_every=1) == DIVERGED
        _, trace = sgd(batch, start, eta=eta, iters=3, seed=1, trace_every=1)
        assert len(trace.iterates) == 2

    def test_empty_and_full_draws(self):
        batch = sample_batch(validate_kernel(TRIDIAGONAL_3, "ensemble"), 2000, 0, "enumeration")
        assert {0, 7} <= set(batch.masks.tolist())
        assert _assert_same_run(batch, TRIDIAGONAL_3_START, 0.1, 3000, 0) == MAX_ITER

    def test_row_swap_and_negative_pivot_cancel(self):
        batch = SampleBatch(3, np.full(10, 0b111), 0, "enumeration")
        assert _assert_same_run(batch, SWAPPED_START, 0.01, 20, 0) == MAX_ITER

    def test_row_swap_alone_diverges(self):
        batch = SampleBatch(3, np.full(10, 0b011), 0, "enumeration")
        assert _assert_same_run(batch, SWAPPED_START, 0.01, 20, 0) == DIVERGED

    def test_zero_pivot_in_drawn_minor_diverges(self):
        # step 0 draws the empty set and takes I to exactly 0; step 1 draws {0},
        # so M = diag(0, 1, 1) and its LU reports a zero pivot. Only step 0 is
        # traced, so the trace's likelihood cannot report the singular minor first.
        picks = make_rng(1).integers(0, 10, size=2)
        assert picks[0] != picks[1]
        masks = np.full(10, 0b001)
        masks[picks[0]] = 0
        batch = SampleBatch(3, masks, 0, "enumeration")
        assert _assert_same_run(batch, np.eye(3), 2.0, 2, 1, trace_every=10**9) == DIVERGED

    def test_zero_pivot_in_normalizer_diverges(self):
        # one empty-draw step takes I to exactly -I, so L + I = 0 at step 1
        batch = SampleBatch(3, np.zeros(10, dtype=int), 0, "enumeration")
        assert _assert_same_run(batch, np.eye(3), 4.0, 2, 0, trace_every=10**9) == DIVERGED


class TestNewtonPin:
    """newton_raphson reproduces the textbook Newton loop bit for bit."""

    @staticmethod
    def assert_same_run(ctx, initial, max_iter):
        estimate, trace = newton_raphson(ctx, initial, max_iter=max_iter)
        expected, expected_trace = _textbook_newton(ctx, initial, max_iter)
        _assert_same_trace(trace, expected_trace)
        assert np.array_equal(estimate.entries, expected)
        return trace.status

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kernel_id", sorted(TABLE1_NEWTON))
    def test_table1_cells(self, kernel_id, seed):
        config = TABLE1_NEWTON[kernel_id]
        truth = validate_kernel(config.kernel, "ensemble")
        batch = sample_batch(truth, 30_000, seed, config.sampler)
        ctx = LikelihoodContext(empirical_distribution(batch))
        assert self.assert_same_run(ctx, config.initial, config.iterations) == CONVERGED

    def test_clt_newton_tables(self):
        # The two n = 5 kernels of the clt-newton benchmark, Newton from the
        # truth as the CLT driver runs it; kernel 1's tables at seed 1 hold a
        # run that wanders to the iteration budget.
        statuses = set()
        for kernel_seed, table_seed in ((0, 0), (1, 1)):
            truth = random_irreducible_ensemble(5, np.random.default_rng(kernel_seed))
            tables = make_rng(table_seed).multinomial(
                30_000, enumerate_distribution(truth).probs, size=20) / 30_000
            for table in tables:
                ctx = LikelihoodContext(DistributionTable(table))
                statuses.add(self.assert_same_run(ctx, truth.entries, 50))
        assert statuses == {CONVERGED, DIVERGED, MAX_ITER}
