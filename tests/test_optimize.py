"""Solver behavior: fixed points, convergence, reproducible pathologies."""

import numpy as np
import pytest

from dppmle.closed_form import mle_2x2
from dppmle.errors import SingularPrincipalMinor
from dppmle.experiments import SGD, TRIDIAGONAL_3, TRIDIAGONAL_3_START, preset_configs
from dppmle.kernels import (
    DistributionTable,
    enumerate_distribution,
    subset_indices,
    validate_kernel,
)
from dppmle.likelihood import LikelihoodContext, LikelihoodPoint, empirical_distribution, gradient
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


def _gather_scatter_sgd(batch, initial, eta, iters, seed, trace_every=100):
    """Reference SGD: slice L_Z by index, factorize it alone, scatter its inverse into -(L + I)^{-1}."""
    entries = np.array(initial, dtype=float)
    entries = (entries + entries.T) / 2.0
    ctx = LikelihoodContext(empirical_distribution(batch))
    picks = make_rng(seed).integers(0, len(batch), size=iters)
    eye = np.eye(entries.shape[0])
    trace = IterationTrace()
    for step in range(iters):
        if step % trace_every == 0:
            point = LikelihoodPoint(ctx, entries)
            try:
                grad_norm = float(np.linalg.norm(point.gradient()))
            except SingularPrincipalMinor:
                trace.status = DIVERGED
                break
            trace.record(entries, point.value, grad_norm)
        block = np.ix_(*[subset_indices(int(batch.masks[picks[step]]))] * 2)
        try:
            update = -np.linalg.inv(entries + eye)
            if np.linalg.slogdet(entries[block])[0] <= 0:
                trace.status = DIVERGED
                break
            update[block] += np.linalg.inv(entries[block])
        except np.linalg.LinAlgError:
            trace.status = DIVERGED
            break
        candidate = entries + eta * update
        if not np.all(np.isfinite(candidate)) or np.max(np.abs(candidate)) > BLOWUP_LIMIT:
            trace.status = DIVERGED
            break
        entries = candidate
    return (entries + entries.T) / 2.0, trace


def _assert_same_run(batch, initial, eta, iters, seed, trace_every=100):
    estimate, trace = sgd(batch, initial, eta=eta, iters=iters, seed=seed, trace_every=trace_every)
    expected, expected_trace = _gather_scatter_sgd(batch, initial, eta, iters, seed, trace_every)
    assert trace.status == expected_trace.status
    assert len(trace.iterates) == len(expected_trace.iterates)
    assert all(np.array_equal(a, b) for a, b in zip(trace.iterates, expected_trace.iterates))
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
            params, _ = mle_2x2(ctx.dist)
            moved += self._moves_from_maximizer(ctx, params.matrix())
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
        assert trace.status == MAX_ITER
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
        with pytest.raises(ValueError):
            sgd(batch, np.eye(2), eta=0.0, iters=10, seed=0)

    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_non_finite_eta_rejected(self, eta):
        batch = SampleBatch(2, np.zeros(5, dtype=int), 0, "enumeration")
        with pytest.raises(ValueError, match="positive finite"):
            sgd(batch, np.eye(2), eta=eta, iters=10, seed=0)

    def test_initial_size_must_match(self):
        batch = SampleBatch(2, np.array([0, 3, 1]), 0, "enumeration")
        with pytest.raises(ValueError):
            sgd(batch, np.eye(3), eta=0.1, iters=10, seed=0)


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
