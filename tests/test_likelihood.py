"""Likelihood surface: values, derivatives, and their finite-difference oracles."""

import numpy as np
import pytest

from dppmle.asymptotics import symmetric_chart_basis
from dppmle.errors import EmptyBatch, SingularPrincipalMinor
from dppmle.kernels import (
    DistributionTable,
    SignDiagonal,
    enumerate_distribution,
    kl_divergence,
    validate_kernel,
)
from dppmle.likelihood import (
    LikelihoodContext,
    empirical_distribution,
    gradient,
    hessian,
    kl_gap,
    log_likelihood,
)
from dppmle.numdiff import fd_gradient, fd_hessian
from dppmle.sampling import SampleBatch, sample_batch
from dppmle.verify_support import random_irreducible_ensemble
from conftest import random_kernel, random_table

DENSE2 = np.array([[1.0, 1.0], [1.0, 2.0]])


def exact_ctx(entries) -> LikelihoodContext:
    return LikelihoodContext(enumerate_distribution(validate_kernel(entries, "ensemble")))


class TestEmpiricalDistribution:
    def test_counting(self):
        batch = SampleBatch(2, np.array([0, 1, 0, 3]), 0, "enumeration")
        table = empirical_distribution(batch)
        np.testing.assert_allclose(table.probs, [0.5, 0.25, 0.0, 0.25])

    def test_single_draw(self):
        batch = SampleBatch(2, np.array([2]), 0, "enumeration")
        np.testing.assert_allclose(empirical_distribution(batch).probs, [0, 0, 1, 0])

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            empirical_distribution(SampleBatch(2, np.array([], dtype=int), 0, "enumeration"))

    def test_converges_to_exact_table(self):
        kernel = validate_kernel(DENSE2, "ensemble")
        table = enumerate_distribution(kernel)
        batch = sample_batch(kernel, 100_000, 13, "enumeration")
        emp = empirical_distribution(batch)
        assert 0.5 * np.abs(emp.probs - table.probs).sum() <= 0.01


class TestLogLikelihood:
    def test_uniform_value(self):
        ctx = exact_ctx(np.eye(2))
        assert log_likelihood(ctx, np.eye(2)) == pytest.approx(-np.log(4))

    def test_dense2_value_at_truth(self):
        ctx = exact_ctx(DENSE2)
        expected = 3 * 0.2 * np.log(0.2) + 0.4 * np.log(0.4)
        assert log_likelihood(ctx, DENSE2) == pytest.approx(expected)
        assert log_likelihood(ctx, DENSE2) == pytest.approx(-1.33217, abs=1e-5)

    def test_sign_orbit_invariance(self):
        ctx = exact_ctx(DENSE2)
        flipped = SignDiagonal(0b01, 2).conjugate(DENSE2)
        assert log_likelihood(ctx, flipped) == pytest.approx(log_likelihood(ctx, DENSE2))

    def test_truth_dominates(self, rng):
        ctx = exact_ctx(DENSE2)
        peak = log_likelihood(ctx, DENSE2)
        for _ in range(20):
            other = random_kernel(2, rng)
            assert log_likelihood(ctx, other) <= peak + 1e-12

    def test_minus_infinity_signal(self):
        ctx = LikelihoodContext(DistributionTable(2, np.array([0.0, 0.0, 0.0, 1.0])))
        indefinite = np.array([[1.0, 3.0], [3.0, 1.0]])  # det < 0 on the supported pair
        assert log_likelihood(ctx, indefinite) == -np.inf


class TestGradient:
    def test_zero_at_truth_identity(self):
        ctx = exact_ctx(np.eye(2))
        np.testing.assert_allclose(gradient(ctx, np.eye(2)), 0.0, atol=1e-14)

    def test_zero_at_truth_dense2(self):
        ctx = exact_ctx(DENSE2)
        np.testing.assert_allclose(gradient(ctx, DENSE2), 0.0, atol=1e-12)

    def test_point_mass_on_full_set(self):
        ctx = LikelihoodContext(DistributionTable(2, np.array([0.0, 0.0, 0.0, 1.0])))
        np.testing.assert_allclose(gradient(ctx, np.eye(2)), 0.5 * np.eye(2))

    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 4))
            kernel = random_kernel(n, rng, jitter=0.3)
            ctx = LikelihoodContext(random_table(n, rng))
            analytic = gradient(ctx, kernel)
            numeric = fd_gradient(ctx, kernel)
            np.testing.assert_allclose(
                analytic, numeric, atol=1e-6, rtol=1e-6,
            )

    def test_symmetry(self, rng):
        for _ in range(10):
            kernel = random_kernel(3, rng)
            ctx = LikelihoodContext(random_table(3, rng))
            g = gradient(ctx, kernel)
            assert np.max(np.abs(g - g.T)) <= 1e-10

    def test_sign_equivariance(self, rng):
        # conjugating the kernel conjugates the gradient when the table is orbit-invariant
        kernel = random_kernel(3, rng)
        ctx = LikelihoodContext(enumerate_distribution(random_kernel(3, rng)))
        for signs in range(8):
            d = SignDiagonal(signs, 3)
            lhs = gradient(ctx, d.conjugate(kernel.entries))
            rhs = d.conjugate(gradient(ctx, kernel.entries))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_stationarity_random_truth(self, rng):
        for _ in range(10):
            kernel = random_irreducible_ensemble(3, rng)
            ctx = LikelihoodContext(enumerate_distribution(kernel))
            assert np.linalg.norm(gradient(ctx, kernel)) <= 1e-10


class TestHessian:
    def test_point_mass_on_empty_set(self):
        # only the normalizer term survives: B otimes B with B = I/2
        ctx = LikelihoodContext(DistributionTable(2, np.array([1.0, 0.0, 0.0, 0.0])))
        h = hessian(ctx, np.eye(2))
        np.testing.assert_allclose(h, 0.25 * np.eye(4))

    def test_negative_definite_on_symmetric_chart_at_truth(self):
        ctx = exact_ctx(DENSE2)
        h = hessian(ctx, DENSE2)
        basis = symmetric_chart_basis(2)
        restricted = basis.T @ h @ basis
        eigs = np.linalg.eigvalsh((restricted + restricted.T) / 2)
        assert eigs.max() < -1e-3

    def test_concavity_at_random_irreducible_truth(self, rng):
        for n in (2, 3):
            kernel = random_irreducible_ensemble(n, rng)
            ctx = LikelihoodContext(enumerate_distribution(kernel))
            h = hessian(ctx, kernel)
            basis = symmetric_chart_basis(n)
            restricted = basis.T @ h @ basis
            eigs = np.linalg.eigvalsh((restricted + restricted.T) / 2)
            assert eigs.max() < 0

    def test_antisymmetric_null_direction_at_exact_tables(self):
        # the score is a symmetric matrix a.s., so exact tables annihilate
        # antisymmetric directions; this pins the pseudo-inverse convention
        ctx = exact_ctx(DENSE2)
        h = hessian(ctx, DENSE2)
        v = np.array([0.0, 1.0, -1.0, 0.0])
        np.testing.assert_allclose(h @ v, 0.0, atol=1e-12)

    def test_matrix_symmetry(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 4))
            kernel = random_kernel(n, rng)
            ctx = LikelihoodContext(random_table(n, rng))
            h = hessian(ctx, kernel)
            assert np.max(np.abs(h - h.T)) <= 1e-8

    def test_matches_differentiated_gradient(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 4))
            kernel = random_kernel(n, rng, jitter=0.3)
            ctx = LikelihoodContext(random_table(n, rng))
            analytic = hessian(ctx, kernel)
            numeric = fd_hessian(ctx, kernel)
            np.testing.assert_allclose(analytic, numeric, atol=1e-6, rtol=1e-6)


class TestKlGap:
    def test_zero_at_truth_and_orbit(self):
        ctx = exact_ctx(DENSE2)
        assert kl_gap(ctx, DENSE2) == pytest.approx(0.0, abs=1e-12)
        flipped = SignDiagonal(0b10, 2).conjugate(DENSE2)
        assert kl_gap(ctx, flipped) == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_kl_divergence(self):
        truth = validate_kernel(DENSE2, "ensemble")
        other = validate_kernel(np.eye(2), "ensemble")
        ctx = LikelihoodContext(enumerate_distribution(truth))
        via_tables = kl_divergence(
            enumerate_distribution(truth), enumerate_distribution(other)
        )
        assert kl_gap(ctx, other) == pytest.approx(via_tables, abs=1e-12)

    def test_nonnegative_random(self, rng):
        ctx = exact_ctx(DENSE2)
        for _ in range(20):
            other = random_kernel(2, rng)
            assert kl_gap(ctx, other) >= -1e-12


class TestBatchedSupport:
    """Several masks per size, and sizes with one mask or none."""

    @staticmethod
    def sparse_table(n, rng) -> DistributionTable:
        sizes = np.array([int(m).bit_count() for m in range(1 << n)])
        single, absent = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        keep = rng.random(1 << n) < 0.5
        keep[sizes == absent] = False
        keep[sizes == single] = False
        keep[rng.choice(np.nonzero(sizes == single)[0])] = True
        probs = np.where(keep, rng.random(1 << n), 0.0)
        return DistributionTable(n, probs / probs.sum())

    @pytest.mark.parametrize("n", [5, 6])
    def test_matches_finite_differences(self, n, rng):
        for _ in range(3):
            kernel = random_kernel(n, rng, jitter=0.3)
            ctx = LikelihoodContext(self.sparse_table(n, rng))
            np.testing.assert_allclose(
                gradient(ctx, kernel), fd_gradient(ctx, kernel), atol=1e-6, rtol=1e-6,
            )
            np.testing.assert_allclose(
                hessian(ctx, kernel), fd_hessian(ctx, kernel), atol=1e-6, rtol=1e-6,
            )

    def test_singular_supported_minor(self):
        # minors {0,1,2} (mask 7, size 3) and {0,3} (mask 9, size 2) are
        # exactly singular; {0,1} (mask 3) is the identity
        entries = np.array([
            [1.0, 0.0, 1.0, 1.0],
            [0.0, 1.0, 1.0, 0.0],
            [1.0, 1.0, 2.0, 0.0],
            [1.0, 0.0, 0.0, 1.0],
        ])
        probs = np.zeros(16)
        probs[[0, 3, 7, 9]] = 0.25
        ctx = LikelihoodContext(DistributionTable(4, probs))
        with pytest.raises(SingularPrincipalMinor) as info:
            gradient(ctx, entries)
        assert info.value.mask == 7
        assert log_likelihood(ctx, entries) == -np.inf
