"""Kernel validation, exact probabilities, divergences, and the orbit distance."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dppmle.errors import (
    EigenvalueOutOfRange,
    GroundSetTooLarge,
    NotSymmetric,
    SupportMismatch,
)
from dppmle.kernels import (
    DistributionTable,
    KernelMatrix,
    SignDiagonal,
    Subset,
    atomic_probability_from_marginal,
    ensemble_probability,
    enumerate_distribution,
    inclusion_probabilities,
    kernel_from_text,
    kernel_to_text,
    kl_divergence,
    marginal_of,
    sign_distance,
    validate_kernel,
)
from conftest import random_kernel

DENSE2 = np.array([[1.0, 1.0], [1.0, 2.0]])


class TestSubset:
    def test_round_trip(self):
        s = Subset.from_indices([0, 2], 3)
        assert s.mask == 0b101
        assert s.indices == (0, 2)
        assert list(s) == [0, 2]
        assert len(s) == 2

    def test_mask_bounds(self):
        with pytest.raises(ValueError):
            Subset(8, 3)

    @given(st.integers(min_value=0, max_value=2**10 - 1))
    def test_indices_invert_mask(self, mask):
        s = Subset(mask, 10)
        assert Subset.from_indices(s.indices, 10).mask == mask


class TestSignDiagonal:
    def test_involution(self):
        d = SignDiagonal(0b101, 3)
        m = d.matrix()
        np.testing.assert_allclose(m @ m, np.eye(3))

    @given(st.integers(min_value=0, max_value=7))
    def test_conjugate_matches_matrix_product(self, signs):
        d = SignDiagonal(signs, 3)
        entries = np.arange(9.0).reshape(3, 3)
        entries = (entries + entries.T) / 2
        np.testing.assert_allclose(d.conjugate(entries), d.matrix() @ entries @ d.matrix())


class TestValidateKernel:
    def test_identity_is_valid_marginal(self):
        k = validate_kernel(np.eye(2), "marginal")
        assert k.kind == "marginal"

    def test_dense2_is_valid_ensemble(self):
        # eigenvalues are the roots of x^2 - 3x + 1, both positive
        k = validate_kernel(DENSE2, "ensemble")
        np.testing.assert_allclose(
            k.eigenvalues(), [(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2]
        )

    def test_dense2_rejected_as_marginal(self):
        with pytest.raises(EigenvalueOutOfRange) as err:
            validate_kernel(DENSE2, "marginal")
        assert err.value.eigenvalue == pytest.approx((3 + np.sqrt(5)) / 2)

    def test_small_asymmetry_is_repaired(self):
        entries = DENSE2.copy()
        entries[0, 1] += 5e-11
        k = validate_kernel(entries, "ensemble")
        assert k.entries[0, 1] == k.entries[1, 0]

    def test_large_asymmetry_rejected(self):
        entries = DENSE2.copy()
        entries[0, 1] += 1e-6
        with pytest.raises(NotSymmetric):
            validate_kernel(entries, "ensemble")

    def test_negative_ensemble_rejected(self):
        with pytest.raises(EigenvalueOutOfRange):
            validate_kernel(np.diag([1.0, -0.5]), "ensemble")


class TestProbabilities:
    def test_identity_empty_subset(self):
        k = validate_kernel(np.eye(2), "ensemble")
        assert ensemble_probability(k, 0) == pytest.approx(0.25)

    def test_dense2_subsets(self):
        k = validate_kernel(DENSE2, "ensemble")
        assert ensemble_probability(k, 0b10) == pytest.approx(0.4)
        assert ensemble_probability(k, 0b11) == pytest.approx(0.2)

    def test_marginal_of_identity(self):
        k = marginal_of(validate_kernel(np.eye(2), "ensemble"))
        np.testing.assert_allclose(k.entries, 0.5 * np.eye(2))

    def test_marginal_of_diagonal(self):
        k = marginal_of(validate_kernel(np.diag([7.0, 5.0, 9.0]), "ensemble"))
        np.testing.assert_allclose(k.entries, np.diag([7 / 8, 5 / 6, 9 / 10]))

    def test_marginal_shares_eigenvectors(self):
        k = validate_kernel(DENSE2, "ensemble")
        lam = k.eigenvalues()
        np.testing.assert_allclose(
            marginal_of(k).eigenvalues(), lam / (1 + lam)
        )

    def test_atomic_equals_ensemble_route(self):
        k = validate_kernel(DENSE2, "ensemble")
        m = marginal_of(k)
        for mask in range(4):
            assert atomic_probability_from_marginal(m, mask) == pytest.approx(
                ensemble_probability(k, mask), abs=1e-12
            )

    def test_atomic_empty_from_half_identity(self):
        k = validate_kernel(0.5 * np.eye(2), "marginal")
        assert atomic_probability_from_marginal(k, 0) == pytest.approx(0.25)

    def test_projection_kernel_fixes_cardinality(self):
        # a projection marginal draws every element, so singletons have mass 0
        k = validate_kernel(np.eye(2), "marginal")
        assert atomic_probability_from_marginal(k, 0b01) == pytest.approx(0.0, abs=1e-15)

    def test_enumerate_identity(self):
        table = enumerate_distribution(validate_kernel(np.eye(2), "ensemble"))
        np.testing.assert_allclose(table.probs, 0.25 * np.ones(4))

    def test_enumerate_dense2(self):
        table = enumerate_distribution(validate_kernel(DENSE2, "ensemble"))
        np.testing.assert_allclose(table.probs, [0.2, 0.2, 0.4, 0.2])

    def test_enumerate_across_chunks(self, rng):
        # 2^17 masks span many factorization chunks
        n = 17
        kernel = validate_kernel(random_kernel(n, rng).entries / n, "ensemble")
        table = enumerate_distribution(kernel)
        assert abs(table.probs.sum() - 1.0) <= 1e-12
        marginal = marginal_of(kernel)
        masks = rng.integers(0, 1 << n, size=200)
        for mask in masks:
            assert abs(table.probs[mask] - atomic_probability_from_marginal(marginal, int(mask))) <= 1e-12

    def test_enumerate_refuses_large_ground_set(self):
        with pytest.raises(GroundSetTooLarge):
            enumerate_distribution(np.eye(21))


class TestDistributionInvariants:
    def test_normalization_random_kernels(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            table = enumerate_distribution(random_kernel(n, rng))
            assert abs(table.probs.sum() - 1.0) < 1e-10

    def test_marginal_consistency(self, rng):
        # containment sums of the atomic table equal minors of the marginal kernel
        for _ in range(10):
            n = int(rng.integers(2, 5))
            kernel = random_kernel(n, rng)
            marginal = marginal_of(kernel)
            sums = inclusion_probabilities(enumerate_distribution(kernel))
            for mask in range(1 << n):
                idx = [i for i in range(n) if mask >> i & 1]
                det = np.linalg.det(marginal.entries[np.ix_(idx, idx)]) if idx else 1.0
                assert abs(sums[mask] - det) < 1e-10

    def test_atomic_ensemble_equivalence_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            kernel = random_kernel(n, rng)
            marginal = marginal_of(kernel)
            for mask in range(1 << n):
                a = atomic_probability_from_marginal(marginal, mask)
                b = ensemble_probability(kernel, mask)
                assert abs(a - b) < 1e-10

    def test_sign_conjugation_preserves_distribution(self, rng):
        kernel = random_kernel(3, rng)
        table = enumerate_distribution(kernel)
        for signs in range(8):
            d = SignDiagonal(signs, 3)
            conjugated = KernelMatrix(3, d.conjugate(kernel.entries), "ensemble")
            np.testing.assert_allclose(
                enumerate_distribution(conjugated).probs, table.probs, atol=1e-12
            )

    def test_table_validation(self):
        with pytest.raises(ValueError):
            DistributionTable(2, np.array([0.5, 0.5, 0.25, -0.25]))
        with pytest.raises(ValueError):
            DistributionTable(2, np.array([0.5, 0.5, 0.25, 0.25]))


class TestKlDivergence:
    def test_identical_tables(self):
        t = enumerate_distribution(validate_kernel(np.eye(2), "ensemble"))
        assert kl_divergence(t, t) == pytest.approx(0.0, abs=1e-15)

    def test_sign_orbit_gives_zero(self):
        kernel = validate_kernel(DENSE2, "ensemble")
        flipped = KernelMatrix(2, SignDiagonal(0b10, 2).conjugate(kernel.entries), "ensemble")
        p = enumerate_distribution(kernel)
        q = enumerate_distribution(flipped)
        assert kl_divergence(p, q) == pytest.approx(0.0, abs=1e-12)

    def test_distinct_kernels_positive(self):
        p = enumerate_distribution(validate_kernel(np.eye(2), "ensemble"))
        q = enumerate_distribution(validate_kernel(np.diag([2.0, 2.0]), "ensemble"))
        # direct summation oracle
        expected = float(np.sum(p.probs * np.log(p.probs / q.probs)))
        assert kl_divergence(p, q) == pytest.approx(expected)
        assert kl_divergence(p, q) > 0

    def test_nonnegativity_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 4))
            p = enumerate_distribution(random_kernel(n, rng))
            q = enumerate_distribution(random_kernel(n, rng))
            assert kl_divergence(p, q) >= -1e-12

    def test_support_mismatch(self):
        p = DistributionTable(1, np.array([0.5, 0.5]))
        q = DistributionTable(1, np.array([1.0, 0.0]))
        with pytest.raises(SupportMismatch):
            kl_divergence(p, q)


class TestSignDistance:
    def test_identical_kernels(self):
        k = validate_kernel(DENSE2, "ensemble")
        dist, d = sign_distance(k, k)
        assert dist == 0.0
        assert d.signs == 0

    def test_exact_flip_recovered(self):
        flipped = np.array([[1.0, -1.0], [-1.0, 2.0]])
        dist, d = sign_distance(flipped, DENSE2)
        assert dist == pytest.approx(0.0, abs=1e-15)
        assert d.vector()[0] * d.vector()[1] == -1.0

    def test_diagonal_vs_dense(self):
        dist, _ = sign_distance(np.diag([1.0, 2.0]), DENSE2)
        assert dist == pytest.approx(np.sqrt(2.0))

    def test_pseudometric_properties(self, rng):
        for _ in range(10):
            a = random_kernel(3, rng).entries
            b = random_kernel(3, rng).entries
            c = random_kernel(3, rng).entries
            dab, _ = sign_distance(a, b)
            dba, _ = sign_distance(b, a)
            dac, _ = sign_distance(a, c)
            dcb, _ = sign_distance(c, b)
            assert dab == pytest.approx(dba, rel=1e-12)
            assert dab <= dac + dcb + 1e-12


class TestSerialization:
    def test_text_round_trip(self, rng):
        kernel = random_kernel(3, rng)
        recovered = kernel_from_text(kernel_to_text(kernel))
        np.testing.assert_array_equal(recovered.entries, kernel.entries)

    def test_format_shape(self):
        text = kernel_to_text(validate_kernel(np.eye(2), "ensemble"))
        lines = text.strip().splitlines()
        assert lines[0] == "2"
        assert len(lines) == 3
