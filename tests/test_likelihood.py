"""Likelihood surface: values, derivatives, and their finite-difference oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppmle.errors import EmptyBatch, SingularPrincipalMinor
from dppmle.kernels import (
    DistributionTable,
    enumerate_distribution,
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
from dppmle.numdiff import fd_gradient, fd_hessian
from dppmle.sampling import SampleBatch, sample_batch
from dppmle.verify_support import random_irreducible_ensemble
from conftest import conjugate, random_kernel, random_table
from oracles import kl_divergence, kl_gap

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
        flipped = conjugate(DENSE2, 0b01)
        assert log_likelihood(ctx, flipped) == pytest.approx(log_likelihood(ctx, DENSE2))

    def test_truth_dominates(self, rng):
        ctx = exact_ctx(DENSE2)
        peak = log_likelihood(ctx, DENSE2)
        for _ in range(20):
            other = random_kernel(2, rng)
            assert log_likelihood(ctx, other) <= peak + 1e-12

    def test_minus_infinity_signal(self):
        ctx = LikelihoodContext(DistributionTable(np.array([0.0, 0.0, 0.0, 1.0])))
        indefinite = np.array([[1.0, 3.0], [3.0, 1.0]])  # det < 0 on the supported pair
        assert log_likelihood(ctx, indefinite) == -np.inf

    def test_two_by_two_objective(self, rng):
        # the (a, b, c) objective is log_likelihood at [[a, b], [b, c]], with one domain rule
        for _ in range(50):
            a, c = rng.uniform(0.2, 4.0, size=2)
            b = rng.uniform(-0.95, 0.95) * np.sqrt(a * c)
            _, p1, p2, p3 = probs = rng.dirichlet(np.ones(4))
            expected = (p1 * np.log(a) + p2 * np.log(c) + p3 * np.log(a * c - b * b)
                        - np.log((a + 1) * (c + 1) - b * b))
            value = log_likelihood(LikelihoodContext(DistributionTable(probs)), [[a, b], [b, c]])
            assert value == pytest.approx(expected, rel=0, abs=1e-12)
        # a < 0 is inside the domain when {0} is never observed: only det(L + I) and L_{1} count
        ctx = LikelihoodContext(DistributionTable(np.array([0.5, 0.0, 0.5, 0.0])))
        value = log_likelihood(ctx, [[-0.1, 0.0], [0.0, 1.0]])
        assert np.isfinite(value) and value == pytest.approx(-np.log(1.8), rel=0, abs=1e-12)


class TestGradient:
    def test_zero_at_truth_identity(self):
        ctx = exact_ctx(np.eye(2))
        np.testing.assert_allclose(gradient(ctx, np.eye(2)), 0.0, atol=1e-14)

    def test_zero_at_truth_dense2(self):
        ctx = exact_ctx(DENSE2)
        np.testing.assert_allclose(gradient(ctx, DENSE2), 0.0, atol=1e-12)

    def test_point_mass_on_full_set(self):
        ctx = LikelihoodContext(DistributionTable(np.array([0.0, 0.0, 0.0, 1.0])))
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
            lhs = gradient(ctx, conjugate(kernel.entries, signs))
            rhs = conjugate(gradient(ctx, kernel.entries), signs)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6), st.booleans(), st.integers(0, 2**32 - 1))
    def test_diagonal_kernel_has_diagonal_gradient(self, n, sparse, seed):
        # at a diagonal L, pad(L_J^{-1}) and (L + I)^{-1} are diagonal, whatever the table
        rng = np.random.default_rng(seed)
        table = TestBatchedSupport.sparse_table(n, rng) if sparse else random_table(n, rng)
        grad = gradient(LikelihoodContext(table), np.diag(rng.uniform(0.1, 10.0, n)))
        assert np.all(grad[~np.eye(n, dtype=bool)] == 0.0)
        assert np.all(np.isfinite(grad))

    def test_stationarity_random_truth(self, rng):
        for _ in range(10):
            kernel = random_irreducible_ensemble(3, rng)
            ctx = LikelihoodContext(enumerate_distribution(kernel))
            assert np.linalg.norm(gradient(ctx, kernel)) <= 1e-10


class TestHessian:
    def test_point_mass_on_empty_set(self):
        # only the normalizer term survives: B otimes B with B = I/2
        ctx = LikelihoodContext(DistributionTable(np.array([1.0, 0.0, 0.0, 0.0])))
        h = hessian(ctx, np.eye(2))
        np.testing.assert_allclose(h, 0.25 * np.eye(4))

    def test_negative_definite_on_symmetric_chart_at_truth(self):
        ctx = exact_ctx(DENSE2)
        h = hessian(ctx, DENSE2)
        embed = vech_embedding(2)
        restricted = embed.T @ h @ embed
        eigs = np.linalg.eigvalsh((restricted + restricted.T) / 2)
        assert eigs.max() < -1e-3

    def test_concavity_at_random_irreducible_truth(self, rng):
        for n in (2, 3):
            kernel = random_irreducible_ensemble(n, rng)
            ctx = LikelihoodContext(enumerate_distribution(kernel))
            h = hessian(ctx, kernel)
            embed = vech_embedding(n)
            restricted = embed.T @ h @ embed
            eigs = np.linalg.eigvalsh((restricted + restricted.T) / 2)
            assert eigs.max() < 0

    def test_antisymmetric_null_direction_at_exact_tables(self):
        # the score is a symmetric matrix a.s., so exact tables annihilate
        # antisymmetric directions; Newton and the covariance therefore
        # work in the upper-triangle chart
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


class TestVechEmbedding:
    def test_embeds_upper_triangle(self, rng):
        # vec(S) = J vech(S), with vech in np.triu_indices order: (a, b, c) at n = 2
        for n in range(1, 6):
            w = rng.normal(size=(n, n))
            sym = w + w.T
            vech = sym[np.triu_indices(n)]
            np.testing.assert_array_equal(vech_embedding(n) @ vech, sym.reshape(-1))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_shared_result_is_read_only_and_fresh(self, n):
        # entry (i*n + j, k) is 1 exactly when (i, j) or (j, i) is the k-th upper-triangle pair
        pairs = list(zip(*np.triu_indices(n)))
        fresh = np.array([[float((i, j) == pair or (j, i) == pair) for pair in pairs]
                          for i in range(n) for j in range(n)]).reshape(n * n, len(pairs))
        embed = vech_embedding(n)
        assert embed is vech_embedding(n)
        np.testing.assert_array_equal(embed, fresh)
        with pytest.raises(ValueError):
            embed[0, 0] = 2.0


class TestSharedConstants:
    """Tables on one support share one read-only (keep, rest); the weights stay per table."""

    @staticmethod
    def table(n, masks, rng):
        probs = np.zeros(1 << n)
        probs[masks] = rng.dirichlet(np.ones(len(masks)))
        return DistributionTable(probs / probs.sum())

    def test_one_support_shares_keep_and_rest(self, rng):
        first = LikelihoodContext(self.table(3, [0, 1, 3, 7], rng)).embedding
        second = LikelihoodContext(self.table(3, [0, 1, 3, 7], rng)).embedding
        assert first[1] is second[1] and first[2] is second[2]
        assert not np.array_equal(first[0], second[0])
        for constant in first[1:]:
            with pytest.raises(ValueError):
                constant[0, 0, 0] = 2.0

    def test_other_support_or_size_gets_its_own(self, rng):
        base = LikelihoodContext(self.table(3, [0, 1, 3, 7], rng)).embedding
        for other in (self.table(3, [0, 1, 3, 6], rng), self.table(4, [0, 1, 3, 7], rng)):
            keep, rest = LikelihoodContext(other).embedding[1:]
            assert keep is not base[1] and rest is not base[2]
            assert keep.shape == (5, other.n, other.n)


class TestKlGap:
    def test_zero_at_truth_and_orbit(self):
        ctx = exact_ctx(DENSE2)
        assert kl_gap(ctx, DENSE2) == pytest.approx(0.0, abs=1e-12)
        flipped = conjugate(DENSE2, 0b10)
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
        return DistributionTable(probs / probs.sum())

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
        ctx = LikelihoodContext(DistributionTable(probs))
        with pytest.raises(SingularPrincipalMinor) as info:
            gradient(ctx, entries)
        assert info.value.mask == 7
        assert log_likelihood(ctx, entries) == -np.inf


def _gather_scatter_point(ctx: LikelihoodContext, kernel):
    """Reference (value, gradient or exception, Hessian or exception) from per-size gathers.

    Each size group of supported masks gathers its k x k minors by fancy
    index, factorizes them with one slogdet and one inv, and scatters the
    inverses into zero-filled n x n pads; L + I is factorized on its own.
    """
    entries = np.asarray(kernel, dtype=float)
    n = entries.shape[0]
    masks, weights = ctx.support
    bits = masks[:, None] >> np.arange(n) & 1
    sizes = bits.sum(axis=1)
    sign_norm, logdet_norm = np.linalg.slogdet(entries + np.eye(n))
    valid, singular, terms = True, [], []
    for k in np.unique(sizes):
        at = np.nonzero(sizes == k)[0]
        index = np.nonzero(bits[at])[1].reshape(at.size, k)
        minors = entries[index[:, :, None], index[:, None, :]]
        sign, logdet = np.linalg.slogdet(minors)
        valid = valid and bool(np.all(sign > 0))
        singular.extend(masks[at][sign == 0])
        if sign.all():
            padded = np.zeros((at.size, n, n))
            padded[np.arange(at.size)[:, None, None], index[:, :, None], index[:, None, :]] = np.linalg.inv(minors)
            terms.append((weights[at], logdet, padded))
    value = sum(w @ logdet for w, logdet, _ in terms) - logdet_norm \
        if valid and sign_norm > 0 else -np.inf
    try:
        norm_inv = np.linalg.inv(entries + np.eye(n))
        if singular:
            raise SingularPrincipalMinor("singular", int(min(singular)))
    except (np.linalg.LinAlgError, SingularPrincipalMinor) as exc:
        return value, exc, exc
    grad = -norm_inv
    tensor = np.einsum("ik,lj->ijkl", norm_inv, norm_inv)
    for w, _, padded in terms:
        grad = grad + np.einsum("m,mij->ij", w, padded)
        tensor = tensor - np.einsum("m,mik,mlj->ijkl", w, padded, padded)
    return value, grad, tensor.reshape(n * n, n * n)


class TestEmbeddedStack:
    """One embedded stack reproduces the per-size gather/scatter factorization."""

    @staticmethod
    def assert_same_point(ctx, kernel):
        point = LikelihoodPoint(ctx, kernel)
        value, grad, hess = _gather_scatter_point(ctx, kernel)
        assert point.value == pytest.approx(value, rel=1e-12, abs=0.0)
        for method, expected in ((point.gradient, grad), (point.hessian, hess)):
            if isinstance(expected, Exception):
                with pytest.raises(type(expected)) as info:
                    method()
                assert getattr(info.value, "mask", None) == getattr(expected, "mask", None)
            else:
                actual = method()
                assert np.linalg.norm(actual - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_gather_scatter(self, n, rng):
        for _ in range(5):
            for table in (random_table(n, rng), TestBatchedSupport.sparse_table(n, rng)):
                self.assert_same_point(LikelihoodContext(table), random_kernel(n, rng, jitter=0.3).entries)

    def test_smallest_singular_mask_is_reported(self):
        # {0, 1, 2} (mask 7, size 3) and {3} (mask 8, size 1) are exactly
        # singular: the smaller mask is reported although its size is larger
        entries = np.array([
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 1.0, 0.0],
            [1.0, 1.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ])
        probs = np.zeros(16)
        probs[[0, 5, 7, 8]] = 0.25
        ctx = LikelihoodContext(DistributionTable(probs))
        self.assert_same_point(ctx, entries)
        point = LikelihoodPoint(ctx, entries)
        assert point.value == -np.inf
        for method in (point.gradient, point.hessian):
            with pytest.raises(SingularPrincipalMinor) as info:
                method()
            assert info.value.mask == 7

    @pytest.mark.parametrize("entries, mask", [
        ([[1.0, 3.0], [3.0, 1.0]], 0b11),  # supported minor with det < 0
        ([[-3.0, 0.0], [0.0, 2.0]], 0b10),  # det(L + I) < 0, supported minor positive
    ], ids=["minor-negative", "normalizer-negative"])
    def test_non_positive_determinant_gives_minus_infinity(self, entries, mask):
        probs = np.zeros(4)
        probs[mask] = 1.0
        ctx = LikelihoodContext(DistributionTable(probs))
        self.assert_same_point(ctx, entries)
        point = LikelihoodPoint(ctx, entries)
        assert point.value == -np.inf
        assert np.all(np.isfinite(point.gradient()))

    @pytest.mark.parametrize("entries", [
        [[-1.0, 0.0], [0.0, 2.0]],  # only L + I is singular
        [[-1.0, 0.0], [0.0, 0.0]],  # the supported minor {1} is singular too
    ], ids=["normalizer", "normalizer-and-minor"])
    def test_singular_normalizer_raises_linalg_error(self, entries):
        ctx = LikelihoodContext(DistributionTable(np.array([0.0, 0.0, 1.0, 0.0])))
        self.assert_same_point(ctx, entries)
        point = LikelihoodPoint(ctx, entries)
        assert point.value == -np.inf
        for method in (point.gradient, point.hessian):
            with pytest.raises(np.linalg.LinAlgError):
                method()


def _stacked_problem(n, shape, rng):
    """A table (dense or sparse by rng) and a stack of kernels on it, some outside the domain."""
    table = TestBatchedSupport.sparse_table(n, rng) if n > 1 and rng.random() < 0.5 else random_table(n, rng)
    w = rng.normal(size=(*shape, n, n))
    # ridges in (-0.6, 0.4): a negative one can make det(L + I) or a supported minor negative
    ridge = 0.4 - rng.random((*shape, 1, 1))
    return LikelihoodContext(table), w @ np.swapaxes(w, -1, -2) + ridge * np.eye(n)


class TestStackedPoint:
    """A (..., n, n) stack gives every kernel the bits of its one-kernel point."""

    @pytest.mark.parametrize("shape", [(7,), (2, 3), (2, 2, 2)], ids=["1-axis", "2-axis", "3-axis"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_one_kernel_calls(self, n, shape, rng):
        outside = 0
        for _ in range(4):
            ctx, stack = _stacked_problem(n, shape, rng)
            point = LikelihoodPoint(ctx, stack)
            values, grads, hessians = point.value, point.gradient(), point.hessian()
            assert values.shape == shape
            assert grads.shape == (*shape, n, n) and hessians.shape == (*shape, n * n, n * n)
            for index in np.ndindex(*shape):
                one = LikelihoodPoint(ctx, stack[index])
                assert np.array_equal(values[index], one.value)
                assert np.array_equal(grads[index], one.gradient())
                assert np.array_equal(hessians[index], one.hessian())
                outside += one.value == -np.inf
            assert np.array_equal(log_likelihood(ctx, stack), values)
            assert np.array_equal(gradient(ctx, stack), grads)
            assert np.array_equal(hessian(ctx, stack), hessians)
        assert outside

    def test_one_kernel_gives_a_float(self, rng):
        ctx, stack = _stacked_problem(3, (2,), rng)
        assert type(log_likelihood(ctx, stack[0])) is float
        assert log_likelihood(ctx, stack[None, 0]).shape == (1,)

    # {0, 1, 2} (mask 7) is exactly singular in SINGULAR_MINOR; SINGULAR_NORMALIZER has det(L + I) = 0
    SINGULAR_MINOR = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    SINGULAR_NORMALIZER = np.diag([-1.0, 1.0, 1.0])

    @pytest.mark.parametrize("order, error", [
        (("minor", "normalizer"), SingularPrincipalMinor),
        (("normalizer", "minor"), np.linalg.LinAlgError),
    ], ids=["minor-first", "normalizer-first"])
    def test_raises_what_the_first_singular_kernel_raises(self, order, error, rng):
        probs = np.zeros(8)
        probs[[0, 2, 7]] = 1.0 / 3.0
        ctx = LikelihoodContext(DistributionTable(probs))
        kernels = {"minor": self.SINGULAR_MINOR, "normalizer": self.SINGULAR_NORMALIZER}
        fine = random_kernel(3, rng, jitter=0.3).entries
        stack = np.stack([fine, kernels[order[0]], fine, kernels[order[1]]]).reshape(2, 2, 3, 3)
        point = LikelihoodPoint(ctx, stack)
        assert np.array_equal(point.value == -np.inf, [[False, True], [False, True]])
        for method in (point.gradient, point.hessian):
            with pytest.raises(error) as info:
                method()
            if error is SingularPrincipalMinor:
                assert info.value.mask == 7
            with pytest.raises(error):
                getattr(LikelihoodPoint(ctx, kernels[order[0]]), method.__name__)()


def _loop_fd_gradient(ctx, kernel):
    """The per-entry loop that ``fd_gradient`` ran before it stacked its bumps."""
    entries = np.array(kernel, dtype=float)
    n = entries.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            h = 1e-5 * (1.0 + abs(entries[i, j]))
            bump = np.zeros_like(entries)
            if i == j:
                bump[i, i] = h
            else:
                bump[i, j] = h / 2.0
                bump[j, i] = h / 2.0
            out[i, j] = (log_likelihood(ctx, entries + bump) - log_likelihood(ctx, entries - bump)) / (2.0 * h)
    return out


def _loop_fd_hessian(ctx, kernel):
    """The per-column loop that ``fd_hessian`` ran before it stacked its bumps."""
    entries = np.array(kernel, dtype=float)
    n = entries.shape[0]
    out = np.empty((n * n, n * n))
    for k in range(n):
        for l in range(n):
            h = 1e-5 * (1.0 + abs(entries[k, l]))
            bump = np.zeros_like(entries)
            bump[k, l] = h
            diff = (gradient(ctx, entries + bump) - gradient(ctx, entries - bump)) / (2.0 * h)
            out[:, k * n + l] = diff.reshape(-1)
    return out


class TestStackedFiniteDifferences:
    """One call on the stacked bumps gives the bits of the per-entry loops."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_the_loops(self, n, rng):
        for _ in range(4):
            ctx = LikelihoodContext(random_table(n, rng))
            kernel = random_kernel(n, rng, jitter=0.3).entries
            assert np.array_equal(fd_gradient(ctx, kernel), _loop_fd_gradient(ctx, kernel))
            stacked = fd_hessian(ctx, kernel)
            assert np.array_equal(stacked, _loop_fd_hessian(ctx, kernel)) and stacked.flags.c_contiguous

    def test_bumps_that_leave_the_domain(self):
        # {0, 1} is supported and singular at [[1, 1], [1, 1]]: half the bumps make its
        # determinant negative, so differences are infinite; at [[1, 2], [2, 1]] every bump does (NaN)
        ctx = LikelihoodContext(DistributionTable(np.array([0.25, 0.25, 0.25, 0.25])))
        for entries in ([[1.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]]):
            fd = fd_gradient(ctx, entries)
            assert not np.isfinite(fd).any()
            np.testing.assert_array_equal(fd, _loop_fd_gradient(ctx, entries))
            np.testing.assert_array_equal(fd_hessian(ctx, entries), _loop_fd_hessian(ctx, entries))
        assert np.isnan(fd).all()
