"""Closed-form estimators: round trips, optimality, blocks, and moments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppmle.asymptotics import covariance_2x2_explicit
from dppmle.closed_form import (
    BOUNDARY_B0,
    INTERIOR,
    _block_pairs,
    _mle_2x2_arrays,
    forward_probs_2x2,
    mle_2x2,
    mle_block,
    moments_estimator,
)
from dppmle.errors import DegenerateTable
from dppmle.kernels import (
    DistributionTable,
    enumerate_distribution,
    validate_kernel,
)
from dppmle.likelihood import LikelihoodContext, empirical_distribution, log_likelihood
from dppmle.sampling import SampleBatch, make_rng, sample_batch
from oracles import chart_gradient

DENSE2 = np.array([[1.0, 1.0], [1.0, 2.0]])


class TestForwardProbs:
    def test_identity_parameters(self):
        table = forward_probs_2x2(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(table.probs, 0.25 * np.ones(4))

    def test_dense2_parameters(self):
        table = forward_probs_2x2(DENSE2)
        np.testing.assert_allclose(table.probs, [0.2, 0.2, 0.4, 0.2])

    def test_diagonal_parameters(self):
        table = forward_probs_2x2(np.array([[7.0, 0.0], [0.0, 5.0]]))
        np.testing.assert_allclose(table.probs * 48, [1.0, 7.0, 5.0, 35.0])

    def test_matches_enumeration(self):
        entries = np.array([[1.3, 0.8], [0.8, 2.4]])
        kernel = validate_kernel(entries, "ensemble")
        np.testing.assert_allclose(
            forward_probs_2x2(entries).probs,
            enumerate_distribution(kernel).probs,
            atol=1e-14,
        )


class TestMle2x2:
    def test_exact_table_inverts(self):
        estimate, tag = mle_2x2(forward_probs_2x2(DENSE2))
        assert tag == INTERIOR
        assert estimate.entries[np.triu_indices(2)] == pytest.approx((1.0, 1.0, 2.0))

    def test_uniform_table(self):
        estimate, tag = mle_2x2(DistributionTable(0.25 * np.ones(4)))
        assert tag == INTERIOR
        assert estimate.entries[np.triu_indices(2)] == pytest.approx((1.0, 0.0, 1.0))

    def test_round_trip_random(self, rng):
        for _ in range(50):
            a, c = rng.uniform(0.3, 4.0, size=2)
            b = rng.uniform(0.0, 0.95) * np.sqrt(a * c)
            recovered, tag = mle_2x2(forward_probs_2x2(np.array([[a, b], [b, c]])))
            assert tag == INTERIOR
            assert recovered.entries[0, 0] == pytest.approx(a, abs=1e-12)
            assert recovered.entries[0, 1] == pytest.approx(b, abs=1e-12)
            assert recovered.entries[1, 1] == pytest.approx(c, abs=1e-12)

    def test_boundary_branch(self):
        # discriminant p1 p2 - p0 p3 < 0 forces b = 0
        table = DistributionTable(np.array([0.4, 0.05, 0.05, 0.5]))
        estimate, tag = mle_2x2(table)
        assert tag == BOUNDARY_B0
        assert estimate.entries[0, 1] == 0.0
        assert estimate.entries[0, 0] == pytest.approx(0.55 / 0.45)
        assert estimate.entries[1, 1] == pytest.approx(0.55 / 0.45)

    def test_empirical_estimate_near_truth(self):
        kernel = validate_kernel(DENSE2, "ensemble")
        batch = sample_batch(kernel, 30_000, 12, "enumeration")
        estimate, tag = mle_2x2(empirical_distribution(batch))
        assert tag == INTERIOR
        assert abs(estimate.entries[0, 0] - 1.0) < 0.05
        assert abs(estimate.entries[0, 1] - 1.0) < 0.05
        assert abs(estimate.entries[1, 1] - 2.0) < 0.05

    def test_degenerate_table(self):
        with pytest.raises(DegenerateTable):
            mle_2x2(DistributionTable(np.array([0.0, 0.5, 0.5, 0.0])))

    @pytest.mark.parametrize("probs", [
        [1.375095408190125e-05, 0.9291532864153134, 0.07083296263060467, 0.0],
        [1.141612605088516e-09, 0.899085443047883, 0.10091455581049746, 6.957538895937892e-15],
    ], ids=["p3-zero", "p3-tiny"])
    def test_large_interior_estimate_is_accepted(self, probs):
        # a c is about 3.5e8 and 7e16: the rounding error of a c - b^2 exceeds 1e-12
        estimate, tag = mle_2x2(DistributionTable(np.array(probs)))
        assert tag == INTERIOR
        assert estimate.entries[0, 0] == probs[1] / probs[0]

    def test_huge_interior_estimate(self):
        # a = b = c = 5e299: b^2 overflows, the estimate itself does not
        estimate, tag = mle_2x2(DistributionTable(np.array([1e-300, 0.5, 0.5, 0.0])))
        assert tag == INTERIOR
        np.testing.assert_array_equal(estimate.entries, np.full((2, 2), 0.5 / 1e-300))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.lists(st.integers(0, 30), min_size=4, max_size=4).filter(any),
        min_size=1, max_size=8,
    ))
    def test_stack_matches_one_table_calls(self, counts):
        tables = np.array(counts, dtype=float)
        tables /= tables.sum(axis=1, keepdims=True)
        estimates, interior, ok = _mle_2x2_arrays(tables)
        assert estimates.shape == (len(counts), 3)
        for row, table in enumerate(tables):
            try:
                estimate, tag = mle_2x2(DistributionTable(table))
            except DegenerateTable:
                assert not ok[row]
                assert np.isnan(estimates[row]).all()
                continue
            assert ok[row]
            assert tag == (INTERIOR if interior[row] else BOUNDARY_B0)
            np.testing.assert_array_equal(estimates[row], estimate.entries[np.triu_indices(2)])

    def test_requires_two_elements(self):
        with pytest.raises(ValueError):
            mle_2x2(DistributionTable(np.array([0.5, 0.5])))

    def test_stationarity_of_interior_estimate(self, rng):
        for _ in range(25):
            a0, c0 = rng.uniform(0.4, 3.0, size=2)
            b0 = rng.uniform(0.1, 0.9) * np.sqrt(a0 * c0)
            exact = forward_probs_2x2(np.array([[a0, b0], [b0, c0]]))
            counts = rng.multinomial(2000, exact.probs)
            if np.any(counts == 0):
                continue
            table = DistributionTable(counts / 2000)
            estimate, tag = mle_2x2(table)
            if tag != INTERIOR:
                continue
            residual = chart_gradient(estimate.entries[np.triu_indices(2)], table)
            assert np.max(np.abs(residual)) <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(0.2, 4.0),
        c=st.floats(0.2, 4.0),
        frac=st.floats(0.05, 0.95),
    )
    def test_round_trip_property(self, a, c, frac):
        b = frac * np.sqrt(a * c)
        recovered, _ = mle_2x2(forward_probs_2x2(np.array([[a, b], [b, c]])))
        assert recovered.entries[0, 0] == pytest.approx(a, rel=1e-9)
        assert recovered.entries[0, 1] == pytest.approx(b, rel=1e-9, abs=1e-9)
        assert recovered.entries[1, 1] == pytest.approx(c, rel=1e-9)


class TestGridOptimality:
    def test_interior_estimate_beats_grid(self, rng):
        grid = np.linspace(0.1, 5.0, 50)
        a_grid, b_grid, c_grid = np.meshgrid(grid, grid, grid, indexing="ij")
        feasible = a_grid * c_grid - b_grid**2 > 0
        checked = 0
        while checked < 15:
            a0, c0 = rng.uniform(0.4, 3.0, size=2)
            b0 = rng.uniform(0.1, 0.9) * np.sqrt(a0 * c0)
            exact = forward_probs_2x2(np.array([[a0, b0], [b0, c0]]))
            counts = rng.multinomial(1000, exact.probs)
            if np.any(counts == 0):
                continue
            table = DistributionTable(counts / 1000)
            estimate, tag = mle_2x2(table)
            if tag != INTERIOR:
                continue
            checked += 1
            p0, p1, p2, p3 = table.probs
            with np.errstate(divide="ignore", invalid="ignore"):
                values = (
                    p1 * np.log(a_grid)
                    + p2 * np.log(c_grid)
                    + p3 * np.log(a_grid * c_grid - b_grid**2)
                    - np.log((a_grid + 1) * (c_grid + 1) - b_grid**2)
                )
            values = np.where(feasible, values, -np.inf)
            own = log_likelihood(LikelihoodContext(table), estimate)
            assert own >= values.max() - 1e-12


class TestMleBlock:
    def test_single_block_reduces_to_mle_2x2(self):
        kernel = validate_kernel(DENSE2, "ensemble")
        batch = sample_batch(kernel, 20_000, 8, "enumeration")
        block_est = mle_block(batch, ((0, 1),))
        estimate, _ = mle_2x2(empirical_distribution(batch))
        np.testing.assert_allclose(block_est.entries, estimate.entries)

    def test_two_blocks_near_truth(self):
        truth = np.zeros((4, 4))
        truth[:2, :2] = DENSE2
        truth[2:, 2:] = DENSE2
        kernel = validate_kernel(truth, "ensemble")
        batch = sample_batch(kernel, 100_000, 21, "enumeration")
        estimate = mle_block(batch, ((0, 1), (2, 3)))
        assert np.max(np.abs(estimate.entries - truth)) < 0.05
        # cross-block entries are structurally zero
        assert np.all(estimate.entries[:2, 2:] == 0.0)

    def test_degenerate_block_reported(self):
        # block 1 members never appear, so its table has an empty support row
        masks = np.array([0b0000, 0b0001, 0b0010, 0b0011] * 5)
        batch = SampleBatch(4, masks, 0, "enumeration")
        with pytest.raises(DegenerateTable) as err:
            mle_block(batch, ((0, 1), (2, 3)))
        assert "block 1" in str(err.value)

    BLOCKS = ((0, 3), (4, 1), (2, 5))

    @staticmethod
    def _marginal(masks, u, v) -> DistributionTable:
        cells = (masks >> u & 1) + 2 * (masks >> v & 1)
        return DistributionTable(np.bincount(cells, minlength=4) / masks.size)

    def test_three_blocks_match_mle_2x2(self, rng):
        masks = rng.integers(0, 1 << 6, size=500)
        estimate = mle_block(SampleBatch(6, masks, 0, "enumeration"), self.BLOCKS)
        expected = np.zeros((6, 6))
        for u, v in self.BLOCKS:
            pair, _ = mle_2x2(self._marginal(masks, u, v))
            expected[np.ix_([u, v], [u, v])] = pair.entries
        np.testing.assert_array_equal(estimate.entries, expected)

    def test_error_names_first_degenerate_block(self, rng):
        # items 4 and 1 (block 1) and 2 and 5 (block 2) never appear
        masks = rng.integers(0, 1 << 6, size=200) & 0b001001
        with pytest.raises(DegenerateTable) as err:
            mle_block(SampleBatch(6, masks, 0, "enumeration"), self.BLOCKS)
        with pytest.raises(DegenerateTable) as single:
            mle_2x2(self._marginal(masks, 4, 1))
        assert str(err.value) == f"block 1 (elements 4,1): {single.value}"

    def test_structure_validation(self):
        with pytest.raises(ValueError):
            _block_pairs(((0, 1), (1, 2)), 4)
        with pytest.raises(ValueError):
            _block_pairs(((0, 3),), 4)

    def test_zero_items(self):
        # no pairs partition an empty ground set; the estimate is the empty kernel
        estimate = mle_block(SampleBatch(0, np.zeros(3, dtype=np.int64), 0, "enumeration"), ())
        assert estimate.entries.shape == (0, 0)

    @pytest.mark.parametrize("blocks, n", [(((False, True),), 2), (((0, 1.0),), 2), (((0, 1), (1, 0)), 4),
                                           (((0, 1),), 4)], ids=["bools", "float", "repeat", "short-cover"])
    def test_block_pairs_refused(self, blocks, n):
        # False and True sort like 0 and 1, and 1.0 equals 1, so each needs the integer rule
        with pytest.raises(ValueError):
            _block_pairs(blocks, n)


class TestMoments:
    def test_diagonal_kernel(self):
        table = enumerate_distribution(validate_kernel(np.diag([7.0, 5.0, 9.0]), "ensemble"))
        diag, magnitudes = moments_estimator(table)
        np.testing.assert_allclose(diag, [7.0, 5.0, 9.0], atol=1e-10)
        np.testing.assert_allclose(magnitudes, 0.0, atol=1e-6)

    def test_dense2_kernel(self):
        table = enumerate_distribution(validate_kernel(DENSE2, "ensemble"))
        diag, magnitudes = moments_estimator(table)
        np.testing.assert_allclose(diag, [1.0, 2.0], atol=1e-12)
        assert magnitudes[0, 1] == pytest.approx(1.0)

    def test_identity_kernel(self):
        table = enumerate_distribution(validate_kernel(np.eye(2), "ensemble"))
        diag, magnitudes = moments_estimator(table)
        np.testing.assert_allclose(diag, [1.0, 1.0])
        assert magnitudes[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_mle_for_two_elements(self, rng):
        # the closed-form likelihood maximizer and moment matching coincide at n = 2
        for _ in range(10):
            a, c = rng.uniform(0.4, 3.0, size=2)
            b = rng.uniform(0.1, 0.9) * np.sqrt(a * c)
            table = forward_probs_2x2(np.array([[a, b], [b, c]]))
            diag, magnitudes = moments_estimator(table)
            estimate, _ = mle_2x2(table)
            assert diag[0] == pytest.approx(estimate.entries[0, 0])
            assert diag[1] == pytest.approx(estimate.entries[1, 1])
            assert magnitudes[0, 1] == pytest.approx(estimate.entries[0, 1])

    def test_degenerate(self):
        with pytest.raises(DegenerateTable):
            moments_estimator(DistributionTable(np.array([0.0, 0.5, 0.25, 0.25])))

    @staticmethod
    def _pairwise_loop(table):
        """The estimator written as a loop over singletons and pairs i < j."""
        n = table.n
        p0 = float(table.probs[0])
        singles = np.array([table.probs[1 << i] for i in range(n)])
        magnitudes = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                pair = float(table.probs[(1 << i) | (1 << j)])
                disc = max(singles[i] * singles[j] - p0 * pair, 0.0)
                magnitudes[i, j] = magnitudes[j, i] = np.sqrt(disc) / p0
        return singles / p0, magnitudes

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_pairwise_loop(self, n, rng):
        for _ in range(20):
            counts = rng.multinomial(40, rng.dirichlet(np.ones(1 << n)))
            counts[0] += 1
            table = DistributionTable(counts / counts.sum())
            diag, magnitudes = moments_estimator(table)
            expected_diag, expected_magnitudes = self._pairwise_loop(table)
            np.testing.assert_array_equal(diag, expected_diag)
            np.testing.assert_array_equal(magnitudes, expected_magnitudes)


class TestConsistencyTrend:
    def test_median_error_shrinks_with_sample_size(self):
        kernel = validate_kernel(DENSE2, "ensemble")
        table = enumerate_distribution(kernel)
        medians = []
        for n in (300, 3000, 10_000, 30_000):
            errors = []
            for seed in range(100):
                rng = make_rng(seed * 1009 + n)
                counts = rng.multinomial(n, table.probs)
                estimate, _ = mle_2x2(DistributionTable(counts / n))
                errors.append(np.linalg.norm(estimate.entries - DENSE2))
            medians.append(float(np.median(errors)))
        assert all(b <= a for a, b in zip(medians, medians[1:]))


class TestStrongConsistency:
    """Almost-sure consistency of the 2x2 closed form along single sample paths.

    Both samplers are prefix-stable, so one seed is one path of 10**6
    enumeration draws from (a, b, c) = (1, 1, 2). At 300 geometric
    checkpoints from 10**3 to 10**6 the cell counts of each prefix come
    from ``searchsorted`` on each cell's draw positions, and one
    ``_mle_2x2_arrays`` call estimates them all. A path's statistic for
    coordinate k is the largest, over checkpoints n >= 10**5, of
    |theta_hat_n,k - theta_k| / sqrt(2 Sigma_kk log log n / n): the error
    over its iterated-logarithm envelope, with Sigma from
    ``covariance_2x2_explicit``. The limsup is 1, but 10**6 draws do not
    reach it, so the band is measured, not derived.

    Seeds 0-63 were pinned before the first run. On them the medians are
    0.636, 0.699 and 0.697 and the largest paths 1.30, 1.25 and 1.21 (3 s).
    Over the 1200 other paths at seeds 1000-2199 the medians are 0.716,
    0.717 and 0.711 and the largest paths 1.69, 1.93 and 1.72, so every
    path must stay under MAX_PATH = 2.0. A bias of +0.005 on a-hat moves
    a's median on the pinned paths to 0.932, out of the band [0.55, 0.85].
    """

    THETA = np.array([1.0, 1.0, 2.0])
    CHECKPOINTS = np.geomspace(1e3, 1e6, 300).round().astype(np.int64)
    MAX_PATH = 2.0

    def _path_maxima(self, kernel, seed, envelope, late):
        masks = sample_batch(kernel, 10**6, seed, "enumeration").masks
        counts = np.stack([np.searchsorted(np.flatnonzero(masks == cell), self.CHECKPOINTS)
                           for cell in range(4)], axis=1)
        estimates, _, ok = _mle_2x2_arrays(counts / self.CHECKPOINTS[:, None])
        assert ok.all()
        return (np.abs(estimates - self.THETA) / envelope)[late].max(axis=0)

    def test_error_stays_within_the_iterated_logarithm_envelope(self):
        kernel = validate_kernel(DENSE2, "ensemble")
        n = self.CHECKPOINTS[:, None]
        envelope = np.sqrt(2.0 * np.diag(covariance_2x2_explicit(kernel)) * np.log(np.log(n)) / n)
        late = self.CHECKPOINTS >= 10**5
        maxima = np.array([self._path_maxima(kernel, seed, envelope, late) for seed in range(64)])
        medians = np.median(maxima, axis=0)
        assert np.all((0.55 <= medians) & (medians <= 0.85)), medians
        assert maxima.max() < self.MAX_PATH, maxima.max(axis=0)
