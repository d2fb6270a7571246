"""Asymptotic covariance, its closed form, and the Monte Carlo experiments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse.csgraph import connected_components

from dppmle import asymptotics
from dppmle.asymptotics import (
    GRID_POINTS,
    _joint_rectangle_distance,
    asymptotic_covariance,
    berry_esseen_experiment,
    clt_experiment,
    covariance_2x2_explicit,
    inverse_sqrt,
    is_irreducible,
)
from dppmle.closed_form import TwoByTwoParams, chart_log_likelihood, forward_probs_2x2
from dppmle.errors import DegenerateTable, ReducibleKernel, ZeroB
from dppmle.kernels import enumerate_distribution, validate_kernel
from dppmle.likelihood import LikelihoodContext, hessian, vech_embedding
from dppmle.numdiff import fd_hessian_of
from dppmle.verify_support import random_irreducible_ensemble
from oracles import chart_hessian

DENSE2 = np.array([[1.0, 1.0], [1.0, 2.0]])
EXPECTED_COV = np.array([[10.0, 12.5, 10.0], [12.5, 20.0, 20.0], [10.0, 20.0, 30.0]])


class TestIrreducibility:
    def test_diagonal_is_reducible(self):
        assert not is_irreducible(np.diag([7.0, 5.0, 9.0]))

    def test_dense_is_irreducible(self):
        assert is_irreducible(DENSE2)

    def test_tridiagonal_is_irreducible(self):
        assert is_irreducible(np.array([[1, 0.2, 0], [0.2, 2, 0.3], [0, 0.3, 3]]))

    def test_two_blocks_reducible(self):
        entries = np.zeros((4, 4))
        entries[:2, :2] = DENSE2
        entries[2:, 2:] = DENSE2
        assert not is_irreducible(entries)

    def test_empty_kernel_raises(self):
        with pytest.raises(ValueError):
            is_irreducible(np.zeros((0, 0)))

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: arrays(
        float, (n, n), elements=st.sampled_from([0.0, 1e-13, 0.5, -2.0, 1e13])
    )))
    def test_matches_connected_components(self, entries):
        # asymmetric patterns included: an entry on either side links its pair
        tol = 1e-12 * max(1.0, float(np.max(np.abs(entries))))
        n_components, _ = connected_components(np.abs(entries) > tol, directed=False)
        assert is_irreducible(entries) == (n_components == 1)


class TestExplicitCovariance:
    def test_benchmark_value(self):
        cov = covariance_2x2_explicit(TwoByTwoParams(1.0, 1.0, 2.0))
        np.testing.assert_allclose(cov, EXPECTED_COV, atol=1e-12)

    def test_symmetry(self, rng):
        for _ in range(10):
            a, c = rng.uniform(0.4, 3.0, size=2)
            b = rng.uniform(0.1, 0.9) * np.sqrt(a * c)
            cov = covariance_2x2_explicit(TwoByTwoParams(float(a), float(b), float(c)))
            np.testing.assert_array_equal(cov, cov.T)

    def test_zero_b_rejected(self):
        with pytest.raises(ZeroB):
            covariance_2x2_explicit(TwoByTwoParams(1.0, 0.0, 1.0))

    def test_equals_inverse_negated_chart_curvature(self, rng):
        # the closed form inverts the chart Hessian of the expected objective
        cases = [TwoByTwoParams(1.0, 1.0, 2.0)]
        for _ in range(5):
            a, c = rng.uniform(0.5, 3.0, size=2)
            b = rng.uniform(0.2, 0.9) * np.sqrt(a * c)
            cases.append(TwoByTwoParams(float(a), float(b), float(c)))
        for params in cases:
            table = forward_probs_2x2(params)
            theta = np.array([params.a, params.b, params.c])
            explicit = covariance_2x2_explicit(params)
            # product form avoids amplifying finite-difference noise by the
            # condition number of the curvature
            numeric = fd_hessian_of(lambda t: chart_log_likelihood(t, table), theta)
            np.testing.assert_allclose(-numeric @ explicit, np.eye(3), atol=1e-4)
            analytic = np.linalg.inv(-chart_hessian(theta, table))
            np.testing.assert_allclose(explicit, analytic, rtol=1e-9)


class TestAsymptoticCovariance:
    def test_chart_consistency_with_explicit(self):
        kernel = validate_kernel(DENSE2, "ensemble")
        np.testing.assert_allclose(asymptotic_covariance(kernel), EXPECTED_COV, atol=1e-9)

    def test_reducible_rejected(self):
        with pytest.raises(ReducibleKernel):
            asymptotic_covariance(validate_kernel(np.diag([7.0, 5.0, 9.0]), "ensemble"))

    def test_symmetric_psd(self, rng):
        for _ in range(5):
            kernel = random_irreducible_ensemble(2, rng)
            cov = asymptotic_covariance(kernel)
            np.testing.assert_allclose(cov, cov.T, atol=1e-10)
            assert np.linalg.eigvalsh(cov).min() >= -1e-10

    def test_chart_change_identity(self, rng):
        # the (a,b,c)-chart curvature is the pair-chart curvature pushed
        # through the embedding (a,b,c) -> [[a,b],[b,c]]
        jac = vech_embedding(2)
        for _ in range(5):
            kernel = random_irreducible_ensemble(2, rng)
            a, b, c = kernel.entries[0, 0], kernel.entries[0, 1], kernel.entries[1, 1]
            if b <= 0:
                continue
            table = enumerate_distribution(kernel)
            pair = hessian(LikelihoodContext(table), kernel)
            chart = chart_hessian(np.array([a, b, c]), table)
            np.testing.assert_allclose(jac.T @ pair @ jac, chart, atol=1e-8)


class TestInverseSqrt:
    def test_squares_back(self):
        m = np.array([[4.0, 1.0], [1.0, 3.0]])
        r = inverse_sqrt(m)
        np.testing.assert_allclose(r @ m @ r, np.eye(2), atol=1e-12)


class TestCltExperiment:
    def test_covariance_matches_explicit(self):
        kernel = validate_kernel(DENSE2, "ensemble")
        result = clt_experiment(kernel, 10_000, 10_000, 11)
        assert result.failures == 0
        np.testing.assert_allclose(result.covariance, EXPECTED_COV, rtol=0.10)

    def test_mean_is_centered(self):
        kernel = validate_kernel(DENSE2, "ensemble")
        result = clt_experiment(kernel, 10_000, 4000, 5)
        sds = np.sqrt(np.diag(result.covariance))
        tol = 3.0 * sds / np.sqrt(result.reps - result.failures)
        assert np.all(np.abs(result.mean) <= np.maximum(tol, 1e-12))

    def test_single_rep_degenerate(self):
        kernel = validate_kernel(DENSE2, "ensemble")
        result = clt_experiment(kernel, 1000, 1, 5)
        assert result.degenerate
        np.testing.assert_array_equal(result.covariance, np.zeros((3, 3)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_negative_b_mirrors_positive_b(self, seed):
        # L and D L D with D = diag(1, -1) have the same table, so the
        # aligned errors mirror exactly: b's coordinate changes sign.
        pos = clt_experiment(validate_kernel([[1.0, 1.0], [1.0, 2.0]], "ensemble"), 10_000, 2000, seed)
        neg = clt_experiment(validate_kernel([[1.0, -1.0], [-1.0, 2.0]], "ensemble"), 10_000, 2000, seed)
        flip = np.diag([1.0, -1.0, 1.0])
        np.testing.assert_array_equal(neg.covariance, flip @ pos.covariance @ flip)
        np.testing.assert_array_equal(neg.mean, flip @ pos.mean)
        assert neg.failures == pos.failures

    @pytest.mark.parametrize("entries", [DENSE2, [[1.0, 0.2, 0.0], [0.2, 2.0, 0.3], [0.0, 0.3, 3.0]]],
                             ids=["closed-form", "newton"])
    def test_sample_size_must_be_positive(self, entries):
        # no table of 0 draws exists; dividing its counts by 0 would give NaN frequencies
        with pytest.raises(ValueError, match="sample size must be at least 1"):
            clt_experiment(validate_kernel(entries, "ensemble"), 0, 5, 0)

    def test_newton_path_for_three_elements(self, rng):
        kernel = random_irreducible_ensemble(3, rng)
        result = clt_experiment(kernel, 4000, 60, 17)
        assert result.reps - result.failures >= 40
        theory = asymptotic_covariance(kernel)
        # loose band: 60 replications only smoke-test the general route
        scale = max(np.abs(theory).max(), 1.0)
        assert np.max(np.abs(result.covariance - theory)) <= 0.75 * scale


def _per_corner_distance(standardized):
    """The orthant deviations corner by corner, one pass over the data per corner."""
    from scipy.special import ndtr

    dim = standardized.shape[1]
    grid_cdf = {x: ndtr(x) for x in GRID_POINTS}
    worst = 0.0
    corners = np.array(np.meshgrid(*[GRID_POINTS] * dim)).reshape(dim, -1).T
    for corner in corners:
        empirical = float(np.mean(np.all(standardized < corner[None, :], axis=1)))
        theoretical = float(np.prod([grid_cdf[x] for x in corner]))
        worst = max(worst, abs(empirical - theoretical))
    return worst


class TestJointRectangleDistance:
    """The one-histogram orthant count equals the per-corner loop bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 6])
    def test_gaussian_rows(self, dim):
        rows = np.random.default_rng(dim).standard_normal((700, dim))
        assert _joint_rectangle_distance(rows) == _per_corner_distance(rows)

    @pytest.mark.parametrize("dim", [1, 2, 3, 6])
    def test_rows_on_grid_points_and_infinities(self, dim):
        # ties at a grid point are not below it; -inf is below every corner, +inf none
        values = np.array([*GRID_POINTS, -np.inf, np.inf, -2.0, 2.0])
        rows = np.random.default_rng(10 + dim).choice(values, size=(400, dim))
        assert _joint_rectangle_distance(rows) == _per_corner_distance(rows)

    @pytest.mark.parametrize("point", GRID_POINTS)
    def test_every_row_on_one_grid_point(self, point):
        rows = np.full((50, 3), point)
        assert _joint_rectangle_distance(rows) == _per_corner_distance(rows)

    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_one_row(self, dim):
        row = np.random.default_rng(20 + dim).standard_normal((1, dim))
        assert _joint_rectangle_distance(row) == _per_corner_distance(row)

    @pytest.mark.parametrize("value", [-np.inf, -5.0, 5.0, np.inf],
                             ids=["all-below-inf", "all-below", "none-below", "none-below-inf"])
    def test_all_or_no_rows_below_every_corner(self, value):
        rows = np.full((30, 3), value)
        assert _joint_rectangle_distance(rows) == _per_corner_distance(rows)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_rate_report_unchanged(self, seed, monkeypatch):
        params = TwoByTwoParams(1.0, 1.0, 2.0)
        report = berry_esseen_experiment(params, (100, 400, 1600), 3000, seed)
        monkeypatch.setattr(asymptotics, "_joint_rectangle_distance", _per_corner_distance)
        assert berry_esseen_experiment(params, (100, 400, 1600), 3000, seed) == report


class TestBerryEsseen:
    def test_distances_decay_and_determinism(self):
        params = TwoByTwoParams(1.0, 1.0, 2.0)
        report = berry_esseen_experiment(params, (100, 400, 1600), 1500, 42)
        noise = 2.0 / np.sqrt(1500)
        pairs = zip(report.kolmogorov_distances, report.kolmogorov_distances[1:])
        assert all(later <= earlier + noise for earlier, later in pairs)
        again = berry_esseen_experiment(params, (100, 400, 1600), 1500, 42)
        assert report == again

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_large_sample_is_nearly_normal(self, n):
        params = TwoByTwoParams(1.0, 1.0, 2.0)
        report = berry_esseen_experiment(params, (n,), 2000, 7)
        assert report.kolmogorov_distances[0] <= 0.05

    @pytest.mark.parametrize("seed", [100, 101])
    def test_distance_decays_at_root_n_rate(self, seed):
        # Berry-Esseen: D_N = O(1/sqrt(N)). With 4e5 replications the Monte
        # Carlo floor (about 1e-3) stays below D_N up to N = 6400, so the
        # band on sqrt(N) D_N and the slope both fail for a mis-scaled whitener.
        sizes = (400, 800, 1600, 3200, 6400)
        report = berry_esseen_experiment(TwoByTwoParams(1.0, 1.0, 2.0), sizes, 400_000, seed)
        dists = np.array(report.kolmogorov_distances)
        scaled = np.sqrt(sizes) * dists
        assert np.all((scaled >= 0.6) & (scaled <= 1.1)), scaled
        slope = np.polyfit(np.log(sizes), np.log(dists), 1)[0]
        assert -0.6 <= slope <= -0.4, slope

    def test_requires_positive_b(self):
        with pytest.raises(ZeroB):
            berry_esseen_experiment(TwoByTwoParams(1.0, 0.0, 1.0), (100,), 10, 0)

    def test_sizes_must_ascend(self):
        with pytest.raises(ValueError):
            berry_esseen_experiment(TwoByTwoParams(1.0, 1.0, 2.0), (400, 100), 10, 0)

    def test_sample_size_must_be_positive(self):
        with pytest.raises(ValueError, match="sample size must be at least 1"):
            berry_esseen_experiment(TwoByTwoParams(1.0, 1.0, 2.0), (0,), 10, 0)

    def test_all_degenerate_size_raises(self):
        # One draw never fills the cells the closed form needs.
        with pytest.raises(DegenerateTable):
            berry_esseen_experiment(TwoByTwoParams(1.0, 1.0, 2.0), (1,), 20, 0)

    def test_csv_schema(self):
        params = TwoByTwoParams(1.0, 1.0, 2.0)
        report = berry_esseen_experiment(params, (100, 200), 200, 3)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "n,ks_distance,reps,seed"
        assert len(lines) == 3
        assert lines[1].startswith("100,")

