"""Kernel validation, exact probabilities, divergences, and the orbit distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dppmle import kernels as kernels_module
from dppmle.errors import (
    DppError,
    EigenvalueOutOfRange,
    GroundSetTooLarge,
    NotSymmetric,
)
from dppmle.kernels import (
    DistributionTable,
    KernelMatrix,
    _size_groups,
    atomic_probability_from_marginal,
    ensemble_probability,
    enumerate_distribution,
    inclusion_probabilities,
    kernel_from_text,
    kernel_to_text,
    marginal_of,
    sign_distance,
    subset_indices,
    validate_kernel,
)
from conftest import conjugate, random_kernel
from oracles import SupportMismatch, kl_divergence

DENSE2 = np.array([[1.0, 1.0], [1.0, 2.0]])


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

    @pytest.mark.parametrize("entries", [[[1e308, 1e308], [1e308, 1e308]], [[1e308, 1e308], [1e308, 1.7e308]]],
                             ids=["rank-1", "full-rank"])
    def test_eigenvalue_beyond_float_range_rejected(self, entries):
        # finite entries whose largest eigenvalue overflows to inf; inf as the
        # tolerance would pass every bound, and both samplers draw wrongly from it
        with pytest.raises(EigenvalueOutOfRange, match="beyond float64's range") as err:
            validate_kernel(entries, "ensemble")
        assert err.value.eigenvalue == np.inf
        # a large eigenvalue that float64 holds is fine
        np.testing.assert_array_equal(validate_kernel(np.diag([1.5e308, 1.0]), "ensemble").eigenvalues(),
                                      [1.0, 1.5e308])


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

    @pytest.mark.parametrize("mask", [-1, 4, 1 << 40, 1 << 70])
    def test_ensemble_route_refuses_masks_outside_ground_set(self, mask):
        with pytest.raises(ValueError, match="outside"):
            ensemble_probability(validate_kernel(DENSE2, "ensemble"), mask)

    @pytest.mark.parametrize("mask", [-1, 4, 1 << 40, 1 << 70])
    def test_marginal_route_refuses_masks_outside_ground_set(self, mask):
        with pytest.raises(ValueError, match="outside"):
            atomic_probability_from_marginal(marginal_of(validate_kernel(DENSE2, "ensemble")), mask)

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


def _one_mask_ensemble(entries, mask):
    """The one-mask ensemble route as it was before it took mask arrays: one (1, k, k) slogdet."""
    n = entries.shape[0]
    index = np.array([subset_indices(mask)], dtype=np.intp)
    _, log_norm = np.linalg.slogdet(entries + np.eye(n))
    sign, logdet = np.linalg.slogdet(entries[index[:, :, None], index[:, None, :]])
    return float(np.where(sign > 0, np.exp(logdet - log_norm), 0.0)[0])


def _one_mask_marginal(entries, mask):
    """The one-mask marginal route as it was before it took mask arrays: a copy shifted in a loop."""
    shifted = entries.copy()
    for i in range(entries.shape[0]):
        if not mask >> i & 1:
            shifted[i, i] -= 1.0
    sign, logdet = np.linalg.slogdet(shifted)
    return 0.0 if sign == 0 else float(np.exp(logdet))


class TestMaskArrays:
    """A mask array gives each mask the bits of its one-mask call."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_both_routes_match_one_mask_calls(self, n, rng):
        for _ in range(5 if n < 7 else 2):
            kernel = random_kernel(n, rng)
            marginal = marginal_of(kernel)
            masks = rng.permutation(1 << n)
            direct = ensemble_probability(kernel, masks)
            atomic = atomic_probability_from_marginal(marginal, masks)
            assert direct.shape == atomic.shape == masks.shape
            for k, mask in enumerate(masks.tolist()):
                one = ensemble_probability(kernel, mask)
                assert type(one) is float and direct[k] == one == _one_mask_ensemble(kernel.entries, mask)
                one = atomic_probability_from_marginal(marginal, mask)
                assert type(one) is float and atomic[k] == one == _one_mask_marginal(marginal.entries, mask)
            assert np.array_equal(ensemble_probability(kernel, np.arange(1 << n)), enumerate_distribution(kernel).probs)

    def test_shape_is_kept(self):
        masks = np.array([[0, 1], [3, 2]])
        for route, kernel in ((ensemble_probability, validate_kernel(DENSE2, "ensemble")),
                              (atomic_probability_from_marginal, marginal_of(validate_kernel(DENSE2, "ensemble")))):
            assert route(kernel, masks).shape == (2, 2)
            assert route(kernel, np.array([], dtype=int)).shape == (0,)

    def test_size_groups_are_shared_and_read_only(self):
        groups = _size_groups(np.arange(8, dtype=np.intp).tobytes(), 3)
        assert _size_groups(np.arange(8, dtype=np.intp).tobytes(), 3) is groups
        assert [index.shape for _, index in groups] == [(1, 0), (3, 1), (3, 2), (1, 3)]
        for where, index in groups:
            for part in (where, index):
                with pytest.raises(ValueError):
                    part[...] = 0

    @pytest.mark.parametrize("route", [ensemble_probability, atomic_probability_from_marginal])
    def test_refuses_bad_mask_arrays(self, route):
        kernel = marginal_of(validate_kernel(DENSE2, "ensemble"))
        with pytest.raises(ValueError, match="mask 4 is outside"):
            route(kernel, np.array([0, 3, 4, -1]))
        with pytest.raises(ValueError, match="must be integers"):
            route(kernel, np.array([0.0, 1.0]))
        # an object array passes only Python or numpy integers to the range test
        for bad in ([0.5], [1, 2.0], [True], [np.float64(1.0)]):
            with pytest.raises(ValueError, match="must be integers"):
                route(kernel, np.array(bad, dtype=object))
        assert np.array_equal(route(kernel, np.array([1, np.int64(2)], dtype=object)), route(kernel, np.array([1, 2])))

    def test_chunks_do_not_change_bits(self, rng, monkeypatch):
        kernel = random_kernel(4, rng)
        marginal = marginal_of(kernel)
        masks = rng.permutation(16)
        whole = ensemble_probability(kernel, masks), atomic_probability_from_marginal(marginal, masks)
        table = enumerate_distribution(kernel).probs
        monkeypatch.setattr(kernels_module, "_ENUMERATION_CHUNK", 3)
        assert np.array_equal(ensemble_probability(kernel, masks), whole[0])
        assert np.array_equal(atomic_probability_from_marginal(marginal, masks), whole[1])
        assert np.array_equal(enumerate_distribution(kernel).probs, table)


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
            conjugated = KernelMatrix(conjugate(kernel.entries, signs), "ensemble")
            np.testing.assert_allclose(
                enumerate_distribution(conjugated).probs, table.probs, atol=1e-12
            )

    def test_table_validation(self):
        with pytest.raises(ValueError):
            DistributionTable(np.array([0.5, 0.5, 0.25, -0.25]))
        with pytest.raises(ValueError):
            DistributionTable(np.array([0.5, 0.5, 0.25, 0.25]))
        with pytest.raises(ValueError):
            DistributionTable(np.array([0.5, 0.25, 0.25]))

    def test_table_refuses_nan(self):
        # NaN fails the sign and sum checks, which compare False with it
        with pytest.raises(ValueError, match="sum to nan"):
            DistributionTable(np.array([np.nan, 0.5, 0.5, 0.0]))


class TestKlDivergence:
    def test_identical_tables(self):
        t = enumerate_distribution(validate_kernel(np.eye(2), "ensemble"))
        assert kl_divergence(t, t) == pytest.approx(0.0, abs=1e-15)

    def test_sign_orbit_gives_zero(self):
        kernel = validate_kernel(DENSE2, "ensemble")
        flipped = KernelMatrix(conjugate(kernel.entries, 0b10), "ensemble")
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
        p = DistributionTable(np.array([0.5, 0.5]))
        q = DistributionTable(np.array([1.0, 0.0]))
        with pytest.raises(SupportMismatch):
            kl_divergence(p, q)


def _whole_pair_scan(a, b):
    """The whole-pair rule: every sign class of the pair, element 0 at +1, first minimum wins."""
    n = a.shape[0]
    best, best_signs = np.inf, np.ones(n)
    for signs_class in range(1 << max(n - 1, 0)):
        signs = np.where(signs_class << 1 >> np.arange(n) & 1, -1.0, 1.0)
        dist = float(np.linalg.norm(a - b * np.outer(signs, signs)))
        if dist < best - 1e-15:
            best, best_signs = dist, signs
    return best, best_signs


def _block_patterned(n, labels, rng):
    """A random kernel that is zero between items of different labels."""
    return random_kernel(n, rng).entries * (labels[:, None] == labels)


class TestSignDistance:
    def test_identical_kernels(self):
        k = validate_kernel(DENSE2, "ensemble")
        dist, signs = sign_distance(k, k)
        assert dist == 0.0
        assert (signs == 1.0).all()

    def test_exact_flip_recovered(self):
        flipped = np.array([[1.0, -1.0], [-1.0, 2.0]])
        dist, signs = sign_distance(flipped, DENSE2)
        assert dist == pytest.approx(0.0, abs=1e-15)
        assert signs[0] * signs[1] == -1.0

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

    def test_dense_pair_is_the_whole_pair_scan(self, rng):
        for n in range(1, 13):
            a, b = random_kernel(n, rng).entries, random_kernel(n, rng).entries
            dist, signs = sign_distance(a, b)
            expected_dist, expected_signs = _whole_pair_scan(a, b)
            assert dist == expected_dist
            assert np.array_equal(signs, expected_signs)

    def test_components_match_the_whole_pair_scan(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 10))
            labels = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
            a, b = _block_patterned(n, labels, rng), _block_patterned(n, labels, rng)
            dist, signs = sign_distance(a, b)
            assert dist == pytest.approx(_whole_pair_scan(a, b)[0], rel=1e-12, abs=1e-12)
            assert dist == float(np.linalg.norm(a - b * np.outer(signs, signs)))
            # each component's first element is at +1
            first = [int(np.argmax(labels == label)) for label in np.unique(labels)]
            assert (signs[first] == 1.0).all()

    def test_tie_rule_is_per_component(self):
        # The second block is flipped: the first element of each component keeps +1,
        # where the whole-pair scan's first class in mask order flips element 2 instead.
        a = np.kron(np.eye(2), DENSE2)
        b = a * np.outer([1, 1, 1, -1], [1, 1, 1, -1])
        dist, signs = sign_distance(a, b)
        assert dist == 0.0
        assert signs.tolist() == [1.0, 1.0, 1.0, -1.0]
        assert _whole_pair_scan(a, b)[1].tolist() == [1.0, 1.0, -1.0, 1.0]

    def test_exact_three_way_tie_takes_the_first_class(self):
        # s^T (A o B) s is exactly 11 at the signs (1, 1, 1), (1, 1, -1) and (1, -1, -1),
        # classes 0, 2 and 3, and 3 at (1, -1, 1)
        a = np.array([[3.0, 1.0, -1.0], [1.0, 3.0, 1.0], [-1.0, 1.0, 3.0]])
        dist, signs = sign_distance(a, np.ones((3, 3)))
        assert signs.tolist() == [1.0, 1.0, 1.0]
        assert dist == 4.47213595499958

    def test_near_tie_takes_the_larger_score(self):
        # With d = 2^-51 every score is exact: s^T (A o B) s is 2 - 2d at (1, 1, 1) and
        # 2 + 2d at (1, 1, -1), so their squared distances 14.75 and 14.75 - 2^-48 differ
        # by 2 ulps and the distances by 1. No slack lets the first class keep the pick.
        d = 2.0**-51
        a = np.array([[0.0, 1.0, -1.0], [1.0, 0.0, 1.0 - d], [-1.0, 1.0 - d, 0.0]])
        b = np.array([[1.5, 1.0, 1.0], [1.0, 1.5, 1.0], [1.0, 1.0, 1.5]])
        dist, signs = sign_distance(a, b)
        assert signs.tolist() == [1.0, 1.0, -1.0]
        assert float(np.sum((a - b * np.outer(signs, signs)) ** 2)) == 14.75 - 2.0**-48
        assert dist == float(np.linalg.norm(a - b * np.outer(signs, signs)))
        assert dist < float(np.linalg.norm(a - b))

    def test_nan_entry_gives_nan_on_either_pattern(self):
        # one pattern without zeros, one split into two components
        for a in ([[np.nan, 1.0], [1.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]):
            dist, signs = sign_distance(a, DENSE2)
            assert np.isnan(dist)
            assert signs.tolist() == [1.0, 1.0]

    def test_forty_items_in_pairs(self, rng):
        # 2^39 sign classes for a whole-pair scan; twenty components of 2 classes each
        flips = rng.choice([-1.0, 1.0], size=40)
        noise = np.kron(np.eye(20), np.full((2, 2), 1e-3))
        a = np.kron(np.eye(20), np.array([[1.0, 0.5], [0.5, 2.0]]))
        dist, signs = sign_distance(a, (a + noise) * np.outer(flips, flips))
        assert dist == pytest.approx(float(np.linalg.norm(noise)), rel=1e-12)
        assert np.array_equal(signs, flips * np.repeat(flips[::2], 2))


class TestSubsetIndices:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, (1 << 63) - 1))
    def test_ascending_set_bits(self, mask):
        indices = subset_indices(mask)
        assert list(indices) == sorted(set(indices))
        assert sum(1 << i for i in indices) == mask

    @pytest.mark.parametrize("mask,indices", [(0, ()), (1, (0,)), (6, (1, 2)), (1 << 62, (62,))])
    def test_small_masks(self, mask, indices):
        assert subset_indices(mask) == indices

    def test_negative_mask_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            subset_indices(-1)


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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda n: arrays(
        float, (n, n), elements=st.floats(-1e3, 1e3, allow_subnormal=True)
    )))
    def test_round_trip_is_bit_exact(self, factor):
        # B B^T mirrored from its upper triangle: exactly symmetric and PSD up to rounding
        gram = np.triu(factor @ factor.T)
        kernel = validate_kernel(gram + np.triu(gram, 1).T, "ensemble")
        recovered = kernel_from_text(kernel_to_text(kernel))
        assert recovered.entries.shape == kernel.entries.shape
        assert recovered.entries.tobytes() == kernel.entries.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(),
        # a size header followed by about as many entries as it asks for
        st.integers(-2, 3).flatmap(lambda n: st.lists(
            st.one_of(st.floats().map(repr), st.sampled_from(["1e308", "-1e308", "x", "1_0", "0x1"])),
            min_size=max(n * n, 0), max_size=max(n * n, 0) + 1,
        ).map(lambda entries: " ".join([str(n), *entries]))),
    ))
    def test_arbitrary_text_raises_only_value_or_dpp_errors(self, text):
        try:
            kernel_from_text(text)
        except (ValueError, DppError):
            pass

    @pytest.mark.parametrize("size", [-1, -2])
    def test_negative_size_has_own_message(self, size):
        with pytest.raises(ValueError, match="must not be negative"):
            kernel_from_text(f"{size}\n" + " ".join(["1"] * (size * size)))
