"""Sampler correctness: distributional agreement, determinism, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from dppmle import sampling
from dppmle.errors import DppError
from dppmle.kernels import (
    DistributionTable,
    enumerate_distribution,
    validate_kernel,
)
from dppmle.sampling import (
    SAMPLERS,
    SEED_LIMIT,
    SampleBatch,
    batch_from_csv,
    batch_to_csv,
    make_rng,
    sample_batch,
)
from dppmle.verify_support import random_ensemble

DENSE2 = np.array([[1.0, 1.0], [1.0, 2.0]])


def _rank3_kernel(n: int, seed: int) -> np.ndarray:
    factor = np.random.default_rng(seed).normal(size=(n, 3))
    return factor @ factor.T


def _orthonormalize(columns):
    """Modified Gram-Schmidt with renormalization; drops dependent columns."""
    kept = []
    for j in range(columns.shape[1]):
        v = columns[:, j].copy()
        for u in kept:
            v -= (u @ v) * u
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            kept.append(v / norm)
    if not kept:
        return np.zeros((columns.shape[0], 0))
    return np.column_stack(kept)


def _gram_schmidt_eliminate(v, picks):
    """The projection phase before the chain-rule loop: pivot, delete a column, re-orthonormalize."""
    picks = iter(picks)
    mask = 0
    while v.shape[1] > 0:
        weights = np.clip(np.sum(v * v, axis=1), 0.0, None)
        cdf = np.cumsum(weights / weights.sum())
        item = min(int(np.searchsorted(cdf, next(picks), side="right")), len(weights) - 1)
        mask |= 1 << item
        if v.shape[1] == 1:
            break
        pivot = int(np.argmax(np.abs(v[item, :])))
        pivot_col = v[:, pivot]
        others = np.delete(v, pivot, axis=1)
        others = others - np.outer(pivot_col / pivot_col[item], others[item, :])
        v = _orthonormalize(others)
    return mask


def _chain_rule_eliminate(vectors, picks):
    """The per-draw chain-rule loop that the lockstep sampler runs over many draws at once."""
    n, k = vectors.shape
    weights = np.sum(vectors * vectors, axis=1)
    basis = np.empty((n, k))
    mask = 0
    for s in range(k):
        w = np.clip(weights, 0.0, None)
        cdf = np.cumsum(w / w.sum())
        item = min(int(np.searchsorted(cdf, picks[s], side="right")), n - 1)
        mask |= 1 << item
        if s == k - 1:
            break
        basis[:, s] = (vectors @ vectors[item] - basis[:, :s] @ basis[item, :s]) / np.sqrt(w[item])
        weights -= basis[:, s] ** 2
    return mask


def _per_draw_batch(entries, count, seed, eliminate):
    """Spectral draws one at a time, with the same Bernoulli selection and RNG stream as ``sample_batch``.

    Each draw reads 2n uniforms: n for the selection, then one per pick.
    """
    lam, vecs = np.linalg.eigh(entries)
    lam = np.clip(lam, 0.0, None)
    rng = make_rng(seed)
    n = lam.size
    masks = []
    for _ in range(count):
        u = rng.random(2 * n)
        selection = u[:n] < lam / (1.0 + lam)
        masks.append(eliminate(vecs[:, selection], u[n:]) if selection.any() else 0)
    return np.array(masks, dtype=np.int64)


def _fixed_spectrum_kernel(lam, seed):
    """A kernel with eigenvalues lam in a random orthonormal basis, so its draw-size law is known."""
    basis, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(lam), len(lam))))
    return (basis * lam) @ basis.T


class TestSpectralSampler:
    def test_zero_kernel_always_empty(self):
        kernel = validate_kernel(np.zeros((2, 2)), "ensemble")
        assert all(sample_batch(kernel, 50, 0, "spectral").masks == 0)

    def test_saturated_kernel_always_full(self):
        kernel = validate_kernel(1e6 * np.eye(2), "ensemble")
        assert all(sample_batch(kernel, 50, 0, "spectral").masks == 0b11)
        kernel = validate_kernel(1e6 * _rank3_kernel(12, 4), "ensemble")
        assert all(int(m).bit_count() == 3 for m in sample_batch(kernel, 50, 0, "spectral").masks)

    def test_matches_enumeration_in_total_variation(self):
        kernel = validate_kernel(DENSE2, "ensemble")
        table = enumerate_distribution(kernel)
        batch = sample_batch(kernel, 100_000, 3, "spectral")
        freqs = np.bincount(batch.masks, minlength=4) / len(batch)
        assert 0.5 * np.abs(freqs - table.probs).sum() <= 0.01

    def test_chi_square_against_enumeration(self):
        kernel = validate_kernel(DENSE2, "ensemble")
        table = enumerate_distribution(kernel)
        batch = sample_batch(kernel, 100_000, 3, "spectral")
        counts = np.bincount(batch.masks, minlength=4)
        _, p_value = chisquare(counts, table.probs * len(batch))
        assert p_value > 1e-3

    @pytest.mark.parametrize("entries,seed", [
        ([[1, 0.2, 0], [0.2, 2, 0.3], [0, 0.3, 3]], 23),
        ([[1.0, 0.5, 0.2, 0.0], [0.5, 1.5, 0.1, 0.3],
          [0.2, 0.1, 0.8, 0.2], [0.0, 0.3, 0.2, 1.2]], 29),
    ])
    def test_chi_square_larger_ground_sets(self, entries, seed):
        kernel = validate_kernel(entries, "ensemble")
        table = enumerate_distribution(kernel)
        batch = sample_batch(kernel, 50_000, seed, "spectral")
        counts = np.bincount(batch.masks, minlength=1 << kernel.n)
        _, p_value = chisquare(counts, table.probs * len(batch))
        assert p_value > 1e-3

    def test_cardinality_law(self):
        # |Y| is a sum of independent Bernoulli(lam/(1+lam)) draws
        kernel = validate_kernel([[1, 0.2, 0], [0.2, 2, 0.3], [0, 0.3, 3]], "ensemble")
        lam = kernel.eigenvalues()
        q = lam / (1 + lam)
        pmf = np.array([1.0])
        for qi in q:
            pmf = np.convolve(pmf, [1 - qi, qi])
        batch = sample_batch(kernel, 100_000, 9, "spectral")
        sizes = np.array([int(m).bit_count() for m in batch.masks])
        freqs = np.bincount(sizes, minlength=4) / len(batch)
        assert 0.5 * np.abs(freqs - pmf).sum() <= 0.01


class TestChainRuleStep:
    """The chain-rule loop draws exactly what Gram-Schmidt elimination drew."""

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (5, 2), (10, 3), (12, 4)])
    def test_same_masks_as_gram_schmidt(self, n, seed):
        entries = random_ensemble(n, np.random.default_rng(seed)).entries
        expected = _per_draw_batch(entries, 2000, seed, _gram_schmidt_eliminate)
        np.testing.assert_array_equal(sample_batch(entries, 2000, seed, "spectral").masks, expected)

    def test_rank3_same_masks_as_gram_schmidt(self):
        entries = _rank3_kernel(12, 5)
        expected = _per_draw_batch(entries, 2000, 5, _gram_schmidt_eliminate)
        assert max(int(m).bit_count() for m in expected) == 3
        np.testing.assert_array_equal(sample_batch(entries, 2000, 5, "spectral").masks, expected)


class TestLockstepDraws:
    """Draws advanced together, in chunks of equal size, match draws made one at a time."""

    def test_batch_is_a_prefix_of_larger_batches(self):
        entries = random_ensemble(5, np.random.default_rng(1)).entries
        count = sampling._SPECTRAL_CHUNK + 300
        batch = sample_batch(entries, count, 11, "spectral").masks
        np.testing.assert_array_equal(batch[:300], sample_batch(entries, 300, 11, "spectral").masks)
        np.testing.assert_array_equal(batch, sample_batch(entries, 2 * count, 11, "spectral").masks[:count])
        lam, vecs = np.linalg.eigh(entries)
        rng = make_rng(11)
        sampling._spectral_draws(np.clip(lam, 0.0, None), vecs, rng, count)
        manual = make_rng(11)
        manual.random((count, 2 * lam.size))
        assert rng.random() == manual.random()

    @pytest.mark.parametrize("lam", [
        [1.0, 1.5],
        [1e9] * 6 + [1.0, 1.5, 0.0, 0.0],
    ], ids=["n2", "n10"])
    def test_chunked_groups_match_per_draw_loop(self, lam):
        entries = _fixed_spectrum_kernel(lam, 6)
        count = 5 * sampling._SPECTRAL_CHUNK
        expected = _per_draw_batch(entries, count, 6, _chain_rule_eliminate)
        chunks = [expected[i:i + sampling._SPECTRAL_CHUNK] for i in range(0, count, sampling._SPECTRAL_CHUNK)]
        assert len(chunks) >= 2
        for chunk in chunks:
            sizes = np.unique([int(m).bit_count() for m in chunk])
            assert np.count_nonzero(sizes) >= 2
        assert np.array_equal(sample_batch(entries, count, 6, "spectral").masks, expected)


class TestEnumerationSampler:
    def test_degenerate_table(self):
        table = DistributionTable(np.array([1.0, 0.0, 0.0, 0.0]))
        assert all(sampling._enumeration_draw_many(table, 50, make_rng(5)) == 0)

    def test_uniform_table_frequencies(self):
        table = DistributionTable(0.25 * np.ones(4))
        masks = sampling._enumeration_draw_many(table, 100_000, make_rng(5))
        freqs = np.bincount(masks, minlength=4) / masks.size
        np.testing.assert_allclose(freqs, 0.25, atol=0.01)

    def test_dense2_frequencies(self):
        kernel = validate_kernel(DENSE2, "ensemble")
        table = enumerate_distribution(kernel)
        batch = sample_batch(kernel, 100_000, 17, "enumeration")
        freqs = np.bincount(batch.masks, minlength=4) / len(batch)
        assert 0.5 * np.abs(freqs - table.probs).sum() <= 0.01


class TestBatches:
    def test_determinism(self):
        kernel = validate_kernel(np.eye(2), "ensemble")
        a = sample_batch(kernel, 5, 42, "enumeration")
        b = sample_batch(kernel, 5, 42, "enumeration")
        np.testing.assert_array_equal(a.masks, b.masks)
        c = sample_batch(kernel, 500, 42, "spectral")
        d = sample_batch(kernel, 500, 42, "spectral")
        np.testing.assert_array_equal(c.masks, d.masks)

    def test_single_item_inclusion_frequency(self):
        kernel = validate_kernel(np.diag([7.0, 5.0, 9.0]), "ensemble")
        batch = sample_batch(kernel, 10_000, 1, "spectral")
        freq = np.mean(batch.masks & 1 == 1)
        assert abs(freq - 7 / 8) <= 0.02

    def test_batch_size_validation(self):
        kernel = validate_kernel(np.eye(2), "ensemble")
        with pytest.raises(ValueError):
            sample_batch(kernel, 0, 1, "enumeration")
        with pytest.raises(ValueError):
            sample_batch(kernel, 10, 1, "bogus")

    def test_mask_bounds_checked(self):
        with pytest.raises(ValueError):
            SampleBatch(2, np.array([4]), 0, "enumeration")


class TestCsv:
    def test_round_trip(self):
        kernel = validate_kernel(DENSE2, "ensemble")
        batch = sample_batch(kernel, 25, 7, "enumeration")
        recovered = batch_from_csv(batch_to_csv(batch))
        np.testing.assert_array_equal(recovered.masks, batch.masks)
        assert recovered.n_ground == batch.n_ground
        assert recovered.seed == batch.seed
        assert recovered.sampler == batch.sampler

    def test_items_must_match_mask(self):
        with pytest.raises(ValueError):
            batch_from_csv("# n_ground=2\nindex,mask,items\n0,3,0\n")

    def test_metadata_required(self):
        with pytest.raises(ValueError):
            batch_from_csv("index,mask,items\n0,1,0\n")

    @pytest.mark.parametrize("metadata", [
        "n_ground=2 seed=-5", f"n_ground=2 seed={2**128}", "n_ground=2 sampler=bogus",
    ], ids=["seed-negative", "seed-2-pow-128", "sampler-unknown"])
    def test_metadata_checked(self, metadata):
        with pytest.raises(ValueError):
            batch_from_csv(f"# {metadata}\nindex,mask,items\n0,1,0\n")

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 63).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, (1 << n) - 1), max_size=20),
        st.integers(0, SEED_LIMIT - 1),
        st.sampled_from(SAMPLERS),
    )))
    def test_round_trip_property(self, fields):
        n_ground, masks, seed, sampler = fields
        batch = SampleBatch(n_ground, np.array(masks, dtype=np.int64), seed, sampler)
        recovered = batch_from_csv(batch_to_csv(batch))
        np.testing.assert_array_equal(recovered.masks, batch.masks)
        assert (recovered.n_ground, recovered.seed, recovered.sampler) == (n_ground, seed, sampler)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(),
        st.lists(st.one_of(
            st.text(alphabet="0123456789,;-#= \n", max_size=12),
            st.sampled_from(["# n_ground=2", "# n_ground=64", "index,mask,items", "seed=-1",
                             "sampler=bogus", "0,3,0;1", f"0,{2**63},63"]),
        ), max_size=8).map("\n".join),
    ))
    def test_arbitrary_text_raises_only_value_or_dpp_errors(self, text):
        try:
            batch_from_csv(text)
        except (ValueError, DppError):
            pass

    def test_schema(self):
        batch = SampleBatch(2, np.array([0, 3, 1]), 9, "enumeration")
        lines = batch_to_csv(batch).strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "index,mask,items"
        assert lines[2] == "0,0,"
        assert lines[3] == "1,3,0;1"
        assert lines[4] == "2,1,0"
