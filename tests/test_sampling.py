"""Sampler correctness: distributional agreement, determinism, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from dppmle import sampling
from dppmle.errors import ConfigError, DppError
from dppmle.kernels import (
    DistributionTable,
    enumerate_distribution,
    validate_kernel,
)
from dppmle.sampling import (
    BATCH_HEADER,
    ENUMERATION,
    MAX_MASK_GROUND_SET,
    SAMPLERS,
    SEED_LIMIT,
    SampleBatch,
    batch_from_csv,
    batch_to_csv,
    make_rng,
    sample_batch,
)
from dppmle.verify_support import random_ensemble, random_irreducible_ensemble

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


def _row_major_spectral_draws(lam, vecs, rng, count):
    """The draws-major sampler that ``_spectral_draws`` replaced: its per-pick arrays are (m, n)."""
    n = lam.size
    keep = lam / (1.0 + lam)
    masks = np.zeros(count, dtype=np.int64)
    for start in range(0, count, sampling._SPECTRAL_CHUNK):
        u = rng.random((min(sampling._SPECTRAL_CHUNK, count - start), 2 * n))
        sizes = np.count_nonzero(u[:, :n] < keep, axis=1)
        order = np.argsort(-sizes, kind="stable")
        u = u[order]
        picking = np.count_nonzero(sizes[:, None] > np.arange(n + 1), axis=0)
        selection = (u[:, :n] < keep).astype(float)
        weights = selection @ (vecs * vecs).T
        columns, mask = [], np.zeros(u.shape[0], dtype=np.int64)
        for s in range(sizes.max()):
            a, b = picking[s], picking[s + 1]
            w = np.clip(weights[:a], 0.0, None)
            cdf = np.cumsum(w / w.sum(axis=1, keepdims=True), axis=1)
            item = np.minimum(np.count_nonzero(cdf <= u[:a, n + s, None], axis=1), n - 1)
            mask[:a] |= np.left_shift(1, item)
            draw, item = np.arange(b), item[:b]
            column = (selection[:b] * vecs[item]) @ vecs.T
            for earlier in columns:
                column -= earlier[:b] * earlier[draw, item][:, None]
            column /= np.sqrt(w[draw, item])[:, None]
            weights[:b] -= column**2
            columns.append(column)
        masks[start + order] = mask
    return masks


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
    """Draws advanced together, a chunk at a time, match draws made one at a time."""

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

    # Each case gives the least number of distinct draw sizes, 0 included, in every chunk.
    @pytest.mark.parametrize("entries,count,least_sizes", [
        (_fixed_spectrum_kernel([1.0, 1.5], 6), 5 * sampling._SPECTRAL_CHUNK, 3),
        (_fixed_spectrum_kernel([1e9] * 6 + [1.0, 1.5, 0.0, 0.0], 6), 5 * sampling._SPECTRAL_CHUNK, 3),
        (_fixed_spectrum_kernel([0.7, 0.8, 0.9, 1.1, 1.25, 1.4], 6), 2 * sampling._SPECTRAL_CHUNK + 1000, 7),
        (random_irreducible_ensemble(20, np.random.default_rng(6)).entries / 10, 2 * sampling._SPECTRAL_CHUNK + 300, 8),
        (np.kron(np.eye(15), [[1, 0.5], [0.5, 2]]), 2 * sampling._SPECTRAL_CHUNK + 300, 16),
        ([[1.5]], 2 * sampling._SPECTRAL_CHUNK + 300, 2),
    ], ids=["n2", "n10", "every-size-n6", "irreducible-n20", "block-n30", "n1"])
    def test_chunked_groups_match_per_draw_loop(self, entries, count, least_sizes):
        expected = _per_draw_batch(entries, count, 6, _chain_rule_eliminate)
        chunks = [expected[i:i + sampling._SPECTRAL_CHUNK] for i in range(0, count, sampling._SPECTRAL_CHUNK)]
        assert len(chunks) >= 2
        for chunk in chunks:
            sizes = np.unique([int(m).bit_count() for m in chunk])
            assert sizes.size >= least_sizes
        assert np.array_equal(sample_batch(entries, count, 6, "spectral").masks, expected)


class TestRowMajorReference:
    """The sampler draws exactly what the draws-major loop drew from the same eigenpairs and stream.

    From n = 8 on, numpy's pairwise row sum can round a pick's normalizer differently, so a mask could
    flip where a uniform lands within rounding of a cdf boundary; none does on these draws.
    """

    @pytest.mark.parametrize("entries,count", [
        *[pytest.param(random_ensemble(n, np.random.default_rng(n)).entries, 2 * sampling._SPECTRAL_CHUNK + 100,
                       id=f"n{n}") for n in (1, 2, 3, 7, 8, 9, 10, 12, 20)],
        pytest.param(_rank3_kernel(12, 5), 2 * sampling._SPECTRAL_CHUNK + 100, id="rank3-n12"),
        pytest.param(np.kron(np.eye(15), [[1, 0.5], [0.5, 2]]), 2 * sampling._SPECTRAL_CHUNK + 100, id="block-n30"),
        pytest.param(random_ensemble(40, np.random.default_rng(40)).entries, 1000, id="n40"),
    ])
    def test_same_masks_as_row_major_loop(self, entries, count):
        lam, vecs = np.linalg.eigh(entries)
        lam = np.clip(lam, 0.0, None)
        expected = _row_major_spectral_draws(lam, vecs, make_rng(3), count)
        np.testing.assert_array_equal(sampling._spectral_draws(lam, vecs, make_rng(3), count), expected)

    def test_pick_at_a_cdf_boundary(self):
        # Random uniforms never land on a cdf boundary. Here the eigenvectors are the columns of a
        # 4x4 Hadamard matrix over 2, so each first pick's cdf is exactly 0.25, 0.5, 0.75, 1, and a
        # uniform on a boundary takes the next item, as searchsorted(cdf, u, "right") does.
        class Replay:
            def __init__(self, block):
                self.block = block

            def random(self, shape):
                rows, self.block = self.block[:shape[0]], self.block[shape[0]:]
                return rows

        hadamard = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2
        # The first four uniforms select eigenvectors (keep = 0.5), the rest drive the picks.
        block = np.array([[0.25, 0.9, 0.9, 0.9, 0.5, 0.1, 0.1, 0.1],
                          [0.25, 0.25, 0.9, 0.9, 0.5, 0.5, 0.1, 0.1],
                          [0.9, 0.9, 0.9, 0.25, 0.75, 0.1, 0.1, 0.1],
                          [0.9, 0.25, 0.25, 0.9, 0.25, 0.6, 0.1, 0.1],
                          [0.9, 0.9, 0.9, 0.9, 0.1, 0.1, 0.1, 0.1]])
        masks = sampling._spectral_draws(np.ones(4), hadamard, Replay(block), len(block))
        assert masks[0] == 1 << 2
        np.testing.assert_array_equal(masks, _row_major_spectral_draws(np.ones(4), hadamard, Replay(block), len(block)))


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
        with pytest.raises(ConfigError):
            sample_batch(kernel, 0, 1, "enumeration")
        with pytest.raises(ConfigError):
            sample_batch(kernel, 10, 1, "bogus")
        # counts become float64 frequencies, exact up to 2**53; above it the
        # refusal comes before numpy is asked for the array
        with pytest.raises(ConfigError, match="batch size must be at most 2\\*\\*53"):
            sample_batch(kernel, 2**53 + 1, 1, "enumeration")

    @pytest.mark.parametrize("seed", [1.5, True, -1, SEED_LIMIT, np.float64(2.0)],
                             ids=["float", "bool", "negative", "2-pow-128", "numpy-float"])
    def test_seed_rule(self, seed):
        # every generator the package builds checks its seed: a float or a bool
        # would key a stream silently, and Philox refuses a negative key bare
        kernel = validate_kernel(np.eye(2), "ensemble")
        with pytest.raises(ConfigError, match="seeds"):
            make_rng(seed)
        with pytest.raises(ConfigError, match="seeds"):
            sample_batch(kernel, 3, seed, "enumeration")

    def test_mask_bounds_checked(self):
        with pytest.raises(ValueError):
            SampleBatch(2, np.array([4]), 0, "enumeration")


def _reference_subset_indices(mask):
    """The bit loop that ``subset_indices`` ran before it read ``bin(mask)``."""
    out = []
    i = 0
    m = mask
    while m:
        if m & 1:
            out.append(i)
        m >>= 1
        i += 1
    return tuple(out)


def _reference_batch_to_csv(batch):
    """The per-draw writer that ``batch_to_csv`` replaced."""
    lines = [
        f"# n_ground={batch.n_ground} seed={batch.seed} sampler={batch.sampler}",
        BATCH_HEADER,
    ]
    for i, mask in enumerate(batch.masks):
        items = ";".join(str(j) for j in _reference_subset_indices(int(mask)))
        lines.append(f"{i},{int(mask)},{items}")
    return "\n".join(lines) + "\n"


def _reference_batch_from_csv(text):
    """The per-draw reader that ``batch_from_csv`` replaced; it never read the index column."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    meta = {"n_ground": None, "seed": 0, "sampler": ENUMERATION}
    masks = []
    for ln in lines:
        if ln.startswith("#"):
            for token in ln[1:].split():
                if "=" in token:
                    key, value = token.split("=", 1)
                    if key in ("n_ground", "seed"):
                        meta[key] = int(value)
                    elif key == "sampler":
                        meta[key] = value
        elif ln != BATCH_HEADER:
            fields = ln.split(",")
            if len(fields) != 3:
                raise ValueError(f"row {ln!r}: expected {BATCH_HEADER}")
            mask = int(fields[1])
            if not 0 <= mask < 1 << MAX_MASK_GROUND_SET:
                raise ValueError(f"row {ln!r}: mask outside [0, 2**{MAX_MASK_GROUND_SET})")
            items = fields[2].split(";") if fields[2] else ()
            if tuple(map(int, items)) != _reference_subset_indices(mask):
                raise ValueError(f"row {ln!r}: items do not match mask {mask}")
            masks.append(mask)
    if meta["n_ground"] is None:
        raise ValueError("missing '# n_ground=..' metadata line")
    return SampleBatch(meta["n_ground"], np.array(masks, dtype=np.int64), meta["seed"], meta["sampler"])


def _data_rows(text):
    """Positions in ``text.splitlines()`` of the lines that both readers take as data rows."""
    return [i for i, ln in enumerate(text.splitlines())
            if ln.strip() and not ln.startswith("#") and ln != BATCH_HEADER]


def _renumbered(text):
    """``text`` with every data row's index set to its position among the data rows."""
    lines = text.splitlines()
    for position, i in enumerate(_data_rows(text)):
        index, comma, tail = lines[i].partition(",")
        if comma:
            lines[i] = f"{position},{tail}"
    return "\n".join(lines)


def _outcome(read, text):
    """What ``read(text)`` returns, as plain values, or the type and message of what it raises."""
    try:
        batch = read(text)
    except (ValueError, DppError) as exc:
        return type(exc), str(exc)
    return batch.n_ground, batch.seed, batch.sampler, batch.masks.tolist()


#: Texts for the reader fuzz tests: arbitrary text, and lines from a batch-like alphabet.
_CSV_TEXTS = st.one_of(
    st.text(),
    st.lists(st.one_of(
        st.text(alphabet="0123456789,;-#= \n", max_size=12),
        st.sampled_from(["# n_ground=2", "# n_ground=64", "index,mask,items", "seed=-1",
                         "sampler=bogus", "0,3,0;1", f"0,{2**63},63"]),
    ), max_size=8).map("\n".join),
)

#: Batch-shaped texts: metadata, header and rows of small numbers that often disagree.
_CSV_ROWS = st.lists(st.one_of(
    st.tuples(
        st.integers(-1, 4),
        st.one_of(st.integers(-2, 8), st.just(2**63)),
        st.lists(st.integers(-1, 4), max_size=3).map(lambda items: ";".join(map(str, items))),
    ).map(lambda fields: ",".join(map(str, fields))),
    st.sampled_from(["# n_ground=3", "# n_ground=2 seed=5 sampler=spectral", "index,mask,items", " ",
                     "0,1,0,0", "0,1"]),
), max_size=10).map("\n".join)


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
    @given(_CSV_TEXTS)
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

    @pytest.mark.parametrize("text,row,position", [
        ("# n_ground=2\nindex,mask,items\n7,1,0\n", "7,1,0", 0),
        ("# n_ground=2\nindex,mask,items\n0,1,0\n1,3,0;1\n" * 2, "0,1,0", 2),
        ("# n_ground=2\nindex,mask,items\n0,1,0\n 1,3,0;1\n", " 1,3,0;1", 1),
        ("# n_ground=2\nindex,mask,items\n0,1,0\n01,3,0;1\n", "01,3,0;1", 1),
    ], ids=["first-row-seven", "two-files-pasted", "leading-space", "leading-zero"])
    def test_index_must_be_row_position(self, text, row, position):
        with pytest.raises(ValueError, match=f"is not the row's position {position}$") as info:
            batch_from_csv(text)
        assert str(info.value).startswith(f"row {row!r}: ") and "\n" not in str(info.value)

    def test_bad_row_reported_before_a_later_misnumbered_row(self):
        text = "# n_ground=2\nindex,mask,items\n0,3,0\n5,1,0\n"
        with pytest.raises(ValueError, match="row '0,3,0': items do not match mask 3"):
            batch_from_csv(text)

    def test_misnumbered_row_reported_before_a_later_bad_row(self):
        text = "# n_ground=2\nindex,mask,items\n0,1,0\n5,1,0\n2,3,0\n"
        with pytest.raises(ValueError, match="row '5,1,0': index '5'"):
            batch_from_csv(text)

    def test_repeated_bad_row_reported_at_its_first_occurrence(self):
        text = "# n_ground=2\nindex,mask,items\n0,1,0\n1,3,1\n2,3,1\n"
        with pytest.raises(ValueError, match="row '1,3,1': items do not match mask 3"):
            batch_from_csv(text)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 63).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=5),
        st.lists(st.integers(0, 4), max_size=300),
        st.integers(0, SEED_LIMIT - 1),
        st.sampled_from(SAMPLERS),
    )))
    def test_writer_matches_per_draw_reference(self, fields):
        n_ground, pool, picks, seed, sampler = fields
        masks = np.array([pool[p % len(pool)] for p in picks], dtype=np.int64)
        batch = SampleBatch(n_ground, masks, seed, sampler)
        text = batch_to_csv(batch)
        assert text == _reference_batch_to_csv(batch)
        np.testing.assert_array_equal(batch_from_csv(text).masks, masks)

    def test_writer_matches_per_draw_reference_on_spectral_batches(self):
        for n, draws, seed in ((2, 3000, 0), (4, 3000, 1), (10, 5000, 71)):
            batch = sample_batch(random_ensemble(n, np.random.default_rng(seed)), draws, seed, "spectral")
            assert batch_to_csv(batch) == _reference_batch_to_csv(batch)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(_CSV_TEXTS, _CSV_ROWS))
    def test_reader_matches_per_draw_reference(self, text):
        # With every index right, the reader must accept, reject and report exactly as before.
        fixed = _renumbered(text)
        assert _outcome(batch_from_csv, fixed) == _outcome(_reference_batch_from_csv, fixed)
        # As written, the index rule is the only difference. It names the first misnumbered
        # row, and only after the rest of that row passed the old checks.
        outcome = _outcome(batch_from_csv, text)
        if outcome[0] is ValueError and "is not the row's position" in outcome[1]:
            lines, fixed_lines = text.splitlines(), fixed.splitlines()
            first = next(lines[i] for i in _data_rows(text) if lines[i] != fixed_lines[i])
            assert outcome[1].startswith(f"row {first!r}: index ")
            _reference_batch_from_csv(f"# n_ground=63\n0,{first.partition(',')[2]}")
        else:
            assert outcome == _outcome(_reference_batch_from_csv, text)
