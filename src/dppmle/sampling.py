"""Exact samplers for finite L-ensembles.

Two routes: the spectral sampler (eigenvector selection followed by a
chain-rule draw from the selected projection kernel) and an inverse-CDF
sampler over the dense enumerated table, which serves as the oracle for
the first.

Each spectral draw reads 2n uniforms from the stream: n select the
eigenvectors, then one per selected vector drives a pick, and the rest
are unused. The sampler reads the rows of a chunk of draws as one block
and runs the chain rule once per pick over every draw of the chunk that
is still picking, as dense products over all n eigenvectors. A batch is
therefore a prefix of any larger batch at the same seed. (Earlier
versions read n + k uniforms per draw, so their spectral batches differ
from these at the same seed.)

All randomness flows through numpy Generators backed by the counter-based
Philox bit generator, keyed by a single seed in [0, 2**128), so batches
replay bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import ConfigError, EigendecompositionFailure, GroundSetTooLarge
from .kernels import (
    DistributionTable,
    KernelMatrix,
    as_array,
    enumerate_distribution,
    subset_indices,
)

SPECTRAL = "spectral"
ENUMERATION = "enumeration"
SAMPLERS = (SPECTRAL, ENUMERATION)


#: Philox keys are 128-bit: a seed is valid when 0 <= seed < SEED_LIMIT.
SEED_LIMIT = 2**128

#: Largest sample size, replication count or iteration budget: counts enter float64 (count / n), exact up to it.
MAX_COUNT = 2**53

#: Largest ground set whose subsets fit an int64 bit mask.
MAX_MASK_GROUND_SET = 63

#: Draws per uniform block of the spectral sampler; bounds the block, its (m, n) arrays and Cholesky columns.
_SPECTRAL_CHUNK = 1 << 11


def _count(what: str, value) -> int:
    """The rule for every sample size, replication count, budget and trace interval: an integer in 1..MAX_COUNT."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{what}: {value!r} is not an integer")
    if value < 1:
        raise ConfigError(f"{what} must be at least 1, not {value}")
    if value > MAX_COUNT:
        raise ConfigError(f"{what} must be at most 2**53, not {value}")
    return int(value)


def _seed(value) -> int:
    """The rule for every seed: an integer in [0, SEED_LIMIT). Bools are not integers; numpy integers are."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"seeds: {value!r} is not an integer")
    if not 0 <= value < SEED_LIMIT:
        raise ConfigError(f"seeds must be in [0, 2**128), not {value}")
    return int(value)


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide generator: Philox keyed by the given seed; ConfigError unless :func:`_seed` accepts it."""
    return np.random.Generator(np.random.Philox(key=_seed(seed)))


@dataclass(frozen=True)
class SampleBatch:
    """Ordered draws from one sampler run; ``masks`` stores one bit mask per draw."""

    n_ground: int
    masks: np.ndarray
    seed: int
    sampler: str

    def __post_init__(self):
        if not 0 <= self.n_ground <= MAX_MASK_GROUND_SET:
            raise ValueError(f"n_ground must be in [0, {MAX_MASK_GROUND_SET}], not {self.n_ground}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2**128), not {self.seed}")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}")
        arr = np.asarray(self.masks, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("masks must be a flat array")
        if arr.size and (arr.min() < 0 or arr.max() >= (1 << self.n_ground)):
            raise ValueError("draw mask out of range for the ground set")
        arr.setflags(write=False)
        object.__setattr__(self, "masks", arr)

    def __len__(self) -> int:
        return int(self.masks.size)


# ---------------------------------------------------------------------------
# Spectral sampler
# ---------------------------------------------------------------------------


def _spectral_draws(lam: np.ndarray, vecs: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` draws from the ensemble with eigenpairs (lam, vecs), as int64 masks.

    Eigenvector i joins a draw's active set independently with probability
    lam_i / (1 + lam_i); the active eigenvectors then span a projection
    kernel K, and items are picked one at a time from K's chain-rule
    conditionals (the Schur complements of K on the items already picked).

    Each chunk of draws reads one ``(m, 2n)`` block of uniforms, row i for
    draw i: the first n select the eigenvectors, and the next k, one per
    selected vector, drive the k picks. Rows are read in draw order, so the
    chunking never shows in the draws. Within a chunk the draws are ordered
    by size, largest first, so pick s runs once over a prefix of the rows.
    Its weights, ``S @ (V*V).T`` at first for the 0/1 selection rows S, are
    the diagonal of K's Schur complement on the earlier picks. Each pick but
    a draw's last adds a column of the Cholesky factor of K over the picks,
    ``(S * V[item]) @ V.T`` less the earlier columns' rank-one terms, and
    downdates the weights by its square.
    """
    n = lam.size
    if n > MAX_MASK_GROUND_SET:
        raise GroundSetTooLarge(f"{n} items do not fit an int64 mask (limit {MAX_MASK_GROUND_SET})")
    keep = lam / (1.0 + lam)
    masks = np.zeros(count, dtype=np.int64)
    for start in range(0, count, _SPECTRAL_CHUNK):
        u = rng.random((min(_SPECTRAL_CHUNK, count - start), 2 * n))
        sizes = np.count_nonzero(u[:, :n] < keep, axis=1)
        order = np.argsort(-sizes, kind="stable")
        u = u[order]
        # Ordered by size, the first picking[s] rows make pick s; picking[s + 1] of them pick again.
        picking = np.count_nonzero(sizes[:, None] > np.arange(n + 1), axis=0)
        selection = (u[:, :n] < keep).astype(float)
        weights = selection @ (vecs * vecs).T
        columns, mask = [], np.zeros(u.shape[0], dtype=np.int64)
        for s in range(sizes.max()):
            a, b = picking[s], picking[s + 1]
            # Rounding in the downdate can leave picked items slightly negative.
            w = np.clip(weights[:a], 0.0, None)
            cdf = np.cumsum(w / w.sum(axis=1, keepdims=True), axis=1)
            # cdf is nondecreasing, so this count is searchsorted(cdf, u, "right").
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


# ---------------------------------------------------------------------------
# Enumeration sampler
# ---------------------------------------------------------------------------


def _enumeration_draw_many(table: DistributionTable, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` inverse-CDF draws from the exact table; oracle for the spectral route."""
    cdf = np.cumsum(table.probs)
    masks = np.searchsorted(cdf, rng.random(count), side="right")
    return np.minimum(masks, (1 << table.n) - 1).astype(np.int64)


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------


def sample_batch(kernel: KernelMatrix, n: int, seed: int, sampler: str = SPECTRAL) -> SampleBatch:
    """Draw n independent subsets; deterministic under a fixed seed.

    ConfigError unless n passes :func:`_count`, the sampler is one of
    SAMPLERS and the seed passes :func:`_seed`, checked in that order.
    """
    n = _count("batch size", n)
    if sampler not in SAMPLERS:
        raise ConfigError(f"unknown sampler {sampler!r}")
    entries = as_array(kernel)
    rng = make_rng(seed)
    if sampler == ENUMERATION:
        table = enumerate_distribution(entries)
        masks = _enumeration_draw_many(table, n, rng)
    else:
        try:
            lam, vecs = np.linalg.eigh(entries)
        except np.linalg.LinAlgError as exc:
            raise EigendecompositionFailure(str(exc)) from exc
        masks = _spectral_draws(np.clip(lam, 0.0, None), vecs, rng, n)
    return SampleBatch(entries.shape[0], masks, seed, sampler)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

BATCH_HEADER = "index,mask,items"


def batch_to_csv(batch: SampleBatch) -> str:
    """One row per draw: index, mask, semicolon-separated item indices.

    A leading comment line carries the metadata needed to reload the batch.
    The text after a row's index is built once per distinct mask.
    """
    n = batch.n_ground
    distinct, inverse = np.unique(batch.masks, return_inverse=True)
    names = [str(i) for i in range(n)]
    # Byte k * n + i is 1 when item i is in the k-th distinct mask.
    bits = ((distinct[:, None] >> np.arange(n)) & 1).astype(np.uint8).tobytes()
    tails = [
        f"{mask},{';'.join(compress(names, bits[k * n:k * n + n]))}\n"
        for k, mask in enumerate(distinct.tolist())
    ]
    rows = map("{},{}".format, range(len(batch)), map(tails.__getitem__, inverse.tolist()))
    return f"# n_ground={n} seed={batch.seed} sampler={batch.sampler}\n{BATCH_HEADER}\n" + "".join(rows)


def _row_mask(ln: str, tail: str) -> int:
    """The mask of data row ``ln``, whose text after the index is ``tail``; ValueError if malformed."""
    fields = tail.split(",")
    if len(fields) != 2:
        raise ValueError(f"row {ln!r}: expected {BATCH_HEADER}")
    mask = int(fields[0])
    # Masks are int64, and subset_indices refuses a negative one.
    if not 0 <= mask < 1 << MAX_MASK_GROUND_SET:
        raise ValueError(f"row {ln!r}: mask outside [0, 2**{MAX_MASK_GROUND_SET})")
    items = fields[1].split(";") if fields[1] else ()
    if tuple(map(int, items)) != subset_indices(mask):
        raise ValueError(f"row {ln!r}: items do not match mask {mask}")
    return mask


def batch_from_csv(text: str) -> SampleBatch:
    """Inverse of :func:`batch_to_csv`.

    ValueError when the ``n_ground`` metadata is missing, the ``seed`` is
    outside [0, 2**128), the ``sampler`` is unknown, a row's index is not
    its 0-based position among the data rows, its mask is outside
    [0, 2**63) or its ``items`` disagree with its ``mask``. Rows are
    checked in order, so the first bad row is the one reported; the text
    after the index is checked once per distinct text.
    """
    meta = {"n_ground": None, "seed": 0, "sampler": ENUMERATION}
    masks = []
    checked = {}
    for ln in filter(str.strip, text.splitlines()):
        if ln.startswith("#"):
            for token in ln[1:].split():
                if "=" in token:
                    key, value = token.split("=", 1)
                    if key in ("n_ground", "seed"):
                        meta[key] = int(value)
                    elif key == "sampler":
                        meta[key] = value
        elif ln != BATCH_HEADER:
            index, _, tail = ln.partition(",")
            mask = checked.get(tail)
            if mask is None:
                mask = checked[tail] = _row_mask(ln, tail)
            if index != str(len(masks)):
                raise ValueError(f"row {ln!r}: index {index!r} is not the row's position {len(masks)}")
            masks.append(mask)
    if meta["n_ground"] is None:
        raise ValueError("missing '# n_ground=..' metadata line")
    return SampleBatch(meta["n_ground"], np.array(masks, dtype=np.int64), meta["seed"], meta["sampler"])


def save_batch(batch: SampleBatch, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(batch_to_csv(batch))


def load_batch(path) -> SampleBatch:
    with open(path, "r", encoding="utf-8") as fh:
        return batch_from_csv(fh.read())
