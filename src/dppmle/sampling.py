"""Exact samplers for finite L-ensembles.

Two routes: the spectral sampler (eigenvector selection followed by a
chain-rule draw from the selected projection kernel) and an inverse-CDF
sampler over the dense enumerated table, which serves as the oracle for
the first.

All randomness flows through numpy Generators backed by the counter-based
Philox bit generator, keyed by a single seed in [0, 2**128), so batches
replay bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigendecompositionFailure
from .kernels import (
    DistributionTable,
    KernelMatrix,
    Subset,
    as_array,
    enumerate_distribution,
    subset_indices,
)

SPECTRAL = "spectral"
ENUMERATION = "enumeration"


#: Philox keys are 128-bit: a seed is valid when 0 <= seed < SEED_LIMIT.
SEED_LIMIT = 2**128


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide generator: Philox keyed by the given seed."""
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class SampleBatch:
    """Ordered draws from one sampler run.

    ``masks`` stores one bit mask per draw; iterating yields them as
    :class:`Subset` objects.
    """

    n_ground: int
    masks: np.ndarray
    seed: int
    sampler: str

    def __post_init__(self):
        arr = np.asarray(self.masks, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("masks must be a flat array")
        if arr.size and (arr.min() < 0 or arr.max() >= (1 << self.n_ground)):
            raise ValueError("draw mask out of range for the ground set")
        arr.setflags(write=False)
        object.__setattr__(self, "masks", arr)

    def __len__(self) -> int:
        return int(self.masks.size)

    def __iter__(self):
        return (Subset(int(m), self.n_ground) for m in self.masks)


# ---------------------------------------------------------------------------
# Spectral sampler
# ---------------------------------------------------------------------------


def _eliminate(vectors: np.ndarray, rng: np.random.Generator) -> int:
    """Chain-rule draw from the projection DPP K = V Vᵀ of orthonormal columns V; return a mask.

    Pick s has probability proportional to the diagonal of K's Schur complement
    on the earlier picks; each pick adds one column of the Cholesky factor of
    K over the picks and downdates that diagonal by its square.
    """
    n, k = vectors.shape
    weights = np.sum(vectors * vectors, axis=1)
    basis = np.empty((n, k))
    mask = 0
    for s in range(k):
        # Rounding in the downdate can leave picked items slightly negative.
        w = np.clip(weights, 0.0, None)
        cdf = np.cumsum(w / w.sum())
        item = min(int(np.searchsorted(cdf, rng.random(), side="right")), n - 1)
        mask |= 1 << item
        if s == k - 1:
            break
        basis[:, s] = (vectors @ vectors[item] - basis[:, :s] @ basis[item, :s]) / np.sqrt(w[item])
        weights -= basis[:, s] ** 2
    return mask


def spectral_sample(kernel, rng: np.random.Generator) -> Subset:
    """One draw distributed as the ensemble's point process.

    Eigenvector i joins the active set independently with probability
    lam_i / (1 + lam_i); the active eigenvectors then span a projection
    kernel K, and items are picked one at a time from K's chain-rule
    conditionals (the Schur complements of K on the items already picked).
    """
    entries = as_array(kernel)
    lam, vecs = _decompose(entries)
    return Subset(_spectral_draw(lam, vecs, rng), entries.shape[0])


def _decompose(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        lam, vecs = np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionFailure(str(exc)) from exc
    lam = np.clip(lam, 0.0, None)
    return lam, vecs


def _spectral_draw(lam: np.ndarray, vecs: np.ndarray, rng: np.random.Generator) -> int:
    selection = rng.random(lam.size) < lam / (1.0 + lam)
    if not selection.any():
        return 0
    return _eliminate(vecs[:, selection], rng)


# ---------------------------------------------------------------------------
# Enumeration sampler
# ---------------------------------------------------------------------------


def enumeration_sample(table: DistributionTable, rng: np.random.Generator) -> Subset:
    """Inverse-CDF draw from the exact table; oracle for the spectral route."""
    return Subset(int(_enumeration_draw_many(table, 1, rng)[0]), table.n)


def _enumeration_draw_many(table: DistributionTable, count: int, rng: np.random.Generator) -> np.ndarray:
    cdf = np.cumsum(table.probs)
    masks = np.searchsorted(cdf, rng.random(count), side="right")
    return np.minimum(masks, (1 << table.n) - 1).astype(np.int64)


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------


def sample_batch(kernel: KernelMatrix, n: int, seed: int, sampler: str = SPECTRAL) -> SampleBatch:
    """Draw n independent subsets; deterministic under a fixed seed."""
    if n < 1:
        raise ValueError("batch size must be at least 1")
    if sampler not in (SPECTRAL, ENUMERATION):
        raise ValueError(f"unknown sampler {sampler!r}")
    entries = as_array(kernel)
    rng = make_rng(seed)
    if sampler == ENUMERATION:
        table = enumerate_distribution(entries)
        masks = _enumeration_draw_many(table, n, rng)
    else:
        lam, vecs = _decompose(entries)
        masks = np.fromiter(
            (_spectral_draw(lam, vecs, rng) for _ in range(n)), dtype=np.int64, count=n
        )
    return SampleBatch(entries.shape[0], masks, seed, sampler)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

BATCH_HEADER = "index,mask,items"


def batch_to_csv(batch: SampleBatch) -> str:
    """One row per draw: index, mask, semicolon-separated item indices.

    A leading comment line carries the metadata needed to reload the batch.
    """
    lines = [
        f"# n_ground={batch.n_ground} seed={batch.seed} sampler={batch.sampler}",
        BATCH_HEADER,
    ]
    for i, mask in enumerate(batch.masks):
        items = ";".join(str(j) for j in subset_indices(int(mask)))
        lines.append(f"{i},{int(mask)},{items}")
    return "\n".join(lines) + "\n"


def batch_from_csv(text: str) -> SampleBatch:
    """Inverse of :func:`batch_to_csv`.

    ValueError when the ``n_ground`` metadata is missing or a row's
    ``items`` disagree with its ``mask``.
    """
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
            if mask < 0:  # subset_indices never returns on a negative mask
                raise ValueError(f"row {ln!r}: negative mask")
            items = fields[2].split(";") if fields[2] else ()
            if tuple(map(int, items)) != subset_indices(mask):
                raise ValueError(f"row {ln!r}: items do not match mask {mask}")
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
