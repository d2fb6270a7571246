"""Exact samplers for finite L-ensembles.

Two routes: the spectral sampler (eigenvector selection followed by
sequential projection elimination) and an inverse-CDF sampler over the
dense enumerated table, which serves as the oracle for the first.

All randomness flows through numpy Generators backed by the counter-based
Philox bit generator, seeded from a single 64-bit seed, so batches replay
bit-exactly.
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


def _orthonormalize(columns: np.ndarray) -> np.ndarray:
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


def _eliminate(vectors: np.ndarray, rng: np.random.Generator) -> int:
    """Run projection-DPP elimination on orthonormal columns; return a mask."""
    v = vectors
    mask = 0
    while v.shape[1] > 0:
        weights = np.sum(v * v, axis=1)
        # Negative drift from repeated re-orthonormalization is clamped.
        weights = np.clip(weights, 0.0, None)
        total = weights.sum()
        if total <= 0.0:  # pragma: no cover - defensive; span never empties early
            break
        cdf = np.cumsum(weights / total)
        item = int(np.searchsorted(cdf, rng.random(), side="right"))
        item = min(item, len(weights) - 1)
        mask |= 1 << item
        if v.shape[1] == 1:
            break
        # Remove the chosen coordinate direction from the span: pivot on the
        # column with the largest component at `item`, eliminate, re-orthonormalize.
        pivot = int(np.argmax(np.abs(v[item, :])))
        pivot_col = v[:, pivot]
        others = np.delete(v, pivot, axis=1)
        others = others - np.outer(pivot_col / pivot_col[item], others[item, :])
        v = _orthonormalize(others)
    return mask


def spectral_sample(kernel, rng: np.random.Generator) -> Subset:
    """One draw distributed as the ensemble's point process.

    Eigenvector i joins the active set independently with probability
    lam_i / (1 + lam_i); the active eigenvectors then drive a projection
    point process whose sequential elimination yields the sampled items.
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
    lines = [ln for ln in text.splitlines() if ln.strip()]
    meta = {"n_ground": None, "seed": 0, "sampler": ENUMERATION}
    body = []
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
            body.append(ln)
    masks = np.array([int(ln.split(",")[1]) for ln in body], dtype=np.int64)
    n_ground = meta["n_ground"]
    if n_ground is None:
        n_ground = int(masks.max()).bit_length() if masks.size else 1
    return SampleBatch(n_ground, masks, meta["seed"], meta["sampler"])


def save_batch(batch: SampleBatch, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(batch_to_csv(batch))


def load_batch(path) -> SampleBatch:
    with open(path, "r", encoding="utf-8") as fh:
        return batch_from_csv(fh.read())
