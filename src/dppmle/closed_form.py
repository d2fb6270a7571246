"""Estimators with analytic formulas: 2x2 kernels, 2x2 blocks, and moments.

For a 2x2 kernel [[a, b], [b, c]] the four subset probabilities are

    p0 = 1/d,  p1 = a/d,  p2 = c/d,  p3 = (a c - b^2)/d,
    d = (a + 1)(c + 1) - b^2,

which inverts in closed form: the likelihood's interior critical point is

    (a, b, c) = (p1/p0, sqrt(p1 p2 - p0 p3)/p0, p2/p0),

and when the discriminant p1 p2 - p0 p3 is negative the maximizer sits on
the b = 0 boundary at ((p1 + p3)/(p0 + p2), 0, (p2 + p3)/(p0 + p1)).
b is reported nonnegative always; the sign orbit is handled by
``sign_distance``. The objective these formulas maximize is
:func:`~dppmle.likelihood.log_likelihood` at [[a, b], [b, c]].
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateTable, EmptyBatch
from .kernels import ENSEMBLE, DistributionTable, KernelMatrix, as_array
from .sampling import SampleBatch

INTERIOR = "interior"
BOUNDARY_B0 = "boundary_b0"

#: Discriminants in [-DISC_CLAMP, 0) are rounded up to zero: they are
#: floating-point noise at the PSD boundary, not evidence for b = 0.
DISC_CLAMP = 1e-12


def _entries_2x2(kernel) -> tuple[float, float, float]:
    """(a, b, c) of the kernel [[a, b], [b, c]] as Python floats; ValueError for any other size."""
    entries = as_array(kernel)
    if entries.shape != (2, 2):
        raise ValueError(f"expected a 2x2 kernel, got shape {entries.shape}")
    (a, b), (_, c) = entries.tolist()
    return a, b, c


def forward_probs_2x2(kernel) -> DistributionTable:
    """Exact 4-entry table of the 2x2 kernel, ordered (empty, {0}, {1}, {0,1})."""
    a, b, c = _entries_2x2(kernel)
    d = (a + 1.0) * (c + 1.0) - b * b
    det = max(a * c - b * b, 0.0)
    return DistributionTable(np.array([1.0, a, c, det]) / d)


def mle_2x2(table: DistributionTable) -> tuple[KernelMatrix, str]:
    """Exact likelihood maximizer for a ground set of two elements.

    Returns the estimate and a tag: ``interior`` for the closed-form
    critical point, ``boundary_b0`` when the discriminant forces b = 0.
    When both critical points exist the interior one attains the maximum.
    """
    if table.n != 2:
        raise ValueError("mle_2x2 requires a ground set of exactly 2 elements")
    estimate, interior, ok = _mle_2x2_arrays(table.probs)
    if not ok:
        raise DegenerateTable(_no_diagonal(table.probs))
    a, b, c = estimate.tolist()
    return KernelMatrix(np.array([[a, b], [b, c]]), ENSEMBLE), INTERIOR if interior else BOUNDARY_B0


def _mle_2x2_arrays(tables):
    """The closed form over a stack of 2x2 tables, cells on the last axis.

    Returns (estimates, interior, ok): estimates[..., :] is (a, b, c),
    interior marks the interior critical point (else the b = 0 boundary),
    and rows with ok = False are degenerate and carry NaN.
    """
    p0, p1, p2, p3 = np.moveaxis(np.asarray(tables, dtype=float), -1, 0)
    disc = p1 * p2 - p0 * p3
    interior = disc >= -DISC_CLAMP
    ok = np.where(
        interior,
        (p0 > 0.0) & (p1 > 0.0) & (p2 > 0.0),
        (p0 + p2 > 0.0) & (p0 + p1 > 0.0) & (p1 + p3 > 0.0) & (p2 + p3 > 0.0),
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        estimates = np.stack([
            np.where(interior, p1 / p0, (p1 + p3) / (p0 + p2)),
            np.where(interior, np.sqrt(np.maximum(disc, 0.0)) / p0, 0.0),
            np.where(interior, p2 / p0, (p2 + p3) / (p0 + p1)),
        ], axis=-1)
    return np.where(ok[..., None], estimates, np.nan), interior, ok


def _no_diagonal(cells: np.ndarray) -> str:
    """The DegenerateTable message for a 2x2 table with no estimate."""
    return f"cell frequencies {cells.tolist()} give no positive diagonal"


def _block_pairs(blocks, n: int) -> tuple[tuple[int, int], ...]:
    """``blocks`` as pairs of integers (not bools) that partition 0..n-1; ValueError otherwise."""
    try:
        pairs = [tuple(pair) for pair in blocks]
    except TypeError:
        pairs = None
    if pairs is None or any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"{blocks!r} is not a list of index pairs")
    flat = [i for pair in pairs for i in pair]
    for i in flat:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise ValueError(f"index {i!r} is not an integer")
    if sorted(flat) != list(range(n)):
        raise ValueError(f"{blocks!r} does not partition the {n} items 0..{n - 1}")
    return tuple((int(u), int(v)) for u, v in pairs)


def mle_block(batch: SampleBatch, blocks) -> KernelMatrix:
    """Closed-form estimate of a block-diagonal kernel of 2x2 blocks.

    ``blocks`` lists one pair of items per block and must partition the
    batch's items (ValueError otherwise). The restriction of the process
    to each block is an independent 2x2 process, so each block is
    estimated by the 2x2 closed form on its own marginal empirical table:
    the four frequencies of (neither, first only, second only, both)
    block members appearing in a draw. All blocks' tables are counted,
    and estimated, at once.
    """
    pairs = _block_pairs(blocks, batch.n_ground)
    if len(batch) == 0:
        raise EmptyBatch("cannot build an empirical distribution from zero draws")
    u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    # Cell of each (draw, block): bit u + 2 bit v, offset by 4 per block.
    cells = (batch.masks[:, None] >> u & 1) + 2 * (batch.masks[:, None] >> v & 1)
    tables = np.bincount((cells + 4 * np.arange(u.size)).ravel(), minlength=4 * u.size)
    tables = tables.reshape(-1, 4) / len(batch)
    estimates, _, ok = _mle_2x2_arrays(tables)
    if not ok.all():
        index = int(np.argmin(ok))
        raise DegenerateTable(
            f"block {index} (elements {u[index]},{v[index]}): {_no_diagonal(tables[index])}"
        )
    out = np.zeros((batch.n_ground, batch.n_ground))
    out[u, u] = estimates[:, 0]
    out[v, v] = estimates[:, 2]
    out[u, v] = out[v, u] = estimates[:, 1]
    return KernelMatrix(out, ENSEMBLE)


def moments_estimator(table: DistributionTable) -> tuple[np.ndarray, np.ndarray]:
    """Method-of-moments estimates from singleton and pair frequencies.

    Matching atomic probabilities of subsets of size <= 1 gives the
    diagonal p_i / p_0; matching pairs determines off-diagonal entries
    only up to sign, so the second return value holds magnitudes
    sqrt(max(p_i p_j - p_0 p_ij, 0)) / p_0 with a zero diagonal.
    Sign recovery is out of scope.
    """
    p0 = float(table.probs[0])
    if p0 <= 0.0:
        raise DegenerateTable("moments estimator needs a positive empty-set frequency")
    bits = 1 << np.arange(table.n)
    singles = table.probs[bits]
    pairs = table.probs[bits[:, None] | bits[None, :]]
    magnitudes = np.sqrt(np.maximum(np.outer(singles, singles) - p0 * pairs, 0.0)) / p0
    np.fill_diagonal(magnitudes, 0.0)
    return singles / p0, magnitudes

