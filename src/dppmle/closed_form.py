"""Estimators with analytic formulas: 2x2 kernels, 2x2 blocks, and moments.

For a 2x2 kernel [[a, b], [b, c]] the four subset probabilities are

    p0 = 1/d,  p1 = a/d,  p2 = c/d,  p3 = (a c - b^2)/d,
    d = (a + 1)(c + 1) - b^2,

which inverts in closed form: the likelihood's interior critical point is

    (a, b, c) = (p1/p0, sqrt(p1 p2 - p0 p3)/p0, p2/p0),

and when the discriminant p1 p2 - p0 p3 is negative the maximizer sits on
the b = 0 boundary at ((p1 + p3)/(p0 + p2), 0, (p2 + p3)/(p0 + p1)).
b is reported nonnegative always; the sign orbit is handled by
``sign_distance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTable
from .kernels import ENSEMBLE, DistributionTable, KernelMatrix
from .sampling import SampleBatch

INTERIOR = "interior"
BOUNDARY_B0 = "boundary_b0"

#: Discriminants in [-DISC_CLAMP, 0) are rounded up to zero: they are
#: floating-point noise at the PSD boundary, not evidence for b = 0.
DISC_CLAMP = 1e-12


@dataclass(frozen=True)
class TwoByTwoParams:
    """Parameters (a, b, c) of the kernel [[a, b], [b, c]] with b >= 0."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        # NaN fails every comparison below and inf passes them all.
        if not all(map(math.isfinite, (self.a, self.b, self.c))):
            raise ValueError(f"a, b and c must be finite, got ({self.a}, {self.b}, {self.c})")
        if self.a <= 0 or self.c <= 0:
            raise ValueError(f"diagonal entries must be positive, got ({self.a}, {self.c})")
        if self.b < 0:
            raise ValueError("b is reported nonnegative by convention")
        # The rounding error of a c - b^2 grows with a c.
        if self.a * self.c - self.b**2 < -DISC_CLAMP * max(1.0, self.a * self.c):
            raise ValueError("kernel [[a, b], [b, c]] must be positive semi-definite")

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.b, self.c]])


def forward_probs_2x2(params: TwoByTwoParams) -> DistributionTable:
    """Exact 4-entry table of the 2x2 kernel, ordered (empty, {0}, {1}, {0,1})."""
    a, b, c = params.a, params.b, params.c
    d = (a + 1.0) * (c + 1.0) - b * b
    det = max(a * c - b * b, 0.0)
    return DistributionTable(np.array([1.0, a, c, det]) / d)


def mle_2x2(table: DistributionTable) -> tuple[TwoByTwoParams, str]:
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
    return TwoByTwoParams(*map(float, estimate)), INTERIOR if interior else BOUNDARY_B0


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


@dataclass(frozen=True)
class BlockStructure:
    """Partition of the ground set into ordered pairs, one per 2x2 block."""

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        flat = [i for pair in self.blocks for i in pair]
        if len(set(flat)) != len(flat):
            raise ValueError("block indices must be disjoint")
        if sorted(flat) != list(range(len(flat))):
            raise ValueError("blocks must partition 0..N-1")
        object.__setattr__(self, "blocks", tuple((int(u), int(v)) for u, v in self.blocks))

    @property
    def n(self) -> int:
        return 2 * len(self.blocks)


def mle_block(batch: SampleBatch, structure: BlockStructure) -> KernelMatrix:
    """Closed-form estimate of a block-diagonal kernel of 2x2 blocks.

    The restriction of the process to each block is an independent 2x2
    process, so each block is estimated by the 2x2 closed form on its own
    marginal empirical table: the four frequencies of (neither, first
    only, second only, both) block members appearing in a draw. All
    blocks' tables are counted, and estimated, at once.
    """
    if structure.n != batch.n_ground:
        raise ValueError(
            f"structure covers {structure.n} elements but batch ground set has {batch.n_ground}"
        )
    if len(batch) == 0:
        raise DegenerateTable("empty batch")
    u, v = np.array(structure.blocks).reshape(-1, 2).T
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


# ---------------------------------------------------------------------------
# The (a, b, c) chart of the 2x2 objective
# ---------------------------------------------------------------------------


def chart_log_likelihood(theta, table: DistributionTable) -> float:
    """Objective in the (a, b, c) chart; zero-frequency terms are skipped."""
    a, b, c = theta
    p0, p1, p2, p3 = (float(x) for x in table.probs)
    det = a * c - b * b
    d = (a + 1.0) * (c + 1.0) - b * b
    if a <= 0 or c <= 0 or d <= 0 or (p3 > 0 and det <= 0):
        return -np.inf
    total = -np.log(d)
    if p1 > 0:
        total += p1 * np.log(a)
    if p2 > 0:
        total += p2 * np.log(c)
    if p3 > 0:
        total += p3 * np.log(det)
    return float(total)

