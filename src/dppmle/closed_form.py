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
        if self.a <= 0 or self.c <= 0:
            raise ValueError(f"diagonal entries must be positive, got ({self.a}, {self.c})")
        if self.b < 0:
            raise ValueError("b is reported nonnegative by convention")
        if self.a * self.c - self.b**2 < -DISC_CLAMP:
            raise ValueError("kernel [[a, b], [b, c]] must be positive semi-definite")

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.b, self.c]])


def forward_probs_2x2(params: TwoByTwoParams) -> DistributionTable:
    """Exact 4-entry table of the 2x2 kernel, ordered (empty, {0}, {1}, {0,1})."""
    a, b, c = params.a, params.b, params.c
    d = (a + 1.0) * (c + 1.0) - b * b
    det = max(a * c - b * b, 0.0)
    return DistributionTable(2, np.array([1.0, a, c, det]) / d)


def mle_2x2(table: DistributionTable) -> tuple[TwoByTwoParams, str]:
    """Exact likelihood maximizer for a ground set of two elements.

    Returns the estimate and a tag: ``interior`` for the closed-form
    critical point, ``boundary_b0`` when the discriminant forces b = 0.
    When both critical points exist the interior one attains the maximum.
    """
    if table.n != 2:
        raise ValueError("mle_2x2 requires a ground set of exactly 2 elements")
    p0, p1, p2, p3 = (float(x) for x in table.probs)
    a, b, c, ok = _mle_2x2_arrays(p0, p1, p2, p3)
    if not ok:
        raise DegenerateTable(f"cell frequencies {[p0, p1, p2, p3]} give no positive diagonal")
    tag = INTERIOR if p1 * p2 - p0 * p3 >= -DISC_CLAMP else BOUNDARY_B0
    return TwoByTwoParams(float(a), float(b), float(c)), tag


def _mle_2x2_arrays(p0, p1, p2, p3):
    """Vectorized mle_2x2 over parallel probability arrays.

    Returns (a, b, c, ok); entries with a degenerate table are flagged
    ok = False and carry NaN estimates. Used by the Monte Carlo drivers.
    """
    p0, p1, p2, p3 = (np.asarray(p, dtype=float) for p in (p0, p1, p2, p3))
    disc = p1 * p2 - p0 * p3
    disc = np.where((disc < 0.0) & (disc >= -DISC_CLAMP), 0.0, disc)
    interior = disc >= 0.0
    ok_interior = interior & (p0 > 0.0) & (p1 > 0.0) & (p2 > 0.0)
    ok_boundary = (
        ~interior
        & (p0 + p2 > 0.0) & (p0 + p1 > 0.0)
        & (p1 + p3 > 0.0) & (p2 + p3 > 0.0)
    )
    ok = ok_interior | ok_boundary
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(interior, p1 / p0, (p1 + p3) / (p0 + p2))
        b = np.where(interior, np.sqrt(np.maximum(disc, 0.0)) / p0, 0.0)
        c = np.where(interior, p2 / p0, (p2 + p3) / (p0 + p1))
    a = np.where(ok, a, np.nan)
    b = np.where(ok, b, np.nan)
    c = np.where(ok, c, np.nan)
    return a, b, c, ok


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
    process, so each block is estimated by ``mle_2x2`` on its own
    marginal empirical table: the four frequencies of (neither, first
    only, second only, both) block members appearing in a draw.
    """
    if structure.n != batch.n_ground:
        raise ValueError(
            f"structure covers {structure.n} elements but batch ground set has {batch.n_ground}"
        )
    if len(batch) == 0:
        raise DegenerateTable("empty batch")
    masks = batch.masks
    total = len(batch)
    out = np.zeros((batch.n_ground, batch.n_ground))
    for index, (u, v) in enumerate(structure.blocks):
        in_u = (masks >> u & 1).astype(bool)
        in_v = (masks >> v & 1).astype(bool)
        cells = np.array(
            [
                np.sum(~in_u & ~in_v),
                np.sum(in_u & ~in_v),
                np.sum(~in_u & in_v),
                np.sum(in_u & in_v),
            ]
        ) / total
        try:
            params, _ = mle_2x2(DistributionTable(2, cells))
        except DegenerateTable as exc:
            raise DegenerateTable(f"block {index} (elements {u},{v}): {exc}") from exc
        out[u, u] = params.a
        out[v, v] = params.c
        out[u, v] = out[v, u] = params.b
    return KernelMatrix(batch.n_ground, out, ENSEMBLE)


def moments_estimator(table: DistributionTable) -> tuple[np.ndarray, np.ndarray]:
    """Method-of-moments estimates from singleton and pair frequencies.

    Matching atomic probabilities of subsets of size <= 1 gives the
    diagonal p_i / p_0; matching pairs determines off-diagonal entries
    only up to sign, so the second return value holds magnitudes
    sqrt(max(p_i p_j - p_0 p_ij, 0)) / p_0 with a zero diagonal.
    Sign recovery is out of scope.
    """
    n = table.n
    p0 = float(table.probs[0])
    if p0 <= 0.0:
        raise DegenerateTable("moments estimator needs a positive empty-set frequency")
    singles = np.array([table.probs[1 << i] for i in range(n)])
    diag = singles / p0
    magnitudes = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            pair = float(table.probs[(1 << i) | (1 << j)])
            disc = max(singles[i] * singles[j] - p0 * pair, 0.0)
            magnitudes[i, j] = magnitudes[j, i] = np.sqrt(disc) / p0
    return diag, magnitudes


def moments_kernel(table: DistributionTable) -> KernelMatrix:
    """Moments estimate assembled as a matrix with nonnegative off-diagonals."""
    diag, magnitudes = moments_estimator(table)
    return KernelMatrix(table.n, np.diag(diag) + magnitudes, ENSEMBLE)


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


def chart_gradient(theta, table: DistributionTable) -> np.ndarray:
    """Analytic gradient of the chart objective at an interior point."""
    a, b, c = theta
    p0, p1, p2, p3 = (float(x) for x in table.probs)
    det = a * c - b * b
    d = (a + 1.0) * (c + 1.0) - b * b
    return np.array(
        [
            p1 / a + p3 * c / det - (c + 1.0) / d,
            -2.0 * b * p3 / det + 2.0 * b / d,
            p2 / c + p3 * a / det - (a + 1.0) / d,
        ]
    )


def chart_hessian(theta, table: DistributionTable) -> np.ndarray:
    """Analytic Hessian of the chart objective at an interior point."""
    a, b, c = theta
    p0, p1, p2, p3 = (float(x) for x in table.probs)
    det = a * c - b * b
    d = (a + 1.0) * (c + 1.0) - b * b
    h = np.empty((3, 3))
    h[0, 0] = -p1 / a**2 - p3 * c**2 / det**2 + (c + 1.0) ** 2 / d**2
    h[2, 2] = -p2 / c**2 - p3 * a**2 / det**2 + (a + 1.0) ** 2 / d**2
    h[1, 1] = -2.0 * p3 * (det + 2.0 * b * b) / det**2 + 2.0 * (d + 2.0 * b * b) / d**2
    h[0, 1] = h[1, 0] = 2.0 * b * c * p3 / det**2 - 2.0 * b * (c + 1.0) / d**2
    h[1, 2] = h[2, 1] = 2.0 * a * b * p3 / det**2 - 2.0 * b * (a + 1.0) / d**2
    h[0, 2] = h[2, 0] = -p3 * b * b / det**2 + b * b / d**2
    return h
