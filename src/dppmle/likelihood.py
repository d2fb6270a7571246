"""Scaled log-likelihood of an L-ensemble, with exact gradient and Hessian.

The objective for a probability table p over subsets is

    sum_J p(J) log det(L_J) - log det(L + I),

maximized over symmetric positive definite kernels. Its gradient is the
symmetric matrix sum_J p(J) pad(L_J^{-1}) - (L + I)^{-1}, where pad embeds
the inverted minor back at rows and columns J. The Hessian is expressed in
the vectorized chart that lists matrix entries row-major, i.e. coordinates
(0,0), (0,1), ..., (N-1,N-1), treating off-diagonal partners as separate
coordinates. Second-order work on symmetric kernels (Newton, the
asymptotic covariance) uses the upper-triangle chart vech(L) instead,
reached through :func:`vech_embedding`; for N = 2 it is (a, b, c).

Terms with p(J) = 0 are skipped, so kernels that are singular on
unobserved subsets remain evaluable; the empty subset contributes only
through the normalizer.

A :class:`LikelihoodPoint` factorizes L + I and every supported minor in
one embedded stack. With z a subset's 0/1 indicator, the n x n matrix
M = L * z z^T + diag(1 - z) has det M = det L_J and
M^{-1} = pad(L_J^{-1}) + diag(1 - z); L + I is the same form with every
entry kept and I added. :class:`LikelihoodContext` caches these
constants once per table, and a point makes one batched ``slogdet`` and
one batched ``inv`` over the stack; the value, the gradient and the
Hessian are each one weighted reduction over it. The stack factorizes
n x n matrices where a gather would factorize k x k minors, and the
context holds two (m + 1, n, n) arrays for m supported masks. That wins
at small n, where numpy's per-call overhead dominates; with all 2^n masks
supported, the inverse alone costs more than gathering once n reaches
about 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyBatch, SingularPrincipalMinor
from .kernels import DistributionTable, _check_dense, as_array
from .sampling import SampleBatch


def empirical_distribution(batch: SampleBatch) -> DistributionTable:
    """Empirical subset frequencies of a batch, a dense table over 2^n_ground subsets."""
    if len(batch) == 0:
        raise EmptyBatch("cannot build an empirical distribution from zero draws")
    _check_dense(batch.n_ground)
    counts = np.bincount(batch.masks, minlength=1 << batch.n_ground)
    return DistributionTable(counts / len(batch))


@dataclass(frozen=True)
class LikelihoodContext:
    """Immutable probability table (empirical or theoretical) to score against."""

    dist: DistributionTable

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Masks with positive probability and their weights."""
        masks = np.nonzero(self.dist.probs > 0.0)[0]
        return masks, self.dist.probs[masks]

    @cached_property
    def embedding(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(coef, keep, rest): L * keep[s] + rest[s] is the s-th matrix of the stack.

        Slot 0 is L + I (keep all ones, rest I, coef -1). Slot j >= 1 is the
        j-th supported mask with indicator z (keep z z^T, rest diag(1 - z),
        coef its weight), so the value is coef @ logdet of the stack.
        """
        masks, weights = self.support
        n = self.dist.n
        z = (masks[:, None] >> np.arange(n) & 1).astype(float)
        keep = np.concatenate([np.ones((1, n, n)), z[:, :, None] * z[:, None, :]])
        rest = np.concatenate([np.ones((1, n)), 1.0 - z])[:, :, None] * np.eye(n)
        return np.concatenate([[-1.0], weights]), keep, rest


class LikelihoodPoint:
    """The objective at one kernel, from one factorization of the embedded stack.

    ``value`` is -inf when det(L + I) or a supported minor has det <= 0;
    ``valid`` is True when every supported minor has det > 0. The gradient
    and the Hessian share one batched inverse of the stack, taken on first
    use; both raise LinAlgError when L + I is singular and
    SingularPrincipalMinor when a supported minor is.
    """

    def __init__(self, ctx: LikelihoodContext, kernel):
        self._masks = ctx.support[0]
        self._coef, keep, self._rest = ctx.embedding
        self._stack = as_array(kernel) * keep + self._rest
        self._sign, logdet = np.linalg.slogdet(self._stack)
        self.valid = bool(np.all(self._sign[1:] > 0))
        self.value = float(self._coef @ logdet) if self.valid and self._sign[0] > 0 else -math.inf

    @cached_property
    def _padded(self) -> np.ndarray:
        """(L + I)^{-1}, then pad(L_J^{-1}) for every supported mask J."""
        if self._sign[0] == 0:
            raise np.linalg.LinAlgError("L + I is singular")
        singular = np.nonzero(self._sign[1:] == 0)[0]
        if singular.size:
            mask = int(self._masks[singular[0]])
            raise SingularPrincipalMinor(f"singular principal minor at mask {mask}", mask)
        padded = np.linalg.inv(self._stack)
        padded[1:] -= self._rest[1:]
        return padded

    def gradient(self) -> np.ndarray:
        """See :func:`gradient`."""
        padded = self._padded
        m, n = padded.shape[:2]
        return (self._coef @ padded.reshape(m, n * n)).reshape(n, n)

    def hessian(self) -> np.ndarray:
        """See :func:`hessian`."""
        padded = self._padded
        m, n = padded.shape[:2]
        flat = padded.reshape(m, n * n)
        # outer[(i,k),(l,j)] = -sum_s coef_s A_s[i,k] A_s[l,j], and
        # tensor[i,j,k,l] = d gradient_{ij} / d L_{kl} is its (i,j,k,l) reordering
        outer = (flat.T * -self._coef) @ flat
        return outer.reshape(n, n, n, n).transpose(0, 3, 1, 2).reshape(n * n, n * n)


def vech_embedding(n: int) -> np.ndarray:
    """The 0/1 (n^2, n(n+1)/2) matrix J with vec(S) = J @ vech(S) for symmetric S.

    vech lists the upper triangle in ``np.triu_indices(n)`` order, so a 2x2
    [[a, b], [b, c]] has vech (a, b, c). The curvature of the objective in
    that chart is J^T H J, with H from :func:`hessian`.
    """
    rows, cols = np.triu_indices(n)
    embed = np.zeros((n * n, rows.size))
    embed[rows * n + cols, np.arange(rows.size)] = 1.0
    embed[cols * n + rows, np.arange(rows.size)] = 1.0
    return embed


def log_likelihood(ctx: LikelihoodContext, kernel) -> float:
    """Scaled log-likelihood; -inf when a supported minor has det <= 0."""
    return LikelihoodPoint(ctx, kernel).value


def gradient(ctx: LikelihoodContext, kernel) -> np.ndarray:
    """Gradient matrix sum_J p(J) pad(L_J^{-1}) - (L + I)^{-1}.

    Raises SingularPrincipalMinor at the smallest supported singular mask.
    """
    return LikelihoodPoint(ctx, kernel).gradient()


def hessian(ctx: LikelihoodContext, kernel) -> np.ndarray:
    """Second derivative of the objective in the vectorized N^2 chart.

    Entry ((i,j),(k,l)) is
    -sum_J p(J) A_ik A_lj + B_ik B_lj with A = pad(L_J^{-1}) and
    B = (L + I)^{-1}; rows and columns are indexed i*N+j and k*N+l.
    Returned as an (N^2, N^2) array, symmetric as a matrix.
    """
    return LikelihoodPoint(ctx, kernel).hessian()

