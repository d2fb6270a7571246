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
through the normalizer. A :class:`LikelihoodPoint` factorizes every
supported minor once, batched by size; the value, the gradient and the
Hessian at that kernel are all read from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyBatch, SingularPrincipalMinor
from .kernels import DistributionTable, _principal_minors, _size_groups, as_array
from .sampling import SampleBatch


def empirical_distribution(batch: SampleBatch) -> DistributionTable:
    """Empirical subset frequencies of a batch."""
    if len(batch) == 0:
        raise EmptyBatch("cannot build an empirical distribution from zero draws")
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
    def groups(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Supported masks grouped by size: (masks, weights, index stack) per size."""
        masks, weights = self.support
        return tuple((masks[at], weights[at], index) for at, index in _size_groups(masks, self.dist.n))

    @classmethod
    def from_batch(cls, batch: SampleBatch) -> "LikelihoodContext":
        return cls(empirical_distribution(batch))


class LikelihoodPoint:
    """The objective at one kernel, from one factorization of the supported minors.

    ``value`` is -inf when det(L + I) or a supported minor has det <= 0;
    ``valid`` is True when every supported minor has det > 0. The gradient
    and the Hessian reuse the minors' inverses.
    """

    def __init__(self, ctx: LikelihoodContext, kernel):
        entries = as_array(kernel)
        n = entries.shape[0]
        self._shifted = entries + np.eye(n)
        sign_norm, logdet_norm = np.linalg.slogdet(self._shifted)
        self.valid, self._singular, self._terms = True, [], []
        for masks, weights, index in ctx.groups:
            sign, logdet, inv = _principal_minors(entries, index, inverse=True)
            self.valid = self.valid and bool(np.all(sign > 0))
            self._singular.extend(masks[sign == 0])
            if inv is not None:
                padded = np.zeros((masks.size, n, n))
                padded[np.arange(masks.size)[:, None, None], index[:, :, None], index[:, None, :]] = inv
                self._terms.append((weights, logdet, padded))
        self.value = float(sum(w @ logdet for w, logdet, _ in self._terms) - logdet_norm) \
            if self.valid and sign_norm > 0 else -math.inf

    def _nonsingular_terms(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        if self._singular:
            mask = int(min(self._singular))
            raise SingularPrincipalMinor(f"singular principal minor at mask {mask}", mask)
        return self._terms

    def gradient(self) -> np.ndarray:
        """See :func:`gradient`."""
        grad = -np.linalg.inv(self._shifted)
        for weights, _, padded in self._nonsingular_terms():
            grad += np.einsum("m,mij->ij", weights, padded)
        return grad

    def hessian(self) -> np.ndarray:
        """See :func:`hessian`."""
        norm_inv = np.linalg.inv(self._shifted)
        # tensor[i,j,k,l] = d gradient_{ij} / d L_{kl}
        tensor = np.einsum("ik,lj->ijkl", norm_inv, norm_inv)
        for weights, _, padded in self._nonsingular_terms():
            tensor -= np.einsum("m,mik,mlj->ijkl", weights, padded, padded)
        return tensor.reshape(norm_inv.size, norm_inv.size)


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


def kl_gap(ctx_star: LikelihoodContext, kernel) -> float:
    """Gap between the objective's own maximum and its value at ``kernel``.

    With a theoretical table this equals the Kullback-Leibler divergence
    from the generating process to the one induced by ``kernel``; it is
    nonnegative and vanishes exactly on the sign-conjugation orbit.
    """
    masks, weights = ctx_star.support
    peak = float(np.sum(weights * np.log(weights)))
    return peak - log_likelihood(ctx_star, kernel)
