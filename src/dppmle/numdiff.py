"""Central finite-difference oracles for the likelihood calculus.

These only call the public evaluation routines as black boxes, so they
stay independent of the analytic derivations they check. There are two:
:func:`fd_gradient` differences the objective, :func:`fd_hessian` the
gradient. The curvature in the vech chart ((a, b, c) at N = 2) is
J^T @ fd_hessian @ J, J from :func:`~dppmle.likelihood.vech_embedding`.
"""

from __future__ import annotations

import numpy as np

from .kernels import as_array
from .likelihood import LikelihoodContext, gradient, log_likelihood

#: Base step; the actual step scales with 1 + |entry|.
FD_STEP = 1e-5


def fd_gradient(ctx: LikelihoodContext, kernel) -> np.ndarray:
    """Objective gradient by symmetrized central differences.

    The domain is symmetric matrices, so off-diagonal coordinates perturb
    L_ij and L_ji together with half the step each; this measures exactly
    the symmetric analytic gradient entry.
    """
    entries = np.array(as_array(kernel), dtype=float)
    n = entries.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            h = FD_STEP * (1.0 + abs(entries[i, j]))
            bump = np.zeros_like(entries)
            if i == j:
                bump[i, i] = h
            else:
                bump[i, j] = h / 2.0
                bump[j, i] = h / 2.0
            out[i, j] = (
                log_likelihood(ctx, entries + bump) - log_likelihood(ctx, entries - bump)
            ) / (2.0 * h)
    return out


def fd_hessian(ctx: LikelihoodContext, kernel) -> np.ndarray:
    """Hessian by central differences of the gradient in the N^2 chart.

    The vectorized chart treats every entry as a free coordinate, so each
    column perturbs a single entry (the evaluation point leaves the
    symmetric manifold by O(step), which the gradient routine accepts).
    """
    entries = np.array(as_array(kernel), dtype=float)
    n = entries.shape[0]
    out = np.empty((n * n, n * n))
    for k in range(n):
        for l in range(n):
            h = FD_STEP * (1.0 + abs(entries[k, l]))
            bump = np.zeros_like(entries)
            bump[k, l] = h
            diff = (gradient(ctx, entries + bump) - gradient(ctx, entries - bump)) / (2.0 * h)
            out[:, k * n + l] = diff.reshape(-1)
    return out

