"""Central finite-difference oracles for the likelihood calculus.

These only call the public evaluation routines as black boxes, so they
stay independent of the analytic derivations they check.
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


def fd_hessian_of(fn, x: np.ndarray) -> np.ndarray:
    """Dense Hessian of a scalar function of a flat vector.

    Second central differences at base steps h = 1e-3 and h/2 combined by
    Richardson extrapolation, cancelling the O(h^2) truncation term while
    keeping the step wide enough that the eps / h^2 roundoff stays negligible.
    """
    coarse = _fd_hessian_single(fn, x, 1e-3)
    fine = _fd_hessian_single(fn, x, 1e-3 / 2.0)
    return (4.0 * fine - coarse) / 3.0


def _fd_hessian_single(fn, x: np.ndarray, step: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    d = x.size
    steps = step * (1.0 + np.abs(x))
    center = fn(x)
    out = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            hi, hj = steps[i], steps[j]
            if i == j:
                out[i, i] = (fn(_bumped(x, i, hi)) - 2.0 * center + fn(_bumped(x, i, -hi))) / hi**2
            else:
                pp = fn(_bumped(_bumped(x, i, hi), j, hj))
                pm = fn(_bumped(_bumped(x, i, hi), j, -hj))
                mp = fn(_bumped(_bumped(x, i, -hi), j, hj))
                mm = fn(_bumped(_bumped(x, i, -hi), j, -hj))
                out[i, j] = out[j, i] = (pp - pm - mp + mm) / (4.0 * hi * hj)
    return out


def _bumped(x: np.ndarray, i: int, h: float) -> np.ndarray:
    y = x.copy()
    y[i] += h
    return y
