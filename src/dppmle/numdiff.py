"""Central finite-difference oracles for the likelihood calculus.

These only call the public evaluation routines as black boxes, so they
stay independent of the analytic derivations they check. There are two:
:func:`fd_gradient` differences the objective, :func:`fd_hessian` the
gradient. Each stacks its 2 N^2 bumped kernels and makes one call of the
public routine on the stack, which gives every kernel the bits of its
own call. That call holds 2 N^2 (m + 1) N x N floats for a table with m
supported masks, O(N^4 2^N) with full support, several times over for
the inverse and its temporaries: about 17 MB per array at N = 8 and 164 MB
at N = 10, where a loop over the bumps held one kernel's stack. The
curvature in the vech chart ((a, b, c) at N = 2) is J^T @ fd_hessian @ J,
J from :func:`~dppmle.likelihood.vech_embedding`.
"""

from __future__ import annotations

import numpy as np

from .kernels import as_array
from .likelihood import LikelihoodContext, gradient, log_likelihood

#: Base step; the actual step scales with 1 + |entry|.
FD_STEP = 1e-5


def _bumped(kernel, symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
    """The steps and the (n, n, 2, n, n) stack of kernels entries +/- bump (k, l), plus first.

    Bump (k, l) moves entry (k, l) by step[k, l] = FD_STEP (1 + |entry|);
    ``symmetric`` splits an off-diagonal bump in halves over (k, l) and (l, k).
    """
    entries = np.array(as_array(kernel), dtype=float)
    n = entries.shape[0]
    step = FD_STEP * (1.0 + np.abs(entries))
    k, l = np.indices((n, n))
    bumps = np.zeros((n, n, n, n))
    if symmetric:
        bumps[k, l, k, l] = bumps[k, l, l, k] = step / 2.0
        diagonal = np.arange(n)
        bumps[diagonal, diagonal, diagonal, diagonal] = step[diagonal, diagonal]
    else:
        bumps[k, l, k, l] = step
    return step, np.stack([entries + bumps, entries - bumps], axis=2)


def fd_gradient(ctx: LikelihoodContext, kernel) -> np.ndarray:
    """Objective gradient by symmetrized central differences.

    The domain is symmetric matrices, so off-diagonal coordinates perturb
    L_ij and L_ji together with half the step each; this measures exactly
    the symmetric analytic gradient entry. A bump that leaves the domain
    gives -inf, so its entry comes out infinite or NaN.
    """
    step, stack = _bumped(kernel, symmetric=True)
    values = log_likelihood(ctx, stack)
    # two bumps outside the domain give -inf - -inf, NaN as the float subtraction gives it
    with np.errstate(invalid="ignore"):
        return (values[:, :, 0] - values[:, :, 1]) / (2.0 * step)


def fd_hessian(ctx: LikelihoodContext, kernel) -> np.ndarray:
    """Hessian by central differences of the gradient in the N^2 chart.

    The vectorized chart treats every entry as a free coordinate, so each
    column perturbs a single entry (the evaluation point leaves the
    symmetric manifold by O(step), which the gradient routine accepts).
    A bumped kernel where the gradient raises raises here, the first in
    (column, plus before minus) order.
    """
    step, stack = _bumped(kernel, symmetric=False)
    grads = gradient(ctx, stack)
    diff = (grads[:, :, 0] - grads[:, :, 1]) / (2.0 * step)[:, :, None, None]
    # diff[k, l] is column k N + l; the copy is C-ordered, so BLAS products with it see the layout they always saw
    n = step.shape[0]
    return diff.reshape(n * n, n * n).T.copy()
