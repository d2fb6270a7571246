"""Iterative likelihood maximizers: vectorized Newton-Raphson and plain SGD.

Both are deliberately unguarded reproductions of the textbook updates:
no line search, no damping, no projection back to the PSD cone beyond
re-symmetrization. Wrong critical points and numerical blow-ups are
expected outcomes on hard instances and are reported through the trace
status instead of exceptions, so experiment harnesses never crash on a
diverged run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularPrincipalMinor
from .kernels import ENSEMBLE, KernelMatrix, _principal_minors, as_array, subset_indices
from .likelihood import LikelihoodContext, LikelihoodPoint
from .sampling import SampleBatch, make_rng

CONVERGED = "converged"
MAX_ITER = "max_iter"
DIVERGED = "diverged"
SINGULAR = "singular"

#: Iterates whose largest entry magnitude passes this are declared diverged.
BLOWUP_LIMIT = 1e8


@dataclass
class IterationTrace:
    """Thinned per-iteration history of a solver run."""

    iterates: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    status: str = MAX_ITER

    def record(self, entries: np.ndarray, value: float, grad_norm: float) -> None:
        self.iterates.append(entries.copy())
        self.objective.append(value)
        self.grad_norms.append(grad_norm)

    def to_csv(self) -> str:
        lines = ["iter,objective,grad_norm"]
        for i, (value, norm) in enumerate(zip(self.objective, self.grad_norms)):
            lines.append(f"{i},{value!r},{norm!r}")
        return "\n".join(lines) + "\n"


def _final(entries: np.ndarray, trace: IterationTrace) -> tuple[KernelMatrix, IterationTrace]:
    sym = (entries + entries.T) / 2.0
    return KernelMatrix(sym.shape[0], sym, ENSEMBLE), trace


def newton_raphson(
    ctx: LikelihoodContext,
    initial,
    max_iter: int = 100,
    grad_tol: float = 1e-8,
    trace_every: int = 1,
) -> tuple[KernelMatrix, IterationTrace]:
    """Newton iteration on the vectorized kernel.

    Each step solves the full N^2 x N^2 Hessian system
    L <- L - solve(d2, d1) and re-symmetrizes, because the vectorized
    chart treats the two off-diagonal partners as separate coordinates
    and their drift must be removed.

    Stops when the gradient Frobenius norm falls below ``grad_tol``, the
    iteration budget runs out, the Hessian system is singular (status
    ``singular``), or the iterate leaves the validity region: a supported
    minor loses positivity or entries blow past 1e8 (status ``diverged``).
    The last valid iterate is always returned.
    """
    entries = np.array(as_array(initial), dtype=float)
    entries = (entries + entries.T) / 2.0
    point = LikelihoodPoint(ctx, entries)
    trace = IterationTrace()
    for step in range(max_iter + 1):
        try:
            grad = point.gradient()
        except SingularPrincipalMinor:
            trace.status = DIVERGED
            break
        grad_norm = float(np.linalg.norm(grad))
        if step % trace_every == 0:
            trace.record(entries, point.value, grad_norm)
        if grad_norm <= grad_tol:
            trace.status = CONVERGED
            break
        if step == max_iter:
            trace.status = MAX_ITER
            break
        try:
            delta = np.linalg.solve(point.hessian(), grad.reshape(-1)).reshape(grad.shape)
        except np.linalg.LinAlgError:
            trace.status = SINGULAR
            break
        candidate = entries - delta
        candidate = (candidate + candidate.T) / 2.0
        if not np.all(np.isfinite(candidate)) or np.max(np.abs(candidate)) > BLOWUP_LIMIT:
            trace.status = DIVERGED
            break
        point = LikelihoodPoint(ctx, candidate)
        if not point.valid:
            trace.status = DIVERGED
            break
        entries = candidate
    return _final(entries, trace)


def sgd(
    batch: SampleBatch,
    initial,
    eta: float = 0.1,
    iters: int = 60_000,
    seed: int = 0,
    trace_every: int = 100,
) -> tuple[KernelMatrix, IterationTrace]:
    """Stochastic gradient ascent on the likelihood.

    Each step picks one draw uniformly from the batch (simple random
    sampling with replacement) and applies
    L <- L + eta * (pad(L_Z^{-1}) - (L + I)^{-1}); the empty draw
    contributes only the normalizer term. A singular supported minor or
    an entry blow-up ends the run with status ``diverged`` and the last
    valid iterate is returned; that outcome is an expected behavior of
    the plain update on repulsive kernels, not an error.
    """
    if eta <= 0:
        raise ValueError("step size must be positive")
    entries = np.array(as_array(initial), dtype=float)
    entries = (entries + entries.T) / 2.0
    ctx = LikelihoodContext.from_batch(batch)
    rng = make_rng(seed)
    picks = rng.integers(0, len(batch), size=iters)
    # One index stack per distinct mask, gathered once.
    distinct, slots = np.unique(batch.masks, return_inverse=True)
    stacks = [np.array(subset_indices(int(mask)), dtype=np.intp) for mask in distinct]
    eye = np.eye(entries.shape[0])
    trace = IterationTrace()
    trace.status = MAX_ITER
    for step in range(iters):
        if step % trace_every == 0:
            point = LikelihoodPoint(ctx, entries)
            try:
                grad_norm = float(np.linalg.norm(point.gradient()))
            except SingularPrincipalMinor:
                trace.status = DIVERGED
                break
            trace.record(entries, point.value, grad_norm)
        index = stacks[slots[picks[step]]]
        try:
            update = -np.linalg.inv(entries + eye)
            sign, _, inv = _principal_minors(entries, index[None], inverse=True)
            if sign[0] <= 0:
                trace.status = DIVERGED
                break
            update[index[:, None], index] += inv[0]
        except np.linalg.LinAlgError:
            trace.status = DIVERGED
            break
        candidate = entries + eta * update
        if not np.all(np.isfinite(candidate)) or np.max(np.abs(candidate)) > BLOWUP_LIMIT:
            trace.status = DIVERGED
            break
        entries = candidate
    return _final(entries, trace)
