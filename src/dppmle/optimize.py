"""Iterative likelihood maximizers: Newton-Raphson and plain SGD.

Both are deliberately unguarded reproductions of the textbook updates:
no line search, no damping, no projection back to the PSD cone. Wrong
critical points and numerical blow-ups are expected outcomes on hard
instances and are reported through the trace status instead of
exceptions, so experiment harnesses never crash on a diverged run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularPrincipalMinor
from .kernels import ENSEMBLE, KernelMatrix, as_array
from .likelihood import LikelihoodContext, LikelihoodPoint, empirical_distribution, vech_embedding
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


def _symmetric_start(initial, n_ground: int) -> np.ndarray:
    """The symmetrized initial kernel; ValueError unless it is n_ground x n_ground."""
    entries = np.array(as_array(initial), dtype=float)
    if entries.shape != (n_ground, n_ground):
        raise ValueError(
            f"initial kernel has shape {entries.shape}, the ground set has {n_ground} items"
        )
    return (entries + entries.T) / 2.0


def _blown_up(candidate: np.ndarray) -> bool:
    """True past BLOWUP_LIMIT or on a non-finite entry.

    Python floats beat numpy reductions at these sizes. A NaN or an
    infinity makes the sum non-finite; a finite sum that overflows needs
    an entry past the limit.
    """
    flat = candidate.ravel(order="K").tolist()
    return not (math.isfinite(sum(flat)) and max(map(abs, flat)) <= BLOWUP_LIMIT)


def _lu_sign(lu: np.ndarray, piv: np.ndarray) -> int:
    """Sign of det from a nonsingular ``getrf`` LU: (-1)^(row swaps + negative pivots).

    ``piv`` is 0-based. Python sums over ``tolist()``, which beat numpy
    reductions at these sizes; the common case, no swap and every pivot
    positive, returns before counting.
    """
    pivots, diagonal = piv.tolist(), lu.diagonal().tolist()
    if pivots == list(range(len(pivots))) and min(diagonal) > 0:
        return 1
    swaps = sum(i != p for i, p in enumerate(pivots))
    negatives = sum(u < 0 for u in diagonal)
    return -1 if (swaps + negatives) % 2 else 1


def _final(entries: np.ndarray, trace: IterationTrace) -> tuple[KernelMatrix, IterationTrace]:
    sym = np.ascontiguousarray((entries + entries.T) / 2.0)
    return KernelMatrix(sym, ENSEMBLE), trace


def newton_raphson(
    ctx: LikelihoodContext,
    initial,
    max_iter: int = 100,
    grad_tol: float = 1e-8,
    trace_every: int = 1,
) -> tuple[KernelMatrix, IterationTrace]:
    """Newton iteration in the upper-triangle chart vech(L).

    With J from :func:`~dppmle.likelihood.vech_embedding`, H the N^2
    Hessian and g the gradient, each step solves (J^T H J) x = J^T vec(g)
    and moves L <- L - unvech(x), so every iterate is exactly symmetric.

    Stops when the gradient Frobenius norm falls below ``grad_tol``, the
    iteration budget runs out, J^T H J is singular (status
    ``singular``), or the iterate leaves the validity region: a supported
    minor loses positivity or entries blow past 1e8 (status ``diverged``).
    The last valid iterate is always returned. ValueError when the initial
    kernel does not match the table's ground set.
    """
    entries = _symmetric_start(initial, ctx.dist.n)
    embed = vech_embedding(ctx.dist.n)
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
            x = np.linalg.solve(embed.T @ point.hessian() @ embed, embed.T @ grad.reshape(-1))
        except np.linalg.LinAlgError:
            trace.status = SINGULAR
            break
        candidate = entries - (embed @ x).reshape(grad.shape)
        if _blown_up(candidate):
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

    The drawn minor is never sliced out. With z the draw's 0/1 indicator,
    M = L * z z^T + diag(1 - z) embeds L_Z in a full matrix: det M = det L_Z
    (1 for the empty draw) and M^{-1} = pad(L_Z^{-1}) + diag(1 - z), so
    M^{-1} diag(z) = pad(L_Z^{-1}). A step is one LAPACK ``dgesv`` of M
    against diag(z) and one of L + I against I; the columns with z_j = 0
    solve a zero right-hand side and come out exactly 0. M's sign is read
    off its LU as ``slogdet`` reads it (LU semantics: valid iff the sign
    is > 0, and an exactly zero pivot is singular). The update is
    pad(L_Z^{-1}) - (L + I)^{-1}. ValueError when eta is not a positive
    finite number or the initial kernel does not match the batch's ground
    set.
    """
    # Imported here so that only SGD runs load scipy.linalg.
    from scipy.linalg.lapack import dgesv

    if not (np.isfinite(eta) and eta > 0):
        raise ValueError(f"step size must be a positive finite number, not {eta!r}")
    entries = np.asfortranarray(_symmetric_start(initial, batch.n_ground))
    ctx = LikelihoodContext(empirical_distribution(batch))
    rng = make_rng(seed)
    picks = rng.integers(0, len(batch), size=iters)
    # Every drawn mask is supported, so its (keep, rest) is a slot of the
    # context's embedding. Both are symmetric: their transposes are the
    # same values as Fortran-ordered views, the layout dgesv returns.
    # Each slot also carries diag(z) = I - rest, its right-hand side.
    _, keeps, rests = ctx.embedding
    eye = rests[0].T
    constants = [(keep.T, rest.T, eye - rest.T) for keep, rest in zip(keeps, rests)]
    slots = np.searchsorted(ctx.support[0], batch.masks) + 1
    trace = IterationTrace()
    trace.status = MAX_ITER
    for step, slot in enumerate(slots[picks].tolist()):
        if step % trace_every == 0:
            point = LikelihoodPoint(ctx, entries)
            try:
                grad_norm = float(np.linalg.norm(point.gradient()))
            except SingularPrincipalMinor:
                trace.status = DIVERGED
                break
            trace.record(entries, point.value, grad_norm)
        keep, rest, diag_z = constants[slot]
        lu, piv, pad, info = dgesv(entries * keep + rest, diag_z, overwrite_a=1)
        if info > 0 or _lu_sign(lu, piv) <= 0:
            trace.status = DIVERGED
            break
        _, _, inv_s, info = dgesv(entries + eye, eye, overwrite_a=1)
        if info > 0:
            trace.status = DIVERGED
            break
        candidate = entries + eta * (pad - inv_s)
        if _blown_up(candidate):
            trace.status = DIVERGED
            break
        entries = candidate
    return _final(entries, trace)
