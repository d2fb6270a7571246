"""Asymptotic covariance of the likelihood maximizer and its Monte Carlo checks.

The root-n scaled estimation error is asymptotically centered Gaussian.
Its covariance is the inverse of the negated objective curvature at the
truth in the upper-triangle chart vech(L), which has N(N+1)/2
coordinates. For 2x2 kernels that chart is (a, b, c) and the covariance
has the explicit closed form implemented in
:func:`covariance_2x2_explicit`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import _entries_2x2, _mle_2x2_arrays, forward_probs_2x2
from .errors import ConfigError, DegenerateTable, ReducibleKernel, SingularHessian, ZeroB
from .kernels import (
    DistributionTable,
    KernelMatrix,
    _reached,
    as_array,
    enumerate_distribution,
    sign_distance,
)
from .likelihood import LikelihoodContext, hessian, vech_embedding
from .optimize import CONVERGED, newton_raphson
from .sampling import _count, make_rng

#: Eigenvalue floor used when forming inverse square roots of covariances.
EIG_FLOOR = 1e-12


def is_irreducible(kernel) -> bool:
    """Connectivity of the nonzero off-diagonal pattern.

    A kernel that permutes into diagonal blocks describes independent
    subprocesses; its curvature is singular in the cross-block directions,
    so the asymptotic covariance only exists for connected patterns. An
    entry links its pair when it exceeds 1e-12 of the largest entry.
    """
    entries = as_array(kernel)
    if entries.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {entries.shape}")
    tol = 1e-12 * float(np.max(np.abs(entries)))
    linked = np.abs(entries) > tol
    return bool(_reached(linked | linked.T, 0).all())


def asymptotic_covariance(kernel_star: KernelMatrix) -> np.ndarray:
    """Covariance of the scaled estimation error, in the vech chart.

    inv(-J^T H J), with H the Hessian of the expected objective at the
    truth and J from :func:`~dppmle.likelihood.vech_embedding`; an
    N(N+1)/2 square matrix, for 2x2 kernels the (a, b, c) covariance.
    SingularHessian unless every curvature eigenvalue is below -1e-10
    times the largest curvature entry.
    """
    if not is_irreducible(kernel_star):
        raise ReducibleKernel("kernel splits into independent blocks")
    ctx = LikelihoodContext(enumerate_distribution(kernel_star))
    embed = vech_embedding(kernel_star.n)
    curvature = embed.T @ hessian(ctx, kernel_star) @ embed
    curvature = (curvature + curvature.T) / 2.0
    eigs = np.linalg.eigvalsh(curvature)
    tol = 1e-10 * float(np.max(np.abs(curvature)))
    if eigs.max() >= -tol:
        raise SingularHessian(
            f"curvature is not negative definite on symmetric directions (max eig {eigs.max():.3e})"
        )
    cov = np.linalg.inv(-curvature)
    return (cov + cov.T) / 2.0


def covariance_2x2_explicit(kernel) -> np.ndarray:
    """Closed-form asymptotic covariance of (a, b, c) estimates of [[a, b], [b, c]], b > 0.

    Delta-method image of the multinomial covariance of the four cell
    frequencies under the map to (a, b, c); equals the inverse negated
    curvature of the expected objective in the same chart. Entries beyond
    float64's range come out non-finite. ValueError unless the kernel is 2x2.
    """
    a, b, c = _entries_2x2(kernel)
    if b <= 0.0:
        raise ZeroB("explicit covariance requires b > 0")
    d = (a + 1.0) * (c + 1.0) - b * b
    det = a * c - b * b
    # b * b underflows to 0 for b below about 1e-162; the ratio is then out of range.
    ac_over_b2 = a * c / (b * b) if b * b > 0.0 else float("inf")
    s12 = a * c / (2.0 * b) + a * b + a / (2.0 * b) * det
    s23 = a * c / (2.0 * b) + b * c + c / (2.0 * b) * det
    inner = np.array(
        [
            [a + a * a, s12, a * c],
            [s12, (ac_over_b2 - 1.0) / 4.0 * d + (a + c + 4.0 * a * c) / 4.0, s23],
            [a * c, s23, c + c * c],
        ]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        return d * inner


def inverse_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root with eigenvalues floored at EIG_FLOOR."""
    eigs, vecs = np.linalg.eigh((matrix + matrix.T) / 2.0)
    eigs = np.maximum(eigs, EIG_FLOOR)
    return (vecs / np.sqrt(eigs)) @ vecs.T


# ---------------------------------------------------------------------------
# Monte Carlo experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CltResult:
    """Sample moments of the scaled estimation error over replications.

    ``covariance`` and ``mean`` are in the vech chart of
    :func:`asymptotic_covariance`, N(N+1)/2 coordinates.
    """

    covariance: np.ndarray
    mean: np.ndarray
    n: int
    reps: int
    failures: int
    seed: int

    @property
    def degenerate(self) -> bool:
        return self.reps - self.failures < 2


def _replicate(kernel_star: KernelMatrix, table: DistributionTable, n: int, reps: int,
               rng) -> tuple[np.ndarray, int]:
    """sqrt(n) * vech(aligned estimate - truth) over ``reps`` tables of n draws, and how many failed.

    A batch of independent draws enters every estimator only through its
    empirical table, so each replication's table is one multinomial draw
    from ``table``: equivalent in law, and much faster than materializing
    the draws. 2x2 kernels use the closed form on every table at once
    (b >= 0, so b is negated when the truth's is negative); larger kernels
    run Newton from the truth and conjugate each converged estimate by the
    signs of :func:`~dppmle.kernels.sign_distance` to the truth. Degenerate
    tables and unconverged runs are dropped and counted. ConfigError
    unless n and reps pass :func:`~dppmle.sampling._count`, checked before
    any draw.
    """
    n, reps = _count("sample size", n), _count("replications", reps)
    upper = np.triu_indices(kernel_star.n)
    tables = rng.multinomial(n, table.probs, size=reps) / n
    if kernel_star.n == 2:
        estimates, _, ok = _mle_2x2_arrays(tables)
        if kernel_star.entries[0, 1] < 0:
            estimates[:, 1] = -estimates[:, 1]
        estimates = estimates[ok]
    else:
        rows = []
        for empirical in tables:
            ctx = LikelihoodContext(DistributionTable(empirical))
            estimate, trace = newton_raphson(ctx, kernel_star, max_iter=50)
            if trace.status == CONVERGED:
                _, signs = sign_distance(kernel_star, estimate)
                rows.append((estimate.entries * np.outer(signs, signs))[upper])
        estimates = np.array(rows).reshape(-1, upper[0].size)
    return np.sqrt(n) * (estimates - kernel_star.entries[upper]), reps - len(estimates)


def clt_experiment(kernel_star: KernelMatrix, n: int, reps: int, seed: int) -> CltResult:
    """Empirical covariance of sqrt(n) * vech(aligned estimate - truth).

    The scaled errors come from :func:`_replicate`; failed replications
    are dropped and counted. ReducibleKernel unless the truth passes
    :func:`is_irreducible`, checked before any draw: a reducible truth has
    no root-n law, and Newton from it never leaves its blocks.
    """
    if not is_irreducible(kernel_star):
        raise ReducibleKernel("kernel splits into independent blocks")
    deviations, failures = _replicate(
        kernel_star, enumerate_distribution(kernel_star), n, reps, make_rng(seed)
    )
    kept, dim = deviations.shape
    covariance = np.cov(deviations, rowvar=False) if kept >= 2 else np.zeros((dim, dim))
    mean = deviations.mean(axis=0) if kept else np.zeros(dim)
    return CltResult(covariance, mean, n, reps, failures, seed)


@dataclass(frozen=True)
class RateReport:
    """Kolmogorov distances of the standardized estimator per sample size."""

    sample_sizes: tuple[int, ...]
    kolmogorov_distances: tuple[float, ...]
    replications: int
    seed: int

    def __post_init__(self):
        if len(self.sample_sizes) != len(self.kolmogorov_distances):
            raise ValueError("one distance per sample size required")
        if any(not 0.0 <= d <= 1.0 for d in self.kolmogorov_distances):
            raise ValueError("Kolmogorov distances live in [0, 1]")

    def to_csv(self) -> str:
        lines = ["n,ks_distance,reps,seed"]
        for n, dist in zip(self.sample_sizes, self.kolmogorov_distances):
            lines.append(f"{n},{dist!r},{self.replications},{self.seed}")
        return "\n".join(lines) + "\n"


def _ks_distance_to_normal(samples: np.ndarray) -> float:
    """Exact one-sample Kolmogorov statistic against the standard normal."""
    from scipy.special import ndtr

    ordered = np.sort(samples)
    m = ordered.size
    cdf = ndtr(ordered)
    upper = np.max(np.arange(1, m + 1) / m - cdf)
    lower = np.max(cdf - np.arange(0, m) / m)
    return float(max(upper, lower))


#: Fixed rectangle grid per coordinate: the standard normal quartiles.
GRID_POINTS = (-0.6744897501960817, 0.0, 0.6744897501960817)


def _joint_rectangle_distance(standardized: np.ndarray) -> float:
    """Max deviation of joint orthant frequencies from the normal product.

    The orthants are {x < g} for every corner g of the 3^d grid
    GRID_POINTS^d. Each coordinate falls in one of four cells, the number
    of grid points at or below it, so x_k < g_j exactly when its cell is
    at most j (ties at a grid point and +-inf included). One histogram
    over the 4^d joint cells, summed cumulatively along each axis, counts
    every orthant in one pass over the data: O(reps d + 4^d).
    """
    from scipy.special import ndtr

    reps, dim = standardized.shape
    cells = np.searchsorted(GRID_POINTS, standardized, side="right")
    joint = np.ravel_multi_index(cells.T, (4,) * dim)
    counts = np.bincount(joint, minlength=4**dim).reshape((4,) * dim)
    for axis in range(dim):
        counts = np.cumsum(counts, axis=axis)
    empirical = counts[(slice(3),) * dim] / reps
    grid_cdf = ndtr(np.array(GRID_POINTS))
    # coordinate by coordinate, the product order of np.prod over a corner
    theoretical = grid_cdf
    for _ in range(1, dim):
        theoretical = np.multiply.outer(theoretical, grid_cdf)
    return float(np.max(np.abs(empirical - theoretical)))


def berry_esseen_experiment(kernel_star: KernelMatrix, sizes, reps: int, seed: int) -> RateReport:
    """Kolmogorov distance of the standardized estimator per sample size.

    For each size, replications draw an empirical table, estimate in the
    (a, b, c) chart, scale by sqrt(n), and whiten with the inverse square
    root of the closed-form covariance. The reported distance is the max
    of the three componentwise Kolmogorov statistics and the deviations
    over a fixed quartile grid of joint rectangles. The kernel must be
    2x2 (ValueError) with b > 0 (ZeroB, a ConfigError), its covariance
    finite and its four subset probabilities a distribution (ConfigError),
    and the sizes ascending counts (ConfigError,
    :func:`~dppmle.sampling._count`); all are checked before any draw.
    """
    sizes = tuple(_count("sample size", n) for n in sizes)
    if any(later < earlier for earlier, later in zip(sizes, sizes[1:])):
        raise ConfigError("sample sizes must be ascending")
    covariance = covariance_2x2_explicit(kernel_star)
    if not np.isfinite(covariance).all():
        raise ConfigError("the explicit covariance of this kernel is outside float64's range")
    # Near the PSD boundary d = (a + 1)(c + 1) - b^2 cancels, and the four
    # probabilities need not sum to 1 or be finite; the shape was checked above.
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            table = forward_probs_2x2(kernel_star)
    except ValueError as exc:
        raise ConfigError(f"the subset probabilities of this kernel are not a distribution: {exc}") from exc
    whitener = inverse_sqrt(covariance)
    rng = make_rng(seed)
    distances = []
    for n in sizes:
        deviations, _ = _replicate(kernel_star, table, n, reps, rng)
        if not deviations.size:
            raise DegenerateTable(f"no replication at sample size {n} has an interior estimate")
        standardized = deviations @ whitener.T
        component_ks = max(
            _ks_distance_to_normal(standardized[:, k]) for k in range(3)
        )
        distances.append(max(component_ks, _joint_rectangle_distance(standardized)))
    return RateReport(sizes, tuple(distances), reps, seed)
