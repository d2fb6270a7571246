"""Kernel matrices and exact probabilities of finite L-ensembles.

The ground set is {0, ..., n-1}. A subset is an n-bit mask with bit i
marking element i, so a dense table over all 2^n subsets is indexed
directly by mask. Probabilities follow the L-ensemble convention
P(Y = A) = det(L_A) / det(L + I), with det of the empty minor equal to 1,
and the marginal-kernel convention P(A subset of Y) = det(K_A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EigendecompositionFailure,
    EigenvalueOutOfRange,
    GroundSetTooLarge,
    NotSymmetric,
)

ENSEMBLE = "ensemble"
MARGINAL = "marginal"

#: Relative PSD tolerance: estimators legitimately produce kernels at the
#: PSD boundary, so eigenvalue checks allow this slack times max(1, |lambda|_max).
PSD_TOL_DEFAULT = 1e-9

#: Symmetry deviations up to this are silently symmetrized; beyond it the
#: input is rejected.
SYMMETRY_TOL = 1e-10

#: Largest ground set for which dense 2^n tables are built.
MAX_DENSE_GROUND_SET = 20

#: Masks factorized per batch by enumerate_distribution.
_ENUMERATION_CHUNK = 1 << 12

#: Sign classes tabulated at once by sign_distance; bounds its table at large n.
_SIGN_CHUNK = 1 << 12


def subset_indices(mask: int) -> tuple[int, ...]:
    """Ascending element indices of a bit mask; ValueError if it is negative."""
    if mask < 0:
        raise ValueError(f"mask must be nonnegative, not {mask}")
    return tuple([i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"])


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric kernel parameterizing a finite point process.

    ``kind`` is either ``"ensemble"`` (PSD, unnormalized minors give atomic
    probabilities) or ``"marginal"`` (eigenvalues in [0, 1], minors give
    containment probabilities). Construction enforces exact symmetry; the
    eigenvalue bounds of the declared kind are checked by
    :func:`validate_kernel`, the validating entry point for external data.
    """

    entries: np.ndarray
    kind: str

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"kernel entries must be square, got shape {arr.shape}")
        if self.kind not in (ENSEMBLE, MARGINAL):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        # Halved first, so that entries near the float limit cannot overflow below;
        # above the subnormal range this gives the bits of arr - arr.T and (arr + arr.T) / 2.
        half = 0.5 * arr
        deviation = 2.0 * float(np.max(np.abs(half - half.T))) if arr.size else 0.0
        if deviation > SYMMETRY_TOL:
            raise NotSymmetric(
                f"kernel deviates from symmetry by {deviation:.3e} (limit {SYMMETRY_TOL:.0e})"
            )
        arr = half + half.T
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def eigenvalues(self) -> np.ndarray:
        try:
            return np.linalg.eigvalsh(self.entries)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
            raise EigendecompositionFailure(str(exc)) from exc


def as_array(kernel) -> np.ndarray:
    """Entries of a KernelMatrix, or any array-like coerced to float ndarray.

    Numerical routines accept raw arrays so that oracles may evaluate them
    at perturbed (possibly slightly non-symmetric) points.
    """
    if isinstance(kernel, KernelMatrix):
        return kernel.entries
    return np.asarray(kernel, dtype=float)


def validate_kernel(entries, kind: str) -> KernelMatrix:
    """Validate raw entries as a kernel of the given kind.

    Parameters
    ----------
    entries:
        Square array of finite real numbers. Symmetry deviations up to
        ``SYMMETRY_TOL`` are repaired by averaging; larger ones raise
        :class:`NotSymmetric`.
    kind:
        ``"ensemble"`` requires eigenvalues >= -tol, ``"marginal"``
        requires eigenvalues in [-tol, 1 + tol], with
        tol = PSD_TOL_DEFAULT * max(1, largest absolute eigenvalue).

    Returns
    -------
    KernelMatrix

    Raises
    ------
    ValueError (entries not square or not all finite), NotSymmetric, EigenvalueOutOfRange
    """
    arr = np.asarray(entries, dtype=float)
    # NaN fails every eigenvalue comparison below, so it must be refused here.
    if not np.isfinite(arr).all():
        raise ValueError("kernel entries must be finite")
    kernel = KernelMatrix(arr, kind)
    eigs = kernel.eigenvalues()
    tol = PSD_TOL_DEFAULT * max(1.0, float(np.max(np.abs(eigs))) if eigs.size else 0.0)
    low = float(eigs.min()) if eigs.size else 0.0
    high = float(eigs.max()) if eigs.size else 0.0
    if low < -tol:
        raise EigenvalueOutOfRange(
            f"{kind} kernel has eigenvalue {low:.6g} below 0", low
        )
    if kind == MARGINAL and high > 1.0 + tol:
        raise EigenvalueOutOfRange(
            f"marginal kernel has eigenvalue {high:.6g} above 1", high
        )
    return kernel


@dataclass(frozen=True)
class DistributionTable:
    """Dense probability vector over all 2^n subsets, indexed by mask."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size & (arr.size - 1) or not arr.size:
            raise ValueError(f"expected 2^n probabilities, got shape {arr.shape}")
        if np.any(arr < 0.0):
            raise ValueError(f"negative probability {arr.min():.3e}")
        total = float(arr.sum())
        # Written so that a NaN sum fails it: no probability may be non-finite.
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def n(self) -> int:
        return self.probs.size.bit_length() - 1


# ---------------------------------------------------------------------------
# Probabilities
# ---------------------------------------------------------------------------


def _minor_probabilities(entries: np.ndarray, index: np.ndarray, log_norm: float) -> np.ndarray:
    """Atomic probabilities det(L_A) / det(L + I) of the subsets at the rows of ``index``.

    ``index`` is an ``(m, k)`` stack of ascending element indices, one
    subset per row (k = 0: the empty minor, det 1); ``log_norm`` is
    log det(L + I). The minors are factorized in one batched ``slogdet``.
    PSD minors have nonnegative determinant, so a sign that is not > 0 is
    roundoff and gives probability 0.
    """
    sign, logdet = np.linalg.slogdet(entries[index[:, :, None], index[:, None, :]])
    return np.where(sign > 0, np.exp(logdet - log_norm), 0.0)


def _size_groups(masks: np.ndarray, n: int):
    """Split masks by size: yields (positions in ``masks``, index stack)."""
    bits = masks[:, None] >> np.arange(n) & 1
    sizes = bits.sum(axis=1)
    for k in np.unique(sizes):
        where = np.nonzero(sizes == k)[0]
        yield where, np.nonzero(bits[where])[1].reshape(where.size, k)


def _checked_mask(mask, n: int) -> int:
    """``mask`` as an int; ValueError unless it names a subset of the n items, 0 <= mask < 2^n."""
    mask = int(mask)
    if not 0 <= mask < 1 << n:
        raise ValueError(f"mask {mask} is outside [0, 2^{n}) for a ground set of {n} items")
    return mask


def _log_normalizer(entries: np.ndarray) -> float:
    """log det(L + I); EigenvalueOutOfRange when the determinant is not positive."""
    sign, logdet = np.linalg.slogdet(entries + np.eye(entries.shape[0]))
    if sign <= 0:
        raise EigenvalueOutOfRange("det(L + I) is not positive; kernel is not PSD", float("nan"))
    return logdet


def ensemble_probability(kernel, mask: int) -> float:
    """Atomic probability det(L_A) / det(L + I) that Y is exactly the subset A = ``mask``.

    The empty minor has determinant 1 by convention. Log-determinants are
    used so large ground sets do not underflow. ValueError unless
    0 <= mask < 2^n.
    """
    entries = as_array(kernel)
    mask = _checked_mask(mask, entries.shape[0])
    index = np.array([subset_indices(mask)], dtype=np.intp)
    return float(_minor_probabilities(entries, index, _log_normalizer(entries))[0])


def marginal_of(kernel: KernelMatrix) -> KernelMatrix:
    """Marginal kernel of an ensemble: eigenvalues map to lam / (1 + lam).

    Computed through the eigendecomposition so the result shares the
    ensemble's eigenvectors exactly.
    """
    if kernel.kind != ENSEMBLE:
        raise ValueError("marginal_of expects an ensemble kernel")
    try:
        lam, vecs = np.linalg.eigh(kernel.entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigendecompositionFailure(str(exc)) from exc
    marginal = (vecs * (lam / (1.0 + lam))) @ vecs.T
    marginal = (marginal + marginal.T) / 2.0
    return KernelMatrix(marginal, MARGINAL)


def atomic_probability_from_marginal(kernel, mask: int) -> float:
    """Atomic probability |det(K - I_Abar)| of the subset A = ``mask``, from a marginal kernel.

    I_Abar is the diagonal indicator of the complement of A, so the value
    agrees with the ensemble route whenever K is the marginal of L.
    ValueError unless 0 <= mask < 2^n.
    """
    entries = as_array(kernel)
    n = entries.shape[0]
    mask = _checked_mask(mask, n)
    shifted = entries.copy()
    for i in range(n):
        if not mask >> i & 1:
            shifted[i, i] -= 1.0
    sign, logdet = np.linalg.slogdet(shifted)
    if sign == 0:
        return 0.0
    return float(np.exp(logdet))


def _check_dense(n: int) -> None:
    """GroundSetTooLarge if a dense table over 2^n subsets exceeds MAX_DENSE_GROUND_SET."""
    if n > MAX_DENSE_GROUND_SET:
        raise GroundSetTooLarge(f"dense table over 2^{n} subsets refused (limit 2^{MAX_DENSE_GROUND_SET})")


def enumerate_distribution(kernel) -> DistributionTable:
    """Exact probability table of an ensemble over all 2^n subsets.

    Brute-force oracle; requires n <= 20. Factorizes by size within chunks of masks.
    """
    entries = as_array(kernel)
    n = entries.shape[0]
    _check_dense(n)
    logdet_norm = _log_normalizer(entries)
    probs = np.empty(1 << n)
    for start in range(0, 1 << n, _ENUMERATION_CHUNK):
        masks = np.arange(start, min(start + _ENUMERATION_CHUNK, 1 << n))
        for where, index in _size_groups(masks, n):
            probs[masks[where]] = _minor_probabilities(entries, index, logdet_norm)
    return DistributionTable(probs)


def inclusion_probabilities(table: DistributionTable) -> np.ndarray:
    """Containment probabilities P(A subset of Y) for every mask A.

    Superset-sum (zeta) transform of the atomic table, O(n 2^n). For a
    table generated by an ensemble these equal det(K_A) of its marginal.
    """
    sums = np.array(table.probs, dtype=float)
    for i in range(table.n):
        # Axis 1 is bit i: [:, 0, :] are the masks without it, [:, 1, :] the same masks with it.
        view = sums.reshape(-1, 2, 1 << i)
        view[:, 0, :] += view[:, 1, :]
    return sums


# ---------------------------------------------------------------------------
# Sign-orbit distance
# ---------------------------------------------------------------------------


def sign_distance(kernel_a, kernel_b) -> tuple[float, np.ndarray]:
    """Minimal Frobenius distance between two kernels modulo sign conjugation.

    Conjugation L -> D L D by a diagonal D of +/-1 entries leaves the point
    process unchanged, so estimators recover a kernel only up to it. Scans
    the 2^(n-1) sign classes (D and -D conjugate identically) and returns
    the distance together with the +/-1 diagonal of the first minimizing
    class, in mask order, as a float vector.
    """
    a = as_array(kernel_a)
    b = as_array(kernel_b)
    if a.shape != b.shape:
        raise ValueError(f"kernel shapes differ: {a.shape} vs {b.shape}")
    n = a.shape[0]
    classes = 1 << max(n - 1, 0)
    best = np.inf
    best_signs = np.ones(n)
    for start in range(0, classes, _SIGN_CHUNK):
        # Element 0 is pinned to +1; bit i of a class sets the sign of element i + 1.
        rows = np.arange(start, min(start + _SIGN_CHUNK, classes))[:, None] << 1 >> np.arange(n) & 1
        for signs in np.where(rows == 1, -1.0, 1.0):
            dist = float(np.linalg.norm(a - b * (signs[:, None] * signs)))
            if dist < best - 1e-15:
                best = dist
                best_signs = signs
    return best, best_signs


# ---------------------------------------------------------------------------
# Plain-text serialization
# ---------------------------------------------------------------------------


def kernel_to_text(kernel) -> str:
    """Serialize: first line n, then n rows of n space-separated decimals."""
    entries = as_array(kernel)
    n = entries.shape[0]
    lines = [str(n)]
    for row in entries:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def kernel_from_text(text: str) -> KernelMatrix:
    """Parse the plain-text matrix format and validate the result as an ensemble kernel."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty kernel file")
    n = int(tokens[0])
    if n < 0:
        raise ValueError(f"kernel size must not be negative, not {n}")
    values = tokens[1:]
    if len(values) != n * n:
        raise ValueError(f"expected {n * n} entries for size {n}, found {len(values)}")
    arr = np.array([float(v) for v in values]).reshape(n, n)
    return validate_kernel(arr, ENSEMBLE)


def save_kernel(kernel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(kernel_to_text(kernel))


def load_kernel(path) -> KernelMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return kernel_from_text(fh.read())
