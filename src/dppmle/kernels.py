"""Kernel matrices, subsets, and exact probabilities of finite L-ensembles.

The ground set is {0, ..., n-1}. A subset is an n-bit mask with bit i
marking element i, so a dense table over all 2^n subsets is indexed
directly by mask. Probabilities follow the L-ensemble convention
P(Y = A) = det(L_A) / det(L + I), with det of the empty minor equal to 1,
and the marginal-kernel convention P(A subset of Y) = det(K_A).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    EigendecompositionFailure,
    EigenvalueOutOfRange,
    GroundSetTooLarge,
    NotSymmetric,
    SupportMismatch,
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


@functools.lru_cache(maxsize=1 << 16)
def subset_indices(mask: int) -> tuple[int, ...]:
    """Ascending element indices of a bit mask."""
    out = []
    i = 0
    m = mask
    while m:
        if m & 1:
            out.append(i)
        m >>= 1
        i += 1
    return tuple(out)


@dataclass(frozen=True)
class Subset:
    """A subset of the ground set, encoded as an n-bit mask."""

    mask: int
    n: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError(f"mask {self.mask} out of range for ground set of size {self.n}")

    @classmethod
    def from_indices(cls, indices, n: int) -> "Subset":
        mask = 0
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"element {i} outside ground set of size {n}")
            mask |= 1 << i
        return cls(mask, n)

    @property
    def indices(self) -> tuple[int, ...]:
        return subset_indices(self.mask)

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return self.mask.bit_count()


@dataclass(frozen=True)
class SignDiagonal:
    """Diagonal matrix of +/-1 entries; bit i of ``signs`` set means -1 at i.

    Conjugation L -> D L D flips the sign of row/column blocks without
    changing the induced point process, so these index the identifiability
    orbit of a kernel.
    """

    signs: int
    n: int

    def __post_init__(self):
        if not 0 <= self.signs < (1 << self.n):
            raise ValueError("sign mask out of range")

    def vector(self) -> np.ndarray:
        v = np.ones(self.n)
        for i in subset_indices(self.signs):
            v[i] = -1.0
        return v

    def matrix(self) -> np.ndarray:
        return np.diag(self.vector())

    def conjugate(self, entries: np.ndarray) -> np.ndarray:
        """Return D @ entries @ D without forming the diagonal matrix."""
        v = self.vector()
        return entries * np.outer(v, v)


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric kernel parameterizing a finite point process.

    ``kind`` is either ``"ensemble"`` (PSD, unnormalized minors give atomic
    probabilities) or ``"marginal"`` (eigenvalues in [0, 1], minors give
    containment probabilities). Construction enforces exact symmetry; the
    eigenvalue bounds of the declared kind are checked by
    :func:`validate_kernel`, the validating entry point for external data.
    """

    n: int
    entries: np.ndarray
    kind: str

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"kernel entries must be square, got shape {arr.shape}")
        if arr.shape[0] != self.n:
            raise ValueError(f"declared size {self.n} does not match shape {arr.shape}")
        if self.kind not in (ENSEMBLE, MARGINAL):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        deviation = float(np.max(np.abs(arr - arr.T))) if self.n else 0.0
        if deviation > SYMMETRY_TOL:
            raise NotSymmetric(
                f"kernel deviates from symmetry by {deviation:.3e} (limit {SYMMETRY_TOL:.0e})"
            )
        arr = (arr + arr.T) / 2.0
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def eigenvalues(self) -> np.ndarray:
        return _eigvalsh(self.entries)


def as_array(kernel) -> np.ndarray:
    """Entries of a KernelMatrix, or any array-like coerced to float ndarray.

    Numerical routines accept raw arrays so that oracles may evaluate them
    at perturbed (possibly slightly non-symmetric) points.
    """
    if isinstance(kernel, KernelMatrix):
        return kernel.entries
    return np.asarray(kernel, dtype=float)


def _eigvalsh(entries: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise EigendecompositionFailure(str(exc)) from exc


def validate_kernel(entries, kind: str, tol_psd: float = PSD_TOL_DEFAULT) -> KernelMatrix:
    """Validate raw entries as a kernel of the given kind.

    Parameters
    ----------
    entries:
        Square array of real numbers. Symmetry deviations up to
        ``SYMMETRY_TOL`` are repaired by averaging; larger ones raise
        :class:`NotSymmetric`.
    kind:
        ``"ensemble"`` requires eigenvalues >= -tol, ``"marginal"``
        requires eigenvalues in [-tol, 1 + tol], with
        tol = tol_psd * max(1, largest absolute eigenvalue).

    Returns
    -------
    KernelMatrix

    Raises
    ------
    NotSymmetric, EigenvalueOutOfRange
    """
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"kernel entries must be square, got shape {arr.shape}")
    kernel = KernelMatrix(arr.shape[0], arr, kind)
    eigs = kernel.eigenvalues()
    tol = tol_psd * max(1.0, float(np.max(np.abs(eigs))) if eigs.size else 0.0)
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

    n: int
    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float)
        if arr.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} probabilities, got shape {arr.shape}")
        if np.any(arr < 0.0):
            raise ValueError(f"negative probability {arr.min():.3e}")
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)


# ---------------------------------------------------------------------------
# Probabilities
# ---------------------------------------------------------------------------


def _principal_minors(entries: np.ndarray, index: np.ndarray, inverse: bool = False):
    """Factorize the principal minors of ``entries`` at the rows of ``index``.

    ``index`` is an ``(m, k)`` stack of ascending element indices, one minor
    per row (k = 0: the empty minor, det 1). Returns batched ``slogdet``
    signs and log-determinants, and the inverses if asked and no sign is 0
    (else None). LU semantics: a minor is valid iff its sign is > 0.
    """
    minors = entries[index[:, :, None], index[:, None, :]]
    sign, logdet = np.linalg.slogdet(minors)
    inv = np.linalg.inv(minors) if inverse and sign.all() else None
    return sign, logdet, inv


def _size_groups(masks: np.ndarray, n: int):
    """Split masks by size: yields (positions in ``masks``, index stack)."""
    bits = masks[:, None] >> np.arange(n) & 1
    sizes = bits.sum(axis=1)
    for k in np.unique(sizes):
        where = np.nonzero(sizes == k)[0]
        yield where, np.nonzero(bits[where])[1].reshape(where.size, k)


def ensemble_probability(kernel, subset) -> float:
    """Atomic probability det(L_A) / det(L + I) of observing exactly A.

    The empty minor has determinant 1 by convention. Log-determinants are
    used so large ground sets do not underflow.
    """
    entries = as_array(kernel)
    mask = subset.mask if isinstance(subset, Subset) else int(subset)
    sign_norm, logdet_norm = np.linalg.slogdet(entries + np.eye(entries.shape[0]))
    if sign_norm <= 0:
        raise EigenvalueOutOfRange("det(L + I) is not positive; kernel is not PSD", float("nan"))
    sign, logdet, _ = _principal_minors(entries, np.array([subset_indices(mask)], dtype=np.intp))
    # PSD minors have nonnegative determinant; a negative sign is roundoff.
    return float(np.exp(logdet[0] - logdet_norm)) if sign[0] > 0 else 0.0


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
    return KernelMatrix(kernel.n, marginal, MARGINAL)


def atomic_probability_from_marginal(kernel, subset) -> float:
    """Atomic probability |det(K - I_Abar)| computed from a marginal kernel.

    I_Abar is the diagonal indicator of the complement of A, so the value
    agrees with the ensemble route whenever K is the marginal of L.
    """
    entries = as_array(kernel)
    n = entries.shape[0]
    mask = subset.mask if isinstance(subset, Subset) else int(subset)
    shifted = entries.copy()
    for i in range(n):
        if not mask >> i & 1:
            shifted[i, i] -= 1.0
    sign, logdet = np.linalg.slogdet(shifted)
    if sign == 0:
        return 0.0
    return float(np.exp(logdet))


def enumerate_distribution(kernel) -> DistributionTable:
    """Exact probability table of an ensemble over all 2^n subsets.

    Brute-force oracle; requires n <= 20. Factorizes by size within chunks of masks.
    """
    entries = as_array(kernel)
    n = entries.shape[0]
    if n > MAX_DENSE_GROUND_SET:
        raise GroundSetTooLarge(f"dense table over 2^{n} subsets refused (limit 2^{MAX_DENSE_GROUND_SET})")
    sign_norm, logdet_norm = np.linalg.slogdet(entries + np.eye(n))
    if sign_norm <= 0:
        raise EigenvalueOutOfRange("det(L + I) is not positive; kernel is not PSD", float("nan"))
    probs = np.empty(1 << n)
    for start in range(0, 1 << n, _ENUMERATION_CHUNK):
        masks = np.arange(start, min(start + _ENUMERATION_CHUNK, 1 << n))
        for where, index in _size_groups(masks, n):
            sign, logdet, _ = _principal_minors(entries, index)
            probs[masks[where]] = np.where(sign > 0, np.exp(logdet - logdet_norm), 0.0)
    return DistributionTable(n, probs)


def inclusion_probabilities(table: DistributionTable) -> np.ndarray:
    """Containment probabilities P(A subset of Y) for every mask A.

    Superset-sum (zeta) transform of the atomic table, O(n 2^n). For a
    table generated by an ensemble these equal det(K_A) of its marginal.
    """
    sums = np.array(table.probs, dtype=float)
    for i in range(table.n):
        bit = 1 << i
        lower = np.array([mask for mask in range(1 << table.n) if not mask & bit])
        sums[lower] += sums[lower + bit]
    return sums


def kl_divergence(p: DistributionTable, q: DistributionTable) -> float:
    """Kullback-Leibler divergence sum p log(p/q) over the support of p."""
    if p.n != q.n:
        raise ValueError(f"tables over different ground sets: {p.n} vs {q.n}")
    support = p.probs > 0.0
    if np.any(q.probs[support] <= 0.0):
        bad = int(np.nonzero(support & (q.probs <= 0.0))[0][0])
        raise SupportMismatch(f"q vanishes on supported subset mask {bad}")
    ps = p.probs[support]
    qs = q.probs[support]
    return float(np.sum(ps * (np.log(ps) - np.log(qs))))


# ---------------------------------------------------------------------------
# Sign-orbit distance
# ---------------------------------------------------------------------------


def sign_distance(kernel_a, kernel_b) -> tuple[float, SignDiagonal]:
    """Minimal Frobenius distance between two kernels modulo sign conjugation.

    Scans the 2^(n-1) sign classes (D and -D conjugate identically) and
    returns the distance together with the first minimizing diagonal in
    mask order. This is the right error metric for estimators, which can
    only recover the kernel up to D L D.
    """
    a = as_array(kernel_a)
    b = as_array(kernel_b)
    if a.shape != b.shape:
        raise ValueError(f"kernel shapes differ: {a.shape} vs {b.shape}")
    n = a.shape[0]
    best = np.inf
    best_mask = 0
    for mask in range(1 << max(n - 1, 0)):
        # Element 0 is pinned to +1; bits of mask set signs of elements 1..n-1.
        d = SignDiagonal(mask << 1, n)
        dist = float(np.linalg.norm(a - d.conjugate(b)))
        if dist < best - 1e-15:
            best = dist
            best_mask = mask << 1
    return best, SignDiagonal(best_mask, n)


def sign_align(kernel_hat, kernel_star) -> np.ndarray:
    """Conjugate the estimate onto the orbit representative nearest the truth."""
    dist, d = sign_distance(kernel_star, kernel_hat)
    return d.conjugate(as_array(kernel_hat))


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


def kernel_from_text(text: str, kind: str = ENSEMBLE, tol_psd: float = PSD_TOL_DEFAULT) -> KernelMatrix:
    """Parse the plain-text matrix format and validate the result."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty kernel file")
    n = int(tokens[0])
    values = tokens[1:]
    if len(values) != n * n:
        raise ValueError(f"expected {n * n} entries for size {n}, found {len(values)}")
    arr = np.array([float(v) for v in values]).reshape(n, n)
    return validate_kernel(arr, kind, tol_psd)


def save_kernel(kernel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(kernel_to_text(kernel))


def load_kernel(path, kind: str = ENSEMBLE, tol_psd: float = PSD_TOL_DEFAULT) -> KernelMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return kernel_from_text(fh.read(), kind, tol_psd)
