"""Test-only oracles: divergences, the analytic (a, b, c) chart derivatives and the score information.

Nothing in the library calls these; they give the suite independent
routes to quantities the library computes another way.
"""

import numpy as np

from dppmle.errors import DppError
from dppmle.kernels import DistributionTable
from dppmle.likelihood import LikelihoodContext, log_likelihood, vech_embedding


class SupportMismatch(DppError):
    """KL divergence undefined: q vanishes on the support of p."""


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


def kl_gap(ctx_star: LikelihoodContext, kernel) -> float:
    """Gap between the objective's own maximum and its value at ``kernel``.

    With a theoretical table this equals the Kullback-Leibler divergence
    from the generating process to the one induced by ``kernel``; it is
    nonnegative and vanishes exactly on the sign-conjugation orbit.
    """
    masks, weights = ctx_star.support
    peak = float(np.sum(weights * np.log(weights)))
    return peak - log_likelihood(ctx_star, kernel)


def chart_gradient(theta, table: DistributionTable) -> np.ndarray:
    """Analytic gradient of the (a, b, c) chart objective at an interior point."""
    a, b, c = theta
    p0, p1, p2, p3 = (float(x) for x in table.probs)
    det = a * c - b * b
    d = (a + 1.0) * (c + 1.0) - b * b
    return np.array(
        [
            p1 / a + p3 * c / det - (c + 1.0) / d,
            -2.0 * b * p3 / det + 2.0 * b / d,
            p2 / c + p3 * a / det - (a + 1.0) / d,
        ]
    )


def chart_hessian(theta, table: DistributionTable) -> np.ndarray:
    """Analytic Hessian of the (a, b, c) chart objective at an interior point."""
    a, b, c = theta
    p0, p1, p2, p3 = (float(x) for x in table.probs)
    det = a * c - b * b
    d = (a + 1.0) * (c + 1.0) - b * b
    h = np.empty((3, 3))
    h[0, 0] = -p1 / a**2 - p3 * c**2 / det**2 + (c + 1.0) ** 2 / d**2
    h[2, 2] = -p2 / c**2 - p3 * a**2 / det**2 + (a + 1.0) ** 2 / d**2
    h[1, 1] = -2.0 * p3 * (det + 2.0 * b * b) / det**2 + 2.0 * (d + 2.0 * b * b) / d**2
    h[0, 1] = h[1, 0] = 2.0 * b * c * p3 / det**2 - 2.0 * b * (c + 1.0) / d**2
    h[1, 2] = h[2, 1] = 2.0 * a * b * p3 / det**2 - 2.0 * b * (a + 1.0) / d**2
    h[0, 2] = h[2, 0] = -p3 * b * b / det**2 + b * b / d**2
    return h


def score_information(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean score and information of one draw, in the vech chart, from each subset's minor.

    The score of subset J is s_J = E^T vec(pad(L_J^{-1}) - (L + I)^{-1}),
    with E from ``vech_embedding``, and p(J) = det(L_J) / det(L + I). The
    mean score sum_J p(J) s_J is 0 at the truth, and by the information
    identity the information sum_J p(J) s_J s_J^T is the negated vech
    curvature, so its inverse is the asymptotic covariance.
    """
    n = entries.shape[0]
    det_shifted, inv_shifted = np.linalg.det(entries + np.eye(n)), np.linalg.inv(entries + np.eye(n))
    probs, scores = [], []
    for mask in range(1 << n):
        idx = np.array([i for i in range(n) if mask >> i & 1], dtype=int)
        minor = entries[np.ix_(idx, idx)]
        padded = np.zeros((n, n))
        # the empty minor has determinant 1 and an empty inverse
        padded[np.ix_(idx, idx)] = np.linalg.inv(minor)
        probs.append(np.linalg.det(minor) / det_shifted)
        scores.append((padded - inv_shifted).reshape(-1))
    probs, scores = np.array(probs), np.array(scores) @ vech_embedding(n)
    return probs @ scores, scores.T @ (probs[:, None] * scores)
