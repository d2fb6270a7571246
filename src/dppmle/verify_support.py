"""Random problem generators shared by the self-checks and the test suite."""

from __future__ import annotations

import numpy as np

from .asymptotics import is_irreducible
from .kernels import ENSEMBLE, KernelMatrix


def random_ensemble(n: int, rng: np.random.Generator, jitter: float = 0.0) -> KernelMatrix:
    """Random dense positive definite kernel of size n.

    A Wishart-style square plus a ridge keeps eigenvalues comfortably
    positive; ``jitter`` widens the ridge for problems that must stay
    away from the PSD boundary.
    """
    w = rng.normal(size=(n, n))
    entries = w @ w.T + (0.25 + jitter) * np.eye(n)
    return KernelMatrix(entries, ENSEMBLE)


def random_irreducible_ensemble(n: int, rng: np.random.Generator) -> KernelMatrix:
    """Random PD kernel with a connected off-diagonal pattern."""
    while True:
        kernel = random_ensemble(n, rng, jitter=0.25)
        if is_irreducible(kernel):
            return kernel
