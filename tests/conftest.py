import numpy as np
import pytest

from dppmle.kernels import DistributionTable
from dppmle.verify_support import random_ensemble


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_table(n: int, rng: np.random.Generator) -> DistributionTable:
    probs = rng.dirichlet(np.ones(1 << n))
    return DistributionTable(probs / probs.sum())


def conjugate(entries: np.ndarray, mask: int) -> np.ndarray:
    """D entries D, for the +/-1 diagonal D with -1 at the set bits of ``mask``."""
    signs = np.where(mask >> np.arange(entries.shape[0]) & 1, -1.0, 1.0)
    return entries * np.outer(signs, signs)


def random_kernel(n: int, rng: np.random.Generator, jitter: float = 0.0):
    return random_ensemble(n, rng, jitter=jitter)
