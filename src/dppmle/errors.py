"""Semantic exception hierarchy shared across the package."""


class DppError(Exception):
    """Base class for every error raised by this package."""


class NotSymmetric(DppError):
    """Kernel entries deviate from symmetry beyond the repairable threshold."""


class EigenvalueOutOfRange(DppError):
    """An eigenvalue violates the bounds required by the kernel kind."""

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class EigendecompositionFailure(DppError):
    """The symmetric eigensolver did not converge."""


class GroundSetTooLarge(DppError):
    """The requested operation needs a dense 2^n table or an int64 bit mask, and n is too big."""


class EmptyBatch(DppError):
    """An empirical distribution was requested from zero draws."""


class SingularPrincipalMinor(DppError):
    """A principal minor required by the likelihood calculus is singular."""

    def __init__(self, message: str, mask: int):
        super().__init__(message)
        self.mask = mask


class SingularHessian(DppError):
    """The likelihood Hessian is not invertible where an inverse is required."""


class DegenerateTable(DppError):
    """Empirical cell probabilities needed by a closed-form estimator vanish."""


class ReducibleKernel(DppError):
    """The kernel splits into independent blocks; the asymptotic covariance is undefined."""


class ConfigError(DppError):
    """An experiment configuration failed validation."""


class ZeroB(ConfigError):
    """The explicit covariance formula requires a strictly positive off-diagonal."""
