"""Exception types shared across the package."""


class ZeroKernel(ValueError):
    """An operation that needs a nonzero kernel received the zero signal."""


class DomainError(ValueError):
    """Scalar argument outside the mathematically allowed domain."""


class NonMonotoneLadder(ValueError):
    """A probe ladder is not strictly monotone."""
