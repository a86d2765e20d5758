"""Exception types shared across the package."""


class NonRealInput(ValueError):
    """Transfer-function samples carry an imaginary part beyond tolerance."""


class ZeroKernel(ValueError):
    """An operation that needs a nonzero kernel received the zero signal."""


class NegativeRadicand(ArithmeticError):
    """A squared distance came out negative beyond rounding tolerance."""


class DomainError(ValueError):
    """Scalar argument outside the mathematically allowed domain."""


class NonMonotoneLadder(ValueError):
    """A probe ladder is not strictly monotone."""
