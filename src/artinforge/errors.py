"""Exception types shared across the package."""


class AmbientMismatchError(ValueError):
    """Operands live over different ambient variable lists."""


class ResourceLimitError(RuntimeError):
    """A computation exceeded its configured resource budget."""


class NotArtinianError(RuntimeError):
    """Some variable has no pure power among the leading monomials."""


class EquivarianceError(ValueError):
    """A permutation does not leave the defining ideal invariant."""
