"""Exception types shared across the package."""


class LossNetError(Exception):
    """Base class for all package-specific failures."""


class InvalidInputError(LossNetError, ValueError):
    """Malformed instance/profile data or an out-of-domain argument."""


class CapacityError(LossNetError, RuntimeError):
    """An exhaustive enumeration would exceed its configured cap."""


class InternalCheckError(LossNetError, RuntimeError):
    """A cross-check that must never fail did fail.  Always a bug."""
