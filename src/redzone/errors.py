"""Exception and warning types shared across the package."""


class RedzoneError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RedzoneError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ValidationError(RedzoneError, ValueError):
    """A model, configuration, or document violates its construction contract.

    ``fields`` names the run-config fields that decide a failed check on a
    model built from a config document, for a caller that reads the document.
    """

    def __init__(self, *args, fields: tuple[str, ...] = ()):
        super().__init__(*args)
        self.fields = fields


class CompositionError(RedzoneError, ArithmeticError):
    """A redundancy composition is undefined (e.g. all units already failed)."""


class ValidationWarning(UserWarning):
    """A configuration is legal but internally inconsistent or unusual."""
