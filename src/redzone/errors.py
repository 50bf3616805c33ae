"""Exception and warning types shared across the package, and :func:`warn`."""

import sys
import warnings


class RedzoneError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RedzoneError, ValueError):
    """An input a call does not accept: a model, configuration, document, flag or
    argument that breaks its contract or leaves an operation's domain.

    ``fields`` names the run-config fields that decide a failed check, so its
    message need not; the CLI prints them, or the flag that set one.
    """

    def __init__(self, *args, fields: tuple[str, ...] = ()):
        super().__init__(*args)
        self.fields = fields


class CompositionError(RedzoneError, ArithmeticError):
    """A redundancy composition is undefined (e.g. all units already failed)."""


class ValidationWarning(UserWarning):
    """A configuration is legal but internally inconsistent or unusual."""


def warn(message: str, category: type[Warning] = ValidationWarning) -> None:
    """Emit a warning, a :class:`ValidationWarning` by default, at the first frame
    outside this package: the code that built the value or loaded the configuration."""
    frame, level = sys._getframe(1), 2
    while frame and frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)
