"""Exception types shared across the package, and its one integer check."""

import numpy as np


class Error(Exception):
    """Base class for all qseclab errors."""


class ValidationError(Error):
    """Input failed a structural or numerical validity check."""


class NotHermitianError(ValidationError):
    """Matrix differs from its conjugate transpose beyond tolerance."""


class NotPositiveError(ValidationError):
    """Operator has an eigenvalue below the positivity tolerance."""

    def __init__(self, most_negative: float, message: str | None = None):
        self.most_negative = float(most_negative)
        super().__init__(message or f"most negative eigenvalue {most_negative:.3e}")


class TraceNotOneError(ValidationError):
    """Operator trace differs from one beyond tolerance."""


class DimensionMismatchError(Error):
    """Operators live on state spaces of different dimension."""


class SizeMismatchError(Error):
    """Probability vectors have different lengths."""


class DimensionCapError(Error):
    """Requested construction exceeds the dense-dimension cap."""


class ConvergenceError(Error):
    """An eigensolver or iterative routine failed to converge."""


class InfeasibleError(Error):
    """The requested extremal construction has no feasible solution."""


class ZeroMassError(Error):
    """Conditioning event has zero prior probability."""


class EmptySubsetError(Error):
    """A key-bit subset argument was empty."""


class OutOfScopeError(Error):
    """Inputs fall outside the stated domain of an inequality check."""


class ParseError(Error):
    """A serialized artifact could not be parsed."""


def _require_integer(name: str, value) -> None:
    """Refuse ``value`` unless it is an int or a numpy integer; a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
