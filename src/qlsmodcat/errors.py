"""Exception types shared across the package."""

from __future__ import annotations


class QlsError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(QlsError):
    """Input data fails a structural or arithmetic requirement."""


class HypothesisViolated(QlsError):
    """A filtration or datum fails one of the checked hypotheses.

    Carries ``which``, a short machine-readable tag naming the failed
    condition, so callers can report it without parsing the message.
    """

    def __init__(self, which: str, message: str = ""):
        self.which = which
        super().__init__(message or which)


class ConfluenceFailure(QlsError):
    """The rewriting system produced strategy-dependent normal forms.

    This indicates an implementation bug in the relation tables, not a
    mathematically meaningful obstruction; it should never escape tests.
    """


class IsoCheckFailed(QlsError):
    """An explicitly constructed map failed to verify as an isomorphism."""


class NotClosed(QlsError):
    """A subspace expected to be closed under an operation is not."""


class SizeBound(QlsError):
    """An enumeration would exceed the configured size bound."""


class DimensionMismatch(QlsError):
    """A vector or table does not match the dimension it is used against."""


class CocycleInvalid(QlsError):
    """A claimed Hopf 2-cocycle fails its defining identities."""


class NotExteriorDatum(QlsError):
    """The datum is not of the single-involution exterior form."""
