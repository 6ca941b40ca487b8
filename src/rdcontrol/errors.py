"""Semantic exception hierarchy shared across the package."""


class RdControlError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RdControlError, ValueError):
    """An argument lies outside the mathematical domain of an operation.

    ``field`` names the argument at fault as a scenario document spells it,
    with an index for a list item (``caps[2]``, ``vertices[1]``), or is None
    when no single argument is at fault.
    """

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


class InfeasibleOffsetError(DomainError):
    """A distortion offset does not decode to a valid distortion."""


class UnsupportedCombinationError(RdControlError, TypeError):
    """A source / utility / region combination has no closed-form solver."""


class InconsistencyError(RdControlError):
    """An internally derived result failed its own feasibility check."""


class InfeasibleError(RdControlError):
    """A constraint set that should never be empty turned out empty."""


class GridTooLargeError(RdControlError):
    """A requested exhaustive scan exceeds the hard work cap."""


class ScenarioError(RdControlError, ValueError):
    """A scenario document violates the input schema; message names the field."""
