"""Exception types shared across the toolkit.

The split matters for the CLI exit codes: anything that indicates bad input
or a violated precondition maps to exit code 1, while InternalInvariantError
(a bug in our own bookkeeping) maps to exit code 2.
"""


class TrackingError(Exception):
    """Base class for all toolkit errors."""


class RangeError(TrackingError, ValueError):
    """An index or size argument is outside its valid range."""


class ContractError(TrackingError, ValueError):
    """A caller violated an operation's precondition (shape mismatch,
    missing history, infeasible constraint set)."""


class InputValidationError(TrackingError, ValueError):
    """Input data carries invalid values (non-finite descriptors, bad boxes)."""


class DegenerateInputError(TrackingError, ValueError):
    """The computation cannot proceed because the input collapsed to zero
    (all-zero contraction, zero normalizer)."""


class NumericError(TrackingError, ArithmeticError):
    """A NaN or Inf appeared where finite values are required."""


class ParseError(TrackingError, ValueError):
    """A text record could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class InternalInvariantError(TrackingError, RuntimeError):
    """Our own state became inconsistent; indicates a bug, not bad input."""
