"""Exception hierarchy shared by the whole toolkit."""

from __future__ import annotations

from typing import Optional


class PLRSError(Exception):
    """Base class for every error raised by this package."""


class VectorValidationError(PLRSError, ValueError):
    """A coefficient list fails the generator requirements."""


class EmptyVectorError(VectorValidationError):
    def __init__(self) -> None:
        super().__init__("coefficient vector is empty")


class NegativeCoefficientError(VectorValidationError):
    def __init__(self, index: int, value: int) -> None:
        self.index = index
        self.value = value
        super().__init__(f"coefficient c_{index} = {value} is negative")


class LeadingZeroError(VectorValidationError):
    def __init__(self) -> None:
        super().__init__("first coefficient must be positive")


class TrailingZeroError(VectorValidationError):
    def __init__(self) -> None:
        super().__init__("last coefficient must be positive")


class CapTooLargeError(PLRSError):
    """A reachability bitmap would exceed the memory budget."""


class CapExceededError(PLRSError):
    """A brute-force target lies above the configured cap."""


class OutOfRangeError(PLRSError, ValueError):
    """Arguments fall outside the domain a closed-form bound covers."""


class NoLegalDecompositionError(PLRSError):
    """Raised for the constant generator [1], whose only legal string is empty."""


class ConjectureViolation(PLRSError):
    """A first Brown failure past max(2L-1, 2): a reportable discovery, not a bug.

    Carries the offending vector and its first-failure index so the finding
    survives into logs and exit-code handling; None if it is only known to
    lie past the window.
    """

    def __init__(self, vector: tuple[int, ...], first_failure: Optional[int]) -> None:
        self.vector = tuple(vector)
        self.first_failure = first_failure
        at = "" if first_failure is None else f" at term {first_failure}"
        super().__init__(
            f"vector {list(self.vector)} first fails Brown's criterion{at}, "
            "beyond the conjectured window"
        )
