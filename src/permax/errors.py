"""Exception types shared across the package."""

__all__ = [
    "ShapeError",
    "RankError",
    "RangeError",
    "CounterexampleError",
    "PropertyFailure",
]


class ShapeError(ValueError):
    """Matrix shape or index-set structure outside an operation's domain."""


class RankError(ValueError):
    """Rank precondition violated (e.g. a singular input where full rank is required)."""


class RangeError(ValueError):
    """Numeric argument outside the supported range of a table or recurrence."""


class CounterexampleError(RuntimeError):
    """A verification sweep found a matrix violating a bound or equality class.

    The message embeds the offending matrix in the standard text format.
    """


class PropertyFailure(RuntimeError):
    """A randomized or exhaustive property check failed; names the invariant and input."""
