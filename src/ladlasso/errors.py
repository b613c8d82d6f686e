"""Exception types shared across the toolkit."""


class InvalidInputError(ValueError):
    """Input violates a documented precondition (shape, finiteness, range)."""


class DimensionMismatchError(InvalidInputError):
    """Vector or matrix dimensions disagree."""


class DegenerateInputError(ValueError):
    """An operation received an input it cannot act on (e.g. no breakpoints)."""


class UnboundedDirectionError(RuntimeError):
    """Bracket expansion failed to trap a minimum within its doubling budget."""


class ProblemTooLargeError(ValueError):
    """Exhaustive enumeration would exceed its size caps."""


class SimplexError(RuntimeError):
    """The simplex solver hit an internal inconsistency (e.g. an unbounded LP)."""
