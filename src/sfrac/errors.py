"""Exception types shared across the package."""


class ExprSyntaxError(ValueError):
    """Coefficient-expression parse failure.  Carries the byte offset of the
    first offending character in ``offset``."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(ArithmeticError):
    """Expression evaluation hit a pole or left the real domain (division by
    zero, sqrt of a negative, ...)."""


class ConditionsFailed(RuntimeError):
    """The operator-hypothesis report came back negative and the caller did
    not override."""


class StabilityError(RuntimeError):
    """Explicit time step violates the spectral-radius stability bound."""
