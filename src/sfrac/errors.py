"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the function (e.g. log of a
    nonpositive real quaternion)."""


class ExprSyntaxError(ValueError):
    """Coefficient-expression parse failure.  Carries the byte offset of the
    first offending character in ``offset``."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(ArithmeticError):
    """Expression evaluation hit a pole or left the real domain (division by
    zero, sqrt of a negative, ...)."""


class SolverDiverged(RuntimeError):
    """A Q_s solve missed its a-posteriori residual guard."""


class ConditionsFailed(RuntimeError):
    """The operator-hypothesis report came back negative and the caller did
    not override."""


class StabilityError(RuntimeError):
    """Explicit time step violates the spectral-radius stability bound."""
