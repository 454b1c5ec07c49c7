"""Exception types shared across the package.

The CLI maps configuration problems to exit code 1 and numeric failures to
2; non-convergence comes only from picard_solve, which no command runs.
"""


class ConfigurationError(ValueError):
    """A scenario description violates an invariant (bad shapes, bad values)."""


class NumericError(ArithmeticError):
    """A numeric computation produced or encountered non-finite/invalid values."""


class NumericalDriftError(NumericError):
    """Integration left the unit simplex by more than the drift tolerance.

    Raised when the per-step conservation correction exceeds the tolerance,
    which indicates the step size is too large for the dynamics.
    """


class NonConvergenceError(RuntimeError):
    """An iterative solver exhausted its budget without reaching tolerance."""
