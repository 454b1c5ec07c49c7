"""Exception types shared across the package.

The CLI maps these onto process exit codes, so the distinction between
configuration problems, numeric failures and non-convergence matters.
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
