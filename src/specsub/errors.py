"""Exception types shared across the package."""


class SpecsubError(Exception):
    """Base class for library errors."""


class FixtureParseError(SpecsubError):
    """Malformed fixture file. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotAnIdealError(SpecsubError):
    """A spanning set was required to be an ideal but is not."""


class FormulaInapplicableError(SpecsubError):
    """Closed-form spectral formula requested outside its hypotheses."""


class SolverConvergenceError(SpecsubError):
    """An eigensolver result failed certification or the dense cross-check.

    The rejected result is attached as ``best``.
    """

    def __init__(self, message, best=None):
        self.best = best
        super().__init__(message)
