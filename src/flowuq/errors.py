"""Exception hierarchy shared across the package.

Data problems (bad files, invalid matrices) and identification problems
(regressions that cannot pin down a parameter) are kept on separate branches
so the CLI can map them to distinct exit codes.
"""

from __future__ import annotations


class FlowUqError(Exception):
    """Base class for all package errors."""


class DataError(FlowUqError):
    """Invalid input data: malformed files, bad matrices, impossible values."""


class ParseError(DataError):
    """A data file could not be parsed."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class ZeroMarginal(DataError):
    """A row or column of the flow matrix sums to zero, so a location's
    income or expenditure, and the model's shares, are undefined."""


class ZeroDiagonal(DataError):
    """An own-flow entry is zero; the built-in model's welfare formula is
    undefined for a zero own expenditure share."""


class InvalidElasticity(DataError):
    """Elasticity parameter outside its admissible range (finite and > 0)."""


class LengthMismatch(DataError):
    """Draw sets that must be aligned have different lengths."""


class IdentificationError(FlowUqError):
    """A parameter cannot be identified from the supplied data."""


class Collinear(IdentificationError):
    """A regressor lies in the span of the fixed effects."""


class Separation(IdentificationError):
    """A fixed effect diverged during Poisson fitting (perfect separation)."""


class InsufficientData(IdentificationError):
    """Too few usable observations to identify a required parameter."""


class NotPSD(FlowUqError):
    """A covariance matrix is not positive semidefinite within tolerance."""


class NoConvergence(FlowUqError):
    """An iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(
        self, iterations: int, residual: float, what: str = "solver", reason: str | None = None
    ):
        self.iterations = iterations
        self.residual = residual
        self.reason = reason
        stopped = "" if reason is None else f"; stopped by {reason}"
        super().__init__(
            f"{what} did not converge after {iterations} iterations "
            f"(residual {residual:.3e}{stopped})"
        )


class ModelEvaluationFailed(FlowUqError):
    """A counterfactual model evaluation failed; carries the diagnostic so the
    bootstrap engine can skip and count the draw."""

    def __init__(self, diagnostic: str):
        self.diagnostic = diagnostic
        super().__init__(diagnostic)


class TooManyFailures(FlowUqError):
    """More bootstrap draws failed than the configured tolerance allows."""

    def __init__(self, failed: int, total: int, limit: float):
        self.failed = failed
        self.total = total
        self.limit = limit
        super().__init__(
            f"{failed}/{total} draws failed (allowed fraction {limit:g})"
        )


class BadQuantileGrid(FlowUqError):
    """alpha/2 * B is not an integer, so the requested order statistics do
    not exist."""


class TooFewDraws(FlowUqError):
    """Not enough draws to resolve the requested tail quantile."""
