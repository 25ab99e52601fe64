"""Exception types shared across the toolkit."""


class RankOneError(Exception):
    """Base class for all toolkit errors."""


class ScheduleError(RankOneError):
    """Base class for construction schedule problems."""


class NonPositiveCut(ScheduleError):
    """A cut count r_j < 2 was produced by a cut rule."""


class CutBudgetExceeded(ScheduleError):
    """A cut rule makes more cuts than a realization may hold."""


class NegativeSpacer(ScheduleError):
    """A spacer count below zero was produced by a spacer rule."""


class MalformedRule(ScheduleError):
    """A cut or spacer rule is structurally invalid (wrong arity, bad bounds, ...)."""


class UnrealizedStochastic(ScheduleError):
    """A stochastic schedule was used where a realized one is required."""


class UnknownName(ScheduleError):
    """Catalog lookup for a name that is not in the catalog."""


class DepthOverBudget(RankOneError):
    """Requested depth produces a word longer than the symbol budget."""


class LagOutOfRange(RankOneError):
    """A correlation lag outside the supported range for the depth."""


class MissingBasisLag(RankOneError):
    """Classification needs a basis lag that was not supplied."""


class UnknownFamily(RankOneError):
    """A named operator family that the builder does not know."""


class SolverDivergence(RankOneError):
    """The classifier's solver failed to terminate; treated as a bug signal."""


class TimeOutOfRange(RankOneError):
    """A flow correlation time outside the supported range for the depth."""


class SegmentBudgetExceeded(RankOneError):
    """Flow depth produces more segments than the configured budget."""


class ParseError(RankOneError):
    """Config text could not be parsed; carries line and column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}" + (f", col {column}" if column else "") + f": {message}"
        super().__init__(message)


class ValidationError(RankOneError):
    """Config parsed but describes an invalid plan."""


class IoError(RankOneError):
    """Report emission failed (unwritable path, ...)."""
