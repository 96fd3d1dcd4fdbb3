"""Exception taxonomy shared across the package."""


class SirshareError(Exception):
    """Base class for all package-specific errors."""


class MalformedInputError(SirshareError):
    """Structurally invalid input: bad matrix shape, NaN entries, bad route."""


class ConstructionError(SirshareError):
    """An instance generator could not realize the requested geometry."""


class SizeError(SirshareError):
    """Exact enumeration was requested above the configured cap."""


class UnsupportedModeError(SirshareError):
    """Operation only defined for the single shared dropoff setting."""


class UnsupportedAssumptionError(SirshareError):
    """Operation requires equal per-rider and operator rates."""


class DegenerateWeightsError(SirshareError):
    """A weight sum that the scheme divides by is zero."""


class DegenerateDistanceError(SirshareError):
    """A direct pickup-to-dropoff distance is zero where a ratio needs it."""


class IndeterminateRatioError(SirshareError):
    """Benefit ratios are undefined because the denominator is zero."""


class InfeasibleRouteError(SirshareError):
    """The route admits no budget-balanced scheme with nonincreasing disutilities."""

    def __init__(self, message: str, stage: int | None = None):
        super().__init__(message)
        self.stage = stage


class BudgetBalanceError(SirshareError):
    """A cost-share table does not sum to the operator cost at some stage."""

    def __init__(self, message: str, stage: int | None = None):
        super().__init__(message)
        self.stage = stage


class FlowExtractionError(SirshareError):
    """An allocation's matching fails its dual optimality certificate."""
