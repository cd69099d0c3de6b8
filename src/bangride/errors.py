"""Exception types shared across the package."""


class BangrideError(Exception):
    """Base class for all package errors."""


class ConfigurationError(BangrideError):
    """Invalid configuration: bad parameter value, shape mismatch, unknown name."""


class SimulationDiverged(BangrideError):
    """A state, input or output became non-finite or exceeded the guard magnitude.

    Carries the step index at which the run was aborted. ``rows`` is the
    ``plant.Trajectory`` of the steps before it, none of them NaN, when the
    run's ``Trajectory.from_columns`` raised the error, else None.
    """

    rows = None

    def __init__(self, step: int, message: str):
        self.step = step
        super().__init__(f"simulation diverged at step {step}: {message}")


class RootFindingError(BangrideError):
    """A root was not found, or fell outside its interval; the message names
    the interval."""


class PotentialDomainError(BangrideError):
    """A potential function was evaluated outside its domain (e.g. log of a
    non-positive concentration ratio); the message starts with the
    function's name."""
