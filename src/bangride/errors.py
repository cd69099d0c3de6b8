"""Exception types shared across the package."""


class BangrideError(Exception):
    """Base class for all package errors."""


class ConfigurationError(BangrideError):
    """Invalid configuration: bad parameter value, shape mismatch, unknown name."""


class SimulationDiverged(BangrideError):
    """A state, input or output became non-finite or exceeded the guard magnitude.

    Carries the step index at which the run was aborted.
    """

    def __init__(self, step: int, message: str):
        self.step = step
        super().__init__(f"simulation diverged at step {step}: {message}")


class RootFindingError(BangrideError):
    """A root was not found, or fell outside its bracket; carries the
    bracket and the iterations spent on it (0 for a root that was read)."""

    def __init__(self, message: str, lo: float, hi: float, iterations: int):
        self.lo = lo
        self.hi = hi
        self.iterations = iterations
        super().__init__(
            f"{message} (bracket [{lo!r}, {hi!r}] after {iterations} iterations)"
        )


class PotentialDomainError(BangrideError):
    """A potential function was evaluated outside its domain (e.g. log of a
    non-positive concentration ratio). Names the offending function."""

    def __init__(self, function_name: str, message: str):
        self.function_name = function_name
        super().__init__(f"{function_name}: {message}")
