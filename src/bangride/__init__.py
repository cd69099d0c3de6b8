"""Desk-scale lab for model-free fast charging of lithium-ion batteries.

Simulates battery plant models (equivalent-circuit cell, single-particle
cell with electrolyte/thermal states, series pack), charges them with a
data-driven bang-ride controller whose PI gains are tuned online by projected
gradient descent, compares against a model-based ideal bang-ride oracle, and
quantifies regret and robustness.
"""

__version__ = "0.1.0"

import functools

from . import models
from .controller import ControllerState, project_box, run_closed_loop, step_size
from .errors import (BangrideError, ConfigurationError, PotentialDomainError,
                     RootFindingError, SimulationDiverged)
from .oracle import oracle_trajectory
from .plant import (ConstraintSpec, MonotonicityReport, PlantModel, RootConfig,
                    Trajectory, simulate, validate_monotonicity)

# the plant names resolve through bangride.models, which imports each plant's
# module on first use
__getattr__ = functools.partial(models.__getattr__, module=__name__)

__all__ = [
    "__version__",
    "BangrideError", "ConfigurationError", "PotentialDomainError",
    "RootFindingError", "SimulationDiverged",
    "ConstraintSpec", "ControllerState", "project_box", "step_size",
    "PlantModel", "Trajectory", "MonotonicityReport", "simulate",
    "run_closed_loop", "validate_monotonicity",
    "RootConfig", "oracle_trajectory",
    *models.__all__,
]
