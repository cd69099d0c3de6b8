"""Desk-scale lab for model-free fast charging of lithium-ion batteries.

Simulates battery plant models (equivalent-circuit cell, single-particle
cell with electrolyte/thermal states, series pack), charges them with a
data-driven bang-ride controller whose PI gains are tuned online by projected
gradient descent, compares against a model-based ideal bang-ride oracle, and
quantifies regret and robustness.
"""

__version__ = "0.1.0"

from .controller import (ConstraintSpec, ControllerState, active_index,
                         constraint_errors, project_box, step_size)
from .errors import (BangrideError, ConfigurationError, PotentialDomainError,
                     RootFindingError, SimulationDiverged)
from .oracle import FeedbackValue, RootConfig, SelectorResult, oracle_trajectory, selector, solve_constraint
from .plant import (MonotonicityReport, PlantModel, Trajectory, replay_open_loop,
                    run_closed_loop, simulate, validate_monotonicity)
from .models import (EcmParams, EcmPlant, PackParams, PackPlant, SpmetParams,
                     SpmetPlant, ToyLinearPlant, perturb_params)

__all__ = [
    "__version__",
    "BangrideError", "ConfigurationError", "PotentialDomainError",
    "RootFindingError", "SimulationDiverged",
    "ConstraintSpec", "ControllerState", "active_index", "constraint_errors",
    "project_box", "step_size",
    "PlantModel", "Trajectory", "MonotonicityReport", "simulate",
    "run_closed_loop", "replay_open_loop", "validate_monotonicity",
    "RootConfig", "FeedbackValue", "SelectorResult", "solve_constraint",
    "selector", "oracle_trajectory",
    "ToyLinearPlant", "EcmParams", "EcmPlant", "perturb_params",
    "SpmetParams", "SpmetPlant", "PackParams", "PackPlant",
]
