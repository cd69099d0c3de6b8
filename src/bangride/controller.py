"""Model-free bang-ride charging controller.

Constraint errors and active-constraint switching, a PI control law on the
active error, and an online projected-gradient update of the two PI gains
driven by the one-step squared constraint error.

Index convention used throughout the package: active-constraint indices
(``i_star``) are 1-based (constraint 1 is always the explicit current bound
``u <= u_max``); raw array positions are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SimulationDiverged

DEFAULT_THETA0 = (0.1, 0.1)
DEFAULT_THETA_LO = (0.0, 0.0)
DEFAULT_THETA_HI = (10.0, 1.0)


@dataclass
class ConstraintSpec:
    """Output upper bounds with strictly positive error weights.

    The weighted constraint errors are ``e_i = gamma_i * (y_bar_i - y_i)``.
    Constraint i is satisfied at a step iff ``e_i >= 0`` and active when
    ``e_i == 0``. Bound 1 is the current limit ``u_max``, which must be > 0.
    """

    y_bar: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        self.y_bar = np.atleast_1d(np.asarray(self.y_bar, dtype=float))
        self.gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if self.y_bar.ndim != 1 or self.y_bar.size < 1:
            raise ConfigurationError("y_bar must be a non-empty 1-D vector")
        if self.gamma.shape != self.y_bar.shape:
            raise ConfigurationError(
                f"gamma shape {self.gamma.shape} != y_bar shape {self.y_bar.shape}"
            )
        if not np.all(np.isfinite(self.y_bar)):
            raise ConfigurationError("y_bar entries must be finite")
        if not self.y_bar[0] > 0.0:
            raise ConfigurationError("bound 1 is the current limit and must be > 0")
        if not np.all(self.gamma > 0.0):
            raise ConfigurationError("all weights gamma_i must be > 0")

    @property
    def p(self) -> int:
        return int(self.y_bar.size)

    @property
    def u_max(self) -> float:
        """Bound 1 is the explicit current limit."""
        return float(self.y_bar[0])


def constraint_errors(spec: ConstraintSpec, y: np.ndarray) -> np.ndarray:
    """Weighted slacks ``e_i = gamma_i * (y_bar_i - y_i)``."""
    y = np.asarray(y, dtype=float)
    if y.shape != spec.y_bar.shape:
        raise ConfigurationError(
            f"output vector has shape {y.shape}, expected {spec.y_bar.shape}"
        )
    return spec.gamma * (spec.y_bar - y)


def active_index(e: np.ndarray) -> int:
    """1-based index of the smallest constraint error (ties: lowest index)."""
    e = np.asarray(e, dtype=float)
    return int(np.argmin(e)) + 1


def step_size(t: int, mu1: float) -> float:
    """Step-size schedule: 1 at t = 0, then t**(-mu1)."""
    if not (0.0 < mu1 < 1.0):
        raise ConfigurationError(f"mu1 must lie in (0, 1), got {mu1}")
    if t < 0:
        raise ConfigurationError(f"step index must be >= 0, got {t}")
    if t == 0:
        return 1.0
    return float(t) ** (-mu1)


def project_box(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the axis-aligned box [lo, hi] (non-expansive)."""
    return np.minimum(np.maximum(np.asarray(v, dtype=float), lo), hi)


@dataclass
class ControllerState:
    """PI gains, their admissible box, and the compressed run history.

    The PI law ``u_t = theta_1 * e_active(t-1) + theta_2 * sum_{k<t} e_active(k)``
    depends on the observed history only through the last active error and the
    running error sum, so those two scalars are the full stored state. Both
    start at zero, hence ``u_0 = 0``. Single-owner mutable within one run;
    create a fresh instance per closed-loop run.
    """

    theta: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_THETA0))
    theta_lo: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_THETA_LO))
    theta_hi: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_THETA_HI))
    mu1: float = 0.5
    grad_clip: float | None = None
    error_sum: float = 0.0
    last_error: float = 0.0
    t: int = 0

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float).copy()
        self.theta_lo = np.asarray(self.theta_lo, dtype=float)
        self.theta_hi = np.asarray(self.theta_hi, dtype=float)
        if self.theta.shape != (2,):
            raise ConfigurationError("theta must be a 2-vector (K_p, K_i)")
        if self.theta_lo.shape != (2,) or self.theta_hi.shape != (2,):
            raise ConfigurationError("theta box bounds must be 2-vectors")
        if not np.all(self.theta_lo <= self.theta_hi):
            raise ConfigurationError("theta box must satisfy lo <= hi")
        if np.any(self.theta < self.theta_lo) or np.any(self.theta > self.theta_hi):
            raise ConfigurationError(f"theta {self.theta} outside box")
        step_size(0, self.mu1)  # validates mu1
        if self.grad_clip is not None and self.grad_clip <= 0.0:
            raise ConfigurationError("grad_clip must be positive when set")

    def control(self) -> float:
        """Current command from the PI law on the stored history statistics."""
        if not (np.all(np.isfinite(self.theta))
                and math.isfinite(self.last_error)
                and math.isfinite(self.error_sum)):
            raise SimulationDiverged(self.t, "non-finite controller state")
        return float(self.theta[0]) * self.last_error + float(self.theta[1]) * self.error_sum

    def control_gradient(self) -> np.ndarray:
        """Gradient of the control law in theta: (last_error, error_sum).

        Always consistent with the statistics that produced the latest
        control() value, since both read the same stored scalars.
        """
        return np.array([self.last_error, self.error_sum])

    def gradient(self, e_active: float) -> np.ndarray:
        """Descent direction ``g = -e_active * grad_theta(u)``.

        Rescaled to norm <= grad_clip when a clip bound is set.
        """
        g = -float(e_active) * self.control_gradient()
        if self.grad_clip is not None:
            norm = float(np.linalg.norm(g))
            if norm > self.grad_clip:
                g *= self.grad_clip / norm
        return g

    def update(self, g: np.ndarray, alpha: float, e_active: float) -> None:
        """One projected gradient step, then absorb the step's active error.

        Order matters: the gains move using the pre-update statistics, after
        which e_active extends the history and the step counter advances.
        """
        self.theta = project_box(self.theta - alpha * np.asarray(g, dtype=float),
                                 self.theta_lo, self.theta_hi)
        self.last_error = float(e_active)
        self.error_sum += float(e_active)
        self.t += 1
