"""Model-free bang-ride charging controller: its constraints and its settings.

``ConstraintSpec`` holds the output bounds and error weights, and
``ControllerState`` the controller's validated settings: the start gains,
their box, the step-size exponent and the clip. It holds no stepping code: the
PI law on the active error and the online projected-gradient update of the
two gains run as float arithmetic inside ``plant.run_closed_loop``, with the
step size of ``step_size`` and the projection of ``project_box``.

Index convention used throughout the package: active-constraint indices
(``i_star``) are 1-based (constraint 1 is always the explicit current bound
``u <= u_max``); raw array positions are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

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
        if not np.all(np.isfinite(self.gamma)):
            raise ConfigurationError("gamma entries must be finite")

    @property
    def p(self) -> int:
        return int(self.y_bar.size)

    @property
    def u_max(self) -> float:
        """Bound 1 is the explicit current limit."""
        return float(self.y_bar[0])


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
    """Settings of the model-free controller: start gains, their box, mu1, clip.

    The PI law ``u_t = theta_1 * e_active(t-1) + theta_2 * sum_{k<t} e_active(k)``
    reads the history only through the last active error and the running error
    sum. ``run_closed_loop`` holds both from zero (so ``u_0 = 0``), and the
    gains, as floats, and only reads this record, which serves any number of runs.
    """

    # tuples by default: __post_init__ makes every bound an array
    theta: np.ndarray = DEFAULT_THETA0
    theta_lo: np.ndarray = DEFAULT_THETA_LO
    theta_hi: np.ndarray = DEFAULT_THETA_HI
    mu1: float = 0.5
    grad_clip: float | None = None

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
        if not np.all((self.theta_lo <= self.theta) & (self.theta <= self.theta_hi)):
            raise ConfigurationError(f"theta {self.theta} outside box")
        step_size(0, self.mu1)  # validates mu1
        if self.grad_clip is not None and not self.grad_clip > 0.0:
            raise ConfigurationError("grad_clip must be positive when set")
