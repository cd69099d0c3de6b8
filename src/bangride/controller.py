"""Model-free bang-ride charging controller: its settings and its loop.

``ControllerState`` holds the controller's validated settings: the start
gains, their box, the step-size exponent and the clip. ``run_closed_loop``
runs the PI law on the active error and the online projected-gradient update
of the two gains as float arithmetic, with the step size of ``step_size`` and
the projection of ``project_box``, through ``plant.simulate``, the one loop
that the oracle's law (``oracle.oracle_trajectory``) runs through too.

Index convention used throughout the package: active-constraint indices
(``i_star``) are 1-based (constraint 1 is always the explicit current bound
``u <= u_max``); raw array positions are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, SimulationDiverged
from .plant import ConstraintSpec, PlantModel, Trajectory, simulate

DEFAULT_THETA0 = (0.1, 0.1)
DEFAULT_THETA_LO = (0.0, 0.0)
DEFAULT_THETA_HI = (10.0, 1.0)


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


def run_closed_loop(model: PlantModel,
                    controller: ControllerState,
                    spec: ConstraintSpec,
                    t_f: int,
                    x0) -> Trajectory:
    """Run the data-driven bang-ride loop for steps t = 0..t_f.

    Per step: compute u from the PI law, weigh the outputs' errors
    ``gamma * (y_bar - y)``, pick the active constraint, take one projected
    gradient step on the gains, then append the active error to the history.
    The gains and the history are held as floats during the run, in the
    operand order of the numpy ``ReferenceController`` in
    ``tests/references.py``, so every value matches the reference bit for bit.
    The controller is only read: the history starts at zero in every run.
    A ``SimulationDiverged`` carries its rows' gains and step sizes too.
    """
    thetas, alphas = [], []     # the gains and step sizes, copied once
    t0, t1 = controller.theta.tolist()
    lo0, lo1 = controller.theta_lo.tolist()
    hi0, hi1 = controller.theta_hi.tolist()
    neg_mu1, clip = -controller.mu1, controller.grad_clip
    gamma, y_bar = spec.gamma, spec.y_bar
    weights = list(zip(gamma.tolist(), y_bar.tolist()))
    grad = np.empty(2)      # the gradient, for its norm when clipped
    last = tot = alpha = 0.0

    def control(t: int, x) -> float:
        nonlocal alpha
        thetas.extend((t0, t1))
        alpha = 1.0 if t == 0 else float(t) ** neg_mu1     # step_size(t, mu1)
        alphas.append(alpha)
        if not (math.isfinite(t0) and math.isfinite(t1)
                and math.isfinite(last) and math.isfinite(tot)):
            raise SimulationDiverged(t, "non-finite controller state")
        return t0 * last + t1 * tot

    def observe(t: int, y) -> int:
        nonlocal t0, t1, last, tot
        # the first minimum, as argmin gives it: the guard keeps NaN out
        if isinstance(y, list):
            e = [g * (b - v) for (g, b), v in zip(weights, y)]
            ea = min(e)
            k = e.index(ea)
        else:
            e = gamma * (y_bar - y)
            k = int(e.argmin())
            ea = float(e[k])
        g0, g1 = -ea * last, -ea * tot
        if clip is not None:
            # np.linalg.norm's own sqrt(g.dot(g)), without its per-call cost
            grad[0], grad[1] = g0, g1
            norm = math.sqrt(grad.dot(grad))
            if norm > clip:
                scale = clip / norm
                g0, g1 = g0 * scale, g1 * scale
        # ties take the bound, as numpy's maximum and minimum do, so that a
        # signed zero comes out as project_box gives it
        v = t0 - alpha * g0
        v = lo0 if v <= lo0 else v
        t0 = hi0 if v >= hi0 else v
        v = t1 - alpha * g1
        v = lo1 if v <= lo1 else v
        t1 = hi1 if v >= hi1 else v
        last = ea
        tot += ea
        return k + 1

    try:
        traj = simulate(model, spec, t_f, x0, control, observe)
    except SimulationDiverged as error:     # the failing step may have logged its gains
        n = len(error.rows)
        error.rows = replace(error.rows, theta=np.reshape(thetas[:2 * n], (-1, 2)),
                             alpha=np.array(alphas[:n]))
        raise
    return replace(traj, theta=np.reshape(thetas, (-1, 2)), alpha=np.array(alphas))
