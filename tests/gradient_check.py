"""Finite-difference check of the controller's gradient signs.

Used by the acceptance criterion C5 and its unit test: for every recorded
step it re-evaluates the one-step cost at perturbed gains, so it is a test
of the package rather than part of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bangride.plant import ConstraintSpec, PlantModel, Trajectory
from references import ct_diagnostic, output


@dataclass
class GradientSignCheck:
    checked: int
    agreed: int
    skipped: int          # |finite-difference derivative| below the floor
    ct_min: float
    disagreements: list[tuple[int, int]]   # (step, component)

    @property
    def ok(self) -> bool:
        return not self.disagreements


def gradient_sign_check(trajectory: Trajectory, model: PlantModel,
                        spec: ConstraintSpec, *, delta: float = 1e-6,
                        deriv_floor: float = 1e-8,
                        ct_delta: float = 1e-5) -> GradientSignCheck:
    """Compare sign(g_t) against finite differences of the one-step cost.

    For every recorded step, re-simulates the step at perturbed gains and
    differentiates J(theta) = e_active(theta)^2 numerically; component signs
    must agree with g_t = -e_active * (last_error, error_sum) whenever the
    derivative is distinguishable from zero. Also tracks min c_t.
    """
    checked = agreed = skipped = 0
    disagreements: list[tuple[int, int]] = []
    ct_min = math.inf
    le, es = 0.0, 0.0
    steps = zip(trajectory.u.tolist(), trajectory.i_star.tolist(),
                trajectory.e_active.tolist())
    for t, (u_t, i_star, e_active) in enumerate(steps):
        x = trajectory.states[t]
        s = np.array([le, es])
        theta = trajectory.theta[t]
        gamma_i = float(spec.gamma[i_star - 1])
        y_bar_i = float(spec.y_bar[i_star - 1])

        def cost(th: np.ndarray) -> float:
            u = float(th @ s)
            return (gamma_i * (y_bar_i - output(model, x, u, i_star - 1))) ** 2

        g = -e_active * s
        for m in range(2):
            step_vec = np.zeros(2)
            step_vec[m] = delta
            fd = (cost(theta + step_vec) - cost(theta - step_vec)) / (2.0 * delta)
            if abs(fd) <= deriv_floor:
                skipped += 1
                continue
            checked += 1
            if math.copysign(1.0, fd) == math.copysign(1.0, g[m]):
                agreed += 1
            else:
                disagreements.append((t, m))
        ct_min = min(ct_min, ct_diagnostic(model, x, u_t, i_star,
                                           gamma_i, ct_delta))
        le = e_active
        es += e_active
    return GradientSignCheck(checked=checked, agreed=agreed, skipped=skipped,
                             ct_min=ct_min, disagreements=disagreements)
