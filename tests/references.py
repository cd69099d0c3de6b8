"""One-step and one-run scalar references that the package's batched paths
equal bit for bit, and ``phases``. No command runs them:
``per_step_optimal_cost`` is a row of ``analysis.attach_per_step_optima``,
``ct_diagnostic`` an entry of ``analysis.ct_series``, and ``replay_open_loop``
a member of ``plant.replay_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from bangride.analysis import _box_corners, _min_norm_on_line_in_box
from bangride.controller import ConstraintSpec, active_index, project_box
from bangride.errors import RootFindingError
from bangride.plant import DEFAULT_GUARD, PlantModel, Trajectory, simulate


@dataclass
class PerStepOptimum:
    """Minimizer of the one-step squared active error over the gain box."""

    j_star: float
    u_star: float
    theta_star: np.ndarray


def per_step_optimal_cost(model: PlantModel, x, spec: ConstraintSpec,
                          last_error: float, error_sum: float,
                          theta_lo: np.ndarray, theta_hi: np.ndarray,
                          i_star: int, *, tol_u: float = 1e-9,
                          tol_y: float = 1e-6,
                          max_iter: int = 200) -> PerStepOptimum:
    """Best achievable one-step cost at a recorded step.

    The PI law makes u affine in theta given the frozen history statistics,
    so the box maps onto a current interval (corner evaluation). On that
    interval the weighted error of the realized active constraint is
    decreasing in u; the minimizing current is the riding root when it is
    reachable and the nearest interval endpoint otherwise.
    """
    theta_lo = np.asarray(theta_lo, dtype=float)
    theta_hi = np.asarray(theta_hi, dtype=float)
    s = np.array([float(last_error), float(error_sum)])
    gamma_i = float(spec.gamma[i_star - 1])
    y_bar_i = float(spec.y_bar[i_star - 1])

    def err(u: float) -> float:
        return gamma_i * (y_bar_i - model.output(x, u, i_star - 1))

    if s @ s == 0.0:    # no history, or one too small to square (u is 0 within rounding)
        e0 = err(0.0)
        return PerStepOptimum(j_star=e0 ** 2, u_star=0.0,
                              theta_star=project_box(np.zeros(2), theta_lo, theta_hi))

    image = _box_corners(theta_lo, theta_hi) @ s
    u_lo, u_hi = float(image.min()), float(image.max())
    e_lo, e_hi = err(u_lo), err(u_hi)
    if e_hi >= 0.0:           # under-riding even at the largest reachable u
        u_opt, e_opt = u_hi, e_hi
    elif e_lo <= 0.0:         # over-riding even at the smallest reachable u
        u_opt, e_opt = u_lo, e_lo
    else:
        lo_u, hi_u = u_lo, u_hi
        u_opt, e_opt = u_lo, e_lo
        tol_e = gamma_i * tol_y
        for _ in range(max_iter):
            u_opt = 0.5 * (lo_u + hi_u)
            e_opt = err(u_opt)
            if e_opt < 0.0:
                hi_u = u_opt
            else:
                lo_u = u_opt
            if (hi_u - lo_u) <= tol_u and abs(e_opt) <= tol_e:
                break
        else:
            raise RootFindingError("per-step optimum bisection did not converge",
                                   lo_u, hi_u, max_iter)
    u_opt = min(max(u_opt, u_lo), u_hi)
    theta_star = _min_norm_on_line_in_box(s, u_opt, theta_lo, theta_hi)
    return PerStepOptimum(j_star=e_opt ** 2, u_star=u_opt, theta_star=theta_star)


def ct_diagnostic(model: PlantModel, x, u: float, i_star: int, gamma_i: float,
                  delta: float = 1e-5) -> float:
    """Central-difference estimate of 2 * gamma_i * dh_{i*}/du at (x, u)."""
    hp = model.output(x, u + delta, i_star - 1)
    hm = model.output(x, u - delta, i_star - 1)
    return 2.0 * gamma_i * (hp - hm) / (2.0 * delta)


def replay_open_loop(model: PlantModel, spec: ConstraintSpec, x0,
                     u_seq: Sequence[float], *,
                     guard: float = DEFAULT_GUARD) -> Trajectory:
    """Apply a recorded input sequence open-loop; the active index of each
    step is the argmin of its errors."""
    u_list = np.asarray(u_seq, dtype=float).tolist()
    return simulate(model, spec, len(u_list) - 1, x0, lambda t, x: u_list[t],
                    lambda t, e: active_index(e), guard=guard)


def phases(traj: Trajectory) -> list[int]:
    """Active-index sequence with consecutive duplicates collapsed."""
    starts = np.flatnonzero(np.diff(traj.i_star)) + 1
    return traj.i_star[np.r_[0, starts]].tolist()
