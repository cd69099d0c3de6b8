"""Model-based ideal bang-ride protocol.

For a known model and full state, the riding current of constraint i solves
h_i(x, u) = y_bar_i; monotonicity in u makes the solution unique. The oracle
reads the plant through ``PlantModel.riding_currents`` alone, which gives all
p roots at once, in closed form or by Newton steps. The ideal input is the
minimum over the roots clamped at 0, which is always finite because
constraint 1 pins u_max (``_minimum``, per step in ``oracle_trajectory`` and
per batch row in ``selector_rows``). The bisection that every hook is
checked against lives in ``tests/references.py``, beside a one-state
selection for the tests. Like ``controller.run_closed_loop``, the law runs
through ``plant.simulate``.

Stateless given (model, x); runs over distinct scenarios may execute in
parallel, successive time steps may not (the state evolves).
"""

from __future__ import annotations

import numpy as np

from .plant import ConstraintSpec, PlantModel, Trajectory, simulate


def _minimum(roots, u_max: float) -> tuple[float, int]:
    """The ideal input and its 1-based constraint from a state's riding
    currents: their minimum, with u_max for constraint 1 and a negative root
    pinned to 0 (ties: lowest index). A vector plant's list of roots is
    selected on floats, the pack's 202 by numpy, where a float loop is slower;
    both as numpy: -0.0 gives +0.0, and the first NaN root is the minimum."""
    if isinstance(roots, list):
        u, k = u_max, 1
        for i, v in enumerate(roots[1:], 2):
            v = 0.0 if v <= 0.0 else v  # NaN passes
            if not v >= u:              # below the minimum so far, or NaN
                u, k = v, i
                if v != v:
                    break
        return u, k
    values = np.maximum(roots, 0.0)
    values[0] = u_max
    k = int(values.argmin())
    return values.item(k), k + 1


def selector_rows(model, x: np.ndarray,
                  spec: ConstraintSpec) -> tuple[np.ndarray, np.ndarray]:
    """``_minimum`` of every member of a batched model (``plant.simulate_batch``)
    at once, through its row-wise ``riding_currents``: each row's input and
    0-based constraint.

    A NaN root gives a NaN input: a broken hook returns one, and so does a
    member that is out of ``simulate_batch``, whose state row is NaN.
    """
    values = np.maximum(model.riding_currents(x, spec.y_bar), 0.0)
    values[:, 0] = spec.u_max
    k = values.argmin(axis=1)
    return values[np.arange(len(x)), k], k


def oracle_trajectory(model: PlantModel, spec: ConstraintSpec, t_f: int, x0) -> Trajectory:
    """Closed-loop run of the ideal bang-ride law u_t = min_i K_i(x_t).

    Records which constraint attained the minimum at every step and weighs
    no errors on the way; the gain/step-size columns are absent (model-based
    law, nothing learned).
    """
    # simulate checks the sizes once per run, so each step only selects
    y_bar, u_max, riding = spec.y_bar, spec.u_max, model.riding_currents
    i_star = 1

    def control(t: int, x) -> float:
        nonlocal i_star
        u, i_star = _minimum(riding(x, y_bar), u_max)
        return u

    return simulate(model, spec, t_f, x0, control, lambda t, y: i_star)
