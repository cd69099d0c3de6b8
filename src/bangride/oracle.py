"""Model-based ideal bang-ride protocol.

For a known model and full state, the riding current of constraint i solves
h_i(x, u) = y_bar_i; monotonicity in u makes the solution unique. The oracle
reads the plant through ``PlantModel.riding_currents`` alone, which gives all
p roots at once. For a model without closed forms, ``bisected_roots`` supplies
them by plain bisection on [0, u_max] (charging only), which is exact to
tolerance and needs no derivatives. The ideal input is the minimum over the
roots clamped at 0, which is always finite because constraint 1 pins u_max.
The solve tolerances are the class constants of ``RootConfig``.

Stateless given (model, x); runs over distinct scenarios may execute in
parallel, successive time steps may not (the state evolves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controller import ConstraintSpec
from .errors import ConfigurationError, RootFindingError
from .plant import (DEFAULT_GUARD, BatchRun, PlantModel, Trajectory, simulate,
                    simulate_batch)


class RootConfig:
    """Tolerances for the riding-current solves, as class constants.

    ``RootConfig.tol_u`` bounds the width of the final bisection bracket,
    which closes on the largest current whose *computed* output does not
    exceed the bound. Where the output is flat within rounding around the
    root, that current can sit above the exact root by more than
    ``RootConfig.tol_u``.
    """

    tol_u = 1e-9    # absolute tolerance on the current [A]
    tol_y = 1e-6    # absolute residual tolerance in output units
    max_iter = 200


@dataclass
class FeedbackValue:
    """Riding current for one constraint: +inf when the constraint cannot be
    reached inside the bracket, 0 when it is already violated at zero
    current, and otherwise a root with |h_i(x, value) - y_bar_i| <= tol_y.
    ``iterations`` counts the bisection halvings.
    """

    value: float
    iterations: int = 0


def solve_constraint(model: PlantModel, x, i: int, y_bar_i: float,
                     u_hi: float) -> FeedbackValue:
    """Riding current of 1-based constraint i at state x, by bisection on
    [0, u_hi].

    Returns +inf when h_i(x, u_hi) < y_bar_i (bound unreachable), and 0
    when h_i(x, 0) > y_bar_i (violated already at zero current).
    A residual of exactly 0 counts as below the bound, so the result lies
    within ``RootConfig.tol_u`` of the largest current whose computed output
    does not exceed y_bar_i. Where h_i is flat within rounding around the
    root, that current can exceed the exact root by more than
    ``RootConfig.tol_u``.
    """
    idx = i - 1
    hi = u_hi
    f_hi = model.output(x, hi, idx)
    if not math.isfinite(f_hi):
        raise RootFindingError(f"constraint {i}: non-finite output at bracket top",
                               0.0, hi, 0)
    if f_hi < y_bar_i:
        return FeedbackValue(value=math.inf)
    lo = 0.0
    if model.output(x, lo, idx) > y_bar_i:
        return FeedbackValue(value=0.0)

    # halve until the bracket meets tol_u and the residual meets tol_y (the
    # FeedbackValue contract); monotonicity keeps the root bracketed throughout
    for k in range(1, RootConfig.max_iter + 1):
        mid = 0.5 * (lo + hi)
        res = model.output(x, mid, idx) - y_bar_i
        if res > 0.0:
            hi = mid
        else:
            lo = mid
        if (hi - lo) <= RootConfig.tol_u and abs(res) <= RootConfig.tol_y:
            return FeedbackValue(value=mid, iterations=k)
    raise RootFindingError(f"constraint {i}: bisection did not converge", lo, hi,
                           RootConfig.max_iter)


def bisected_roots(model: PlantModel, x, spec: ConstraintSpec) -> np.ndarray:
    """Riding currents of all p constraints by bisection on [0, u_max], in the
    form of ``PlantModel.riding_currents``: u_max for constraint 1, and +inf
    for a constraint met at u_max, which then cannot attain the minimum.
    """
    u_max = spec.u_max
    y = model.outputs(x, u_max)
    roots = [u_max]
    for i in range(2, spec.p + 1):
        y_bar_i = float(spec.y_bar[i - 1])
        roots.append(math.inf if y[i - 1] <= y_bar_i else
                     solve_constraint(model, x, i, y_bar_i, u_max).value)
    return np.array(roots)


@dataclass
class SelectorResult:
    """Ideal input at one state: the minimum feedback value and its constraint."""

    u: float
    i_star: int            # 1-based constraint that attained the minimum


def selector(model: PlantModel, x, spec: ConstraintSpec) -> SelectorResult:
    """Minimum over the per-constraint riding currents (ties: lowest index).

    The riding currents come from ``model.riding_currents``, or from
    ``bisected_roots`` for a model without them. A negative root is pinned
    to 0, and constraint 1 contributes u_max exactly.
    """
    if model.output_count != spec.p:
        raise ConfigurationError(
            f"model provides {model.output_count} outputs but spec has {spec.p} bounds")
    roots = model.riding_currents(x, spec.y_bar)
    if roots is None:
        roots = bisected_roots(model, x, spec)
    values = np.maximum(roots, 0.0)
    values[0] = spec.u_max
    k = int(values.argmin())
    return SelectorResult(u=float(values[k]), i_star=k + 1)


def oracle_trajectory(model: PlantModel, spec: ConstraintSpec, t_f: int, x0, *,
                      guard: float = DEFAULT_GUARD) -> Trajectory:
    """Closed-loop run of the ideal bang-ride law u_t = min_i K_i(x_t).

    Records which constraint attained the minimum at every step; the
    gain/step-size columns are absent (model-based law, nothing learned).
    """
    i_star = 1

    def control(t: int, x) -> float:
        nonlocal i_star
        res = selector(model, x, spec)
        i_star = res.i_star
        return res.u

    return simulate(model, spec, t_f, x0, control, lambda t, e: i_star, guard=guard)


def oracle_batch(model, spec: ConstraintSpec, t_f: int, x0: np.ndarray, *,
                 guard: float = DEFAULT_GUARD) -> BatchRun:
    """``oracle_trajectory`` for every member of a batched model at once.

    ``model`` is batched as in ``plant.simulate_batch``, with a row-wise
    ``riding_currents``. Per step every member takes the minimum of its
    riding currents clamped at 0, ties going to the lower index and u_max to
    constraint 1, as ``selector`` does. A NaN root, which only a broken hook
    returns, gives a NaN input, and that member fails the guard at the step.
    """

    def control(t: int, model, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        values = np.maximum(model.riding_currents(x, spec.y_bar), 0.0)
        values[:, 0] = spec.u_max
        return values[np.arange(len(x)), values.argmin(axis=1)]

    return simulate_batch(model, t_f, x0, control, guard=guard)
