"""Model-based ideal bang-ride protocol.

For a known model and full state, the riding current of constraint i solves
h_i(x, u) = y_bar_i; monotonicity in u makes the solution unique. A model
that knows these roots in closed form returns them all at once from
``PlantModel.riding_currents``; every other constraint is solved by plain
bisection on u >= 0 (charging only), which is exact to tolerance and needs
no derivatives. A constraint with no solution inside the bracket contributes
+inf, and the ideal input is the minimum over all feedback values, which is
always finite because constraint 1 pins u_max.

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


@dataclass
class RootConfig:
    """Bracket and tolerances for the riding-current solves.

    ``tol_u`` bounds the width of the final bisection bracket, which closes
    on the largest current whose *computed* output does not exceed the
    bound. Where the output is flat within rounding around the root, that
    current can sit above the exact root by more than ``tol_u``.
    """

    u_hi: float            # bracket upper bound [A]; at least u_max
    tol_u: float = 1e-9    # absolute tolerance on the current [A]
    tol_y: float = 1e-6    # absolute residual tolerance in output units
    max_iter: int = 200

    def __post_init__(self):
        if self.tol_u <= 0.0 or self.tol_y <= 0.0:
            raise ConfigurationError("tolerances must be > 0")
        if self.u_hi <= 0.0:
            raise ConfigurationError("u_hi must be > 0")
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be >= 1")

    @classmethod
    def for_bound(cls, u_max: float, **kwargs) -> "RootConfig":
        return cls(u_hi=2.0 * u_max, **kwargs)


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
                     cfg: RootConfig) -> FeedbackValue:
    """Riding current of 1-based constraint i at state x, by bisection on
    [0, cfg.u_hi].

    Returns +inf when h_i(x, u_hi) < y_bar_i (bound unreachable), and 0
    when h_i(x, 0) > y_bar_i (violated already at zero current).
    A residual of exactly 0 counts as below the bound, so the result lies
    within ``cfg.tol_u`` of the largest current whose computed output does
    not exceed y_bar_i. Where h_i is flat within rounding around the root,
    that current can exceed the exact root by more than ``cfg.tol_u``.
    """
    idx = i - 1
    hi = cfg.u_hi
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
    for k in range(1, cfg.max_iter + 1):
        mid = 0.5 * (lo + hi)
        res = model.output(x, mid, idx) - y_bar_i
        if res > 0.0:
            hi = mid
        else:
            lo = mid
        if (hi - lo) <= cfg.tol_u and abs(res) <= cfg.tol_y:
            return FeedbackValue(value=mid, iterations=k)
    raise RootFindingError(f"constraint {i}: bisection did not converge", lo, hi,
                           cfg.max_iter)


@dataclass
class SelectorResult:
    """Ideal input at one state: the minimum feedback value and its constraint."""

    u: float
    i_star: int            # 1-based constraint that attained the minimum


def selector(model: PlantModel, x, spec: ConstraintSpec,
             cfg: RootConfig) -> SelectorResult:
    """Minimum over the per-constraint riding currents (ties: lowest index).

    Constraint 1 contributes u_max exactly. Riding currents come from
    ``model.riding_currents`` where the model provides them: a root at or
    above u_max cannot attain the minimum, and a negative root is pinned to
    0. The remaining constraints are bisected in index order, skipping those
    already satisfied at the current best candidate: by monotonicity their
    riding currents can only be larger.
    """
    if model.output_count != spec.p:
        raise ConfigurationError(
            f"model provides {model.output_count} outputs but spec has {spec.p} bounds")
    if cfg.u_hi < spec.u_max:
        raise ConfigurationError("RootConfig.u_hi must cover u_max")

    u_star = spec.u_max
    i_star = 1
    roots = model.riding_currents(x, spec.y_bar)
    if roots is None:
        pending = range(2, spec.p + 1)
    else:
        values = np.maximum(roots, 0.0)
        values[0] = u_star
        k = int(values.argmin())
        pending = []
        if math.isnan(values[k]):  # argmin stops at the first NaN
            nan = np.isnan(values)
            pending = (np.flatnonzero(nan) + 1).tolist()
            values[nan] = np.inf
            k = int(values.argmin())
        if values[k] < u_star:
            u_star, i_star = float(values[k]), k + 1
    if pending:
        u_checked = u_star
        y_at_candidate = np.asarray(model.outputs(x, u_star), dtype=float)
    for i in pending:
        if u_star == 0.0 and i > i_star:
            break
        y_bar_i = float(spec.y_bar[i - 1])
        if y_at_candidate[i - 1] <= y_bar_i:
            continue  # riding current at or above the checked candidate
        if u_star < u_checked:
            # candidate moved; re-check against the tighter current best
            if model.output(x, u_star, i - 1) <= y_bar_i:
                continue
        if u_star == 0.0:
            value = 0.0  # violated at zero like a closed-form candidate of higher index
        else:
            sub_cfg = RootConfig(u_hi=u_star, tol_u=cfg.tol_u, tol_y=cfg.tol_y,
                                 max_iter=cfg.max_iter)
            value = solve_constraint(model, x, i, y_bar_i, sub_cfg).value
        if value < u_star or (value == u_star and i < i_star):
            u_star, i_star = value, i
    return SelectorResult(u=u_star, i_star=i_star)


def oracle_trajectory(model: PlantModel, spec: ConstraintSpec, t_f: int, x0,
                      cfg: RootConfig, *, guard: float = DEFAULT_GUARD) -> Trajectory:
    """Closed-loop run of the ideal bang-ride law u_t = min_i K_i(x_t).

    Records which constraint attained the minimum at every step; the
    gain/step-size columns are absent (model-based law, nothing learned).
    """
    i_star = 1

    def control(t: int, x) -> float:
        nonlocal i_star
        res = selector(model, x, spec, cfg)
        i_star = res.i_star
        return res.u

    return simulate(model, spec, t_f, x0, control, lambda t, e: i_star, guard=guard)


def oracle_batch(model, spec: ConstraintSpec, t_f: int, x0: np.ndarray,
                 cfg: RootConfig, *, guard: float = DEFAULT_GUARD) -> BatchRun:
    """``oracle_trajectory`` for every member of a batched model at once.

    ``model`` is batched as in ``plant.simulate_batch``, with a row-wise
    ``riding_currents`` and its scalar ``cells``. Per step every member takes
    the minimum of its riding currents clamped at 0, ties going to the lower
    index and u_max to constraint 1, as ``selector`` does. A member with a NaN
    riding current, which ``selector`` would bisect, runs ``selector`` on its
    own cell; if that raises ``RootFindingError``, its input is NaN and the
    member fails the guard.
    """
    if cfg.u_hi < spec.u_max:
        raise ConfigurationError("RootConfig.u_hi must cover u_max")

    def control(t: int, model, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        values = np.maximum(model.riding_currents(x, spec.y_bar), 0.0)
        values[:, 0] = spec.u_max
        u = values[np.arange(len(x)), values.argmin(axis=1)]
        # argmin picks a row's first NaN: u is NaN where selector would bisect
        for j in np.flatnonzero(np.isnan(u)):
            try:
                u[j] = selector(model.cells[j], x[j], spec, cfg).u
            except RootFindingError:
                pass  # the NaN input fails the guard
        return u

    return simulate_batch(model, t_f, x0, control, guard=guard)
