"""Model-based ideal bang-ride protocol.

For a known model and full state, the riding current of constraint i solves
h_i(x, u) = y_bar_i; monotonicity in u makes the solution unique. The oracle
reads the plant through ``PlantModel.riding_currents`` alone, which gives all
p roots at once. For a model without closed forms, ``bisected_roots`` supplies
them by plain bisection on [0, u_max] (charging only), which is exact to
tolerance and needs no derivatives. It reads the bracket ends off the
plant's ``advance`` and the halvings off its ``output_rows``;
``bisect_rows``, the package's one bisection kernel, halves them together,
and the per-step optima of ``analysis`` share it. The ideal input is the
minimum over the roots clamped at 0, which is always finite because
constraint 1 pins u_max. The solve tolerances are the class constants of
``RootConfig``.

Stateless given (model, x); runs over distinct scenarios may execute in
parallel, successive time steps may not (the state evolves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .controller import ConstraintSpec
from .errors import ConfigurationError, RootFindingError
from .plant import DEFAULT_GUARD, PlantModel, Trajectory, simulate


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


def bisect_rows(residual: Callable[[np.ndarray, np.ndarray], np.ndarray],
                lo: np.ndarray, hi: np.ndarray, tol_r: np.ndarray,
                label: Callable[[int], str]) -> tuple[np.ndarray, np.ndarray]:
    """Bisection of n brackets [lo, hi] at once, on residuals increasing in u.

    ``residual(rows, u)`` gives the residuals of the rows numbered ``rows``
    at the currents u. Each row halves until its bracket is within
    ``RootConfig.tol_u`` and its |residual| within its ``tol_r``; a positive
    residual moves the top, a zero one the bottom. Returns each row's last
    midpoint and residual; a row open after ``RootConfig.max_iter`` halvings
    raises ``RootFindingError`` with the message ``label(row)``.
    """
    u, r, rows = np.empty(len(lo)), np.empty(len(lo)), np.arange(len(lo))
    for _ in range(RootConfig.max_iter):
        if not len(rows):
            break
        mid = 0.5 * (lo + hi)
        res = residual(rows, mid)
        above = res > 0.0
        hi, lo = np.where(above, mid, hi), np.where(above, lo, mid)
        done = ((hi - lo) <= RootConfig.tol_u) & (np.abs(res) <= tol_r)
        u[rows[done]], r[rows[done]] = mid[done], res[done]
        rows, lo, hi, tol_r = (v[~done] for v in (rows, lo, hi, tol_r))
    if len(rows):
        raise RootFindingError(label(int(rows[0])), float(lo[0]), float(hi[0]),
                               RootConfig.max_iter)
    return u, r


def bisected_roots(model: PlantModel, x, spec: ConstraintSpec) -> np.ndarray:
    """Riding currents of all p constraints by bisection on [0, u_max], in the
    form of ``PlantModel.riding_currents``: u_max for constraint 1, and +inf
    for a constraint met at u_max, which then cannot attain the minimum.
    The bracket checks run per constraint, the top and the bottom read off
    one ``advance(x, u_max)`` and one ``advance(x, 0.0)`` call, then the
    constraints left halve together, one ``output_rows`` call per halving;
    each root equals the scalar ``solve_constraint`` of
    ``tests/references.py`` bit for bit.
    """
    u_max = spec.u_max
    y_hi, y_lo = model.advance(x, u_max)[0], model.advance(x, 0.0)[0]
    roots = np.array([u_max] + [math.inf] * (spec.p - 1))
    pending = []
    for idx in range(1, spec.p):
        y_bar_i, f_hi = float(spec.y_bar[idx]), float(y_hi[idx])
        if f_hi <= y_bar_i:
            continue
        if not math.isfinite(f_hi):
            raise RootFindingError(f"constraint {idx + 1}: non-finite output at "
                                   "bracket top", 0.0, u_max, 0)
        if y_lo[idx] > y_bar_i:
            roots[idx] = 0.0
        else:
            pending.append(idx)
    if pending:
        index, n = np.array(pending), len(pending)
        states, y_bar = np.broadcast_to(x, (n,) + np.shape(x)), spec.y_bar[index]
        roots[index] = bisect_rows(
            lambda k, u: model.output_rows(states[k], u, index[k]) - y_bar[k],
            np.zeros(n), np.full(n, u_max), np.full(n, RootConfig.tol_y),
            lambda k: f"constraint {pending[k] + 1}: bisection did not converge")[0]
    return roots


@dataclass
class SelectorResult:
    """Ideal input at one state: the minimum feedback value and its constraint."""

    u: float
    i_star: int            # 1-based constraint that attained the minimum


def selector(model: PlantModel, x, spec: ConstraintSpec) -> SelectorResult:
    """Minimum over the per-constraint riding currents (ties: lowest index).

    The riding currents come from ``model.riding_currents``, or from
    ``bisected_roots`` for a model without them. A negative root is pinned
    to 0, and constraint 1 contributes u_max exactly. A list of roots (a
    vector plant's, or the bisected ones) is selected on floats, the pack's
    202 by numpy: -0.0 gives +0.0, and the first NaN root is the minimum.
    """
    if model.output_count != spec.p:
        raise ConfigurationError(
            f"model provides {model.output_count} outputs but spec has {spec.p} bounds")
    roots = model.riding_currents(x, spec.y_bar)
    if roots is None:
        roots = bisected_roots(model, x, spec).tolist()
    if isinstance(roots, list):
        u, k = spec.u_max, 0
        for i, v in enumerate(roots[1:], 1):
            v = 0.0 if v <= 0.0 else v  # NaN passes
            if not v >= u:              # below the minimum so far, or NaN
                u, k = v, i
                if v != v:
                    break
        return SelectorResult(u=u, i_star=k + 1)
    values = np.maximum(roots, 0.0)
    values[0] = spec.u_max
    k = int(values.argmin())
    return SelectorResult(u=float(values[k]), i_star=k + 1)


def selector_rows(model, x: np.ndarray,
                  spec: ConstraintSpec) -> tuple[np.ndarray, np.ndarray]:
    """``selector`` of every member of a batched model at once, through its
    row-wise ``riding_currents``: each row's input and 0-based constraint.

    A NaN root gives a NaN input: a broken hook returns one, and so does a
    member that is out of ``simulate_batch``, whose state row is NaN.
    """
    values = np.maximum(model.riding_currents(x, spec.y_bar), 0.0)
    values[:, 0] = spec.u_max
    k = values.argmin(axis=1)
    return values[np.arange(len(x)), k], k


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
