"""One-step and one-run scalar references that the package's batched and
float paths equal bit for bit, the bisection that every plant's riding
currents are checked against, and ``phases``. No command runs them:
``bisected_roots`` gives all riding currents of a plant by bisection, and
``solve_constraint`` is one of its roots on its own;
``per_step_optimal_cost`` is a row of ``analysis.attach_per_step_optima``,
its ``min_norm_on_line_in_box`` a row of ``analysis._min_norm_rows``,
``ct_diagnostic`` an entry of ``analysis.ct_series``, ``reference_simulate``
the loop of ``plant.simulate`` with one numpy write per value per step,
``replay_open_loop`` a true copy's run in ``analysis.robustness_study``, and
``ReferenceController`` stepped by ``reference_closed_loop`` is the float
controller of ``controller.run_closed_loop``.
The ``*_step`` functions are each packaged plant's next state as a separate
computation, which the next state of its ``advance`` equals; the
``*_outputs`` functions are the outputs of the ECM ensemble's and the pack's
``advance``, likewise. ``AllPairsPack`` is the pack with its spread output
replaced by one output per ordered pair of cells, the layout whose selection
the equivalence tests hold the spread's to. ``output`` reads one output off
``advance``, the plant's one output path, for the scalar references and the
model tests, and ``loop_output_rows`` is the row form of ``output`` that
every plant's ``output_rows`` equals, for the test plants that have none.
The reference loops step under ``plant.GUARD`` as the package's do, so one
patch of it (``conftest.guard``) sets the guard of both.
``selector`` is the oracle's selection at one state, ``oracle._minimum``
behind a size check, and ``selector_oracle`` is ``oracle.oracle_trajectory``
stepped through it. ``plain_trajectory_csv`` and ``plain_gap_csv`` are the
CSV writers cell by cell, and ``plain_x_template`` a polyline's x part as
each chart built it before the charts shared it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from bangride import plant, svg
from bangride.analysis import _box_corners
from bangride.controller import ControllerState, project_box, step_size
from bangride.csvio import trajectory_header
from bangride.errors import ConfigurationError, RootFindingError, SimulationDiverged
from bangride.models import EcmPlant, PackParams, PackPlant, SpmetPlant, ToyLinearPlant
from bangride.models.ecm import EcmEnsemble
from bangride.models.spmet import KELVIN_OFFSET, REFERENCE_T_K
from bangride.oracle import _minimum
from bangride.plant import (ConstraintSpec, PlantModel, RootConfig, Trajectory, _diverged,
                            _extreme, check_run, simulate)

MAX_ITER = 200    # halvings before a bisection gives up


class BisectionError(RootFindingError):
    """A bisection that could not start or did not converge: carries its
    bracket and the halvings spent on it (0 for a root that was read)."""

    def __init__(self, message: str, lo: float, hi: float, iterations: int):
        self.lo, self.hi, self.iterations = lo, hi, iterations
        super().__init__(f"{message} (bracket [{lo!r}, {hi!r}] after {iterations} iterations)")


def output(model: PlantModel, x, u: float, i: int) -> float:
    """Output i (0-based) of ``model`` at state x and input u, read off
    ``advance``."""
    return float(model.advance(x, u)[0][i])


def loop_output_rows(model: PlantModel, states: np.ndarray, u: np.ndarray,
                     index: np.ndarray) -> np.ndarray:
    """``output_rows`` as one ``advance`` call per row: entry k is
    ``advance(states[k], u[k])[0][index[k]]``, which a plant's own
    ``output_rows`` must equal bit for bit. A class body may bind it as the
    method of a plant that has none."""
    return np.array([model.advance(x, u_k)[0][i] for x, u_k, i
                     in zip(states, u.tolist(), index.tolist())], dtype=float)


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
    f_hi = output(model, x, hi, idx)
    if not math.isfinite(f_hi):
        raise BisectionError(f"constraint {i}: non-finite output at bracket top",
                             0.0, hi, 0)
    if f_hi < y_bar_i:
        return FeedbackValue(value=math.inf)
    lo = 0.0
    if output(model, x, lo, idx) > y_bar_i:
        return FeedbackValue(value=0.0)

    # halve until the bracket meets tol_u and the residual meets tol_y (the
    # FeedbackValue contract); monotonicity keeps the root bracketed throughout
    for k in range(1, MAX_ITER + 1):
        mid = 0.5 * (lo + hi)
        res = output(model, x, mid, idx) - y_bar_i
        if res > 0.0:
            hi = mid
        else:
            lo = mid
        if (hi - lo) <= RootConfig.tol_u and abs(res) <= RootConfig.tol_y:
            return FeedbackValue(value=mid, iterations=k)
    raise BisectionError(f"constraint {i}: bisection did not converge", lo, hi,
                         MAX_ITER)


def bisect_rows(residual: Callable[[np.ndarray, np.ndarray], np.ndarray],
                lo: np.ndarray, hi: np.ndarray, tol_r: np.ndarray,
                label: Callable[[int], str]) -> tuple[np.ndarray, np.ndarray]:
    """Bisection of n brackets [lo, hi] at once, on residuals increasing in u.

    ``residual(rows, u)`` gives the residuals of the rows numbered ``rows``
    at the currents u. Each row halves until its bracket is within
    ``RootConfig.tol_u`` and its |residual| within its ``tol_r``; a positive
    residual moves the top, a zero one the bottom. Returns each row's last
    midpoint and residual; a row open after ``MAX_ITER`` halvings raises
    ``BisectionError`` with the message ``label(row)``.
    """
    u, r, rows = np.empty(len(lo)), np.empty(len(lo)), np.arange(len(lo))
    for _ in range(MAX_ITER):
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
        raise BisectionError(label(int(rows[0])), float(lo[0]), float(hi[0]), MAX_ITER)
    return u, r


def bisected_roots(model: PlantModel, x, y_bar) -> np.ndarray:
    """Riding currents of all p constraints by bisection on [0, u_max], in the
    form of ``PlantModel.riding_currents``: u_max = y_bar[0] for constraint 1,
    and +inf for a constraint met at u_max, which then cannot attain the
    minimum. The bracket checks run per constraint, the top and the bottom
    read off one ``advance(x, u_max)`` and one ``advance(x, 0.0)`` call, then
    the constraints left halve together, one ``output_rows`` call per
    halving; each root equals ``solve_constraint``'s bit for bit.
    """
    y_bar = np.asarray(y_bar, dtype=float)
    u_max = float(y_bar[0])
    y_hi, y_lo = model.advance(x, u_max)[0], model.advance(x, 0.0)[0]
    roots = np.array([u_max] + [math.inf] * (len(y_bar) - 1))
    pending = []
    for idx in range(1, len(y_bar)):
        y_bar_i, f_hi = float(y_bar[idx]), float(y_hi[idx])
        if f_hi <= y_bar_i:
            continue
        if not math.isfinite(f_hi):
            raise BisectionError(f"constraint {idx + 1}: non-finite output at "
                                 "bracket top", 0.0, u_max, 0)
        if y_lo[idx] > y_bar_i:
            roots[idx] = 0.0
        else:
            pending.append(idx)
    if pending:
        index, n = np.array(pending), len(pending)
        states, bound = np.broadcast_to(x, (n,) + np.shape(x)), y_bar[index]
        roots[index] = bisect_rows(
            lambda k, u: model.output_rows(states[k], u, index[k]) - bound[k],
            np.zeros(n), np.full(n, u_max), np.full(n, RootConfig.tol_y),
            lambda k: f"constraint {pending[k] + 1}: bisection did not converge")[0]
    return roots


def per_constraint_roots(model: PlantModel, x, spec: ConstraintSpec) -> np.ndarray:
    """``bisected_roots`` with one ``solve_constraint`` per constraint not
    met at u_max, each bisecting on its own."""
    u_max = spec.u_max
    roots = [u_max]
    for i in range(2, spec.p + 1):
        y_bar_i = float(spec.y_bar[i - 1])
        roots.append(math.inf if output(model, x, u_max, i - 1) <= y_bar_i else
                     solve_constraint(model, x, i, y_bar_i, u_max).value)
    return np.array(roots)


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


@dataclass
class ReferenceController(ControllerState):
    """``ControllerState`` with the numpy PI law and projected-gradient step,
    and the compressed run history they read and extend."""

    error_sum: float = 0.0
    last_error: float = 0.0
    t: int = 0

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

        Rescaled to norm <= grad_clip when a clip bound is set. An infinite
        error or history gives NaN entries without a warning, as the float
        loop's does; the next ``control()`` raises on the NaN gains.
        """
        with np.errstate(invalid="ignore"):
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


def reference_closed_loop(model: PlantModel, controller: ReferenceController,
                          spec: ConstraintSpec, t_f: int, x0) -> Trajectory:
    """``controller.run_closed_loop`` with the numpy controller: per step
    ``control``, then ``gradient`` and ``update`` on the active error."""
    thetas: list[np.ndarray] = []
    alphas: list[float] = []

    def control(t: int, x) -> float:
        thetas.append(controller.theta.copy())
        alphas.append(step_size(t, controller.mu1))
        return controller.control()

    def observe(t: int, y) -> int:
        e = constraint_errors(spec, y)
        i_star = active_index(e)
        e_active = float(e[i_star - 1])
        controller.update(controller.gradient(e_active), alphas[t], e_active)
        return i_star

    traj = simulate(model, spec, t_f, x0, control, observe)
    return replace(traj, theta=np.array(thetas), alpha=np.array(alphas))


def min_norm_on_line_in_box(s: np.ndarray, c: float, lo: np.ndarray,
                            hi: np.ndarray) -> np.ndarray:
    """Minimum-norm point of {theta in box : theta . s = c}.

    The minimizer set of an affine-in-theta one-step problem is a segment;
    picking the minimum-norm point makes theta* deterministic.
    """
    s_sq = float(s @ s)
    base = (c / s_sq) * s                      # closest point of the line to 0
    d = np.array([-s[1], s[0]]) / math.sqrt(s_sq)   # line direction
    t_min, t_max = -math.inf, math.inf
    eps = 1e-9 * (1.0 + float(np.max(np.abs(hi))) + abs(c))
    for j in range(2):
        if abs(d[j]) < 1e-15:
            if not (lo[j] - eps <= base[j] <= hi[j] + eps):
                t_min, t_max = math.inf, -math.inf
                break
            continue
        a = (lo[j] - eps - base[j]) / d[j]
        b = (hi[j] + eps - base[j]) / d[j]
        t_min = max(t_min, min(a, b))
        t_max = min(t_max, max(a, b))
    if t_min > t_max:
        # numerical corner touch: fall back to the box point closest to the line
        corners = _box_corners(lo, hi)
        gaps = np.abs(corners @ s - c)
        best = corners[gaps <= gaps.min() + 1e-12]
        theta = best[np.argmin(np.linalg.norm(best, axis=1))]
        return project_box(theta, lo, hi)
    t_star = min(max(0.0, t_min), t_max)
    return project_box(base + t_star * d, lo, hi)


@dataclass
class PerStepOptimum:
    """Minimizer of the one-step squared active error over the gain box."""

    j_star: float
    u_star: float
    theta_star: np.ndarray


def per_step_optimal_cost(model: PlantModel, x, spec: ConstraintSpec,
                          last_error: float, error_sum: float,
                          theta_lo: np.ndarray, theta_hi: np.ndarray,
                          i_star: int, *, tol_u: float = RootConfig.tol_u,
                          tol_y: float = RootConfig.tol_y) -> PerStepOptimum:
    """Best achievable one-step cost at a recorded step.

    The PI law makes u affine in theta given the frozen history statistics,
    so the box maps onto a current interval (corner evaluation). On that
    interval the weighted error of the realized active constraint is
    decreasing in u; the minimizing current is the constraint's riding
    current (``riding_currents``), clamped to the interval, where the error
    changes sign on it, and the nearest interval endpoint otherwise.

    A riding current that is NaN or lies more than tol_u outside the
    interval raises ``RootFindingError``. Bisection on the interval, to tol_u
    and a residual of gamma_i*tol_y, is the independent check of the
    plant's root: the two must lie within 2*tol_u of each other.
    """
    theta_lo = np.asarray(theta_lo, dtype=float)
    theta_hi = np.asarray(theta_hi, dtype=float)
    s = np.array([float(last_error), float(error_sum)])
    gamma_i = float(spec.gamma[i_star - 1])
    y_bar_i = float(spec.y_bar[i_star - 1])

    def err(u: float) -> float:
        return gamma_i * (y_bar_i - output(model, x, u, i_star - 1))

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
        root = float(model.riding_currents(x, spec.y_bar)[i_star - 1])
        if not u_lo - tol_u <= root <= u_hi + tol_u:
            raise RootFindingError(f"riding current {root!r} of constraint {i_star} "
                                   f"outside its current interval [{u_lo!r}, {u_hi!r}]")
        u_opt = min(max(root, u_lo), u_hi)
        e_opt = err(u_opt)
        lo_u, hi_u, tol_e = u_lo, u_hi, gamma_i * tol_y
        for _ in range(MAX_ITER):
            mid = 0.5 * (lo_u + hi_u)
            e_mid = err(mid)
            if e_mid < 0.0:
                hi_u = mid
            else:
                lo_u = mid
            if (hi_u - lo_u) <= tol_u and abs(e_mid) <= tol_e:
                break
        else:
            raise BisectionError("per-step optimum bisection did not converge",
                                 lo_u, hi_u, MAX_ITER)
        assert abs(u_opt - mid) <= 2.0 * tol_u, (u_opt, mid)
    theta_star = min_norm_on_line_in_box(s, u_opt, theta_lo, theta_hi)
    return PerStepOptimum(j_star=e_opt ** 2, u_star=u_opt, theta_star=theta_star)


def ct_diagnostic(model: PlantModel, x, u: float, i_star: int, gamma_i: float,
                  delta: float = 1e-5) -> float:
    """Central-difference estimate of 2 * gamma_i * dh_{i*}/du at (x, u)."""
    hp = output(model, x, u + delta, i_star - 1)
    hm = output(model, x, u - delta, i_star - 1)
    return 2.0 * gamma_i * (hp - hm) / (2.0 * delta)


@np.errstate(all="ignore")
def reference_simulate(model: PlantModel, spec: ConstraintSpec, t_f: int, x0,
                       control: Callable[[int, object], float],
                       observe: Callable[[int, object], int]) -> Trajectory:
    """``plant.simulate`` writing every value into its numpy column at its
    step: the same loop, guard tests and checks, with no per-step lists."""
    check_run(model, spec, t_f)
    n = t_f + 1
    u_col, y_col, i_col = np.empty(n), np.empty((n, spec.p)), np.empty(n, dtype=int)
    states = np.empty((n,) + np.shape(x0))
    guard = plant.GUARD
    low = -guard
    if states.ndim == 2:
        x = np.asarray(x0, dtype=float).tolist()

        def passes(values) -> bool:
            for v in values:
                if not low <= v <= guard:
                    return False
            return True
    else:
        x = x0

        def passes(values) -> bool:
            return _extreme(abs(values)) <= guard

    try:
        for t in range(n):
            states[t] = x
            u = control(t, x)
            if not low <= u <= guard:
                raise _diverged(u, "input current", t, guard)
            y, x = model.advance(x, u)
            if not passes(y):
                raise _diverged(y, "outputs", t, guard)
            if not passes(x):
                raise _diverged(x, "state", t, guard)
            i_col[t] = observe(t, y)
            u_col[t] = u
            y_col[t] = y
    except Exception as failure:
        Trajectory.from_columns(model, spec, u_col[:t], y_col, i_col, states, failure)
    return Trajectory.from_columns(model, spec, u_col, y_col, i_col, states)


def replay_open_loop(model: PlantModel, spec: ConstraintSpec, x0,
                     u_seq: Sequence[float]) -> Trajectory:
    """Apply a recorded input sequence open-loop; the active index of each
    step is the argmin of its errors."""
    u_list = np.asarray(u_seq, dtype=float).tolist()
    return simulate(model, spec, len(u_list) - 1, x0, lambda t, x: u_list[t],
                    lambda t, y: active_index(constraint_errors(spec, y)))


@dataclass
class SelectorResult:
    """Ideal input at one state: the minimum feedback value and its constraint."""

    u: float
    i_star: int            # 1-based constraint that attained the minimum


def selector(model: PlantModel, x, spec: ConstraintSpec) -> SelectorResult:
    """Minimum over the per-constraint riding currents (ties: lowest index),
    as ``oracle_trajectory`` selects each step through ``oracle._minimum``:
    a negative root is pinned to 0, and constraint 1 contributes u_max
    exactly. Checks the sizes, as ``simulate`` does once per run."""
    if model.output_count != spec.p:
        raise ConfigurationError(
            f"model provides {model.output_count} outputs but spec has {spec.p} bounds")
    u, i_star = _minimum(model.riding_currents(x, spec.y_bar), spec.u_max)
    return SelectorResult(u=u, i_star=i_star)


def selector_oracle(model: PlantModel, spec: ConstraintSpec, t_f: int, x0) -> Trajectory:
    """The oracle run with one ``selector`` call per step."""
    i_star = 1

    def control(t: int, x) -> float:
        nonlocal i_star
        res = selector(model, x, spec)
        i_star = res.i_star
        return res.u

    return simulate(model, spec, t_f, x0, control, lambda t, y: i_star)


def plain_rows(header: list[str], columns: list) -> str:
    """CSV text cell by cell: an integer column's cells ``%d``, any other
    column's ``'%.12g' % float(v)``, a None column's empty. The first column
    is never None."""
    def cell(column, t: int) -> str:
        if column is None:
            return ""
        if column.dtype.kind == "i":
            return "%d" % column[t]
        return "%.12g" % float(column[t])

    rows = [[cell(c, t) for c in columns] for t in range(len(columns[0]))]
    return "".join(",".join(cells) + "\n" for cells in [header] + rows)


def plain_trajectory_csv(traj: Trajectory, block: dict[str, str]) -> str:
    """``csvio.write_trajectory_csv``'s text; only i_star is an integer column."""
    mid = [traj.telemetry[key] for key in block.values()] or list(traj.y.T)
    theta = (None, None) if traj.theta is None else traj.theta.T
    return plain_rows(trajectory_header(traj, block),
                      [np.arange(len(traj), dtype=float), traj.u, *mid, traj.e_active,
                       traj.i_star, *theta, traj.alpha, traj.J, traj.J_star])


def plain_gap_csv(free: Trajectory, oracle: Trajectory) -> str:
    """``csvio.write_gap_csv``'s text."""
    return plain_rows(["t", "u_free", "u_oracle", "gap"],
                      [np.arange(len(free), dtype=float), free.u, oracle.u,
                       free.u - oracle.u])


def plain_x_template(x_hi: float, m: int) -> str:
    """A polyline's x part, one string per point, with the time axis's
    mapping written out: ``svg._x_template`` without its cache."""
    plot_w = svg.WIDTH - svg.MARGIN_L - svg.MARGIN_R
    x = svg.MARGIN_L + (np.arange(m, dtype=float) - 0.0) / (x_hi - 0.0) * plot_w
    return " ".join([f"{v:.2f},%.2f" for v in x.tolist()])


def phases(traj: Trajectory) -> list[int]:
    """Active-index sequence with consecutive duplicates collapsed."""
    starts = np.flatnonzero(np.diff(traj.i_star)) + 1
    return traj.i_star[np.r_[0, starts]].tolist()


def toy_step(plant: ToyLinearPlant, state, u: float) -> np.ndarray:
    return np.array([plant.a * float(state[0]) + plant.b * u])


def ecm_step(plant: EcmPlant, state, u: float) -> np.ndarray:
    v1, v2, soc, td = state
    heat = plant._bt * u * (plant.params.r_o * u + v1 + v2)
    return np.array([
        plant._k1 * v1 + plant._b1 * u,
        plant._k2 * v2 + plant._b2 * u,
        soc + plant._ks * u,
        plant._kt * td + heat,
    ])


def ecm_ensemble_step(ensemble: EcmEnsemble, x: np.ndarray, u) -> np.ndarray:
    v1, v2, soc, td = x.T
    return np.array([
        ensemble._k1 * v1 + ensemble._b1 * u,
        ensemble._k2 * v2 + ensemble._b2 * u,
        soc + ensemble._ks * u,
        ensemble._kt * td + ensemble._bt * u * (ensemble._r_o * u + v1 + v2),
    ]).T


def ecm_ensemble_outputs(ensemble: EcmEnsemble, x: np.ndarray, u) -> np.ndarray:
    v1, v2, soc, td = x.T
    return np.array([
        np.broadcast_to(u, v1.shape),
        v1 + v2 + ensemble._ocv_slope * soc + u,
        (ensemble._kt * td + ensemble._bt * (v1 + v2) * u
         + ensemble._bt * ensemble._r_o * u * u),
    ]).T


def _pack_coupling(pack: PackPlant, td: np.ndarray) -> np.ndarray:
    return pack._cl * (td[pack._prev] - td) + pack._cr * (td[pack._next] - td)


def pack_step(pack: PackPlant, state, u: float) -> np.ndarray:
    out = ecm_ensemble_step(pack.cells, state, u)
    out[:, 3] += _pack_coupling(pack, state[:, 3])
    return out


class AllPairsPack(PackPlant):
    """The pack with the spread output replaced by the N*(N-1) differences
    t_j - t_k of the cells' temperature outputs, ordered pairs (j, k),
    j != k, in lexicographic order, each bounded by ``dt_pair_max``. A pair
    is affine in u, since the u**2 terms cancel, so its riding current is
    closed-form (``pair_roots``). ``output_rows`` and ``riding_rows`` are
    the loops over ``advance`` and ``riding_currents``."""

    output_rows = loop_output_rows
    riding_rows = PlantModel.riding_rows

    def __init__(self, params: PackParams):
        super().__init__(params)
        n = params.n_cells
        self.output_count = 1 + 2 * n + n * (n - 1)
        self._off = ~np.eye(n, dtype=bool)

    def advance(self, state, u: float):
        n = self.n_cells
        y, x_next = super().advance(state, u)
        t = y[n + 1:2 * n + 1]
        return np.concatenate([y[:2 * n + 1], (t[:, None] - t)[self._off]]), x_next

    def riding_currents(self, state, y_bar: np.ndarray) -> np.ndarray:
        n = self.n_cells
        _, _, alpha, beta = self._lines(state)
        pairs = pair_roots((alpha[:, None] - alpha)[self._off],
                           (beta[:, None] - beta)[self._off], y_bar[2 * n + 1:])
        return np.concatenate([super().riding_currents(state, y_bar)[:2 * n + 1], pairs])

    def constraints(self, y_bar, gamma) -> ConstraintSpec:
        spec, n = super().constraints(y_bar, gamma), self.n_cells
        counts = [1] * (2 * n + 1) + [n * (n - 1)]
        return ConstraintSpec(y_bar=np.repeat(spec.y_bar, counts),
                              gamma=np.repeat(spec.gamma, counts))


def pair_roots(da: np.ndarray, db: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Riding currents of the pair outputs da + db*u: (bound - da)/db for a
    slope db > 0, and otherwise -inf or +inf as the pair exceeds the bound
    at u = 0 or not."""
    roots = np.where(da > bound, -np.inf, np.inf)
    rising = db > 0.0
    roots[rising] = (bound[rising] - da[rising]) / db[rising]
    return roots


def pack_outputs(pack: PackPlant, state, u: float) -> np.ndarray:
    """The pack's outputs in the layout of its class: ``models.pack``'s, or
    ``AllPairsPack``'s with pairs (j, k) enumerated one by one."""
    n = pack.n_cells
    cells = ecm_ensemble_outputs(pack.cells, state, u)
    temps = cells[:, 2] + _pack_coupling(pack, state[:, 3])
    if isinstance(pack, AllPairsPack):
        pairs = [temps[j] - temps[k] for j in range(n) for k in range(n) if k != j]
    else:
        pairs = [temps.max() - temps.min()]
    return np.concatenate([[u], cells[:, 1], temps, pairs])


def spmet_step(plant: SpmetPlant, state, u: float) -> np.ndarray:
    p = plant.params
    c_avg, c_surf, ce_n, ce_p, temp = (float(v) for v in state)
    k = p.bv_gain * ((temp + KELVIN_OFFSET) / REFERENCE_T_K)
    log_term = p.phi_log_gain * math.log(ce_p / ce_n)
    heat = (k * math.asinh(u / p.bv_scale) + (p.film_res * u + log_term)) * u
    return np.array([
        c_avg + plant._k_avg * u,
        plant._lam * c_avg + (1.0 - plant._lam) * c_surf + plant._k_srf * u,
        ce_n + plant._rex_n * (p.ce_rest_neg - ce_n) + plant._fu_n * u,
        ce_p + plant._rex_p * (p.ce_rest_pos - ce_p) + plant._fu_p * u,
        temp - p.a * p.dt * (temp - p.t_ambient) + p.b * p.dt * heat,
    ])
