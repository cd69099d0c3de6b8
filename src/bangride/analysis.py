"""Regret accounting, per-step optimal costs, gradient diagnostics, and the
perturbed-model robustness study.

Unlike the controller, everything here is deliberately model-aware, but
only through the plant contract of ``plant`` and the oracle: no concrete
cell model is imported. The per-step optima and c_t evaluate the plant's
outputs at the recorded states of every step at once (``output_rows``), the
optima taking each riding step's root from the plant's riding currents
(``riding_rows``). The robustness study
takes the true plant and M perturbed plants of its family from its caller,
builds their batched model with the true plant's ``ensemble``, and in one
lockstep pass (``plant.simulate_batch``) runs the true oracle, the ideal
protocols of the M models and their replays on copies of the true plant,
storing only the columns it reads. The one-step scalar
references that ``attach_per_step_optima`` and ``ct_series`` equal bit for
bit, ``per_step_optimal_cost`` and ``ct_diagnostic``, live in
``tests/references.py``, because no command runs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .controller import project_box
from .errors import ConfigurationError, RootFindingError, SimulationDiverged
from .oracle import selector_rows
from .plant import (ConstraintSpec, PlantModel, RootConfig, Trajectory, check_run,
                    simulate_batch)


# ---------------------------------------------------------------------------
# per-step optimal cost


def _box_corners(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])


def _min_norm_rows(s: np.ndarray, c: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray) -> np.ndarray:
    """Minimum-norm point of {theta in box : theta . s = c} per row of s and c,
    which makes theta* on an affine one-step problem's minimizer segment
    deterministic. A row whose line misses the box by rounding (a corner
    touch) takes the nearest corner, the first of least norm among ties. Each
    row equals ``min_norm_on_line_in_box`` (``tests/references.py``) bit for
    bit: its operand order, and its ``min``/``max`` choices by ``np.where``."""
    s_sq = np.vecdot(s, s)     # rounds as the scalar s @ s; s0*s0 + s1*s1 does not
    base = (c / s_sq)[:, None] * s
    d = np.stack([-s[:, 1], s[:, 0]], axis=1) / np.sqrt(s_sq)[:, None]
    eps = 1e-9 * (1.0 + float(np.max(np.abs(hi))) + np.abs(c))
    t_min = np.full(len(c), -np.inf)
    t_max = np.full(len(c), np.inf)
    for j in range(2):
        lo_j, hi_j, b_j, d_j = lo[j] - eps, hi[j] + eps, base[:, j], d[:, j]
        flat = np.abs(d_j) < 1e-15
        outside = flat & ~((lo_j <= b_j) & (b_j <= hi_j))
        with np.errstate(all="ignore"):    # flat rows: a and b are unused
            a, b = (lo_j - b_j) / d_j, (hi_j - b_j) / d_j
        low, high = np.where(b < a, b, a), np.where(b > a, b, a)
        t_min = np.where(~flat & (low > t_min), low, t_min)
        t_max = np.where(~flat & (high < t_max), high, t_max)
        t_min[outside], t_max[outside] = np.inf, -np.inf   # as the scalar break
    t_star = np.where(t_min > 0.0, t_min, 0.0)
    t_star = np.where(t_max < t_star, t_max, t_star)
    with np.errstate(invalid="ignore"):    # corner-touch rows, replaced below
        theta = project_box(base + t_star[:, None] * d, lo, hi)
    touch = t_min > t_max
    if touch.any():
        corners = _box_corners(lo, hi)
        # the stacked matmul rounds each row as the scalar corners @ s
        gaps = np.abs((corners[None] @ s[touch][:, :, None])[:, :, 0] - c[touch][:, None])
        near = gaps <= gaps.min(axis=1, keepdims=True) + 1e-12
        pick = np.where(near, np.linalg.norm(corners, axis=1), np.inf).argmin(axis=1)
        theta[touch] = project_box(corners[pick], lo, hi)
    return theta


def attach_per_step_optima(trajectory: Trajectory, model: PlantModel,
                           spec: ConstraintSpec, theta_lo, theta_hi) -> Trajectory:
    """New trajectory with J_star and theta_star filled for every step.

    Reconstructs the history statistics exactly as the controller accumulated
    them and freezes the realized active index per step; the minimizers are
    taken over the gain box [theta_lo, theta_hi]. All steps are solved at
    once, through ``PlantModel.output_rows``; a step whose error changes
    sign on its current interval takes the frozen constraint's riding
    current from one ``riding_rows`` call, clamped to the interval, and one
    NaN or more than ``plant.RootConfig.tol_u`` outside it raises
    ``RootFindingError`` naming the step, the root, the constraint and the
    interval. Every row equals the scalar
    reference ``per_step_optimal_cost`` (``tests/references.py``) bit for bit.
    """
    if trajectory.theta is None:
        raise ConfigurationError("per-step optima need a closed-loop trajectory "
                                 "(oracle runs have no gains)")
    theta_lo = np.asarray(theta_lo, dtype=float)
    theta_hi = np.asarray(theta_hi, dtype=float)
    n = len(trajectory)
    index = trajectory.i_star - 1
    gamma, y_bar, states = spec.gamma[index], spec.y_bar[index], trajectory.states

    def err(rows, u: np.ndarray) -> np.ndarray:
        return gamma[rows] * (y_bar[rows] - model.output_rows(states[rows], u, index[rows]))

    # the controller's statistics: cumsum adds left to right, as it does
    last_error = np.concatenate(([0.0], trajectory.e_active[:-1]))
    s = np.stack([last_error, np.cumsum(last_error)], axis=1)
    zero = np.vecdot(s, s) == 0.0
    # a stacked matmul rounds each row as the scalar corners @ s; the
    # elementwise sum and s @ corners.T do not
    image = (_box_corners(theta_lo, theta_hi)[None] @ s[:, :, None])[:, :, 0]
    u_lo = np.where(zero, 0.0, image.min(axis=1))   # u = 0.0 exactly, not -0.0
    u_hi = np.where(zero, 0.0, image.max(axis=1))
    e_lo, e_hi = err(slice(None), u_lo), err(slice(None), u_hi)
    high = e_hi >= 0.0
    u_opt, e_opt = np.where(high, u_hi, u_lo), np.where(high, e_hi, e_lo)

    # the riding rows: the error falls through zero inside the interval
    rows = np.flatnonzero(~(zero | high | (e_lo <= 0.0)))
    lo, hi = u_lo[rows], u_hi[rows]
    root = model.riding_rows(states[rows], spec.y_bar, index[rows])
    bad = ~((lo - RootConfig.tol_u <= root) & (root <= hi + RootConfig.tol_u))
    if bad.any():
        k = int(bad.argmax())
        raise RootFindingError(
            f"per-step optimum at step {rows[k]} has riding current {root.item(k)!r} "
            f"of constraint {index[rows[k]] + 1}, outside its current interval "
            f"[{lo.item(k)!r}, {hi.item(k)!r}]")
    # the scalar's min(max(root, u_lo), u_hi)
    root = np.where(root < lo, lo, root)
    u_opt[rows] = np.where(root > hi, hi, root)
    e_opt[rows] = err(rows, u_opt[rows])

    theta_star = np.empty((n, 2))
    theta_star[zero] = project_box(np.zeros(2), theta_lo, theta_hi)
    theta_star[~zero] = _min_norm_rows(s[~zero], u_opt[~zero], theta_lo, theta_hi)
    # Python's ** (libm pow), as per_step_optimal_cost squares; numpy's
    # square rounds differently on rare values
    j_star = np.array([e ** 2 for e in e_opt.tolist()])
    return replace(trajectory, J_star=j_star, theta_star=theta_star)


# ---------------------------------------------------------------------------
# regret


def mu_star(mu1: float, mu2: float) -> float:
    """Regret exponent max{mu1, 1 - mu1, 1 + mu1 - mu2}."""
    return max(mu1, 1.0 - mu1, 1.0 + mu1 - mu2)


# the regret fit window: the last TAIL_FRACTION of the horizon, at least
# MIN_TAIL points when available
TAIL_FRACTION = 0.5
MIN_TAIL = 100
GAP_TAIL_FRACTION = 0.1    # the window of RegretReport.gap_tail_mean


@dataclass
class RegretReport:
    gaps: np.ndarray              # J_t - J*_t
    cumulative: np.ndarray        # running sum R_t
    tail_start: int               # first step of the fit window
    tail_slope: float | None     # log-log slope of R_t on the window
    converged: bool               # R_t non-positive in the window (no fit)
    mu2_hat: float | None        # drift exponent estimated from epsilon_t
    mu_star_ref: float

    @property
    def total(self) -> float:
        return float(self.cumulative[-1])

    def gap_tail_mean(self) -> float:
        n = len(self.gaps)
        start = max(0, n - max(1, int(round(GAP_TAIL_FRACTION * n))))
        return float(np.mean(self.gaps[start:]))


def regret(trajectory: Trajectory, mu1: float) -> RegretReport:
    """Cumulative regret with a tail log-log slope fit.

    A fit window with non-positive R_t is reported as converged regret
    instead of a slope.
    """
    j_star = trajectory.J_star
    if j_star is None or np.any(np.isnan(j_star)):
        raise ConfigurationError("J_star missing; attach per-step optima first")
    gaps = trajectory.J - j_star
    cumulative = np.cumsum(gaps)
    n = len(gaps)
    window = min(n, max(MIN_TAIL, int(math.ceil(TAIL_FRACTION * n))))
    tail_start = max(1, n - window)   # t = 0 excluded from log fits
    tail_t = np.arange(tail_start, n)
    tail_r = cumulative[tail_start:]
    converged = bool(np.any(tail_r <= 0.0))
    slope = None
    if not converged and len(tail_t) >= 2:
        slope = float(np.polyfit(np.log(tail_t), np.log(tail_r), 1)[0])

    mu2_hat = None
    theta_star = trajectory.theta_star
    if theta_star is not None and len(theta_star) >= 2:
        # epsilon_t = ||theta*_{t+1} - theta*_t||
        epsilon = np.linalg.norm(np.diff(theta_star, axis=0), axis=1)
        eps_t = np.arange(1, len(epsilon) + 1)
        mask = (eps_t >= tail_start) & (epsilon > 0.0)
        if int(mask.sum()) >= 10:
            mu2_hat = float(-np.polyfit(np.log(eps_t[mask]),
                                        np.log(epsilon[mask]), 1)[0])
    mu2_eff = mu2_hat if mu2_hat is not None else math.inf
    return RegretReport(gaps=gaps, cumulative=cumulative, tail_start=tail_start,
                        tail_slope=slope, converged=converged,
                        mu2_hat=mu2_hat, mu_star_ref=mu_star(mu1, mu2_eff))


# ---------------------------------------------------------------------------
# gradient and curvature diagnostics

CT_DELTA = 1e-5     # the central-difference half-step of c_t in u [A]


def ct_series(trajectory: Trajectory, model: PlantModel, spec: ConstraintSpec) -> np.ndarray:
    """c_t along a trajectory, at the realized states/inputs/active indices;
    entry t equals ``ct_diagnostic`` at step t bit for bit."""
    index, states, delta = trajectory.i_star - 1, trajectory.states, CT_DELTA
    hp = model.output_rows(states, trajectory.u + delta, index)
    hm = model.output_rows(states, trajectory.u - delta, index)
    return 2.0 * spec.gamma[index] * (hp - hm) / (2.0 * delta)


def ct_ratio_sign_changes(ct: np.ndarray, alphas: np.ndarray) -> int:
    """Sign changes of the sequence c_{t+1}/alpha_{t+1} - c_t/alpha_t (logged
    for diagnostics; no pass/fail semantics)."""
    ratio = np.asarray(ct, dtype=float) / np.asarray(alphas, dtype=float)
    diff = np.diff(ratio)
    signs = np.sign(diff[diff != 0.0])
    return int(np.sum(signs[1:] != signs[:-1]))


# ---------------------------------------------------------------------------
# robustness study


@dataclass
class ModelOutcome:
    """One perturbed model's ideal protocol replayed on the true plant."""

    failure: SimulationDiverged | None = None   # the oracle's, else the replay's
    max_depth: np.ndarray | None = None    # per-constraint (y - y_bar)+ peak
    violation_steps: int = 0
    suboptimality: float = 0.0             # true-oracle objective minus achieved
    u_seq: np.ndarray | None = None
    temperature: np.ndarray | None = None  # the replay's telemetry channel

    @property
    def diverged(self) -> bool:
        return self.failure is not None


@dataclass
class ViolationStats:
    outcomes: list[ModelOutcome]    # entry k is model k's

    @property
    def runs_with_violation(self) -> int:
        return sum(o.violation_steps > 0 for o in self.outcomes)

    @property
    def diverged_runs(self) -> int:
        return sum(o.diverged for o in self.outcomes)


@dataclass
class RobustnessResult:
    stats: ViolationStats
    true_oracle: Trajectory


# an output counts as violated above y_bar + VIOLATION_TOL
VIOLATION_TOL = 1e-6


def _soc_objective(soc: np.ndarray) -> float:
    """Charging objective: a run's SOC telemetry channel over steps 0..t_f,
    summed left to right: cumsum adds in order on every Python version,
    where the float ``sum`` compensates from Python 3.12 on."""
    return float(np.cumsum(soc)[-1])


def _replay_outcome(u_seq: np.ndarray, y: np.ndarray,
                    states: np.ndarray, true_model: PlantModel,
                    spec: ConstraintSpec, oracle_objective: float,
                    keep_series: bool) -> ModelOutcome:
    """A protocol's outcome from its replay's outputs and step-start states."""
    telemetry = true_model.telemetry(states, u_seq, y)
    over = y - spec.y_bar[None, :]
    achieved = _soc_objective(telemetry["soc"])
    return ModelOutcome(
        max_depth=np.maximum(over, 0.0).max(axis=0),
        violation_steps=int(np.any(over > VIOLATION_TOL, axis=1).sum()),
        suboptimality=oracle_objective - achieved,
        u_seq=u_seq if keep_series else None,
        temperature=telemetry["temperature"] if keep_series else None,
    )


def robustness_study(true_model: PlantModel, models: list[PlantModel], x0,
                     spec: ConstraintSpec, t_f: int, *,
                     keep_series: bool = True) -> RobustnessResult:
    """Ideal protocols from M models, replayed on the truth, in one lockstep
    pass.

    ``models`` are M >= 1 plants of ``true_model``'s perturbed family
    (``PlantModel.perturbed``). One batch, ``true_model.ensemble``, stepped
    from x0 by ``plant.simulate_batch``, holds the M models, whose bang-ride
    protocols are computed, then M + 1 copies of the truth. Per step, the
    models and member M, the first copy, take the minimum of their clamped
    riding currents (``oracle.selector_rows`` on the ensemble of these M + 1
    alone), and member M + 1 + k applies the current that model k chose: it
    replays model k's protocol open loop on the truth. Member M runs the
    true oracle, whose run equals ``oracle_trajectory(true_model, ...)``
    column for column. A model whose oracle or replay fails the guard
    (``plant.GUARD``) is recorded as diverged, with the failure that
    ``oracle_trajectory`` or ``replay_open_loop`` raises for it alone
    (``tests/references.py``), and the others go on; a failing true oracle
    raises the ``SimulationDiverged`` that ``oracle_trajectory`` raises.
    Violations and suboptimality are measured against the true oracle; the
    objective and the recorded temperatures are ``true_model``'s ``soc`` and
    ``temperature`` telemetry channels.
    """
    m = len(models)
    if m < 1:
        raise ConfigurationError("a robustness study needs at least one model")
    check_run(true_model, spec, t_f)
    chooser = true_model.ensemble(models + [true_model])
    batch = true_model.ensemble(models + [true_model] * (m + 1))
    size, n = 2 * m + 1, t_f + 1
    # all the study reads: the models' and the true oracle's inputs, and the
    # outputs and step-start states of the true copies, the true oracle first
    u_models, u_true = np.empty((n, m)), np.empty(n)
    true_index = np.empty(n, dtype=int)
    y_truth = np.empty((n, m + 1, spec.p))
    x_truth = np.empty((n, m + 1) + np.shape(x0))

    def control(t: int, x: np.ndarray) -> np.ndarray:
        x_truth[t] = x[m:]
        u, k = selector_rows(chooser, x[:m + 1], spec)
        true_index[t] = k[m]
        # member M + 1 + k replays model k's input: NaN once model k is out,
        # so that the copy is out too
        return np.concatenate((u, u[:m]))

    def observe(t: int, u: np.ndarray, y: np.ndarray) -> None:
        u_models[t], u_true[t] = u[:m], u[m]
        y_truth[t] = y[m:]

    failures = simulate_batch(batch, t_f, np.tile(x0, (size, 1)), control, observe)
    # simulate's checks and failure; copies free the shared columns with the study
    failure = failures.get(m)
    true_oracle = Trajectory.from_columns(
        true_model, spec, u_true if failure is None else u_true[:failure.step],
        y_truth[:, 0].copy(), true_index + 1, x_truth[:, 0].copy(), failure)
    oracle_objective = _soc_objective(true_oracle.telemetry["soc"])
    outcomes = []
    for k in range(m):
        failure = failures.get(k, failures.get(m + 1 + k))
        outcomes.append(
            ModelOutcome(failure=failure) if failure is not None else
            _replay_outcome(u_models[:, k], y_truth[:, k + 1], x_truth[:, k + 1],
                            true_model, spec, oracle_objective, keep_series))
    return RobustnessResult(stats=ViolationStats(outcomes), true_oracle=true_oracle)
