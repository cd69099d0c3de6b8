"""Regret accounting, per-step optimal costs, gradient diagnostics, and the
perturbed-model robustness study.

Unlike the controller, everything here is deliberately model-aware: the
per-step optima and c_t evaluate the plant's outputs at the recorded states
of every step at once (``PlantModel.output_rows``), and the robustness study
builds ideal protocols from perturbed models and replays them on the true
plant. ``per_step_optimal_cost`` and ``ct_diagnostic`` are the one-step
scalar references that the batched ``attach_per_step_optima`` and
``ct_series`` equal bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .controller import ConstraintSpec, ControllerState, project_box
from .errors import ConfigurationError, RootFindingError
from .models.ecm import EcmEnsemble, EcmParams, EcmPlant, perturb_params
from .oracle import RootConfig, oracle_batch, oracle_trajectory
from .plant import BatchRun, PlantModel, Trajectory, replay_batch, run_closed_loop


# ---------------------------------------------------------------------------
# per-step optimal cost


@dataclass
class PerStepOptimum:
    """Minimizer of the one-step squared active error over the gain box."""

    j_star: float
    u_star: float
    theta_star: np.ndarray


def _box_corners(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])


def _min_norm_on_line_in_box(s: np.ndarray, c: float, lo: np.ndarray,
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


def _min_norm_rows(s: np.ndarray, c: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray) -> np.ndarray:
    """``_min_norm_on_line_in_box`` of every row of s with its c, bit for bit.

    Keeps the scalar function's operand order, and its ``min``/``max``
    choices through ``np.where``; rows that take the corner-touch fallback
    call the scalar function itself.
    """
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
    for k in np.flatnonzero(t_min > t_max).tolist():
        theta[k] = _min_norm_on_line_in_box(s[k], float(c[k]), lo, hi)
    return theta


def attach_per_step_optima(trajectory: Trajectory, model: PlantModel,
                           spec: ConstraintSpec, theta_lo, theta_hi,
                           *, tol_u: float = 1e-9, tol_y: float = 1e-6) -> Trajectory:
    """New trajectory with J_star and theta_star filled for every step.

    Reconstructs the history statistics exactly as the controller accumulated
    them and freezes the realized active index per step; the minimizers are
    taken over the gain box [theta_lo, theta_hi]. All steps are solved at
    once, through ``PlantModel.output_rows``, with a lockstep bisection in
    which each step stops on its own; every row equals
    ``per_step_optimal_cost`` at that step bit for bit.
    """
    if trajectory.theta is None:
        raise ConfigurationError("per-step optima need a closed-loop trajectory "
                                 "(oracle runs have no gains)")
    theta_lo = np.asarray(theta_lo, dtype=float)
    theta_hi = np.asarray(theta_hi, dtype=float)
    n = len(trajectory)
    index = trajectory.i_star - 1
    gamma, y_bar, states = spec.gamma[index], spec.y_bar[index], trajectory.states[:n]

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

    rows = np.flatnonzero(~(zero | high | (e_lo <= 0.0)))
    lo_u, hi_u, tol_e = u_lo[rows], u_hi[rows], gamma[rows] * tol_y
    max_iter = 200    # per_step_optimal_cost's default
    for _ in range(max_iter):
        if not len(rows):
            break
        mid = 0.5 * (lo_u + hi_u)
        e = err(rows, mid)
        below = e < 0.0
        hi_u, lo_u = np.where(below, mid, hi_u), np.where(below, lo_u, mid)
        done = ((hi_u - lo_u) <= tol_u) & (np.abs(e) <= tol_e)
        u_opt[rows[done]], e_opt[rows[done]] = mid[done], e[done]
        go = ~done
        rows, lo_u, hi_u, tol_e = rows[go], lo_u[go], hi_u[go], tol_e[go]
    if len(rows):   # the scalar loop stops at the first of them
        raise RootFindingError(f"per-step optimum bisection did not converge "
                               f"at step {rows[0]}", float(lo_u[0]),
                               float(hi_u[0]), max_iter)

    # every midpoint lies in [u_lo, u_hi], so the scalar's final clamp is a no-op
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


@dataclass
class RegretReport:
    gaps: np.ndarray              # J_t - J*_t
    cumulative: np.ndarray        # running sum R_t
    tail_start: int               # first step of the fit window
    tail_slope: float | None     # log-log slope of R_t on the window
    converged: bool               # R_t non-positive in the window (no fit)
    mu1: float
    mu2_hat: float | None        # drift exponent estimated from epsilon_t
    mu_star_ref: float
    epsilon: np.ndarray | None   # ||theta*_{t+1} - theta*_t||

    @property
    def total(self) -> float:
        return float(self.cumulative[-1])

    def gap_tail_mean(self, fraction: float = 0.1) -> float:
        n = len(self.gaps)
        start = max(0, n - max(1, int(round(fraction * n))))
        return float(np.mean(self.gaps[start:]))


def regret(trajectory: Trajectory, mu1: float, *, tail_fraction: float = 0.5,
           min_tail: int = 100) -> RegretReport:
    """Cumulative regret with a tail log-log slope fit.

    The fit window is the last ``tail_fraction`` of the horizon, at least
    ``min_tail`` points when available; a window with non-positive R_t is
    reported as converged regret instead of a slope.
    """
    j_star = trajectory.J_star
    if j_star is None or np.any(np.isnan(j_star)):
        raise ConfigurationError("J_star missing; attach per-step optima first")
    gaps = trajectory.J - j_star
    cumulative = np.cumsum(gaps)
    n = len(gaps)
    window = min(n, max(min_tail, int(math.ceil(tail_fraction * n))))
    tail_start = max(1, n - window)   # t = 0 excluded from log fits
    tail_t = np.arange(tail_start, n)
    tail_r = cumulative[tail_start:]
    converged = bool(np.any(tail_r <= 0.0))
    slope = None
    if not converged and len(tail_t) >= 2:
        slope = float(np.polyfit(np.log(tail_t), np.log(tail_r), 1)[0])

    epsilon = None
    mu2_hat = None
    theta_star = trajectory.theta_star
    if theta_star is not None and len(theta_star) >= 2:
        epsilon = np.linalg.norm(np.diff(theta_star, axis=0), axis=1)
        eps_t = np.arange(1, len(epsilon) + 1)
        mask = (eps_t >= tail_start) & (epsilon > 0.0)
        if int(mask.sum()) >= 10:
            mu2_hat = float(-np.polyfit(np.log(eps_t[mask]),
                                        np.log(epsilon[mask]), 1)[0])
    mu2_eff = mu2_hat if mu2_hat is not None else math.inf
    return RegretReport(gaps=gaps, cumulative=cumulative, tail_start=tail_start,
                        tail_slope=slope, converged=converged, mu1=mu1,
                        mu2_hat=mu2_hat, mu_star_ref=mu_star(mu1, mu2_eff),
                        epsilon=epsilon)


# ---------------------------------------------------------------------------
# gradient and curvature diagnostics


def ct_diagnostic(model: PlantModel, x, u: float, i_star: int, gamma_i: float,
                  delta: float = 1e-5) -> float:
    """Central-difference estimate of 2 * gamma_i * dh_{i*}/du at (x, u)."""
    hp = model.output(x, u + delta, i_star - 1)
    hm = model.output(x, u - delta, i_star - 1)
    return 2.0 * gamma_i * (hp - hm) / (2.0 * delta)


def ct_series(trajectory: Trajectory, model: PlantModel, spec: ConstraintSpec,
              delta: float = 1e-5) -> np.ndarray:
    """c_t along a trajectory, at the realized states/inputs/active indices;
    entry t equals ``ct_diagnostic`` at step t bit for bit."""
    index = trajectory.i_star - 1
    states = trajectory.states[:len(trajectory)]
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

    index: int
    diverged: bool = False
    max_depth: np.ndarray | None = None    # per-constraint (y - y_bar)+ peak
    violation_steps: int = 0
    any_violation: bool = False
    suboptimality: float = 0.0             # true-oracle objective minus achieved
    u_seq: np.ndarray | None = None
    temperature: np.ndarray | None = None  # the replay's telemetry channel


@dataclass
class ViolationStats:
    outcomes: list[ModelOutcome]
    per_constraint_max_depth: np.ndarray
    runs_with_violation: int
    diverged_runs: int
    oracle_objective: float


@dataclass
class RobustnessResult:
    stats: ViolationStats
    true_oracle: Trajectory
    free_run: Trajectory | None


def _soc_objective(soc: np.ndarray) -> float:
    """Charging objective: a run's SOC telemetry channel over steps 0..t_f,
    summed left to right."""
    return float(sum(soc.tolist()))


def _replay_outcome(index: int, u_seq: np.ndarray, replays: BatchRun, j: int,
                    true_model: PlantModel, spec: ConstraintSpec,
                    oracle_objective: float, violation_tol: float,
                    keep_series: bool) -> ModelOutcome:
    y = replays.y[:, j]
    telemetry = true_model.telemetry(replays.states[:-1, j], u_seq, y)
    over = y - spec.y_bar[None, :]
    depth = np.maximum(over, 0.0).max(axis=0)
    violated = over > violation_tol
    achieved = _soc_objective(telemetry["soc"])
    return ModelOutcome(
        index=index,
        max_depth=depth,
        violation_steps=int(np.any(violated, axis=1).sum()),
        any_violation=bool(violated.any()),
        suboptimality=oracle_objective - achieved,
        u_seq=u_seq if keep_series else None,
        temperature=telemetry["temperature"] if keep_series else None,
    )


def robustness_study(base: EcmParams, n_models: int, fraction: float,
                     spec: ConstraintSpec, t_f: int, seed: int, *,
                     soc0: float = 0.0, cfg: RootConfig | None = None,
                     controller: ControllerState | None = None,
                     violation_tol: float = 1e-6,
                     keep_series: bool = True) -> RobustnessResult:
    """Ideal protocols from randomly perturbed models, replayed on the truth.

    Each model k gets parameters perturbed by the stream keyed (seed, k); its
    bang-ride protocol is computed in closed loop on the perturbed model and
    then applied open-loop to the true plant, recording violations and
    suboptimality. Optionally also runs the model-free controller on the true
    plant for comparison. All perturbed models step together, through one
    batched oracle and one batched replay; a model that diverges in either is
    recorded as diverged, and the others go on.
    """
    if n_models < 1:
        raise ConfigurationError("n_models must be >= 1")
    true_model = EcmPlant(base)
    x0 = true_model.initial_state(soc0)
    true_oracle = oracle_trajectory(true_model, spec, t_f, x0, cfg or RootConfig())
    oracle_objective = _soc_objective(true_oracle.telemetry["soc"])

    perturbed = EcmEnsemble([perturb_params(base, fraction, (seed, k))
                             for k in range(n_models)])
    protocols = oracle_batch(perturbed, spec, t_f, np.tile(x0, (n_models, 1)))
    u_cols, ran = protocols.u, np.flatnonzero(protocols.failed < 0)
    del protocols   # its outputs and states: 20 MB at 200 models, never read
    replays = replay_batch(EcmEnsemble([base] * len(ran)),
                           np.tile(x0, (len(ran), 1)), u_cols[:, ran])
    outcomes = [ModelOutcome(index=k, diverged=True) for k in range(n_models)]
    for j, k in enumerate(ran.tolist()):
        if replays.failed[j] < 0:
            outcomes[k] = _replay_outcome(k, u_cols[:, k], replays, j,
                                          true_model, spec, oracle_objective,
                                          violation_tol, keep_series)

    depths = [o.max_depth for o in outcomes if o.max_depth is not None]
    per_constraint = (np.max(depths, axis=0) if depths
                      else np.zeros(spec.p))
    stats = ViolationStats(
        outcomes=outcomes,
        per_constraint_max_depth=per_constraint,
        runs_with_violation=sum(o.any_violation for o in outcomes),
        diverged_runs=sum(o.diverged for o in outcomes),
        oracle_objective=oracle_objective,
    )
    free_run = None
    if controller is not None:
        free_run = run_closed_loop(true_model, controller, spec, t_f, x0)
    return RobustnessResult(stats=stats, true_oracle=true_oracle, free_run=free_run)
