"""Regret accounting, per-step optimal costs, gradient diagnostics, and the
perturbed-model robustness study.

Unlike the controller, everything here is deliberately model-aware: the
per-step optimum re-simulates single plant steps, and the robustness study
builds ideal protocols from perturbed models and replays them on the true
plant.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .controller import ConstraintSpec, ControllerState, project_box
from .errors import ConfigurationError, RootFindingError, SimulationDiverged
from .models.ecm import EcmParams, EcmPlant, perturb_params
from .oracle import RootConfig, oracle_trajectory
from .plant import PlantModel, Trajectory, replay_open_loop, run_closed_loop


# ---------------------------------------------------------------------------
# per-step optimal cost


@dataclass
class PerStepOptimum:
    """Minimizer of the one-step squared active error over the gain box."""

    j_star: float
    u_star: float
    theta_star: np.ndarray
    reachable: bool = True   # False when both history statistics are zero


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

    if s[0] == 0.0 and s[1] == 0.0:
        e0 = err(0.0)
        return PerStepOptimum(j_star=e0 ** 2, u_star=0.0,
                              theta_star=project_box(np.zeros(2), theta_lo, theta_hi),
                              reachable=False)

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


def attach_per_step_optima(trajectory: Trajectory, model: PlantModel,
                           spec: ConstraintSpec, theta_lo=None, theta_hi=None,
                           *, tol_u: float = 1e-9, tol_y: float = 1e-6) -> Trajectory:
    """New trajectory with J_star filled for every step.

    Reconstructs the history statistics exactly as the controller accumulated
    them and freezes the realized active index per step. The gain box
    defaults to the one the run itself used (stored in the extras). Stores
    the per-step minimizers and unreachable steps in the extras.
    """
    if trajectory.theta is None:
        raise ConfigurationError("per-step optima need a closed-loop trajectory "
                                 "(oracle runs have no gains)")
    if theta_lo is None or theta_hi is None:
        box = trajectory.extras.get("theta_box")
        if box is None:
            raise ConfigurationError("trajectory carries no gain box; pass "
                                     "theta_lo and theta_hi explicitly")
        theta_lo, theta_hi = box
    theta_lo = np.asarray(theta_lo, dtype=float)
    theta_hi = np.asarray(theta_hi, dtype=float)
    j_stars: list[float] = []
    theta_stars: list[np.ndarray] = []
    unreachable: list[int] = []
    le, es = 0.0, 0.0
    steps = zip(trajectory.i_star.tolist(), trajectory.e_active.tolist())
    for t, (i_star, e_active) in enumerate(steps):
        opt = per_step_optimal_cost(model, trajectory.states[t], spec,
                                    le, es, theta_lo, theta_hi, i_star,
                                    tol_u=tol_u, tol_y=tol_y)
        j_stars.append(opt.j_star)
        theta_stars.append(opt.theta_star)
        if not opt.reachable:
            unreachable.append(t)
        le = e_active
        es += e_active
    return replace(trajectory, J_star=np.array(j_stars),
                   extras={**trajectory.extras, "theta_star": np.array(theta_stars),
                           "unreachable_steps": unreachable})


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
    negative_gap_steps: list[int]  # gaps below -gap_tol (numerical flags)

    @property
    def total(self) -> float:
        return float(self.cumulative[-1])

    def gap_tail_mean(self, fraction: float = 0.1) -> float:
        n = len(self.gaps)
        start = max(0, n - max(1, int(round(fraction * n))))
        return float(np.mean(self.gaps[start:]))


def regret(trajectory: Trajectory, mu1: float, *, tail_fraction: float = 0.5,
           min_tail: int = 100, gap_tol: float = 1e-6) -> RegretReport:
    """Cumulative regret with a tail log-log slope fit.

    The fit window is the last ``tail_fraction`` of the horizon, at least
    ``min_tail`` points when available; a window with non-positive R_t is
    reported as converged regret instead of a slope.
    """
    j_star = trajectory.J_star
    if j_star is None or np.any(np.isnan(j_star)):
        raise ConfigurationError("J_star missing; attach per-step optima first")
    gaps = trajectory.J - j_star
    negative = [int(t) for t in np.nonzero(gaps < -gap_tol)[0]]
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
    theta_star = trajectory.extras.get("theta_star")
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
                        epsilon=epsilon, negative_gap_steps=negative)


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
    """c_t along a trajectory, at the realized states/inputs/active indices."""
    steps = zip(trajectory.u.tolist(), trajectory.i_star.tolist())
    return np.array([
        ct_diagnostic(model, trajectory.states[t], u, i_star,
                      float(spec.gamma[i_star - 1]), delta)
        for t, (u, i_star) in enumerate(steps)
    ])


def ct_ratio_sign_changes(ct: np.ndarray, alphas: np.ndarray) -> int:
    """Sign changes of the sequence c_{t+1}/alpha_{t+1} - c_t/alpha_t (logged
    for diagnostics; no pass/fail semantics)."""
    ratio = np.asarray(ct, dtype=float) / np.asarray(alphas, dtype=float)
    diff = np.diff(ratio)
    signs = np.sign(diff[diff != 0.0])
    return int(np.sum(signs[1:] != signs[:-1]))


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
            return (gamma_i * (y_bar_i - model.output(x, u, i_star - 1))) ** 2

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
    y_seq: np.ndarray | None = None


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


def _soc_objective(states: np.ndarray, t_f: int) -> float:
    """Charging objective: accumulated SOC over steps 0..t_f (state column 2),
    summed left to right."""
    return float(sum(states[:t_f + 1, 2].tolist()))


def _replay_outcome(index: int, u_seq: np.ndarray, true_model: PlantModel,
                    spec: ConstraintSpec, x0, oracle_objective: float,
                    violation_tol: float, keep_series: bool) -> ModelOutcome:
    run = replay_open_loop(true_model, spec, x0, u_seq)
    over = run.y - spec.y_bar[None, :]
    depth = np.maximum(over, 0.0).max(axis=0)
    violated = over > violation_tol
    achieved = _soc_objective(run.states, run.t_f)
    return ModelOutcome(
        index=index,
        max_depth=depth,
        violation_steps=int(np.any(violated, axis=1).sum()),
        any_violation=bool(violated.any()),
        suboptimality=oracle_objective - achieved,
        u_seq=u_seq if keep_series else None,
        y_seq=run.y if keep_series else None,
    )


def _one_perturbed_protocol(args) -> tuple[int, np.ndarray | None]:
    (base, fraction, seed, index, spec, t_f, soc0, cfg) = args
    params = perturb_params(base, fraction, (seed, index))
    model = EcmPlant(params)
    try:
        traj = oracle_trajectory(model, spec, t_f, model.initial_state(soc0), cfg)
    except (SimulationDiverged, RootFindingError):
        return index, None
    return index, traj.u


def robustness_study(base: EcmParams, n_models: int, fraction: float,
                     spec: ConstraintSpec, t_f: int, seed: int, *,
                     soc0: float = 0.0, cfg: RootConfig | None = None,
                     controller: ControllerState | None = None,
                     violation_tol: float = 1e-6, jobs: int = 1,
                     keep_series: bool = True) -> RobustnessResult:
    """Ideal protocols from randomly perturbed models, replayed on the truth.

    Each model k gets parameters perturbed by the stream keyed (seed, k); its
    bang-ride protocol is computed in closed loop on the perturbed model and
    then applied open-loop to the true plant, recording violations and
    suboptimality. Optionally also runs the model-free controller on the true
    plant for comparison. Per-model divergences are recorded, not fatal.
    Results are merged by model index, so they do not depend on worker order.
    """
    if n_models < 1:
        raise ConfigurationError("n_models must be >= 1")
    if cfg is None:
        cfg = RootConfig.for_bound(spec.u_max)
    true_model = EcmPlant(base)
    x0 = true_model.initial_state(soc0)
    true_oracle = oracle_trajectory(true_model, spec, t_f, x0, cfg,
                                    model_name="ecm", seed=seed)
    oracle_objective = _soc_objective(true_oracle.states, t_f)

    work = [(base, fraction, seed, k, spec, t_f, soc0, cfg)
            for k in range(n_models)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            protocol_results = list(pool.map(_one_perturbed_protocol, work,
                                             chunksize=max(1, n_models // (4 * jobs))))
    else:
        protocol_results = [_one_perturbed_protocol(w) for w in work]
    protocol_results.sort(key=lambda pair: pair[0])

    outcomes: list[ModelOutcome] = []
    for index, u_seq in protocol_results:
        if u_seq is None:
            outcomes.append(ModelOutcome(index=index, diverged=True))
            continue
        try:
            outcomes.append(_replay_outcome(index, u_seq, true_model, spec, x0,
                                            oracle_objective, violation_tol,
                                            keep_series))
        except SimulationDiverged:
            outcomes.append(ModelOutcome(index=index, diverged=True))

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
        free_run = run_closed_loop(true_model, controller, spec, t_f, x0,
                                   model_name="ecm", seed=seed)
    return RobustnessResult(stats=stats, true_oracle=true_oracle, free_run=free_run)
