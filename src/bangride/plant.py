"""Abstract plant contract and closed-loop simulation.

A plant is a discrete-time system ``x_{t+1} = f(x_t, u_t)`` with p scalar
outputs ``y_i = h_i(x_t, u_t)`` that are strictly increasing in the input
current u. Output 1 is the identity in u. States are opaque here: only the
concrete models interpret them.

A single closed-loop run is strictly sequential (feedback dependency);
distinct runs share nothing mutable and may execute in parallel. Trajectories
are treated as immutable once returned.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from .controller import ConstraintSpec, ControllerState, active_index, constraint_errors, step_size
from .errors import ConfigurationError, SimulationDiverged

DEFAULT_GUARD = 1e9


class PlantModel(abc.ABC):
    """Discrete-time plant with p monotone scalar outputs.

    Subclasses set ``state_dim`` and ``output_count`` and implement ``step``
    and ``outputs``. ``output``, ``telemetry`` and ``riding_currents`` have
    overridable defaults.
    """

    state_dim: int
    output_count: int

    @abc.abstractmethod
    def step(self, state, u: float):
        """Next state f(x, u)."""

    @abc.abstractmethod
    def outputs(self, state, u: float) -> np.ndarray:
        """All p outputs h_i(x, u); index 0 holds y_1 = u."""

    def output(self, state, u: float, index: int) -> float:
        """Single output by 0-based position; override for a scalar fast path."""
        return float(self.outputs(state, u)[index])

    def riding_currents(self, state, y_bar: np.ndarray) -> np.ndarray | None:
        """Closed-form riding currents of all p constraints, or None.

        Entry i is the u that solves h_i(x, u) = y_bar_i. It is negative when
        the constraint is already violated at u = 0 (the root itself, or -inf
        where the model does not locate one), +inf when the bound is never
        reached for u >= 0, and NaN where the model has no closed form, so
        that the oracle bisects that constraint instead. The default, None,
        leaves every constraint to bisection.
        """
        return None

    def telemetry(self, state, u: float) -> dict[str, float]:
        """Reporting-only channels (SOC, temperatures, ...); not constrained."""
        return {}


@dataclass(frozen=True)
class StepRecord:
    """One closed-loop step.

    ``i_star`` is the 1-based active index computed from this step's errors;
    ``theta``/``alpha`` are the gains and step size at the step's start (None
    for oracle runs); ``J = e[i_star]**2`` exactly; ``J_star`` is filled by
    the analysis layer when enabled.
    """

    t: int
    u: float
    y: np.ndarray
    e: np.ndarray
    i_star: int
    theta: np.ndarray | None
    alpha: float | None
    J: float
    J_star: float | None = None

    @property
    def e_active(self) -> float:
        return float(self.e[self.i_star - 1])


@dataclass
class Trajectory:
    """Completed run: per-step records plus scenario metadata.

    ``states[t]`` is the plant state at the start of step t (``states[0]`` is
    x0; one trailing post-horizon state is kept). ``telemetry`` maps channel
    name to a per-step array. Immutable by convention after creation.
    """

    records: list[StepRecord]
    model_name: str = ""
    seed: int | None = None
    config_hash: str | None = None
    states: list = field(default_factory=list)
    telemetry: dict[str, np.ndarray] = field(default_factory=dict)
    extras: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not self.records:
            raise ConfigurationError("a trajectory must hold at least one record")
        for k, rec in enumerate(self.records):
            if rec.t != k:
                raise ConfigurationError("record step indices must be 0,1,2,...")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def t_f(self) -> int:
        return self.records[-1].t

    @property
    def x0(self):
        return self.states[0] if self.states else None

    def u_seq(self) -> np.ndarray:
        return np.array([r.u for r in self.records])

    def y_matrix(self) -> np.ndarray:
        return np.array([r.y for r in self.records])

    def e_matrix(self) -> np.ndarray:
        return np.array([r.e for r in self.records])

    def i_star_seq(self) -> np.ndarray:
        return np.array([r.i_star for r in self.records], dtype=int)

    def theta_matrix(self) -> np.ndarray:
        return np.array([r.theta for r in self.records])

    def j_seq(self) -> np.ndarray:
        return np.array([r.J for r in self.records])

    def j_star_seq(self) -> np.ndarray:
        """Per-step optimal costs; NaN where absent."""
        return np.array([math.nan if r.J_star is None else r.J_star
                         for r in self.records])

    def active_error_seq(self) -> np.ndarray:
        return np.array([r.e_active for r in self.records])

    def phases(self) -> list[int]:
        """Active-index sequence with consecutive duplicates collapsed."""
        out: list[int] = []
        for i in self.i_star_seq():
            if not out or out[-1] != int(i):
                out.append(int(i))
        return out

    def with_j_star(self, j_star: Sequence[float]) -> "Trajectory":
        """Copy of this trajectory with per-step optimal costs attached."""
        if len(j_star) != len(self.records):
            raise ConfigurationError("J_star length must match record count")
        recs = [replace(r, J_star=float(v)) for r, v in zip(self.records, j_star)]
        return Trajectory(records=recs, model_name=self.model_name, seed=self.seed,
                          config_hash=self.config_hash, states=self.states,
                          telemetry=self.telemetry, extras=dict(self.extras))


def _check_finite(value: np.ndarray | float, what: str, t: int, guard: float) -> None:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise SimulationDiverged(t, f"non-finite {what}")
    if np.any(np.abs(arr) > guard):
        raise SimulationDiverged(t, f"|{what}| exceeded guard magnitude {guard:g}")


def run_closed_loop(model: PlantModel,
                    controller: ControllerState,
                    spec: ConstraintSpec,
                    t_f: int,
                    x0,
                    *,
                    model_name: str = "",
                    seed: int | None = None,
                    config_hash: str | None = None,
                    guard: float = DEFAULT_GUARD,
                    u_clamp: tuple[float, float] | None = None) -> Trajectory:
    """Run the data-driven bang-ride loop for steps t = 0..t_f.

    Per step: compute u from the PI law, observe the outputs, pick the active
    constraint, take one projected gradient step on the gains, then append the
    active error to the history. The controller is mutated to its final state.

    ``u_clamp`` is an optional hard safety clamp on the applied current,
    off by default (the current bound is normally handled by constraint 1);
    when active it is recorded in the trajectory extras.
    """
    if t_f < 0:
        raise ConfigurationError(f"t_f must be >= 0, got {t_f}")
    if model.output_count != spec.p:
        raise ConfigurationError(
            f"model provides {model.output_count} outputs but spec has {spec.p} bounds")
    if controller.t != 0:
        raise ConfigurationError("run_closed_loop requires a fresh controller (t == 0)")

    records: list[StepRecord] = []
    states = [x0]
    telemetry_rows: list[dict[str, float]] = []
    x = x0
    for t in range(t_f + 1):
        theta_t = controller.theta.copy()
        alpha_t = step_size(t, controller.mu1)
        u = controller.control()
        if u_clamp is not None:
            u = min(max(u, u_clamp[0]), u_clamp[1])
        _check_finite(u, "input current", t, guard)

        y = model.outputs(x, u)
        _check_finite(y, "outputs", t, guard)
        telemetry_rows.append(model.telemetry(x, u))
        x_next = model.step(x, u)
        _check_finite(np.asarray(x_next, dtype=float), "state", t, guard)

        e = constraint_errors(spec, y)
        i_star = active_index(e)
        e_active = float(e[i_star - 1])
        g = controller.gradient(e_active)
        controller.update(g, alpha_t, i_star, e_active)

        records.append(StepRecord(t=t, u=float(u), y=y, e=e, i_star=i_star,
                                  theta=theta_t, alpha=alpha_t, J=e_active ** 2))
        states.append(x_next)
        x = x_next

    telemetry = _stack_telemetry(telemetry_rows)
    extras: dict[str, Any] = {
        "kind": "closed-loop",
        "theta_box": (controller.theta_lo.copy(), controller.theta_hi.copy()),
        "mu1": controller.mu1,
    }
    if u_clamp is not None:
        extras["u_clamp"] = u_clamp
    return Trajectory(records=records, model_name=model_name, seed=seed,
                      config_hash=config_hash, states=states,
                      telemetry=telemetry, extras=extras)


def _stack_telemetry(rows: list[dict[str, float]]) -> dict[str, np.ndarray]:
    if not rows or not rows[0]:
        return {}
    return {key: np.array([row[key] for row in rows]) for key in rows[0]}


def replay_open_loop(model: PlantModel, x0, u_seq: Sequence[float],
                     guard: float = DEFAULT_GUARD) -> tuple[np.ndarray, list]:
    """Apply a recorded input sequence open-loop; returns (outputs matrix, states)."""
    x = x0
    states = [x0]
    ys = []
    for t, u in enumerate(u_seq):
        y = model.outputs(x, float(u))
        _check_finite(y, "outputs", t, guard)
        ys.append(y)
        x = model.step(x, float(u))
        _check_finite(np.asarray(x, dtype=float), "state", t, guard)
        states.append(x)
    return np.array(ys), states


@dataclass
class MonotonicityReport:
    """Minimum finite-difference slope of each output in u over a sample."""

    min_slope: np.ndarray
    flagged: list[int]          # 1-based outputs with slope <= 0
    delta: float
    sample_size: int

    @property
    def ok(self) -> bool:
        return not self.flagged


def validate_monotonicity(model: PlantModel, states: Sequence,
                          u_grid: Sequence[float],
                          delta: float = 1e-6) -> MonotonicityReport:
    """Check all outputs are strictly increasing in u on the given sample.

    Uses forward differences (y(x, u + delta) - y(x, u)) / delta and reports
    the per-output minimum slope; any output with slope <= 0 is flagged.
    """
    states = list(states)
    u_grid = [float(u) for u in u_grid]
    if not states or not u_grid:
        raise ConfigurationError("states and u_grid samples must be non-empty")
    min_slope = np.full(model.output_count, np.inf)
    count = 0
    for x in states:
        for u in u_grid:
            y0 = model.outputs(x, u)
            y1 = model.outputs(x, u + delta)
            if not (np.all(np.isfinite(y0)) and np.all(np.isfinite(y1))):
                raise SimulationDiverged(count, "non-finite output during monotonicity scan")
            min_slope = np.minimum(min_slope, (y1 - y0) / delta)
            count += 1
    flagged = [i + 1 for i in range(model.output_count) if min_slope[i] <= 0.0]
    return MonotonicityReport(min_slope=min_slope, flagged=flagged,
                              delta=delta, sample_size=count)
