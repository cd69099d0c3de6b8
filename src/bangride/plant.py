"""Abstract plant contract and the one stepping loop.

A plant is a discrete-time system ``x_{t+1} = f(x_t, u_t)`` with p scalar
outputs ``y_i = h_i(x_t, u_t)`` that are strictly increasing in the input
current u. Output 1 is the identity in u. States are numeric arrays that
only the concrete models interpret.

``simulate`` steps a plant under a policy (a ``control`` and an ``observe``
callback) and fills the columns of a ``Trajectory``. The model-free
controller (``run_closed_loop``), the oracle (``oracle.oracle_trajectory``)
and open-loop replay (``replay_open_loop``) are its three policies. A single
run is strictly sequential (feedback dependency); distinct runs share nothing
mutable and may execute in parallel. Trajectories are treated as immutable
once returned. ``simulate_batch`` steps the M cells of a batched model, such
as ``models.ecm.EcmEnsemble``, in lockstep; the batched oracle
(``oracle.oracle_batch``) and replay (``replay_batch``) are its policies.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from .controller import ConstraintSpec, ControllerState, active_index, constraint_errors, step_size
from .errors import ConfigurationError, SimulationDiverged

DEFAULT_GUARD = 1e9


class PlantModel(abc.ABC):
    """Discrete-time plant with p monotone scalar outputs.

    Subclasses set ``state_dim`` and ``output_count`` and implement ``step``
    and ``outputs``. ``output``, ``output_rows``, ``telemetry`` and
    ``riding_currents`` have overridable defaults.
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
        """Single output by 0-based position, read off ``outputs``, so that the
        two agree by construction. This is the one path: only ``SpmetPlant``
        overrides it, because its ``outputs`` is built from ``output``."""
        return float(self.outputs(state, u)[index])

    def output_rows(self, states: np.ndarray, u: np.ndarray,
                    index: np.ndarray) -> np.ndarray:
        """``output`` of each row: entry k is
        ``output(states[k], u[k], index[k])``, bit for bit.

        Takes (n, *state_shape) states with (n,) inputs and 0-based output
        positions. The default loops over ``output``; an override must keep
        the row-wise bit equality, which the analysis layer relies on to
        match its scalar references exactly.
        """
        return np.array([self.output(x, u_k, i) for x, u_k, i
                         in zip(states, u.tolist(), index.tolist())], dtype=float)

    def riding_currents(self, state, y_bar: np.ndarray) -> np.ndarray | None:
        """Riding currents of all p constraints, or None.

        Entry i is the u that solves h_i(x, u) = y_bar_i. It is negative or
        -inf when the constraint is already violated at u = 0, and +inf when
        the bound is never reached for u >= 0; no entry is NaN. The default,
        None, makes the oracle bisect every constraint on [0, u_max].
        """
        return None

    def telemetry(self, states: np.ndarray, u: np.ndarray,
                  y: np.ndarray) -> dict[str, np.ndarray]:
        """Reporting-only channels (SOC, temperatures, ...) of a whole run.

        Takes the run's columns, row t holding step t: the states at the
        start of each step ``(n, *state_shape)``, the applied currents
        ``(n,)`` and the outputs ``(n, p)``. Returns channel name -> (n,)
        array. The channels are not constrained and the controller never
        reads them; the default reports none.
        """
        return {}


@dataclass
class Trajectory:
    """Completed run as per-step columns.

    Column contract for a run of n = t_f + 1 steps over p outputs, row t
    holding step t:

    - ``u`` (n,): applied current;
    - ``y``, ``e`` (n, p): outputs and weighted errors ``e = gamma*(y_bar - y)``;
    - ``i_star`` (n,) int: 1-based active index, from this step's errors
      (closed loop, replay) or the constraint the selector picked (oracle);
    - ``J`` (n,): ``e_active**2`` exactly;
    - ``states`` (n + 1, *x0.shape): the state at the start of step t, so
      ``states[0]`` is x0 and ``states[n]`` the post-horizon state;
    - ``telemetry``: channel name -> (n,) array, computed once from the
      other columns by ``PlantModel.telemetry``;
    - ``theta`` (n, 2), ``alpha`` (n,): the gains and step size at the
      start of step t; None for oracle and replay runs;
    - ``J_star`` (n,), ``theta_star`` (n, 2): per-step optimal costs and
      their minimum-norm gains; None until the analysis layer attaches
      them.

    Immutable by convention: derive changed copies with
    ``dataclasses.replace``.
    """

    u: np.ndarray
    y: np.ndarray
    e: np.ndarray
    i_star: np.ndarray
    J: np.ndarray
    states: np.ndarray
    theta: np.ndarray | None = None
    alpha: np.ndarray | None = None
    J_star: np.ndarray | None = None
    theta_star: np.ndarray | None = None
    telemetry: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.u)

    @property
    def t_f(self) -> int:
        return len(self.u) - 1

    @property
    def x0(self):
        return self.states[0]

    @property
    def e_active(self) -> np.ndarray:
        """Per-step error of the active constraint."""
        return self.e[np.arange(len(self.u)), self.i_star - 1]

    def phases(self) -> list[int]:
        """Active-index sequence with consecutive duplicates collapsed."""
        starts = np.flatnonzero(np.diff(self.i_star)) + 1
        return self.i_star[np.r_[0, starts]].tolist()


def _diverged(value, what: str, t: int, guard: float) -> SimulationDiverged:
    """The error for a value that failed the guard test."""
    if not np.all(np.isfinite(value)):
        return SimulationDiverged(t, f"non-finite {what}")
    return SimulationDiverged(t, f"|{what}| exceeded guard magnitude {guard:g}")


def simulate(model: PlantModel, spec: ConstraintSpec, t_f: int, x0,
             control: Callable[[int, Any], float],
             observe: Callable[[int, np.ndarray], int], *,
             guard: float = DEFAULT_GUARD) -> Trajectory:
    """Step ``model`` from x0 for t = 0..t_f under a policy.

    Per step: ``u = control(t, x)``, the outputs at (x, u), the next state,
    the weighted errors e, and ``i_star = observe(t, e)``. The telemetry
    channels are computed once, from the columns, after the last step.
    The input, the outputs and the next state must stay finite and within
    ``guard`` in magnitude; the first that does not aborts the run with
    ``SimulationDiverged`` at that step. States must be numeric arrays of
    one shape.
    """
    if t_f < 0:
        raise ConfigurationError(f"t_f must be >= 0, got {t_f}")
    if model.output_count != spec.p:
        raise ConfigurationError(
            f"model provides {model.output_count} outputs but spec has {spec.p} bounds")
    n = t_f + 1
    u_col = np.empty(n)
    y_col = np.empty((n, spec.p))
    e_col = np.empty((n, spec.p))
    i_col = np.empty(n, dtype=int)
    j_col = np.empty(n)
    states = np.empty((n + 1,) + np.shape(x0))
    states[0] = x0
    x = x0
    for t in range(n):
        u = control(t, x)
        # one comparison per value: false for NaN, inf and anything past guard
        if not abs(u) <= guard:
            raise _diverged(u, "input current", t, guard)
        y = model.outputs(x, u)
        if not abs(y).max() <= guard:
            raise _diverged(y, "outputs", t, guard)
        x = model.step(x, u)
        if not abs(x).max() <= guard:
            raise _diverged(x, "state", t, guard)
        e = constraint_errors(spec, y)
        i_star = observe(t, e)
        e_active = float(e[i_star - 1])

        u_col[t] = u
        y_col[t] = y
        e_col[t] = e
        i_col[t] = i_star
        j_col[t] = e_active ** 2
        states[t + 1] = x
    telemetry = model.telemetry(states[:-1], u_col, y_col)
    return Trajectory(u=u_col, y=y_col, e=e_col, i_star=i_col, J=j_col,
                      states=states, telemetry=telemetry)


def run_closed_loop(model: PlantModel,
                    controller: ControllerState,
                    spec: ConstraintSpec,
                    t_f: int,
                    x0,
                    *,
                    guard: float = DEFAULT_GUARD) -> Trajectory:
    """Run the data-driven bang-ride loop for steps t = 0..t_f.

    Per step: compute u from the PI law, observe the outputs, pick the active
    constraint, take one projected gradient step on the gains, then append the
    active error to the history. The controller is mutated to its final state.
    """
    if controller.t != 0:
        raise ConfigurationError("run_closed_loop requires a fresh controller (t == 0)")
    thetas: list[np.ndarray] = []
    alphas: list[float] = []

    def control(t: int, x) -> float:
        thetas.append(controller.theta.copy())
        alphas.append(step_size(t, controller.mu1))
        return controller.control()

    def observe(t: int, e: np.ndarray) -> int:
        i_star = active_index(e)
        e_active = float(e[i_star - 1])
        controller.update(controller.gradient(e_active), alphas[t], e_active)
        return i_star

    traj = simulate(model, spec, t_f, x0, control, observe, guard=guard)
    return replace(traj, theta=np.array(thetas), alpha=np.array(alphas))


def replay_open_loop(model: PlantModel, spec: ConstraintSpec, x0,
                     u_seq: Sequence[float], *,
                     guard: float = DEFAULT_GUARD) -> Trajectory:
    """Apply a recorded input sequence open-loop; the active index of each
    step is the argmin of its errors."""
    u_list = np.asarray(u_seq, dtype=float).tolist()
    return simulate(model, spec, len(u_list) - 1, x0, lambda t, x: u_list[t],
                    lambda t, e: active_index(e), guard=guard)


@dataclass
class BatchRun:
    """Completed lockstep run of M members, column k holding member k.

    ``u`` (n, M), ``y`` (n, M, p) and ``states`` (n + 1, M, state_dim) follow
    the ``Trajectory`` column contract. ``failed`` (M,) holds the step at
    which each member failed the guard and left the batch, or -1; a failed
    member's inputs and outputs from that step on, and its states after it,
    are NaN.
    """

    u: np.ndarray
    y: np.ndarray
    states: np.ndarray
    failed: np.ndarray


def simulate_batch(model, t_f: int, x0: np.ndarray,
                   control: Callable[[int, Any, np.ndarray, np.ndarray], np.ndarray],
                   *, guard: float = DEFAULT_GUARD) -> BatchRun:
    """Step the M members of a batched model in lockstep for t = 0..t_f.

    ``model`` holds M cells: its ``outputs`` and ``step`` take (M, state_dim)
    state rows with (M,) inputs, and ``take(keep)`` returns the members a
    boolean mask keeps. Per step, ``u = control(t, model, x, rows)`` gives the
    inputs of the members still running, whose batch indices are ``rows``.
    Each member passes the guard tests of ``simulate`` in its order: the
    input, the outputs, then the next state. A member that fails one leaves
    the batch at that step; the others go on.
    """
    m, n = len(x0), t_f + 1
    u_col = np.full((n, m), np.nan)
    y_col = np.full((n, m, model.output_count), np.nan)
    states = np.full((n + 1,) + np.shape(x0), np.nan)
    states[0] = x0
    failed = np.full(m, -1)
    rows = np.arange(m)
    x = np.asarray(x0, dtype=float)

    def keep(ok: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
        nonlocal model, rows
        failed[rows[~ok]] = t
        model, rows = model.take(ok), rows[ok]
        return [a[ok] for a in arrays]

    # each test is first made on the whole batch (a batch emptied within the
    # step passes): one comparison, false for NaN, inf and anything past
    # guard; only a failure looks at the members
    for t in range(n):
        if not len(rows):
            break
        u = control(t, model, x, rows)
        if not abs(u).max() <= guard:
            x, u = keep(abs(u) <= guard, x, u)
        y = model.outputs(x, u)
        if not abs(y).max(initial=0.0) <= guard:
            x, u, y = keep(abs(y).max(axis=1) <= guard, x, u, y)
        x = model.step(x, u)
        if not abs(x).max(initial=0.0) <= guard:
            x, u, y = keep(abs(x).max(axis=1) <= guard, x, u, y)
        u_col[t, rows] = u
        y_col[t, rows] = y
        states[t + 1, rows] = x
    return BatchRun(u=u_col, y=y_col, states=states, failed=failed)


def replay_batch(model, x0: np.ndarray, u_cols: np.ndarray, *,
                 guard: float = DEFAULT_GUARD) -> BatchRun:
    """``replay_open_loop`` for every member at once: member k applies
    column k of the (n, M) input array."""
    return simulate_batch(model, len(u_cols) - 1, x0,
                          lambda t, model, x, rows: u_cols[t, rows], guard=guard)


@dataclass
class MonotonicityReport:
    """Minimum finite-difference slope of each output in u over a sample."""

    min_slope: np.ndarray
    flagged: list[int]          # 1-based outputs with slope <= 0

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
    return MonotonicityReport(min_slope=min_slope, flagged=flagged)
