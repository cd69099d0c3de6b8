"""Abstract plant contract and the one stepping loop.

A plant is a discrete-time system ``x_{t+1} = f(x_t, u_t)`` with p scalar
outputs ``y_i = h_i(x_t, u_t)`` that are strictly increasing in the input
current u. Output 1 is the identity in u. A plant has two required methods:
``advance`` gives a step's outputs and next state from one call, and
``riding_currents`` the current at which each output meets its bound, in
closed form or by Newton steps; ``riding_rows`` is its row form. States
are numeric values that only the concrete models interpret; a single cell
steps its vector state as Python float lists (the vector-state rule of
``PlantModel.advance``), the pack its (N, 4) state as numpy arrays.
A plant also gives a scenario its ``ConstraintSpec`` (``constraints``), the
bounds and error weights, and its start state (``initial_state()``, with no
argument). ``RootConfig`` is the tolerance of the riding-current contract.

``simulate`` steps any plant under a policy (a ``control`` and an
``observe`` callback) in one loop, with one ``advance`` call per step, and
fills the columns of a ``Trajectory``; the state's shape picks only how
values are tested against the guard, ``GUARD``, and kept. A single cell's
values are gathered in Python lists per step and copied into the columns once
after the loop; the pack's state and output rows are written per step. The
guard is one constant, which ``simulate`` and ``simulate_batch`` read at call
time. The commands run two policies through ``simulate``: the model-free
controller (``controller.run_closed_loop``), the one policy that weighs the
errors step by step, and the oracle (``oracle.oracle_trajectory``). Both
import this module, which imports nothing of the package but ``errors``.
A single run is strictly sequential (feedback dependency); distinct runs
share nothing mutable and may execute in parallel. Trajectories are treated
as immutable once returned.
``simulate_batch`` steps the M cells of a batched model in lockstep under a
policy of the same two callbacks with one batched ``advance`` call per step,
keeps no columns of its own, and returns each failed member's step and
reason; a failed member stays in the batch with NaN rows. A plant with a
perturbed family (``PlantModel.perturbed``) builds such a model of its
members with ``ensemble``. The one caller is ``analysis.robustness_study``,
whose single pass runs the true oracle, the oracles of M models and their
open-loop replays on the truth together.
Replay's scalar reference, ``replay_open_loop``, lives in
``tests/references.py``.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .errors import ConfigurationError, PotentialDomainError, SimulationDiverged

GUARD = 1e9     # the magnitude past which an input, output or state diverges
MONOTONICITY_DELTA = 1e-6     # validate_monotonicity's forward-difference step [A]


@dataclass
class ConstraintSpec:
    """Output upper bounds with strictly positive error weights.

    The weighted constraint errors are ``e_i = gamma_i * (y_bar_i - y_i)``.
    Constraint i is satisfied at a step iff ``e_i >= 0`` and active when
    ``e_i == 0``. Bound 1 is the current limit ``u_max``, which must be > 0.
    """

    y_bar: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        self.y_bar = np.atleast_1d(np.asarray(self.y_bar, dtype=float))
        self.gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if self.y_bar.ndim != 1 or self.y_bar.size < 1:
            raise ConfigurationError("y_bar must be a non-empty 1-D vector")
        if self.gamma.shape != self.y_bar.shape:
            raise ConfigurationError(
                f"gamma shape {self.gamma.shape} != y_bar shape {self.y_bar.shape}"
            )
        if not np.all(np.isfinite(self.y_bar)):
            raise ConfigurationError("y_bar entries must be finite")
        if not self.y_bar[0] > 0.0:
            raise ConfigurationError("bound 1 is the current limit and must be > 0")
        if not np.all(self.gamma > 0.0):
            raise ConfigurationError("all weights gamma_i must be > 0")
        if not np.all(np.isfinite(self.gamma)):
            raise ConfigurationError("gamma entries must be finite")

    @property
    def p(self) -> int:
        return int(self.y_bar.size)

    @property
    def u_max(self) -> float:
        """Bound 1 is the explicit current limit."""
        return float(self.y_bar[0])


class RootConfig:
    """The riding-current contract's tolerances, as class constants: ``tol_u``
    for an iterated root (the SPMeT's Newton steps) and for a root outside a
    per-step optimum's current interval, which ``attach_per_step_optima``
    rejects; ``tol_y``, the residual of an oracle's active output."""

    tol_u = 1e-9    # absolute tolerance on the current [A]
    tol_y = 1e-6    # absolute residual tolerance in output units


class PlantModel(abc.ABC):
    """Discrete-time plant with p monotone scalar outputs.

    Subclasses set ``output_count`` and implement
    ``advance`` (a step's outputs and next state from one call), the one
    place where a plant computes its outputs, and ``riding_currents``, the
    roots the oracle and the per-step optima read. ``riding_rows`` and
    ``telemetry`` are overridable fast paths. A plant that the analysis layer
    reads also defines ``output_rows(states, u, index)``, whose entry k is
    ``advance(states[k], u[k])[0][index[k]]`` bit for bit (0-based output
    positions; ``tests/references.py`` holds this loop).
    ``constraints`` and ``initial_state()`` (no argument) give a scenario
    its bounds and start state.

    Two statements tell the writers what to draw from the telemetry. ``plots``
    maps each charted quantity besides the current (``svg.QUANTITIES``) to
    its channels, one or a (max, min) pair, in chart order. ``csv_block`` maps
    a trajectory CSV header to the channel written in place of ``y_1..y_p``.
    A plant with a perturbed family also names its outputs (``output_names``)
    and reports ``soc`` and ``temperature`` channels (see ``perturbed``).
    """

    output_count: int
    plots: dict[str, tuple[str, ...]] = {}
    csv_block: dict[str, str] = {}

    def constraints(self, y_bar, gamma) -> ConstraintSpec:
        """The scenario's ``ConstraintSpec``: one bound and one weight per
        output, which a plant with output families (the pack) overrides."""
        p = self.output_count
        if len(y_bar) != p or len(gamma) != p:
            raise ConfigurationError(
                f"{type(self).__name__} expects {p} bounds in y_bar and {p} weights in "
                f"gamma, got {len(y_bar)} and {len(gamma)}")
        return ConstraintSpec(y_bar=y_bar, gamma=gamma)

    @abc.abstractmethod
    def advance(self, state, u: float) -> tuple[Any, Any]:
        """One step: all p outputs h_i(x, u), index 0 holding y_1 = u, and the
        next state f(x, u). The loops test the outputs against ``GUARD``
        before the next state, so where the outputs fail it the next state
        may be non-finite, but its computation must not raise.
        The vector-state rule: a vector state comes as a float list or a 1-D
        array, u as a Python float, and both results are Python float lists,
        which ``simulate`` steps on without converting them; callers apply
        ``np.asarray`` for numpy arithmetic. Other states give arrays, which
        ``simulate`` tests as arrays. A batched model's
        ``advance`` (``simulate_batch``) must accept NaN rows."""

    @abc.abstractmethod
    def riding_currents(self, state, y_bar: np.ndarray) -> Any:
        """Riding currents of all p constraints: a float list or an array, as
        ``advance`` returns its results.

        Entry i is the u that solves h_i(x, u) = y_bar_i. It is negative or
        -inf when the constraint is already violated at u = 0, and +inf when
        the bound is never reached for u >= 0; no entry is NaN. A closed-form
        root's computed output lies within a few ulps of the bound; a root
        found by iteration (the SPMeT's Newton steps) is the largest current
        whose computed output does not exceed the bound, within
        ``RootConfig.tol_u``.
        """

    def riding_rows(self, states: np.ndarray, y_bar: np.ndarray,
                    index: np.ndarray) -> np.ndarray:
        """One riding current of each row, as ``output_rows`` is of
        ``advance``: entry k is ``riding_currents(states[k], y_bar)[index[k]]``
        bit for bit. The default loops over ``riding_currents``."""
        return np.array([self.riding_currents(x, y_bar)[i]
                         for x, i in zip(states, index.tolist())], dtype=float)

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

    def perturbed(self, fraction: float, seed) -> PlantModel:
        """A member of this plant's perturbed family, its parameters scaled by
        factors in [1 - fraction, 1 + fraction] from the stream keyed by
        ``seed``. A plant with a family overrides this and defines
        ``ensemble(cells)``, its members' batched model (``simulate_batch``),
        and ``output_names``, one name per output for the study's depth
        columns. Its telemetry has ``soc``, the study's objective, and
        ``temperature``, its recorded series."""
        raise ConfigurationError(f"{type(self).__name__} has no perturbed family")


@dataclass
class Trajectory:
    """Completed run as per-step columns.

    Column contract for a run of n = t_f + 1 steps over p outputs, row t
    holding step t:

    - ``u`` (n,): applied current;
    - ``y`` (n, p): outputs;
    - ``i_star`` (n,) int: 1-based active index, from this step's errors
      (closed loop, replay) or the constraint the oracle picked;
    - ``e_active`` (n,): the weighted error ``gamma*(y_bar - y)`` of the
      active constraint;
    - ``J`` (n,): ``e_active**2`` exactly;
    - ``states`` (n, *x0.shape): the state at the start of step t, so
      ``states[0]`` is x0; the state after the last step is not kept;
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
    e_active: np.ndarray
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

    @classmethod
    @np.errstate(all="ignore")
    def from_columns(cls, model: PlantModel, spec: ConstraintSpec, u: np.ndarray,
                     y: np.ndarray, i_star: np.ndarray, states: np.ndarray,
                     failure: Exception | None = None) -> Trajectory:
        """A run's trajectory from its stepped columns, deriving the active
        weighted errors (a step's operations, so its bits), J and the telemetry.

        Checks the rows of the run's completed steps, its ``len(u)`` inputs,
        in step order (the other columns of a failed run hold more rows): a
        row's weighted errors must be finite, and its active error must square
        by Python's ``**``, which raises on overflow where numpy gives inf. The
        first row that fails raises ``SimulationDiverged`` at its step; then
        ``failure``, the run's own error, if one is given: a plant's
        ``PotentialDomainError`` as ``SimulationDiverged`` at step ``len(u)``.
        A ``SimulationDiverged`` raised here carries, as ``rows``, the
        trajectory of the steps before its step, which passed every check.
        """
        n = len(u)
        e = spec.y_bar - y[:n]
        e *= spec.gamma     # in place: no second (n, p) temporary
        e_active = e[np.arange(n), i_star[:n] - 1]
        active = e_active.tolist()
        try:
            J = np.fromiter((v ** 2 for v in active), float, n)
        except OverflowError:
            J = None
        if J is None or not math.isfinite(e.sum()):     # a row may fail: find the first
            for t, v in enumerate(active):
                if not np.isfinite(e[t]).all():
                    failure = SimulationDiverged(t, "non-finite weighted errors")
                    break
                try:
                    v ** 2
                except OverflowError:   # |e_active| above about 1.3e154
                    failure = SimulationDiverged(t, "squared active error overflowed")
                    break
        if isinstance(failure, PotentialDomainError):   # the plant left its domain
            cause, failure = failure, SimulationDiverged(n, str(failure))
            failure.__cause__ = cause
        if isinstance(failure, SimulationDiverged):     # the checked rows before it
            failure.rows = cls.from_columns(
                model, spec, *[column[:failure.step] for column in (u, y, i_star, states)])
        if failure is not None:
            raise failure
        return cls(u=u, y=y, e_active=e_active, i_star=i_star, J=J, states=states,
                   telemetry=model.telemetry(states, u, y))


def _extreme(a: np.ndarray, smallest: bool = False) -> float:
    """The largest (or smallest) entry of ``a`` at its argmax (argmin), in memory
    order: the first NaN if any, of equal zeros the first, cheaper than ``max``."""
    flat = a.ravel("K")
    return flat.item(flat.argmin() if smallest else flat.argmax())


def _diverged(value, what: str, t: int, guard: float) -> SimulationDiverged:
    """The error for a value that failed the guard test."""
    if not np.all(np.isfinite(value)):
        return SimulationDiverged(t, f"non-finite {what}")
    return SimulationDiverged(t, f"|{what}| exceeded guard magnitude {guard:g}")


def check_run(model, spec: ConstraintSpec, t_f: int) -> None:
    """The run checks of ``simulate``: t_f >= 0 and one bound per output."""
    if t_f < 0:
        raise ConfigurationError(f"t_f must be >= 0, got {t_f}")
    if model.output_count != spec.p:
        raise ConfigurationError(
            f"model provides {model.output_count} outputs but spec has {spec.p} bounds")


@np.errstate(all="ignore")
def simulate(model: PlantModel, spec: ConstraintSpec, t_f: int, x0,
             control: Callable[[int, Any], float],
             observe: Callable[[int, Any], int]) -> Trajectory:
    """Step ``model`` from x0 for t = 0..t_f under a policy.

    Per step: ``u = control(t, x)``, the outputs y and the next state from one
    ``model.advance(x, u)``, and ``i_star = observe(t, y)``. The input, the
    outputs and the next state must stay finite and within ``GUARD`` in
    magnitude, in that order, the weighted errors ``gamma * (y_bar - y)``
    finite, and squaring the active error must not overflow; the first that
    fails aborts the run with ``SimulationDiverged`` at that step. The loop
    tests the first three, and one ``Trajectory.from_columns`` call the others
    after it, whether the loop completed or raised; when the loop raises at
    step t (a guard, the policy or the plant), steps 0..t-1 are checked first,
    so the earliest failure is the one reported, with the rows before it
    (``rows``), and ``observe`` may be given outputs whose errors are
    non-finite. These tests report every non-finite value at its step, so
    floating-point warnings are off during the run. States must be numeric
    arrays of one shape; the state after the last step is tested, not kept.

    One loop serves every plant. A vector state (a single cell) is held as
    the float lists of ``PlantModel.advance`` from ``x0.tolist()`` on and
    tested value by value, and ``observe`` gets the outputs as a list; the
    values of x and y are gathered by ``list.extend`` and copied into their
    columns once, after the loop or before a failure's checks, where counts
    that do not fit the steps raise ``ConfigurationError``. Any other
    state (the pack's (N, 4)) is held as arrays, tested by their largest
    magnitude (a NaN's, if any: ``_extreme``), written into its row at each
    step with the outputs, and ``observe`` gets an array. The inputs and
    active indices are appended to lists on both paths.
    """
    check_run(model, spec, t_f)
    n = t_f + 1
    states, y_col = np.empty((n,) + np.shape(x0)), np.empty((n, spec.p))
    us, i_stars, xs, ys = [], [], [], []
    guard = GUARD
    low = -guard
    if states.ndim == 2:
        x = np.asarray(x0, dtype=float).tolist()
        keep_x, keep_y = xs.extend, ys.extend

        def passes(values) -> bool:
            # one comparison per value: false for NaN, inf and anything past guard
            for v in values:
                if not low <= v <= guard:
                    return False
            return True
    else:
        x = x0

        def keep_x(x) -> None:
            states[t] = x

        def keep_y(y) -> None:
            y_col[t] = y

        def passes(values) -> bool:
            return _extreme(abs(values)) <= guard

    def columns() -> tuple:
        # a single cell's values in one copy each; xs and ys stay empty on
        # the pack's path, whose rows are written per step. Steps 0..t kept
        # their states, the len(us) completed steps their outputs
        if states.ndim == 2 and (len(xs) != (t + 1) * states.shape[1]
                                 or len(ys) != len(us) * spec.p):
            raise ConfigurationError(
                f"{type(model).__name__}.advance returned values of the wrong length: "
                f"{len(xs)} state values in {t + 1} steps, {len(ys)} outputs in {len(us)}")
        states.flat[:len(xs)] = xs
        y_col.flat[:len(ys)] = ys
        return np.array(us, dtype=float), y_col, np.array(i_stars, dtype=int), states

    failure = None
    try:
        for t in range(n):
            keep_x(x)
            u = control(t, x)
            if not low <= u <= guard:
                raise _diverged(u, "input current", t, guard)
            y, x = model.advance(x, u)
            if not passes(y):
                raise _diverged(y, "outputs", t, guard)
            if not passes(x):
                raise _diverged(x, "state", t, guard)
            i_stars.append(observe(t, y))
            us.append(u)
            keep_y(y)
    except Exception as error:
        failure = error
    return Trajectory.from_columns(model, spec, *columns(), failure)


@np.errstate(all="ignore")
def simulate_batch(model, t_f: int, x0: np.ndarray,
                   control: Callable[[int, np.ndarray], np.ndarray],
                   observe: Callable[[int, np.ndarray, np.ndarray], None]
                   ) -> dict[int, SimulationDiverged]:
    """Step the M members of a batched model in lockstep for t = 0..t_f.

    ``model`` is a batched model of M cells, such as a plant's ``ensemble``:
    its ``advance`` takes (M, d) state rows with (M,) inputs and returns
    their (M, p) outputs and next state rows, and its ``riding_currents``
    (``oracle.selector_rows``) the (M, p) rows of riding currents, as
    ``PlantModel``'s methods do for one cell. Per step, ``u = control(t, x)``
    gives all members' inputs from their step-start states, and
    ``observe(t, u, y)`` receives their inputs and outputs. Each member
    passes the guard tests of ``simulate`` against ``GUARD`` in its order,
    with floating-point warnings off as there. A member that fails one at
    step t is out: its rows of u and y are NaN from step t on, and its state
    row from step t + 1, written into the arrays ``control`` and ``advance``
    return, whatever they give for it. So ``advance`` and both callbacks
    must accept NaN rows.
    Returns member index -> the ``SimulationDiverged`` that ``simulate``
    raises for that member alone, with its step and message.
    """
    failures: dict[int, SimulationDiverged] = {}
    guard = GUARD
    x = np.asarray(x0, dtype=float)
    size = running = len(x)
    out = np.zeros(size, dtype=bool)

    def drop(ok: np.ndarray, value: np.ndarray, what: str) -> None:
        nonlocal running
        for k in np.flatnonzero(~(ok | out)).tolist():
            failures[k] = _diverged(value[k], what, t, guard)
            out[k] = True
            running -= 1

    # each test is first made on the whole batch: one comparison, false for
    # NaN, inf and anything past guard, so also for the rows of members that
    # are out; only a failure looks at the members
    for t in range(t_f + 1):
        u = control(t, x)
        if not _extreme(abs(u)) <= guard:
            drop(abs(u) <= guard, u, "input current")
        y, x = model.advance(x, u)
        if not _extreme(abs(y)) <= guard:
            drop(abs(y).max(axis=1) <= guard, y, "outputs")
        if not _extreme(abs(x)) <= guard:
            drop(abs(x).max(axis=1) <= guard, x, "state")
        if running < size:
            u[out] = y[out] = x[out] = np.nan
        observe(t, u, y)
    return failures


@dataclass
class MonotonicityReport:
    """Minimum finite-difference slope of each output in u over a sample, NaN
    for an output that was not finite somewhere on it."""

    min_slope: np.ndarray

    @property
    def ok(self) -> bool:
        """Every minimum slope is > 0, which a NaN slope fails."""
        return bool(np.all(self.min_slope > 0.0))


def validate_monotonicity(model: PlantModel, states: Sequence,
                          u_grid: Sequence[float]) -> MonotonicityReport:
    """Check all outputs are strictly increasing in u on the given sample.

    Evaluates ``advance`` at every (state, u) and (state, u + delta) of the
    sample in one pass, with ``MONOTONICITY_DELTA`` as delta and the currents
    as Python floats, and reports each output's minimum forward-difference
    slope. A non-finite output gives a NaN slope, so the check fails; only an
    empty sample raises (``ConfigurationError``).
    """
    states = list(states)
    u_grid = [float(u) for u in u_grid]
    if not states or not u_grid:
        raise ConfigurationError("states and u_grid samples must be non-empty")
    delta = MONOTONICITY_DELTA
    y = np.array([(model.advance(x, u)[0], model.advance(x, u + delta)[0])
                  for x in states for u in u_grid], dtype=float)
    finite = np.isfinite(y).all(axis=1)
    rise = np.subtract(y[:, 1], y[:, 0], out=np.full(finite.shape, np.nan), where=finite)
    return MonotonicityReport(min_slope=(rise / delta).min(axis=0))
