import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bangride import (ConfigurationError, ConstraintSpec, ControllerState,
                      PotentialDomainError, SimulationDiverged, ToyLinearPlant,
                      oracle_trajectory, run_closed_loop, validate_monotonicity)
from bangride import controller as controller_module
from bangride import oracle as oracle_module
from bangride.models.ecm import EcmParams, EcmPlant
from bangride.plant import PlantModel, Trajectory, _extreme, simulate, simulate_batch
import references
from conftest import guard
from references import (ReferenceController, active_index, constraint_errors,
                        reference_closed_loop, reference_simulate, replay_open_loop)

ECM_KW = dict(r_o=0.05, r_1=0.15, r_2=0.35, c_1=1000.0, c_2=1700.0,
              q=12000.0, a=0.002, b=7.5e-4, ocv0=3.0, ocv_slope=3.0, dt=1.0)


def hand_simulation(t_f, theta0, theta_lo, theta_hi, mu1, y_bar, gamma):
    """Line-by-line independent re-execution of the control loop on the
    integrator plant x' = x + u with outputs (u, x + u).

    Deliberately written with plain floats and no package machinery other
    than numpy clipping, as the oracle against run_closed_loop.
    """
    th = list(theta0)
    x = 0.0
    last_e, e_sum = 0.0, 0.0
    rows = []
    for t in range(t_f + 1):
        alpha = 1.0 if t == 0 else float(t) ** (-mu1)
        u = th[0] * last_e + th[1] * e_sum
        y = [u, x + u]
        e = [gamma[0] * (y_bar[0] - y[0]), gamma[1] * (y_bar[1] - y[1])]
        i_star = 1 if e[0] <= e[1] else 2
        e_act = e[i_star - 1]
        g = [-e_act * last_e, -e_act * e_sum]
        rows.append((t, u, tuple(y), tuple(e), i_star, tuple(th), alpha, e_act ** 2))
        th = [min(max(th[m] - alpha * g[m], theta_lo[m]), theta_hi[m]) for m in range(2)]
        last_e = e_act
        e_sum += e_act
        x = x + u
    return rows


class TestRunClosedLoop:
    def test_zero_horizon_single_record(self):
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        cs = ControllerState()
        traj = run_closed_loop(model, cs, spec, 0, model.initial_state())
        assert len(traj) == 1
        assert len(traj) - 1 == 0
        assert traj.u[0] == 0.0

    def test_matches_hand_simulation_exactly(self):
        y_bar, gamma = (10.0, 5.0), (1.0, 1.0)
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=list(y_bar), gamma=list(gamma))
        cs = ControllerState(theta=np.array([0.1, 0.1]),
                             theta_lo=np.zeros(2), theta_hi=np.array([10.0, 1.0]),
                             mu1=0.5)
        traj = run_closed_loop(model, cs, spec, 60, model.initial_state())
        expected = hand_simulation(60, (0.1, 0.1), (0.0, 0.0), (10.0, 1.0),
                                   0.5, y_bar, gamma)
        assert len(traj) == len(expected)
        errors = spec.gamma * (spec.y_bar - traj.y)
        for k, (t, u, y, e, i_star, th, alpha, J) in enumerate(expected):
            assert k == t
            assert traj.u[t] == u
            assert tuple(traj.y[t]) == y
            assert tuple(errors[t]) == e
            assert traj.i_star[t] == i_star
            assert traj.e_active[t] == e[i_star - 1]
            assert tuple(traj.theta[t]) == th
            assert traj.alpha[t] == alpha
            assert traj.J[t] == J

    def test_step_indices_and_alpha_schedule(self):
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[0.2, 0.2])
        cs = ControllerState()
        traj = run_closed_loop(model, cs, spec, 9, model.initial_state())
        assert len(traj) == 10 and len(traj) - 1 == 9
        assert traj.alpha[0] == 1.0
        assert traj.alpha[4] == 0.5

    def test_j_equals_active_error_squared(self):
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[0.3, 0.7])
        cs = ControllerState()
        traj = run_closed_loop(model, cs, spec, 40, model.initial_state())
        errors = spec.gamma * (spec.y_bar - traj.y)
        for t in range(len(traj)):
            assert traj.J[t] == errors[t, traj.i_star[t] - 1] ** 2
            assert traj.i_star[t] == int(np.argmin(errors[t])) + 1

    def test_errors_consistent_with_weights(self):
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[2.0, 0.5])
        cs = ControllerState()
        traj = run_closed_loop(model, cs, spec, 30, model.initial_state())
        errors = spec.gamma * (spec.y_bar - traj.y)
        assert np.array_equal(traj.e_active, errors[np.arange(len(traj)), traj.i_star - 1])

    def test_controller_trajectory_consistency(self):
        # recorded u_t must equal th1*e_active(t-1) + th2*sum_{k<t} e_active(k)
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[0.2, 0.2])
        cs = ControllerState()
        traj = run_closed_loop(model, cs, spec, 200, model.initial_state())
        le, es = 0.0, 0.0
        for u, theta, e_active in zip(traj.u, traj.theta, traj.e_active.tolist()):
            assert u == theta[0] * le + theta[1] * es
            le = e_active
            es += e_active

    def test_replay_reproduces_outputs_bit_for_bit(self):
        params = EcmParams(**ECM_KW)
        model = EcmPlant(params)
        spec = ConstraintSpec(y_bar=[10.0, 12.0, 8.0], gamma=[1.0, 1.0, 500.0])
        cs = ControllerState(grad_clip=0.05)
        traj = run_closed_loop(model, cs, spec, 500, model.initial_state())
        replay = replay_open_loop(model, spec, traj.states[0], traj.u)
        assert np.array_equal(replay.y, traj.y)
        assert np.array_equal(replay.states, traj.states)

    def test_output_count_mismatch_rejected(self):
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0, 1.0], gamma=[1.0, 1.0, 1.0])
        with pytest.raises(ConfigurationError):
            run_closed_loop(model, ControllerState(), spec, 5, model.initial_state())

    def test_negative_horizon_rejected(self):
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        with pytest.raises(ConfigurationError):
            run_closed_loop(model, ControllerState(), spec, -1, model.initial_state())

    def test_divergence_guard_reports_step(self):
        # unstable gains on an explosive plant must abort loudly
        model = ToyLinearPlant(a=2.0, b=1.0)
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[20.0, 20.0])
        cs = ControllerState(theta=np.array([9.0, 1.0]))
        with pytest.raises(SimulationDiverged) as err, guard(1e6):
            run_closed_loop(model, cs, spec, 400, model.initial_state())
        assert 0 <= err.value.step <= 400

    def test_stale_controller_rejected(self):
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        cs = ControllerState()
        # the run only reads the controller's settings, so no stale history
        # is left to reject: a second run is the first one again
        first = run_closed_loop(model, cs, spec, 3, model.initial_state())
        assert same_run(run_closed_loop(model, cs, spec, 3, model.initial_state()), first)


class ScriptedPlant(PlantModel):
    """Test plant whose outputs at step t are row t of a script, whatever the
    input; the state counts the steps. Against the bounds (1, -0, -0, ...)
    with unit weights, output i > 1 equal to -d gives the error d exactly,
    signed zeros included."""

    def __init__(self, errors: np.ndarray):
        self.rows = np.concatenate([1.0 - errors[:, :1], -errors[:, 1:]], axis=1).tolist()
        self.output_count = errors.shape[1]

    def advance(self, x, u):
        return self.rows[int(x[0])], [float(x[0]) + 1.0]

    def riding_currents(self, x, y_bar):
        # no output depends on u: each is violated at every u, or at none
        return [-math.inf if y > b else math.inf
                for y, b in zip(self.rows[int(x[0])], y_bar.tolist())]

    def spec(self) -> ConstraintSpec:
        return ConstraintSpec(y_bar=[1.0] + [-0.0] * (self.output_count - 1),
                              gamma=[1.0] * self.output_count)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


error = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))
bound = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, 5.0))


@st.composite
def error_rows(draw, min_size=1, max_size=60):
    p = draw(st.integers(2, 3))
    rows = draw(st.lists(st.lists(error, min_size=p, max_size=p),
                         min_size=min_size, max_size=max_size))
    return np.array(rows, dtype=float).reshape(-1, p)


@st.composite
def controllers(draw):
    """Keyword arguments of a controller: a box (lo == hi and signed-zero
    bounds included), a start in it, mu1 and an optional clip."""
    lo = np.array([draw(bound), draw(bound)])
    width = np.array([draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 10.0))
                      for _ in range(2)])
    start = np.array([draw(st.floats(0.0, 1.0)) for _ in range(2)])
    return dict(theta=lo + start * width, theta_lo=lo, theta_hi=lo + width,
                mu1=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
                grad_clip=draw(st.none() | st.floats(0.01, 10.0)))


def both_loops(errors: np.ndarray, kw: dict):
    """The outcomes of run_closed_loop and of the numpy reference on the
    scripted plant: each the trajectory or the divergence."""
    model = ScriptedPlant(errors)
    out = []
    for loop, make in ((run_closed_loop, ControllerState),
                       (reference_closed_loop, ReferenceController)):
        try:
            with guard(math.inf):
                result = loop(model, make(**kw), model.spec(), len(errors) - 1,
                              np.zeros(1))
        except SimulationDiverged as exc:
            result = exc
        out.append(result)
    return out


class TestFloatLoopMatchesReference:
    """run_closed_loop holds the gains as floats; the numpy ReferenceController
    steps control -> gradient -> update over the same errors."""

    @settings(max_examples=300, deadline=None)
    @given(errors=error_rows(), kw=controllers())
    # a clipped step whose norm math.hypot would round differently from
    # np.linalg.norm, which the float loop's sqrt(g.dot(g)) matches
    @example(errors=np.array([[2.96, 1.69], [-0.09, -0.46], [2.27, -2.48]]),
             kw=dict(theta=[0.5, 0.5], theta_lo=[0.0, 0.0], theta_hi=[10.0, 10.0],
                     mu1=0.5, grad_clip=0.1))
    def test_equal_bit_for_bit(self, errors, kw):
        fast, ref = both_loops(errors, kw)
        assert same_bits(fast.y, ref.y)
        assert same_bits(fast.e_active, ref.e_active)
        assert same_bits(fast.u, ref.u)
        assert same_bits(fast.theta, ref.theta)
        assert same_bits(fast.alpha, ref.alpha)

    @settings(max_examples=100, deadline=None)
    @given(errors=error_rows(max_size=20), inf=st.sampled_from([math.inf, -math.inf]),
           kw=controllers())
    def test_infinite_history_diverges_at_the_same_step(self, errors, inf, kw):
        # infinite outputs pass an infinite guard, but their infinite errors
        # stop both loops at that step, before they reach the history
        errors = np.concatenate([errors, np.full((2, errors.shape[1]), inf)])
        fast, ref = both_loops(errors, kw)
        assert isinstance(fast, SimulationDiverged) and isinstance(ref, SimulationDiverged)
        assert fast.step == ref.step == len(errors) - 2
        assert str(fast) == str(ref) == (
            f"simulation diverged at step {fast.step}: non-finite weighted errors")


component = (st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.3e154,
                             1.8e308, -math.inf, math.inf, math.nan])
             | st.floats(-1e-300, 1e-300) | st.floats())


@settings(max_examples=1000, deadline=None)
@given(g=st.tuples(component, component))
def test_clip_norm_equals_numpy_norm(g):
    # run_closed_loop clips by sqrt(g.dot(g)) on a preallocated 2-vector: the
    # ReferenceController's np.linalg.norm, bit for bit, from zeros and
    # subnormals to squares that overflow to inf
    grad = np.empty(2)
    with np.errstate(all="ignore"):
        grad[0], grad[1] = g
        fast = math.sqrt(grad.dot(grad))
        ref = float(np.linalg.norm(g))
    assert type(fast) is float
    assert (math.isnan(fast) and math.isnan(ref)) or same_bits(fast, ref)


@pytest.mark.parametrize("name", ["toy", "ecm", "spmet"])
def test_vector_runs_step_on_floats(name, scenarios, monkeypatch):
    # every step of a vector-state closed loop and oracle gets the plant's
    # float lists, and the clipped closed loop calls no np.linalg.norm
    built = scenarios[name]
    model, spec, x0 = built.model, built.spec, built.x0
    results = []
    advance = model.advance

    def checked(x, u):
        y, x_next = advance(x, u)
        results.append([type(y), type(x_next)] + [type(v) for v in y + x_next])
        return y, x_next

    def no_norm(*args, **kwargs):
        raise AssertionError("np.linalg.norm called")

    monkeypatch.setattr(model, "advance", checked)
    monkeypatch.setattr(np.linalg, "norm", no_norm)
    run_closed_loop(model, built.controller, spec, 300, x0)
    oracle_trajectory(model, spec, 300, x0)
    assert built.cfg.grad_clip is not None or name == "toy"
    assert len(results) >= 602
    assert all(r == [list, list] + [float] * (len(r) - 2) for r in results)


class FaultyToy(ToyLinearPlant):
    """Integrator whose state carries a step counter, so that it can fail at
    a chosen step k: NaN, inf or past-guard outputs, a past-guard state, or
    an error raised by ``advance``.
    Its riding currents are the toy's closed form, which reads no faulty
    output, so that the failure reaches the stepping loop."""

    def __init__(self, fault: str, k: int, **gains):
        super().__init__(**gains)
        self.fault, self.k = fault, k

    def initial_state(self, x0: float = 0.0) -> np.ndarray:
        return np.array([float(x0), 0.0])

    def advance(self, state, u):
        y, x = super().advance(state, u)
        x = [x[0], float(state[1]) + 1.0]
        if state[1] == self.k and self.fault in OUTPUT_FAULTS:
            y[-1] = OUTPUT_FAULTS[self.fault]
        if state[1] == self.k and self.fault == "state-past-guard":
            x[0] = 2e9
        if state[1] == self.k and self.fault == "domain-error":
            raise PotentialDomainError("advance: outside the model's domain")
        return y, x


OUTPUT_FAULTS = {"nan-outputs": np.nan, "inf-outputs": np.inf,
                 "outputs-past-guard": 5e9}
GUARD_MESSAGES = {"nan-outputs": "non-finite outputs",
                  "inf-outputs": "non-finite outputs",
                  "outputs-past-guard": "|outputs| exceeded guard magnitude 1e+09",
                  "state-past-guard": "|state| exceeded guard magnitude 1e+09"}


def faulty_run(kind: str, model: FaultyToy, x0=None):
    """A 21-step closed-loop, oracle or replay run of a faulty toy, from its
    initial state unless given x0."""
    spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[0.2, 0.2])
    x0 = model.initial_state() if x0 is None else x0
    if kind == "closed-loop":
        return run_closed_loop(model, ControllerState(), spec, 20, x0)
    if kind == "oracle":
        return oracle_trajectory(model, spec, 20, x0)
    return replay_open_loop(model, spec, x0, np.full(21, 0.1))


class TestDivergenceGuard:
    K = 7

    @pytest.mark.parametrize("fault", sorted(GUARD_MESSAGES))
    @pytest.mark.parametrize("kind", ["closed-loop", "oracle", "replay"])
    def test_fault_reported_at_its_step(self, kind, fault):
        with pytest.raises(SimulationDiverged) as err:
            faulty_run(kind, FaultyToy(fault, self.K))
        assert err.value.step == self.K
        assert str(err.value) == (f"simulation diverged at step {self.K}: "
                                  f"{GUARD_MESSAGES[fault]}")

    def test_squared_error_overflow_diverges(self):
        # an input of 1e8 at step 3 makes |e_active| about 1e155, whose
        # square overflows Python's **; the input, outputs and state stay
        # inside the guard. The toy returns Python floats; a toy returning
        # numpy arrays breaks the vector-state rule, but the loop
        # squares a float of its active error all the same, where an
        # np.float64 would give inf silently
        class ArrayToy(ToyLinearPlant):
            def advance(self, state, u):
                return tuple(map(np.array, super().advance(state, u)))

        toy, array_toy = ToyLinearPlant(), ArrayToy()
        y, x = toy.advance(toy.initial_state(), 1e8)
        assert [type(v) for v in y + x] == [float] * 3
        assert type(array_toy.advance(toy.initial_state(), 1e8)[0]) is np.ndarray
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1e147, 1e147])
        for model in (toy, array_toy):
            with pytest.raises(SimulationDiverged) as err:
                simulate(model, spec, 5, model.initial_state(),
                         lambda t, x: 0.0 if t < 3 else 1e8,
                         lambda t, y: active_index(constraint_errors(spec, y)))
            assert str(err.value) == ("simulation diverged at step 3: "
                                      "squared active error overflowed")


class LongToy(ToyLinearPlant):
    """The toy, with one value too many in its outputs or in its next state:
    a plant that breaks the vector-state rule's lengths."""

    def __init__(self, extra: str):
        super().__init__()
        self.extra = extra

    def advance(self, state, u):
        y, x = super().advance(state, u)
        return (y + [123.0], x) if self.extra == "outputs" else (y, x + [99.0])


@pytest.mark.parametrize("extra", ["outputs", "state"])
@pytest.mark.parametrize("kind", ["closed-loop", "oracle"])
def test_wrong_length_values_rejected(kind, extra):
    # the values are copied flat into the columns after the loop: a count
    # that does not fit the steps names the plant, not shifted rows
    with pytest.raises(ConfigurationError, match=r"^LongToy\.advance returned values "
                                                 r"of the wrong length"):
        faulty_run(kind, LongToy(extra))


class Growth(PlantModel):
    """x' = g*x + u with outputs (u, c*x): the state passes a guard first
    when g is large, the outputs when c is."""

    output_count = 2

    def __init__(self, g, c):
        self.g, self.c = g, c

    def advance(self, state, u):
        x = float(state[0])
        return [u, self.c * x], [self.g * x + u]

    def riding_currents(self, state, y_bar):
        # c*x does not depend on u: violated at every u, or at none
        bound = float(y_bar[1])
        return [float(y_bar[0]), -math.inf if self.c * float(state[0]) > bound else math.inf]


class GrowthBatch:
    """``Growth`` members stepped together: (M, 1) states."""

    output_count = 2

    def __init__(self, g, c):
        self.g, self.c = np.asarray(g), np.asarray(c)

    def advance(self, x, u):
        return np.stack([u, self.c * x[:, 0]], axis=1), (self.g * x[:, 0] + u)[:, None]


class TestSimulateBatch:
    # members fail first on their state (steps 13 and 8), on their outputs
    # (step 6) or on a NaN input (step 3); member 3 runs to the end
    G = [2.0, 3.0, 1.5, 1.0, 1.0]
    C = [1.0, 1.0, 1000.0, 1.0, 1.0]

    @staticmethod
    def input_of(k: int, t: int) -> float:
        return math.nan if (k, t) == (4, 3) else 0.0

    def test_members_fail_where_simulate_fails(self):
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        x0 = np.array([0.01])
        m, n = len(self.G), 21
        # zeros: every NaN below is the loop's
        u_col, y_col = np.zeros((n, m)), np.zeros((n, m, 2))
        states = np.zeros((n, m, 1))

        def control(t, x):
            # member 4's input is finite again after step 3, when it is out
            states[t] = x
            return np.array([self.input_of(k, t) for k in range(m)])

        def observe(t, u, y):
            u_col[t], y_col[t] = u, y

        with guard(100.0):
            failures = simulate_batch(GrowthBatch(self.G, self.C), n - 1,
                                      np.tile(x0, (m, 1)), control, observe)

        def run(k, t_f):
            with guard(100.0):
                return simulate(Growth(self.G[k], self.C[k]), spec, t_f, x0,
                                lambda t, x: self.input_of(k, t), lambda t, y: 1)

        steps = []
        for k in range(m):
            try:
                traj = run(k, n - 1)
            except SimulationDiverged as exc:
                steps.append(exc.step)
                assert failures[k].step == exc.step
                assert str(failures[k]) == str(exc)
                # out from its step to the end, whatever its policy gives
                assert np.isnan(u_col[exc.step:, k]).all()
                assert np.isnan(y_col[exc.step:, k]).all()
                assert np.isnan(states[exc.step + 1:, k]).all()
                before = run(k, exc.step - 1)
                assert np.array_equal(u_col[:exc.step, k], before.u)
                assert np.array_equal(y_col[:exc.step, k], before.y)
                assert np.array_equal(states[:exc.step, k], before.states)
                continue
            steps.append(-1)
            assert k not in failures
            assert np.array_equal(u_col[:, k], traj.u)
            assert np.array_equal(y_col[:, k], traj.y)
            assert np.array_equal(states[:, k], traj.states)
        assert steps == [13, 8, 6, -1, 3]
        # one reason per test: state, state, outputs, input
        assert [str(failures[k]).split(": ")[1] for k in (0, 1, 2, 4)] == [
            "|state| exceeded guard magnitude 100", "|state| exceeded guard magnitude 100",
            "|outputs| exceeded guard magnitude 100", "non-finite input current"]


class TestGuardOrder:
    """``advance`` computes the next state before the outputs are tested.
    At step 3 the outputs of member 0 fail the guard (c*x = 500 > 100) and
    its next state overflows (1e307 * 50): the failure names the outputs,
    and the overflow raises no warning."""

    G, C = [1e307, 1.0], [10.0, 1.0]
    MESSAGE = "simulation diverged at step 3: |outputs| exceeded guard magnitude 100"

    @staticmethod
    def input_of(t: int) -> float:
        return 50.0 if t == 2 else 0.0

    def test_premise(self):
        with np.errstate(over="ignore"):
            y, x = Growth(self.G[0], self.C[0]).advance([50.0], 0.0)
        assert max(map(abs, y)) > 100.0 and not math.isfinite(x[0])

    def test_scalar(self):
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SimulationDiverged) as err, guard(100.0):
                simulate(Growth(self.G[0], self.C[0]), spec, 10, np.zeros(1),
                         lambda t, x: self.input_of(t), lambda t, y: 1)
        assert err.value.step == 3 and str(err.value) == self.MESSAGE

    def test_batched(self):
        seen = []

        def control(t, x):
            seen.append((t, x.tolist()))
            return np.full(len(x), self.input_of(t))

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with guard(100.0):
                failures = simulate_batch(GrowthBatch(self.G, self.C), 10, np.zeros((2, 1)),
                                          control, lambda t, u, y: None)
        assert list(failures) == [0]
        assert failures[0].step == 3 and str(failures[0]) == self.MESSAGE
        # both members enter step 3 at 50; after it member 0 is out with a
        # NaN row and member 1 goes on
        assert seen[3] == (3, [[50.0], [50.0]])
        assert len(seen) == 11 and all(math.isnan(x[0][0]) for t, x in seen[4:])
        assert seen[4][0] == 4 and seen[4][1][1] == [50.0]


def same_run(a, b) -> bool:
    """Every column of two trajectories equal in dtype, shape and bytes, the
    telemetry's included."""
    if a.telemetry.keys() != b.telemetry.keys():
        return False
    pairs = [(getattr(a, f.name), getattr(b, f.name)) for f in fields(Trajectory)
             if f.name != "telemetry"]
    pairs += [(a.telemetry[k], b.telemetry[k]) for k in a.telemetry]
    return all((u is None and v is None) or (
        u is not None and v is not None and u.dtype == v.dtype
        and u.shape == v.shape and u.tobytes() == v.tobytes()) for u, v in pairs)


def outcome(run):
    """The trajectory of a run, or its divergence as (step, message)."""
    try:
        return run()
    except SimulationDiverged as exc:
        return exc.step, str(exc)


class RowForm(PlantModel):
    """A vector plant seen through a (1, d) state, with array results:
    ``simulate`` steps it as it steps the pack, and its riding currents go
    to the numpy selector."""

    def __init__(self, plant: PlantModel):
        self.plant = plant
        self.output_count = plant.output_count

    def advance(self, state, u):
        y, x = self.plant.advance(state[0], u)
        return np.array(y, dtype=float), np.array([x], dtype=float)

    def riding_currents(self, state, y_bar):
        return np.array(self.plant.riding_currents(state[0], y_bar), dtype=float)

    def telemetry(self, states, u, y):
        return self.plant.telemetry(states[:, 0], u, y)


def in_both_forms(run, model, x0):
    """The outcome of ``run(model, x0)``, then that of the same run of the
    plant in its row form, the state's added axis dropped."""
    first = outcome(lambda: run(model, x0))
    second = outcome(lambda: run(RowForm(model), x0[None]))
    if isinstance(second, Trajectory):
        second = replace(second, states=second.states[:, 0])
    return first, second


class TestLoopBodies:
    """The one loop of ``simulate`` on a vector state's float lists against
    the same loop on arrays, through ``RowForm``: the same columns bit for
    bit, the same failures at the same steps."""

    @pytest.mark.parametrize("name", ["toy", "ecm", "spmet"])
    def test_same_columns(self, name, scenarios):
        built = scenarios[name]
        spec, t_f = built.spec, built.cfg.t_f
        for run in (lambda m, x0: run_closed_loop(m, built.controller, spec, t_f, x0),
                    lambda m, x0: oracle_trajectory(m, spec, t_f, x0)):
            fast, ref = in_both_forms(run, built.model, built.x0)
            assert same_run(fast, ref)

    @pytest.mark.parametrize("fault", sorted(GUARD_MESSAGES))
    @pytest.mark.parametrize("kind", ["closed-loop", "oracle", "replay"])
    def test_same_faults(self, kind, fault):
        model = FaultyToy(fault, 7)
        fast, ref = in_both_forms(lambda m, x0: faulty_run(kind, m, x0), model,
                                  model.initial_state())
        assert fast == ref == (7, f"simulation diverged at step 7: {GUARD_MESSAGES[fault]}")

    def test_same_guard_order(self):
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        with guard(100.0):
            fast, ref = in_both_forms(lambda m, x0: simulate(
                m, spec, 10, x0, lambda t, x: TestGuardOrder.input_of(t), lambda t, y: 1),
                Growth(TestGuardOrder.G[0], TestGuardOrder.C[0]), np.zeros(1))
        assert fast == ref == (3, TestGuardOrder.MESSAGE)

    @pytest.mark.parametrize("name, kind", [("toy", list), ("pack", np.ndarray)])
    def test_state_shape_picks_the_body(self, name, kind, scenarios):
        built, seen = scenarios[name], []
        simulate(built.model, built.spec, 0, built.x0, lambda t, x: 0.0,
                 lambda t, y: seen.append(type(y)) or 1)
        assert seen == [kind]


def run_outcome(run):
    """A run's trajectory, or the type, step and message of what it raised."""
    try:
        return run()
    except Exception as exc:    # the loop re-raises the policy's and plant's own
        return type(exc), getattr(exc, "step", None), str(exc)


def against_reference_loop(run):
    """The outcome of ``run()``, then that of the same run with every
    ``simulate`` replaced by ``references.reference_simulate``."""
    fast, calls = run_outcome(run), []

    def counted(*args, **kwargs):
        calls.append(None)
        return reference_simulate(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        for module in (controller_module, oracle_module, references):
            patch.setattr(module, "simulate", counted)
        ref = run_outcome(run)
    assert calls == [None]
    return fast, ref


INPUT_FAULTS = {"nan-input": math.nan, "input-past-guard": -2e9}


@st.composite
def faulty_toy_runs(draw):
    """A toy of random gains with a fault at a random step, the first and
    the last included, under a closed loop of random gains, the oracle or a
    replay of random inputs; large weights make the active error's square
    overflow, or the weighted errors infinite."""
    t_f = draw(st.integers(0, 300))
    k = draw(st.sampled_from([0, t_f]) | st.integers(0, t_f))
    fault = draw(st.sampled_from(["none", "domain-error", *GUARD_MESSAGES, *INPUT_FAULTS]))
    p = draw(st.integers(1, 2))
    gains = dict(a=draw(st.floats(-1.2, 1.2)), b=draw(st.floats(0.1, 2.0)),
                 c=draw(st.floats(-2.0, 2.0)), d=draw(st.floats(0.1, 2.0)), p=p)
    model = FaultyToy(fault, k, **gains)
    spec = ConstraintSpec(y_bar=[10.0, 5.0][:p],
                          gamma=[draw(st.floats(0.01, 1.0) | st.sampled_from([1e153, 1e300]))
                                 for _ in range(p)])
    x0 = model.initial_state(draw(st.floats(-3.0, 3.0)))
    kind = draw(st.sampled_from(["closed-loop", "oracle", "replay"]))
    if kind == "closed-loop":
        controller = ControllerState(**draw(controllers()))
        return lambda: run_closed_loop(model, controller, spec, t_f, x0)
    if kind == "oracle":
        return lambda: oracle_trajectory(model, spec, t_f, x0)
    u_seq = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 12.0, t_f + 1)
    u_seq[k] = INPUT_FAULTS.get(fault, u_seq[k])
    return lambda: replay_open_loop(model, spec, x0, u_seq)


class TestRecordingMatchesReference:
    """``simulate`` gathers a single cell's values per step and copies them
    into the columns once; ``references.reference_simulate`` writes each
    value at its step. Every column, dtype, failure, step and message of the
    two are equal."""

    @settings(max_examples=150, deadline=None)
    @given(run=faulty_toy_runs())
    def test_toy_runs(self, run):
        fast, ref = against_reference_loop(run)
        assert same_run(fast, ref) if isinstance(fast, Trajectory) else fast == ref

    @pytest.mark.parametrize("name", ["spmet", "ecm", "pack"])
    @pytest.mark.parametrize("kind", ["closed-loop", "oracle"])
    @settings(max_examples=8, deadline=None)
    @given(t_f=st.sampled_from([0, 1]) | st.integers(0, 40))
    def test_packaged_runs(self, name, kind, t_f, scenarios):
        built = scenarios[name]
        fast, ref = against_reference_loop(
            (lambda: run_closed_loop(built.model, built.controller, built.spec, t_f, built.x0))
            if kind == "closed-loop" else
            (lambda: oracle_trajectory(built.model, built.spec, t_f, built.x0)))
        assert isinstance(fast, Trajectory) and len(fast) == t_f + 1
        assert same_run(fast, ref)


class TestValidateMonotonicity:
    def test_identity_output_slope_one(self):
        model = ToyLinearPlant()
        rep = validate_monotonicity(model, [np.array([x]) for x in (0.0, 2.0)],
                                    np.linspace(0.0, 10.0, 5))
        assert rep.ok
        assert rep.min_slope[0] == pytest.approx(1.0)
        assert rep.min_slope[1] == pytest.approx(1.0)

    def test_ecm_h2_slope_exactly_one(self):
        model = EcmPlant(EcmParams(**ECM_KW))
        states = [np.array([0.0, 0.0, soc, 0.0]) for soc in (0.0, 0.4, 0.9)]
        rep = validate_monotonicity(model, states, np.linspace(0.0, 20.0, 7))
        assert rep.ok
        assert rep.min_slope[1] == pytest.approx(1.0, abs=1e-6)

    def test_ecm_h3_slope_matches_symbolic_derivative(self):
        # d h3 / du = b*dt*(v1 + v2) + 2*b*dt*Ro*u, evaluated on the sample
        params = EcmParams(**ECM_KW)
        model = EcmPlant(params)
        rng = np.random.default_rng(5)
        states = [np.array([rng.uniform(0, 2), rng.uniform(0, 2),
                            rng.uniform(0, 1), rng.uniform(0, 8)])
                  for _ in range(6)]
        u_grid = np.linspace(0.0, 15.0, 6)
        bdt = params.b * params.dt
        expected = min(bdt * (x[0] + x[1]) + 2.0 * bdt * params.r_o * u
                       for x in states for u in u_grid)
        rep = validate_monotonicity(model, states, u_grid)
        assert rep.min_slope[2] == pytest.approx(expected, rel=1e-3)
        assert rep.ok  # all sampled v1, v2, u are non-negative here

    def test_flags_non_monotone_output(self):
        class Decreasing(ToyLinearPlant):
            def advance(self, state, u):
                return [u, -u], list(map(float, state))

        rep = validate_monotonicity(Decreasing(), [np.zeros(1)], [0.0, 1.0])
        assert (rep.min_slope > 0.0).tolist() == [True, False]
        assert not rep.ok

    # the jump at u = 1 is met by the upper point of the last pair only, or
    # by both points of the pair at u = 2
    @pytest.mark.parametrize("u_grid", [[0.0, 1.0 - 1e-7], [0.0, 2.0]])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_output_fails_without_raising(self, value, u_grid):
        class Blowup(ToyLinearPlant):
            def advance(self, state, u):
                return [u, u if u < 1.0 else value], list(map(float, state))

        rep = validate_monotonicity(Blowup(), [np.zeros(1)], u_grid)
        assert rep.min_slope[0] > 0.0 and math.isnan(rep.min_slope[1])
        assert not rep.ok

    def test_empty_samples_rejected(self):
        model = ToyLinearPlant()
        with pytest.raises(ConfigurationError):
            validate_monotonicity(model, [], [0.0])


# finite floats, both zeros, both infinities and NaN
extreme_entries = (st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, math.nan])
                   | st.sampled_from([math.inf, -math.inf]))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(extreme_entries, min_size=1, max_size=90),
       form=st.sampled_from(["1-D", "rows", "transposed"]), k=st.integers(1, 5))
def test_extreme_reads_max_and_min(values, form, k):
    # bit for bit ndarray.max and .min, NaN included, on 1-D arrays, (n, k)
    # rows and their transposed views; a zero extreme is the first zero in
    # memory order, where ndarray.max and .min may give the other sign
    a = np.array(values)
    if form != "1-D":
        a = np.resize(a, (-(-len(values) // k), k))
        if form == "transposed":
            a = a.T
    memory = a.ravel("K")
    for smallest, reference in ((False, a.max()), (True, a.min())):
        value = _extreme(a, smallest)
        assert type(value) is float
        if value == 0.0:
            first = memory[memory == 0.0][0]
            assert reference == 0.0 and same_bits(value, first)
        else:
            assert same_bits(value, reference)


class TestEarliestFailure:
    """At step 2 the active error squares to overflow, or is non-finite under
    an infinite guard; ``simulate`` checks both after the loop. At step 3 the
    run fails a second way: the plant raises its own error, or its outputs
    fail the guard (NaN). The run reports step 2, with that step's message."""

    FIRST = {"overflow": (-1e155, "squared active error overflowed"),
             "non-finite": (-math.inf, "non-finite weighted errors")}

    class Breaking(ScriptedPlant):
        def advance(self, x, u):
            if int(x[0]) == 3:
                raise PotentialDomainError("advance: outside its domain at step 3")
            return super().advance(x, u)

    def run(self, errors: np.ndarray, then: str, form: str):
        model = (self.Breaking if then == "plant error" else ScriptedPlant)(errors)
        spec, x0 = model.spec(), np.zeros(1)
        if form == "rows":
            model, x0 = RowForm(model), np.zeros((1, 1))
        with guard(math.inf):
            return simulate(model, spec, 5, x0, lambda t, x: 0.0,
                            lambda t, y: active_index(constraint_errors(spec, y)))

    @pytest.mark.parametrize("form", ["vector", "rows"])
    @pytest.mark.parametrize("then", ["plant error", "guard"])
    @pytest.mark.parametrize("first", sorted(FIRST))
    def test_first_failing_step_is_reported(self, first, then, form):
        value, message = self.FIRST[first]
        errors = np.zeros((6, 2))
        errors[3, 0] = math.nan     # outputs (NaN, 0): the guard fails
        # step 3 alone fails its own way; the plant's domain error diverges there
        with pytest.raises(SimulationDiverged) as err:
            self.run(errors, then, form)
        assert err.value.step == 3
        if then == "guard":
            assert str(err.value) == "simulation diverged at step 3: non-finite outputs"
        else:
            assert isinstance(err.value.__cause__, PotentialDomainError)
            assert str(err.value) == ("simulation diverged at step 3: "
                                      "advance: outside its domain at step 3")
        errors[2, 1] = value
        with pytest.raises(SimulationDiverged) as err:
            self.run(errors, then, form)
        assert (err.value.step, str(err.value)) == (
            2, f"simulation diverged at step 2: {message}")

    @pytest.mark.parametrize("steps", [5, 50])
    def test_overflowing_cost_of_the_cli_run(self, steps, tmp_path, capsys):
        # the controller carries the overflowing error into step 1, whose
        # input fails the guard: the run still reports step 0
        from bangride.cli import main
        assert main(["simulate", "--config", "toy", "--steps", str(steps),
                     "--gamma", "1e155,1e155", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.endswith(
            "diverged at step 0: squared active error overflowed\n")
