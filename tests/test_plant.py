import math

import numpy as np
import pytest

from bangride import (ConfigurationError, ConstraintSpec, ControllerState,
                      RootConfig, SimulationDiverged, ToyLinearPlant,
                      oracle_trajectory, replay_open_loop, run_closed_loop,
                      validate_monotonicity)
from bangride.models.ecm import EcmParams, EcmPlant
from bangride.plant import PlantModel, simulate, simulate_batch

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
        assert traj.t_f == 0
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
        for k, (t, u, y, e, i_star, th, alpha, J) in enumerate(expected):
            assert k == t
            assert traj.u[t] == u
            assert tuple(traj.y[t]) == y
            assert tuple(traj.e[t]) == e
            assert traj.i_star[t] == i_star
            assert tuple(traj.theta[t]) == th
            assert traj.alpha[t] == alpha
            assert traj.J[t] == J

    def test_step_indices_and_alpha_schedule(self):
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[0.2, 0.2])
        cs = ControllerState()
        traj = run_closed_loop(model, cs, spec, 9, model.initial_state())
        assert len(traj) == 10 and traj.t_f == 9
        assert traj.alpha[0] == 1.0
        assert traj.alpha[4] == 0.5

    def test_j_equals_active_error_squared(self):
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[0.3, 0.7])
        cs = ControllerState()
        traj = run_closed_loop(model, cs, spec, 40, model.initial_state())
        for t in range(len(traj)):
            assert traj.J[t] == traj.e[t, traj.i_star[t] - 1] ** 2
            assert traj.i_star[t] == int(np.argmin(traj.e[t])) + 1

    def test_errors_consistent_with_weights(self):
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[2.0, 0.5])
        cs = ControllerState()
        traj = run_closed_loop(model, cs, spec, 30, model.initial_state())
        assert np.array_equal(traj.e, spec.gamma * (spec.y_bar - traj.y))

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
        assert cs.error_sum == es

    def test_replay_reproduces_outputs_bit_for_bit(self):
        params = EcmParams(**ECM_KW)
        model = EcmPlant(params)
        spec = ConstraintSpec(y_bar=[10.0, 12.0, 8.0], gamma=[1.0, 1.0, 500.0])
        cs = ControllerState(grad_clip=0.05)
        traj = run_closed_loop(model, cs, spec, 500, model.initial_state())
        replay = replay_open_loop(model, spec, traj.x0, traj.u)
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
        with pytest.raises(SimulationDiverged) as err:
            run_closed_loop(model, cs, spec, 400, model.initial_state(),
                            guard=1e6)
        assert 0 <= err.value.step <= 400

    def test_stale_controller_rejected(self):
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        cs = ControllerState()
        run_closed_loop(model, cs, spec, 3, model.initial_state())
        with pytest.raises(ConfigurationError):
            run_closed_loop(model, cs, spec, 3, model.initial_state())


class FaultyToy(ToyLinearPlant):
    """Integrator whose state carries a step counter, so that it can fail at
    a chosen step k: NaN, inf or past-guard outputs, or a past-guard state.
    The scalar ``output`` stays finite, so the oracle's bisection still runs
    and the failure reaches the stepping loop."""

    state_dim = 2

    def __init__(self, fault: str, k: int):
        super().__init__()
        self.fault, self.k = fault, k

    def initial_state(self, x0: float = 0.0) -> np.ndarray:
        return np.array([float(x0), 0.0])

    def output(self, state, u, index):
        return float(super().outputs(state, u)[index])

    def outputs(self, state, u):
        y = super().outputs(state, u)
        if state[1] == self.k and self.fault in OUTPUT_FAULTS:
            y[1] = OUTPUT_FAULTS[self.fault]
        return y

    def step(self, state, u):
        x = np.array([super().step(state, u)[0], state[1] + 1.0])
        if state[1] == self.k and self.fault == "state-past-guard":
            x[0] = 2e9
        return x


OUTPUT_FAULTS = {"nan-outputs": np.nan, "inf-outputs": np.inf,
                 "outputs-past-guard": 5e9}
GUARD_MESSAGES = {"nan-outputs": "non-finite outputs",
                  "inf-outputs": "non-finite outputs",
                  "outputs-past-guard": "|outputs| exceeded guard magnitude 1e+09",
                  "state-past-guard": "|state| exceeded guard magnitude 1e+09"}


class TestDivergenceGuard:
    SPEC = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[0.2, 0.2])
    K = 7

    def run(self, kind: str, model: FaultyToy):
        x0 = model.initial_state()
        if kind == "closed-loop":
            return run_closed_loop(model, ControllerState(), self.SPEC, 20, x0)
        if kind == "oracle":
            return oracle_trajectory(model, self.SPEC, 20, x0,
                                     RootConfig())
        return replay_open_loop(model, self.SPEC, x0, np.full(21, 0.1))

    @pytest.mark.parametrize("fault", sorted(GUARD_MESSAGES))
    @pytest.mark.parametrize("kind", ["closed-loop", "oracle", "replay"])
    def test_fault_reported_at_its_step(self, kind, fault):
        with pytest.raises(SimulationDiverged) as err:
            self.run(kind, FaultyToy(fault, self.K))
        assert err.value.step == self.K
        assert str(err.value) == (f"simulation diverged at step {self.K}: "
                                  f"{GUARD_MESSAGES[fault]}")


class Growth(PlantModel):
    """x' = g*x + u with outputs (u, c*x): the state passes a guard first
    when g is large, the outputs when c is."""

    state_dim = 1
    output_count = 2

    def __init__(self, g, c):
        self.g, self.c = g, c

    def outputs(self, state, u):
        return np.array([u, self.c * state[0]])

    def step(self, state, u):
        return np.array([self.g * state[0] + u])


class GrowthBatch:
    """``Growth`` members stepped together: (M, 1) states."""

    output_count = 2

    def __init__(self, g, c):
        self.g, self.c = np.asarray(g), np.asarray(c)

    def take(self, keep):
        return GrowthBatch(self.g[keep], self.c[keep])

    def outputs(self, x, u):
        return np.stack([u, self.c * x[:, 0]], axis=1)

    def step(self, x, u):
        return (self.g * x[:, 0] + u)[:, None]


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
        batch = simulate_batch(
            GrowthBatch(self.G, self.C), 20, np.tile(x0, (5, 1)),
            lambda t, model, x, rows: np.array([self.input_of(k, t) for k in rows]),
            guard=100.0)
        steps = []
        for k, (g, c) in enumerate(zip(self.G, self.C)):
            try:
                traj = simulate(Growth(g, c), spec, 20, x0,
                                lambda t, x: self.input_of(k, t), lambda t, e: 1,
                                guard=100.0)
            except SimulationDiverged as exc:
                steps.append(exc.step)
                assert np.isnan(batch.u[exc.step:, k]).all()
                assert np.isnan(batch.states[exc.step + 1:, k]).all()
                continue
            steps.append(-1)
            assert np.array_equal(batch.u[:, k], traj.u)
            assert np.array_equal(batch.y[:, k], traj.y)
            assert np.array_equal(batch.states[:, k], traj.states)
        assert steps == [13, 8, 6, -1, 3]
        assert batch.failed.tolist() == steps


@pytest.mark.parametrize("name", ["spmet", "ecm", "pack", "toy"])
def test_output_is_an_entry_of_outputs(name, scenarios, free_runs, oracle_runs):
    # exactly, on states the packaged scenario visits, at the applied
    # current and across the current range
    built = scenarios[name]
    model, u_max = built.model, built.spec.u_max
    for traj in (free_runs[name][0], oracle_runs[name]):
        for t in np.linspace(0, len(traj) - 1, 20).astype(int):
            x = traj.states[t]
            for u in (float(traj.u[t]), 0.0, 0.5 * u_max, u_max):
                single = [model.output(x, u, i) for i in range(model.output_count)]
                assert single == model.outputs(x, u).tolist(), (int(t), u)


class TestValidateMonotonicity:
    def test_identity_output_slope_one(self):
        model = ToyLinearPlant()
        rep = validate_monotonicity(model, [model.initial_state(x) for x in (0.0, 2.0)],
                                    np.linspace(0.0, 10.0, 5))
        assert rep.ok
        assert rep.min_slope[0] == pytest.approx(1.0)
        assert rep.min_slope[1] == pytest.approx(1.0)

    def test_ecm_h2_slope_exactly_one(self):
        model = EcmPlant(EcmParams(**ECM_KW))
        states = [model.initial_state(s) for s in (0.0, 0.4, 0.9)]
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
        rep = validate_monotonicity(model, states, u_grid, delta=1e-7)
        assert rep.min_slope[2] == pytest.approx(expected, rel=1e-3)
        assert rep.ok  # all sampled v1, v2, u are non-negative here

    def test_flags_non_monotone_output(self):
        class Decreasing(ToyLinearPlant):
            def outputs(self, state, u):
                return np.array([u, -u])

            def output(self, state, u, index):
                return u if index == 0 else -u

        rep = validate_monotonicity(Decreasing(), [np.zeros(1)], [0.0, 1.0])
        assert rep.flagged == [2]
        assert not rep.ok

    def test_empty_samples_rejected(self):
        model = ToyLinearPlant()
        with pytest.raises(ConfigurationError):
            validate_monotonicity(model, [], [0.0])
