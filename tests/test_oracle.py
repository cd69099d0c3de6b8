import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bangride import (ConfigurationError, ConstraintSpec, PackParams,
                      RootConfig, RootFindingError, SimulationDiverged,
                      ToyLinearPlant, oracle_trajectory)
from bangride.plant import PlantModel
from references import (AllPairsPack, bisected_roots, loop_output_rows, output,
                        per_constraint_roots, selector, selector_oracle, solve_constraint)


class StaticModel(PlantModel):
    """Stateless outputs defined by callables of u; for pinning K values.
    Its riding currents are bisected, through its rows of ``advance``."""

    output_rows = loop_output_rows

    def __init__(self, *fns):
        self.fns = fns
        self.output_count = len(fns)

    def advance(self, state, u):
        return [float(fn(u)) for fn in self.fns], list(map(float, state))

    def riding_currents(self, state, y_bar):
        return bisected_roots(self, state, y_bar).tolist()


def test_tolerances_are_constants():
    with pytest.raises(TypeError):
        RootConfig(tol_u=1e-6)


class TestSolveConstraint:
    def test_identity_output_root_is_bound(self):
        model = StaticModel(lambda u: u)
        fv = solve_constraint(model, np.zeros(1), 1, 56.3739, 112.7478)
        assert fv.value == pytest.approx(56.3739, abs=1e-6)
        assert abs(output(model, np.zeros(1), fv.value, 0) - 56.3739) <= RootConfig.tol_y

    def test_affine_root(self):
        model = StaticModel(lambda u: u, lambda u: 1.0 + u)
        fv = solve_constraint(model, np.zeros(1), 2, 4.2, 20.0)
        assert fv.value == pytest.approx(3.2, abs=1e-6)

    def test_unreachable_bound_gives_infinity(self):
        model = StaticModel(lambda u: u, lambda u: math.tanh(u))
        fv = solve_constraint(model, np.zeros(1), 2, 2.0, 50.0)
        assert fv.value == math.inf

    def test_violated_at_zero_flagged(self):
        model = StaticModel(lambda u: u, lambda u: 7.0 + u)
        fv = solve_constraint(model, np.zeros(1), 2, 5.0, 20.0)
        assert (fv.value, fv.iterations) == (0.0, 0)

    def test_bracket_invariant_through_iterations(self):
        # every current the bisection evaluates after the bracket ends lies
        # inside the bracket, which keeps the root between its ends
        def cube(u):
            return u ** 3 / 50.0

        def h(u):
            evaluated.append(u)
            return cube(u)

        evaluated: list = []
        model = StaticModel(lambda u: u, h)
        y_bar = 17.0
        fv = solve_constraint(model, np.zeros(1), 2, y_bar, 30.0)
        assert evaluated[:2] == [30.0, 0.0]
        assert len(evaluated) >= 32
        assert fv.value == evaluated[-1]
        lo, hi = 0.0, 30.0
        for u in evaluated[2:]:
            assert lo < u < hi
            assert cube(lo) <= y_bar <= cube(hi)
            lo, hi = (lo, u) if cube(u) > y_bar else (u, hi)

    def test_iterations_count_halvings(self):
        # FeedbackValue.iterations counts the midpoints evaluated
        def h(u):
            evaluated.append(u)
            return 0.4 * u + 0.02 * u ** 2

        model = StaticModel(lambda u: u, h)
        counts = []
        for y_bar in (4.0, 50.0, -1.0):  # a root, unreachable, violated at 0
            evaluated: list = []
            fv = solve_constraint(model, np.zeros(1), 2, y_bar, 30.0)
            counts.append((fv.iterations, len(evaluated)))
        (halvings, calls), unreachable, violated = counts
        assert halvings == calls - 2 >= 30
        assert unreachable == (0, 1) and violated == (0, 2)

    def test_iteration_cap_raises_with_diagnostics(self):
        # discontinuity jumping across the bound: the residual never converges
        model = StaticModel(lambda u: u, lambda u: 0.0 if u < 1.0 else 10.0)
        with pytest.raises(RootFindingError) as err:
            solve_constraint(model, np.zeros(1), 2, 5.0, 4.0)
        assert err.value.iterations == 200
        assert 0.0 <= err.value.lo <= err.value.hi <= 4.0


class FixedRoots(PlantModel):
    """A plant whose riding currents are given: a list, as a vector plant's,
    or an array, as the pack's."""

    def __init__(self, roots):
        self.roots, self.output_count = roots, len(roots)

    def advance(self, state, u):
        raise AssertionError("the selector reads riding_currents only")

    def riding_currents(self, state, y_bar):
        return self.roots


def same_float(a: float, b: float) -> bool:
    """Equal with the sign of zero, or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


root = st.sampled_from([-0.0, 0.0, 1.0, 2.0, math.inf, -math.inf, math.nan]) | st.floats()


@settings(max_examples=500, deadline=None)
@given(roots=st.lists(root, min_size=1, max_size=6),
       u_max=st.sampled_from([1.0, 2.0]) | st.floats(1e-300, 1e300))
def test_list_selector_equals_numpy_selector(roots, u_max):
    # the float selection of a list keeps np.maximum(r, 0.0) and argmin:
    # -0.0 becomes +0.0, the first NaN wins, u_max pins constraint 1, and
    # ties (the sampled 1.0 and 2.0 against each other and u_max) go to the
    # lowest index
    spec = ConstraintSpec(y_bar=[u_max] + [1.0] * len(roots), gamma=[1.0] * (len(roots) + 1))
    roots = [math.nan] + roots  # constraint 1's root is never read
    fast = selector(FixedRoots(roots), np.zeros(1), spec)
    ref = selector(FixedRoots(np.array(roots)), np.zeros(1), spec)
    assert fast.i_star == ref.i_star
    assert type(fast.u) is float and same_float(fast.u, ref.u)


class TestSelector:
    def test_minimum_of_feedback_values(self):
        model = StaticModel(lambda u: u,
                            lambda u: u - 16.37,          # root at 56.37
                            lambda u: u - 0.0,            # root at 40
                            lambda u: math.tanh(u) - 50)  # unreachable
        spec = ConstraintSpec(y_bar=[56.37, 40.0, 40.0, 0.5],
                              gamma=[1.0, 1.0, 1.0, 1.0])
        res = selector(model, np.zeros(1), spec)
        assert res.u == pytest.approx(40.0, abs=1e-6)
        assert res.i_star == 3

    def test_all_infinite_except_current_bound(self):
        model = StaticModel(lambda u: u,
                            lambda u: math.tanh(u),
                            lambda u: math.tanh(u) - 1.0)
        spec = ConstraintSpec(y_bar=[10.0, 5.0, 5.0], gamma=[1.0, 1.0, 1.0])
        res = selector(model, np.zeros(1), spec)
        assert res.u == 10.0
        assert res.i_star == 1

    def test_matches_grid_feasible_max(self):
        # largest u on a fine grid with all outputs within bounds
        model = StaticModel(lambda u: u,
                            lambda u: 0.4 * u + 0.02 * u ** 2,
                            lambda u: math.sinh(u / 4.0))
        spec = ConstraintSpec(y_bar=[10.0, 4.0, 3.0], gamma=[1.0, 1.0, 1.0])
        res = selector(model, np.zeros(1), spec)
        grid = np.linspace(0.0, 10.0, 10001)
        ys = np.stack([grid, 0.4 * grid + 0.02 * grid ** 2, np.sinh(grid / 4.0)])
        feasible = np.all(ys <= spec.y_bar[:, None] + RootConfig.tol_y, axis=0)
        u_grid = grid[feasible].max()
        assert res.u == pytest.approx(u_grid, abs=1e-3)

    def test_bisected_roots_cover_u_max_only(self):
        # every constraint violated at u_max is bisected on [0, u_max]; one
        # met there contributes +inf, one violated at zero 0
        currents = []

        class Counting(StaticModel):
            def advance(self, state, u):
                currents.append(u)
                return super().advance(state, u)

        model = Counting(lambda u: u, lambda u: u - 2.0, lambda u: u - 30.0,
                         lambda u: u + 7.0)
        spec = ConstraintSpec(y_bar=[10.0, 4.0, 1.0, 5.0], gamma=[1.0] * 4)
        roots = bisected_roots(model, np.zeros(1), spec.y_bar)
        assert roots[0] == 10.0 and roots[2] == math.inf and roots[3] == 0.0
        assert roots[1] == pytest.approx(6.0, abs=1e-9)
        # one advance call at u_max and one at zero current; the halvings
        # go through output_rows
        assert currents[:2] == [10.0, 0.0]
        assert currents.count(10.0) == currents.count(0.0) == 1
        res = selector(model, np.zeros(1), spec)
        assert (res.u, res.i_star) == (0.0, 4)

    def test_bisected_roots_read_the_bracket_top_off_outputs(self):
        # the bracket's top and bottom from one advance call each; the
        # roots equal the scalar bisection's
        currents = []

        class CountingToy(ToyLinearPlant):
            def advance(self, state, u):
                currents.append(u)
                return super().advance(state, u)

        model, spec = CountingToy(), ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        for x0 in (-10.0, -3.0, 0.0, 2.5, 12.0):
            x = np.array([x0])
            currents.clear()
            roots = bisected_roots(model, x, spec.y_bar)
            assert currents == [10.0, 0.0]
            assert roots.tobytes() == per_constraint_roots(ToyLinearPlant(), x, spec).tobytes()

    def test_spec_size_mismatch(self):
        model = StaticModel(lambda u: u)
        spec = ConstraintSpec(y_bar=[1.0, 2.0], gamma=[1.0, 1.0])
        with pytest.raises(ConfigurationError):
            selector(model, np.zeros(1), spec)


class TestOracleTrajectory:
    def test_integrator_matches_closed_form(self):
        # K2(x) = y_bar_2 - x for the integrator with h2 = x + u
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        traj = oracle_trajectory(model, spec, 30, model.initial_state())
        x = 0.0
        for u in traj.u:
            expected = min(10.0, 5.0 - x)
            assert u == pytest.approx(expected, abs=1e-6)
            x += u

    def test_riding_exactness_and_feasibility(self, scenarios, oracle_runs):
        # some constraint active to tolerance at every step; none violated
        for name in ("spmet", "ecm"):
            built = scenarios[name]
            traj = oracle_runs[name]
            gmax = float(np.max(built.spec.gamma))
            tol = built.root_cfg.tol_y
            errors = built.spec.gamma * (built.spec.y_bar - traj.y)
            for e, i_star in zip(errors, traj.i_star):
                assert e[i_star - 1] <= gmax * tol
                assert np.all(e >= -gmax * tol)

    def test_records_have_no_gains(self, oracle_runs):
        traj = oracle_runs["ecm"]
        assert traj.theta is None and traj.alpha is None

    def test_negative_horizon_rejected(self):
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        with pytest.raises(ConfigurationError):
            oracle_trajectory(model, spec, -2, model.initial_state())


def same_run(a, b) -> bool:
    """Every column and telemetry channel of two runs, bit for bit."""
    columns = ("u", "y", "e_active", "i_star", "J", "states")
    return (all(getattr(a, c).tobytes() == getattr(b, c).tobytes() for c in columns)
            and a.telemetry.keys() == b.telemetry.keys()
            and all(a.telemetry[k].tobytes() == b.telemetry[k].tobytes()
                    for k in a.telemetry))


def five_cell_pack(layout, base):
    """C10's five-cell pack with a 0.5 K spread bound, so that its 400-step
    oracle rides the pair phase for most of the run (at C10's 5 K it never
    does)."""
    plant = layout(PackParams(base=base, n_cells=5, k_left=8e-5,
                              k_right=8e-5, dt_pair_max=0.5,
                              cell_variation=0.3, variation_seed=11))
    spec = plant.constraints((10.0, 12.0, 35.0), (1.0, 1.0, 500.0, 500.0))
    return plant, spec, 400, plant.initial_state()


@pytest.mark.parametrize("case", ["toy", "ecm", "spmet", "pack", "all-pairs"])
def test_oracle_equals_a_selector_loop(case, scenarios, oracle_runs):
    # the oracle's own selection equals one public selector call per step:
    # the packaged runs, and a small pack in the all-pairs reference layout
    if case in scenarios:
        built = scenarios[case]
        run = oracle_runs[case]
        ref = selector_oracle(built.model, built.spec, built.cfg.t_f, built.x0)
    else:
        args = five_cell_pack(AllPairsPack, scenarios["pack"].model.params.base)
        run, ref = oracle_trajectory(*args), selector_oracle(*args)
    assert same_run(run, ref)


class NanRoots(ToyLinearPlant):
    """The integrator whose constraint-2 riding current is NaN from x = 2 on,
    as a list or, for numpy's selection, as an array."""

    def __init__(self, as_array: bool):
        super().__init__()
        self.as_array = as_array

    def riding_currents(self, state, y_bar):
        roots = super().riding_currents(state, y_bar)
        if float(state[0]) >= 2.0:
            roots[1] = math.nan
        return np.array(roots) if self.as_array else roots


@pytest.mark.parametrize("as_array", [False, True])
def test_nan_root_fails_both_paths_at_its_step(as_array):
    # u = min(1, 5 - x) brings x to 2 at step 2, whose NaN root is the input
    model = NanRoots(as_array)
    spec = ConstraintSpec(y_bar=[1.0, 5.0], gamma=[1.0, 1.0])
    errors = []
    for run in (oracle_trajectory, selector_oracle):
        with pytest.raises(SimulationDiverged) as err:
            run(model, spec, 10, model.initial_state())
        errors.append((err.value.step, str(err.value)))
    assert errors[0] == errors[1] == (2, "simulation diverged at step 2: "
                                         "non-finite input current")
