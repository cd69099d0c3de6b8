import ast
import copy
import importlib
import importlib.util
import inspect
import math
import re
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bangride import (ConfigurationError, ConstraintSpec, ControllerState,
                      EcmParams, EcmPlant, PlantModel, RootConfig,
                      RootFindingError, SimulationDiverged, ToyLinearPlant,
                      Trajectory, oracle_trajectory, perturb_params, project_box,
                      run_closed_loop, step_size)
import bangride
from bangride import analysis, oracle, plant
from bangride.analysis import (_min_norm_rows, attach_per_step_optima,
                               ct_ratio_sign_changes, ct_series, mu_star, regret)
from bangride.models.ecm import EcmEnsemble
from conftest import guard
from ecm_study import ecm_study
from gradient_check import GradientSignCheck, gradient_sign_check
from references import (ReferenceController, ct_diagnostic, loop_output_rows,
                        min_norm_on_line_in_box, output, per_step_optimal_cost,
                        replay_open_loop)

ECM_KW = dict(r_o=0.05, r_1=0.15, r_2=0.35, c_1=1000.0, c_2=1700.0,
              q=12000.0, a=0.002, b=7.5e-4, ocv0=3.0, ocv_slope=3.0, dt=1.0)
ECM_SPEC = dict(y_bar=[10.0, 12.0, 8.0], gamma=[1.0, 1.0, 500.0])


def test_analysis_imports_no_model_module():
    # the analysis layer reads plants through the plant contract only; its
    # callers build the models
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(analysis))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), "bangride")
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert "bangride.oracle" in imported
    assert not [name for name in imported
                if name == "bangride.models" or name.startswith("bangride.models.")]


def test_public_surface():
    # every export resolves, and the scalar references live beside the tests
    assert all(hasattr(bangride, name) for name in bangride.__all__)
    moved = ("replay_open_loop", "per_step_optimal_cost", "PerStepOptimum",
             "ct_diagnostic")
    assert not [name for module in (plant, analysis) for name in moved
                if hasattr(module, name)]
    assert not [name for module in (bangride, oracle)
                for name in ("solve_constraint", "FeedbackValue")
                if hasattr(module, name)]
    # the optima read the plant's riding currents: bisection is a test
    # reference (tests/references.py), and no module under src/ names it
    assert list(inspect.signature(attach_per_step_optima).parameters) == [
        "trajectory", "model", "spec", "theta_lo", "theta_hi"]
    sources = [path.read_text(encoding="utf-8")
               for path in Path(bangride.__file__).parent.rglob("*.py")]
    assert len(sources) >= 10
    assert not [name for name in ("bisected_roots", "bisect_rows")
                if any(name in text for text in sources)]
    # the pack's spread constraint has one layout; the all-pairs one is a
    # test reference (references.AllPairsPack)
    assert not [name for name in ("pairwise_mode", "all-pairs", "pair_roots")
                if any(name in text for text in sources)]
    assert not hasattr(plant.RootConfig, "max_iter")
    # the controller's one stepping function is run_closed_loop, which does its
    # float arithmetic inline; the numpy reference is tests/references.py
    assert not [name for name in ("constraint_errors", "active_index")
                if hasattr(bangride.controller, name) or hasattr(bangride, name)]
    assert not [name for name in ("control", "control_gradient", "gradient", "update")
                if hasattr(ControllerState, name)]
    # one post-loop check (Trajectory.from_columns) finishes every run; the
    # scalar selector is a test reference, and the controller holds settings only
    assert not [name for name in ("_oracle_run", "check_e", "selector", "SelectorResult")
                if any(re.search(rf"\b{name}\b", text) for text in sources)]
    assert not {"error_sum", "last_error", "t"} & {f.name for f in fields(ControllerState)}
    # the pack's output_rows gathers from whole rows, a built scenario holds
    # its one controller, and the plant contract has no state dimension
    assert not [name for name in ("_cell_temperatures", "def voltages", "def temperatures",
                                  "new_controller", "state_dim")
                if any(name in text for text in sources)]
    # the corner-touch rows are vectorized, the scalar minimum-norm point is a
    # test reference, and the analysis records hold only fields a command reads
    assert not [text for text in sources if "_min_norm_on_line_in_box" in text]
    # a run keeps its active errors, not the (n, p) block, and simulate weighs
    # no errors: only the controller does
    removed = {analysis.ViolationStats: ("per_constraint_max_depth", "oracle_objective",
                                         "runs_with_violation", "diverged_runs"),
               analysis.ModelOutcome: ("any_violation", "index"),
               analysis.RegretReport: ("mu1", "epsilon"),
               Trajectory: ("e",)}
    assert not [(record.__name__, name) for record, names in removed.items()
                for name in names if name in {f.name for f in fields(record)}]
    assert "e_active" in {f.name for f in fields(Trajectory)}
    assert not re.search(r"\bdef weigh\b|spec\.gamma", inspect.getsource(plant.simulate))


def test_writers_name_no_channel():
    # a plant states what the writers draw from its telemetry (its plots,
    # csv_block and output_names), so the writers name no channel and no
    # plant, and keep no table of channels
    from bangride import csvio, svg
    texts = [Path(module.__file__).read_text(encoding="utf-8") for module in (csvio, svg)]
    names = ("v_pack", "t_max", "t_min", "dt_max", "v_dynamic", "V_pack", "depth_voltage",
             "EcmPlant", "SpmetPlant", "PackPlant", "ToyLinearPlant")
    assert not [name for name in names if any(name in text for text in texts)]
    assert not [name for name in ("PACK_CHANNELS", "_has_pack_channels") if hasattr(csvio, name)]
    assert not [name for name in ("CHANNELS", "_channels", "plottable") if hasattr(svg, name)]


def test_cli_imports_no_model_module():
    # montecarlo asks the scenario's plant for its perturbed family, so the
    # commands name no concrete model
    tree = ast.parse((Path(bangride.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):   # cli's relative imports are from bangride
            base = ".".join(filter(None, ["bangride" if node.level else "", node.module]))
            imported += [f"{base}.{alias.name}" for alias in node.names]
    assert "bangride.analysis.robustness_study" in imported
    assert not [name for name in imported if name.startswith("bangride.models")]


def test_config_compares_no_model_name():
    # the plant states its own bounds and start, so building a scenario
    # branches on no plant
    tree = ast.parse((Path(bangride.__file__).parent / "config.py").read_text(encoding="utf-8"))
    compared = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Compare)
                and any(isinstance(side, ast.Attribute) and side.attr == "model"
                        and isinstance(side.value, ast.Name) and side.value.id == "cfg"
                        for side in (node.left, *node.comparators))]
    assert compared == []


def resolves(path: str) -> bool:
    """A dotted path names a module, or an attribute of its longest
    importable prefix."""
    parts = path.split(".")
    for k in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ImportError:
            continue
        for part in parts[k:]:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True
    return False


def test_readme_paths_resolve():
    # every backticked bangride.<name> path in README still exists
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    paths = set(re.findall(r"`(bangride(?:\.\w+)+)`", readme))
    assert len(paths) >= 6
    assert [path for path in sorted(paths) if not resolves(path)] == []
    assert not resolves("bangride.oracle.selector")


def toy_run(t_f=300, gamma=0.2):
    model = ToyLinearPlant()
    spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[gamma, gamma])
    cs = ControllerState()
    traj = run_closed_loop(model, cs, spec, t_f, model.initial_state())
    return model, spec, cs, traj


class TestPerStepOptimum:
    def test_reachable_riding_value_gives_zero(self):
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        # statistics that allow u = 5 - x = 3 inside the box image
        opt = per_step_optimal_cost(model, np.array([2.0]), spec,
                                    last_error=1.0, error_sum=10.0,
                                    theta_lo=np.zeros(2), theta_hi=np.array([10.0, 1.0]),
                                    i_star=2)
        assert opt.j_star == pytest.approx(0.0, abs=1e-10)
        assert opt.u_star == pytest.approx(3.0, abs=1e-6)
        # theta* reproduces the optimal current and lies in the box
        assert opt.theta_star @ np.array([1.0, 10.0]) == pytest.approx(3.0, abs=1e-6)

    def test_singleton_box_returns_realized_cost(self):
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        theta = np.array([0.3, 0.2])
        le, es = 0.8, 4.0
        u = float(theta @ [le, es])
        expected = (5.0 - (2.0 + u)) ** 2
        opt = per_step_optimal_cost(model, np.array([2.0]), spec, le, es,
                                    theta, theta, i_star=2)
        assert opt.j_star == pytest.approx(expected, rel=1e-12)
        assert np.allclose(opt.theta_star, theta)

    def test_degenerate_statistics_flagged(self):
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        lo, hi = np.zeros(2), np.array([10.0, 1.0])
        opt = per_step_optimal_cost(model, np.array([1.0]), spec, 0.0, 0.0,
                                    lo, hi, i_star=2)
        assert opt.u_star == 0.0
        assert np.array_equal(opt.theta_star, project_box(np.zeros(2), lo, hi))
        assert opt.j_star == pytest.approx((5.0 - 1.0) ** 2)

    @pytest.mark.parametrize("i_star,le,es,x", [
        (2, 0.5, 2.0, [0.3, 0.4, 0.2, 1.0]),
        (3, -0.2, 6.0, [0.8, 1.2, 0.5, 6.5]),
        (1, 1.5, 40.0, [0.1, 0.1, 0.1, 0.5]),
        (2, 0.0, 0.5, [1.4, 2.2, 0.9, 4.0]),
    ])
    def test_matches_200x200_grid_search(self, i_star, le, es, x):
        # brute-force minimum with one-step plant re-simulation per grid point
        model = EcmPlant(EcmParams(**ECM_KW))
        spec = ConstraintSpec(**ECM_SPEC)
        lo, hi = np.zeros(2), np.array([10.0, 1.0])
        x = np.array(x)
        opt = per_step_optimal_cost(model, x, spec, le, es, lo, hi, i_star)
        th1 = np.linspace(lo[0], hi[0], 200)
        th2 = np.linspace(lo[1], hi[1], 200)
        gamma_i = float(spec.gamma[i_star - 1])
        y_bar_i = float(spec.y_bar[i_star - 1])
        best = math.inf
        for a in th1:
            u_row = a * le + th2 * es
            for u in u_row:
                err = gamma_i * (y_bar_i - output(model, x, float(u), i_star - 1))
                best = min(best, err * err)
        assert opt.j_star <= best + 1e-9
        # grid resolution bound: the optimum cannot be far below the grid best
        assert best - opt.j_star <= max(1e-6, 1e-3 * max(best, 1.0))

    def test_optimum_never_exceeds_realized_cost(self):
        model, spec, cs, traj = toy_run(400)
        traj = attach_per_step_optima(traj, model, spec, cs.theta_lo, cs.theta_hi)
        assert np.all(traj.J_star <= traj.J + 1e-9)

    def test_oracle_trajectory_rejected(self):
        from bangride import oracle_trajectory
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        traj = oracle_trajectory(model, spec, 10, model.initial_state())
        with pytest.raises(ConfigurationError):
            attach_per_step_optima(traj, model, spec, np.zeros(2), np.ones(2))


def scalar_optima(traj, model, spec, lo, hi, **kw):
    """The per-step reference: ``per_step_optimal_cost`` at every step, with
    the history statistics accumulated as the controller does. A
    ``RootFindingError`` gets the failing step as ``step``."""
    j_star, theta_star, le, es = [], [], 0.0, 0.0
    steps = zip(traj.i_star.tolist(), traj.e_active.tolist())
    for t, (i_star, e_active) in enumerate(steps):
        try:
            opt = per_step_optimal_cost(model, traj.states[t], spec, le, es,
                                        lo, hi, i_star, **kw)
        except RootFindingError as exc:
            exc.step = t
            raise
        j_star.append(opt.j_star)
        theta_star.append(opt.theta_star)
        le = e_active
        es += e_active
    return np.array(j_star), np.array(theta_star)


def scalar_ct(traj, model, spec):
    steps = zip(traj.u.tolist(), traj.i_star.tolist())
    return np.array([ct_diagnostic(model, traj.states[t], u, i_star,
                                   float(spec.gamma[i_star - 1]))
                     for t, (u, i_star) in enumerate(steps)])


def batched_optima(traj, model, spec, lo, hi, tol_u=RootConfig.tol_u,
                   tol_y=RootConfig.tol_y):
    """``attach_per_step_optima`` with ``RootConfig``'s tolerances set to
    those passed to the scalar reference."""
    with mock.patch.object(RootConfig, "tol_u", tol_u), \
            mock.patch.object(RootConfig, "tol_y", tol_y):
        return attach_per_step_optima(traj, model, spec, lo, hi)


def assert_batched_equals_scalar(traj, model, spec, lo, hi, **kw):
    """Exact equality of J_star, theta_star (signs of zeros included) and
    c_t with the per-step references; where the scalar loop raises, the
    batched run raises too and names the step the loop stopped at."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    assert np.array_equal(ct_series(traj, model, spec), scalar_ct(traj, model, spec))
    try:
        j_ref, theta_ref = scalar_optima(traj, model, spec, lo, hi, **kw)
    except RootFindingError as exc:
        with pytest.raises(RootFindingError, match=f"at step {exc.step} "):
            batched_optima(traj, model, spec, lo, hi, **kw)
        return None
    out = batched_optima(traj, model, spec, lo, hi, **kw)
    assert np.array_equal(out.J_star, j_ref)
    assert np.array_equal(out.theta_star, theta_ref)
    assert np.array_equal(np.signbit(out.theta_star), np.signbit(theta_ref))
    return out


def recorded_run(e_active, i_star, states, u, p):
    """A closed-loop trajectory carrying the given columns; the per-step
    optima read only the states, the active errors and indices, and c_t
    also the inputs."""
    n = len(e_active)
    return Trajectory(u=np.asarray(u, dtype=float), y=np.zeros((n, p)), e_active=e_active,
                      i_star=i_star, J=e_active ** 2, states=states,
                      theta=np.zeros((n, 2)))


errors = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))


@st.composite
def toy_cases(draw):
    """A random toy plant, its bounds, a gain box (possibly with negative
    lower corners or zero width) and a recorded run."""
    p = draw(st.sampled_from([1, 2]))
    model = ToyLinearPlant(a=draw(st.floats(-2.0, 2.0)), b=draw(st.floats(0.05, 5.0)),
                           c=draw(st.floats(-2.0, 2.0)), d=draw(st.floats(0.05, 5.0)), p=p)
    y_bar = [draw(st.floats(0.5, 20.0))] + [draw(st.floats(-10.0, 20.0))] * (p - 1)
    spec = ConstraintSpec(y_bar=y_bar, gamma=[draw(st.floats(0.05, 5.0)) for _ in range(p)])
    lo = np.array([draw(st.floats(-5.0, 5.0)), draw(st.floats(-2.0, 2.0))])
    hi = lo + np.array([draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
                        for _ in range(2)])
    e_active = np.array(draw(st.lists(errors, min_size=1, max_size=60)))
    n = len(e_active)
    i_star = np.array(draw(st.lists(st.integers(1, p), min_size=n, max_size=n)))
    states = np.array(draw(st.lists(st.floats(-20.0, 20.0), min_size=n,
                                    max_size=n)))[:, None]
    u = draw(st.lists(st.floats(-20.0, 20.0), min_size=n, max_size=n))
    # looser current and tighter error tolerances make each half of the
    # bisection's stop rule decide in turn
    tol = dict(tol_u=draw(st.sampled_from([1e-9, 1e-4])),
               tol_y=draw(st.sampled_from([1e-6, 1e-10])))
    return model, spec, lo, hi, recorded_run(e_active, i_star, states, u, p), tol


class TestBatchedOptima:
    """``attach_per_step_optima`` and ``ct_series`` solve all steps at once;
    every row equals the per-step scalar reference exactly."""

    @settings(max_examples=200, deadline=None)
    @given(case=toy_cases())
    def test_random_toy_runs_match_scalar(self, case):
        model, spec, lo, hi, traj, tol = case
        assert_batched_equals_scalar(traj, model, spec, lo, hi, **tol)

    def test_every_branch_matches_scalar(self):
        # steps 0-1 have zero history, and the box's lower corner is
        # negative in both components; at step 2 the riding value lies
        # inside the current interval (bisection), at step 3 the error is
        # still positive at its top, at step 4 negative at its bottom, and
        # at step 5 exactly 0 at its top
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        lo, hi = np.array([-1.0, -0.5]), np.array([2.0, 1.0])
        states = np.array([[2.0], [1.0], [3.0], [-40.0], [60.0], [4.25]])
        traj = recorded_run(np.array([0.0, 1.0, 0.5, -3.0, 0.0, 0.0]), np.full(6, 2),
                            states, np.zeros(6), 2)
        out = assert_batched_equals_scalar(traj, model, spec, lo, hi)
        history = [(0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (0.5, 1.5), (-3.0, -1.5),
                   (0.0, -1.5)]
        u_star = [per_step_optimal_cost(model, states[t], spec, le, es, lo, hi, 2).u_star
                  for t, (le, es) in enumerate(history)]
        assert u_star[:2] == [0.0, 0.0]
        assert np.array_equal(out.theta_star[:2], np.zeros((2, 2)))
        assert -1.5 < u_star[2] < 3.0 and out.J_star[2] <= 1e-12
        assert u_star[3] == 2.5 and out.J_star[3] == (5.0 + 40.0 - 2.5) ** 2
        assert u_star[4] == -7.5 and out.J_star[4] == (5.0 - 60.0 + 7.5) ** 2
        assert u_star[5] == 0.75 and out.J_star[5] == 0.0

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(errors, errors, st.floats(-200.0, 200.0)),
                         min_size=1, max_size=20),
           lo=st.tuples(st.floats(-5.0, 5.0), st.floats(-2.0, 2.0)),
           width=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)))
    # both rows miss the box: the first along its flat direction, the
    # second along a tilted line, so the corner-touch rows run every time
    @example(rows=[(1.0, 0.0, 50.0), (1.0, 1.0, 100.0)], lo=(0.0, 0.0), width=(10.0, 1.0))
    def test_min_norm_rows_equal_scalar(self, rows, lo, width):
        # c ranges beyond the box image too, so that the corner-touch
        # fallback and the flat-direction branches run; both callers pass
        # only rows with s @ s != 0
        rows = ([r for r in rows if np.array(r[:2]) @ np.array(r[:2]) != 0.0]
                or [(1.0, 0.0, 50.0)])
        s, c = np.array([r[:2] for r in rows]), np.array([r[2] for r in rows])
        lo = np.array(lo)
        hi = lo + np.array(width)
        # a subnormal s @ s with such a c overflows in both; the rows agree
        with np.errstate(all="ignore"):
            theta = _min_norm_rows(s, c, lo, hi)
            refs = [min_norm_on_line_in_box(s[k], float(c[k]), lo, hi)
                    for k in range(len(rows))]
        for k, ref in enumerate(refs):
            assert np.array_equal(theta[k], ref)
            assert np.array_equal(np.signbit(theta[k]), np.signbit(ref))

    def test_history_too_small_to_square_counts_as_none(self):
        # s @ s underflows to 0: the current interval is 0 within rounding
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        lo, hi = np.zeros(2), np.array([10.0, 1.0])
        traj = recorded_run(np.array([1e-170, 0.0]), np.full(2, 2),
                            np.array([[1.0], [1.0]]), np.zeros(2), 2)
        out = assert_batched_equals_scalar(traj, model, spec, lo, hi)
        assert out.J_star[1] == (5.0 - 1.0) ** 2
        assert np.array_equal(out.theta_star[1], np.zeros(2))

    @settings(max_examples=100, deadline=None)
    @given(case=toy_cases(), index=st.lists(st.integers(0, 1), min_size=61, max_size=61))
    def test_toy_output_rows_equal_output(self, case, index):
        model, traj = case[0], case[4]
        n = len(traj)
        index = np.array(index[:n]) % model.output_count
        rows = model.output_rows(traj.states, traj.u, index)
        scalar = [model.advance(traj.states[k], u)[0][i]
                  for k, (u, i) in enumerate(zip(traj.u.tolist(), index.tolist()))]
        assert rows.tolist() == scalar
        assert np.array_equal(np.signbit(rows), np.signbit(scalar))

    @pytest.mark.parametrize("name", ["spmet", "ecm"])
    def test_free_runs_through_default_output_rows(self, name, scenarios, free_runs):
        # the plant's own output_rows set aside: the reference loop over advance
        built = scenarios[name]
        traj, _ = free_runs[name]
        model = copy.copy(built.model)
        model.output_rows = loop_output_rows.__get__(model)
        out = assert_batched_equals_scalar(traj, model, built.spec,
                                           built.cfg.theta_lo, built.cfg.theta_hi)
        assert out is not None

    @pytest.mark.parametrize("name", ["ecm", "pack"])
    def test_free_run_through_its_row_forms(self, name, scenarios, free_runs):
        # the plant's own output_rows and riding_rows over the whole packaged
        # run, which reaches its last constraint: the ECM's temperature, and
        # the pack's spread from step 614 on
        built = scenarios[name]
        traj, model = free_runs[name][0], built.model
        assert "output_rows" in vars(type(model))
        assert type(model).riding_rows is not PlantModel.riding_rows
        assert (traj.i_star == model.output_count).any()
        out = assert_batched_equals_scalar(traj, model, built.spec,
                                           built.cfg.theta_lo, built.cfg.theta_hi)
        assert out is not None

    @pytest.mark.parametrize("mu1", [0.3, 0.5, 0.7])
    def test_regret_runs_match_scalar(self, mu1, scenarios):
        # the runs of regret --steps 2000; at mu1 = 0.7 numpy's square of
        # one step's error rounds differently from Python's **
        built = scenarios["toy"]
        controller = replace(built.controller, mu1=mu1)
        traj = run_closed_loop(built.model, controller, built.spec, 2000, built.x0)
        out = assert_batched_equals_scalar(traj, built.model, built.spec,
                                           built.cfg.theta_lo, built.cfg.theta_hi)
        assert out is not None

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, 1e3])
    def test_bad_riding_current_names_the_step(self, bad):
        # a hook whose riding current is NaN, or lies outside the current
        # interval, from the state 0.5 on: no clamp, no NaN J_star, but the
        # error of the scalar reference at the first riding step past it
        class BrokenToy(ToyLinearPlant):
            riding_rows = PlantModel.riding_rows   # the loop over riding_currents

            def riding_currents(self, state, y_bar):
                roots = super().riding_currents(state, y_bar)
                return roots[:1] + [bad] if float(state[0]) >= 0.5 else roots

        model, spec, cs, traj = toy_run(300)
        broken = BrokenToy()
        with pytest.raises(RootFindingError) as exc:
            scalar_optima(traj, broken, spec, cs.theta_lo, cs.theta_hi)
        assert exc.value.step > 0
        with pytest.raises(RootFindingError, match=f"at step {exc.value.step} ") as err:
            attach_per_step_optima(traj, broken, spec, cs.theta_lo, cs.theta_hi)
        assert f"riding current {bad!r} of constraint 2" in str(err.value)


class TestBoxInvariant:
    @settings(max_examples=100, deadline=None)
    @given(e_active=st.lists(errors, min_size=1, max_size=80),
           lo=st.tuples(st.floats(-5.0, 5.0), st.floats(-2.0, 2.0)),
           width=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
           start=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           mu1=st.floats(0.05, 0.95),
           clip=st.one_of(st.none(), st.floats(0.01, 10.0)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_gains_and_theta_star_stay_in_box(self, e_active, lo, width, start,
                                              mu1, clip, seed):
        lo, width = np.array(lo), np.array(width)
        hi = lo + width
        cs = ReferenceController(theta=lo + np.array(start) * width, theta_lo=lo,
                                 theta_hi=hi, mu1=mu1, grad_clip=clip)
        for t, e in enumerate(e_active):
            cs.update(cs.gradient(e), step_size(t, mu1), e)
            assert np.all(lo <= cs.theta) and np.all(cs.theta <= hi)
        n = len(e_active)
        rng = np.random.default_rng(seed)
        traj = recorded_run(np.array(e_active), rng.integers(1, 3, n),
                            rng.uniform(-20.0, 20.0, (n, 1)), np.zeros(n), 2)
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[0.2, 0.2])
        out = attach_per_step_optima(traj, ToyLinearPlant(), spec, lo, hi)
        assert np.all(lo <= out.theta_star) and np.all(out.theta_star <= hi)


class TestRegret:
    def test_zero_gap_reports_converged(self):
        model, spec, cs, traj = toy_run(250)
        traj = replace(traj, J_star=traj.J.copy())  # J* == J everywhere
        report = regret(traj, 0.5)
        assert report.total == 0.0
        assert report.converged
        assert report.tail_slope is None

    def test_missing_jstar_rejected(self):
        _, _, _, traj = toy_run(50)
        with pytest.raises(ConfigurationError):
            regret(traj, 0.5)

    def test_cumulative_matches_recomputed_sum(self):
        model, spec, cs, traj = toy_run(500)
        traj = attach_per_step_optima(traj, model, spec, cs.theta_lo, cs.theta_hi)
        report = regret(traj, 0.5)
        assert np.allclose(np.cumsum(report.gaps), report.cumulative, rtol=0, atol=0)
        assert not np.any(report.gaps < -1e-6)

    def test_mu_star_reference_values(self):
        # optimal-exponent branches: 1/2 when the drift exponent is >= 1
        assert mu_star(0.5, math.inf) == 0.5
        assert mu_star(0.5, 1.0) == 0.5
        assert mu_star(0.5, 2.0) == 0.5
        # slower drift dominates: 1 + mu1 - mu2
        assert mu_star(0.5, 0.8) == pytest.approx(0.7)
        assert mu_star(0.3, math.inf) == pytest.approx(0.7)
        # drift exponent below 1: the best exponent is 1 - mu2/2 at mu1 = mu2/2
        mu2 = 0.8
        assert mu_star(mu2 / 2, mu2) == pytest.approx(1.0 - mu2 / 2)
        grid = np.linspace(0.01, 0.99, 99)
        assert min(mu_star(m, mu2) for m in grid) >= 1.0 - mu2 / 2 - 1e-12

    def test_tail_window_least_half_and_100(self):
        model, spec, cs, traj = toy_run(1000)
        traj = attach_per_step_optima(traj, model, spec, cs.theta_lo, cs.theta_hi)
        report = regret(traj, 0.5)
        assert report.tail_start <= len(traj) - 500


class TestCtDiagnostic:
    def test_identity_output_gives_two(self):
        model = ToyLinearPlant()
        assert ct_diagnostic(model, np.array([0.0]), 3.0, 1, 1.0) == pytest.approx(2.0)

    def test_ecm_voltage_output_gives_two_gamma(self):
        model = EcmPlant(EcmParams(**ECM_KW))
        x = np.array([0.5, 0.5, 0.4, 2.0])
        assert ct_diagnostic(model, x, 5.0, 2, 7.0) == pytest.approx(14.0, rel=1e-6)

    def test_positive_along_runs(self, scenarios, free_runs):
        for name in ("spmet", "ecm", "toy"):
            built = scenarios[name]
            traj, _ = free_runs[name]
            ct = ct_series(traj, built.model, built.spec)
            assert np.all(ct > 0.0), name

    def test_sign_change_counter(self):
        ct = np.array([1.0, 2.0, 1.0, 2.0, 1.0])
        alphas = np.ones(5)
        assert ct_ratio_sign_changes(ct, alphas) == 3
        assert ct_ratio_sign_changes(np.ones(5), alphas) == 0


class TestGradientSignCheck:
    def test_signs_agree_on_ecm_run(self):
        model = EcmPlant(EcmParams(**ECM_KW))
        spec = ConstraintSpec(**ECM_SPEC)
        cs = ControllerState(grad_clip=0.05)
        traj = run_closed_loop(model, cs, spec, 400, model.initial_state())
        res = gradient_sign_check(traj, model, spec)
        assert isinstance(res, GradientSignCheck)
        assert res.ok
        assert res.checked >= 400  # two components, some skipped
        assert res.ct_min > 0.0


class TestRobustnessStudy:
    def test_zero_fraction_no_violations(self):
        base = EcmParams(**ECM_KW)
        spec = ConstraintSpec(**ECM_SPEC)
        res = ecm_study(base, 5, 0.0, spec, 400, seed=3)
        st = res.stats
        assert st.runs_with_violation == 0
        assert all(np.all(o.max_depth <= 1e-6) for o in st.outcomes)
        assert all(o.suboptimality == 0.0 for o in st.outcomes)

    def test_violation_depth_grows_with_fraction(self):
        # median-over-models max depth increases along the fraction sweep
        base = EcmParams(**ECM_KW)
        spec = ConstraintSpec(**ECM_SPEC)
        medians = []
        for fraction in (0.02, 0.05, 0.1):
            res = ecm_study(base, 24, fraction, spec, 700, seed=5,
                            keep_series=False)
            depths = [float(o.max_depth.max()) for o in res.stats.outcomes
                      if o.max_depth is not None]
            medians.append(float(np.median(depths)))
        assert medians[0] < medians[1] < medians[2]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), fraction=st.floats(0.0, 0.3),
           n_models=st.integers(1, 6), t_f=st.integers(0, 150))
    def test_batched_matches_scalar(self, seed, fraction, n_models, t_f):
        # reference: every model alone through the scalar oracle and replay
        base = EcmParams(**ECM_KW)
        spec = ConstraintSpec(**ECM_SPEC)
        true_model = EcmPlant(base)
        x0 = true_model.initial_state()
        true_run = oracle_trajectory(true_model, spec, t_f, x0)
        objective = float(np.cumsum(true_run.telemetry["soc"])[-1])
        res = ecm_study(base, n_models, fraction, spec, t_f, seed)
        assert_same_fields(res.true_oracle, true_run)
        assert len(res.stats.outcomes) == n_models
        for k, o in enumerate(res.stats.outcomes):
            model = EcmPlant(perturb_params(base, fraction, (seed, k)))
            u_seq = oracle_trajectory(model, spec, t_f, x0).u
            run = replay_open_loop(true_model, spec, x0, u_seq)
            over = run.y - spec.y_bar[None, :]
            assert not o.diverged
            assert np.array_equal(o.u_seq, u_seq)
            assert np.array_equal(o.max_depth, np.maximum(over, 0.0).max(axis=0))
            assert o.violation_steps == int(np.any(over > 1e-6, axis=1).sum())
            assert o.suboptimality == objective - float(np.cumsum(run.telemetry["soc"])[-1])
            assert np.array_equal(o.temperature, run.telemetry["temperature"])


def assert_same_fields(a, b):
    """Two dataclass instances (runs, outcomes) hold equal fields, arrays and
    telemetry channels bit for bit."""
    for f in fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, dict):
            assert va.keys() == vb.keys(), f.name
            assert all(np.array_equal(va[key], vb[key]) for key in va), f.name
        elif isinstance(va, np.ndarray):
            assert np.array_equal(va, vb), f.name
        else:
            assert va == vb, f.name


class TestBatchedEnsemble:
    """The fused study pass against the scalar references, member by member:
    each model's oracle, its replay on the truth and the outcome reductions,
    and the true oracle. Members that fail leave the batch where the scalar
    runs fail, with their reasons, and the others go on."""

    BASE = EcmParams(**ECM_KW)
    SPEC = ConstraintSpec(**ECM_SPEC)
    PARAMS = [perturb_params(EcmParams(**ECM_KW), 0.3, (11, k)) for k in range(6)]

    def study(self, t_f, x0):
        return analysis.robustness_study(EcmPlant(self.BASE),
                                         [EcmPlant(p) for p in self.PARAMS], x0,
                                         self.SPEC, t_f)

    def scalar_runs(self, t_f, x0):
        """The true oracle and, per member, the outcome built from its scalar
        oracle and replay, or the stage that diverged and its error."""
        truth = EcmPlant(self.BASE)
        true_oracle = oracle_trajectory(truth, self.SPEC, t_f, x0)
        objective = float(np.cumsum(true_oracle.telemetry["soc"])[-1])
        runs = []
        for k, params in enumerate(self.PARAMS):
            try:
                ideal = oracle_trajectory(EcmPlant(params), self.SPEC, t_f, x0)
            except SimulationDiverged as exc:
                runs.append(("oracle", exc))
                continue
            try:
                replay = replay_open_loop(truth, self.SPEC, x0, ideal.u)
            except SimulationDiverged as exc:
                runs.append(("replay", exc))
                continue
            runs.append(analysis._replay_outcome(ideal.u, replay.y,
                                                 replay.states, truth, self.SPEC,
                                                 objective, True))
        return true_oracle, runs

    def assert_match(self, scalar, result):
        true_oracle, runs = scalar
        assert_same_fields(result.true_oracle, true_oracle)
        for ref, outcome in zip(runs, result.stats.outcomes, strict=True):
            if isinstance(ref, tuple):
                assert outcome.diverged
                assert outcome.failure.step == ref[1].step
                assert str(outcome.failure) == str(ref[1])
            else:
                assert_same_fields(outcome, ref)

    # guard 11.5 trips oracles at steps 79 and 96 of 98 (the true oracle's
    # trips at 99), guard 12.15 trips replays at steps 155, 155, 343 and 376
    # of 400 (voltage overshoot)
    @pytest.mark.parametrize("magnitude, t_f, stage", [(11.5, 98, "oracle"),
                                                       (12.15, 400, "replay")])
    def test_guard_failures_match_scalar(self, magnitude, t_f, stage):
        x0 = EcmPlant(self.BASE).initial_state()
        with guard(magnitude):
            scalar, result = self.scalar_runs(t_f, x0), self.study(t_f, x0)
        failed = [ref for ref in scalar[1] if isinstance(ref, tuple)]
        assert {s for s, _ in failed} == {stage}
        assert 1 <= len(failed) < len(self.PARAMS)
        assert len({exc.step for _, exc in failed}) > 1
        self.assert_match(scalar, result)

    def test_true_oracle_failure_raises_its_error(self):
        # at guard 11.5 the true oracle trips at step 99, after two models
        x0 = EcmPlant(self.BASE).initial_state()
        with guard(11.5):
            with pytest.raises(SimulationDiverged) as ref:
                oracle_trajectory(EcmPlant(self.BASE), self.SPEC, 100, x0)
            with pytest.raises(SimulationDiverged) as err:
                self.study(100, x0)
        assert (err.value.step, str(err.value)) == (ref.value.step, str(ref.value)) \
            == (99, "simulation diverged at step 99: |outputs| exceeded guard "
                    "magnitude 11.5")

    def test_true_oracle_error_overflow_raises_its_error(self):
        # a weight that overflows the temperature error: simulate's check
        spec = ConstraintSpec(y_bar=[10.0, 12.0, 8.0], gamma=[1.0, 1.0, 1e308])
        x0 = EcmPlant(self.BASE).initial_state()
        with pytest.raises(SimulationDiverged) as ref:
            oracle_trajectory(EcmPlant(self.BASE), spec, 5, x0)
        with pytest.raises(SimulationDiverged) as err:
            analysis.robustness_study(EcmPlant(self.BASE), [EcmPlant(self.BASE)], x0,
                                      spec, 5)
        assert (err.value.step, str(err.value)) == (ref.value.step, str(ref.value))

    def test_batch_layout_checked(self):
        truth = EcmPlant(self.BASE)
        with pytest.raises(ConfigurationError, match="at least one model"):
            analysis.robustness_study(truth, [], np.zeros(4), self.SPEC, 5)
        # the run checks of simulate, which the scalar oracle made
        models = [EcmPlant(self.BASE)] * 2
        with pytest.raises(ConfigurationError, match="t_f must be >= 0"):
            analysis.robustness_study(truth, models, np.zeros(4), self.SPEC, -1)
        short = ConstraintSpec(y_bar=self.SPEC.y_bar[:2], gamma=self.SPEC.gamma[:2])
        with pytest.raises(ConfigurationError, match="3 outputs but spec has 2"):
            analysis.robustness_study(truth, models, np.zeros(4), short, 5)

    def test_only_the_selecting_members_compute_riding_currents(self, monkeypatch):
        # the M models and the true oracle; a replaying copy applies its
        # model's current and needs no riding currents of its own
        rows = []
        riding = EcmEnsemble.riding_currents
        monkeypatch.setattr(EcmEnsemble, "riding_currents",
                            lambda self, x, y_bar: rows.append(len(x)) or riding(self, x, y_bar))
        self.study(20, EcmPlant(self.BASE).initial_state())
        monkeypatch.undo()
        assert rows == [len(self.PARAMS) + 1] * 21

    def test_negative_slope_start_needs_no_selector(self, monkeypatch):
        # v1 < 0 makes the temperature quadratic's slope negative, where the
        # hook takes its second form: the study still equals the scalar runs
        # and never falls back to the scalar selection, oracle._minimum
        x0 = np.array([-0.5, 0.0, 0.0, 0.0])
        calls = []
        minimum = oracle._minimum
        monkeypatch.setattr(oracle, "_minimum",
                            lambda *args: calls.append(1) or minimum(*args))
        result = self.study(50, x0)
        monkeypatch.undo()
        assert calls == []
        self.assert_match(self.scalar_runs(50, x0), result)
        for params in self.PARAMS:  # below the bound at u = 0: a finite root
            root = EcmPlant(params).riding_currents(x0, self.SPEC.y_bar)[2]
            assert 0.0 < root < math.inf
