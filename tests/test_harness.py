import csv
import hashlib
import importlib.util
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bangride
from bangride import ConfigurationError, cli, oracle_trajectory, run_closed_loop, svg
from bangride.analysis import ModelOutcome, ViolationStats, attach_per_step_optima
from bangride.cli import main
from bangride.config import (MODEL_NAMES, ScenarioConfig, build_scenario,
                             load_scenario, params_path, save_scenario,
                             scenario_hash)
from bangride.csvio import (trajectory_header, write_gap_csv, write_montecarlo_summary,
                            write_trajectory_csv)
from bangride.errors import SimulationDiverged
from bangride.plant import Trajectory
from bangride.svg import emit_svg, quantity_series
from references import plain_gap_csv, plain_trajectory_csv, plain_x_template


def load_benchmark_workloads():
    """The benchmark's workloads and output checks (perfbench/workloads.py),
    imported without writing bytecode next to them."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses resolves annotations through it
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


BENCH = load_benchmark_workloads()


@pytest.fixture(scope="module")
def toy_traj():
    built = build_scenario(load_scenario("toy"))
    return run_closed_loop(built.model, built.controller, built.spec,
                           60, built.x0)


# an INI value cannot carry a comment prefix, a line break or outer whitespace
INI_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"),
                                 blacklist_characters="#;"),
                   max_size=12).filter(lambda text: text == text.strip())
NUMBER = st.floats(allow_nan=False)


def numbers(min_size: int, max_size: int):
    return st.lists(NUMBER, min_size=min_size, max_size=max_size).map(tuple)


class TestScenarioConfig:
    def test_packaged_names_load(self):
        for name in ("spmet", "ecm", "pack", "toy"):
            cfg = load_scenario(name)
            assert cfg.t_f > 0

    def test_round_trip_identity(self, tmp_path):
        for name in ("spmet", "ecm", "pack", "toy"):
            cfg = load_scenario(name)
            save_scenario(cfg, tmp_path / "c.cfg")
            assert load_scenario(tmp_path / "c.cfg") == cfg

    # scenario_hash pins the serialized format of each packaged scenario
    PACKAGED_HASH = {"spmet": "71a247280b5c32e1", "ecm": "5e71a54a87d4038e",
                     "pack": "8e9f7fc3eb162a20", "toy": "2f66e16ee46cceec"}

    @pytest.mark.parametrize("name", sorted(PACKAGED_HASH))
    def test_packaged_hash_pinned(self, name):
        assert scenario_hash(load_scenario(name)) == self.PACKAGED_HASH[name]

    @settings(max_examples=200, deadline=None)
    @given(cfg=st.builds(
        ScenarioConfig, model=st.sampled_from(MODEL_NAMES), params_file=INI_TEXT,
        t_f=st.integers(), seed=st.integers(), y_bar=numbers(1, 4),
        gamma=numbers(1, 4), theta0=numbers(2, 2), theta_lo=numbers(2, 2),
        theta_hi=numbers(2, 2), mu1=NUMBER, grad_clip=st.none() | NUMBER,
        compute_jstar=st.booleans(), ct_diagnostics=st.booleans(),
        out_dir=INI_TEXT))
    def test_save_then_load_is_identity(self, cfg, tmp_path_factory):
        path = tmp_path_factory.mktemp("round-trip") / "c.cfg"
        save_scenario(cfg, path)
        assert load_scenario(str(path)) == cfg

    def test_hash_stable_and_sensitive(self):
        a = load_scenario("ecm")
        b = load_scenario("ecm")
        assert scenario_hash(a) == scenario_hash(b)
        b.seed = 99
        assert scenario_hash(a) != scenario_hash(b)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(model="fuel-cell", y_bar=(1.0,), gamma=(1.0,))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigurationError):
            load_scenario("no-such-scenario")

    def test_bad_bounds_count_rejected(self):
        cfg = load_scenario("ecm")
        cfg.y_bar = (10.0, 12.0)
        with pytest.raises(ConfigurationError):
            build_scenario(cfg)

    @pytest.mark.parametrize("name, plant", [("ecm", "EcmPlant"), ("spmet", "SpmetPlant"),
                                             ("toy", "ToyLinearPlant")])
    def test_count_mismatch_names_the_plant_class(self, name, plant, scenarios):
        p = scenarios[name].model.output_count
        message = (f"^{plant} expects {p} bounds in y_bar and {p} weights in gamma, "
                   f"got {p + 1} and {p}$")
        with pytest.raises(ConfigurationError, match=message):
            scenarios[name].model.constraints((1.0,) * (p + 1), (1.0,) * p)
        cfg = replace(load_scenario(name), y_bar=(1.0,) * (p + 1))
        with pytest.raises(ConfigurationError, match=message):
            build_scenario(cfg)

    def test_pack_count_mismatch_names_its_families(self, scenarios):
        message = (r"^pack expects 3 family bounds \(u, cell V, cell dT\) in y_bar, "
                   r"4 weights \(u, V, dT, pair dT\) in gamma$")
        with pytest.raises(ConfigurationError, match=message):
            scenarios["pack"].model.constraints((10.0, 12.0), (1.0, 1.0, 500.0, 500.0))
        with pytest.raises(ConfigurationError, match=message):
            build_scenario(replace(load_scenario("pack"), gamma=(1.0, 1.0, 500.0)))


def read_trajectory_csv(path) -> dict[str, list[float | None]]:
    """A trajectory CSV's columns by name, every row as wide as the header;
    empty cells map to None."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert rows and {len(row) for row in rows} == {len(header)}
    return {name: [None if cell == "" else float(cell) for cell in column]
            for name, column in zip(header, zip(*rows))}


class TestTrajectoryCsv:
    def test_round_trip_12_significant_digits(self, toy_traj, tmp_path):
        path = write_trajectory_csv(toy_traj, {}, tmp_path / "t.csv")
        cols = read_trajectory_csv(path)
        u = toy_traj.u
        for k, v in enumerate(cols["u"]):
            assert v == pytest.approx(u[k], rel=1e-11, abs=1e-300)
        th = toy_traj.theta
        for k, v in enumerate(cols["theta_1"]):
            assert v == pytest.approx(th[k, 0], rel=1e-11, abs=1e-300)
        assert cols["J_star"] == [None] * len(toy_traj)

    def test_fixed_column_count(self, toy_traj, tmp_path):
        path = write_trajectory_csv(toy_traj, {}, tmp_path / "t.csv")
        lines = Path(path).read_text().splitlines()
        assert len(lines) == len(toy_traj) + 1
        p = toy_traj.y.shape[1]
        widths = {len(line.split(",")) for line in lines}
        assert widths == {9 + p}

    def test_newline_terminated_utf8(self, toy_traj, tmp_path):
        path = write_trajectory_csv(toy_traj, {}, tmp_path / "t.csv")
        raw = Path(path).read_bytes()
        assert raw.endswith(b"\n")
        raw.decode("utf-8")

    def test_pack_summary_channels(self, tmp_path):
        built = build_scenario(load_scenario("pack"))
        traj = run_closed_loop(built.model, built.controller, built.spec,
                               30, built.x0)
        path = write_trajectory_csv(traj, built.model.csv_block, tmp_path / "p.csv")
        cols = read_trajectory_csv(path)
        assert set(cols) >= {"V_pack", "T_max", "T_min", "dT_max"}

    def test_header_names(self, toy_traj):
        assert trajectory_header(toy_traj, {}) == [
            "t", "u", "y_1", "y_2", "e_active", "i_star",
            "theta_1", "theta_2", "alpha", "J", "J_star"]


class TestSvg:
    def test_deterministic_bytes(self, toy_traj, tmp_path):
        style = {"label": "run", "color": "#c22"}
        a = emit_svg([(toy_traj, style)], "current", (), tmp_path / "a.svg")
        b = emit_svg([(toy_traj, style)], "current", (), tmp_path / "b.svg")
        assert (hashlib.sha256(Path(a).read_bytes()).hexdigest()
                == hashlib.sha256(Path(b).read_bytes()).hexdigest())

    def test_unknown_quantity_lists_valid_names(self, toy_traj, tmp_path):
        with pytest.raises(ConfigurationError, match="current, voltage"):
            emit_svg([(toy_traj, {"label": "x"})], "entropy", (), tmp_path / "x.svg")

    def test_two_series_and_legend(self, tmp_path):
        built = build_scenario(load_scenario("ecm"))
        free = run_closed_loop(built.model, built.controller, built.spec,
                               40, built.x0)
        from bangride.oracle import oracle_trajectory
        oracle = oracle_trajectory(built.model, built.spec, 40, built.x0)
        path = emit_svg([(free, {"label": "model-free"}),
                         (oracle, {"label": "ideal", "dash": "6,4",
                                   "color": "#111"})],
                        "current", (), tmp_path / "c.svg")
        text = Path(path).read_text()
        assert text.count("<polyline") == 2
        assert "model-free" in text and "ideal" in text
        assert "current [A]" in text

    def test_pack_temperature_has_extrema_series(self, tmp_path):
        built = build_scenario(load_scenario("pack"))
        traj = run_closed_loop(built.model, built.controller, built.spec,
                               25, built.x0)
        series = quantity_series(traj, "temperature", built.model.plots["temperature"],
                                 label="pack")
        assert len(series) == 2


class TestPlantStatements:
    """The writers draw from a run's telemetry what its plant states."""

    @pytest.mark.parametrize("name", ["spmet", "ecm", "pack", "toy"])
    def test_statements_name_the_telemetry(self, name, scenarios):
        # each stated channel is reported, and each reported channel is
        # stated or belongs to the perturbed family's contract
        built = scenarios[name]
        model = built.model
        traj = run_closed_loop(model, built.controller, built.spec, 10, built.x0)
        stated = {key for keys in model.plots.values() for key in keys}
        stated |= set(model.csv_block.values())
        assert stated <= set(traj.telemetry)
        assert set(traj.telemetry) <= stated | {"soc", "temperature"}
        assert set(model.plots) <= set(svg.QUANTITIES) - {"current"}

    def test_two_output_summary(self, tmp_path):
        # one depth column per output name, and a diverged row as wide as
        # the header
        stats = ViolationStats(
            outcomes=[ModelOutcome(index=0, max_depth=np.array([0.0, 0.25]),
                                   violation_steps=3, suboptimality=1.5),
                      ModelOutcome(index=1, failure=SimulationDiverged(4, "guard"))],
            runs_with_violation=1, diverged_runs=1)
        path = write_montecarlo_summary(stats, ("current", "voltage"), tmp_path / "s.csv")
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["model_index", "diverged", "any_violation", "violation_steps",
                         "depth_current", "depth_voltage", "suboptimality"],
                        ["0", "0", "1", "3", "0", "0.25", "1.5"],
                        ["1", "1", "", "", "", "", ""]]


class TestWritersMatchPlainReferences:
    """The writers' bytes equal those of the cell-by-cell writers of
    tests/references.py."""

    @pytest.mark.parametrize("name", ["spmet", "ecm", "pack", "toy"])
    def test_csv_bytes(self, name, scenarios, tmp_path):
        built = scenarios[name]
        free = attach_per_step_optima(
            run_closed_loop(built.model, built.controller, built.spec, 40, built.x0),
            built.model, built.spec, built.cfg.theta_lo, built.cfg.theta_hi)
        oracle = oracle_trajectory(built.model, built.spec, 40, built.x0)
        for traj in (free, oracle):
            block = built.model.csv_block
            path = write_trajectory_csv(traj, block, tmp_path / "t.csv")
            assert path.read_bytes() == plain_trajectory_csv(traj, block).encode()
        path = write_gap_csv(free, oracle, tmp_path / "gap.csv")
        assert path.read_bytes() == plain_gap_csv(free, oracle).encode()

    @pytest.mark.parametrize("u_cell, y_cell", [(0.0, -0.0), (1.5, math.nan)])
    def test_csv_y1_apart_from_u(self, toy_traj, u_cell, y_cell, tmp_path):
        # y_1 differs from u in one cell, by the sign of a zero or as a NaN,
        # so it is formatted on its own
        u, y = toy_traj.u.copy(), toy_traj.y.copy()
        u[3], y[3, 0] = u_cell, y_cell
        traj = replace(toy_traj, u=u, y=y)
        text = write_trajectory_csv(traj, {}, tmp_path / "t.csv").read_text()
        assert text == plain_trajectory_csv(traj, {})
        assert text.splitlines()[4].split(",")[1:3] == ["%.12g" % u_cell, "%.12g" % y_cell]

    def test_svg_bytes_of_charts_in_turn(self, scenarios, monkeypatch, tmp_path):
        # charts of two lengths, and one with a series shorter than its axis,
        # rendered in turn through the shared x parts, equal those rendered
        # with the x part built per chart
        built = scenarios["ecm"]
        runs = {n: run_closed_loop(built.model, built.controller, built.spec,
                                   n, built.x0) for n in (40, 25)}
        charts = [[40], [25], [40, 25], [40]]

        def render() -> list[bytes]:
            return [emit_svg([(runs[n], {"label": str(n)}) for n in chart], "voltage",
                             built.model.plots["voltage"], tmp_path / "c.svg").read_bytes()
                    for chart in charts]

        svg._x_template.cache_clear()
        shared = render()
        monkeypatch.setattr(svg, "_x_template", plain_x_template)
        assert shared == render()


@pytest.mark.parametrize("name", sorted(BENCH.WORKLOADS))
def test_benchmark_workload_passes_its_gate(name, tmp_path, capsys):
    # each benchmark command at a tiny size, in process, through the
    # benchmark's own output checks, so that a failing gate shows here first
    workload, seed, steps = BENCH.WORKLOADS[name], BENCH.DEFAULT_SEED, 50
    cfg = load_scenario(workload.config)
    cfg.seed, cfg.t_f = seed, steps
    built = build_scenario(cfg)
    capsys.readouterr()
    assert main(workload.argv(seed, str(tmp_path), steps, models=2)) == 0
    scenario = {"t_f": steps, "theta_lo": list(built.cfg.theta_lo),
                "theta_hi": list(built.cfg.theta_hi), "u_max": built.spec.u_max,
                "gamma": built.spec.gamma.tolist(), "tol_y": built.root_cfg.tol_y,
                "models": 2, "svg": workload.svg}
    errors, _ = BENCH.check_outputs(workload, tmp_path, scenario, capsys.readouterr().out,
                                    seed, full_size=False)
    assert errors == []


class TestCli:
    def test_simulate_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["simulate", "--config", "toy", "--steps", "40",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "config.cfg").exists()
        manifest = (out / "manifest.txt").read_text()
        assert "config_hash" in manifest and "version" in manifest

    def test_compare_writes_gap(self, tmp_path):
        out = tmp_path / "cmp"
        rc = main(["compare", "--config", "toy", "--steps", "40",
                   "--out", str(out)])
        assert rc == 0
        gap = (out / "gap.csv").read_text().splitlines()
        assert gap[0] == "t,u_free,u_oracle,gap"
        assert len(gap) == 42

    def test_rerun_from_snapshot_reproduces_csv(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", "--config", "ecm", "--steps", "60",
                     "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(out1 / "config.cfg"),
                     "--out", str(out2)]) == 0
        assert ((out1 / "trajectory.csv").read_bytes()
                == (out2 / "trajectory.csv").read_bytes())
        assert ((out1 / "manifest.txt").read_text().splitlines()[:2]
                == (out2 / "manifest.txt").read_text().splitlines()[:2])

    def test_manifest_hashes_the_parameter_file(self, tmp_path):
        # one scenario path over two parameter files that differ only in d:
        # the scenario's hash stays, the parameter file's follows its bytes
        cfg = load_scenario("toy")
        text = params_path(cfg, "params_toy.cfg").read_text()
        assert "\nd = 1.0\n" in text
        cfg.params_file, cfg.t_f = "p.cfg", 5
        save_scenario(cfg, tmp_path / "s.cfg")
        manifests = []
        for d in ("1.0", "2.0"):
            (tmp_path / "p.cfg").write_text(text.replace("\nd = 1.0\n", f"\nd = {d}\n"))
            out = tmp_path / d
            assert main(["simulate", "--config", str(tmp_path / "s.cfg"), "--out", str(out)]) == 0
            digest = hashlib.sha256((tmp_path / "p.cfg").read_bytes()).hexdigest()[:16]
            lines = (out / "manifest.txt").read_text().splitlines()
            assert lines[1] == f"config_hash = {scenario_hash(cfg)}"
            assert lines[3:] == [f"params_hash = {digest}"]
            manifests.append(lines)
        assert manifests[0][:3] == manifests[1][:3]
        assert manifests[0][3] != manifests[1][3]

    def test_packaged_parameter_file_is_hashed(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--config", "ecm", "--steps", "5", "--out", str(out)]) == 0
        digest = hashlib.sha256(params_path(load_scenario("ecm"), "params_ecm.cfg")
                                .read_bytes()).hexdigest()[:16]
        assert (out / "manifest.txt").read_text().endswith(f"\nparams_hash = {digest}\n")

    def test_montecarlo_summary_deterministic(self, tmp_path):
        args = ["montecarlo", "--config", "ecm", "--steps", "250",
                "--models", "6", "--fraction", "0.1", "--seed", "7"]
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        assert main(args + ["--out", str(out1), "--svg"]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert ((out1 / "summary.csv").read_bytes()
                == (out2 / "summary.csv").read_bytes())
        # gray ensemble plus highlighted true runs
        ensemble = (out1 / "current_ensemble.svg").read_text()
        assert ensemble.count("#bbb") >= 6
        assert "ideal bang-ride" in ensemble and "model-free" in ensemble
        assert (out1 / "temperature_ensemble.svg").exists()

    def test_unperturbed_ensemble_traces_the_oracle(self, tmp_path):
        # at fraction 0 every model replays the true oracle's protocol, so
        # each gray line lies on the oracle's line, step for step
        out = tmp_path / "mc0"
        assert main(["montecarlo", "--config", "ecm", "--steps", "300",
                     "--models", "3", "--fraction", "0.0", "--svg",
                     "--out", str(out)]) == 0
        for quantity in ("current", "temperature"):
            text = (out / f"{quantity}_ensemble.svg").read_text()
            lines = re.findall(r'<polyline fill="none" stroke="(#\w+)"[^>]*'
                               r' points="([^"]*)"', text)
            gray = [pts for color, pts in lines if color == "#bbb"]
            oracle = [pts for color, pts in lines if color == "#111"]
            assert len(gray) == 3 and len(oracle) == 1
            assert all(pts == oracle[0] for pts in gray), quantity

    @pytest.mark.parametrize("config", ["spmet", "ecm", "pack", "toy"])
    def test_every_column_has_a_row_per_step(self, config, monkeypatch, tmp_path, capsys):
        # every run that compare and regret make, over 41 steps and over 1:
        # each array column and telemetry channel holds one row per step, the
        # states included, and each array field is a C-contiguous float64
        # column, i_star's int64, theta's (n, 2)
        runs = []
        for name in ("run_closed_loop", "oracle_trajectory", "attach_per_step_optima"):
            def record(*args, make=getattr(cli, name), **kwargs):
                runs.append(make(*args, **kwargs))
                return runs[-1]
            monkeypatch.setattr(cli, name, record)
        for steps in ("40", "0"):
            for command in ("compare", "regret"):
                assert main([command, "--config", config, "--steps", steps,
                             "--out", str(tmp_path / command / steps)]) == 0
        capsys.readouterr()
        checked, lengths = set(), set()
        for traj in runs:
            lengths.add(len(traj))
            for f in fields(Trajectory):
                value = getattr(traj, f.name)
                if isinstance(value, np.ndarray):
                    assert value.flags.c_contiguous, f.name
                    assert value.dtype == (np.int64 if f.name == "i_star" else np.float64), f.name
                for name, column in (value.items() if isinstance(value, dict)
                                     else [(f.name, value)]):
                    if column is not None:
                        assert len(column) == len(traj), name
                        checked.add(name)
            if traj.theta is not None:
                assert traj.theta.shape == (len(traj), 2)
        assert lengths == {41, 1}
        assert {"u", "y", "i_star", "e_active", "J", "states", "theta", "alpha",
                "J_star", "theta_star"} <= checked
        assert ("soc" in checked) == (config != "toy")     # the toy has no telemetry

    def test_regret_subcommand(self, tmp_path):
        out = tmp_path / "rg"
        rc = main(["regret", "--config", "toy", "--steps", "800",
                   "--mu1", "0.5", "--out", str(out)])
        assert rc == 0
        lines = (out / "regret.csv").read_text().splitlines()
        assert lines[0].startswith("mu1,total_regret,tail_slope")
        assert len(lines) == 2

    @pytest.mark.parametrize("steps", ["0", "1"])
    def test_regret_without_a_fit_window(self, steps, tmp_path, capsys):
        # fewer than 2 points to fit and not converged: no slope to print
        out = tmp_path / "rg"
        assert main(["regret", "--config", "toy", "--steps", steps,
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.count("tail_slope=none") == 3
        rows = (out / "regret.csv").read_text().splitlines()[1:]
        assert len(rows) == 3 and all(row.split(",")[2] == "" for row in rows)

    def test_regret_runs_the_toy_by_default(self, tmp_path, capsys):
        outs = [tmp_path / "default", tmp_path / "toy"]
        assert main(["regret", "--steps", "200", "--out", str(outs[0])]) == 0
        assert main(["regret", "--config", "toy", "--steps", "200",
                     "--out", str(outs[1])]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[:3] == printed[3:]
        assert ((outs[0] / "regret.csv").read_bytes()
                == (outs[1] / "regret.csv").read_bytes())

    @pytest.mark.parametrize("command", ["simulate", "oracle", "compare", "montecarlo"])
    def test_config_is_required(self, command, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([command, "--steps", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: bangride {command} ")
        assert err.endswith("\nerror: the following arguments are required: --config\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "oracle", "compare"])
    def test_toy_svg_plots_current_only(self, command, tmp_path):
        # the toy plant reports no voltage, temperature or SOC channel
        out = tmp_path / command
        assert main([command, "--config", "toy", "--steps", "40", "--svg",
                     "--out", str(out)]) == 0
        assert sorted(path.name for path in out.glob("*.svg")) == ["current.svg"]

    @pytest.mark.parametrize("args", [["--config", "toy"],
                                      ["--config", "ecm", "--models", "0"],
                                      ["--config", "ecm", "--fraction", "1.5"],
                                      ["--config", "ecm", "--gamma", "a,b"],
                                      ["--config", "spmet"],
                                      ["--config", "pack"]])
    def test_rejected_montecarlo_writes_nothing(self, args, tmp_path):
        out = tmp_path / "mc"
        assert main(["montecarlo", *args, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("config, plant", [("spmet", "SpmetPlant"), ("pack", "PackPlant"),
                                               ("toy", "ToyLinearPlant")])
    def test_montecarlo_names_a_plant_without_family(self, config, plant, tmp_path, capsys):
        assert main(["montecarlo", "--config", config, "--out", str(tmp_path / "mc")]) == 1
        assert capsys.readouterr().err == f"error: {plant} has no perturbed family\n"

    # SHA-256 of oracle.csv for the packaged scenarios. The oracle runs use
    # only + - * / and sqrt, and the pack's summary channels add numpy sums,
    # maxima and minima over its cells. The toy's rows ride exactly on its
    # bound, through its closed-form riding current.
    GOLDEN_ORACLE_CSV = {
        "toy": "a955b213026b05386df37cefa9d75a3bb6f095f6ce956bfc0ed9b6c121fb5bf2",
        "ecm": "c11e70b64d65fe49e3a3d94a8ececa00215fa86a4665c4c082d1fb172c0e624f",
        "pack": "6480241f65c2d035da5c81c20bde2b8df46da9c305d1aa081317069ef13f8066",
    }

    @pytest.mark.parametrize("config", sorted(GOLDEN_ORACLE_CSV))
    def test_oracle_csv_golden_bytes(self, config, tmp_path):
        out = tmp_path / config
        assert main(["oracle", "--config", config, "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "oracle.csv").read_bytes()).hexdigest()
        assert digest == self.GOLDEN_ORACLE_CSV[config]

    # SHA-256 of the montecarlo outputs, generated by the per-model scalar
    # study that the batched one replaced
    GOLDEN_MONTECARLO = {
        "summary.csv": "c5540217e8c364a2a1309ef2d61ab3dfafd31dbbae6b92141f9ec3f42106b2f9",
        "current_ensemble.svg": "5c9acc4949b28847bab13403e08784f6fdf87d0a20b5557228ec0a41f2d03ade",
        "temperature_ensemble.svg": "b7cddd8fa8fb016d9ac63a3733902ef7e20c41811335bf9d1d192fa65f10e531",
    }

    def test_montecarlo_golden_bytes(self, tmp_path):
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", "ecm", "--models", "6", "--seed", "7",
                     "--svg", "--out", str(out)]) == 0
        for name, digest in self.GOLDEN_MONTECARLO.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    # SHA-256 of every chart of `compare --svg`, drawn from the runs whose
    # CSV bytes the digests above pin: the ECM's voltage is its v_dynamic
    # channel, and the pack's temperature is its (max, min) pair. The SPMeT
    # is not pinned: its bytes depend on libm.
    GOLDEN_COMPARE_SVG = {
        "ecm": ([], {
            "current.svg": "8fa102564da37e1ff523c39be9db431f80a953954b96db0728ddc0db1c30242a",
            "voltage.svg": "140a6e3b31e9349ce28e17c3b45c42d8b2cc233b1e3ca1eef1bf53d726edd4fb",
            "temperature.svg": "2446a0e862073b25893284d3aa0c217aa4f5117327bde14c295f48a4d0b7accf",
            "soc.svg": "4c89294ebb146fd8db91c39b667b0c6d6b4f07603ab246977ab12b8f684d5cae",
        }),
        "pack": (["--steps", "200"], {
            "current.svg": "8de66f5c66a5de0e2edc4f35f88ae22c68679d41b731ac1c4d0d336632057f1a",
            "voltage.svg": "7b01e5432a4fed69c4523e2f009251b9391cc6ccfe3e72fd34ad6c5c5f4b8223",
            "temperature.svg": "115bcff1043f5fd65413e25aa16388aa1e03bb250761f4bbcb84f33030d550e7",
            "soc.svg": "accffe1d154f81970f628c7718522bffdfee4158b1077e1a7e811279c1a55361",
        }),
    }

    @pytest.mark.parametrize("config", sorted(GOLDEN_COMPARE_SVG))
    def test_compare_svg_golden_bytes(self, config, tmp_path):
        args, digests = self.GOLDEN_COMPARE_SVG[config]
        out = tmp_path / config
        assert main(["compare", "--config", config, *args, "--svg", "--out", str(out)]) == 0
        assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in out.glob("*.svg")} == digests

    # SHA-256 of the outputs that carry per-step optima or c_t, whose riding
    # steps take the toy's closed-form riding current; the per-step scalar
    # references of tests/references.py give the same bytes
    GOLDEN_OPTIMA = {
        "regret-2000": (["regret", "--steps", "2000"], "regret.csv",
                        "459808d4b1c832160e83e48256219da592eddf303b5f73d9aeaec33ed837b73a"),
        "regret": (["regret"], "regret.csv",
                   "45ceab6f7e13a14ed97edacd4b98df0bbeb89e889cb085ebacbe75589425e778"),
        "simulate": (["simulate"], "trajectory.csv",
                     "4c750553d4cb77b40e76f720e343f5402942056cb0cf1b39d7127e1547b4fedb"),
    }

    @pytest.mark.parametrize("run", sorted(GOLDEN_OPTIMA))
    def test_toy_optima_golden_bytes(self, run, tmp_path):
        args, name, digest = self.GOLDEN_OPTIMA[run]
        out = tmp_path / run
        assert main([args[0], "--config", "toy", *args[1:], "--out", str(out)]) == 0
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    # SHA-256 of trajectory.csv of the model-free runs of the ECM and pack
    # scenarios. The SPMeT run is not pinned: its bytes depend on libm's
    # asinh and log.
    GOLDEN_FREE_RUN = {
        "ecm": "cdfeaa675b006488c1e7b7504d15b8200d8e475cfa839325bbfc56e1257921c1",
        "pack": "8c2b03a537ab3f4cc3683c796e547033c3060d670338c031716062346d4aada5",
    }

    @pytest.mark.parametrize("config", sorted(GOLDEN_FREE_RUN))
    def test_free_run_golden_bytes(self, config, tmp_path):
        out = tmp_path / config
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest()
        assert digest == self.GOLDEN_FREE_RUN[config]

    def test_exit_code_configuration_error(self):
        assert main(["simulate", "--config", "does-not-exist"]) == 1

    def test_python_m_runs_the_cli(self):
        src = str(Path(bangride.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "bangride", "--version"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0 and done.stdout.strip() == bangride.__version__

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_zero_current_bound_rejected(self, command, tmp_path, capsys):
        cfg = load_scenario("ecm")
        cfg.y_bar = (0.0, 12.0, 8.0)
        save_scenario(cfg, tmp_path / "zero.cfg")
        assert main([command, "--config", str(tmp_path / "zero.cfg"),
                     "--out", str(tmp_path / "out")]) == 1
        assert "current limit" in capsys.readouterr().err

    @pytest.mark.parametrize("config, file, old, new, named", [
        ("ecm", "s.cfg", "t_f = 1800", "t_f = ten", "t_f"),
        ("ecm", "s.cfg", "mu1 = 0.5", "mu = 0.5", "mu"),
        ("ecm", "s.cfg", "compute_jstar = false", "compute_jstar = yes",
         "compute_jstar"),
        ("ecm", "p.cfg", "ocv_slope", "ocv_slop", "ocv_slop"),
        ("ecm", "p.cfg", "r_o = 0.05", "r_o = 0,05", "r_o"),
        ("ecm", "p.cfg", "r_o = 0.05", "r_o = nan", "r_o"),
        ("ecm", "p.cfg", "q = 12000.0", "q = inf", "q"),
        ("ecm", "p.cfg", "r_o = 0.05", "r_o = -0.05", "r_o"),
        ("pack", "p.cfg", "cell_variation", "cell_variaton", "cell_variaton"),
        ("pack", "p.cfg", "n_cells = 100", "", "n_cells"),
        ("pack", "p.cfg", "k_left = 8e-5", "k_left = nan", "k_left"),
        ("pack", "p.cfg", "n_cells = 100", "n_cells = 100\npairwise_mode = max-minus-min",
         "unknown key 'pairwise_mode'"),
        # the base cell passes, but varied cell 5 is unstable at this dt
        ("pack", "p.cfg", "dt = 1.0 ", "dt = 100.0 ", "[pack] cell 5: unstable"),
        # the overpotential divides by it: rejected before any voltage is computed
        ("spmet", "p.cfg", "bv_scale = 15.0", "bv_scale = 0.0", "bv_scale"),
        ("ecm", "s.cfg", "[constraints]\ny_bar = 10.0, 12.0, 8.0\n"
         "gamma = 1.0, 1.0, 500.0\n", "", "constraints"),
        ("ecm", "s.cfg", "[scenario]\n", "", "no section headers")],
        ids=["scenario-number", "scenario-key", "scenario-bool", "params-key",
             "params-number", "params-nan", "params-inf", "params-rejected",
             "pack-key", "pack-missing-key", "pack-nan", "pack-old-key", "pack-cell",
             "spmet-zero-scale", "scenario-missing-section", "scenario-no-header"])
    def test_malformed_file_names_its_key(self, config, file, old, new, named,
                                          tmp_path, capsys):
        cfg = load_scenario(config)
        params = tmp_path / "p.cfg"
        params.write_text(params_path(cfg, f"params_{config}.cfg").read_text())
        cfg.params_file = str(params)
        save_scenario(cfg, tmp_path / "s.cfg")
        path = tmp_path / file
        assert old in path.read_text()
        path.write_text(path.read_text().replace(old, new))
        assert main(["simulate", "--config", str(tmp_path / "s.cfg"),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--steps", "-1", "t_f"), ("--seed", "-1", "seed"), ("--mu1", "1.5", "mu1"),
        ("--gamma", "1,-1", "gamma"), ("--gamma", "inf,1", "gamma")])
    @pytest.mark.parametrize("command, config", [
        ("simulate", "toy"), ("oracle", "toy"), ("compare", "toy"),
        ("montecarlo", "ecm"), ("regret", "toy")])
    def test_rejected_override_writes_nothing(self, command, config, flag, value,
                                              field, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([command, "--config", config, flag, value, "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    def test_out_is_a_regular_file(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        assert main(["simulate", "--config", "toy", "--steps", "5",
                     "--out", str(tmp_path / "taken")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_folder_named_like_a_packaged_scenario_is_passed_over(self, tmp_path,
                                                                  monkeypatch):
        # as `--out spmet` leaves one: the bare name still means the packaged file
        (tmp_path / "spmet").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", "spmet", "--steps", "5"]) == 0

    def test_relative_params_is_read_beside_its_scenario(self, tmp_path, monkeypatch,
                                                         capsys):
        # the same run from the scenario's directory and from its parent; a
        # missing parameter file is named by the path that was looked for
        cfg = load_scenario("toy")
        (tmp_path / "sc").mkdir()
        (tmp_path / "sc" / "p.cfg").write_text(params_path(cfg, "params_toy.cfg").read_text())
        cfg.params_file = "p.cfg"
        save_scenario(cfg, tmp_path / "sc" / "my.cfg")
        for where, config, out in ((tmp_path, "sc/my.cfg", "parent"),
                                   (tmp_path / "sc", "my.cfg", "inside")):
            monkeypatch.chdir(where)
            assert main(["simulate", "--config", config, "--steps", "5",
                         "--out", str(tmp_path / out)]) == 0
        assert ((tmp_path / "parent" / "trajectory.csv").read_bytes()
                == (tmp_path / "inside" / "trajectory.csv").read_bytes())
        (tmp_path / "sc" / "p.cfg").unlink()
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(["simulate", "--config", "sc/my.cfg", "--out", str(tmp_path / "no")]) == 1
        assert capsys.readouterr().err == (
            f"error: parameter file not found: {Path('sc', 'p.cfg')}\n")
        assert not (tmp_path / "no").exists()

    def test_validate_prints_every_check(self, capsys):
        assert main(["validate"]) == 0
        assert capsys.readouterr().out == (
            "[PASS] monotonicity[spmet]: min slope 0.0105\n"
            "[PASS] monotonicity[ecm]: min slope 1.19e-05\n"
            "[PASS] monotonicity[pack]: min slope 1.64e-05\n"
            "[PASS] monotonicity[toy]: min slope 1\n"
            "[PASS] step-size schedule\n"
            "[PASS] projection non-expansive\n"
            "[PASS] run step sizes\n"
            "[PASS] run gains in box\n"
            "[PASS] csv golden schema: all columns present\n"
            "[PASS] config round-trip\n"
            "validate: all checks passed\n")

    def test_validate_checks_the_package_projection(self, monkeypatch):
        monkeypatch.setattr(cli, "project_box", lambda v, lo, hi: 2.0 * v)
        assert main(["validate"]) == 3

    @pytest.mark.parametrize("column", ["alpha", "theta"])
    def test_validate_checks_the_run_it_makes(self, column, monkeypatch, capsys):
        # the run validate makes, with step 7's step size one ulp below the
        # schedule's, or its second gain one ulp above the box
        hi = load_scenario("toy").theta_hi[1]

        def faulty(*args, **kw):
            traj = run_closed_loop(*args, **kw)
            values = getattr(traj, column).copy()
            if column == "alpha":
                values[7] = math.nextafter(values[7], 0.0)
            else:
                values[7, 1] = math.nextafter(hi, math.inf)
            return replace(traj, **{column: values})

        monkeypatch.setattr(cli, "run_closed_loop", faulty)
        assert main(["validate"]) == 3
        out = capsys.readouterr().out
        assert ("[FAIL] run step sizes" in out) == (column == "alpha")
        assert ("[FAIL] run gains in box" in out) == (column == "theta")

    def test_exit_code_unknown_flag(self, capsys):
        assert main(["simulate", "--config", "toy", "--frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["validate", "--steps", "5"], ["regret", "--svg"]])
    def test_flags_a_command_never_reads_are_rejected(self, argv, capsys):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_exit_code_divergence(self, tmp_path):
        # hostile override: huge weights destabilize the toy loop
        rc = main(["simulate", "--config", "toy", "--steps", "4000",
                   "--gamma", "4000,4000", "--out", str(tmp_path / "d")])
        assert rc == 2

    def test_overflowing_cost_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--config", "toy", "--steps", "5",
                     "--gamma", "1e155,1e155", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: simulation diverged at step 0: squared active error overflowed\n")

    @pytest.mark.parametrize("command, gamma", [("oracle", "1e308,1"),
                                                ("simulate", "1e308,1e308")])
    def test_overflowing_errors_exit_2_at_their_step(self, command, gamma, tmp_path,
                                                      capsys):
        # numpy's overflow warning would be an error under this suite's settings
        assert main([command, "--config", "toy", "--steps", "3", "--gamma", gamma,
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: simulation diverged at step 0: non-finite weighted errors\n")

    def test_plant_leaving_its_domain_exits_2_at_its_step(self, tmp_path, capsys):
        # a low voltage bound and the largest gains drive the SPMeT's
        # electrolyte concentrations negative within a few steps
        path = tmp_path / "domain.cfg"
        save_scenario(replace(load_scenario("spmet"), y_bar=(56.3739, 3.0),
                              theta0=(10.0, 1.0)), path)
        assert main(["simulate", "--config", str(path), "--gamma", "1,100", "--steps", "10",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: simulation diverged at step 6: delta_phi_e: "
            "non-positive electrolyte concentration")

    def test_gamma_override_changes_run(self, tmp_path):
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        assert main(["simulate", "--config", "toy", "--steps", "40",
                     "--out", str(out1)]) == 0
        assert main(["simulate", "--config", "toy", "--steps", "40",
                     "--gamma", "0.4,0.4", "--out", str(out2)]) == 0
        assert ((out1 / "trajectory.csv").read_bytes()
                != (out2 / "trajectory.csv").read_bytes())
