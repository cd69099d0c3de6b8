import hashlib
from pathlib import Path

import pytest

from bangride import ConfigurationError, run_closed_loop
from bangride.cli import main
from bangride.config import (ScenarioConfig, build_scenario, load_scenario,
                             save_scenario, scenario_hash)
from bangride.csvio import (read_trajectory_csv, trajectory_header,
                            write_trajectory_csv)
from bangride.svg import emit_svg, quantity_series


@pytest.fixture(scope="module")
def toy_traj():
    built = build_scenario(load_scenario("toy"))
    return run_closed_loop(built.model, built.new_controller(), built.spec,
                           60, built.x0, model_name="toy-linear", seed=0)


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


class TestTrajectoryCsv:
    def test_round_trip_12_significant_digits(self, toy_traj, tmp_path):
        path = write_trajectory_csv(toy_traj, tmp_path / "t.csv")
        cols = read_trajectory_csv(path)
        u = toy_traj.u
        for k, v in enumerate(cols["u"]):
            assert v == pytest.approx(u[k], rel=1e-11, abs=1e-300)
        th = toy_traj.theta
        for k, v in enumerate(cols["theta_1"]):
            assert v == pytest.approx(th[k, 0], rel=1e-11, abs=1e-300)
        assert cols["J_star"] == [None] * len(toy_traj)

    def test_fixed_column_count(self, toy_traj, tmp_path):
        path = write_trajectory_csv(toy_traj, tmp_path / "t.csv")
        lines = Path(path).read_text().splitlines()
        assert len(lines) == len(toy_traj) + 1
        p = toy_traj.y.shape[1]
        widths = {len(line.split(",")) for line in lines}
        assert widths == {9 + p}

    def test_newline_terminated_utf8(self, toy_traj, tmp_path):
        path = write_trajectory_csv(toy_traj, tmp_path / "t.csv")
        raw = Path(path).read_bytes()
        assert raw.endswith(b"\n")
        raw.decode("utf-8")

    def test_pack_summary_channels(self, tmp_path):
        built = build_scenario(load_scenario("pack"))
        traj = run_closed_loop(built.model, built.new_controller(), built.spec,
                               30, built.x0, model_name="pack")
        path = write_trajectory_csv(traj, tmp_path / "p.csv", pack_summary=True)
        cols = read_trajectory_csv(path)
        assert set(cols) >= {"V_pack", "T_max", "T_min", "dT_max"}
        full = write_trajectory_csv(traj, tmp_path / "pf.csv", pack_summary=True,
                                    full_dump=True)
        assert "y_202" in read_trajectory_csv(full)

    def test_header_names(self, toy_traj):
        assert trajectory_header(toy_traj, False) == [
            "t", "u", "y_1", "y_2", "e_active", "i_star",
            "theta_1", "theta_2", "alpha", "J", "J_star"]


class TestSvg:
    def test_deterministic_bytes(self, toy_traj, tmp_path):
        style = {"label": "run", "color": "#c22"}
        a = emit_svg([(toy_traj, style)], "current", tmp_path / "a.svg")
        b = emit_svg([(toy_traj, style)], "current", tmp_path / "b.svg")
        assert (hashlib.sha256(Path(a).read_bytes()).hexdigest()
                == hashlib.sha256(Path(b).read_bytes()).hexdigest())

    def test_unknown_quantity_lists_valid_names(self, toy_traj, tmp_path):
        with pytest.raises(ConfigurationError, match="current, voltage"):
            emit_svg([(toy_traj, {"label": "x"})], "entropy", tmp_path / "x.svg")

    def test_two_series_and_legend(self, tmp_path):
        built = build_scenario(load_scenario("ecm"))
        free = run_closed_loop(built.model, built.new_controller(), built.spec,
                               40, built.x0, model_name="ecm")
        from bangride.oracle import oracle_trajectory
        oracle = oracle_trajectory(built.model, built.spec, 40, built.x0,
                                   built.root_cfg, model_name="ecm")
        path = emit_svg([(free, {"label": "model-free"}),
                         (oracle, {"label": "ideal", "dash": "6,4",
                                   "color": "#111"})],
                        "current", tmp_path / "c.svg")
        text = Path(path).read_text()
        assert text.count("<polyline") == 2
        assert "model-free" in text and "ideal" in text
        assert "current [A]" in text

    def test_pack_temperature_has_extrema_series(self, tmp_path):
        built = build_scenario(load_scenario("pack"))
        traj = run_closed_loop(built.model, built.new_controller(), built.spec,
                               25, built.x0, model_name="pack")
        series = quantity_series(traj, "temperature", label="pack")
        assert len(series) == 2


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

    def test_regret_subcommand(self, tmp_path):
        out = tmp_path / "rg"
        rc = main(["regret", "--config", "toy", "--steps", "800",
                   "--mu1", "0.5", "--out", str(out)])
        assert rc == 0
        lines = (out / "regret.csv").read_text().splitlines()
        assert lines[0].startswith("mu1,total_regret,tail_slope")
        assert len(lines) == 2

    @pytest.mark.parametrize("command", ["simulate", "oracle", "compare"])
    def test_toy_svg_plots_current_only(self, command, tmp_path):
        # the toy plant reports no voltage, temperature or SOC channel
        out = tmp_path / command
        assert main([command, "--config", "toy", "--steps", "40", "--svg",
                     "--out", str(out)]) == 0
        assert sorted(path.name for path in out.glob("*.svg")) == ["current.svg"]

    @pytest.mark.parametrize("args", [["--config", "toy"],
                                      ["--config", "ecm", "--models", "0"],
                                      ["--config", "ecm", "--fraction", "1.5"]])
    def test_rejected_montecarlo_writes_nothing(self, args, tmp_path):
        out = tmp_path / "mc"
        assert main(["montecarlo", *args, "--out", str(out)]) == 1
        assert not out.exists()

    # SHA-256 of oracle.csv for the packaged scenarios. The oracle runs use
    # only + - * / and sqrt, so the bytes hold on every IEEE-754 platform.
    GOLDEN_ORACLE_CSV = {
        "toy": "544d05c85541b047d995f671393f8676b56c6827d5019a6bca01584df0a927af",
        "ecm": "c11e70b64d65fe49e3a3d94a8ececa00215fa86a4665c4c082d1fb172c0e624f",
    }

    @pytest.mark.parametrize("config", sorted(GOLDEN_ORACLE_CSV))
    def test_oracle_csv_golden_bytes(self, config, tmp_path):
        out = tmp_path / config
        assert main(["oracle", "--config", config, "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "oracle.csv").read_bytes()).hexdigest()
        assert digest == self.GOLDEN_ORACLE_CSV[config]

    def test_exit_code_configuration_error(self):
        assert main(["simulate", "--config", "does-not-exist"]) == 1

    def test_exit_code_unknown_flag(self, capsys):
        assert main(["simulate", "--config", "toy", "--frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_exit_code_divergence(self, tmp_path):
        # hostile override: huge weights destabilize the toy loop
        rc = main(["simulate", "--config", "toy", "--steps", "4000",
                   "--gamma", "4000,4000", "--out", str(tmp_path / "d")])
        assert rc == 2

    def test_gamma_override_changes_run(self, tmp_path):
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        assert main(["simulate", "--config", "toy", "--steps", "40",
                     "--out", str(out1)]) == 0
        assert main(["simulate", "--config", "toy", "--steps", "40",
                     "--gamma", "0.4,0.4", "--out", str(out2)]) == 0
        assert ((out1 / "trajectory.csv").read_bytes()
                != (out2 / "trajectory.csv").read_bytes())
