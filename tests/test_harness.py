import hashlib
import re
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
                           60, built.x0)


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
                               30, built.x0)
        path = write_trajectory_csv(traj, tmp_path / "p.csv")
        cols = read_trajectory_csv(path)
        assert set(cols) >= {"V_pack", "T_max", "T_min", "dT_max"}

    def test_header_names(self, toy_traj):
        assert trajectory_header(toy_traj) == [
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
                               40, built.x0)
        from bangride.oracle import oracle_trajectory
        oracle = oracle_trajectory(built.model, built.spec, 40, built.x0,
                                   built.root_cfg)
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
                               25, built.x0)
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
    # only + - * / and sqrt, and the pack's summary channels add numpy sums,
    # maxima and minima over its cells.
    GOLDEN_ORACLE_CSV = {
        "toy": "544d05c85541b047d995f671393f8676b56c6827d5019a6bca01584df0a927af",
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

    # SHA-256 of the outputs that carry per-step optima or c_t, generated by
    # the per-step scalar loop that the batched attach_per_step_optima and
    # ct_series replaced
    GOLDEN_OPTIMA = {
        "regret-2000": (["regret", "--steps", "2000"], "regret.csv",
                        "2c4504ef5ab06a2ffcb0bf7df4d214f0d853594490c126a679e4832517f61c36"),
        "regret": (["regret"], "regret.csv",
                   "df6f1be42b5fd0ce8c2f6a183d37311e28f3592f1ed85bfbf1190add98cc0a8b"),
        "simulate": (["simulate"], "trajectory.csv",
                     "8136e76610d90728215ee991c54356d2dc04e5d044aa1510ff6b970689264dec"),
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

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_zero_current_bound_rejected(self, command, tmp_path, capsys):
        cfg = load_scenario("ecm")
        cfg.y_bar = (0.0, 12.0, 8.0)
        save_scenario(cfg, tmp_path / "zero.cfg")
        assert main([command, "--config", str(tmp_path / "zero.cfg"),
                     "--out", str(tmp_path / "out")]) == 1
        assert "current limit" in capsys.readouterr().err

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
