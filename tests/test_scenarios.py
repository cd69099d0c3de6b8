"""Shipped-scenario invariants that sit above any single module."""

import numpy as np

from bangride.analysis import attach_per_step_optima, regret
from bangride.cli import main
from pack_labels import constraint_label
from references import phases


class TestPerStepGapLimit:
    # configured tolerances for the tail mean of J_t - J*_t (last 10%)
    TOL = {"spmet": 1e-6, "ecm": 1e-3}

    def test_gap_tail_mean_below_tolerance(self, scenarios, free_runs):
        for name, tol in self.TOL.items():
            built = scenarios[name]
            traj, _ = free_runs[name]
            traj = attach_per_step_optima(traj, built.model, built.spec,
                                          np.array(built.cfg.theta_lo),
                                          np.array(built.cfg.theta_hi))
            report = regret(traj, built.cfg.mu1)
            assert report.gap_tail_mean() < tol, name
            assert not np.any(report.gaps < -1e-6), name


class TestOracleStructure:
    def test_spmet_single_switch_current_then_voltage(self, oracle_runs):
        traj = oracle_runs["spmet"]
        assert phases(traj) == [1, 2]

    def test_ecm_four_phases(self, oracle_runs):
        assert phases(oracle_runs["ecm"]) == [1, 2, 3, 2]

    def test_pack_rides_spread_bound(self, scenarios, oracle_runs):
        model = scenarios["pack"].model
        traj = oracle_runs["pack"]
        labels = np.array([constraint_label(model, i)[0]
                           for i in traj.i_star])
        active = np.nonzero(labels == "pair")[0]
        assert len(active) > 100
        assert float(traj.telemetry["dt_max"][active[0]:].max()) <= 5.0 + 1e-6


class TestModelFreePack:
    def test_pack_run_follows_structure_and_bound(self, scenarios, free_runs):
        model = scenarios["pack"].model
        traj, _ = free_runs["pack"]
        labels = [constraint_label(model, i)[0] for i in traj.i_star]
        dom = []
        for kd in labels:
            if not dom or dom[-1] != kd:
                dom.append(kd)
        assert dom[:3] == ["current", "voltage", "pair"]
        active = np.nonzero(np.array(labels) == "pair")[0]
        assert float(traj.telemetry["dt_max"][active[0]:].max()) <= 5.0 + 0.05


class TestValidateCommand:
    def test_all_checks_pass(self):
        assert main(["validate"]) == 0
