import numpy as np
import pytest

from bangride import (ConfigurationError, EcmParams, EcmPlant, PackParams,
                      PackPlant, RootConfig, oracle_trajectory)
from pack_labels import constraint_label

BASE_KW = dict(r_o=0.05, r_1=0.15, r_2=0.35, c_1=1000.0, c_2=1700.0,
               q=12000.0, a=0.002, b=1.8e-3, ocv0=3.0, ocv_slope=3.0, dt=1.0)


def make_pack(n=4, k=1e-4, var=0.0, mode="max-minus-min", seed=0):
    return PackPlant(PackParams(base=EcmParams(**BASE_KW), n_cells=n,
                                k_left=k, k_right=k, dt_pair_max=5.0,
                                pairwise_mode=mode, cell_variation=var,
                                variation_seed=seed))


class TestPackLayout:
    def test_output_count(self):
        assert make_pack(n=4).output_count == 1 + 4 + 4 + 1
        assert make_pack(n=4, mode="all-pairs").output_count == 1 + 4 + 4 + 12

    def test_scalar_fast_path_matches_vector_outputs(self):
        for mode in ("max-minus-min", "all-pairs"):
            plant = make_pack(n=5, var=0.2, mode=mode, seed=3)
            rng = np.random.default_rng(8)
            x = plant.initial_state()
            x[:, 0] = rng.uniform(0, 1.5, 5)
            x[:, 1] = rng.uniform(0, 2.5, 5)
            x[:, 2] = 0.4
            x[:, 3] = rng.uniform(0, 6, 5)
            for u in (0.0, 3.0, 9.0):
                y = plant.outputs(x, u)
                assert len(y) == plant.output_count
                for i in range(plant.output_count):
                    assert plant.output(x, u, i) == y[i]

    def test_constraint_labels(self):
        plant = make_pack(n=4)
        assert constraint_label(plant, 1) == ("current",)
        assert constraint_label(plant, 2) == ("voltage", 0)
        assert constraint_label(plant, 5) == ("voltage", 3)
        assert constraint_label(plant, 6) == ("temp", 0)
        assert constraint_label(plant, 10) == ("pair",)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            make_pack(mode="sum")

    def test_needs_two_cells(self):
        with pytest.raises(ConfigurationError):
            make_pack(n=1)


class TestPackDynamics:
    def test_zero_coupling_matches_single_cell(self):
        pack = make_pack(n=3, k=0.0, var=0.0)
        cell = EcmPlant(EcmParams(**BASE_KW))
        xp = pack.initial_state()
        xc = cell.initial_state()
        for u in (9.0, 7.0, 5.0, 8.0):
            xp = pack.step(xp, u)
            xc = cell.step(xc, u)
            for i in range(3):
                assert np.allclose(xp[i], xc, rtol=1e-15)

    def test_identical_temperatures_no_coupling_flux(self):
        pack = make_pack(n=5, k=0.3)
        x = pack.initial_state()
        x[:, 3] = 2.5
        uncoupled = make_pack(n=5, k=0.0)
        assert np.allclose(pack.step(x, 4.0), uncoupled.step(x, 4.0), rtol=1e-15)

    def test_symmetric_pack_stays_symmetric(self):
        pack = make_pack(n=6, k=2e-4, var=0.0)
        x = pack.initial_state()
        for t in range(300):
            x = pack.step(x, 8.0)
            assert np.all(x == x[0])

    def test_ring_indexing_wraps(self):
        pack = make_pack(n=4, k=0.1)
        x = pack.initial_state()
        x[0, 3] = 1.0  # only cell 0 warm
        x_next = pack.step(x, 0.0)
        # neighbours 1 and 3 receive the same flux through the ring
        assert x_next[1, 3] == pytest.approx(x_next[3, 3], rel=1e-15)
        assert x_next[1, 3] > 0.0
        assert x_next[2, 3] == 0.0

    def test_pack_voltage_is_sum_of_cell_terminal_voltages(self):
        # series connection: direct summation over the three cells
        pack = make_pack(n=3, var=0.25, seed=5)
        base = pack.params.base
        rng = np.random.default_rng(2)
        x = pack.initial_state()
        x[:, 0] = rng.uniform(0, 1, 3)
        x[:, 1] = rng.uniform(0, 2, 3)
        x[:, 2] = 0.3
        u = 6.0
        manual = sum(base.ocv0 + base.ocv_slope * x[i, 2] + base.r_o * u
                     + x[i, 0] + x[i, 1] for i in range(3))
        tel = pack.telemetry(x[None], np.array([u]), pack.outputs(x, u)[None])
        assert tel["v_pack"][0] == pytest.approx(manual, rel=1e-15)

    def test_pack_voltage_summation_along_run(self):
        pack = make_pack(n=3, var=0.2, seed=9)
        spec = pack.build_constraints(u_max=10.0, v_cell_max=12.0, temp_dev_max=35.0)
        traj = oracle_trajectory(pack, spec, 120, pack.initial_state(),
                                 RootConfig())
        base = pack.params.base
        for t, u in enumerate(traj.u):
            x = traj.states[t]
            manual = sum(base.ocv0 + base.ocv_slope * x[i, 2] + base.r_o * u
                         + x[i, 0] + x[i, 1] for i in range(3))
            assert traj.telemetry["v_pack"][t] == pytest.approx(manual, rel=1e-12)

    def test_summary_channels_match_each_step(self):
        # the whole-run columns against each step's own cell extrema and mean
        pack = make_pack(n=5, var=0.3, seed=4)
        spec = pack.build_constraints(u_max=10.0, v_cell_max=12.0, temp_dev_max=35.0)
        traj = oracle_trajectory(pack, spec, 80, pack.initial_state(),
                                 RootConfig())
        tel, t_amb = traj.telemetry, pack.params.base.t_ambient
        for t in range(len(traj)):
            td, soc = traj.states[t][:, 3], traj.states[t][:, 2]
            assert tel["t_max"][t] == td.max() + t_amb
            assert tel["t_min"][t] == td.min() + t_amb
            assert tel["dt_max"][t] == td.max() - td.min()
            assert tel["soc"][t] == soc.mean()


class TestPairwiseModes:
    def test_all_pairs_enumeration(self):
        plant = make_pack(n=3, mode="all-pairs", var=0.3, seed=1)
        x = plant.initial_state()
        rng = np.random.default_rng(4)
        x[:, 0] = rng.uniform(0, 1, 3)
        x[:, 3] = rng.uniform(0, 5, 3)
        t_outs = plant._temp_outputs(x, 5.0)
        y = plant.outputs(x, 5.0)
        pair_block = y[1 + 2 * 3:]
        expected = [t_outs[j] - t_outs[k] for j in range(3) for k in range(3) if j != k]
        assert np.allclose(pair_block, expected, rtol=1e-15)

    def test_max_minus_min_equals_largest_pairwise(self):
        ap = make_pack(n=5, mode="all-pairs", var=0.3, seed=6)
        mm = make_pack(n=5, mode="max-minus-min", var=0.3, seed=6)
        x = ap.initial_state()
        rng = np.random.default_rng(12)
        x[:, 0] = rng.uniform(0, 1, 5)
        x[:, 3] = rng.uniform(0, 6, 5)
        u = 4.0
        ap_pairs = ap.outputs(x, u)[1 + 10:]
        assert mm.outputs(x, u)[-1] == pytest.approx(ap_pairs.max(), rel=1e-15)

    def test_selector_equivalence_between_modes(self):
        # identical active-constraint labels and identical ideal currents
        results = {}
        for mode in ("all-pairs", "max-minus-min"):
            plant = make_pack(n=5, k=8e-5, var=0.3, seed=11, mode=mode)
            spec = plant.build_constraints(u_max=10.0, v_cell_max=12.0,
                                           temp_dev_max=35.0)
            traj = oracle_trajectory(plant, spec, 400, plant.initial_state(),
                                     RootConfig())
            labels = [constraint_label(plant, i) for i in traj.i_star]
            results[mode] = (labels, traj.u)
        assert results["all-pairs"][0] == results["max-minus-min"][0]
        assert np.array_equal(results["all-pairs"][1], results["max-minus-min"][1])


class TestCellVariation:
    def test_variation_deterministic_and_bounded(self):
        a = make_pack(n=8, var=0.3, seed=21)
        b = make_pack(n=8, var=0.3, seed=21)
        c = make_pack(n=8, var=0.3, seed=22)
        assert np.array_equal(a.r_1, b.r_1)
        assert not np.array_equal(a.r_1, c.r_1)
        base = a.params.base
        for arr, ref in ((a.r_1, base.r_1), (a.c_1, base.c_1),
                         (a.r_2, base.r_2), (a.c_2, base.c_2)):
            assert np.all(arr >= ref * 0.7) and np.all(arr <= ref * 1.3)
