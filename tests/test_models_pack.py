import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bangride import (ConfigurationError, EcmParams, EcmPlant, PackParams,
                      PackPlant, oracle_trajectory)
from bangride.models.pack import VARIED_FIELDS
from pack_labels import constraint_label
from references import AllPairsPack

BASE_KW = dict(r_o=0.05, r_1=0.15, r_2=0.35, c_1=1000.0, c_2=1700.0,
               q=12000.0, a=0.002, b=1.8e-3, ocv0=3.0, ocv_slope=3.0, dt=1.0)


def make_pack(n=4, k=1e-4, var=0.0, seed=0, layout=PackPlant, pair_max=5.0):
    return layout(PackParams(base=EcmParams(**BASE_KW), n_cells=n,
                             k_left=k, k_right=k, dt_pair_max=pair_max,
                             cell_variation=var, variation_seed=seed))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_cells=st.integers(2, 6),
       rows=st.integers(1, 30))
def test_output_rows_equal_output(seed, n_cells, rows):
    # bit for bit, signed zeros included, on random rows of a varied pack
    rng = np.random.default_rng(seed)
    plant = make_pack(n=n_cells, k=float(rng.uniform(0.0, 0.1)), var=0.3, seed=seed)
    states = rng.uniform(-1.0, 6.0, (rows, n_cells, 4))
    states *= rng.choice([0.0, 1.0, 10.0], states.shape)
    u = rng.uniform(-5.0, 60.0, rows) * rng.choice([-0.0, 1.0], rows)
    index = rng.integers(0, plant.output_count, rows)
    out = plant.output_rows(states, u, index)
    scalar = [plant.advance(x, u_k)[0][i]
              for x, u_k, i in zip(states, u.tolist(), index.tolist())]
    assert out.tolist() == scalar
    assert np.array_equal(np.signbit(out), np.signbit(scalar))


def test_output_rows_equal_output_at_signed_zeros():
    # at rest under a signed zero current, with the cells' deviations
    # alternating 0.0 and -0.0 over 80 cells (where ndarray.max and argmax
    # read different zeros of such a row), every temperature output and the
    # spread are zeros, of the same sign in both forms
    plant = make_pack(n=80, k=0.05, var=0.3, seed=2)
    states = np.zeros((2, 80, 4))
    states[:, 1::2, 3] = -0.0
    states[1, :, 3] *= -1.0
    for u in (0.0, -0.0):
        y = plant.advance(states[0], u)[0]
        assert not y[81:].any()
        for x in states:
            rows = np.broadcast_to(x, (plant.output_count,) + x.shape)
            out = plant.output_rows(rows, np.full(len(rows), u),
                                    np.arange(plant.output_count))
            scalar = plant.advance(x, u)[0]
            assert out.tolist() == scalar.tolist()
            assert np.array_equal(np.signbit(out), np.signbit(scalar))


class TestPackLayout:
    def test_output_count(self):
        assert make_pack(n=4).output_count == 1 + 4 + 4 + 1
        assert make_pack(n=4, layout=AllPairsPack).output_count == 1 + 4 + 4 + 12

    def test_constraint_labels(self):
        plant = make_pack(n=4)
        assert constraint_label(plant, 1) == ("current",)
        assert constraint_label(plant, 2) == ("voltage", 0)
        assert constraint_label(plant, 5) == ("voltage", 3)
        assert constraint_label(plant, 6) == ("temp", 0)
        assert constraint_label(plant, 10) == ("pair",)

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
            xp = pack.advance(xp, u)[1]
            xc = cell.advance(xc, u)[1]
            for i in range(3):
                assert np.allclose(xp[i], xc, rtol=1e-15)

    def test_identical_temperatures_no_coupling_flux(self):
        pack = make_pack(n=5, k=0.3)
        x = pack.initial_state()
        x[:, 3] = 2.5
        uncoupled = make_pack(n=5, k=0.0)
        assert np.allclose(pack.advance(x, 4.0)[1], uncoupled.advance(x, 4.0)[1],
                           rtol=1e-15)

    def test_symmetric_pack_stays_symmetric(self):
        pack = make_pack(n=6, k=2e-4, var=0.0)
        x = pack.initial_state()
        for t in range(300):
            x = pack.advance(x, 8.0)[1]
            assert np.all(x == x[0])

    def test_ring_indexing_wraps(self):
        pack = make_pack(n=4, k=0.1)
        x = pack.initial_state()
        x[0, 3] = 1.0  # only cell 0 warm
        x_next = pack.advance(x, 0.0)[1]
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
        tel = pack.telemetry(x[None], np.array([u]), pack.advance(x, u)[0][None])
        assert tel["v_pack"][0] == pytest.approx(manual, rel=1e-15)

    def test_pack_voltage_summation_along_run(self):
        pack = make_pack(n=3, var=0.2, seed=9)
        spec = pack.constraints((10.0, 12.0, 35.0), (1.0, 1.0, 500.0, 500.0))
        traj = oracle_trajectory(pack, spec, 120, pack.initial_state())
        base = pack.params.base
        for t, u in enumerate(traj.u):
            x = traj.states[t]
            manual = sum(base.ocv0 + base.ocv_slope * x[i, 2] + base.r_o * u
                         + x[i, 0] + x[i, 1] for i in range(3))
            assert traj.telemetry["v_pack"][t] == pytest.approx(manual, rel=1e-12)

    def test_summary_channels_match_each_step(self):
        # the whole-run columns against each step's own cell extrema and mean
        pack = make_pack(n=5, var=0.3, seed=4)
        spec = pack.constraints((10.0, 12.0, 35.0), (1.0, 1.0, 500.0, 500.0))
        traj = oracle_trajectory(pack, spec, 80, pack.initial_state())
        tel, t_amb = traj.telemetry, pack.params.base.t_ambient
        for t in range(len(traj)):
            td, soc = traj.states[t][:, 3], traj.states[t][:, 2]
            assert tel["t_max"][t] == td.max() + t_amb
            assert tel["t_min"][t] == td.min() + t_amb
            assert tel["dt_max"][t] == td.max() - td.min()
            assert tel["soc"][t] == soc.mean()


class TestPairwiseModes:
    # the package's spread output against the all-pairs reference layout

    def test_all_pairs_enumeration(self):
        plant = make_pack(n=3, var=0.3, seed=1, layout=AllPairsPack)
        x = plant.initial_state()
        rng = np.random.default_rng(4)
        x[:, 0] = rng.uniform(0, 1, 3)
        x[:, 3] = rng.uniform(0, 5, 3)
        y = plant.advance(x, 5.0)[0]
        t_outs, pair_block = y[1 + 3:1 + 2 * 3], y[1 + 2 * 3:]
        expected = [t_outs[j] - t_outs[k] for j in range(3) for k in range(3) if j != k]
        assert np.allclose(pair_block, expected, rtol=1e-15)

    def test_max_minus_min_equals_largest_pairwise(self):
        ap = make_pack(n=5, var=0.3, seed=6, layout=AllPairsPack)
        mm = make_pack(n=5, var=0.3, seed=6)
        x = ap.initial_state()
        rng = np.random.default_rng(12)
        x[:, 0] = rng.uniform(0, 1, 5)
        x[:, 3] = rng.uniform(0, 6, 5)
        u = 4.0
        ap_pairs = ap.advance(x, u)[0][1 + 10:]
        assert mm.advance(x, u)[0][-1] == pytest.approx(ap_pairs.max(), rel=1e-15)

    def test_selector_equivalence_between_modes(self):
        # identical active-constraint labels. Under the 5 K bound the spread
        # is never selected and the ideal currents are identical; the 0.5 K
        # bound rides the spread for most of the run, where the two layouts'
        # closed forms round differently, by about 1e-12 A
        for pair_max in (5.0, 0.5):
            results = {}
            for layout in (AllPairsPack, PackPlant):
                plant = make_pack(n=5, k=8e-5, var=0.3, seed=11, layout=layout,
                                  pair_max=pair_max)
                spec = plant.constraints((10.0, 12.0, 35.0), (1.0, 1.0, 500.0, 500.0))
                traj = oracle_trajectory(plant, spec, 400, plant.initial_state())
                labels = [constraint_label(plant, i) for i in traj.i_star]
                results[layout] = (labels, traj.u)
            labels, u = results[PackPlant]
            assert results[AllPairsPack][0] == labels
            if pair_max == 5.0:
                assert ("pair",) not in labels
                assert np.array_equal(results[AllPairsPack][1], u)
            else:
                assert labels.count(("pair",)) >= 200
                assert np.max(np.abs(results[AllPairsPack][1] - u)) <= 1e-10


class TestCellVariation:
    def test_cell_factors_are_numpys_draws_row_by_row(self):
        # cell k is scaled by row k of numpy's (n, 4) draw, in VARIED_FIELDS order
        pack = make_pack(n=7, var=0.3, seed=2 ** 40 + 5)
        rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(2 ** 40 + 5)))
        base = pack.params.base
        for cell, row in zip(pack.cells.params,
                             rng.uniform(1.0 - 0.3, 1.0 + 0.3, size=(7, 4)).tolist()):
            assert [getattr(cell, name) for name in VARIED_FIELDS] == [
                getattr(base, name) * f for name, f in zip(VARIED_FIELDS, row)]

    def test_variation_deterministic_and_bounded(self):
        a = make_pack(n=8, var=0.3, seed=21)
        b = make_pack(n=8, var=0.3, seed=21)
        c = make_pack(n=8, var=0.3, seed=22)
        assert a.cells.params == b.cells.params
        assert a.cells.params != c.cells.params
        base = a.params.base
        for name in ("r_1", "c_1", "r_2", "c_2"):
            arr = np.array([getattr(p, name) for p in a.cells.params])
            ref = getattr(base, name)
            assert np.all(arr >= ref * 0.7) and np.all(arr <= ref * 1.3)
