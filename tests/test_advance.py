"""``PlantModel.advance``, the plant contract's one method: each packaged
plant's next state, and the ECM ensemble's and the pack's outputs, against a
separate computation (``tests/references.py``), bit for bit, y_1 = u bit
for bit on every plant, and the contract itself."""

import importlib
import inspect
import pkgutil

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import bangride
from bangride import EcmParams, PackParams, PackPlant, SpmetPlant, ToyLinearPlant
from bangride.config import load_spmet_params, resolve_config_path
from bangride.models.ecm import EcmEnsemble, EcmPlant, perturb_params
from bangride.plant import PlantModel
from references import (AllPairsPack, ecm_ensemble_outputs, ecm_ensemble_step, ecm_step,
                        pack_outputs, pack_step, spmet_step, toy_step)

ECM_BASE = EcmParams(r_o=0.05, r_1=0.15, r_2=0.35, c_1=1000.0, c_2=1700.0,
                     q=12000.0, a=0.002, b=1.8e-3, ocv0=3.0, ocv_slope=3.0, dt=1.0)
SPMET = SpmetPlant(load_spmet_params(resolve_config_path("params_spmet")))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_advance(plant, x, u, reference, outputs=None) -> None:
    # y_1 is u bit for bit, -0.0 and an ensemble's NaN rows included: the
    # trajectory CSV writes u's cells for it
    y, x_next = plant.advance(x, u)
    assert same_bits(np.asarray(y, dtype=float)[..., 0], u)
    assert same_bits(x_next, reference(plant, x, u))
    if outputs is not None:
        assert same_bits(y, outputs(plant, x, u))


def signed(lo: float, hi: float):
    return st.sampled_from([0.0, -0.0]) | st.floats(lo, hi)


@settings(max_examples=200, deadline=None)
@given(c=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       ce=st.tuples(st.floats(50.0, 3000.0), st.floats(50.0, 3000.0)),
       # near 0 degC the next temperature is small, so that the heat's last
       # bits reach it
       temp=st.floats(-20.0, 80.0) | st.floats(-0.05, 0.05), u=signed(-100.0, 200.0))
def test_spmet(c, ce, temp, u):
    c_max = SPMET.params.c_max
    x = np.array([c[0] * c_max, c[1] * c_max, ce[0], ce[1], temp])
    assert_advance(SPMET, x, u, spmet_step)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       x=st.tuples(signed(-1.0, 2.0), signed(-1.0, 3.0), signed(0.0, 1.2),
                   signed(-5.0, 30.0)),
       u=signed(-10.0, 60.0))
def test_ecm_cell(seed, x, u):
    plant = EcmPlant(perturb_params(ECM_BASE, 0.3, seed))
    assert_advance(plant, np.array(x), u, ecm_step)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       rows=st.lists(st.tuples(signed(-1.0, 2.0), signed(-1.0, 3.0), signed(0.0, 1.2),
                               signed(-5.0, 30.0), signed(-10.0, 60.0)),
                     min_size=1, max_size=6),
       nan_row=st.booleans())
def test_ecm_ensemble(seed, rows, nan_row):
    # per-member inputs, and a NaN row as simulate_batch gives a member
    # that is out
    ensemble = EcmEnsemble([perturb_params(ECM_BASE, 0.3, (seed, k))
                            for k in range(len(rows) + nan_row)])
    x = np.array([r[:4] for r in rows] + [[np.nan] * 4] * nan_row)
    u = np.array([r[4] for r in rows] + [np.nan] * nan_row)
    assert_advance(ensemble, x, u, ecm_ensemble_step, ecm_ensemble_outputs)


@settings(max_examples=60, deadline=None)
@given(layout=st.sampled_from([PackPlant, AllPairsPack]),
       seed=st.integers(0, 2 ** 32 - 1), n_cells=st.integers(2, 6),
       u=signed(-5.0, 60.0))
def test_pack(layout, seed, n_cells, u):
    rng = np.random.default_rng(seed)
    pack = layout(PackParams(base=ECM_BASE, n_cells=n_cells,
                             k_left=float(rng.uniform(0.0, 0.1)),
                             k_right=float(rng.uniform(0.0, 0.1)),
                             dt_pair_max=5.0, cell_variation=0.3, variation_seed=seed))
    x = rng.uniform(-1.0, 6.0, (n_cells, 4)) * rng.choice([-0.0, 1.0, 10.0], (n_cells, 4))
    assert_advance(pack, x, u, pack_step, pack_outputs)


@settings(max_examples=200, deadline=None)
@given(coef=st.tuples(signed(-2.0, 2.0), st.floats(0.1, 3.0), signed(-2.0, 2.0),
                      st.floats(0.1, 3.0)),
       p=st.sampled_from([1, 2]), x=signed(-1e3, 1e3), u=signed(-1e3, 1e3))
def test_toy(coef, p, x, u):
    plant = ToyLinearPlant(*coef, p=p)
    assert_advance(plant, np.array([x]), u, toy_step)


def floats(values) -> bool:
    return type(values) is list and all(type(v) is float for v in values)


def test_contract_is_advance(scenarios):
    # advance and riding_currents are the required methods: no class under
    # bangride defines step, outputs or output, and each packaged plant's
    # advance returns output_count outputs and a next state of its state's
    # shape. A vector plant's advance and riding_currents return lists of
    # Python floats, given the state as a list or a 1-D array; the pack's
    # return arrays
    assert PlantModel.__abstractmethods__ == {"advance", "riding_currents"}
    classes = []
    for info in pkgutil.walk_packages(bangride.__path__, "bangride."):
        module = importlib.import_module(info.name)
        classes += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                    if cls.__module__ == module.__name__]
    assert {"EcmPlant", "EcmEnsemble", "PackPlant", "SpmetPlant",
            "ToyLinearPlant"} <= {cls.__name__ for cls in classes}
    assert [cls.__name__ for cls in classes
            if {"step", "outputs", "output"} & vars(cls).keys()] == []
    for name in ("spmet", "ecm", "toy"):
        built = scenarios[name]
        model, x0, y_bar = built.model, built.x0, built.spec.y_bar
        assert x0.ndim == 1
        for x in (x0, x0.tolist()):
            y, x_next = model.advance(x, 1.0)
            assert floats(y) and len(y) == model.output_count
            assert floats(x_next) and len(x_next) == len(x0)
            roots = model.riding_currents(x, y_bar)
            assert floats(roots) and len(roots) == model.output_count
    for built in scenarios.values():
        assert same_bits(built.model.advance(built.x0, -0.0)[0][0], -0.0)
    pack = scenarios["pack"]
    y, x_next = pack.model.advance(pack.x0, 1.0)
    assert type(y) is type(x_next) is np.ndarray
    assert y.shape == (pack.model.output_count,) and x_next.shape == pack.x0.shape
    roots = pack.model.riding_currents(pack.x0, pack.spec.y_bar)
    assert type(roots) is np.ndarray and roots.shape == (pack.model.output_count,)


def test_kernels_only_read_their_inputs():
    # the in-place kernels write into buffers of their own: the state, the
    # inputs and y_bar are left as they were, and two calls share no memory
    rng = np.random.default_rng(3)
    pack = PackPlant(PackParams(base=ECM_BASE, n_cells=6, k_left=0.01, k_right=0.02,
                                dt_pair_max=0.5, cell_variation=0.3, variation_seed=4))
    ensemble = EcmEnsemble([perturb_params(ECM_BASE, 0.3, (5, k)) for k in range(6)])
    x = rng.uniform(0.0, 3.0, (6, 4))
    u = rng.uniform(0.0, 20.0, 6)
    y_bar = np.array([10.0, 4.0, 1.5])
    spec = pack.constraints((10.0, 4.0, 1.5), (1.0, 1.0, 500.0, 500.0))
    kept = x.copy(), u.copy(), y_bar.copy(), spec.y_bar.copy()

    def twice(call):
        first, second = (r if isinstance(r, tuple) else (r,) for r in (call(), call()))
        for a, b in zip(first, second):
            assert same_bits(a, b) and not np.shares_memory(a, b)

    twice(lambda: pack.advance(x, 7.0))
    twice(lambda: pack.riding_currents(x, spec.y_bar))
    twice(lambda: ensemble.advance(x, u))
    twice(lambda: ensemble.advance_into(x, u, np.empty(6), np.empty(6)))
    twice(lambda: ensemble.riding_currents(x, y_bar))
    for a, b in zip((x, u, y_bar, spec.y_bar), kept):
        assert same_bits(a, b)
