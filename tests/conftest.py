from unittest import mock

import pytest
from hypothesis import settings

from bangride import oracle_trajectory, plant, run_closed_loop
from bangride.config import build_scenario, load_scenario

# Every run draws the same examples and replays none from a local example
# database; each test keeps its own max_examples and deadline. The seed sweep
# (tests/seed_sweep.py) passes `--hypothesis-profile=sweep --hypothesis-seed=k`,
# which pytest applies after this file loads: random draws from seed k, and
# still no example database written into the checkout.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("sweep", database=None)
settings.load_profile("tier1")


def guard(magnitude: float):
    """A context manager that sets ``plant.GUARD`` to ``magnitude`` in its
    block: the guard of every run that ``simulate``, ``simulate_batch`` and
    the loops of ``references`` step there, as they read it at call time.
    Unlike the ``monkeypatch`` fixture, it works inside ``@given`` bodies."""
    return mock.patch.object(plant, "GUARD", magnitude)


@pytest.fixture(scope="session")
def scenarios():
    """Built packaged scenarios, keyed by name."""
    return {name: build_scenario(load_scenario(name))
            for name in ("spmet", "ecm", "pack", "toy")}


@pytest.fixture(scope="session")
def free_runs(scenarios):
    """One model-free run per packaged scenario, with wall time."""
    import time
    out = {}
    for name, built in scenarios.items():
        t0 = time.perf_counter()
        traj = run_closed_loop(built.model, built.controller, built.spec,
                               built.cfg.t_f, built.x0)
        out[name] = (traj, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="session")
def oracle_runs(scenarios):
    """One ideal bang-ride run per packaged scenario."""
    out = {}
    for name, built in scenarios.items():
        out[name] = oracle_trajectory(built.model, built.spec, built.cfg.t_f,
                                      built.x0)
    return out
