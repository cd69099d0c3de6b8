"""The package's import surface: a command loads only its scenario's plant
module, the plant names resolve on first use to their defining modules, and
each module imports only from the layers below its own."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bangride
import bangride.models

SRC = str(Path(bangride.__file__).parents[1])

# the package's layers, lowest first; a module's layer is its first name
# under ``bangride``, so every plant module is in ``models``
LAYERS = ("errors", "plant", "controller models", "oracle", "analysis",
          "config csvio svg", "cli")
RANK = {name: rank for rank, names in enumerate(LAYERS) for name in names.split()}

# what a command's set-up imports, then the plant modules it has loaded
SETUP = """
import sys
import bangride.cli
from bangride.config import build_scenario, load_scenario
build_scenario(load_scenario(sys.argv[1]))
print(" ".join(sorted(name.rpartition(".")[2] for name in sys.modules
                      if name.startswith("bangride.models."))))
"""


# a command's set-up, then the command itself, and whether either loaded
# numpy.random
RUN = """
import sys
import bangride.cli
from bangride.config import build_scenario, load_scenario
argv = sys.argv[1:]
build_scenario(load_scenario(argv[argv.index("--config") + 1]))
code = bangride.cli.main(argv)
print(code, "numpy.random" in sys.modules)
"""


def python(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` run with ``args`` in a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("scenario, loaded", [
    ("toy", "toy"), ("spmet", "spmet"), ("ecm", "ecm"),
    ("pack", "ecm pack"),      # the pack stacks ECM cells
])
def test_a_scenario_loads_only_its_plant_module(scenario, loaded):
    done = python(SETUP, scenario)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == loaded.split()


@pytest.mark.parametrize("argv", [
    "montecarlo --config ecm --models 2 --steps 20",   # the perturbed models' draws
    "compare --config pack --steps 20",                # the pack's cell factors
])
def test_perturbed_models_and_packs_do_not_import_numpy_random(argv, tmp_path):
    done = python(RUN, *argv.split(), "--out", str(tmp_path / "run"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


def test_plant_names_are_their_defining_modules_objects():
    for package in (bangride, bangride.models):
        for name in set(package.__all__) - {"__version__"}:
            value = getattr(package, name)
            assert value is getattr(sys.modules[value.__module__], name), name
    assert bangride.EcmPlant is bangride.models.ecm.EcmPlant
    assert bangride.models.PackParams is bangride.models.pack.PackParams
    assert set(bangride.models.__all__) <= set(bangride.__all__)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from bangride import *", namespace)
    assert [name for name in bangride.__all__ if name not in namespace] == []
    assert namespace["SpmetPlant"] is bangride.models.spmet.SpmetPlant


@pytest.mark.parametrize("package", [bangride, bangride.models])
def test_unknown_name_names_the_package_it_was_looked_up_on(package):
    with pytest.raises(AttributeError) as info:
        package.Nope
    assert str(info.value) == f"module {package.__name__!r} has no attribute 'Nope'"
    assert not hasattr(package, "nope")


def test_importing_an_unknown_name_is_an_import_error():
    with pytest.raises(ImportError, match="Nope"):
        from bangride import Nope  # noqa: F401


def package_imports():
    """The package's modules, as dotted names under ``bangride``, and the
    (importer, imported) pairs of their relative imports. The package
    ``__init__`` and ``__main__`` are neither, so ``from . import
    __version__`` names no module."""
    root = Path(bangride.__file__).parent
    paths = {".".join(path.relative_to(root).with_suffix("").parts).removesuffix(".__init__"):
             path for path in root.rglob("*.py")}
    del paths["__init__"], paths["__main__"]
    edges = set()
    for name, path in paths.items():
        package = ".".join(("bangride", *path.relative_to(root).parent.parts))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            base = importlib.util.resolve_name("." * node.level + (node.module or ""), package)
            targets = [base] if node.module else [f"{base}.{a.name}" for a in node.names]
            edges.update((name, target.removeprefix("bangride.")) for target in targets
                         if target.removeprefix("bangride.") in paths)
    return paths, edges


def layer(module: str) -> str:
    return module.split(".")[0]


def test_each_module_imports_only_from_lower_layers():
    paths, edges = package_imports()
    assert sorted(name for name in paths if layer(name) not in RANK) == []
    assert len(edges) >= 30
    # one plant module may import another: the pack stacks ECM cells
    upward = sorted(f"{a} -> {b}" for a, b in edges
                    if RANK[layer(a)] <= RANK[layer(b)] and not layer(a) == layer(b) == "models")
    assert upward == []
    # the plant contract stands on the errors alone, and a plant module on
    # the contract, the errors and the ECM cells
    assert {b for a, b in edges if a == "plant"} == {"errors"}
    assert {b for a, b in edges if layer(a) == "models"} <= {"plant", "errors", "models.ecm"}
