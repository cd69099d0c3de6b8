"""Every function and option under ``src/`` serves a command: run a fixed
list of CLI commands under a profiler and require that each ``def`` and
``lambda`` in the package was called, and that each keyword default of a
``def`` was set by some call to a value that neither is the default nor
equals it, apart from two allowlists that give their reason per entry.
Dataclass fields are not options here: they are the scenario and parameter
file formats. Code and options that only tests use belong in ``tests/``
(``references.py``, ``conftest.py``)."""

import gc
import importlib
import inspect
import sys
import types
from pathlib import Path

import bangride
from bangride.cli import main

SRC = Path(bangride.__file__).parent

# qualified name -> why no command calls it
ALLOWED = {
    "PlantModel.advance": "abstract method",
    "PlantModel.riding_currents": "abstract method",
    "simulate_batch.<locals>.drop": "runs only when a member fails the guard",
}

# (qualified name, keyword) -> why no command sets it
UNSET = {
    ("__getattr__", "module"): "bangride binds it to its own name for its own "
                               "lookup of the plant names, which no command uses",
    **{("ToyLinearPlant.__init__", key): "a key of the toy's parameter file, read "
       "through config._params; the packaged file holds the defaults"
       for key in ("a", "b", "c", "d", "p")},
}

COMMANDS = [[command, "--config", config, "--steps", "30"] + svg
            for config in ("spmet", "ecm", "pack", "toy")
            for command, svg in (("compare", ["--svg"]), ("regret", []),
                                 ("simulate", []), ("oracle", []))]
COMMANDS += [
    ["montecarlo", "--config", "ecm", "--models", "2", "--svg", "--steps", "30"],
    ["montecarlo", "--config", "ecm", "--models", "2", "--steps", "30"],
    ["validate"],
]
DIVERGING = ["simulate", "--config", "toy", "--steps", "5", "--gamma", "1e155,1e155"]
USAGE_ERROR = ["simulate", "--config", "toy", "--frobnicate"]
NO_FAMILY = ["montecarlo", "--config", "spmet", "--steps", "30"]   # PlantModel.perturbed


def src_modules() -> list[types.ModuleType]:
    """Every module under src/, imported; ``__main__``, which runs the CLI
    when imported as the main module, holds no function and is left out."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] != "__main__":
            found.append(importlib.import_module(
                ".".join(parts[:-1] if parts[-1] == "__init__" else parts)))
    return found


def defined_functions() -> dict[tuple[str, types.CodeType], str]:
    """(file, code) of every ``def`` and ``lambda`` under src/ -> its name:
    a def's qualified name, and a lambda's with its file, first line and
    order on that line, as ``Owner.<lambda>@file.py:line#order``.
    Class bodies and comprehensions are not counted.

    The code is the code that runs: every function object of the imported
    package (``gc.get_objects``), and the code nested in their
    ``co_consts``, such as a def or a lambda inside a function that no call
    has made yet. No source file is read, so an edit on disk after import
    changes nothing. A top-level function is named by its ``__qualname__``
    and a nested one by walking down from it, which names code the same way
    on every Python version (``co_qualname`` exists only from 3.11).
    Top-level lambdas sharing a line would be numbered in the order
    ``gc.get_objects`` lists them; no line holds two today."""
    src_modules()
    live = [f for f in gc.get_objects() if isinstance(f, types.FunctionType)
            and Path(f.__code__.co_filename).is_relative_to(SRC)]
    found = {}
    on_line: dict[tuple[str, int], int] = {}

    def name(code: types.CodeType, owner: str) -> str:
        """``code``'s name as the docstring gives it; ``owner`` is the
        qualified name up to and including its last dot."""
        if code.co_name != "<lambda>":
            return owner + code.co_name
        line = (code.co_filename, code.co_firstlineno)
        on_line[line] = on_line.get(line, 0) + 1
        where = Path(code.co_filename).relative_to(SRC).as_posix()
        return f"{owner}<lambda>@{where}:{code.co_firstlineno}#{on_line[line]}"

    def walk(code: types.CodeType, prefix: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if not const.co_flags & inspect.CO_OPTIMIZED:     # a class body
                walk(const, f"{prefix}{const.co_name}.")
            elif const.co_name.startswith("<") and const.co_name != "<lambda>":
                walk(const, prefix)                           # a comprehension
            else:
                found[(const.co_filename, const)] = name(const, prefix)
                walk(const, f"{prefix}{const.co_name}.<locals>.")

    nested = set()

    def collect(code: types.CodeType) -> None:
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                nested.add(const)
                collect(const)

    for function in live:
        collect(function.__code__)
    tops = {f.__code__: f.__qualname__ for f in live if f.__code__ not in nested}
    for code, qualname in tops.items():
        found[(code.co_filename, code)] = name(code, qualname[:-len(code.co_name)])
        walk(code, f"{qualname}.<locals>.")
    return found


def module_functions() -> list[types.FunctionType]:
    """The functions of every module under src/ and of the classes it
    defines, decorators unwrapped."""
    found = []
    for module in src_modules():
        for value in list(vars(module).values()):
            members = [value]
            if isinstance(value, type) and value.__module__ == module.__name__:
                members += vars(value).values()
            for member in members:
                function = inspect.unwrap(getattr(member, "__func__", member))
                if (isinstance(function, types.FunctionType)
                        and Path(function.__code__.co_filename).is_relative_to(SRC)):
                    found.append(function)
    return found


def keyword_defaults(function: types.FunctionType) -> dict[str, object]:
    """Each parameter of ``function`` that has a default -> the default."""
    return {name: p.default for name, p in
            inspect.signature(function, follow_wrapped=False).parameters.items()
            if p.default is not p.empty}


def running_function(code: types.CodeType) -> types.FunctionType:
    """The function object that runs ``code``, while a call runs it."""
    return next(f for f in gc.get_referrers(code) if isinstance(f, types.FunctionType))


def sets_option(value, default) -> bool:
    """Whether an argument sets its option: it is not the default object and
    does not compare equal to it (an array of more than one entry never does)."""
    if value is default:
        return False
    try:
        return not bool(value == default)
    except (TypeError, ValueError):
        return True


def test_every_src_function_serves_a_command(tmp_path, capsys):
    functions = defined_functions()
    called, options_set = set(), set()
    # code -> its keyword defaults; a nested def or a lambda, which no module
    # walk reaches, is looked up on its first call; code outside src has none
    defaults = {f.__code__: keyword_defaults(f) for f in module_functions()}

    def collect(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        called.add((code.co_filename, code))
        options = defaults.get(code)
        if options is None:
            in_src = (code.co_filename, code) in functions
            options = defaults[code] = keyword_defaults(running_function(code)) if in_src else {}
        for name, default in options.items():
            if sets_option(frame.f_locals[name], default):
                options_set.add((code, name))

    runs = [(argv, 0) for argv in COMMANDS] + [(DIVERGING, 2), (USAGE_ERROR, 1),
                                               (NO_FAMILY, 1)]
    previous = sys.getprofile()
    sys.setprofile(collect)
    try:
        codes = [main(argv if argv[0] == "validate" else
                      argv + ["--out", str(tmp_path / str(k))])
                 for k, (argv, _) in enumerate(runs)]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [code for _, code in runs]

    assert len(functions) > 100
    assert set(ALLOWED) <= set(functions.values())
    uncalled = sorted(name for key, name in functions.items()
                      if key not in called and name not in ALLOWED)
    assert uncalled == []

    options = {(functions[(code.co_filename, code)], name): (code, name)
               for code, given in defaults.items() if given for name in given}
    assert len(options) > 15
    assert set(UNSET) <= set(options)
    unset = sorted(option for option, key in options.items()
                   if key not in options_set and option not in UNSET)
    assert unset == []
