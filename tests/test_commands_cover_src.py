"""Every function under ``src/`` serves a command: run a fixed list of CLI
commands under a profiler and require that each ``def`` and ``lambda`` in the
package was called, apart from an allowlist that gives its reason per entry.
Code that only tests use belongs in ``tests/references.py``."""

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
    "PlantModel.output_rows": "the default, which every packaged plant overrides; "
                              "the tests use it as the overrides' reference",
    "simulate_batch.<locals>.drop": "runs only when a member fails the guard",
}

COMMANDS = [[command, "--config", config, "--steps", "30"] + svg
            for config in ("spmet", "ecm", "pack", "toy")
            for command, svg in (("compare", ["--svg"]), ("regret", []),
                                 ("simulate", []), ("oracle", []))]
COMMANDS += [
    ["montecarlo", "--config", "ecm", "--models", "2", "--svg", "--steps", "30"],
    ["validate"],
]
DIVERGING = ["simulate", "--config", "toy", "--steps", "5", "--gamma", "1e155,1e155"]
USAGE_ERROR = ["simulate", "--config", "toy", "--frobnicate"]
NO_FAMILY = ["montecarlo", "--config", "spmet", "--steps", "30"]   # PlantModel.perturbed


def defined_functions() -> dict[tuple[str, types.CodeType], str]:
    """(file, code) of every ``def`` and ``lambda`` under src/ -> its name:
    a def's qualified name, and a lambda's with its file, first line and
    order on that line, as ``Owner.<lambda>@file.py:line#order``.
    Class bodies and comprehensions are not counted. A code object equals
    the one the imported module runs, as both compile the same source."""
    found = {}
    on_line: dict[tuple[str, int], int] = {}

    def walk(code: types.CodeType, prefix: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if not const.co_flags & inspect.CO_OPTIMIZED:     # a class body
                walk(const, f"{prefix}{const.co_name}.")
            elif const.co_name == "<lambda>":
                line = (const.co_filename, const.co_firstlineno)
                on_line[line] = on_line.get(line, 0) + 1
                where = Path(const.co_filename).relative_to(SRC).as_posix()
                found[(const.co_filename, const)] = (
                    f"{prefix}<lambda>@{where}:{const.co_firstlineno}#{on_line[line]}")
                walk(const, f"{prefix}<lambda>.<locals>.")
            elif const.co_name.startswith("<"):              # a comprehension
                walk(const, prefix)
            else:
                qualname = prefix + const.co_name
                found[(const.co_filename, const)] = qualname
                walk(const, f"{qualname}.<locals>.")

    for path in sorted(SRC.rglob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "")
    return found


def test_every_src_function_serves_a_command(tmp_path, capsys):
    called = set()

    def collect(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code))

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

    functions = defined_functions()
    assert len(functions) > 100
    assert set(ALLOWED) <= set(functions.values())
    uncalled = sorted(name for key, name in functions.items()
                      if key not in called and name not in ALLOWED)
    assert uncalled == []
