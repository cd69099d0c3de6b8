"""Scenario configuration: flat key = value files, loaders and builders.

A scenario file names the plant model, a model-parameter file, the constraint
bounds/weights, the controller settings and the analysis toggles. Its format
is stated once, in ``SCENARIO_FORMAT``, which loading, checking and
serialization all walk; a key a file leaves out takes the ``ScenarioConfig``
default. Parameter files hold one section per model with units in comments,
each value read as the type its model class declares. Both formats are plain
INI, hand-editable and diff-friendly; configs round-trip (serialize -> parse)
to the identical dataclass. ``build_scenario`` checks every setting, so a
command rejects a scenario before it writes anything, and imports only the
plant module its scenario names (``PLANTS``), whose plant states its own
bounds and start.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import io
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import models
from .controller import DEFAULT_THETA0, DEFAULT_THETA_HI, DEFAULT_THETA_LO, ControllerState
from .errors import ConfigurationError
from .plant import ConstraintSpec, PlantModel, RootConfig


@dataclass
class ScenarioConfig:
    model: str
    params_file: str = ""            # empty selects the packaged default
    t_f: int = 1000
    seed: int = 0
    y_bar: tuple[float, ...] = ()    # pack: family bounds (u, cell V, cell dT)
    gamma: tuple[float, ...] = ()    # pack: family weights (u, V, dT, pair dT)
    theta0: tuple[float, float] = DEFAULT_THETA0
    theta_lo: tuple[float, float] = DEFAULT_THETA_LO
    theta_hi: tuple[float, float] = DEFAULT_THETA_HI
    mu1: float = 0.5
    grad_clip: float | None = None
    compute_jstar: bool = False
    ct_diagnostics: bool = False
    out_dir: str = "runs"
    base_dir: str = dataclasses.field(default="", compare=False)  # the loaded file's folder

    def __post_init__(self):
        if self.model not in MODEL_NAMES:
            raise ConfigurationError(
                f"unknown model {self.model!r}; expected one of {MODEL_NAMES}")
        for name in ("y_bar", "gamma", "theta0", "theta_lo", "theta_hi"):
            setattr(self, name, tuple(float(v) for v in getattr(self, name)))
        if not self.y_bar or not self.gamma:
            raise ConfigurationError("y_bar and gamma must be non-empty")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _floats_text(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return text.lower() == "true"


# The scenario file: (section, key, field, read, write) for each field of
# ScenarioConfig but base_dir, in field order, which is the file order. ``read``
# takes a key's stripped text; ``write`` gives the text, or None to leave it out.
SCENARIO_FORMAT = (
    ("scenario", "model", "model", str, str),
    ("scenario", "params", "params_file", str, str),
    ("scenario", "t_f", "t_f", int, str),
    ("scenario", "seed", "seed", int, str),
    ("constraints", "y_bar", "y_bar", _floats, _floats_text),
    ("constraints", "gamma", "gamma", _floats, _floats_text),
    ("controller", "theta0", "theta0", _floats, _floats_text),
    ("controller", "theta_lo", "theta_lo", _floats, _floats_text),
    ("controller", "theta_hi", "theta_hi", _floats, _floats_text),
    ("controller", "mu1", "mu1", float, str),
    ("controller", "grad_clip", "grad_clip",
     lambda text: float(text) if text else None,
     lambda value: None if value is None else str(value)),
    ("analysis", "compute_jstar", "compute_jstar", _bool, lambda v: str(v).lower()),
    ("analysis", "ct_diagnostics", "ct_diagnostics", _bool, lambda v: str(v).lower()),
    ("output", "dir", "out_dir", str, str),
)


def _data_path(name: str):
    return resources.files("bangride.data").joinpath(name)


def _find(name: str | Path, packaged: str, what: str):
    """The file ``name`` (not a directory), else the packaged data file ``packaged``."""
    if Path(name).is_file():
        return Path(name)
    if _data_path(packaged).is_file():
        return _data_path(packaged)
    raise ConfigurationError(f"{what} not found: {name}")


def resolve_config_path(name_or_path: str):
    """Accept a filesystem path or the bare name of a packaged scenario."""
    return _find(name_or_path, f"{name_or_path}.cfg", "config file or packaged scenario")


def params_path(cfg: ScenarioConfig, default_name: str):
    if not cfg.params_file:
        return _data_path(default_name)
    return _find(Path(cfg.base_dir, cfg.params_file), cfg.params_file, "parameter file")


def _parser() -> configparser.ConfigParser:
    # no interpolation: "%" in a value is just a character
    return configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                     interpolation=None)


def _read(path) -> configparser.ConfigParser:
    cp = _parser()
    try:
        with path.open("r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    return cp


def parse_value(text: str, convert, where: str):
    """``convert(text)``; a malformed value is a ``ConfigurationError``
    naming ``where``: a flag, or a file and its key."""
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigurationError(f"{where}: cannot read {text!r} ({exc})") from exc


def load_scenario(name_or_path: str) -> ScenarioConfig:
    path = resolve_config_path(name_or_path)
    cp = _read(path)
    sections = {entry[0] for entry in SCENARIO_FORMAT}
    keys = {entry[:2] for entry in SCENARIO_FORMAT}
    for section in cp.sections():
        if section not in sections:
            raise ConfigurationError(f"{path}: unknown section [{section}]")
        for key in cp[section]:
            if (section, key) not in keys:
                raise ConfigurationError(f"{path}: [{section}] unknown key {key!r}")
    for section in ("scenario", "constraints", "controller"):  # the rest may be left out
        if not cp.has_section(section):
            raise ConfigurationError(f"{path}: missing section [{section}]")
    values = {field: parse_value(cp[section][key], read, f"{path}: {key}")
              for section, key, field, read, _ in SCENARIO_FORMAT
              if cp.has_option(section, key)}
    try:
        return ScenarioConfig(**values, base_dir=str(path.parent))
    except (TypeError, ConfigurationError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def serialize_scenario(cfg: ScenarioConfig) -> str:
    cp = _parser()
    for section, key, field, _, write in SCENARIO_FORMAT:
        text = write(getattr(cfg, field))
        if text is not None:
            cp.read_dict({section: {key: text}})
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def save_scenario(cfg: ScenarioConfig, path) -> None:
    Path(path).write_text(serialize_scenario(cfg), encoding="utf-8")


def scenario_hash(cfg: ScenarioConfig) -> str:
    """Hash of the scientific configuration; where outputs land and where the
    parameter file lies, whose bytes a run's ``params_hash`` covers, are excluded."""
    canon = dataclasses.replace(cfg, out_dir="", params_file="")
    return hashlib.sha256(serialize_scenario(canon).encode()).hexdigest()[:16]


def _params(make, path, section: str, **given):
    """``make(**given, **values)`` over one parameter-file section, each value
    read as the type ``make.__init__`` declares for its key, a float only if
    it is finite. An unknown key, a malformed value, a missing key or a value
    the model rejects is a ``ConfigurationError`` naming the file."""
    cp = _read(path)
    if not cp.has_section(section):
        raise ConfigurationError(f"{path}: missing [{section}] section")
    types = make.__init__.__annotations__
    values = {}
    for key, text in cp[section].items():
        if key not in types:
            raise ConfigurationError(f"{path}: [{section}] unknown key {key!r}")
        values[key] = parse_value(text, int if types[key] == "int" else _finite,
                                  f"{path}: {key}")
    try:
        return make(**given, **values)
    except (TypeError, ConfigurationError) as exc:
        raise ConfigurationError(f"{path}: [{section}] {exc}") from exc


def load_spmet_params(path) -> models.SpmetParams:
    return _params(models.SpmetParams, path, "spmet")


def load_ecm_params(path) -> models.EcmParams:
    return _params(models.EcmParams, path, "ecm")


def _pack_plant(path) -> models.PackPlant:
    params = _params(models.PackParams, path, "pack", base=load_ecm_params(path))
    try:    # the varied cells are checked as the plant builds them
        return models.PackPlant(params)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


# A scenario's ``model`` -> (its packaged parameter file, its plant built
# from a parameter file). Each ``models.X`` imports only X's module, on first
# use.
PLANTS = {
    "spmet": ("params_spmet.cfg",
              lambda path: models.SpmetPlant(load_spmet_params(path))),
    "ecm": ("params_ecm.cfg", lambda path: models.EcmPlant(load_ecm_params(path))),
    "pack": ("params_pack.cfg", _pack_plant),
    "toy-linear": ("params_toy.cfg",
                   lambda path: _params(models.ToyLinearPlant, path, "toy-linear")),
}
MODEL_NAMES = tuple(PLANTS)
# the packaged scenarios, each accepted by its bare name where a path is
SCENARIOS = ("spmet", "ecm", "pack", "toy")


@dataclass
class BuiltScenario:
    """Everything needed to run one scenario; every run reads its one controller."""

    cfg: ScenarioConfig
    model: PlantModel
    spec: ConstraintSpec
    x0: object
    params_path: Path     # the parameter file the plant was built from, packaged or not
    controller: ControllerState
    # read only by the benchmark child (perfbench/child.py), for tol_y
    root_cfg: RootConfig = RootConfig()


def build_scenario(cfg: ScenarioConfig) -> BuiltScenario:
    """The plant of ``cfg``, with the constraints and start state it states
    (``PlantModel.constraints``, ``initial_state()``). Every setting is
    checked here, the controller's included, so a scenario that builds runs."""
    if cfg.t_f < 0 or cfg.seed < 0:
        raise ConfigurationError(f"t_f and seed must be >= 0, got {cfg.t_f}, {cfg.seed}")
    packaged, plant = PLANTS[cfg.model]
    path = params_path(cfg, packaged)
    model = plant(path)
    spec = model.constraints(cfg.y_bar, cfg.gamma)
    x0 = model.initial_state()
    controller = ControllerState(theta=cfg.theta0, theta_lo=cfg.theta_lo,
                                 theta_hi=cfg.theta_hi, mu1=cfg.mu1, grad_clip=cfg.grad_clip)
    return BuiltScenario(cfg=cfg, model=model, spec=spec, x0=x0, params_path=path,
                         controller=controller)
