"""Scenario configuration: flat key = value files, loaders and builders.

A scenario file names the plant model, a model-parameter file, the constraint
bounds/weights, the controller settings and the analysis toggles. Parameter
files hold one section per model with units in comments. Both formats are
plain INI so they stay hand-editable and diff-friendly; configs round-trip
(parse -> serialize -> parse) to the identical dataclass.

The packaged defaults (``spmet``, ``ecm``, ``pack``, ``toy-linear``) live in
``bangride/data`` and can be referenced by bare name wherever a path is
accepted.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import io
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .controller import ConstraintSpec, ControllerState
from .errors import ConfigurationError
from .models import (EcmParams, EcmPlant, PackParams, PackPlant, SpmetParams,
                     SpmetPlant, ToyLinearPlant)
from .oracle import RootConfig
from .plant import PlantModel

MODEL_NAMES = ("spmet", "ecm", "pack", "toy-linear")
# the keys a scenario file may set, by section
SCENARIO_KEYS = {
    "scenario": ("model", "params", "t_f", "seed"),
    "constraints": ("y_bar", "gamma"),
    "controller": ("theta0", "theta_lo", "theta_hi", "mu1", "grad_clip"),
    "analysis": ("compute_jstar", "ct_diagnostics"),
    "output": ("dir",),
}


@dataclass
class ScenarioConfig:
    model: str
    params_file: str = ""            # empty selects the packaged default
    t_f: int = 1000
    seed: int = 0
    y_bar: tuple[float, ...] = ()    # pack: family bounds (u, cell V, cell dT)
    gamma: tuple[float, ...] = ()    # pack: family weights (u, V, dT, pair dT)
    theta0: tuple[float, float] = (0.1, 0.1)
    theta_lo: tuple[float, float] = (0.0, 0.0)
    theta_hi: tuple[float, float] = (10.0, 1.0)
    mu1: float = 0.5
    grad_clip: float | None = None
    compute_jstar: bool = False
    ct_diagnostics: bool = False
    out_dir: str = "runs"

    def __post_init__(self):
        if self.model not in MODEL_NAMES:
            raise ConfigurationError(
                f"unknown model {self.model!r}; expected one of {MODEL_NAMES}")
        self.y_bar = tuple(float(v) for v in self.y_bar)
        self.gamma = tuple(float(v) for v in self.gamma)
        if not self.y_bar or not self.gamma:
            raise ConfigurationError("y_bar and gamma must be non-empty")
        self.theta0 = tuple(float(v) for v in self.theta0)
        self.theta_lo = tuple(float(v) for v in self.theta_lo)
        self.theta_hi = tuple(float(v) for v in self.theta_hi)


def _data_path(name: str):
    return resources.files("bangride.data").joinpath(name)


def resolve_config_path(name_or_path: str):
    """Accept a filesystem path or the bare name of a packaged scenario."""
    p = Path(name_or_path)
    if p.exists():
        return p
    candidate = _data_path(f"{name_or_path}.cfg")
    if candidate.is_file():
        return candidate
    raise ConfigurationError(f"no such config file or packaged scenario: {name_or_path}")


def _parser() -> configparser.ConfigParser:
    return configparser.ConfigParser(inline_comment_prefixes=("#", ";"))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _bool(text: str) -> bool:
    word = text.strip().lower()
    if word not in ("true", "false"):
        raise ValueError("expected true or false")
    return word == "true"


def parse_value(text: str | None, convert, where: str):
    """``convert(text)``; a missing or malformed value is a
    ``ConfigurationError`` naming ``where``: a flag, or a file and its key."""
    if text is None:
        raise ConfigurationError(f"{where}: missing")
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigurationError(f"{where}: cannot read {text!r} ({exc})") from exc


def load_scenario(name_or_path: str) -> ScenarioConfig:
    path = resolve_config_path(name_or_path)
    cp = _parser()
    with path.open("r") as fh:
        cp.read_file(fh)
    try:
        sc = cp["scenario"]
        cons = cp["constraints"]
        ctrl = cp["controller"]
    except KeyError as exc:
        raise ConfigurationError(f"{path}: missing section {exc}") from exc
    for section in cp.sections():
        known = SCENARIO_KEYS.get(section)
        if known is None:
            raise ConfigurationError(f"{path}: unknown section [{section}]")
        for key in cp[section]:
            if key not in known:
                raise ConfigurationError(f"{path}: [{section}] unknown key {key!r}")
    ana = cp["analysis"] if cp.has_section("analysis") else {}
    out = cp["output"] if cp.has_section("output") else {}

    def value(section, key: str, default: str, convert):
        return parse_value(section.get(key, default), convert, f"{path}: {key}")

    cfg = ScenarioConfig(
        model=sc.get("model", ""),
        params_file=sc.get("params", "").strip(),
        t_f=value(sc, "t_f", "1000", int),
        seed=value(sc, "seed", "0", int),
        y_bar=value(cons, "y_bar", "", _floats),
        gamma=value(cons, "gamma", "", _floats),
        theta0=value(ctrl, "theta0", "0.1, 0.1", _floats),
        theta_lo=value(ctrl, "theta_lo", "0, 0", _floats),
        theta_hi=value(ctrl, "theta_hi", "10, 1", _floats),
        mu1=value(ctrl, "mu1", "0.5", float),
        grad_clip=value(ctrl, "grad_clip", "",
                        lambda text: float(text) if text.strip() else None),
        compute_jstar=value(ana, "compute_jstar", "false", _bool),
        ct_diagnostics=value(ana, "ct_diagnostics", "false", _bool),
        out_dir=str(out.get("dir", "runs")),
    )
    return cfg


def serialize_scenario(cfg: ScenarioConfig) -> str:
    def fmt(vals) -> str:
        return ", ".join(repr(float(v)) for v in vals)

    cp = _parser()
    cp["scenario"] = {
        "model": cfg.model,
        "params": cfg.params_file,
        "t_f": str(cfg.t_f),
        "seed": str(cfg.seed),
    }
    cp["constraints"] = {"y_bar": fmt(cfg.y_bar), "gamma": fmt(cfg.gamma)}
    ctrl = {
        "theta0": fmt(cfg.theta0),
        "theta_lo": fmt(cfg.theta_lo),
        "theta_hi": fmt(cfg.theta_hi),
        "mu1": repr(cfg.mu1),
    }
    if cfg.grad_clip is not None:
        ctrl["grad_clip"] = repr(cfg.grad_clip)
    cp["controller"] = ctrl
    cp["analysis"] = {
        "compute_jstar": str(cfg.compute_jstar).lower(),
        "ct_diagnostics": str(cfg.ct_diagnostics).lower(),
    }
    cp["output"] = {"dir": cfg.out_dir}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def save_scenario(cfg: ScenarioConfig, path) -> None:
    Path(path).write_text(serialize_scenario(cfg), encoding="utf-8")


def scenario_hash(cfg: ScenarioConfig) -> str:
    """Hash of the scientific configuration; where outputs land is excluded."""
    canon = dataclasses.replace(cfg, out_dir="")
    return hashlib.sha256(serialize_scenario(canon).encode()).hexdigest()[:16]


def _read_section(path, section: str) -> dict[str, str]:
    cp = _parser()
    with path.open("r") as fh:
        cp.read_file(fh)
    if not cp.has_section(section):
        raise ConfigurationError(f"{path}: missing [{section}] section")
    return dict(cp[section])


def params_path(cfg: ScenarioConfig, default_name: str):
    if not cfg.params_file:
        return _data_path(default_name)
    p = Path(cfg.params_file)
    if p.exists():
        return p
    candidate = _data_path(cfg.params_file)
    if candidate.is_file():
        return candidate
    raise ConfigurationError(f"parameter file not found: {cfg.params_file}")


def _params(make, path, section: str):
    """``make(**values)`` over the numbers of one parameter-file section; an
    unknown or missing key is a ``ConfigurationError``."""
    raw = _read_section(path, section)
    values = {k: parse_value(v, float, f"{path}: {k}") for k, v in raw.items()}
    try:
        return make(**values)
    except TypeError as exc:
        raise ConfigurationError(f"{path}: [{section}] {exc}") from exc


def load_spmet_params(path) -> SpmetParams:
    return _params(SpmetParams, path, "spmet")


def load_ecm_params(path) -> EcmParams:
    return _params(EcmParams, path, "ecm")


def load_pack_params(path) -> PackParams:
    base = load_ecm_params(path)
    raw = _read_section(path, "pack")
    known = {f.name for f in dataclasses.fields(PackParams)} - {"base"}
    for key in raw:
        if key not in known:
            raise ConfigurationError(f"{path}: [pack] unknown key {key!r}")

    def value(key: str, convert, default: str | None = None):
        return parse_value(raw.get(key, default), convert, f"{path}: {key}")

    return PackParams(
        base=base,
        n_cells=value("n_cells", int),
        k_left=value("k_left", float),
        k_right=value("k_right", float),
        dt_pair_max=value("dt_pair_max", float),
        pairwise_mode=raw.get("pairwise_mode", "max-minus-min").strip(),
        cell_variation=value("cell_variation", float, "0"),
        variation_seed=value("variation_seed", int, "0"),
    )


@dataclass
class BuiltScenario:
    """Everything needed to run one scenario; controllers are minted fresh."""

    cfg: ScenarioConfig
    model: PlantModel
    spec: ConstraintSpec
    x0: object
    config_hash: str
    # read only by the benchmark child (perfbench/child.py), for tol_y
    root_cfg: RootConfig = RootConfig()

    def new_controller(self) -> ControllerState:
        return ControllerState(
            theta=np.array(self.cfg.theta0),
            theta_lo=np.array(self.cfg.theta_lo),
            theta_hi=np.array(self.cfg.theta_hi),
            mu1=self.cfg.mu1,
            grad_clip=self.cfg.grad_clip,
        )


def build_scenario(cfg: ScenarioConfig) -> BuiltScenario:
    if cfg.model == "spmet":
        params = load_spmet_params(params_path(cfg, "params_spmet.cfg"))
        model = SpmetPlant(params)
        if len(cfg.y_bar) != 2 or len(cfg.gamma) != 2:
            raise ConfigurationError("spmet expects 2 bounds and 2 weights")
        spec = ConstraintSpec(y_bar=np.array(cfg.y_bar), gamma=np.array(cfg.gamma))
        x0 = model.initial_state(stoich=params.theta_1)
    elif cfg.model == "ecm":
        params = load_ecm_params(params_path(cfg, "params_ecm.cfg"))
        model = EcmPlant(params)
        if len(cfg.y_bar) != 3 or len(cfg.gamma) != 3:
            raise ConfigurationError("ecm expects 3 bounds and 3 weights")
        spec = ConstraintSpec(y_bar=np.array(cfg.y_bar), gamma=np.array(cfg.gamma))
        x0 = model.initial_state()
    elif cfg.model == "pack":
        params = load_pack_params(params_path(cfg, "params_pack.cfg"))
        model = PackPlant(params)
        if len(cfg.y_bar) != 3 or len(cfg.gamma) != 4:
            raise ConfigurationError(
                "pack expects 3 family bounds (u, cell V, cell dT) and "
                "4 family weights (u, V, dT, pair dT)")
        spec = model.build_constraints(
            u_max=cfg.y_bar[0], v_cell_max=cfg.y_bar[1], temp_dev_max=cfg.y_bar[2],
            gamma_current=cfg.gamma[0], gamma_voltage=cfg.gamma[1],
            gamma_temp=cfg.gamma[2], gamma_pair=cfg.gamma[3])
        x0 = model.initial_state()
    elif cfg.model == "toy-linear":
        model = _params(ToyLinearPlant, params_path(cfg, "params_toy.cfg"),
                        "toy-linear")
        if len(cfg.y_bar) != model.output_count or len(cfg.gamma) != model.output_count:
            raise ConfigurationError("toy bounds/weights must match output count")
        spec = ConstraintSpec(y_bar=np.array(cfg.y_bar), gamma=np.array(cfg.gamma))
        x0 = model.initial_state()
    else:  # unreachable: validated in __post_init__
        raise ConfigurationError(f"unknown model {cfg.model!r}")
    return BuiltScenario(cfg=cfg, model=model, spec=spec, x0=x0,
                         config_hash=scenario_hash(cfg))
