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
    ana = cp["analysis"] if cp.has_section("analysis") else {}
    out = cp["output"] if cp.has_section("output") else {}
    clip = ctrl.get("grad_clip", "").strip()
    cfg = ScenarioConfig(
        model=sc.get("model", ""),
        params_file=sc.get("params", "").strip(),
        t_f=int(sc.get("t_f", "1000")),
        seed=int(sc.get("seed", "0")),
        y_bar=_floats(cons.get("y_bar", "")),
        gamma=_floats(cons.get("gamma", "")),
        theta0=_floats(ctrl.get("theta0", "0.1, 0.1")),
        theta_lo=_floats(ctrl.get("theta_lo", "0, 0")),
        theta_hi=_floats(ctrl.get("theta_hi", "10, 1")),
        mu1=float(ctrl.get("mu1", "0.5")),
        grad_clip=float(clip) if clip else None,
        compute_jstar=str(ana.get("compute_jstar", "false")).lower() == "true",
        ct_diagnostics=str(ana.get("ct_diagnostics", "false")).lower() == "true",
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


def load_spmet_params(path) -> SpmetParams:
    raw = _read_section(path, "spmet")
    return SpmetParams(**{k: float(v) for k, v in raw.items()})


def load_ecm_params(path) -> EcmParams:
    raw = _read_section(path, "ecm")
    return EcmParams(**{k: float(v) for k, v in raw.items()})


def load_pack_params(path) -> PackParams:
    base = load_ecm_params(path)
    raw = _read_section(path, "pack")
    return PackParams(
        base=base,
        n_cells=int(raw["n_cells"]),
        k_left=float(raw["k_left"]),
        k_right=float(raw["k_right"]),
        dt_pair_max=float(raw["dt_pair_max"]),
        pairwise_mode=raw.get("pairwise_mode", "max-minus-min").strip(),
        cell_variation=float(raw.get("cell_variation", "0")),
        variation_seed=int(raw.get("variation_seed", "0")),
    )


def load_toy_params(path) -> dict:
    raw = _read_section(path, "toy-linear")
    out = {k: float(v) for k, v in raw.items()}
    out["p"] = int(out.get("p", 2))
    return out


@dataclass
class BuiltScenario:
    """Everything needed to run one scenario; controllers are minted fresh."""

    cfg: ScenarioConfig
    model: PlantModel
    spec: ConstraintSpec
    x0: object
    root_cfg: RootConfig
    config_hash: str

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
        kw = load_toy_params(params_path(cfg, "params_toy.cfg"))
        model = ToyLinearPlant(**kw)
        if len(cfg.y_bar) != model.output_count or len(cfg.gamma) != model.output_count:
            raise ConfigurationError("toy bounds/weights must match output count")
        spec = ConstraintSpec(y_bar=np.array(cfg.y_bar), gamma=np.array(cfg.gamma))
        x0 = model.initial_state()
    else:  # unreachable: validated in __post_init__
        raise ConfigurationError(f"unknown model {cfg.model!r}")
    return BuiltScenario(cfg=cfg, model=model, spec=spec, x0=x0,
                         root_cfg=RootConfig(),
                         config_hash=scenario_hash(cfg))
