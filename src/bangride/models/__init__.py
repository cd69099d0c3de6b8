"""The plant models, one module each. A module is imported on the first use
of a name it defines (a PEP 562 module ``__getattr__``), so a command
compiles only the plant its scenario builds; the pack's module also loads
the ECM's, whose cells it stacks."""

import importlib

# exported name -> the module that defines it
_HOMES = {
    "ToyLinearPlant": "toy",
    "EcmParams": "ecm", "EcmPlant": "ecm", "perturb_params": "ecm",
    "SpmetParams": "spmet", "SpmetPlant": "spmet",
    "PackParams": "pack", "PackPlant": "pack",
}

__all__ = list(_HOMES)


def __getattr__(name: str, module: str = __name__):
    """The exported ``name`` from its defining module, imported on first use;
    ``module`` is the package the name was looked up on (``bangride`` binds
    this same lookup for its own plant names)."""
    if name not in _HOMES:
        raise AttributeError(f"module {module!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
