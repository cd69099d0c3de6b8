from .toy import ToyLinearPlant
from .ecm import EcmParams, EcmPlant, perturb_params
from .spmet import SpmetParams, SpmetPlant
from .pack import PackParams, PackPlant

__all__ = [
    "ToyLinearPlant",
    "EcmParams", "EcmPlant", "perturb_params",
    "SpmetParams", "SpmetPlant",
    "PackParams", "PackPlant",
]
