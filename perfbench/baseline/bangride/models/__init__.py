from .toy import ToyLinearPlant
from .ecm import EcmParams, EcmState, EcmPlant, perturb_params
from .spmet import SpmetParams, SpmetState, SpmetPlant
from .pack import PackParams, PackPlant

__all__ = [
    "ToyLinearPlant",
    "EcmParams", "EcmState", "EcmPlant", "perturb_params",
    "SpmetParams", "SpmetState", "SpmetPlant",
    "PackParams", "PackPlant",
]
