"""The perturbed-ECM robustness study, with its models built as the
``montecarlo`` command builds them.

Used by the acceptance criterion C9 and the analysis tests, which state
their studies by ECM parameters, model count, fraction and seed.
"""

from __future__ import annotations

from bangride.analysis import robustness_study
from bangride.models import EcmParams, EcmPlant, perturb_params


def ecm_study(base: EcmParams, n_models: int, fraction: float, spec, t_f: int,
              seed: int, *, keep_series: bool = True):
    """``robustness_study`` of ``n_models`` ECMs, model k perturbed by the
    stream keyed (seed, k), replayed on the ECM with ``base`` from rest."""
    truth = EcmPlant(base)
    models = [EcmPlant(perturb_params(base, fraction, (seed, k))) for k in range(n_models)]
    return robustness_study(truth, models, truth.initial_state(), spec, t_f,
                            keep_series=keep_series)
