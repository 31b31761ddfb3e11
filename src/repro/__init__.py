"""repro — reproduction of *TAaMR: Targeted Adversarial Attack against
Multimedia Recommender Systems* (Di Noia, Malitesta, Merra — DSN 2020).

The package rebuilds the paper's entire stack from scratch on numpy:

* :mod:`repro.nn` — autodiff engine, CNN layers and the TinyResNet
  classifier standing in for ResNet50;
* :mod:`repro.data` — synthetic fashion catalog, product images and
  implicit feedback standing in for Amazon Men / Amazon Women;
* :mod:`repro.features` — classifier training and layer-e features;
* :mod:`repro.recommenders` — BPR-MF, VBPR and AMR;
* :mod:`repro.attacks` — targeted/untargeted FGSM, PGD, BIM and the
  item-to-item extension;
* :mod:`repro.core` — the TAaMR pipeline, CHR@N metric and scenarios;
* :mod:`repro.metrics` — PSNR, SSIM, PSM;
* :mod:`repro.defenses` — adversarial training and distillation;
* :mod:`repro.artifacts` — the content-addressed, versioned artifact
  store every serialization path shares;
* :mod:`repro.experiments` — configs, the stage DAG and the runners
  behind the benchmarks;
* :mod:`repro.serving` — the online serving layer: sharded scorer,
  invalidating top-N cache, the ``ShardedService`` facade and the load
  generator.

Quickstart::

    from repro.experiments import men_config, build_context, run_attack_grid

    context = build_context(men_config(scale=0.005))
    grid = run_attack_grid(context, "VBPR")
    for outcome in grid.outcomes:
        print(outcome.scenario.label(), outcome.attack_name,
              outcome.epsilon_255, outcome.chr_source_after)
"""

from . import artifacts, attacks, core, data, defenses, experiments, features, metrics, nn, recommenders, serving
from .core import AttackScenario, TAaMRPipeline
from .experiments import ExperimentConfig, build_context, men_config, women_config

__version__ = "1.0.0"

__all__ = [
    "nn",
    "artifacts",
    "data",
    "features",
    "recommenders",
    "attacks",
    "core",
    "metrics",
    "defenses",
    "experiments",
    "serving",
    "TAaMRPipeline",
    "AttackScenario",
    "ExperimentConfig",
    "build_context",
    "men_config",
    "women_config",
    "__version__",
]
