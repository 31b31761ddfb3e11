"""Experiment configuration shared by examples and benchmarks.

One :class:`ExperimentConfig` pins every random seed and hyper-parameter
of a TAaMR run, and hashes to a cache key so expensive artifacts (the
trained classifier, recommender parameters) can be reused across
benchmark invocations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from typing import Dict, Tuple


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of one TAaMR experiment."""

    dataset: str = "amazon_men_like"  # or "amazon_women_like"
    scale: float = 0.008
    image_size: int = 32
    seed: int = 0
    cutoff: int = 100  # N of CHR@N (paper: 100)

    # Classifier (the paper's ResNet50 stand-in).
    classifier_widths: Tuple[int, ...] = (8, 16, 32)
    classifier_blocks: Tuple[int, ...] = (1, 1, 1)
    classifier_epochs: int = 14
    classifier_lr: float = 0.08
    classifier_batch_size: int = 32

    # Recommenders (paper: VBPR 4000 epochs, AMR continues at 2000).
    recommender_epochs: int = 60
    amr_pretrain_epochs: int = 30
    amr_gamma: float = 0.1  # paper's γ
    amr_eta: float = 1.0  # paper's η

    # Attack grid (paper: ε ∈ {2, 4, 8, 16}/255, PGD with 10 iterations).
    epsilons_255: Tuple[float, ...] = (2.0, 4.0, 8.0, 16.0)
    pgd_steps: int = 10
    # Grid engine: "exact" batches each (scenario, attack) cohort through
    # the ε ladder with outputs bitwise-identical to per-cell attacks,
    # "warm" adds warm starts + early exits (tolerance-equivalent).
    ladder_mode: str = "exact"

    def __post_init__(self) -> None:
        if self.dataset not in ("amazon_men_like", "amazon_women_like"):
            raise ValueError("dataset must be amazon_men_like or amazon_women_like")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if any(eps <= 0 or eps > 255 for eps in self.epsilons_255):
            raise ValueError("epsilons_255 must lie in (0, 255]")
        if self.ladder_mode not in ("exact", "warm"):
            raise ValueError("ladder_mode must be 'exact' or 'warm'")

    def cache_key(self) -> str:
        """Deterministic hash of every training-relevant field."""
        payload = asdict(self)
        # Neither the attack grid nor the evaluation cutoff influences
        # the trained artifacts (cutoff is read only at CHR@N time, so
        # changing N must not spuriously retrain anything).
        payload.pop("epsilons_255")
        payload.pop("pgd_steps")
        payload.pop("cutoff")
        # The grid engine changes how cells are computed, never which
        # artifacts get trained.
        payload.pop("ladder_mode")
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def field_fingerprint(self, fields: Tuple[str, ...]) -> Dict[str, object]:
        """The named config fields as a canonical (JSON-safe) mapping.

        The stage DAG uses this to fingerprint each stage over *only*
        the fields it actually reads, so unrelated config edits leave
        its artifacts valid.
        """
        known = {item.name for item in dataclass_fields(self)}
        unknown = [name for name in fields if name not in known]
        if unknown:
            raise ValueError(f"unknown config fields {unknown}")
        # Frozen, and every value is a scalar or a tuple: no copy needed.
        return {name: getattr(self, name) for name in fields}


def men_config(**overrides) -> ExperimentConfig:
    """Default Amazon-Men-like experiment."""
    return ExperimentConfig(dataset="amazon_men_like", **overrides)


def women_config(**overrides) -> ExperimentConfig:
    """Default Amazon-Women-like experiment."""
    return ExperimentConfig(dataset="amazon_women_like", **overrides)
