"""A synthetic fitted VBPR universe for driving the sharded fleet.

:func:`build_synthetic_system` draws every parameter from named
:func:`repro.rng.derive_rng` streams, so no training run stands between
a caller and a six-figure user universe, and two builds with the same
seed are bitwise identical.  The serving benchmark and the fleet smoke
tests build their fleets on it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ...recommenders.vbpr import VBPR, VBPRConfig
from ...rng import derive_rng

SYNTHETIC_CLASS_NAMES = ("sandal", "sock", "running_shoe", "boot")


def build_synthetic_system(
    num_users: int,
    num_items: int,
    feature_dim: int = 64,
    factors: int = 16,
    visual_factors: int = 16,
    seed: int = 0,
) -> Tuple[VBPR, np.ndarray, Tuple[str, ...], np.ndarray]:
    """A fitted VBPR universe drawn from derived RNG streams.

    Every tensor comes from its own :func:`derive_rng` stream keyed by
    field name, and the model is built straight from that state (checked
    as ``load_state_dict`` checks it, and marked fitted; no random init
    is drawn only to be overwritten) — so the benchmark scales to any
    user count without a training loop, yet two runs with the same seed
    are bitwise identical.  Returns ``(model, item_classes, class_names,
    popularity_counts)``; the counts feed the MostPop failover ranker.

    Item features are *low-rank plus noise* rather than iid Gaussian:
    real extracted features concentrate near a low-dimensional manifold
    (the premise of the reconstruction screen), and an iid cloud has no
    manifold for the screen to defend.  The mixing is scaled so
    the per-dimension variance stays ≈1, keeping score magnitudes
    comparable to the previous iid draw.
    """
    rank = max(4, feature_dim // 8)
    feature_rng = derive_rng(seed, "synthetic.features")
    latent = feature_rng.normal(0.0, 1.0, (num_items, rank))
    mixing = feature_rng.normal(0.0, 1.0, (rank, feature_dim))
    features = latent @ mixing / np.sqrt(rank) + feature_rng.normal(
        0.0, 0.05, (num_items, feature_dim)
    )
    scale = 0.1
    config = VBPRConfig(factors=factors, visual_factors=visual_factors, seed=seed)
    state = {
        name: derive_rng(seed, f"synthetic.{name}").normal(0.0, scale, shape)
        for name, shape in VBPR.shapes_for(num_users, num_items, feature_dim, config).items()
    }
    model = VBPR(num_users, num_items, features, config, state=state)
    item_classes = derive_rng(seed, "synthetic.classes").integers(
        0, len(SYNTHETIC_CLASS_NAMES), size=num_items
    )
    counts = derive_rng(seed, "synthetic.popularity").integers(
        1, 1000, size=num_items
    ).astype(np.float64)
    return model, item_classes, SYNTHETIC_CLASS_NAMES, counts
