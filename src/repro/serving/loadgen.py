"""Deterministic Zipf load generator.

Real recommendation traffic is heavily skewed — a small fraction of
users generates most requests — which is exactly the regime where a
per-user top-N cache pays off.  :class:`ZipfLoadGenerator` draws user
ids from a seeded Zipf distribution over a random user permutation, so
request streams are reproducible bit-for-bit across runs.
"""

from __future__ import annotations

import numpy as np

from ..rng import derive_rng


class ZipfLoadGenerator:
    """Seeded Zipf-distributed user-id stream.

    User popularity ranks are assigned by a seeded permutation (so user
    0 is not always the hottest), and rank ``r`` gets weight
    ``r^-exponent``.  ``exponent = 0`` degenerates to uniform traffic.

    ``stream`` names a derived RNG stream
    (:func:`repro.rng.derive_rng`): generators built from the same seed
    but different stream names draw independent, individually
    reproducible sequences.  Callers draw one *global* stream and
    partition it by ownership rather than drawing one stream per shard,
    so a run is invariant to the shard count.
    """

    def __init__(
        self,
        num_users: int,
        exponent: float = 1.1,
        seed: int = 0,
        *,
        stream: str,
    ) -> None:
        if num_users <= 0:
            raise ValueError("num_users must be positive")
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        self.num_users = num_users
        self.exponent = exponent
        self.stream = stream
        self._rng = derive_rng(seed, stream)
        ranks = np.empty(num_users, dtype=np.float64)
        ranks[self._rng.permutation(num_users)] = np.arange(1, num_users + 1)
        weights = ranks**-exponent
        self.probabilities = weights / weights.sum()

    def sample(self, count: int) -> np.ndarray:
        """Next ``count`` user ids of the stream (advances the state)."""
        if count <= 0:
            raise ValueError("count must be positive")
        return self._rng.choice(self.num_users, size=count, p=self.probabilities)
