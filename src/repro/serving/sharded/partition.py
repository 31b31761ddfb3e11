"""User-to-shard assignment.

Modulo partitioning: user ``u`` lives on shard ``u % num_shards``.
Because :class:`~repro.serving.loadgen.ZipfLoadGenerator` assigns
popularity ranks through a seeded *permutation* of user ids, modulo
assignment spreads the hot head of the Zipf curve across shards instead
of concentrating it, so no one shard carries the head's traffic.

The assignment is a pure function of ``(user, num_shards)``: the router
and every worker agree on ownership without coordination, and a request
stream partitioned by ownership is *shard-count invariant* — the
per-shard substreams of the same global stream always concatenate back
to the same multiset of requests in the same per-user order, which is
what makes the 1/2/4-shard equivalence tests meaningful.
"""

from __future__ import annotations

from typing import List

import numpy as np


class UserPartition:
    """Deterministic modulo assignment of a user universe to shards."""

    def __init__(self, num_users: int, num_shards: int) -> None:
        if num_users <= 0:
            raise ValueError("num_users must be positive")
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if num_shards > num_users:
            raise ValueError("num_shards must not exceed num_users")
        self.num_users = num_users
        self.num_shards = num_shards

    def shard_of(self, user) -> np.ndarray:
        """Owning shard id(s); scalar in, scalar-shaped array out."""
        user = np.asarray(user, dtype=np.int64)
        if user.size and (user.min() < 0 or user.max() >= self.num_users):
            raise ValueError(f"users must lie in [0, {self.num_users})")
        return user % self.num_shards

    def users_of(self, shard_id: int) -> np.ndarray:
        """All user ids owned by ``shard_id``, ascending."""
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(f"shard_id must lie in [0, {self.num_shards})")
        return np.arange(shard_id, self.num_users, self.num_shards, dtype=np.int64)

    def split_stream(self, users: np.ndarray) -> List[np.ndarray]:
        """Partition a request stream by ownership, preserving order.

        Returns one substream per shard; concatenating them recovers the
        original stream up to inter-shard interleaving, and each user's
        request subsequence is bitwise independent of ``num_shards``.
        """
        users = np.asarray(users, dtype=np.int64)
        owners = self.shard_of(users)
        return [users[owners == shard] for shard in range(self.num_shards)]
