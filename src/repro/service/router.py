"""Shard routing for the multi-process serving tier.

With worker processes in play the engine stops being a scheduler and
becomes a **router**: every request is hashed to one shard by its
stacking identity — ``(plan, semiring, dimension signature)`` — so all
requests that *could* run as one stacked kernel call land on the same
worker, whose in-process scheduler then actually coalesces them.
Spreading one group across workers would trade the proven ~20-40x
coalesce ratio for parallelism the group doesn't need; keying the route on
the group identity keeps both.

The hash must be stable across calls (the same plan must keep routing to
the same shard for its worker-side plan registration to amortize), so it
is a ``crc32`` over the registered plan id and the instance signature —
never the builtin ``hash``, which is salted per process.
"""

from __future__ import annotations

import zlib
from typing import Sequence, Tuple

__all__ = ["ShardRouter"]


class ShardRouter:
    """Stable request-to-shard assignment over ``shards`` workers."""

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards!r}")
        self.shards = shards

    def shard_for(self, plan_id: int, semiring_name: str, dimensions) -> int:
        """The shard index of one request's coalescing identity."""
        signature = self.signature(plan_id, semiring_name, dimensions)
        return zlib.crc32(repr(signature).encode()) % self.shards

    @staticmethod
    def signature(plan_id: int, semiring_name: str, dimensions) -> Tuple:
        """The hashed identity: plan, semiring, sorted dimension items."""
        return (plan_id, semiring_name, tuple(sorted(dimensions.items())))

    def shard_among(
        self, plan_id: int, semiring_name: str, dimensions, candidates: Sequence[int]
    ) -> int:
        """Stable selection among a subset of live shards (rendezvous style).

        Used when a request's home shard is down: scoring every candidate
        with the same crc32 and taking the maximum keeps the choice stable
        for a given set of live workers — repeats of one coalescing identity
        keep landing on one stand-in (so they still coalesce there, and its
        plan registration amortizes), and candidates that stay alive keep
        their assignments when *another* worker's liveness changes, unlike
        ``candidates[hash % len(candidates)]``, which reshuffles everything.
        """
        if not candidates:
            raise ValueError("no candidate shards")
        signature = repr(self.signature(plan_id, semiring_name, dimensions)).encode()
        return max(
            candidates,
            key=lambda shard: zlib.crc32(signature + b"|%d" % shard),
        )
