"""LRU cache of per-source walk distributions.

The expensive part of every online query is estimating the walk
distributions ``P^t e_source`` — O(T · R') work per source.  Those
distributions depend only on ``(node, steps, walkers, seed)``, so under a
skewed workload (the usual shape of "millions of users" traffic) most
queries can be answered from previously simulated distributions.  This cache
makes that reuse explicit and observable: every lookup is accounted as a hit
or a miss, and evictions are counted so capacity tuning has data to work
with.

Because the cached value is exactly what the direct Monte-Carlo estimator
would produce for the same key (see
:func:`repro.core.montecarlo.estimate_walk_distributions_batch`), a cache
hit can never change a query answer — only make it cheaper.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional

from repro.config import SimRankParams
from repro.core.montecarlo import WalkDistributions
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CacheKey:
    """Identity of one cached walk distribution.

    Two queries share a cache entry exactly when the distribution they need
    is mathematically identical: same source node, same number of walk
    steps, same Monte-Carlo budget, and same base seed.
    """

    node: int
    steps: int
    walkers: int
    seed: Optional[int]

    @classmethod
    def for_query(cls, node: int, params: SimRankParams, walkers: int) -> "CacheKey":
        """Key for one source's distribution under ``params``.

        ``walkers`` is passed separately because callers may override the
        per-query Monte-Carlo budget (``params.query_walkers``) per call.
        """
        return cls(node=int(node), steps=params.walk_steps, walkers=int(walkers),
                   seed=params.seed)


@dataclass
class CacheStats:
    """Counters describing cache effectiveness."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0
    invalidations: int = 0
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        """Total lookups served (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Counters (plus derived hit rate) as a plain dict, for stats()."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "inserts": self.inserts,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
            **self.extras,
        }


class WalkDistributionCache:
    """Bounded LRU mapping :class:`CacheKey` -> :class:`WalkDistributions`.

    ``capacity`` is the maximum number of distributions kept; 0 disables
    caching (every lookup misses, nothing is stored).  Recency is updated on
    both successful lookups and inserts, so a hot source stays resident as
    long as queries keep touching it.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ConfigurationError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[CacheKey, WalkDistributions]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        """Membership test without touching recency or the stats counters."""
        return key in self._entries

    def get(self, key: CacheKey) -> Optional[WalkDistributions]:
        """Return the cached distribution for ``key``, or None on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: CacheKey, distributions: WalkDistributions) -> None:
        """Insert (or refresh) a distribution, evicting the LRU entry if full."""
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = distributions
        self.stats.inserts += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate_sources(self, nodes: Iterable[int]) -> int:
        """Drop every entry whose source node is in ``nodes``; returns the count.

        This is the graph-mutation hook: when edges are inserted, only the
        sources inside the forward BFS ball of the new edges' heads
        (:func:`repro.core.walks.forward_reachable_set`) have stale
        distributions, and a key's node identifies its source — so exactly
        those entries are removed, across *all* ``(steps, walkers, seed)``
        variants of each node, and every other entry stays hot.  Removals
        are counted as ``invalidations``, separately from capacity
        ``evictions``.
        """
        stale_nodes = {int(node) for node in nodes}
        stale_keys = [key for key in self._entries if key.node in stale_nodes]
        for key in stale_keys:
            del self._entries[key]
        self.stats.invalidations += len(stale_keys)
        return len(stale_keys)

    def clear(self) -> None:
        """Drop every entry (the stats counters are kept)."""
        self._entries.clear()

    def memory_bytes(self) -> int:
        """Approximate resident payload size of all cached distributions."""
        total = 0
        for entry in self._entries.values():
            for nodes, values in entry.per_step:
                total += int(nodes.nbytes) + int(values.nbytes)
        return total

    def __repr__(self) -> str:
        return (
            f"WalkDistributionCache(size={len(self)}, capacity={self.capacity}, "
            f"hit_rate={self.stats.hit_rate:.2f})"
        )
