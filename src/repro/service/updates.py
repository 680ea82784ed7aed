"""Live graph updates for the query service.

The paper's index targets a static snapshot, but a served graph changes
while queries are in flight.  :class:`GraphMutator` is the service-side
owner of that change stream: it holds the incremental maintainer
(:class:`repro.core.incremental.IncrementalCloudWalker`) plus a bounded
queue of pending edge insertions, and turns each drain into one incremental
re-index whose *affected-source set* the service uses to invalidate exactly
the stale walk-distribution cache entries
(:meth:`repro.service.cache.WalkDistributionCache.invalidate_sources`).

Correctness contract (see ``docs/architecture.md``):

* the maintainer runs with per-source random streams and cold-start solves,
  so after any sequence of updates the index is **bitwise-identical** to one
  built from scratch on the updated graph;
* the affected set is the forward BFS ball of the new edges' heads
  (:func:`repro.core.walks.forward_reachable_set`) — sources outside it have
  bitwise-unchanged walk distributions, which is what makes keeping their
  cache entries safe.

Example
-------
>>> from repro.config import SimRankParams
>>> from repro.graph import generators
>>> from repro.service.updates import GraphMutator
>>> graph = generators.copying_model_graph(60, out_degree=4, seed=5)
>>> mutator = GraphMutator(graph, SimRankParams.fast_defaults())
>>> mutator.build()  # doctest: +ELLIPSIS
DiagonalIndex(...)
>>> result = mutator.apply([(0, 30)])
>>> 30 in result.affected
True
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from scipy import sparse

from repro.config import SimRankParams, UpdateParams
from repro.core.incremental import IncrementalCloudWalker
from repro.core.index import DiagonalIndex
from repro.errors import CloudWalkerError
from repro.graph.digraph import DiGraph

Edge = Tuple[int, int]


@dataclass(frozen=True)
class MutationResult:
    """Outcome of one applied (possibly batched) graph mutation.

    Attributes
    ----------
    edges_added:
        Number of *new* edge insertions applied in this drain (duplicates
        of existing edges are dropped before the re-index).
    new_nodes:
        Nodes the mutation introduced (edge endpoints beyond the old
        ``n_nodes``).
    affected:
        The affected-source set: every node whose walk distributions — and
        therefore cached entries and index row — may have changed.  New
        nodes are included.
    update_seconds:
        Wall-clock cost of the incremental re-index.
    routing_seconds:
        The slice of ``update_seconds`` spent computing the affected set.
    """

    edges_added: int
    new_nodes: int
    affected: frozenset
    update_seconds: float
    routing_seconds: float = 0.0

    @property
    def affected_rows(self) -> int:
        """Number of re-estimated index rows."""
        return len(self.affected)


class GraphMutator:
    """Owns the update stream of a live :class:`~repro.service.QueryService`.

    Parameters
    ----------
    graph:
        The graph at attach time (updates replace it; read the current one
        from :attr:`graph`).
    params:
        Algorithmic parameters, shared with the service so re-estimated
        rows use the same budgets as queries expect.
    update_params:
        Queue bound and the exact-re-estimation switch.
    walker:
        An already-configured incremental maintainer to drive instead of
        the default :class:`IncrementalCloudWalker`.  This is how the
        sharded service plugs its
        :class:`~repro.core.sharding.ShardedIncrementalWalker` into the
        same intake pipeline (validation, dedup, bounded queue): anything
        exposing the maintainer's ``build / attach / add_edges / graph /
        index / system`` surface works.  The walker must run with
        per-source streams and cold-start solves, or the service's
        bitwise-reproducibility contract breaks.
    """

    def __init__(
        self,
        graph: DiGraph,
        params: SimRankParams,
        update_params: Optional[UpdateParams] = None,
        walker: Optional[IncrementalCloudWalker] = None,
    ) -> None:
        self.update_params = update_params or UpdateParams()
        self._walker = walker if walker is not None else IncrementalCloudWalker(
            graph,
            params=params,
            exact=self.update_params.exact,
            stream_per_source=True,
            warm_start=False,
        )
        self._pending: List[Edge] = []

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> DiGraph:
        """The current (post-update) graph."""
        return self._walker.graph

    @property
    def index(self) -> Optional[DiagonalIndex]:
        """The current index (None until build/attach)."""
        return self._walker.index

    @property
    def system(self) -> Optional[sparse.csr_matrix]:
        """The maintained linear system (persisted by snapshots)."""
        return self._walker.system

    @property
    def pending_edges(self) -> int:
        """Number of queued, not-yet-applied edge insertions."""
        return len(self._pending)

    @property
    def walker(self) -> IncrementalCloudWalker:
        """The incremental maintainer driving re-indexes.

        Exposed so owners that injected a specialised walker (the sharded
        service's :class:`~repro.core.sharding.ShardedIncrementalWalker`)
        can reach its extra surface — per-shard system blocks, build
        timings — without the mutator having to mirror it.
        """
        return self._walker

    # ------------------------------------------------------------------ #
    # Attach / build
    # ------------------------------------------------------------------ #
    def build(self) -> DiagonalIndex:
        """Full build of system + index for the current graph."""
        return self._walker.build()

    def attach(self, index: DiagonalIndex,
               system: Optional[sparse.spmatrix] = None) -> None:
        """Adopt an existing index so updates can maintain it incrementally.

        Without ``system`` (a plain index file carries none), the linear
        system is estimated now — a one-time cost comparable to a rebuild.
        Snapshots persist the system precisely to skip this on restart.
        """
        self._walker.attach(
            index, system=sparse.csr_matrix(system) if system is not None else None
        )

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def _validated(self, edges: Sequence[Edge]) -> List[Edge]:
        """Normalise and validate endpoints *before* any edge is accepted.

        Validating at intake (not at apply time) is what keeps a deferred
        queue unpoisonable: a bad edge is rejected on the call that submits
        it, instead of wedging every later drain.  Endpoints must be
        non-negative and may not implicitly grow the graph by more than
        ``max_node_growth`` nodes.
        """
        validated: List[Edge] = []
        limit = self.graph.n_nodes + self.update_params.max_node_growth
        for u, v in edges:
            u, v = int(u), int(v)
            if u < 0 or v < 0:
                raise CloudWalkerError(
                    f"edge ({u}, {v}) has a negative endpoint"
                )
            if max(u, v) >= limit:
                raise CloudWalkerError(
                    f"edge ({u}, {v}) would grow the graph past node {limit - 1} "
                    f"(n_nodes={self.graph.n_nodes} + max_node_growth="
                    f"{self.update_params.max_node_growth}); raise "
                    f"UpdateParams.max_node_growth if this is intentional"
                )
            validated.append((u, v))
        return validated

    def enqueue(self, edges: Sequence[Edge]) -> int:
        """Queue validated edge insertions for the next drain.

        Returns the queue size.  Rejects a batch that would overflow
        ``max_pending_edges`` — the service avoids this by draining
        eagerly, or applying an oversized batch immediately.
        """
        edges = self._validated(edges)
        if len(self._pending) + len(edges) > self.update_params.max_pending_edges:
            raise CloudWalkerError(
                f"pending update queue would exceed "
                f"{self.update_params.max_pending_edges} edges; drain first"
            )
        self._pending.extend(edges)
        return len(self._pending)

    def take_pending(self) -> List[Edge]:
        """Atomically snapshot and clear the pending queue.

        The overlapped-drain path uses this under the owner's update lock:
        the taken edges belong to exactly one drain, so an ``enqueue``
        racing with a long :meth:`apply_detached` can never be lost (the
        next drain picks it up) nor double-applied.  Pair with
        :meth:`requeue` if the drain fails.
        """
        taken, self._pending = self._pending, []
        return taken

    def requeue(self, edges: Sequence[Edge]) -> int:
        """Put already-validated edges back at the FRONT of the queue.

        The failure path of a detached drain: edges taken by
        :meth:`take_pending` must survive an ``apply_detached`` that raised.
        Re-insertion deliberately skips the ``max_pending_edges`` bound —
        this is a recovery path restoring edges the bound already admitted,
        and dropping them would silently violate at-least-once delivery.
        """
        self._pending = list(edges) + self._pending
        return len(self._pending)

    def apply(self, edges: Sequence[Edge] = ()) -> Optional[MutationResult]:
        """Drain the queue plus ``edges`` as ONE incremental re-index.

        Batching the drain matters: the affected balls of queued edges
        usually overlap, so one combined update re-estimates their union
        once instead of once per ``add_edges`` call.  Edges the graph
        already contains are dropped first — re-inserting an existing edge
        is a graph no-op and must not cost a re-index, invalidate hot cache
        entries, or bump the version (at-least-once update feeds replay
        constantly).  Returns None when nothing (new) is left to apply.
        """
        taken = self.take_pending()
        try:
            return self.apply_detached(taken + self._validated(edges))
        except Exception:
            # A failed apply must not silently drop previously deferred
            # edges: restore them for the next drain attempt.
            self.requeue(taken)
            raise

    def apply_detached(self, edges: Sequence[Edge]) -> Optional[MutationResult]:
        """Re-index ``edges`` WITHOUT reading or clearing the pending queue.

        The core of :meth:`apply`, split out for drains that run outside
        the owner's lock: the caller snapshots the queue first (via
        :meth:`take_pending`, under its lock), then runs this expensive
        step detached while readers keep serving the previous consistent
        graph/index.  Because it never touches ``_pending``, a concurrent
        ``enqueue`` is safe throughout.  Inputs are validated here too, so
        callers may pass raw edges.  Returns None when nothing new is left.
        """
        batch = self._validated(edges)
        seen = set()
        fresh: List[Edge] = []
        for u, v in batch:
            if (u, v) in seen:
                continue
            seen.add((u, v))
            in_range = u < self.graph.n_nodes and v < self.graph.n_nodes
            if in_range and self.graph.has_edge(u, v):
                continue
            fresh.append((u, v))
        if not fresh:
            return None
        start = time.perf_counter()
        info = self._walker.add_edges(fresh)
        return MutationResult(
            edges_added=len(fresh),
            new_nodes=int(info["new_nodes"]),
            affected=frozenset(info["affected"]),
            update_seconds=time.perf_counter() - start,
            routing_seconds=float(info.get("routing_seconds", 0.0)),
        )

    def __repr__(self) -> str:
        return (
            f"GraphMutator(graph={self.graph.name!r}, "
            f"n_nodes={self.graph.n_nodes}, pending={self.pending_edges})"
        )
