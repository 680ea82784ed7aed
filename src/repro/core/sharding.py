"""Sharded index construction and maintenance.

The paper's whole point is SimRank at cluster scale: the indexing linear
system is estimated row-by-row across workers, the solve is a scatter-gather
Jacobi iteration, and the online phase serves from the gathered result.
This module reproduces that shape for the offline phase:

* a :class:`~repro.graph.partition.ShardPlan` assigns every node (row) to
  one of ``K`` shards;
* :class:`ShardedIncrementalWalker` estimates each shard's rows as an
  independent task and runs the tasks through an
  :mod:`engine executor <repro.engine.executor>` backend, so shards build
  concurrently;
* the per-shard row sets are *gathered* into one linear system and solved
  exactly like the single-shard path.

Determinism is inherited, not re-proven: every row is estimated from its own
``(seed, source)`` random stream (:func:`repro.core.linear_system.
build_rows_streamed`), so the gathered system — and therefore the solved
diagonal — is **bitwise-identical** to a single-shard build for any ``K``,
any shard strategy and any executor backend.  The same argument covers
incremental updates: an edge insertion's affected rows are grouped by owning
shard, only the *touched* shards re-estimate, and the spliced system is
bitwise-equal to the single-shard incremental result (see
``docs/sharding.md`` for the full proof sketch).

Example
-------
>>> from repro.config import SimRankParams
>>> from repro.graph import generators
>>> from repro.graph.partition import ShardPlan
>>> from repro.core.sharding import ShardedIncrementalWalker
>>> graph = generators.copying_model_graph(80, out_degree=4, seed=3)
>>> walker = ShardedIncrementalWalker(
...     graph, ShardPlan.hashed(4), params=SimRankParams.fast_defaults())
>>> index = walker.build()
>>> index.n_nodes
80
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np
from scipy import sparse

from repro.config import ShardingParams, SimRankParams
from repro.core import linear_system
from repro.core.incremental import IncrementalCloudWalker
from repro.core.index import DiagonalIndex
from repro.engine.executor import (
    ExecutorBackend,
    ResidentHandle,
    SerialBackend,
    make_backend,
    resolve_resident,
)
from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph
from repro.graph.partition import ShardPlan

Triplets = Tuple[np.ndarray, np.ndarray, np.ndarray]

T = TypeVar("T")


def _timed_task(task: Callable[[], T]) -> Tuple[T, float]:
    """Run one task and measure its wall-clock (module-level: picklable)."""
    start = time.perf_counter()
    return task(), time.perf_counter() - start


def run_shard_tasks(
    backend: ExecutorBackend, tasks: Dict[int, Callable[[], T]]
) -> Dict[int, Tuple[T, float]]:
    """Scatter one task per shard through ``backend``; gather with timings.

    This is the one fan-out primitive shared by the offline and online
    phases: :class:`ShardedIncrementalWalker` runs per-shard row estimation
    through it at build/update time, and
    :class:`~repro.service.sharded.ShardedQueryService` runs per-shard walk
    simulation through it at query time.  ``tasks`` maps
    shard id to a zero-argument callable; tasks are submitted in ascending
    shard order (so a serial backend reproduces the historical sequential
    loop exactly) and each result is returned as ``(value, seconds)`` —
    the per-shard wall-clock is what the benchmarks use to account a
    ``K``-worker deployment's critical path.

    For the ``processes`` backend every task must be picklable: build each
    from module-level functions via :func:`functools.partial`, as
    :func:`estimate_shard_rows_resident` and the service's scatter
    payloads do.
    """
    shard_ids = sorted(tasks)
    outcomes = backend.run(
        [partial(_timed_task, tasks[shard]) for shard in shard_ids]
    )
    return dict(zip(shard_ids, outcomes))


def make_plan(graph: DiGraph, sharding: ShardingParams) -> ShardPlan:
    """Build the :class:`ShardPlan` a :class:`ShardingParams` describes."""
    return ShardPlan.for_graph(graph, sharding.num_shards, sharding.strategy)


def estimate_shard_rows(
    graph: DiGraph, nodes: Sequence[int], params: SimRankParams
) -> Triplets:
    """Estimate one shard's rows of the indexing system ``A x = 1``.

    This is the unit of distributed work: a worker holding the graph and the
    shard's node list produces the shard's COO triplets, independently of
    every other shard (per-source random streams).
    """
    return linear_system.build_rows_streamed(graph, list(nodes), params)


def estimate_shard_rows_resident(
    handle: ResidentHandle, nodes: Sequence[int], params: SimRankParams
) -> Triplets:
    """:func:`estimate_shard_rows` against a pool-resident graph.

    The task ships only the :class:`~repro.engine.executor.ResidentHandle`
    plus the shard's node list — O(nodes) bytes, independent of graph
    size; the worker materialises the graph once per residency epoch from
    shared memory (:func:`repro.engine.executor.resolve_resident`).  The
    estimated rows are bitwise-identical to estimating on the original
    graph: the restored CSR arrays are byte-for-byte the registering
    process's, and every row consumes its own ``(seed, source)`` stream.
    """
    return estimate_shard_rows(resolve_resident(handle), nodes, params)


def gather_shard_rows(
    shard_triplets: Sequence[Triplets], n_nodes: int
) -> sparse.csr_matrix:
    """Gather per-shard row triplets into one CSR system matrix.

    Shards own disjoint row sets, so the gather is a pure concatenation —
    no summation across shards — and the resulting matrix is
    bitwise-identical to estimating all rows in one call (each row's values
    depend only on its own ``(seed, source)`` stream).
    """
    if not shard_triplets:
        return sparse.csr_matrix((n_nodes, n_nodes), dtype=np.float64)
    rows = np.concatenate([triplet[0] for triplet in shard_triplets])
    cols = np.concatenate([triplet[1] for triplet in shard_triplets])
    values = np.concatenate([triplet[2] for triplet in shard_triplets])
    return sparse.csr_matrix(
        (values, (rows, cols)), shape=(n_nodes, n_nodes), dtype=np.float64
    )


def slice_shard_block(
    system: sparse.csr_matrix, mask: np.ndarray
) -> sparse.csr_matrix:
    """Row-slice ``system`` to the rows selected by the boolean ``mask``.

    The block keeps the full ``n x n`` shape with unselected rows empty, so
    blocks from *any* partition of the rows sum back to the full system —
    which is why a snapshot lineage can change shard plans between versions
    without perturbing a single bit of the gathered system.
    """
    keep = sparse.diags(np.asarray(mask, dtype=np.float64))
    block = (keep @ system).tocsr()
    block.eliminate_zeros()
    block.sort_indices()
    return block


class ShardedIncrementalWalker(IncrementalCloudWalker):
    """A :class:`~repro.core.incremental.IncrementalCloudWalker` whose row
    estimation fans out across shards.

    The class changes *where* rows are estimated, never *what* they are:
    :meth:`_build_rows` groups the requested sources by owning shard, runs
    one :func:`estimate_shard_rows` task per touched shard through the
    executor backend, and gathers the results.  Everything else — graph
    extension, affected-ball computation, system splicing, the cold-start
    Jacobi solve — is inherited unchanged, which is what makes the sharded
    index bitwise-identical to the single-shard one by construction.

    Parameters
    ----------
    graph:
        Initial graph (replaced by updates; read the current one from
        :attr:`graph`).
    plan:
        Node-to-shard assignment; must answer :meth:`ShardPlan.shard_of`
        for ids created by later updates (all built-in strategies do).
    params:
        Algorithmic parameters, shared by the build and all updates.
    exact:
        Use exact walk distributions instead of Monte-Carlo (small graphs;
        the exact system is built in one pass, not sharded).
    backend:
        Executor backend running the per-shard tasks (default serial).
        The graph is registered on the backend's resident registry before
        each fan-out (see :meth:`repro.engine.executor.ExecutorBackend.
        ensure_resident`), so tasks ship a handle instead of the graph;
        a live update's new graph starts a new residency epoch.

    Attributes
    ----------
    shard_build_seconds:
        Wall-clock of each shard's most recent row-estimation task, indexed
        by shard id.  With a serial backend these are additive; on a
        ``K``-worker deployment the build's critical path is their maximum
        (this is what ``benchmarks/bench_sharded_build.py`` measures).
    last_touched_shards:
        Shards whose rows the most recent estimation touched (all shards
        for a full build; the affected ball's owners for an update).
    """

    shard_build_seconds: Dict[int, float]
    last_touched_shards: frozenset

    def __init__(
        self,
        graph: DiGraph,
        plan: ShardPlan,
        params: Optional[SimRankParams] = None,
        exact: bool = False,
        backend: Optional[ExecutorBackend] = None,
    ) -> None:
        super().__init__(
            graph, params=params, exact=exact,
            stream_per_source=True, warm_start=False,
        )
        self.plan = plan
        self.backend = backend or SerialBackend()
        self.shard_build_seconds: Dict[int, float] = {}
        self.last_touched_shards: frozenset = frozenset()

    @classmethod
    def from_params(
        cls,
        graph: DiGraph,
        sharding: ShardingParams,
        params: Optional[SimRankParams] = None,
        exact: bool = False,
    ) -> "ShardedIncrementalWalker":
        """Construct plan, backend and walker from a :class:`ShardingParams`."""
        return cls(
            graph,
            make_plan(graph, sharding),
            params=params,
            exact=exact,
            backend=make_backend(sharding.backend, max_workers=sharding.max_workers),
        )

    def _build_rows(self, graph: DiGraph, sources) -> sparse.csr_matrix:
        """Estimate rows shard-by-shard through the executor backend."""
        sources = list(sources)
        if self.exact or not sources:
            # The exact system is assembled from one sparse matrix power
            # sweep — there is nothing row-independent to fan out.
            self.last_touched_shards = frozenset(
                self.plan.group_nodes(sources)
            ) if sources else frozenset()
            return super()._build_rows(graph, sources)
        groups = self.plan.group_nodes(sources)
        self.last_touched_shards = frozenset(groups)
        # Register (or re-register after an update: `graph` is a new
        # object, hence a new epoch) so each task ships a handle plus its
        # node list instead of the whole graph.
        handle = self.backend.ensure_resident("graph", graph)
        tasks = {
            shard: partial(estimate_shard_rows_resident, handle,
                           groups[shard], self.params)
            for shard in groups
        }
        outcomes = run_shard_tasks(self.backend, tasks)
        for shard, (_triplets, seconds) in outcomes.items():
            self.shard_build_seconds[shard] = seconds
        return gather_shard_rows(
            [outcomes[shard][0] for shard in sorted(outcomes)], graph.n_nodes
        )

    def with_plan(self, plan: ShardPlan) -> "ShardedIncrementalWalker":
        """Return a walker maintaining the same system under a new plan.

        This is the build half of a live rebalance: the clone shares the
        graph, parameters and executor backend, and *adopts* the current
        linear system and index via :meth:`attach` — no re-estimation, no
        solve, and therefore no way for the migration to perturb answers.
        Only the row-to-shard grouping of future updates (and the
        :meth:`shard_systems` slicing) changes.
        """
        if self._system is None or self.index is None:
            raise ConfigurationError(
                "call build() or attach() before with_plan()"
            )
        clone = ShardedIncrementalWalker(
            self.graph, plan, params=self.params, exact=self.exact,
            backend=self.backend,
        )
        clone.attach(self.index, system=self._system)
        return clone

    def shard_systems(self) -> List[sparse.csr_matrix]:
        """Row-slice the maintained system into per-shard blocks.

        Block ``k`` is an ``n x n`` CSR holding exactly shard ``k``'s rows
        (other rows empty); summing the blocks reproduces the full system.
        Used by sharded snapshots, which persist one block per shard
        directory (see :class:`repro.core.index.ShardedSnapshotStore`), and
        by the migration path, which slices the new plan's blocks before
        the flip.
        """
        if self._system is None:
            raise ConfigurationError("call build() or attach() before shard_systems()")
        assignment = self.plan.assign(self._system.shape[0])
        return [
            slice_shard_block(self._system, assignment == shard)
            for shard in range(self.plan.num_shards)
        ]

    def __repr__(self) -> str:
        return (
            f"ShardedIncrementalWalker(n_nodes={self.graph.n_nodes}, "
            f"plan={self.plan!r}, backend={self.backend!r})"
        )


def build_sharded_index(
    graph: DiGraph,
    sharding: ShardingParams,
    params: Optional[SimRankParams] = None,
) -> Tuple[DiagonalIndex, ShardedIncrementalWalker]:
    """Build a CloudWalker index with a sharded, concurrent offline phase.

    Returns ``(index, walker)``; the index is bitwise-identical to a
    single-shard build with the same ``params``, and the walker retains the
    linear system (and per-shard timings) for incremental updates or
    snapshotting.  This is the call behind ``python -m repro index
    --shards K``.
    """
    walker = ShardedIncrementalWalker.from_params(graph, sharding, params=params)
    index = walker.build()
    return index, walker
