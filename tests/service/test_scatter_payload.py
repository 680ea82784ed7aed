"""Scatter-payload regression: task bytes stay O(sources), not O(graph).

The zero-copy serving path's load-bearing property is *what ships per
task*: with the graph resident on the serve pool, a batch's scatter
payload must be a function of the batch (source ids, parameters, handle)
and **independent of graph size** — otherwise residency has silently
regressed and every batch is paying an O(graph) serialisation tax again.

The instrumentation is the real one: :class:`~repro.engine.executor.
ProcessBackend` records every task's pickled size as a by-product of its
fail-fast picklability check.  The backend subclass below keeps that
accounting — and the real shared-memory residency export — but executes
tasks inline, so the regression test measures exactly the bytes a worker
pool would receive without paying fork costs per parametrisation.

Also here: the executor-lifecycle guarantee that
:meth:`ShardedQueryService.close` releases every shared-memory segment,
including after the serve pool broke mid-flight.
"""

from concurrent.futures import BrokenExecutor
from functools import partial
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.config import ServiceParams, ShardingParams, SimRankParams
from repro.engine.executor import ProcessBackend, resolve_resident
from repro.graph import generators
from repro.service import (
    PairQuery,
    QueryService,
    ShardedQueryService,
    SourceQuery,
    TopKQuery,
)

NUM_SHARDS = 4


class InlineProcessBackend(ProcessBackend):
    """A :class:`ProcessBackend` that runs tasks inline.

    Keeps the real payload accounting (``last_payload_bytes`` /
    ``total_payload_bytes`` from the pickle check) and the real
    shared-memory residency export, but skips the worker pool — the
    pickled bytes are identical to what a pooled run would ship.
    """

    def run(self, tasks):
        self._record_payload(self._payload_check(tasks))
        return [task() for task in tasks]


def _node_count(graph):
    """Module-level (picklable) task that ships the graph itself."""
    return graph.n_nodes


def _die_hard():
    import os

    os._exit(13)


def _params():
    return SimRankParams(c=0.6, walk_steps=4, jacobi_iterations=2,
                         index_walkers=20, query_walkers=60, seed=11)


def _service(graph):
    service = ShardedQueryService(
        graph,
        _build_index(graph),
        _params(),
        ServiceParams(cache_capacity=0),
        sharding=ShardingParams(num_shards=NUM_SHARDS),
    )
    service._serve_backend = InlineProcessBackend(max_workers=1)
    return service


def _build_index(graph):
    from repro.core.diagonal import build_diagonal_index

    return build_diagonal_index(graph, _params())


def _batch_scatter_bytes(service, queries):
    """Total pickled task bytes of one batch, via the real accounting."""
    before = service._serve_backend.total_payload_bytes
    service.run_batch(queries)
    return service._serve_backend.total_payload_bytes - before


def _pair_queries(count):
    return [PairQuery(2 * i, 2 * i + 1) for i in range(count)]


class TestScatterPayloadIndependentOfGraphSize:
    def test_resident_payload_does_not_grow_with_the_graph(self):
        small = generators.copying_model_graph(300, out_degree=5, seed=7)
        large = generators.copying_model_graph(3000, out_degree=5, seed=7)
        queries = _pair_queries(16)
        with _service(small) as service:
            small_bytes = _batch_scatter_bytes(service, queries)
        with _service(large) as service:
            large_bytes = _batch_scatter_bytes(service, queries)
        # A 10x larger graph must not move the scatter payload: allow only
        # incidental slack (token strings, pickling framing).
        assert large_bytes <= small_bytes * 1.25, (
            f"resident scatter payload grew with the graph: "
            f"{small_bytes}B at n=300 vs {large_bytes}B at n=3000"
        )
        assert large_bytes < 64 * 1024

    def test_nonresident_payload_does_grow_with_the_graph(self):
        """Sanity check on the instrument: a task that carries the graph
        itself must register growth through the same accounting —
        otherwise the regression test above is vacuous."""
        small = generators.copying_model_graph(300, out_degree=5, seed=7)
        large = generators.copying_model_graph(3000, out_degree=5, seed=7)
        backend = InlineProcessBackend(max_workers=1)
        try:
            shipped = []
            for graph in (small, large):
                before = backend.total_payload_bytes
                assert backend.run([partial(_node_count, graph)]) == [
                    graph.n_nodes]
                shipped.append(backend.total_payload_bytes - before)
        finally:
            backend.close()
        small_bytes, large_bytes = shipped
        assert large_bytes > small_bytes * 4
        with _service(large) as service:
            resident_bytes = _batch_scatter_bytes(service, _pair_queries(16))
        assert large_bytes > resident_bytes * 5, (
            "residency should cut per-batch scatter bytes by >= 5x here"
        )

    def test_resident_payload_scales_with_sources_only(self):
        graph = generators.copying_model_graph(2000, out_degree=5, seed=7)
        with _service(graph) as service:
            few_bytes = _batch_scatter_bytes(service, _pair_queries(8))
            many_bytes = _batch_scatter_bytes(service, _pair_queries(64))
        # 8x the sources: payload grows (it carries the source ids) but
        # stays within the O(sources) envelope.
        assert few_bytes < many_bytes <= few_bytes * 8 + 8192

    def test_resident_answers_identical_to_single_shard(self):
        graph = generators.copying_model_graph(400, out_degree=5, seed=7)
        queries = _pair_queries(10) + [TopKQuery(3, k=5)]
        reference = QueryService(graph, _build_index(graph),
                                 _params()).run_batch(queries)
        with _service(graph) as service:
            answers = service.run_batch(queries)
        for left, right in zip(reference, answers):
            if isinstance(left, (float, list)):
                assert left == right
            else:
                assert np.array_equal(left, right)


def _answers_equal(left, right):
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if isinstance(a, (float, list)):
            if a != b:
                return False
        elif not np.array_equal(a, b):
            return False
    return True


def _build_service(graph, num_shards=NUM_SHARDS):
    """A ``.build`` service (owns update state) on an inline process pool."""
    service = ShardedQueryService.build(
        graph, _params(),
        service_params=ServiceParams(cache_capacity=0),
        sharding=ShardingParams(num_shards=num_shards),
    )
    service._serve_backend = InlineProcessBackend(max_workers=1)
    return service


def _mixed_queries(count, topk=4):
    return _pair_queries(count) + [TopKQuery(i, k=6) for i in range(topk)]


class TestResidentSystemLifecycle:
    """A ``.build`` service (it owns the maintained linear system) on the
    real shared-memory export, through the lineage events: an applied
    ``add_edges``, a rebalance plan flip and a snapshot restore.

    The maintained system, the diagonal and the plan's owned-node arrays
    stay in the parent (top-k is ranked there), so the served graph is the
    one resident; these tests pin when its registration must change and
    when it must be reused.
    """

    def test_add_edges_bumps_system_epoch(self):
        graph = generators.copying_model_graph(300, out_degree=5, seed=7)
        with _build_service(graph) as service:
            before = service.run_batch(_mixed_queries(8))
            first = service._serve_backend.resident_handle("graph")
            assert first is not None and first.kind == "shm"
            service.add_edges([(0, 150), (3, 290)])
            after = service.run_batch(_mixed_queries(8))
            second = service._serve_backend.resident_handle("graph")
            assert second.token != first.token, (
                "an adopted update must re-register the served graph"
            )
            assert second.epoch == first.epoch + 1
            assert resolve_resident(second) == service.graph
            assert service._serve_backend.resident_handle("system") is None
            assert len(before) == len(after)

    def test_rebalance_flip_bumps_system_and_nodes_epochs(self):
        """A plan flip moves ownership, not graph bytes: the graph's
        registration is reused (no re-export), no per-plan residents
        appear, and the answers stay bitwise identical."""
        from repro.graph.partition import ShardPlan

        graph = generators.copying_model_graph(300, out_degree=5, seed=7)
        with _build_service(graph) as service:
            reference = service.run_batch(_mixed_queries(8))
            graph_before = service._serve_backend.resident_handle("graph")
            assert graph_before is not None
            outcome = service.rebalance(
                plan=ShardPlan.contiguous(NUM_SHARDS, graph.n_nodes),
                force=True,
            )
            assert outcome["applied"]
            answers = service.run_batch(_mixed_queries(8))
            graph_after = service._serve_backend.resident_handle("graph")
            assert graph_after is graph_before
            for key in ("system", "shard_nodes"):
                assert service._serve_backend.resident_handle(key) is None
            assert _answers_equal(reference, answers)

    def test_snapshot_restore_serves_from_fresh_registration(self, tmp_path):
        graph = generators.copying_model_graph(300, out_degree=5, seed=7)
        queries = _mixed_queries(8)
        with _build_service(graph) as service:
            reference = service.run_batch(queries)
            service.save_snapshot(tmp_path)
        restored = ShardedQueryService.from_snapshot(
            graph, tmp_path,
            service_params=ServiceParams(cache_capacity=0),
        )
        restored._serve_backend = InlineProcessBackend(max_workers=1)
        with restored:
            answers = restored.run_batch(queries)
            handle = restored._serve_backend.resident_handle("graph")
            assert handle is not None and handle.kind == "shm", (
                "a restored lineage must register the graph afresh"
            )
        assert _answers_equal(reference, answers)

    def test_payload_free_identity_across_updates_and_migration(self):
        """Bitwise identity vs the single-shard service, before/after live
        updates and across a forced rebalance migration."""
        from repro.graph.partition import ShardPlan

        graph = generators.copying_model_graph(300, out_degree=5, seed=7)
        queries = _mixed_queries(10)
        edges = [(0, 150), (3, 290), (290, 7)]
        plan = ShardPlan.contiguous(NUM_SHARDS, graph.n_nodes)

        single = QueryService.build(graph, _params(),
                                    service_params=ServiceParams(
                                        cache_capacity=0))
        before_reference = single.run_batch(queries)
        single.add_edges(edges)
        after_reference = single.run_batch(queries)

        with _build_service(graph) as service:
            assert _answers_equal(before_reference, service.run_batch(queries))
            service.add_edges(edges)
            assert _answers_equal(after_reference, service.run_batch(queries))
            assert service.rebalance(plan=plan, force=True)["applied"]
            assert _answers_equal(after_reference,
                                  service.run_batch(queries)), (
                "diverged after a plan migration"
            )

    def test_system_payload_independent_of_system_size(self):
        """Per-batch scatter bytes stay O(sources) when the service owns a
        full maintained system (not just a pre-built index)."""
        queries = _mixed_queries(8)
        small = generators.copying_model_graph(300, out_degree=5, seed=7)
        large = generators.copying_model_graph(3000, out_degree=5, seed=7)
        with _build_service(small) as service:
            small_bytes = _batch_scatter_bytes(service, queries)
        with _build_service(large) as service:
            large_bytes = _batch_scatter_bytes(service, queries)
        assert large_bytes <= small_bytes * 1.25, (
            f"scatter payload grew with the maintained system: "
            f"{small_bytes}B at n=300 vs {large_bytes}B at n=3000"
        )

    def test_topk_payload_carries_no_score_slices(self):
        """Top-k is ranked in the parent, so a top-k batch scatters exactly
        what the same sources' simulation does — no per-shard score
        slices (O(n/K) floats each)."""
        graph = generators.copying_model_graph(2000, out_degree=5, seed=7)
        topk_queries = [TopKQuery(i, k=8) for i in range(6)]
        source_queries = [SourceQuery(i) for i in range(6)]
        with _service(graph) as service:
            topk_bytes = _batch_scatter_bytes(service, topk_queries)
            assert service.last_batch_payload_bytes == topk_bytes
            assert service.stats()["scatter_payload_bytes"] >= topk_bytes
            assert topk_bytes == _batch_scatter_bytes(service, source_queries)
        assert topk_bytes < 96 * 1024


class TestCloseReleasesSharedMemory:
    def _segment_exists(self, name):
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return False
        segment.close()
        return True

    def test_close_unlinks_serve_pool_segments(self):
        graph = generators.copying_model_graph(300, out_degree=5, seed=3)
        service = ShardedQueryService(
            graph, _build_index(graph), _params(),
            ServiceParams(cache_capacity=0, serve_backend="processes",
                          serve_workers=1),
            sharding=ShardingParams(num_shards=2),
        )
        service.run_batch(_pair_queries(4))
        handle = service._serve_backend.resident_handle("graph")
        assert handle is not None and self._segment_exists(handle.shm_name)
        service.close()
        assert not self._segment_exists(handle.shm_name)
        service.close()  # idempotent

    def test_close_unlinks_system_and_nodes_segments(self):
        """The full working set is the graph alone, also after a top-k
        batch, and it is released on close, including after the pool
        broke."""
        graph = generators.copying_model_graph(300, out_degree=5, seed=3)
        service = ShardedQueryService(
            graph, _build_index(graph), _params(),
            ServiceParams(cache_capacity=0, serve_backend="processes",
                          serve_workers=1),
            sharding=ShardingParams(num_shards=2),
        )
        service.run_batch(_pair_queries(4) + [TopKQuery(1, k=5)])
        handle = service._serve_backend.resident_handle("graph")
        assert handle is not None and self._segment_exists(handle.shm_name)
        for key in ("system", "shard_nodes"):
            assert service._serve_backend.resident_handle(key) is None
        with pytest.raises(BrokenExecutor):
            service._serve_backend.run([_die_hard])
        assert not self._segment_exists(handle.shm_name), (
            "broken-pool recovery leaked the graph segment"
        )
        service.close()  # must stay a no-op for already-released segments

    def test_close_releases_segments_after_pool_breaks(self):
        """The satellite guarantee: a broken pool cannot leak segments.

        Both release points are exercised: the broken-run recovery path
        frees the registration immediately, and the service-level
        ``close`` afterwards must succeed (and stay a no-op for the
        already-unlinked segment) instead of raising.
        """
        graph = generators.copying_model_graph(300, out_degree=5, seed=3)
        service = ShardedQueryService(
            graph, _build_index(graph), _params(),
            ServiceParams(cache_capacity=0, serve_backend="processes",
                          serve_workers=1),
            sharding=ShardingParams(num_shards=2),
        )
        service.run_batch(_pair_queries(4))
        handle = service._serve_backend.resident_handle("graph")
        assert handle is not None
        with pytest.raises(BrokenExecutor):
            service._serve_backend.run([_die_hard])
        assert not self._segment_exists(handle.shm_name), (
            "broken-pool recovery must release resident segments"
        )
        service.close()
        # The service stays usable: pool re-forks, residency re-registers.
        answers = service.run_batch(_pair_queries(4))
        fresh = service._serve_backend.resident_handle("graph")
        assert fresh is not None and fresh.token != handle.token
        assert len(answers) == 4
        service.close()
        assert not self._segment_exists(fresh.shm_name)
