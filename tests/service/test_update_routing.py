"""Update routing end to end: affected sets, cache evictions, answers.

Every applied edge batch is routed once: the forward ball of radius ``T``
around the new edges' heads names the rows the walker re-estimates and the
cache entries the service drops.  These tests drive services through a
mutation stream and assert the observable outcomes match the BFS ball
exactly — affected sets, cache-eviction sets — and that the single-shard
and sharded services stay identical in affected sets, evictions and index
bytes, including across a forced rebalance (a shard-plan flip) mid-stream.
"""

import numpy as np
import pytest

from repro.config import (
    ServiceParams,
    ShardingParams,
    UpdateParams,
)
from repro.core import walks
from repro.service import (
    PairQuery,
    QueryService,
    ShardedQueryService,
    SourceQuery,
    TopKQuery,
)

QUERIES = [PairQuery(3, 7), SourceQuery(12), TopKQuery(5, k=6)]


def edge_batches(n_nodes, n_batches, per_batch, seed):
    rng = np.random.default_rng(seed)
    hot = rng.permutation(n_nodes)[: max(4, n_nodes // 20)]
    batches = []
    for _ in range(n_batches):
        batch = []
        while len(batch) < per_batch:
            u = int(rng.integers(0, n_nodes))
            v = int(rng.choice(hot))
            if u != v:
                batch.append((u, v))
        batches.append(batch)
    return batches


def cached_nodes(service):
    caches = ([service.cache] if getattr(service, "cache", None) is not None
              else service.shard_caches)
    return {key.node for cache in caches for key in cache._entries}


def expected_ball(graph, batch, steps):
    return walks.forward_reachable_set(graph, {v for _u, v in batch}, steps)


def answers_equal(left, right):
    for a, b in zip(left, right):
        if isinstance(a, (float, list)):
            if a != b:
                return False
        elif not np.array_equal(a, b):
            return False
    return True


class TestUpdateParamsSwitch:
    def test_validation_and_round_trip(self):
        """Routing is not configurable: ``UpdateParams`` carries no
        ``reachability`` knob and rejects a dict that still names one."""
        params = UpdateParams(max_pending_edges=7)
        data = params.to_dict()
        assert "reachability" not in data
        assert UpdateParams.from_dict(data) == params
        with pytest.raises(TypeError):
            UpdateParams(reachability="bfs")
        with pytest.raises(TypeError):
            UpdateParams.from_dict({**data, "reachability": "interval"})

    def test_stats_surface_the_mode(self, service_graph, service_index,
                                    service_params):
        """Stats count applied updates; no routing-mode key remains."""
        service = QueryService(service_graph, service_index, service_params)
        assert service.stats()["updates_applied"] == 0
        service.add_edges(edge_batches(service_graph.n_nodes, 1, 3, seed=5)[0])
        stats = service.stats()
        assert stats["updates_applied"] == 1
        assert "reachability" not in stats


class TestSingleShardEquivalence:
    def test_modes_agree_on_affected_evictions_and_answers(
            self, service_graph, service_index, service_params):
        """Affected set and evictions equal the BFS ball of the batch's
        heads on the post-update graph; a twin service fed the same stream
        answers bit for bit the same."""
        services = [
            QueryService(service_graph, service_index, service_params)
            for _ in range(2)
        ]
        steps = service_params.walk_steps
        for batch in edge_batches(service_graph.n_nodes, 4, 3, seed=101):
            outcomes = []
            for service in services:
                # Re-fill the cache so every service evicts from the same pool.
                service.run_batch(QUERIES)
                before = cached_nodes(service)
                result = service.add_edges(batch)
                evicted = before - cached_nodes(service)
                ball = expected_ball(service.graph, batch, steps)
                assert result.affected == ball
                assert evicted == before & ball
                assert result.routing_seconds >= 0.0
                outcomes.append((result.affected, evicted))
            assert outcomes[0] == outcomes[1]
            answers = [list(service.run_batch(QUERIES)) for service in services]
            assert answers_equal(answers[0], answers[1])
            assert np.array_equal(services[0].index.diagonal,
                                  services[1].index.diagonal)


class TestShardedEquivalenceAcrossPlanFlips:
    def test_rebalance_does_not_split_the_modes(self, service_graph,
                                                service_index,
                                                service_params):
        """A 3-shard service routes each batch exactly like the single-shard
        service, before and after a forced plan flip mid-stream."""
        single = QueryService(service_graph, service_index, service_params,
                              update_params=UpdateParams())
        sharded = ShardedQueryService(
            service_graph, service_index, service_params,
            update_params=UpdateParams(),
            sharding=ShardingParams(num_shards=3, strategy="hash"),
        )
        batches = edge_batches(service_graph.n_nodes, 4, 3, seed=77)
        for step, batch in enumerate(batches):
            if step == 2:
                report = sharded.rebalance(force=True)
                assert report["applied"]
            outcomes = []
            for service in (single, sharded):
                service.run_batch(QUERIES)
                before = cached_nodes(service)
                result = service.add_edges(batch)
                evicted = before - cached_nodes(service)
                outcomes.append((result.affected, evicted))
            assert outcomes[0] == outcomes[1]
            assert outcomes[0][0] == expected_ball(
                single.graph, batch, service_params.walk_steps)
        assert np.array_equal(single.index.diagonal, sharded.index.diagonal)
        sharded.close()


class TestCacheRadiusQuery:
    def test_invalidate_reachable_matches_invalidate_sources(
            self, service_graph, service_index, service_params):
        """An update drops exactly the entries ``invalidate_sources`` drops
        for the BFS ball, and counts them as invalidations."""
        rng = np.random.default_rng(19)
        heads = [int(h) for h in rng.integers(0, service_graph.n_nodes, size=3)]
        batch = [((h + 1) % service_graph.n_nodes, h) for h in heads]
        params = ServiceParams(cache_capacity=256)
        service = QueryService(service_graph, service_index, service_params,
                               params)
        service.run_batch(QUERIES)
        reference = QueryService(service_graph, service_index,
                                 service_params, params)
        reference.run_batch(QUERIES)
        before = service.cache.stats.invalidations
        service.add_edges(batch)
        ball = expected_ball(service.graph, batch, service_params.walk_steps)
        dropped = reference.cache.invalidate_sources(ball)
        assert service.cache.stats.invalidations - before == dropped
        assert cached_nodes(service) == cached_nodes(reference)
