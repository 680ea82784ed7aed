"""Update routing: the forward ball an edge batch touches.

Routing is the per-level BFS sweep (:func:`repro.core.walks.
forward_reachable_set`) behind :class:`repro.core.reachability.
ReachabilityIndex`.  The contract under test is exact set equality with an
independent, deliberately naive oracle — the service's bitwise
reproducibility hangs off "same affected set -> same re-estimated rows ->
same index".  The class names keep the routing story's vocabulary (ball
equality, lineage, walker routing); every check is against the one routing
path that exists.
"""

import numpy as np
import pytest

from repro.core import walks
from repro.core.incremental import IncrementalCloudWalker, affected_sources
from repro.core.reachability import ReachabilityIndex
from repro.errors import NodeNotFoundError
from repro.graph.digraph import DiGraph


def random_graph(rng, n_nodes, n_edges):
    edges = rng.integers(0, n_nodes, size=(n_edges, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    return DiGraph(n_nodes, [(int(u), int(v)) for u, v in edges])


def naive_ball(graph, seeds, steps):
    """Bounded-hop forward ball from a plain adjacency dict (the oracle)."""
    out = {}
    for u, v in graph.edge_array():
        out.setdefault(int(u), set()).add(int(v))
    reached = {int(s) for s in seeds}
    frontier = set(reached)
    for _ in range(max(steps, 0)):
        frontier = {v for u in frontier for v in out.get(u, ())} - reached
        if not frontier:
            break
        reached |= frontier
    return reached


def grow(graph, rng, max_new_nodes=2, max_edges=3):
    """One lineage step: a new graph with a few edges and maybe new nodes."""
    new_n = graph.n_nodes + int(rng.integers(0, max_new_nodes + 1))
    new_edges = []
    while len(new_edges) < int(rng.integers(1, max_edges + 1)):
        u = int(rng.integers(0, new_n))
        v = int(rng.integers(0, new_n))
        if u != v:
            new_edges.append((u, v))
    combined = [(int(u), int(v)) for u, v in graph.edge_array()] + new_edges
    return DiGraph(new_n, combined), new_edges


class TestIntervalEqualsBfs:
    def test_random_graphs_seeds_and_radii(self):
        rng = np.random.default_rng(20150801)
        index = ReachabilityIndex()
        for _ in range(40):
            n_nodes = int(rng.integers(2, 120))
            graph = random_graph(rng, n_nodes, int(rng.integers(0, 4 * n_nodes)))
            for _ in range(6):
                n_seeds = int(rng.integers(1, min(n_nodes, 6) + 1))
                seeds = [int(s) for s in rng.integers(0, n_nodes, size=n_seeds)]
                steps = int(rng.integers(0, 12))
                expected = naive_ball(graph, seeds, steps)
                assert index.query(graph, seeds, steps) == expected
                assert walks.forward_reachable_set(graph, seeds, steps) == expected

    def test_repeated_queries_on_shared_labels(self):
        """One index answers overlapping questions back to back with no
        residue from the previous query (its visited mask is per call)."""
        rng = np.random.default_rng(7)
        graph = random_graph(rng, 80, 200)
        index = ReachabilityIndex()
        for steps in (1, 3, 3, 7, 2, 7, 1):
            seeds = [int(s) for s in rng.integers(0, 80, size=3)]
            assert index.query(graph, seeds, steps) == naive_ball(
                graph, seeds, steps)

    def test_trivial_radii_match_oracle_contract(self):
        graph = DiGraph(5, [(0, 1), (1, 2)])
        index = ReachabilityIndex()
        for steps in (0, -2):
            assert index.query(graph, [2, 0, 2], steps) == {0, 2}
            assert walks.forward_reachable_set(graph, [2, 0, 2], steps) == {0, 2}
        assert index.query(graph, [], 4) == set()
        with pytest.raises(NodeNotFoundError):
            index.query(graph, [9], 0)

    def test_huge_radius_is_clamped_not_overflowed(self):
        """A radius far past the graph's diameter stops at the closure
        (the sweep ends when a level finds nothing new)."""
        rng = np.random.default_rng(11)
        graph = random_graph(rng, 50, 140)
        expected = naive_ball(graph, [3, 7], graph.n_nodes)
        assert ReachabilityIndex().query(graph, [3, 7], 10**12) == expected

    def test_mode_dispatch_and_validation(self):
        """One routing path: no mode argument is accepted anywhere."""
        graph = DiGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert ReachabilityIndex().query(graph, [0], 2) == {0, 1, 2}
        assert affected_sources(graph, [0], 2) == {0, 1, 2}
        with pytest.raises(TypeError):
            ReachabilityIndex("bfs")
        with pytest.raises(TypeError):
            affected_sources(graph, [0], 2, mode="bfs")

    def test_affected_sources_modes_agree(self):
        """The walker's routing hook and the service-facing helper agree."""
        rng = np.random.default_rng(3)
        graph = random_graph(rng, 60, 150)
        heads = [int(h) for h in rng.integers(0, 60, size=4)]
        expected = naive_ball(graph, heads, 5)
        assert affected_sources(graph, heads, 5) == expected
        assert ReachabilityIndex().query(graph, heads, 5) == expected


class TestLabelLifecycle:
    def test_extension_lineage_stays_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(12):
            n_nodes = int(rng.integers(3, 50))
            graph = random_graph(rng, n_nodes, int(rng.integers(1, 3 * n_nodes)))
            index = ReachabilityIndex()
            for _ in range(5):
                new_graph, new_edges = grow(graph, rng)
                index.advance(graph, new_graph, new_edges)
                graph = new_graph
                seeds = [int(s) for s in rng.integers(0, graph.n_nodes, size=3)]
                steps = int(rng.integers(0, 8))
                assert index.query(graph, seeds, steps) == naive_ball(
                    graph, seeds, steps)

    def test_extend_rejects_shrink(self):
        """A query against a smaller graph than the lineage has seen rejects
        node ids past that graph's range instead of answering stale."""
        grown = DiGraph(6, [(0, 1), (4, 5)])
        smaller = DiGraph(4, [(0, 1)])
        index = ReachabilityIndex()
        index.advance(smaller, grown, [(4, 5)])
        assert index.query(grown, [4], 1) == {4, 5}
        with pytest.raises(NodeNotFoundError):
            index.query(smaller, [4], 1)

    def test_shared_labels_keyed_by_identity(self):
        """The index keeps no per-graph state: equal graphs get equal
        answers, a different graph gets its own, whatever the call order."""
        graph = DiGraph(5, [(0, 1), (1, 2)])
        twin = DiGraph(5, [(0, 1), (1, 2)])
        other = DiGraph(5, [(0, 3), (3, 4)])
        index = ReachabilityIndex()
        assert index.query(graph, [0], 4) == {0, 1, 2}
        assert index.query(other, [0], 4) == {0, 3, 4}
        assert index.query(twin, [0], 4) == {0, 1, 2}
        assert vars(index) == {}

    def test_index_rebuilds_after_extension_budget(self):
        """A long lineage (well past any per-lineage budget) stays exact."""
        rng = np.random.default_rng(5)
        graph = random_graph(rng, 30, 60)
        index = ReachabilityIndex()
        for _ in range(67):
            new_graph, new_edges = grow(graph, rng, max_new_nodes=0,
                                        max_edges=1)
            index.advance(graph, new_graph, new_edges)
            graph = new_graph
            seeds = [int(rng.integers(0, 30))]
            assert index.query(graph, seeds, 4) == naive_ball(graph, seeds, 4)

    def test_index_handles_unseen_graph_and_bfs_mode(self):
        graph = DiGraph(6, [(0, 1), (1, 2), (3, 4)])
        # No advance: the query must still be exact.
        assert ReachabilityIndex().query(graph, [0], 2) == {0, 1, 2}
        assert ReachabilityIndex().query(graph, [3], 2) == {3, 4}

    def test_broken_lineage_falls_back_to_rebuild(self):
        base = DiGraph(5, [(0, 1), (1, 2)])
        other = DiGraph(5, [(0, 1), (1, 2), (2, 3)])
        follow = DiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        index = ReachabilityIndex()
        index.advance(base, other, [(2, 3)])
        # Advance claims `base` again as the base of `follow`: the answer
        # depends only on the graph queried.
        index.advance(base, follow, [(3, 4)])
        assert index.query(follow, [0], 4) == {0, 1, 2, 3, 4}


class TestWalkerRouting:
    def test_walker_modes_produce_identical_summaries_and_systems(self):
        """The walker re-estimates exactly the oracle ball (plus new nodes),
        and two walkers fed the same stream stay bitwise identical."""
        from repro.config import SimRankParams

        rng = np.random.default_rng(9)
        graph = random_graph(rng, 40, 90)
        params = SimRankParams.fast_defaults()
        walkers = []
        for _ in range(2):
            walker = IncrementalCloudWalker(
                graph, params=params, stream_per_source=True,
                warm_start=False,
            )
            walker.build()
            walkers.append(walker)
        for _ in range(4):
            old_n = walkers[0].graph.n_nodes
            batch = []
            while len(batch) < 3:
                u = int(rng.integers(0, old_n + 1))
                v = int(rng.integers(0, old_n + 1))
                if u != v:
                    batch.append((u, v))
            infos = [walker.add_edges(batch) for walker in walkers]
            new_graph = walkers[0].graph
            heads = {v for _u, v in batch}
            expected = naive_ball(new_graph, heads, params.walk_steps) | set(
                range(old_n, new_graph.n_nodes))
            assert infos[0]["affected"] == expected
            assert infos[1]["affected"] == expected
            assert infos[0]["routing_seconds"] >= 0.0
            left, right = walkers[0].system, walkers[1].system
            assert np.array_equal(left.data, right.data)
            assert np.array_equal(left.indices, right.indices)
            assert np.array_equal(left.indptr, right.indptr)
            assert np.array_equal(walkers[0].index.diagonal,
                                  walkers[1].index.diagonal)
