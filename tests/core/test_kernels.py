"""The NumPy pair, self-meeting and routing kernels: bitwise contracts.

The sharded and single-shard services agree bit for bit only because each
kernel fixes its arithmetic order:

- :func:`repro.core.montecarlo.sparse_dot` multiplies the common support
  in ascending node order and reduces with NumPy's pairwise ``sum``;
- :func:`repro.core.montecarlo.combine_pair_distributions` must equal the
  per-step ``sparse_dot`` loop it replaced, bit for bit;
- :func:`repro.core.montecarlo.self_meeting_column` accumulates each node
  strictly in input order;
- the routing ball (:class:`repro.core.reachability.ReachabilityIndex`)
  is exactly the BFS ball of :func:`repro.core.walks.forward_reachable_set`.

These tests pin those contracts and their dispatch through the real entry
points, plus the rule that the kernels have one tier (no mode flag).
"""

import numpy as np
import pytest

from repro.config import ServiceParams, SimRankParams
from repro.core import montecarlo, reachability, walks
from repro.core.queries import QueryEngine
from repro.graph import generators


@pytest.fixture()
def graph():
    return generators.erdos_renyi_graph(150, 800, seed=13)


@pytest.fixture()
def params():
    return SimRankParams(c=0.6, walk_steps=5, jacobi_iterations=2,
                         index_walkers=15, query_walkers=50, seed=13)


@pytest.fixture()
def distributions(graph, params):
    sources = list(range(0, graph.n_nodes, 4))
    return montecarlo.estimate_walk_distributions_batch(
        graph, sources, params, walkers=120)


def _per_step_oracle(dist_i, dist_j, weights, decay, steps):
    """The historical pair combine: one ``sparse_dot`` per step."""
    total = 0.0
    factor = 1.0
    for step in range(steps + 1):
        total += factor * montecarlo.sparse_dot(
            dist_i.per_step[step], dist_j.per_step[step], weights)
        factor *= decay
    return float(total)


def _self_meeting_oracle(distributions, decay):
    """The historical self-meeting column: per-entry dict accumulation."""
    column = {}
    factor = 1.0
    for step in range(distributions.steps + 1):
        nodes, values = distributions.per_step[step]
        for node, value in zip(nodes.tolist(), (factor * values * values).tolist()):
            column[node] = column.get(node, 0.0) + value
        factor *= decay
    return column


class TestPairwiseSum:
    @pytest.mark.parametrize("n", [0, 1, 5, 7, 8, 9, 64, 127, 128, 129,
                                   200, 1000, 4097])
    def test_matches_numpy_sum_bitwise(self, n):
        """``sparse_dot`` over ``n`` common nodes is NumPy's pairwise sum of
        the ascending-order products (sizes straddle its 8/128 blocks)."""
        rng = np.random.default_rng(n)
        left_values = rng.standard_normal(n + 3)
        right_values = rng.standard_normal(n + 3)
        weights = rng.random(n + 6)
        # Supports overlap on nodes 3 .. n+2 only.
        left = (np.arange(n + 3, dtype=np.int64), left_values)
        right = (np.arange(3, n + 6, dtype=np.int64), right_values)
        expected = float((left_values[3:3 + n] * right_values[:n]
                          * weights[3:3 + n]).sum()) if n else 0.0
        assert montecarlo.sparse_dot(left, right, weights) == expected

    def test_adversarial_magnitudes(self):
        rng = np.random.default_rng(99)
        values = rng.standard_normal(513) * np.logspace(-12, 12, 513)
        nodes = np.arange(513, dtype=np.int64)
        ones = np.ones(513)
        expected = float((values * values * ones).sum())
        assert montecarlo.sparse_dot((nodes, values), (nodes, values),
                                     ones) == expected


class TestCombinePairIdentity:
    def test_matches_oracle_bitwise(self, graph, params, distributions):
        weights = np.linspace(0.3, 1.7, graph.n_nodes)
        sources = sorted(distributions)
        for a, b in zip(sources[0::2], sources[1::2]):
            oracle = _per_step_oracle(
                distributions[a], distributions[b], weights,
                params.c, params.walk_steps)
            batched = montecarlo.combine_pair_distributions(
                distributions[a], distributions[b], weights,
                params.c, params.walk_steps)
            assert batched == oracle  # float equality, not approx

    def test_dispatch_through_oracle_entry_point(self, graph, params,
                                                 distributions):
        """The query engine's pair combine is the kernel on the diagonal,
        clamped to 1, and repeated calls reuse no stale scratch."""
        from repro.core.diagonal import build_diagonal_index

        index = build_diagonal_index(graph, params)
        engine = QueryEngine(graph, index, params)
        sources = sorted(distributions)
        for a, b in zip(sources[0::2], sources[1::2]):
            kernel = montecarlo.combine_pair_distributions(
                distributions[a], distributions[b], index.diagonal,
                params.c, params.walk_steps)
            served = engine.combine_pair(distributions[a], distributions[b])
            assert served == min(kernel, 1.0)
            assert engine.combine_pair(distributions[a],
                                       distributions[b]) == served


class TestSelfMeetingIdentity:
    def test_matches_oracle_bitwise(self, params, distributions):
        for source in sorted(distributions):
            oracle = _self_meeting_oracle(distributions[source], params.c)
            column = montecarlo.self_meeting_column(
                distributions[source], params.c)
            assert column.keys() == oracle.keys()
            for node in oracle:
                assert column[node] == oracle[node]

    def test_dispatch_through_oracle_entry_point(self, graph, params,
                                                 distributions):
        """The two kernels describe one quantity: the pair combine of a
        node with itself is its self-meeting column dotted with the
        weights (equal up to summation order)."""
        weights = np.linspace(0.3, 1.7, graph.n_nodes)
        for source in sorted(distributions)[:8]:
            column = montecarlo.self_meeting_column(
                distributions[source], params.c)
            dotted = sum(value * weights[node] for node, value in column.items())
            paired = montecarlo.combine_pair_distributions(
                distributions[source], distributions[source], weights,
                params.c, params.walk_steps)
            assert paired == pytest.approx(dotted, rel=1e-12)


class TestIntervalBallIdentity:
    @pytest.mark.parametrize("steps", [0, 1, 2, 4, 8])
    def test_matches_interval_and_bfs_oracles(self, graph, steps):
        index = reachability.ReachabilityIndex()
        for seed_node in range(0, graph.n_nodes, 11):
            ball = index.query(graph, [seed_node], steps)
            assert ball == walks.forward_reachable_set(graph, [seed_node], steps)
            # Every node in the ball is within `steps` hops of the seed and
            # the ball is closed under one more hop only at its edge.
            assert seed_node in ball
            if steps:
                inner = index.query(graph, [seed_node], steps - 1)
                assert inner <= ball
                out_indptr, out_indices = graph.out_csr
                for node in inner:
                    successors = out_indices[out_indptr[node]:out_indptr[node + 1]]
                    assert set(successors.tolist()) <= ball

    def test_multi_seed_ball(self, graph):
        """A multi-seed ball is the union of the single-seed balls."""
        index = reachability.ReachabilityIndex()
        seeds = [0, 17, 42]
        union = set()
        for seed_node in seeds:
            union |= index.query(graph, [seed_node], 3)
        assert index.query(graph, seeds, 3) == union

    def test_dispatch_through_reachable_set(self, graph, monkeypatch):
        """``ReachabilityIndex.query`` answers through
        ``walks.forward_reachable_set`` (the per-layer tracer wraps both)."""
        calls = []
        original = walks.forward_reachable_set

        def spy(g, seeds, steps):
            calls.append((g, tuple(seeds), steps))
            return original(g, seeds, steps)

        monkeypatch.setattr(walks, "forward_reachable_set", spy)
        ball = reachability.ReachabilityIndex().query(graph, [5], 4)
        assert calls == [(graph, (5,), 4)]
        assert ball == original(graph, [5], 4)


class TestModeFlag:
    """The kernels have one tier; the mode flag and its module are gone."""

    def test_request_records_intent_and_falls_back(self):
        """``--kernels`` is no longer a CLI option: argparse rejects it."""
        from repro.cli import build_parser

        parser = build_parser()
        base = ["serve-http", "--graph", "g.tsv", "--index", "i.npz"]
        assert not hasattr(parser.parse_args(base), "kernels")
        with pytest.raises(SystemExit):
            parser.parse_args(base + ["--kernels", "numba"])

    def test_python_mode_is_always_active(self):
        with pytest.raises(ImportError):
            import repro.core.kernels  # noqa: F401
        assert not hasattr(montecarlo, "kernels")

    def test_invalid_mode_rejected(self):
        with pytest.raises(TypeError):
            ServiceParams(kernels="cython")

    def test_service_params_validates_kernels(self):
        """A parameter dict that still names ``kernels`` fails loudly
        instead of being silently ignored."""
        data = ServiceParams().to_dict()
        assert "kernels" not in data
        assert ServiceParams.from_dict(data) == ServiceParams()
        with pytest.raises(TypeError):
            ServiceParams.from_dict({**data, "kernels": "numba"})

    def test_service_requests_mode_at_construction(self):
        from repro.service import QueryService

        graph = generators.copying_model_graph(40, out_degree=3, seed=5)
        params = SimRankParams(c=0.6, walk_steps=3, jacobi_iterations=2,
                               index_walkers=10, query_walkers=20, seed=5)
        service = QueryService.build(
            graph, params, service_params=ServiceParams(cache_capacity=0))
        stats = service.stats()
        assert not any(key.startswith("kernels") for key in stats)
