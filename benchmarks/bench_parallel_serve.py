"""Parallel scatter-gather serving — critical path vs the sequential scatter.

The sharded service resolves a query batch by scattering one walk-simulation
task per touched shard through a persistent executor backend
(``ServiceParams.serve_backend``).  Those tasks
share nothing until the gather — every source consumes its own ``(seed,
source)`` random stream — so the scatter is embarrassingly parallel and the
batch's wall-clock on a ``W``-worker deployment is the **critical path**

    makespan(per-shard scatter seconds over W workers) + serial share,

the same simulated-strong-scaling accounting as
``benchmarks/bench_sharded_build.py`` (this host is pinned to one core, so
the measured end-to-end time stays flat while the critical path shrinks).
Per-shard scatter timings come from ``ShardedQueryService.last_scatter_seconds``;
the makespan uses longest-processing-time-first scheduling.

Gates:

* critical-path speedup at 4 workers must be >= 2x over the sequential
  (serial-backend) sharded scatter;
* at **every** tested worker count, the thread-backed answers must be
  bitwise-identical to the sequential sharded path *and* to the single-shard
  ``QueryService`` — and stay identical after live edge insertions (checked
  on a smaller build so the attach cost stays benchmark-sized).

Runs standalone too::

    PYTHONPATH=src python benchmarks/bench_parallel_serve.py
"""

import time

import numpy as np

GRAPH_NODES = 2_000
OUT_DEGREE = 6
WALK_STEPS = 6
INDEX_WALKERS = 40
QUERY_WALKERS = 2_000
NUM_SHARDS = 8
WORKER_COUNTS = (1, 2, 4)
N_SOURCES = 320
N_TOPK = 8
TOP_K = 10
MIN_SPEEDUP_AT_4 = 2.0
SEED = 31

UPDATE_GRAPH_NODES = 300
UPDATE_EDGES = ((0, 150), (3, 300), (300, 7))


def _params():
    from repro.config import SimRankParams

    return SimRankParams(
        c=0.6, walk_steps=WALK_STEPS, jacobi_iterations=3,
        index_walkers=INDEX_WALKERS, query_walkers=QUERY_WALKERS, seed=SEED,
    )


def _queries(n_nodes):
    """A pair-heavy batch over distinct sources, plus a few top-k.

    MCSP traffic is the scatter-dominated shape: every distinct source
    costs a walk simulation (fanned out per shard) while the per-query
    combine is a handful of sparse dot products — so the batch's serial
    share stays small and the scatter's parallelism is observable.
    Consecutive source ids keep the hash plan balanced.
    """
    from repro.service import PairQuery, TopKQuery

    sources = list(range(min(N_SOURCES, n_nodes)))
    queries = [PairQuery(a, b) for a, b in zip(sources[0::2], sources[1::2])]
    queries.extend(TopKQuery(source, k=TOP_K) for source in sources[:N_TOPK])
    return queries


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


def _makespan(seconds, workers):
    """Longest-processing-time-first schedule of tasks onto ``workers``."""
    loads = [0.0] * workers
    for task in sorted(seconds, reverse=True):
        loads[loads.index(min(loads))] += task
    return max(loads) if loads else 0.0


def _sharded_service(graph, index, backend, workers):
    from repro.config import ServiceParams, ShardingParams
    from repro.service import ShardedQueryService

    return ShardedQueryService(
        graph, index, _params(),
        ServiceParams(cache_capacity=0, serve_backend=backend,
                      serve_workers=workers),
        sharding=ShardingParams(num_shards=NUM_SHARDS),
    )


def _run_batch(service, queries):
    start = time.perf_counter()
    answers = service.run_batch(queries)
    return answers, time.perf_counter() - start


def _update_identity_check():
    """Bitwise identity before/after live updates, at every worker count.

    Uses ``.build`` services on a smaller graph so each parallel
    configuration owns an update-ready linear system without paying a
    benchmark-dominating attach.
    """
    from repro.config import ServiceParams, ShardingParams, SimRankParams
    from repro.graph import generators
    from repro.service import QueryService, ShardedQueryService

    params = SimRankParams(
        c=0.6, walk_steps=min(WALK_STEPS, 5), jacobi_iterations=3,
        index_walkers=min(INDEX_WALKERS, 30),
        query_walkers=min(QUERY_WALKERS, 200), seed=SEED,
    )
    graph = generators.copying_model_graph(
        UPDATE_GRAPH_NODES, out_degree=OUT_DEGREE, seed=SEED,
        name="parallel-serve-updates",
    )
    queries = _queries(graph.n_nodes)[:24]
    edges = [(u, min(v, graph.n_nodes)) for u, v in UPDATE_EDGES]

    single = QueryService.build(graph, params)
    before_reference = single.run_batch(queries)
    single.add_edges(edges)
    after_reference = single.run_batch(queries)

    identical = True
    for workers in WORKER_COUNTS:
        with ShardedQueryService.build(
            graph, params,
            service_params=ServiceParams(cache_capacity=0,
                                         serve_backend="threads",
                                         serve_workers=workers),
            sharding=ShardingParams(num_shards=min(NUM_SHARDS, 4)),
        ) as sharded:
            identical &= _answers_equal(before_reference,
                                        sharded.run_batch(queries))
            sharded.add_edges(edges)
            identical &= _answers_equal(after_reference,
                                        sharded.run_batch(queries))
    return identical


def parallel_serve_experiment():
    from repro.core.diagonal import build_diagonal_index
    from repro.graph import generators
    from repro.service import QueryService

    params = _params()
    graph = generators.copying_model_graph(
        GRAPH_NODES, out_degree=OUT_DEGREE, seed=SEED, name="parallel-serve"
    )
    index = build_diagonal_index(graph, params)
    queries = _queries(graph.n_nodes)

    single = QueryService(graph, index, params)
    reference, single_seconds = _run_batch(single, queries)

    # Sequential sharded scatter (serial backend); best of two runs so the
    # baseline is not inflated by first-touch allocation noise.
    sequential = _sharded_service(graph, index, "serial", 1)
    with sequential:
        first_answers, first_seconds = _run_batch(sequential, queries)
        second_answers, second_seconds = _run_batch(sequential, queries)
        shard_seconds = list(sequential.last_scatter_seconds.values())
    sequential_seconds = min(first_seconds, second_seconds)
    serial_share = max(sequential_seconds - sum(shard_seconds), 0.0)
    sequential_critical = sum(shard_seconds) + serial_share
    sequential_identical = (_answers_equal(reference, first_answers)
                            and _answers_equal(first_answers, second_answers))

    rows = [{
        "workers": 0,  # 0 = the sequential in-process scatter (baseline)
        "backend": "serial",
        "critical_path_seconds": round(sequential_critical, 4),
        "measured_seconds": round(sequential_seconds, 4),
        "speedup": 1.0,
        "bitwise_identical": sequential_identical,
    }]
    speedups = {}
    all_identical = sequential_identical
    for workers in WORKER_COUNTS:
        with _sharded_service(graph, index, "threads", workers) as parallel:
            answers, measured = _run_batch(parallel, queries)
        identical = (_answers_equal(first_answers, answers)
                     and _answers_equal(reference, answers))
        all_identical &= identical
        critical = _makespan(shard_seconds, workers) + serial_share
        speedup = sequential_critical / max(critical, 1e-9)
        speedups[workers] = speedup
        rows.append({
            "workers": workers,
            "backend": "threads",
            "critical_path_seconds": round(critical, 4),
            "measured_seconds": round(measured, 4),
            "speedup": round(speedup, 2),
            "bitwise_identical": identical,
        })
    all_identical &= _update_identity_check()
    return {
        "rows": rows,
        "speedup_at_4": speedups.get(4, 0.0),
        "all_identical": all_identical,
        "graph_nodes": graph.n_nodes,
        "graph_edges": graph.n_edges,
        "num_shards": NUM_SHARDS,
        "n_queries": len(queries),
        "query_walkers": QUERY_WALKERS,
        "single_shard_seconds": round(single_seconds, 4),
    }


def _check_and_render(result) -> str:
    from repro.bench import reporting

    rendered = reporting.format_table(
        result["rows"],
        title=(f"Parallel scatter-gather serving of {result['n_queries']} "
               f"queries on a {result['graph_nodes']}-node graph "
               f"({result['num_shards']} shards, R'={result['query_walkers']}; "
               "critical path = W-worker wall-clock; workers=0 is the "
               "sequential scatter)"),
    )
    assert result["all_identical"], (
        "a parallel scatter diverged bitwise from the sequential/single-shard "
        "answers"
    )
    assert result["speedup_at_4"] >= MIN_SPEEDUP_AT_4, (
        f"critical-path speedup at 4 workers is only "
        f"{result['speedup_at_4']:.2f}x (needs >= {MIN_SPEEDUP_AT_4}x)"
    )
    return rendered


def test_parallel_serve(benchmark, results_dir):
    from repro.bench import reporting

    result = benchmark.pedantic(parallel_serve_experiment, rounds=1, iterations=1)
    rendered = _check_and_render(result)
    reporting.save_results("parallel_serve", result, rendered, results_dir)
    print("\n" + rendered)


if __name__ == "__main__":
    from repro.bench import reporting

    outcome = parallel_serve_experiment()
    rendered = _check_and_render(outcome)
    reporting.save_results("parallel_serve", outcome, rendered)
    print(rendered)
    print(f"critical-path speedup at 4 workers: {outcome['speedup_at_4']:.1f}x, "
          f"answers bitwise-identical: {outcome['all_identical']}")
