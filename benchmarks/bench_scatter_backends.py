"""Scatter backends — thread vs process pools across worker counts.

With the served graph pool-resident (scatter tasks ship a handle plus
source ids), how do the ``threads`` and ``processes`` serve backends
compare as workers scale?

For every ``(backend, workers)`` configuration in the sweep the same
pair-heavy batch is answered and two quantities recorded:

``payload_bytes_per_task``
    Mean pickled bytes per walk-simulation scatter task, from the process
    backend's payload accounting.  Thread tasks cross no process boundary,
    so their payload is identically zero; resident process tasks ship only
    a handle plus their source ids.
``critical_path_seconds``
    The batch's wall-clock on a ``W``-worker deployment: longest-
    processing-time-first makespan of the sequential baseline's per-shard
    scatter task seconds (``last_scatter_seconds``) plus the batch's
    serial share, which includes top-k ranking (it runs in the parent,
    not as a task) — the simulated-strong-scaling accounting of
    ``bench_parallel_serve.py``.  The *sequential* run's timings feed the
    makespan for every configuration because this host is pinned to one
    core: per-task wall-clocks measured under a concurrent pool are
    inflated by contention, not by work.  Measured end-to-end seconds are
    reported per configuration alongside.

A ``workers=0`` row records the sequential (serial-backend) scatter as the
baseline.

Gates:

* every configuration's answers must be bitwise-identical to the
  sequential sharded scatter and to the single-shard ``QueryService``;
* for each backend, the critical-path speedup at 4 workers must be >= 2x
  over the sequential scatter.

Runs standalone too::

    PYTHONPATH=src python benchmarks/bench_scatter_backends.py
"""

import time

import numpy as np

GRAPH_NODES = 1_500
OUT_DEGREE = 6
WALK_STEPS = 6
INDEX_WALKERS = 40
QUERY_WALKERS = 600
NUM_SHARDS = 8
WORKER_COUNTS = (1, 2, 4, 8)
BACKENDS = ("threads", "processes")
N_SOURCES = 96
N_TOPK = 6
TOP_K = 10
MIN_SPEEDUP_AT_4 = 2.0
SEED = 53


def _params():
    from repro.config import SimRankParams

    return SimRankParams(
        c=0.6, walk_steps=WALK_STEPS, jacobi_iterations=3,
        index_walkers=INDEX_WALKERS, query_walkers=QUERY_WALKERS, seed=SEED,
    )


def _queries(n_nodes):
    """The scatter-dominated batch shape of ``bench_parallel_serve``."""
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


def _service(graph, index, backend, workers):
    from repro.config import ServiceParams, ShardingParams
    from repro.service import ShardedQueryService

    return ShardedQueryService(
        graph, index, _params(),
        ServiceParams(cache_capacity=0, serve_backend=backend,
                      serve_workers=workers),
        sharding=ShardingParams(num_shards=NUM_SHARDS),
    )


def _measure_config(graph, index, queries, backend, workers):
    """One steady-state batch for a configuration.

    Returns ``(answers, measured_seconds, payload_bytes, task_count)``.
    The warm-up batch forks/marks the pool and registers residency; the
    measured batch samples the process backend's per-run payload lists.
    """
    with _service(graph, index, backend, workers) as service:
        service.run_batch(queries)  # warm-up: fork pool, register residency
        serve_backend = service._serve_backend
        sizes = []
        record = getattr(serve_backend, "_record_payload", None)
        if record is not None:
            def recording(run_sizes, _record=record):
                sizes.extend(run_sizes)
                _record(run_sizes)
            serve_backend._record_payload = recording
        start = time.perf_counter()
        answers = service.run_batch(queries)
        measured = time.perf_counter() - start
    return answers, measured, sum(sizes), len(sizes)


def scatter_backends_experiment():
    from repro.config import ServiceParams, ShardingParams
    from repro.core.diagonal import build_diagonal_index
    from repro.graph import generators
    from repro.service import QueryService, ShardedQueryService

    params = _params()
    graph = generators.copying_model_graph(
        GRAPH_NODES, out_degree=OUT_DEGREE, seed=SEED, name="scatter-backends"
    )
    index = build_diagonal_index(graph, params)
    queries = _queries(graph.n_nodes)

    single = QueryService(graph, index, params)
    reference = single.run_batch(queries)

    # Sequential sharded scatter: identity anchor and critical-path baseline.
    with ShardedQueryService(
        graph, index, params,
        ServiceParams(cache_capacity=0),
        sharding=ShardingParams(num_shards=NUM_SHARDS),
    ) as sequential:
        sequential.run_batch(queries)
        start = time.perf_counter()
        sequential_answers = sequential.run_batch(queries)
        sequential_seconds = time.perf_counter() - start
        baseline_tasks = [
            sequential.last_scatter_seconds.get(shard, 0.0)
            for shard in range(NUM_SHARDS)
        ]
    serial_share = max(sequential_seconds - sum(baseline_tasks), 0.0)
    sequential_critical = sum(baseline_tasks) + serial_share
    all_identical = (_answers_equal(reference, sequential_answers))

    rows = [{
        "backend": "serial",
        "workers": 0,  # 0 = the sequential in-process scatter (baseline)
        "critical_path_seconds": round(sequential_critical, 4),
        "measured_seconds": round(sequential_seconds, 4),
        "speedup": 1.0,
        "payload_bytes_per_task": 0,
        "bitwise_identical": all_identical,
    }]
    speedups = {backend: {} for backend in BACKENDS}
    for backend in BACKENDS:
        for workers in WORKER_COUNTS:
            answers, measured, payload, tasks = _measure_config(
                graph, index, queries, backend, workers)
            identical = (_answers_equal(reference, answers)
                         and _answers_equal(sequential_answers, answers))
            all_identical &= identical
            critical = _makespan(baseline_tasks, workers) + serial_share
            speedup = sequential_critical / max(critical, 1e-9)
            speedups[backend][workers] = speedup
            rows.append({
                "backend": backend,
                "workers": workers,
                "critical_path_seconds": round(critical, 4),
                "measured_seconds": round(measured, 4),
                "speedup": round(speedup, 2),
                "payload_bytes_per_task": (round(payload / tasks)
                                           if tasks else 0),
                "bitwise_identical": identical,
            })
    speedup_at_4 = {backend: round(speedups[backend].get(4, 0.0), 2)
                    for backend in BACKENDS}
    return {
        "rows": rows,
        "speedup_at_4": speedup_at_4,
        "min_speedup_at_4": min(speedup_at_4.values()),
        "gate_passed": bool(
            all(value >= MIN_SPEEDUP_AT_4 for value in speedup_at_4.values())
        ),
        "all_identical": all_identical,
        "graph_nodes": graph.n_nodes,
        "graph_edges": graph.n_edges,
        "num_shards": NUM_SHARDS,
        "n_queries": len(queries),
        "query_walkers": QUERY_WALKERS,
    }


def _check_and_render(result) -> str:
    from repro.bench import reporting

    rendered = reporting.format_table(
        result["rows"],
        title=(f"Thread vs process scatter backends for {result['n_queries']} "
               f"queries on a {result['graph_nodes']}-node graph "
               f"({result['num_shards']} shards, resident working set, "
               f"R'={result['query_walkers']}; critical path = W-worker "
               "wall-clock; workers=0 is the sequential scatter)"),
    )
    assert result["all_identical"], (
        "a backend/worker configuration diverged bitwise from the "
        "sequential/single-shard answers"
    )
    for backend, speedup in result["speedup_at_4"].items():
        assert speedup >= MIN_SPEEDUP_AT_4, (
            f"critical-path speedup at 4 {backend} workers is only "
            f"{speedup:.2f}x (needs >= {MIN_SPEEDUP_AT_4}x)"
        )
    return rendered


def test_scatter_backends(benchmark, results_dir):
    from repro.bench import reporting

    result = benchmark.pedantic(scatter_backends_experiment, rounds=1,
                                iterations=1)
    rendered = _check_and_render(result)
    reporting.save_results("scatter_backends", result, rendered, results_dir)
    print("\n" + rendered)


if __name__ == "__main__":
    from repro.bench import reporting

    outcome = scatter_backends_experiment()
    rendered = _check_and_render(outcome)
    reporting.save_results("scatter_backends", outcome, rendered)
    print(rendered)
    print(f"speedup at 4 workers: {outcome['speedup_at_4']}, "
          f"answers bitwise-identical: {outcome['all_identical']}")
