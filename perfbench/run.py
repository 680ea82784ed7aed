"""The repository benchmark: open-loop HTTP serving of SimRank queries.

Run from the repository root::

    python3 perfbench/run.py --workload read_cold --seed 1 --seconds 30 --trace 0

Builds the inputs from ``--seed`` (graph, index, request schedule), drives
``python -m repro serve-http`` over real HTTP from one asyncio process,
checks served answers against an in-process reference, and prints the
metrics; the last line of standard output is one JSON object.  With
``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``.
With ``--trace 1`` it measures an untraced pass and then a traced pass on
the same inputs, prints the per-layer table and the tracing overhead, and
reports the per-layer metrics.  ``perfbench/RATIONALE.md`` says why each
workload and metric exists.  Exit status 0 means every check passed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import loadgen  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
from server import Server, ServerError, host_cpu_ticks  # noqa: E402
from workloads import (  # noqa: E402
    GRAPH_NODES, GRAPH_OUT_DEGREE, SLO_MS, WORKLOADS, Schedule, Workload,
    _rng, build_schedule, schedule_digest,
)

#: Set-ups (index build, then server start) per untraced run, and index
#: builds after its window; ``setup_s`` and ``index_build_cpu_s`` use medians.
#: The late builds run about 40 s after the first ones, so the median
#: samples two spells of a host whose speed drifts.
SETUP_REPEATS = 3
LATE_BUILDS = 3
#: Closed-loop capacity time per window, split into CAPACITY_BURSTS equal
#: bursts: one at the start, one after each slice of the paced phase.
#: ``capacity_qps`` is the median burst, so one slow spell moves it less.
CAPACITY_SECONDS = 10.0
CAPACITY_BURSTS = 5
#: Read answers checked per pass (a seeded sample of the window's answers).
VERIFY_SAMPLE = 300
#: Warm-up requests of the workload's own stream, after the cache fill.
WARMUP_REQUESTS = 200
#: Cache-fill requests between two looks at ``GET /stats``.
FILL_CHUNK = 100
#: Seconds a pass may run beyond its window (warm-up, probes) before it fails.
DRIVE_SLACK_S = 90.0
#: Generator lateness beyond which a run is flagged as generator-bound.
GEN_LAG_FLAG_MS = 10.0


def _units(root: str) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Metric names and units, end-to-end and per-layer, from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(share * len(ordered))) - 1))
    return ordered[rank]


@dataclass
class Pass:
    """One server lifetime: warm-up, timed window, probes, shutdown."""

    warmup_s: float = 0.0
    warmup_requests: int = 0
    warmup_hit_ratio: float = 0.0
    setup_versions: List[int] = field(default_factory=list)
    saturated: List[loadgen.Record] = field(default_factory=list)
    burst_qps: List[float] = field(default_factory=list)
    #: Server CPU milliseconds per query answered, one per capacity burst.
    burst_cpu_ms: List[float] = field(default_factory=list)
    paced: Optional[loadgen.PacedResult] = None
    window: Tuple[float, float] = (0.0, 0.0)
    stats: Dict[str, float] = field(default_factory=dict)
    cpu_s: float = 0.0
    steal_share: float = 0.0
    peak_rss_mb: float = 0.0
    probes: List[Tuple[str, Any, int]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def records(self) -> List[loadgen.Record]:
        return self.saturated + self.paced.records

    @property
    def capacity_qps(self) -> float:
        return statistics.median(self.burst_qps)

    def paced_group(self, group: str) -> List[loadgen.Record]:
        return [r for r in self.paced.records if r.group == group]


# ---------------------------------------------------------------------- #
# Driving one server
# ---------------------------------------------------------------------- #
def _flat_stats(stats: Dict[str, Any]) -> Dict[str, float]:
    """The ``GET /stats`` counters the per-layer metrics read, flattened."""
    flat = {key: float(stats.get(key) or 0) for key in (
        "sources_deduplicated", "cache_hits", "cache_misses", "cache_evictions",
        "cache_invalidations", "scatter_payload_bytes")}
    for group in ("coalescer", "http"):
        for key, value in stats.get(group, {}).items():
            flat[f"{group}.{key}"] = float(value)
    for shard in stats.get("shards", []):
        flat[f"shard{shard['shard']}.busy_s"] = (float(shard["scatter_seconds"])
                                                 + float(shard["rank_seconds"]))
    return flat


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    delta = {key: value - before.get(key, 0.0) for key, value in after.items()}
    busy = [value for key, value in delta.items() if key.endswith(".busy_s")]
    mean = statistics.fmean(busy) if busy else 0.0
    delta["shard_busy_max_over_mean"] = max(busy) / mean if mean else 0.0
    return delta


async def _warmup(schedule: Schedule, conns: List[loadgen.Connection],
                  result: Pass) -> None:
    """Bring the server to steady state before timing (counted in setup_s).

    ``update_mix`` first applies one update: a server cold-started from an
    index file pays a one-time full-system attach on its first update,
    which belongs to set-up, not to the window.  Then pair queries,
    with endpoints drawn like the workload's, fill the walk cache until
    ``GET /stats`` reports it full, so the window starts at the steady
    hit ratio; last, the workload's own stream runs every query path.
    All warm-up traffic is closed-loop, one query per request.
    """
    for body in schedule.setup_updates:
        status, reply = await loadgen.post_json(conns[-1], "/update", body)
        if status != 200:
            raise ServerError(f"set-up update answered {status}: {reply}")
        result.setup_versions.append(int(reply["index_version"]))

    async def closed(bodies: List[bytes]) -> None:
        records, _ = await loadgen.run_closed(conns, iter(bodies))
        result.warmup_requests += len(records)
        bad = [r for r in records if not r.ok]
        if bad:
            raise ServerError(f"warm-up request failed: {bad[0].status} {bad[0].error}")

    for start in range(0, len(schedule.fill), FILL_CHUNK):
        await closed(schedule.fill[start:start + FILL_CHUNK])
        stats = await loadgen.get_json(conns[0], "/stats")
        if stats["cache_size"] >= stats["cache_capacity"]:
            break
    else:
        raise ServerError("the cache-fill stream ended before the cache was full")
    await closed(schedule.warmup)
    after = await loadgen.get_json(conns[0], "/stats")
    hits = after["cache_hits"] - stats["cache_hits"]
    misses = after["cache_misses"] - stats["cache_misses"]
    result.warmup_hit_ratio = hits / max(hits + misses, 1)


async def _drive(workload: Workload, schedule: Schedule, server: Server,
                 result: Pass) -> None:
    conns = [loadgen.Connection("127.0.0.1", server.port) for _ in range(2)]
    try:
        began = time.perf_counter()
        await _warmup(schedule, conns, result)
        result.warmup_s = time.perf_counter() - began

        before = _flat_stats(await loadgen.get_json(conns[0], "/stats"))
        cpu_before = server.cpu_seconds()
        steal_before, ticks_before = host_cpu_ticks()
        window_start = time.monotonic()
        saturated = iter(schedule.saturated)
        result.paced = loadgen.PacedResult([], [])
        slices = _paced_slices(schedule.paced, schedule.paced_seconds,
                               CAPACITY_BURSTS - 1)
        for burst in range(CAPACITY_BURSTS):
            burst_cpu = server.cpu_seconds()
            records, elapsed = await loadgen.run_closed(
                conns, saturated, CAPACITY_SECONDS / CAPACITY_BURSTS)
            answered = sum(1 for r in records if r.ok)
            result.burst_cpu_ms.append(
                (server.cpu_seconds() - burst_cpu) * 1e3 / max(answered, 1))
            result.saturated += records
            result.burst_qps.append(answered / elapsed)
            if burst < len(slices):
                # Reads share both connections; update_mix keeps one for updates.
                paced = await loadgen.run_paced(
                    conns, slices[burst], shared=workload.update_interval is None)
                result.paced.records += paced.records
                result.paced.gen_lag_ms += paced.gen_lag_ms
        result.window = (window_start, time.monotonic())
        result.cpu_s = server.cpu_seconds() - cpu_before
        steal, ticks = host_cpu_ticks()
        result.steal_share = (steal - steal_before) / max(ticks - ticks_before, 1)
        result.peak_rss_mb = server.peak_rss_mb()
        result.stats = _delta(
            _flat_stats(await loadgen.get_json(conns[0], "/stats")), before)

        for line in schedule.probes:
            status, reply = await loadgen.post_json(
                conns[0], "/query", json.dumps({"queries": [line]}).encode())
            if status != 200:
                result.problems.append(f"probe {line!r} answered {status}")
                continue
            result.probes.append((line, reply["answers"][0],
                                  int(reply["index_version"])))
    finally:
        for conn in conns:
            await conn.close()


def _paced_slices(events: List[Tuple[float, str, bytes]], seconds: float,
                  count: int) -> List[List[Tuple[float, str, bytes]]]:
    """The paced schedule of ``seconds`` cut into ``count`` equal spans.

    Each slice's offsets restart at 0, so the spacing inside a slice is
    the schedule's; a capacity burst runs between slices.
    """
    span = seconds / count
    slices: List[List[Tuple[float, str, bytes]]] = [[] for _ in range(count)]
    for offset, group, body in events:
        part = min(int(offset // span), count - 1)
        slices[part].append((offset - part * span, group, body))
    return slices


def _measure(workload: Workload, schedule: Schedule, server: Server,
             seconds: float) -> Pass:
    """Warm up, time the window, then require a graceful shutdown.

    A server that hangs fails the run within ``DRIVE_SLACK_S`` of the
    window instead of stalling it request timeout by request timeout.
    """
    result = Pass()
    try:
        asyncio.run(asyncio.wait_for(_drive(workload, schedule, server, result),
                                     seconds + DRIVE_SLACK_S))
    finally:
        graceful, message = server.stop()
    if not graceful:
        result.problems.append(f"server shutdown: {message}")
    return result


# ---------------------------------------------------------------------- #
# Checks and metrics
# ---------------------------------------------------------------------- #
def _decoded(record: loadgen.Record) -> Tuple[str, Any, int]:
    """(query line, decoded answer, index_version) of an answered query."""
    reply = json.loads(record.response)
    return (json.loads(record.body)["queries"][0], reply["answers"][0],
            int(reply["index_version"]))


def _check(workload: Workload, result: Pass, seed: int, graph: Any,
           index_path: str, schedule: Schedule,
           reference: Dict[str, Any]) -> List[str]:
    """Every correctness check of one pass; returns the problems found."""
    import numpy as np
    from repro import QueryService, SimRankParams
    from repro.graph.digraph import DiGraph

    problems = list(result.problems)
    failed = [r for r in result.records if not r.ok]
    if failed:
        problems.append(f"{len(failed)} requests failed in the window, first: "
                        f"{failed[0].group} status {failed[0].status} "
                        f"{failed[0].error or failed[0].response[:200]!r}")
    ordered = sorted(result.records, key=lambda r: r.sent)
    versions = [[int(json.loads(r.response)["index_version"])
                 for r in ordered if r.conn == conn and r.ok] for conn in (0, 1)]
    if not verify.versions_monotonic(versions):
        problems.append("index_version decreased on a connection")

    if workload.update_interval is None:
        answered = [_decoded(r) for r in result.records if r.ok]
        if {version for _l, _a, version in answered} != {1}:
            problems.append("a read workload answered at a version other than 1")
        pick = _rng(seed, workload.name, "verify").permutation(len(answered))
        checked = [answered[i][:2] for i in sorted(pick[:VERIFY_SAMPLE])]
        if "read" not in reference:
            reference["read"] = QueryService.from_index_file(graph, index_path)
        service = reference["read"]
    else:
        updates = sorted(result.paced_group("u"), key=lambda r: r.sent)
        applied = result.setup_versions + [
            int(json.loads(r.response)["index_version"]) for r in updates if r.ok]
        if applied != list(range(2, 2 + len(applied))):
            problems.append(f"update versions {applied} are not one step per update")
        final = applied[-1] if applied else 1
        if any(version != final for _l, _a, version in result.probes):
            problems.append("a probe answered at a version other than the final one")
        bodies = schedule.setup_updates + [r.body for r in updates if r.ok]
        accepted = [edge for body in bodies for edge in schedule.edges[body]]
        key = json.dumps(accepted)
        if reference.get("update_key") != key:
            final_graph = DiGraph(graph.n_nodes, np.vstack(
                [graph.edge_array(), np.asarray(accepted, dtype=np.int64)]),
                name=graph.name)
            reference["update"] = QueryService.build(
                final_graph, SimRankParams.paper_defaults())
            reference["update_key"] = key
        checked = [probe[:2] for probe in result.probes]
        service = reference["update"]
    expected = verify.reference_answers(service, [line for line, _a in checked])
    wrong = verify.mismatches(checked, expected)
    if wrong:
        problems.append(f"{len(wrong)}/{len(checked)} answers differ from the "
                        f"reference, first: {wrong[0]!r}")
    if not verify.self_test(checked, expected):
        problems.append("self-test: a corrupted answer went undetected")
    return problems


def _end_to_end(result: Pass, setup_s: float, index_build_cpu_s: float
                ) -> Dict[str, float]:
    """The gated metrics, plus the wall-clock ones printed beside them."""
    paced = result.paced_group("q")
    answered = sum(1 for r in result.records if r.group == "q" and r.ok)
    return {
        "setup_s": setup_s,
        "index_build_cpu_s": index_build_cpu_s,
        "query_p50_ms": percentile([r.latency_ms for r in paced if r.ok], 0.50),
        "slo_ok_ratio": sum(1 for r in paced if r.ok and r.latency_ms <= SLO_MS)
        / len(paced),
        "capacity_qps": result.capacity_qps,
        "peak_rss_mb": result.peak_rss_mb,
        "cpu_ms_per_query": statistics.median(result.burst_cpu_ms),
        "window_cpu_ms_per_query": result.cpu_s * 1e3 / max(answered, 1),
    }


def _update_p50_ms(result: Pass) -> float:
    """Waited-update latency from due time (update_mix; 0 elsewhere)."""
    latencies = [r.latency_ms for r in result.paced_group("u")]
    return statistics.median(latencies) if latencies else 0.0


def _layers(result: Pass, spans_path: str, index: Any,
            untraced: Dict[str, float], traced: Dict[str, float],
            untraced_pass: Pass) -> Dict[str, float]:
    """Per-layer metrics of the traced pass ``result``."""
    queries = [r for r in result.records if r.group == "q" and r.ok]
    client = {
        "queries_answered": float(len(queries)),
        "query_service_ms_total": sum((r.done - r.sent) * 1e3 for r in queries),
        "response_kb_per_query": sum(len(r.response) for r in queries)
        / 1024.0 / max(len(queries), 1),
    }
    spans = tracing.load(spans_path)
    layers = tracing.layer_metrics(spans, result.window, client, result.stats)
    window_s = result.window[1] - result.window[0]
    layers.update({
        "updates.request_p50_ms": _update_p50_ms(untraced_pass),
        "index.monte_carlo_s": index.build_info.monte_carlo_seconds,
        "index.solve_s": index.build_info.solve_seconds,
        "client.gen_lag_p99_ms": percentile(result.paced.gen_lag_ms, 0.99),
        "server.cpu_busy_share": result.cpu_s / (window_s * (os.cpu_count() or 1)),
        "host.steal_share": result.steal_share,
        "trace.query_p50_ratio": traced["query_p50_ms"] / untraced["query_p50_ms"],
        "trace.capacity_ratio": traced["capacity_qps"] / untraced["capacity_qps"],
    })
    return layers


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= CAPACITY_SECONDS + 1:
        parser.error(f"--seconds must exceed {CAPACITY_SECONDS + 1:g}")

    # A terminated benchmark still unwinds, so no server outlives it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "cli.py")):
        print(f"error: {src}/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _run(args, WORKLOADS[args.workload], src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # kept: it holds spans of a traced run


def _run(args: argparse.Namespace, workload: Workload, src: str, work: str) -> int:
    from repro import CloudWalker, SimRankParams
    from repro.graph import generators, io

    units, layer_units = _units(os.path.dirname(src))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    graph_path = os.path.join(work, "graph.npz")
    index_path = os.path.join(work, "index.npz")
    # Spans outlive the run's working directory: the traced run's record.
    spans_path = os.path.join(os.path.dirname(work),
                              f"spans-{workload.name}-seed{args.seed}.jsonl")
    log_path = os.path.join(work, "server.log")
    cli = ["serve-http", "--graph", graph_path, "--index", index_path,
           "--port", "0", *workload.server_flags]

    graph = generators.copying_model_graph(GRAPH_NODES, out_degree=GRAPH_OUT_DEGREE,
                                           seed=args.seed)
    io.save_binary(graph, graph_path)
    schedule = build_schedule(workload, args.seed, graph,
                              args.seconds - CAPACITY_SECONDS,
                              saturated_count=int(CAPACITY_SECONDS * 400),
                              warmup_count=WARMUP_REQUESTS)

    def build_index() -> Tuple[float, float, Any]:
        """(wall seconds, CPU seconds of this process, index) of one build."""
        began, cpu_began = time.perf_counter(), time.process_time()
        index = CloudWalker(graph, SimRankParams.paper_defaults()).build_index()
        index.save(index_path)
        return (time.perf_counter() - began, time.process_time() - cpu_began,
                index)

    problems: List[str] = []
    builds: List[Tuple[float, float]] = []
    starts: List[float] = []
    server: Optional[Server] = None
    for _ in range(1 if args.trace else SETUP_REPEATS):
        if server is not None:
            graceful, message = server.stop()
            if not graceful:
                problems.append(f"set-up server shutdown: {message}")
        wall_s, cpu_s, index = build_index()
        builds.append((wall_s, cpu_s))
        server = Server(["-m", "repro", *cli], env, log_path)
        starts.append(server.start())

    reference: Dict[str, Any] = {}
    untraced = _measure(workload, schedule, server, args.seconds)
    problems += _check(workload, untraced, args.seed, graph, index_path,
                       schedule, reference)
    if not args.trace:
        builds += [build_index()[:2] for _ in range(LATE_BUILDS)]
    build_s = statistics.median(wall for wall, _cpu in builds)
    setup_s = build_s + statistics.median(starts) + untraced.warmup_s
    metrics = _end_to_end(untraced, setup_s,
                          statistics.median(cpu for _wall, cpu in builds))

    records = untraced.records
    lag_p99 = percentile(untraced.paced.gen_lag_ms, 0.99)
    paced_updates = untraced.paced_group("u")
    lines = [
        f"workload {workload.name} seed {args.seed}: graph {graph.n_nodes} nodes / "
        f"{graph.n_edges} edges; schedule sha256 {schedule_digest(schedule)}",
        f"set-up: median of {len(builds)} index builds ({len(starts)} before, "
        f"{len(builds) - len(starts)} after the window) "
        f"{build_s:.3f}s + median of {len(starts)} server starts "
        f"{statistics.median(starts):.3f}s + warm-up {untraced.warmup_s:.3f}s "
        f"({untraced.warmup_requests} requests; cache full, then hit ratio "
        f"{untraced.warmup_hit_ratio:.3f} on the last {WARMUP_REQUESTS})",
        f"window {untraced.window[1] - untraced.window[0]:.1f}s: "
        f"{len(untraced.saturated)} closed-loop queries in {CAPACITY_BURSTS} "
        f"bursts of {CAPACITY_SECONDS / CAPACITY_BURSTS:g}s ("
        + ", ".join(f"{qps:.1f}" for qps in untraced.burst_qps)
        + f" q/s) around {len(untraced.paced_group('q'))} queries paced at "
        f"{workload.query_rate:g}/s and {len(paced_updates)} updates; failed "
        f"{sum(1 for r in records if not r.ok)}/{len(records)}",
        f"client.gen_lag_p99_ms {lag_p99:.3f}"
        + (" ** the generator ran late **" if lag_p99 > GEN_LAG_FLAG_MS else "")
        + f"; host CPU steal over the window {untraced.steal_share:.1%}",
    ]
    paced = [r.latency_ms for r in untraced.paced_group("q")]
    lines.append(f"reported, not gated: query_p50_ms {metrics['query_p50_ms']:.3f}, "
                 f"query_p95_ms {percentile(paced, 0.95):.3f}, "
                 f"query_p99_ms {percentile(paced, 0.99):.3f} "
                 f"({len(paced)} paced queries); capacity_qps "
                 f"{metrics['capacity_qps']:.3f}; window_cpu_ms_per_query "
                 f"{metrics['window_cpu_ms_per_query']:.3f}; index build wall "
                 f"{build_s:.4f} s")
    if paced_updates:
        lines.append(f"update_p50_ms {_update_p50_ms(untraced):.1f} (latencies ms: "
                     + " ".join(f"{r.latency_ms:.0f}" for r in paced_updates) + ")")
    report = metrics

    if args.trace:
        server = Server([os.path.join(HERE, "traced_server.py"), spans_path, *cli],
                        env, log_path)
        server.start()
        traced = _measure(workload, schedule, server, args.seconds)
        records += traced.records
        problems += _check(workload, traced, args.seed, graph, index_path,
                           schedule, reference)
        traced_metrics = _end_to_end(traced, setup_s, metrics["index_build_cpu_s"])
        report = _layers(traced, spans_path, index, metrics, traced_metrics, untraced)
        units = layer_units
        window = traced.window
        lines.append(f"spans written to {os.path.relpath(spans_path)}; per-layer "
                     f"spans over the traced window ({window[1] - window[0]:.1f}s):")
        lines += ["  " + row for row in tracing.layer_table(
            tracing.load(spans_path), window)]
        lines.append("tracing overhead: traced minus untraced pass, same inputs")
        for name in ("query_p50_ms", "slo_ok_ratio", "capacity_qps",
                     "cpu_ms_per_query"):
            lines.append(f"  {name:<18} untraced {metrics[name]:>10.3f}  traced "
                         f"{traced_metrics[name]:>10.3f}  diff "
                         f"{traced_metrics[name] - metrics[name]:>+9.3f}")
    lines.append("per-layer metrics:" if args.trace else "end-to-end metrics:")
    report = {name: report[name] for name in units}
    lines += [f"  {name:<38} {value:>12.4f} {unit}"
              for (name, value), unit in zip(report.items(), units.values())]

    correct = not problems
    attempted, failed = len(records), sum(1 for r in records if not r.ok)
    lines.append(f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted} "
                 "requests: non-2xx, timeout or reset)")
    lines += [f"FAILED CHECK: {problem}" for problem in problems]
    lines.append("all checks passed" if correct else "checks FAILED")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in report.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
