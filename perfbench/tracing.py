"""Span recording around public functions, and per-layer analysis.

The traced server (``perfbench/traced_server.py``) calls :func:`install`
before it hands control to ``repro.cli.main``.  :func:`install` replaces
public functions with timing wrappers *where their callers look them up*
(a module attribute for a function imported by name, the class attribute
for a method).  Spans stay in memory and are written as JSON lines when
the server has drained after SIGTERM.  Nothing under ``src/`` changes.

A span is ``[id, parent, name, start_ns, end_ns, thread, batch, count]``
on the ``time.monotonic_ns`` clock, which the load generator shares.
``parent`` follows the calling thread's open spans; scatter tasks carry
their parent into pool threads.  ``batch`` ties spans to the
``run_batch`` that caused them; ``count`` is the span's unit of work
(sources simulated, rows re-estimated, edges applied, ...).
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = List[Any]


class Recorder:
    """In-memory span store; thread-safe."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        #: id(query object) -> batch id, filled by run_batch, read by submit.
        self.batch_of_query: Dict[int, int] = {}

    def stack(self) -> List[Tuple[int, Optional[int]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def add(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def span(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             count: Callable[[tuple, Any], int], batch: Optional[int] = None,
             span_id: Optional[int] = None) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        stack = self.stack()
        parent, parent_batch = stack[-1] if stack else (None, None)
        span_id = span_id or self.new_id()
        batch = batch if batch is not None else parent_batch
        stack.append((span_id, batch))
        start = time.monotonic_ns()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.monotonic_ns()
            stack.pop()
            self.add([span_id, parent, name, start, end,
                      threading.get_ident(), batch, count(args, result)])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class _Carry:
    """A scatter task that runs under its caller's span in a pool thread."""

    def __init__(self, recorder: Recorder, parent: Tuple[int, Optional[int]],
                 task: Callable) -> None:
        self.recorder, self.parent, self.task = recorder, parent, task

    def __call__(self) -> Any:
        stack = self.recorder.stack()
        stack.append(self.parent)
        try:
            return self.task()
        finally:
            stack.pop()


def _one(_args: tuple, _result: Any) -> int:
    return 1


def _sync(recorder: Recorder, name: str, fn: Callable,
          count: Callable[[tuple, Any], int] = _one) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return recorder.span(name, fn, args, kwargs, count)
    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap the public functions each per-layer metric reads."""
    from repro.core import incremental, linear_system, montecarlo, queries, reachability
    from repro.service import coalesce, http, service, sharded, updates

    def run_batch_wrapper(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self: Any, batch_queries: Sequence[Any], *args: Any,
                    **kwargs: Any) -> Any:
            stack = recorder.stack()
            if stack and stack[-1][1] is not None:
                # ShardedQueryService.run_batch delegates to the base class:
                # one batch, one span.
                return fn(self, batch_queries, *args, **kwargs)
            batch = recorder.new_id()
            for query in batch_queries:
                recorder.batch_of_query[id(query)] = batch
            return recorder.span("service.run_batch", fn,
                                 (self, batch_queries) + args, kwargs,
                                 lambda a, _r: len(a[1]), batch=batch,
                                 span_id=batch)
        return wrapper

    service.QueryService.run_batch = run_batch_wrapper(service.QueryService.run_batch)
    sharded.ShardedQueryService.run_batch = run_batch_wrapper(
        sharded.ShardedQueryService.run_batch)

    submit = coalesce.BatchCoalescer.submit

    @functools.wraps(submit)
    async def submit_wrapper(self: Any, submitted: Sequence[Any]) -> Any:
        submitted = list(submitted)
        start = time.monotonic_ns()
        try:
            return await submit(self, submitted)
        finally:
            end = time.monotonic_ns()
            batch = recorder.batch_of_query.pop(id(submitted[0]), None) \
                if submitted else None
            recorder.add([recorder.new_id(), None, "coalesce.submit", start,
                          end, threading.get_ident(), batch, len(submitted)])

    coalesce.BatchCoalescer.submit = submit_wrapper

    http.encode_answer = _sync(recorder, "http.encode_answer", http.encode_answer)
    montecarlo.estimate_walk_distributions_batch = _sync(
        recorder, "montecarlo.simulate",
        montecarlo.estimate_walk_distributions_batch,
        lambda args, _r: len(args[1]))
    queries.QueryEngine.propagate_source = _sync(
        recorder, "queries.propagate_source", queries.QueryEngine.propagate_source)
    queries.QueryEngine.combine_pair = _sync(
        recorder, "queries.combine_pair", queries.QueryEngine.combine_pair)
    service.rank_top_k = _sync(recorder, "queries.rank_top_k", service.rank_top_k)
    sharded.merge_top_k = _sync(recorder, "sharded.merge_top_k", sharded.merge_top_k)

    run_shard_tasks = sharded.run_shard_tasks

    @functools.wraps(run_shard_tasks)
    def scatter_wrapper(backend: Any, tasks: Dict[int, Callable]) -> Any:
        def carried(*_args: Any) -> Any:
            parent = recorder.stack()[-1]
            return run_shard_tasks(backend, {
                shard: _Carry(recorder, parent, task)
                for shard, task in tasks.items()})
        return recorder.span("sharded.run_shard_tasks", carried, (), {},
                             lambda _a, _r: len(tasks))

    sharded.run_shard_tasks = scatter_wrapper

    updates.GraphMutator.apply = _sync(
        recorder, "updates.apply", updates.GraphMutator.apply,
        lambda _a, result: result.edges_added if result is not None else 0)
    incremental.IncrementalCloudWalker.add_edges = _sync(
        recorder, "incremental.add_edges",
        incremental.IncrementalCloudWalker.add_edges,
        lambda _a, result: len(result["affected"]) if result else 0)
    reachability.ReachabilityIndex.advance = _sync(
        recorder, "reachability.advance", reachability.ReachabilityIndex.advance)
    reachability.ReachabilityIndex.query = _sync(
        recorder, "reachability.query", reachability.ReachabilityIndex.query)
    linear_system.build_rows_streamed = _sync(
        recorder, "linear_system.build_rows_streamed",
        linear_system.build_rows_streamed, lambda args, _r: len(args[1]))
    incremental.jacobi_solve = _sync(recorder, "jacobi.solve",
                                     incremental.jacobi_solve)


# ---------------------------------------------------------------------- #
# Analysis
# ---------------------------------------------------------------------- #
def load(path: str) -> List[Span]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _union_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    total, cursor = 0, None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def self_ns(span: Span, children: Sequence[Span]) -> int:
    """Span duration minus the part its children cover."""
    start, end = span[3], span[4]
    covered = _union_ns((max(c[3], start), min(c[4], end)) for c in children
                        if c[4] > start and c[3] < end)
    return (end - start) - covered


def _children(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    """Direct children by parent id.  A ``coalesce.submit`` span runs on the
    event loop while its batch runs on the query strand, so the batch that
    answered it counts as its child: its self time is the coalescer wait."""
    children: Dict[int, List[Span]] = defaultdict(list)
    batches = {span[0]: span for span in spans if span[2] == "service.run_batch"}
    for span in spans:
        if span[1] is not None:
            children[span[1]].append(span)
        elif span[2] == "coalesce.submit" and span[6] in batches:
            children[span[0]].append(batches[span[6]])
    return children


def _inside(spans: Sequence[Span], window: Tuple[float, float]) -> List[Span]:
    """Spans that started inside ``window`` (monotonic seconds)."""
    lo, hi = int(window[0] * 1e9), int(window[1] * 1e9)
    return [span for span in spans if lo <= span[3] <= hi]


def _div(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: Sequence[Span], window: Tuple[float, float],
                  client: Dict[str, float], stats: Dict[str, float]
                  ) -> Dict[str, float]:
    """Per-layer metrics over the spans that started in ``window``.

    ``client`` carries the load generator's figures, ``stats`` the
    ``GET /stats`` deltas over the same window.
    """
    inside = _inside(spans, window)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    by_batch: Dict[int, List[Span]] = defaultdict(list)
    children = _children(inside)
    for span in inside:
        by_name[span[2]].append(span)
        if span[6] is not None:
            by_batch[span[6]].append(span)

    def total_ms(name: str) -> float:
        return sum(s[4] - s[3] for s in by_name[name]) / 1e6

    def count(name: str) -> int:
        return sum(s[7] for s in by_name[name])

    def mean_ms(name: str) -> float:
        return _div(total_ms(name), len(by_name[name]))

    batches = by_name["service.run_batch"]
    batch_ids = {s[0] for s in batches}
    batch_ms = total_ms("service.run_batch")
    batch_self_ms = sum(self_ns(s, children[s[0]]) for s in batches) / 1e6
    simulate_union_ms = sum(
        _union_ns((s[3], s[4]) for s in by_batch[b] if s[2] == "montecarlo.simulate")
        for b in batch_ids) / 1e6
    waits = [self_ns(s, children[s[0]]) for s in by_name["coalesce.submit"]
             if children[s[0]]]
    answered = client["queries_answered"]
    drains = by_name["updates.apply"]
    adds = by_name["incremental.add_edges"]
    route_ms = total_ms("reachability.advance") + total_ms("reachability.query")
    return {
        "http.overhead_ms_per_request": _div(
            client["query_service_ms_total"] - total_ms("coalesce.submit"),
            answered),
        "http.encode_ms_per_query": _div(total_ms("http.encode_answer"), answered),
        "http.response_kb_per_query": client["response_kb_per_query"],
        "coalesce.wait_ms_per_submission": _div(sum(waits) / 1e6, len(waits)),
        "coalesce.submissions_per_batch": _div(stats["coalescer.submissions"],
                                               stats["coalescer.batches"]),
        "batching.dedup_ratio": _div(
            stats["sources_deduplicated"],
            stats["sources_deduplicated"] + stats["cache_hits"]
            + stats["cache_misses"]),
        "service.run_batch_ms": _div(batch_ms, len(batches)),
        "service.self_ms_per_batch": _div(batch_self_ms, len(batches)),
        "cache.hit_ratio": _div(stats["cache_hits"],
                                stats["cache_hits"] + stats["cache_misses"]),
        "cache.evictions": stats["cache_evictions"],
        "cache.invalidations": stats["cache_invalidations"],
        "montecarlo.simulate_ms_per_source": _div(
            total_ms("montecarlo.simulate"), count("montecarlo.simulate")),
        "montecarlo.sources_per_query": _div(count("montecarlo.simulate"), answered),
        "montecarlo.share_of_run_batch": _div(simulate_union_ms, batch_ms),
        "queries.propagate_ms_per_call": mean_ms("queries.propagate_source"),
        "queries.combine_us_per_call": mean_ms("queries.combine_pair") * 1e3,
        "queries.rank_us_per_call": mean_ms("queries.rank_top_k") * 1e3,
        "sharded.scatter_ms_per_batch": _div(total_ms("sharded.run_shard_tasks"),
                                             len(batches)),
        "sharded.merge_us_per_call": mean_ms("sharded.merge_top_k") * 1e3,
        "sharded.payload_bytes_per_batch": _div(stats["scatter_payload_bytes"],
                                                len(batches)),
        "sharded.shard_busy_max_over_mean": stats["shard_busy_max_over_mean"],
        "updates.drain_ms": mean_ms("updates.apply"),
        "updates.edges_per_drain": _div(count("updates.apply"), len(drains)),
        "updates.requests_per_drain": _div(stats["http.updates_accepted"],
                                           stats["http.update_drains"]),
        "incremental.add_edges_ms": mean_ms("incremental.add_edges"),
        "incremental.self_ms": _div(
            sum(self_ns(s, children[s[0]]) for s in adds) / 1e6, len(adds)),
        "incremental.affected_rows_per_drain": _div(count("incremental.add_edges"),
                                                    len(adds)),
        "reachability.route_ms": _div(route_ms, len(adds)),
        "linear_system.reestimate_ms_per_row": _div(
            total_ms("linear_system.build_rows_streamed"),
            count("linear_system.build_rows_streamed")),
        "jacobi.solve_ms": mean_ms("jacobi.solve"),
    }


def layer_table(spans: Sequence[Span], window: Tuple[float, float]) -> List[str]:
    """Human-readable per-span-name table: calls, total, self, share."""
    inside = _inside(spans, window)
    children = _children(inside)
    rows: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0, []])
    for span in inside:
        row = rows[span[2]]
        row[0] += 1
        row[1] += (span[4] - span[3]) / 1e6
        row[2] += self_ns(span, children[span[0]]) / 1e6
        row[3].append((span[4] - span[3]) / 1e6)
    wall_ms = (window[1] - window[0]) * 1e3
    lines = [f"{'span':<34} {'calls':>7} {'total ms':>10} {'self ms':>10} "
             f"{'self/wall':>9} {'p50 ms':>8}",
             "  (self/wall: self time over the timed window's wall time)"]
    for name in sorted(rows, key=lambda key: -rows[key][2]):
        calls, total, own, durations = rows[name]
        lines.append(f"{name:<34} {calls:>7d} {total:>10.1f} {own:>10.1f} "
                     f"{own / wall_ms:>9.3f} {statistics.median(durations):>8.3f}")
    return lines
