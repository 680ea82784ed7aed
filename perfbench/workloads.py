"""Workload definitions and seeded input generation.

Everything the program under test receives is made here from the workload
seed: the graph file, the index file (built by the benchmark process
through the public ``CloudWalker`` API) and the HTTP request schedule.
The same seed gives byte-identical schedules; :func:`schedule_digest`
hashes them so a run's output records which inputs it measured.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Common set-up: copying-model graph size and out-degree.
GRAPH_NODES = 20_000
GRAPH_OUT_DEGREE = 8

#: Query latency limit behind ``slo_ok_ratio``.
SLO_MS = 100.0

#: Zipf exponent of the hot streams.
ZIPF_EXPONENT = 1.1

#: Probe queries checked after an ``update_mix`` window.
PROBES = 60

#: Cache fill during warm-up: at most this many pair queries, one per
#: request like the timed traffic (about 1,600 Zipf or 1,200 uniform pairs
#: fill the cache).
FILL_PAIRS = 4000

#: Each ``update_mix`` update carries this many edges, with heads drawn
#: from this many hottest query nodes.
EDGES_PER_UPDATE = 3
HOT_HEADS = 50


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one server configuration."""

    name: str
    server_flags: Tuple[str, ...]
    #: Query mix: (kind, share) with kind in pair / topk / source.
    mix: Tuple[Tuple[str, float], ...]
    #: Source/target popularity: "zipf" or "uniform".
    popularity: str
    #: Paced query rate (requests per second) during the open-loop phase.
    query_rate: float
    #: Seconds between waited updates (None: no updates).
    update_interval: Optional[float] = None


WORKLOADS: Dict[str, Workload] = {
    "read_cold": Workload(
        name="read_cold",
        server_flags=("--shards", "2", "--serve-backend", "serial"),
        mix=(("pair", 0.80), ("topk", 0.20)),
        popularity="uniform",
        query_rate=30.0,
    ),
    "update_mix": Workload(
        name="update_mix",
        server_flags=(),
        mix=(("topk", 0.70), ("pair", 0.25), ("source", 0.05)),
        popularity="zipf",
        query_rate=20.0,
        update_interval=6.0,
    ),
}


@dataclass
class Schedule:
    """The timed window's inputs, fully determined by the seed."""

    #: Paced phase: (due offset in seconds, connection group, body bytes).
    #: Group "q" is a query, "u" an update.
    paced: List[Tuple[float, str, bytes]]
    #: Length of the paced phase in seconds.
    paced_seconds: float
    #: Closed-loop capacity phase: query bodies, consumed in order.
    saturated: List[bytes]
    #: Warm-up stream: query bodies replayed before timing.
    warmup: List[bytes]
    #: Cache fill: pair queries whose endpoints are drawn like the
    #: workload's, sent before the warm-up stream.
    fill: List[bytes]
    #: Update bodies applied during set-up (update_mix only).
    setup_updates: List[bytes] = field(default_factory=list)
    #: Queries sent after the window to check the final version (update_mix).
    probes: List[str] = field(default_factory=list)
    #: Edges of every update body, in submission order, by body.
    edges: Dict[bytes, List[Tuple[int, int]]] = field(default_factory=dict)


def _rng(seed: int, workload: str, purpose: str) -> np.random.Generator:
    salt = int.from_bytes(hashlib.sha256(
        f"{workload}/{purpose}".encode()).digest()[:4], "little")
    return np.random.default_rng([seed, salt])


class NodeSampler:
    """Draws query endpoints: Zipf over a seeded node permutation, or uniform."""

    def __init__(self, n_nodes: int, popularity: str,
                 rng: np.random.Generator) -> None:
        self.n_nodes = n_nodes
        self.popularity = popularity
        #: ``ranked[r]`` is the node of popularity rank ``r`` (0 = hottest).
        self.ranked = rng.permutation(n_nodes)
        weights = np.arange(1, n_nodes + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        self._cdf = np.cumsum(weights / weights.sum())

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.popularity == "uniform":
            return rng.integers(0, self.n_nodes, size=size)
        ranks = np.searchsorted(self._cdf, rng.random(size), side="right")
        return self.ranked[np.minimum(ranks, self.n_nodes - 1)]


def query_lines(workload: Workload, sampler: NodeSampler,
                rng: np.random.Generator, count: int) -> List[str]:
    kinds = [kind for kind, _share in workload.mix]
    shares = np.array([share for _kind, share in workload.mix])
    picks = rng.choice(len(kinds), size=count, p=shares / shares.sum())
    sources = sampler.draw(rng, count)
    targets = sampler.draw(rng, count)
    lines = []
    for pick, source, target in zip(picks, sources, targets):
        kind = kinds[pick]
        if kind == "pair":
            lines.append(f"pair {source} {target}")
        elif kind == "topk":
            lines.append(f"topk {source} 10")
        else:
            lines.append(f"source {source}")
    return lines


def query_body(line: str) -> bytes:
    return json.dumps({"queries": [line]}).encode()


def update_body(edges: Sequence[Tuple[int, int]]) -> bytes:
    return json.dumps({"edges": [list(edge) for edge in edges],
                       "wait": True}).encode()


def build_schedule(workload: Workload, seed: int, graph, paced_seconds: float,
                   saturated_count: int, warmup_count: int) -> Schedule:
    """Make the whole request schedule of one run from ``seed``.

    Paced queries arrive evenly spaced at ``workload.query_rate``, and
    updates (``update_mix``) every ``update_interval`` seconds, so every
    seed offers the same load at the same times; the seed decides the
    graph, the popularity order and each request's content.  Every update
    carries ``EDGES_PER_UPDATE`` edges that are new to the graph and whose
    heads are among the ``HOT_HEADS`` hottest query nodes, so every update
    is applied and invalidates hot cache entries.
    """
    name = workload.name
    sampler = NodeSampler(graph.n_nodes, workload.popularity,
                          _rng(seed, name, "popularity"))
    gap = 1.0 / workload.query_rate
    dues = [gap * (i + 0.5) for i in range(int(paced_seconds * workload.query_rate))]
    lines = query_lines(workload, sampler, _rng(seed, name, "paced"), len(dues))
    paced = [(due, "q", query_body(line)) for due, line in zip(dues, lines)]
    schedule = Schedule(
        paced=paced,
        paced_seconds=paced_seconds,
        saturated=[query_body(line) for line in query_lines(
            workload, sampler, _rng(seed, name, "saturated"), saturated_count)],
        warmup=[query_body(line) for line in query_lines(
            workload, sampler, _rng(seed, name, "warmup"), warmup_count)],
        fill=[query_body(f"pair {a} {b}") for a, b in sampler.draw(
            _rng(seed, name, "fill"), 2 * FILL_PAIRS).reshape(-1, 2)],
    )
    if workload.update_interval is None:
        return schedule
    edge_rng = _rng(seed, name, "edges")
    heads = sampler.ranked[:HOT_HEADS]
    taken = set()

    def fresh_body() -> bytes:
        edges: List[Tuple[int, int]] = []
        while len(edges) < EDGES_PER_UPDATE:
            u = int(edge_rng.integers(0, graph.n_nodes))
            v = int(heads[edge_rng.integers(0, len(heads))])
            if u == v or (u, v) in taken or graph.has_edge(u, v):
                continue
            taken.add((u, v))
            edges.append((u, v))
        body = update_body(edges)
        schedule.edges[body] = edges
        return body

    schedule.setup_updates.append(fresh_body())
    schedule.probes = query_lines(workload, sampler, _rng(seed, name, "probes"),
                                  PROBES)
    interval = workload.update_interval
    updates = [(interval * (k + 0.5), "u", fresh_body())
               for k in range(int(paced_seconds / interval))]
    schedule.paced = sorted(paced + updates, key=lambda event: event[0])
    return schedule


def schedule_digest(schedule: Schedule) -> str:
    """SHA-256 over every request the run sends, in order, with due times."""
    digest = hashlib.sha256()
    for body in schedule.setup_updates + schedule.fill + schedule.warmup:
        digest.update(body + b"\n")
    for due, group, body in schedule.paced:
        digest.update(f"{due!r} {group} ".encode() + body + b"\n")
    for body in schedule.saturated:
        digest.update(body + b"\n")
    for line in schedule.probes:
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()
