"""Configuration objects for CloudWalker.

The dataclasses defined here:

:class:`SimRankParams`
    The algorithmic parameters of CloudWalker, with the paper's default
    values (Table "default parameters": c=0.6, T=10, L=3, R=100, R'=10000).

:class:`ServiceParams`
    Knobs of the online query service: walk-distribution cache capacity and
    batch-planning limits (see :mod:`repro.service`).

:class:`UpdateParams`
    Knobs of the service's live-update path: the pending-edge queue bound,
    snapshot cadence/retention and the exact-re-estimation switch (see
    :mod:`repro.service.updates`).

:class:`ShardingParams`
    Shape of a sharded deployment: how many shards, how nodes are assigned
    to them, and which executor backend builds them concurrently (see
    :mod:`repro.core.sharding` and :mod:`repro.service.sharded`).

:class:`RebalanceParams`
    Knobs of workload-adaptive shard rebalancing: when the sharded
    service's observed per-shard load skew justifies migrating to a new
    :class:`~repro.graph.partition.ShardPlan` (see
    :mod:`repro.service.sharded`).

:class:`ClusterSpec`
    A description of the (simulated) cluster used by the engine's cost
    model.  The paper's testbed was 10 machines, each with 16 cores, 377 GB
    RAM and 20 TB of disk; :meth:`ClusterSpec.paper_cluster` reproduces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SimRankParams:
    """Algorithmic parameters of CloudWalker.

    Attributes
    ----------
    c:
        SimRank decay factor, ``0 < c < 1``.  Paper default 0.6.
    walk_steps:
        ``T`` — number of random-walk steps (truncation of the series).
    jacobi_iterations:
        ``L`` — number of Jacobi iterations used to solve ``A x = 1``.
    index_walkers:
        ``R`` — number of Monte-Carlo walkers per node when estimating the
        columns ``a_i`` of the linear system during offline indexing.
    query_walkers:
        ``R'`` — number of Monte-Carlo walkers used by the online MCSP /
        MCSS queries.
    seed:
        Base seed used to derive all pseudo-random streams.  ``None`` means
        nondeterministic.
    """

    c: float = 0.6
    walk_steps: int = 10
    jacobi_iterations: int = 3
    index_walkers: int = 100
    query_walkers: int = 10_000
    seed: Optional[int] = 2015

    def __post_init__(self) -> None:
        if not 0.0 < self.c < 1.0:
            raise ConfigurationError(f"decay factor c must be in (0, 1), got {self.c}")
        if self.walk_steps < 1:
            raise ConfigurationError(
                f"walk_steps (T) must be a positive integer, got {self.walk_steps}"
            )
        if self.jacobi_iterations < 0:
            raise ConfigurationError(
                f"jacobi_iterations (L) must be >= 0, got {self.jacobi_iterations}"
            )
        if self.index_walkers < 1:
            raise ConfigurationError(
                f"index_walkers (R) must be >= 1, got {self.index_walkers}"
            )
        if self.query_walkers < 1:
            raise ConfigurationError(
                f"query_walkers (R') must be >= 1, got {self.query_walkers}"
            )

    @classmethod
    def paper_defaults(cls) -> "SimRankParams":
        """Return the default parameters used throughout the paper."""
        return cls(
            c=0.6,
            walk_steps=10,
            jacobi_iterations=3,
            index_walkers=100,
            query_walkers=10_000,
            seed=2015,
        )

    @classmethod
    def fast_defaults(cls) -> "SimRankParams":
        """Cheaper parameters suited to unit tests and examples.

        The algorithmic structure is identical; only the Monte-Carlo budgets
        are reduced so small graphs index in milliseconds.
        """
        return cls(
            c=0.6,
            walk_steps=6,
            jacobi_iterations=3,
            index_walkers=50,
            query_walkers=400,
            seed=2015,
        )

    def with_(self, **changes: Any) -> "SimRankParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """Return a plain-dict representation (used by index serialisation)."""
        return {
            "c": self.c,
            "walk_steps": self.walk_steps,
            "jacobi_iterations": self.jacobi_iterations,
            "index_walkers": self.index_walkers,
            "query_walkers": self.query_walkers,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimRankParams":
        """Reconstruct parameters from :meth:`to_dict` output."""
        return cls(**data)


@dataclass(frozen=True)
class ServiceParams:
    """Knobs of the online query service (:mod:`repro.service`).

    Attributes
    ----------
    cache_capacity:
        Maximum number of per-source walk distributions kept in the LRU
        cache.  ``0`` disables caching entirely (every query re-simulates).
    max_batch_size:
        Maximum number of distinct sources simulated in one vectorised
        multi-source walk batch; larger batches amortise per-step overhead
        but increase peak memory (``sources * walkers`` walker slots).
    default_top_k:
        ``k`` used by top-k queries that do not specify one.
    serve_backend:
        Executor backend the sharded service scatters *query-time* work
        through (per-shard walk simulation; the served graph is registered
        on it as a resident object): ``"serial"``, ``"threads"`` or
        ``"processes"`` (see :mod:`repro.engine.executor`).  Like the
        build-time ``ShardingParams.backend``, it changes only wall-clock,
        never answers.  Ignored by the single-shard service.
    serve_workers:
        Worker bound for the ``threads`` / ``processes`` serve backends.
        The pool is persistent (spun up once, reused per batch); call
        ``ShardedQueryService.close`` to release it.
    http_port:
        Default TCP port of the HTTP serving tier
        (:mod:`repro.service.http`); ``0`` asks the OS for an ephemeral
        port (the bound port is announced on startup).
    coalesce_window:
        Seconds the HTTP tier's cross-connection coalescer waits after the
        first queued request before executing the combined batch, so
        concurrent clients' sources are deduplicated into one scatter.
        ``0`` disables the wait (each drain takes whatever has queued —
        batching then comes only from requests arriving while a previous
        batch executes).  Keep well below client timeouts: the window is
        a latency floor for a lone request.
    max_in_flight:
        Admission bound of the HTTP tier: maximum queries admitted and not
        yet answered before new ones are refused with a 503 (and pending
        deferred edges before updates are refused with a 429).  Bounds
        queueing memory and tail latency under overload.
    accuracy_budget:
        Mean-absolute-error budget of the *approximate serving mode*.
        ``None`` (the default) keeps exact serving: every answer is
        bitwise-identical to the core computation at the index's own
        ``SimRankParams``.  A budget in ``(0, 1)`` lets the service answer
        queries from fewer walkers / shorter walks, trading accuracy
        (bounded by the budget) for latency.  The cheap operating point
        comes from ``approx_walkers`` / ``approx_steps`` when given,
        otherwise it is calibrated at service construction against
        :func:`repro.analysis.accuracy.exact_linearized_matrix` ground
        truth (see :func:`repro.analysis.accuracy.calibrate_query_budget`
        — exact ground truth is quadratic in graph size, so precalibrate
        on large graphs).  Index maintenance (updates, snapshots,
        rebalancing) always runs at the exact parameters.
    approx_walkers:
        Explicit query-walker count of the approximate mode; requires
        ``accuracy_budget``.  ``None`` asks calibration to choose.
    approx_steps:
        Explicit walk-step count of the approximate mode; requires
        ``accuracy_budget``.  ``None`` keeps the exact ``walk_steps``
        unless calibration chooses a shorter walk.
    """

    cache_capacity: int = 1024
    max_batch_size: int = 256
    default_top_k: int = 10
    serve_backend: str = "serial"
    serve_workers: int = 4
    http_port: int = 8080
    coalesce_window: float = 0.002
    max_in_flight: int = 64
    accuracy_budget: Optional[float] = None
    approx_walkers: Optional[int] = None
    approx_steps: Optional[int] = None

    _VALID_SERVE_BACKENDS = ("serial", "threads", "processes")

    def __post_init__(self) -> None:
        if self.cache_capacity < 0:
            raise ConfigurationError(
                f"cache_capacity must be >= 0, got {self.cache_capacity}"
            )
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.default_top_k < 1:
            raise ConfigurationError(
                f"default_top_k must be >= 1, got {self.default_top_k}"
            )
        if self.serve_backend not in self._VALID_SERVE_BACKENDS:
            raise ConfigurationError(
                f"serve_backend must be one of {self._VALID_SERVE_BACKENDS}, "
                f"got {self.serve_backend!r}"
            )
        if self.serve_workers < 1:
            raise ConfigurationError(
                f"serve_workers must be >= 1, got {self.serve_workers}"
            )
        if not 0 <= self.http_port <= 65535:
            raise ConfigurationError(
                f"http_port must be in [0, 65535], got {self.http_port}"
            )
        if self.coalesce_window < 0:
            raise ConfigurationError(
                f"coalesce_window must be >= 0, got {self.coalesce_window}"
            )
        if self.max_in_flight < 1:
            raise ConfigurationError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )
        if self.accuracy_budget is not None and not 0 < self.accuracy_budget < 1:
            raise ConfigurationError(
                f"accuracy_budget must be in (0, 1), got {self.accuracy_budget}"
            )
        if self.approx_walkers is not None:
            if self.accuracy_budget is None:
                raise ConfigurationError(
                    "approx_walkers requires an accuracy_budget (exact mode "
                    "never reduces walkers)"
                )
            if self.approx_walkers < 1:
                raise ConfigurationError(
                    f"approx_walkers must be >= 1, got {self.approx_walkers}"
                )
        if self.approx_steps is not None:
            if self.accuracy_budget is None:
                raise ConfigurationError(
                    "approx_steps requires an accuracy_budget (exact mode "
                    "never shortens walks)"
                )
            if self.approx_steps < 1:
                raise ConfigurationError(
                    f"approx_steps must be >= 1, got {self.approx_steps}"
                )

    def with_(self, **changes: Any) -> "ServiceParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """Return a plain-dict representation (used by service stats)."""
        return {
            "cache_capacity": self.cache_capacity,
            "max_batch_size": self.max_batch_size,
            "default_top_k": self.default_top_k,
            "serve_backend": self.serve_backend,
            "serve_workers": self.serve_workers,
            "http_port": self.http_port,
            "coalesce_window": self.coalesce_window,
            "max_in_flight": self.max_in_flight,
            "accuracy_budget": self.accuracy_budget,
            "approx_walkers": self.approx_walkers,
            "approx_steps": self.approx_steps,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServiceParams":
        """Reconstruct parameters from :meth:`to_dict` output."""
        return cls(**data)


@dataclass(frozen=True)
class UpdateParams:
    """Knobs of the service's live-update path (:mod:`repro.service.updates`).

    Attributes
    ----------
    max_pending_edges:
        Upper bound on edges queued via ``QueryService.add_edges(...,
        defer=True)`` before the queue is drained eagerly; bounds the
        staleness a deferred update can accumulate and the memory the queue
        can hold.  A single deferred batch larger than the bound is applied
        immediately instead of queued.
    max_node_growth:
        Upper bound on how far beyond the current node-id range a single
        inserted edge may point.  Inserting ``(u, v)`` implicitly creates
        every node up to ``max(u, v)``, so one typo or hostile wire line
        (``add 0 999999999``) could otherwise grow the graph — and the
        re-index — without bound.
    snapshot_every:
        Auto-snapshot the index (and linear system) after every N applied
        updates; ``0`` disables automatic snapshots.  Requires
        ``snapshot_dir``.
    snapshot_retain:
        How many snapshot versions to keep on disk (older ones are pruned).
    snapshot_dir:
        Directory of the service's :class:`repro.core.index.SnapshotStore`;
        ``None`` means snapshots are only written when a caller passes an
        explicit directory to ``QueryService.save_snapshot``.
    exact:
        Re-estimate affected rows from exact walk distributions instead of
        Monte-Carlo.  Only feasible for small graphs; used by tests that
        want updates exactly equal to exact rebuilds.
    """

    max_pending_edges: int = 10_000
    max_node_growth: int = 10_000
    snapshot_every: int = 0
    snapshot_retain: int = 5
    snapshot_dir: Optional[str] = None
    exact: bool = False

    def __post_init__(self) -> None:
        if self.max_pending_edges < 1:
            raise ConfigurationError(
                f"max_pending_edges must be >= 1, got {self.max_pending_edges}"
            )
        if self.max_node_growth < 0:
            raise ConfigurationError(
                f"max_node_growth must be >= 0, got {self.max_node_growth}"
            )
        if self.snapshot_every < 0:
            raise ConfigurationError(
                f"snapshot_every must be >= 0, got {self.snapshot_every}"
            )
        if self.snapshot_retain < 1:
            raise ConfigurationError(
                f"snapshot_retain must be >= 1, got {self.snapshot_retain}"
            )
        if self.snapshot_every > 0 and self.snapshot_dir is None:
            raise ConfigurationError(
                "snapshot_every > 0 requires snapshot_dir to be set"
            )

    def with_(self, **changes: Any) -> "UpdateParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """Return a plain-dict representation (used by service stats)."""
        return {
            "max_pending_edges": self.max_pending_edges,
            "max_node_growth": self.max_node_growth,
            "snapshot_every": self.snapshot_every,
            "snapshot_retain": self.snapshot_retain,
            "snapshot_dir": self.snapshot_dir,
            "exact": self.exact,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "UpdateParams":
        """Reconstruct parameters from :meth:`to_dict` output."""
        return cls(**data)


@dataclass(frozen=True)
class ShardingParams:
    """Shape of a sharded index build / sharded query service.

    Attributes
    ----------
    num_shards:
        ``K`` — number of index shards.  ``1`` means the single-shard path
        (a :class:`~repro.service.QueryService` with no routing layer).
    strategy:
        How nodes are assigned to shards: ``"hash"`` (multiplicative hash of
        the node id — balanced, stable under growth), ``"contiguous"``
        (node-id ranges — best locality for generators that number nodes in
        arrival order) or ``"partitioner"`` (edge-balanced greedy assignment
        computed from the graph's in-degrees; see
        :class:`repro.graph.partition.EdgeBalancedPartitioner`).
    backend:
        Executor backend that builds shards concurrently: ``"serial"``,
        ``"threads"`` or ``"processes"`` (see :mod:`repro.engine.executor`).
        The backend changes only wall-clock, never results: every shard's
        rows come from per-source random streams, so any execution order
        produces a bitwise-identical index.
    max_workers:
        Worker bound for the ``threads`` / ``processes`` backends.
    """

    num_shards: int = 1
    strategy: str = "hash"
    backend: str = "serial"
    max_workers: int = 4

    _VALID_STRATEGIES = ("hash", "contiguous", "partitioner")
    _VALID_BACKENDS = ("serial", "threads", "processes")

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.strategy not in self._VALID_STRATEGIES:
            raise ConfigurationError(
                f"strategy must be one of {self._VALID_STRATEGIES}, "
                f"got {self.strategy!r}"
            )
        if self.backend not in self._VALID_BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {self._VALID_BACKENDS}, "
                f"got {self.backend!r}"
            )
        if self.max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )

    def with_(self, **changes: Any) -> "ShardingParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """Return a plain-dict representation (used by snapshots and stats)."""
        return {
            "num_shards": self.num_shards,
            "strategy": self.strategy,
            "backend": self.backend,
            "max_workers": self.max_workers,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardingParams":
        """Reconstruct parameters from :meth:`to_dict` output."""
        return cls(**data)


@dataclass(frozen=True)
class RebalanceParams:
    """Knobs of workload-adaptive shard rebalancing.

    The sharded service keeps per-shard load counters (sources routed,
    scatter/ranking seconds); the rebalance planner
    (:func:`repro.graph.partition.load_balanced_plan` +
    :func:`repro.engine.cost_model.evaluate_rebalance`) turns them into a
    proposed :class:`~repro.graph.partition.ShardPlan` and a
    should-we-migrate decision.  These parameters bound when a proposal is
    adopted — the migration itself never changes answers (bitwise-identical
    across the flip), only the shard placement the scatter fans over.

    Attributes
    ----------
    improvement_threshold:
        Minimum predicted critical-path improvement (current max shard
        load / proposed max shard load) before a migration is worth its
        one-off cost.  ``1.2`` = only migrate for a predicted 20%+ win.
    min_sources:
        Minimum number of observed routed sources before the counters are
        considered representative; below it ``maybe_rebalance`` declines.
    cold_weight:
        Load attributed to every node with no observed traffic, in units
        of one routed source.  Keeps never-queried nodes spread across
        shards instead of piling onto one, and damps overfitting to a
        short observation window.
    check_interval:
        Seconds between automatic rebalance checks when the HTTP tier
        runs with ``--auto-rebalance``.
    """

    improvement_threshold: float = 1.2
    min_sources: int = 16
    cold_weight: float = 1.0
    check_interval: float = 5.0

    def __post_init__(self) -> None:
        if self.improvement_threshold < 1.0:
            raise ConfigurationError(
                f"improvement_threshold must be >= 1.0, "
                f"got {self.improvement_threshold}"
            )
        if self.min_sources < 0:
            raise ConfigurationError(
                f"min_sources must be >= 0, got {self.min_sources}"
            )
        if self.cold_weight < 0:
            raise ConfigurationError(
                f"cold_weight must be >= 0, got {self.cold_weight}"
            )
        if self.check_interval <= 0:
            raise ConfigurationError(
                f"check_interval must be > 0, got {self.check_interval}"
            )

    def with_(self, **changes: Any) -> "RebalanceParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """Return a plain-dict representation (used by service stats)."""
        return {
            "improvement_threshold": self.improvement_threshold,
            "min_sources": self.min_sources,
            "cold_weight": self.cold_weight,
            "check_interval": self.check_interval,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RebalanceParams":
        """Reconstruct parameters from :meth:`to_dict` output."""
        return cls(**data)


@dataclass(frozen=True)
class ClusterSpec:
    """Description of a (simulated) cluster for the engine cost model.

    The engine always *executes* locally; the spec is used to account the
    wall-clock a job would take on a cluster of this shape (number of
    machines and cores bounds parallelism, per-executor memory bounds the
    broadcasting model, network bandwidth prices shuffles and broadcasts).

    Attributes
    ----------
    machines:
        Number of worker machines.
    cores_per_machine:
        CPU cores available to executors on each machine.
    memory_per_machine_gb:
        Executor memory per machine, in gigabytes.
    disk_per_machine_tb:
        Local disk per machine, in terabytes (used only for spill checks).
    network_gbps:
        Point-to-point network bandwidth in gigabits per second.
    """

    machines: int = 1
    cores_per_machine: int = 4
    memory_per_machine_gb: float = 8.0
    disk_per_machine_tb: float = 0.5
    network_gbps: float = 1.0

    def __post_init__(self) -> None:
        if self.machines < 1:
            raise ConfigurationError(f"machines must be >= 1, got {self.machines}")
        if self.cores_per_machine < 1:
            raise ConfigurationError(
                f"cores_per_machine must be >= 1, got {self.cores_per_machine}"
            )
        if self.memory_per_machine_gb <= 0:
            raise ConfigurationError(
                f"memory_per_machine_gb must be > 0, got {self.memory_per_machine_gb}"
            )
        if self.disk_per_machine_tb <= 0:
            raise ConfigurationError(
                f"disk_per_machine_tb must be > 0, got {self.disk_per_machine_tb}"
            )
        if self.network_gbps <= 0:
            raise ConfigurationError(
                f"network_gbps must be > 0, got {self.network_gbps}"
            )

    @property
    def total_cores(self) -> int:
        """Total number of executor cores in the cluster."""
        return self.machines * self.cores_per_machine

    @property
    def total_memory_gb(self) -> float:
        """Total executor memory across the cluster, in gigabytes."""
        return self.machines * self.memory_per_machine_gb

    @property
    def memory_per_machine_bytes(self) -> float:
        """Executor memory per machine, in bytes."""
        return self.memory_per_machine_gb * 1e9

    @classmethod
    def paper_cluster(cls) -> "ClusterSpec":
        """The testbed used in the paper: 10 x (16 cores, 377 GB, 20 TB)."""
        return cls(
            machines=10,
            cores_per_machine=16,
            memory_per_machine_gb=377.0,
            disk_per_machine_tb=20.0,
            network_gbps=10.0,
        )

    @classmethod
    def local(cls, cores: int = 4, memory_gb: float = 8.0) -> "ClusterSpec":
        """A single-machine spec matching a developer laptop."""
        return cls(
            machines=1,
            cores_per_machine=cores,
            memory_per_machine_gb=memory_gb,
            disk_per_machine_tb=0.5,
            network_gbps=10.0,
        )

    def with_(self, **changes: Any) -> "ClusterSpec":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass
class ExecutionOptions:
    """Runtime knobs shared by the execution models.

    Attributes
    ----------
    backend:
        ``"serial"``, ``"threads"`` or ``"processes"`` — how engine tasks are
        physically executed on the local machine.
    num_partitions:
        Default number of partitions for RDDs created from graph data.
        ``None`` lets the engine pick ``total_cores * 2``.
    simulate_cluster:
        When true, jobs also produce a simulated wall-clock estimate for
        :attr:`cluster` via the cost model (used by the benchmark harness).
    cluster:
        The cluster the cost model should simulate.
    """

    backend: str = "serial"
    num_partitions: Optional[int] = None
    simulate_cluster: bool = False
    cluster: ClusterSpec = field(default_factory=ClusterSpec)

    _VALID_BACKENDS = ("serial", "threads", "processes")

    def __post_init__(self) -> None:
        if self.backend not in self._VALID_BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {self._VALID_BACKENDS}, got {self.backend!r}"
            )
        if self.num_partitions is not None and self.num_partitions < 1:
            raise ConfigurationError(
                f"num_partitions must be >= 1 or None, got {self.num_partitions}"
            )
