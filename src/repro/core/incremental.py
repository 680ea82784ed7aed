"""Incremental index maintenance under edge insertions.

The paper builds its index for a static snapshot; rebuilding from scratch
after every graph change would waste most of the Monte-Carlo work, because an
edge insertion ``u -> v`` only changes the reverse-walk distributions of the
nodes that can reach the walk through ``v`` — i.e. the nodes reachable from
``v`` along at most ``T`` forward edges.  This module implements that
observation as an incremental maintainer (a natural extension of the paper's
system; listed as such in ``docs/DESIGN.md``):

1. keep the assembled linear system ``A`` from the last build;
2. on ``add_edges``, compute the affected source set by a bounded forward
   BFS from the new edges' heads;
3. re-estimate only the affected rows of ``A`` (Monte-Carlo, same budget as
   the original build);
4. warm-start the Jacobi solve from the previous diagonal.

For localized updates this costs a small fraction of a full rebuild while
producing an index that is statistically indistinguishable from one built
from scratch.  With ``stream_per_source=True`` (the query service's
configuration) the guarantee is stronger: every row is estimated from its
own ``(seed, source)`` random stream, so the updated index is
*bitwise-identical* to one built from scratch on the updated graph — see
``docs/architecture.md`` for the full versioning contract.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse

from repro.config import SimRankParams
from repro.core import linear_system, walks
from repro.core.index import BuildInfo, DiagonalIndex
from repro.core.reachability import ReachabilityIndex
from repro.core.jacobi import jacobi_solve
from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph


def affected_sources(graph: DiGraph, changed_heads: Iterable[int],
                     steps: int) -> Set[int]:
    """Nodes whose rows ``a_i`` may change when the in-links of
    ``changed_heads`` change.

    A reverse walk from source ``i`` visits ``v`` within ``T`` steps exactly
    when there is a forward path ``v -> ... -> i`` of length at most ``T``,
    so the affected set is the forward BFS ball of radius ``T`` around the
    changed heads (including the heads themselves).
    """
    return walks.forward_reachable_set(graph, changed_heads, steps)


class IncrementalCloudWalker:
    """Maintains a CloudWalker index across edge insertions.

    Parameters
    ----------
    graph:
        Initial graph.
    params:
        Algorithmic parameters (shared by the initial build and all updates).
    exact:
        Use exact walk distributions instead of Monte-Carlo (small graphs;
        makes incremental results exactly equal to full rebuilds, which the
        tests exploit).
    stream_per_source:
        Estimate every row from its own ``(seed, source)`` random stream
        (:func:`repro.core.linear_system.build_rows_streamed`) instead of
        one shared stream per update.  Together with ``warm_start=False``
        this makes incremental updates bitwise-identical to full rebuilds
        on the updated graph — the mode the query service runs in.
    warm_start:
        Start the Jacobi solve of an update from the previous diagonal
        (faster convergence) instead of the cold-start guess ``1 - c``
        a fresh build uses.  Disable for bitwise reproducibility.
    """

    def __init__(self, graph: DiGraph, params: Optional[SimRankParams] = None,
                 exact: bool = False, stream_per_source: bool = False,
                 warm_start: bool = True) -> None:
        self.graph = graph
        self.params = params or SimRankParams.paper_defaults()
        self.exact = exact
        self.stream_per_source = stream_per_source
        self.warm_start = warm_start
        self._routing = ReachabilityIndex()
        self._system: Optional[sparse.csr_matrix] = None
        self.index: Optional[DiagonalIndex] = None
        self._update_count = 0

    # ------------------------------------------------------------------ #
    def build(self) -> DiagonalIndex:
        """Initial full build (also callable to force a rebuild)."""
        start = time.perf_counter()
        self._system = self._build_rows(self.graph, range(self.graph.n_nodes)).tolil().tocsr()
        self.index = self._solve(self.graph, self._system,
                                 initial=None, seconds_so_far=time.perf_counter() - start,
                                 update_kind="full-build", affected=self.graph.n_nodes)
        return self.index

    def attach(self, index: DiagonalIndex,
               system: Optional[sparse.csr_matrix] = None) -> None:
        """Adopt an existing index (and optionally its linear system).

        Lets a maintainer take over an index that was built elsewhere — a
        cold-started query service, or a snapshot reloaded from disk — so
        :meth:`add_edges` can update it incrementally.  If ``system`` is not
        given (the index file does not carry it), the linear system for the
        *current* graph is estimated now; this one-time cost is comparable
        to a rebuild, which is exactly why snapshots persist the system
        alongside the diagonal (see
        :meth:`repro.core.index.SnapshotStore.save_snapshot`).
        """
        index.validate_for(self.graph)
        if system is not None:
            if system.shape != (self.graph.n_nodes, self.graph.n_nodes):
                raise ConfigurationError(
                    f"system has shape {system.shape} but the graph has "
                    f"{self.graph.n_nodes} nodes"
                )
            self._system = system.tocsr()
        else:
            self._system = self._build_rows(
                self.graph, range(self.graph.n_nodes)
            ).tocsr()
        self.index = index

    @property
    def system(self) -> Optional[sparse.csr_matrix]:
        """The maintained linear system ``A`` (None before build/attach)."""
        return self._system

    def _build_rows(self, graph: DiGraph, sources: Iterable[int]) -> sparse.csr_matrix:
        sources = list(sources)
        if self.exact:
            full = linear_system.build_exact_system(graph, self.params)
            mask = np.zeros(graph.n_nodes, dtype=bool)
            mask[sources] = True
            keep = sparse.diags(mask.astype(np.float64))
            return (keep @ full).tocsr()
        if self.stream_per_source:
            rows, cols, values = linear_system.build_rows_streamed(
                graph, sources, self.params
            )
        else:
            rng = walks.make_rng(self.params.seed, stream=50_000 + self._update_count)
            rows, cols, values = linear_system.build_rows(
                graph, sources, self.params, rng=rng
            )
        return sparse.csr_matrix(
            (values, (rows, cols)), shape=(graph.n_nodes, graph.n_nodes)
        )

    def _solve(self, graph: DiGraph, system: sparse.csr_matrix,
               initial: Optional[np.ndarray], seconds_so_far: float,
               update_kind: str, affected: int) -> DiagonalIndex:
        rhs = np.ones(graph.n_nodes, dtype=np.float64)
        start = time.perf_counter()
        if graph.n_nodes == 0:
            x = np.zeros(0, dtype=np.float64)
            residual = float("nan")
        else:
            guess = (
                initial if initial is not None
                else np.full(graph.n_nodes, 1.0 - self.params.c)
            )
            solution = jacobi_solve(
                system, rhs, iterations=self.params.jacobi_iterations, initial=guess
            )
            x = solution.x
            residual = solution.final_residual
        solve_seconds = time.perf_counter() - start
        build_info = BuildInfo(
            execution_model="incremental",
            monte_carlo_seconds=seconds_so_far,
            solve_seconds=solve_seconds,
            total_seconds=seconds_so_far + solve_seconds,
            jacobi_residual=residual,
            system_nnz=int(system.nnz),
            extras={"update_kind": update_kind, "affected_rows": affected},
        )
        return DiagonalIndex(
            diagonal=x, params=self.params, graph_name=graph.name,
            n_nodes=graph.n_nodes, n_edges=graph.n_edges, build_info=build_info,
        )

    # ------------------------------------------------------------------ #
    def add_edges(self, new_edges: Sequence[Tuple[int, int]]) -> Dict[str, object]:
        """Insert edges and update the index incrementally.

        Returns a summary dict with the number of affected rows, the
        affected source set itself (``"affected"``, which the query service
        turns into its cache-invalidation set) and the update cost; the new
        graph and index are available as :attr:`graph` / :attr:`index`.
        """
        if self.index is None or self._system is None:
            raise ConfigurationError("call build() or attach() before add_edges()")
        if not new_edges:
            return {"affected_rows": 0, "update_seconds": 0.0, "new_nodes": 0,
                    "affected": frozenset(), "routing_seconds": 0.0}

        start = time.perf_counter()
        old_n = self.graph.n_nodes
        max_endpoint = max(max(int(u), int(v)) for u, v in new_edges)
        new_n = max(old_n, max_endpoint + 1)
        combined_edges = np.vstack([
            self.graph.edge_array(),
            np.asarray(list(new_edges), dtype=np.int64).reshape(-1, 2),
        ])
        new_graph = DiGraph(new_n, combined_edges, name=self.graph.name)

        self._update_count += 1
        heads = {int(v) for _u, v in new_edges}
        new_node_ids = set(range(old_n, new_n))
        routing_start = time.perf_counter()
        self._routing.advance(self.graph, new_graph, list(new_edges))
        affected = self._routing.query(new_graph, heads,
                                       self.params.walk_steps)
        routing_seconds = time.perf_counter() - routing_start
        affected |= new_node_ids

        # Re-estimate the affected rows on the new graph.
        fresh_rows = self._build_rows(new_graph, sorted(affected))

        # Splice: keep unaffected rows of the old system, take affected rows
        # from the fresh estimate.  (Row dimensions may have grown.)
        old_system = self._system
        if new_n > old_n:
            old_system = sparse.csr_matrix(
                (old_system.data, old_system.indices, old_system.indptr),
                shape=(old_n, new_n),
            )
            old_system = sparse.vstack(
                [old_system, sparse.csr_matrix((new_n - old_n, new_n))]
            ).tocsr()
        keep_mask = np.ones(new_n, dtype=np.float64)
        keep_mask[sorted(affected)] = 0.0
        keep = sparse.diags(keep_mask)
        spliced = (keep @ old_system + fresh_rows).tocsr()
        # Zeroed-out affected cells survive the splice as explicit zeros and
        # the splice arithmetic leaves column indices unsorted; restoring the
        # canonical CSR a from-scratch build produces makes the solver's
        # summation order — and hence the solved diagonal — bitwise
        # reproducible.
        spliced.eliminate_zeros()
        spliced.sort_indices()
        self._system = spliced

        if self.warm_start:
            # Warm-start the solve from the previous diagonal.
            initial: Optional[np.ndarray] = np.full(
                new_n, 1.0 - self.params.c, dtype=np.float64
            )
            initial[:old_n] = self.index.diagonal
        else:
            # Cold start, exactly like build(): same guess -> same iterates.
            initial = None
        monte_carlo_seconds = time.perf_counter() - start
        self.graph = new_graph
        self.index = self._solve(
            new_graph, self._system, initial=initial,
            seconds_so_far=monte_carlo_seconds,
            update_kind="incremental-add-edges", affected=len(affected),
        )
        return {
            "affected_rows": len(affected),
            "affected_fraction": len(affected) / max(new_n, 1),
            "affected": frozenset(affected),
            "new_nodes": new_n - old_n,
            "update_seconds": time.perf_counter() - start,
            "routing_seconds": routing_seconds,
        }

    # ------------------------------------------------------------------ #
    def full_rebuild(self) -> DiagonalIndex:
        """Rebuild from scratch on the current graph (for cost comparisons)."""
        return self.build()
