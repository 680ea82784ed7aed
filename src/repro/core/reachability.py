"""Update routing: the forward ball an edge batch touches.

Every online update needs one question answered: *which sources' rows must
be re-estimated* (and which cached walk distributions die).  That is the
forward ball of radius ``T`` around the inserted edges' heads, computed by
the per-level BFS sweep :func:`repro.core.walks.forward_reachable_set`.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Set, Tuple

from repro.core import walks
from repro.graph.digraph import DiGraph


class ReachabilityIndex:
    """The routing hook an update lineage calls around each batch.

    Routing is the stateless BFS sweep, so :meth:`advance` does nothing and
    :meth:`query` delegates to :func:`walks.forward_reachable_set`.  The
    class stays as the named seam the per-layer tracer wraps to report
    ``reachability.route_ms`` (``perfbench/tracing.py``).
    """

    def advance(self, base_graph: DiGraph, new_graph: DiGraph,
                new_edges: Sequence[Tuple[int, int]]) -> None:
        """Carry state across one lineage step (none to carry)."""

    def query(self, graph: DiGraph, seeds: Iterable[int],
              steps: int) -> Set[int]:
        """Nodes reachable from ``seeds`` along at most ``steps`` edges."""
        return walks.forward_reachable_set(graph, seeds, steps)
