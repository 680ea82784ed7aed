"""Resident object registry: registration, resolution, epochs, cleanup.

The zero-copy serving hot path hangs off this contract: a backend owner
registers a large object once per epoch (``ensure_resident``), scatter
tasks ship only the returned :class:`~repro.engine.executor.ResidentHandle`
and resolve it where they run (:func:`~repro.engine.executor.
resolve_resident`) — in-process for serial/thread backends, via a
shared-memory attach cached per worker for the process backend.  The
registry's lifecycle must be airtight: identity-keyed reuse, epoch bumps
on object swaps, and release of every shared-memory segment on shutdown,
on re-registration, and on broken-pool recovery.
"""

import pickle
from concurrent.futures import BrokenExecutor
from functools import partial
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.engine.executor import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    resolve_resident,
)
from repro.graph import generators


def _graph_fingerprint(handle):
    """Module-level (picklable) task: summarise the resident graph."""
    graph = resolve_resident(handle)
    indptr, indices = graph.in_csr
    return (graph.n_nodes, graph.n_edges, int(indices.sum()), int(indptr[-1]))


def _csr_fingerprint(handle):
    """Module-level (picklable) task: summarise all four CSR buffers."""
    graph = resolve_resident(handle)
    in_indptr, in_indices = graph.in_csr
    out_indptr, out_indices = graph.out_csr
    return (graph.n_nodes, graph.n_edges,
            int(in_indices.sum()), int(in_indptr[-1]),
            int(out_indices.sum()), int(out_indptr[-1]))


def _die_hard():
    import os

    os._exit(13)


def _segment_exists(name: str) -> bool:
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


@pytest.fixture()
def graph():
    return generators.copying_model_graph(60, out_degree=4, seed=9)


class TestLocalResidency:
    @pytest.mark.parametrize("backend_cls", [SerialBackend, ThreadBackend])
    def test_resolves_to_the_same_object(self, backend_cls, graph):
        with backend_cls() as backend:
            handle = backend.ensure_resident("graph", graph)
            assert handle.kind == "local"
            assert resolve_resident(handle) is graph
            # Tasks resolve it too (thread tasks share the process).
            assert backend.run([partial(_graph_fingerprint, handle)]) == [
                _graph_fingerprint(handle)
            ]

    def test_identity_reuse_and_epoch_bump(self, graph):
        backend = SerialBackend()
        first = backend.ensure_resident("graph", graph)
        assert backend.ensure_resident("graph", graph) is first
        other = generators.copying_model_graph(30, out_degree=3, seed=1)
        second = backend.ensure_resident("graph", other)
        assert second.token != first.token
        assert second.epoch == first.epoch + 1
        assert resolve_resident(second) is other
        # Local handles carry the reference: an outstanding old handle
        # still resolves (same object, so this is harmless), and nothing
        # is pinned process-globally once the handles are dropped.
        assert resolve_resident(first) is graph

    def test_close_then_reregister(self, graph):
        backend = SerialBackend()
        first = backend.ensure_resident("graph", graph)
        backend.close()
        revived = backend.ensure_resident("graph", graph)
        assert revived.token != first.token
        assert resolve_resident(revived) is graph
        backend.close()

    def test_dropping_backend_does_not_pin_the_object(self, graph):
        """No global registry: the object's lifetime is plain refcounting."""
        import gc
        import weakref

        class Probe:
            """Weakref-able stand-in (DiGraph's __slots__ forbid weakrefs)."""

        probe = Probe()
        probe.graph = graph
        ref = weakref.ref(probe)
        backend = SerialBackend()
        backend.ensure_resident("graph", probe)
        # The backend (never closed) and the local variable are dropped:
        # nothing else may keep the graph alive.
        del backend, probe
        gc.collect()
        assert ref() is None, (
            "a dropped serial/thread backend must not leak its residents"
        )


class TestSharedMemoryResidency:
    def test_worker_resolves_bitwise_equal_graph(self, graph):
        with ProcessBackend(max_workers=2) as backend:
            handle = backend.ensure_resident("graph", graph)
            assert handle.kind == "shm"
            expected = (graph.n_nodes, graph.n_edges,
                        int(graph.in_csr[1].sum()), int(graph.in_csr[0][-1]))
            # Two runs: the second is served from the worker-side cache.
            assert backend.run([partial(_graph_fingerprint, handle)]) == [expected]
            assert backend.run([partial(_graph_fingerprint, handle)]) == [expected]
            # Same object => same registration, no re-export.
            assert backend.ensure_resident("graph", graph) is handle

    def test_parent_side_resolution_is_zero_copy(self, graph):
        backend = ProcessBackend(max_workers=1)
        try:
            handle = backend.ensure_resident("graph", graph)
            restored = resolve_resident(handle)
            assert restored == graph  # CSR arrays byte-for-byte equal
            assert restored.in_csr[0].base is not None, (
                "restored arrays must be views over shared memory, not copies"
            )
        finally:
            backend.close()

    def test_handle_is_small_and_picklable(self, graph):
        backend = ProcessBackend(max_workers=1)
        try:
            handle = backend.ensure_resident("graph", graph)
            assert len(pickle.dumps(handle)) < 2048
        finally:
            backend.close()

    def test_shutdown_unlinks_segment(self, graph):
        backend = ProcessBackend(max_workers=1)
        handle = backend.ensure_resident("graph", graph)
        assert _segment_exists(handle.shm_name)
        backend.close()
        assert not _segment_exists(handle.shm_name)
        backend.close()  # double release must not raise

    def test_reregistration_unlinks_old_segment(self, graph):
        backend = ProcessBackend(max_workers=1)
        try:
            first = backend.ensure_resident("graph", graph)
            other = generators.copying_model_graph(30, out_degree=3, seed=2)
            second = backend.ensure_resident("graph", other)
            assert second.epoch == first.epoch + 1
            assert not _segment_exists(first.shm_name)
            assert _segment_exists(second.shm_name)
        finally:
            backend.close()

    def test_broken_pool_releases_segment(self, graph):
        backend = ProcessBackend(max_workers=1)
        handle = backend.ensure_resident("graph", graph)
        with pytest.raises(BrokenExecutor):
            backend.run([_die_hard])
        assert backend._pool is None
        assert not _segment_exists(handle.shm_name), (
            "a broken pool must not pin shared-memory segments"
        )
        # The owner re-registers against the recovered pool transparently.
        revived = backend.ensure_resident("graph", graph)
        expected = (graph.n_nodes, graph.n_edges,
                    int(graph.in_csr[1].sum()), int(graph.in_csr[0][-1]))
        assert backend.run([partial(_graph_fingerprint, revived)]) == [expected]
        backend.close()

    def test_pickled_blob_fallback_for_plain_objects(self, graph):
        """No pickled-blob fallback: an object without ``resident_export``
        is rejected, and the key it tried to replace is released, not left
        pointing at an unlinked segment."""
        backend = ProcessBackend(max_workers=1)
        try:
            first = backend.ensure_resident("graph", graph)
            with pytest.raises(TypeError):
                backend.ensure_resident("graph", {"plan": [1, 2, 3]})
            assert backend.resident_handle("graph") is None
            assert not _segment_exists(first.shm_name)
            revived = backend.ensure_resident("graph", graph)
            assert revived.epoch > first.epoch
            assert resolve_resident(revived) == graph
        finally:
            backend.close()

    def test_payload_accounting_matches_task_count(self, graph):
        backend = ProcessBackend(max_workers=1)
        try:
            handle = backend.ensure_resident("graph", graph)
            tasks = [partial(_graph_fingerprint, handle) for _ in range(3)]
            backend.run(tasks)
            assert len(backend.last_payload_bytes) == 3
            assert backend.total_payload_bytes >= sum(backend.last_payload_bytes)
            assert max(backend.last_payload_bytes) < 4096, (
                "resident tasks must ship a handle, not the graph"
            )
        finally:
            backend.close()


def _grown_graph(n=48, seed=21):
    """A graph grown the way an applied update grows it: the old edge
    list plus new edges, some of them naming new nodes."""
    from repro.graph.digraph import DiGraph

    base = generators.copying_model_graph(n, out_degree=4, seed=seed)
    new_edges = np.array([(0, n + 3), (n + 3, 1), (n + 1, 2)], dtype=np.int64)
    return DiGraph(n + 4, np.vstack([base.edge_array(), new_edges]),
                   name=base.name)


def _csr_fingerprint_local(graph):
    """Parent-side twin of :func:`_csr_fingerprint` (no handle)."""
    in_indptr, in_indices = graph.in_csr
    out_indptr, out_indices = graph.out_csr
    return (graph.n_nodes, graph.n_edges,
            int(in_indices.sum()), int(in_indptr[-1]),
            int(out_indices.sum()), int(out_indptr[-1]))


class TestResidentSystemResidency:
    """The graph an update lineage produces rides the same registry.

    Each applied update swaps in a grown graph; it must round-trip through
    the shared-memory export byte-for-byte, as zero-copy views of all four
    CSR buffers, with identity-keyed epochs.
    """

    def test_roundtrip_is_bitwise_and_zero_copy(self):
        view = _grown_graph()
        backend = ProcessBackend(max_workers=1)
        try:
            handle = backend.ensure_resident("graph", view)
            assert handle.kind == "shm"
            restored = resolve_resident(handle)
            assert restored.n_nodes == view.n_nodes
            assert restored.n_edges == view.n_edges
            for left, right in zip(restored.in_csr + restored.out_csr,
                                   view.in_csr + view.out_csr):
                assert left.dtype == right.dtype
                assert np.array_equal(left, right)
                assert left.base is not None, (
                    "restored CSR arrays must be shared-memory views, "
                    "not copies"
                )
        finally:
            backend.close()

    def test_worker_resolves_bitwise_equal_view(self):
        view = _grown_graph()
        expected = _csr_fingerprint_local(view)
        with ProcessBackend(max_workers=1) as backend:
            handle = backend.ensure_resident("graph", view)
            # Two runs: the second is served from the worker-side cache.
            assert backend.run([partial(_csr_fingerprint, handle)]) == [expected]
            assert backend.run([partial(_csr_fingerprint, handle)]) == [expected]

    def test_partial_views_roundtrip(self):
        """Degenerate graphs (no edges, one node) export zero-length index
        arrays; the segment layout must still restore them."""
        from repro.graph.digraph import DiGraph

        for empty in (DiGraph(9, []), DiGraph(1, [])):
            backend = ProcessBackend(max_workers=1)
            try:
                handle = backend.ensure_resident("graph", empty)
                restored = resolve_resident(handle)
                assert restored == empty
                assert restored.n_edges == 0
                assert len(restored.in_csr[1]) == 0
                assert len(restored.out_csr[1]) == 0
            finally:
                backend.close()

    def test_new_view_object_bumps_epoch_and_unlinks(self):
        """Identity-keyed, not equality-keyed: an equal but distinct graph
        object (a restored snapshot, a plan clone) re-exports and releases
        the old segment."""
        backend = ProcessBackend(max_workers=1)
        try:
            view = _grown_graph(seed=1)
            first = backend.ensure_resident("graph", view)
            # Same object => same registration, no re-export.
            assert backend.ensure_resident("graph", view) is first
            twin = _grown_graph(seed=1)
            assert twin == view and twin is not view
            second = backend.ensure_resident("graph", twin)
            assert second.epoch == first.epoch + 1
            assert second.token != first.token
            assert not _segment_exists(first.shm_name)
            assert _segment_exists(second.shm_name)
        finally:
            backend.close()

    def test_handle_is_small(self):
        backend = ProcessBackend(max_workers=1)
        try:
            handle = backend.ensure_resident("graph", _grown_graph(n=2000))
            assert len(pickle.dumps(handle)) < 2048
        finally:
            backend.close()


class TestResidentRestoreEquivalence:
    def test_restored_graph_answers_identically(self, graph):
        """Walks over the restored (view-backed) graph match the original."""
        from repro.config import SimRankParams
        from repro.core import montecarlo

        backend = ProcessBackend(max_workers=1)
        try:
            handle = backend.ensure_resident("graph", graph)
            restored = resolve_resident(handle)
            params = SimRankParams.fast_defaults()
            original = montecarlo.estimate_walk_distributions_batch(
                graph, [0, 3, 7], params)
            mirrored = montecarlo.estimate_walk_distributions_batch(
                restored, [0, 3, 7], params)
            for source in original:
                for (n_a, v_a), (n_b, v_b) in zip(
                        original[source].per_step, mirrored[source].per_step):
                    assert np.array_equal(n_a, n_b)
                    assert np.array_equal(v_a, v_b)
        finally:
            backend.close()
