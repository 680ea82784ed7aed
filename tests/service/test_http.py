"""Tests for the asyncio HTTP/JSON serving tier (``service/http.py``).

Three layers of coverage:

* **protocol** — endpoints, status mapping (400 wire errors single-sourced
  through ``parse_query``/``parse_edge``, 404 unknown nodes, 405/404
  routing, 429/503 backpressure), keep-alive, and bitwise identity of
  decoded responses with the in-process service;
* **lifecycle** — ``stop()`` during in-flight requests drains rather than
  drops, is idempotent, and leaves the service's ``close()`` a safe no-op
  for the CLI's ``finally`` path;
* **concurrency** — overlapping real clients during deferred update
  drains observe monotone index versions and no torn reads (every
  response bitwise-matches a single-threaded reference at the version the
  response reports), including while live plan migrations race the
  coalescer and the drain strand;
* **rebalancing** — ``POST /rebalance`` migrates without changing any
  answer, and the ``auto_rebalance`` strand migrates on its own when the
  observed load is skewed enough.
"""

import asyncio
import http.client
import json
import random
import signal
import threading
import time

import numpy as np
import pytest

from repro.config import (
    RebalanceParams,
    ServiceParams,
    ShardingParams,
    SimRankParams,
    UpdateParams,
)
from repro.graph import generators
from repro.graph.partition import ShardPlan
from repro.service import QueryService, ShardedQueryService, parse_query
from repro.service.http import HttpServiceServer, edge_from_wire, encode_answer

PARAMS = SimRankParams(c=0.6, walk_steps=3, jacobi_iterations=2,
                       index_walkers=15, query_walkers=40, seed=23)
QUERY_LINES = ["pair 3 7", "source 12", "topk 5 4"]
EDIT_BATCHES = [
    [(0, 40)],
    [(1, 55), (2, 63)],
    [(4, 70)],
    [(6, 80), (80, 3)],
]


def _graph():
    return generators.copying_model_graph(90, out_degree=4, seed=3)


def _sharded(graph, **service_overrides):
    service_params = ServiceParams(
        cache_capacity=32, serve_backend="threads", serve_workers=2,
        coalesce_window=0.005, **service_overrides,
    )
    return ShardedQueryService.build(
        graph, PARAMS, service_params=service_params,
        sharding=ShardingParams(num_shards=3),
    )


def _expected(reference_service, lines):
    queries = [parse_query(line, default_k=10) for line in lines]
    answers = reference_service.run_batch(queries)
    return ([encode_answer(query, answer)
             for query, answer in zip(queries, answers)],
            answers.index_version)


async def _send(reader, writer, method, path, payload=None, close=False):
    """One raw HTTP/1.1 exchange on an open connection."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {len(body)}\r\n")
    if close:
        head += "Connection: close\r\n"
    writer.write(head.encode("latin-1") + b"\r\n" + body)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    data = await reader.readexactly(length) if length else b""
    return status, (json.loads(data) if data else {}), headers


async def _request(port, method, path, payload=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        status, data, _headers = await _send(reader, writer, method, path,
                                             payload, close=True)
        return status, data
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _serve(service, scenario, **server_overrides):
    """Run ``scenario(server)`` against a started server, then stop it."""
    async def body():
        server = HttpServiceServer(service, port=0, **server_overrides)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return asyncio.run(body())


class TestProtocol:
    def test_health_version_stats(self):
        service = _sharded(_graph())
        version = service.index_version

        async def scenario(server):
            health = await _request(server.port, "GET", "/healthz")
            ver = await _request(server.port, "GET", "/version")
            stats = await _request(server.port, "GET", "/stats")
            return health, ver, stats

        (h_status, health), (v_status, ver), (s_status, stats) = _serve(
            service, scenario
        )
        assert (h_status, health) == (200, {"status": "ok",
                                            "index_version": version})
        assert (v_status, ver) == (200, {"index_version": version})
        assert s_status == 200
        assert stats["index_version"] == version
        assert stats["http"]["requests"] >= 2
        assert "batches" in stats["coalescer"]

    def test_query_round_trip_is_bitwise_identical(self):
        graph = _graph()
        service = _sharded(graph)
        with QueryService.build(graph, PARAMS) as reference:
            expected, version = _expected(reference, QUERY_LINES)

        async def scenario(server):
            return await _request(server.port, "POST", "/query",
                                  {"queries": QUERY_LINES})

        status, payload = _serve(service, scenario)
        assert status == 200
        assert payload["answers"] == expected
        assert payload["index_version"] == version

    def test_malformed_query_is_400_naming_the_input(self):
        service = _sharded(_graph())

        async def scenario(server):
            return await _request(server.port, "POST", "/query",
                                  {"queries": ["pair 3"]})

        status, payload = _serve(service, scenario)
        assert status == 400
        assert "pair 3" in payload["error"]

    def test_unknown_node_is_404(self):
        service = _sharded(_graph())

        async def scenario(server):
            return await _request(server.port, "POST", "/query",
                                  {"queries": ["pair 0 999999"]})

        status, payload = _serve(service, scenario)
        assert status == 404
        assert "999999" in payload["error"]

    def test_routing_errors(self):
        service = _sharded(_graph())

        async def scenario(server):
            return (
                await _request(server.port, "GET", "/nope"),
                await _request(server.port, "POST", "/healthz"),
                await _request(server.port, "POST", "/query", {"queries": []}),
            )

        (unknown, wrong_method, empty) = _serve(service, scenario)
        assert unknown[0] == 404
        assert wrong_method[0] == 405
        assert empty[0] == 400

    def test_update_wire_validation_is_single_sourced(self):
        """HTTP edge rejections carry the exact ``parse_edge`` message —
        surplus tokens and negative ids are refused naming the input."""
        service = _sharded(_graph())

        async def scenario(server):
            return (
                await _request(server.port, "POST", "/update",
                               {"edges": ["1 2 3"]}),
                await _request(server.port, "POST", "/update",
                               {"edges": [[-1, 2]]}),
            )

        surplus, negative = _serve(service, scenario)
        assert surplus[0] == 400
        assert negative[0] == 400
        with pytest.raises(ValueError) as surplus_ref:
            edge_from_wire("1 2 3")
        with pytest.raises(ValueError) as negative_ref:
            edge_from_wire([-1, 2])
        assert surplus[1]["error"] == str(surplus_ref.value)
        assert negative[1]["error"] == str(negative_ref.value)
        assert "surplus" in surplus[1]["error"]
        assert "non-negative" in negative[1]["error"]

    def test_waited_update_bumps_version_and_answers_track(self):
        graph = _graph()
        service = _sharded(graph)
        edges = [[0, 40], "1 55"]
        with QueryService.build(graph, PARAMS) as reference:
            before, version_before = _expected(reference, QUERY_LINES)
            reference.add_edges([edge_from_wire(entry) for entry in edges])
            after, version_after = _expected(reference, QUERY_LINES)

        async def scenario(server):
            first = await _request(server.port, "POST", "/query",
                                   {"queries": QUERY_LINES})
            update = await _request(server.port, "POST", "/update",
                                    {"edges": edges, "wait": True})
            second = await _request(server.port, "POST", "/query",
                                    {"queries": QUERY_LINES})
            return first, update, second

        first, update, second = _serve(service, scenario)
        assert first == (200, {"answers": before,
                               "index_version": version_before})
        assert update == (200, {"index_version": version_after})
        assert second == (200, {"answers": after,
                                "index_version": version_after})

    def test_fire_and_forget_update_is_accepted_and_drained(self):
        service = _sharded(_graph())
        version = service.index_version

        async def scenario(server):
            status, payload = await _request(
                server.port, "POST", "/update", {"edges": [[0, 40]]}
            )
            deadline = asyncio.get_running_loop().time() + 10.0
            while (service.index_version == version
                   and asyncio.get_running_loop().time() < deadline):
                await asyncio.sleep(0.01)
            return status, payload, service.index_version

        status, payload, drained_version = _serve(service, scenario)
        assert status == 202
        assert payload["queued"] == 1
        assert drained_version == version + 1

    def test_update_burst_past_pending_bound_is_429(self):
        graph = _graph()
        service = ShardedQueryService.build(
            graph, PARAMS,
            service_params=ServiceParams(serve_backend="threads",
                                         serve_workers=2),
            update_params=UpdateParams(max_pending_edges=2),
            sharding=ShardingParams(num_shards=2),
        )

        async def scenario(server):
            return await _request(
                server.port, "POST", "/update",
                {"edges": [[0, 40], [1, 41], [2, 42]]},
            )

        status, payload = _serve(service, scenario)
        assert status == 429
        assert "retry with backoff" in payload["error"]

    def test_query_admission_past_max_in_flight_is_503(self):
        service = _sharded(_graph())

        async def scenario(server):
            return await _request(server.port, "POST", "/query",
                                  {"queries": ["pair 1 2", "pair 3 4"]})

        status, payload = _serve(service, scenario, max_in_flight=1)
        assert status == 503
        assert "retry with backoff" in payload["error"]

    def test_keep_alive_serves_multiple_requests_per_connection(self):
        service = _sharded(_graph())

        async def scenario(server):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           server.port)
            try:
                first = await _send(reader, writer, "GET", "/version")
                second = await _send(reader, writer, "POST", "/query",
                                     {"queries": ["pair 1 2"]})
                third = await _send(reader, writer, "GET", "/healthz",
                                    close=True)
                trailing = await reader.read()
                return first, second, third, trailing
            finally:
                writer.close()

        first, second, third, trailing = _serve(service, scenario)
        assert first[0] == 200 and first[2]["connection"] == "keep-alive"
        assert second[0] == 200
        assert third[0] == 200 and third[2]["connection"] == "close"
        assert trailing == b""  # the server honoured Connection: close

    def test_malformed_framing_is_answered_then_closed(self):
        service = _sharded(_graph())

        async def scenario(server):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           server.port)
            try:
                writer.write(b"NOT-HTTP\r\n\r\n")
                await writer.drain()
                status_line = await reader.readline()
                return status_line
            finally:
                writer.close()

        status_line = _serve(service, scenario)
        assert b"400" in status_line

    def _send_raw(self, service, raw):
        """Send ``raw`` then half-close; return (reply bytes, bad_requests)."""
        async def scenario(server):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           server.port)
            try:
                writer.write(raw)
                writer.write_eof()
                await writer.drain()
                reply = await asyncio.wait_for(reader.read(), timeout=10)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass
            return reply, server._counters["bad_requests"]

        return _serve(service, scenario)

    def test_negative_content_length_is_a_counted_400(self):
        reply, bad = self._send_raw(
            _sharded(_graph()),
            b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"negative Content-Length" in reply
        assert bad == 1

    def test_truncated_body_is_a_counted_bad_request_and_closes(self):
        reply, bad = self._send_raw(
            _sharded(_graph()),
            b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\n"
            b'{"queries"')
        # One 400, then the server closes: read() returned at EOF.
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert reply.count(b"HTTP/1.1") == 1
        assert bad == 1


class TestLifecycle:
    def test_signal_handlers_are_installed_before_the_announcement(self):
        """A supervisor may SIGTERM the server the moment it reads the
        ``serving on`` line, so the handlers must already be in place."""
        service = _sharded(_graph())
        default = signal.getsignal(signal.SIGTERM)
        lines = []

        class Out:
            def write(self, text):
                if text.startswith("serving on"):
                    assert signal.getsignal(signal.SIGTERM) is not default, (
                        "announced before the SIGTERM handler was installed"
                    )
                    # Safe only because the handler is installed.
                    signal.raise_signal(signal.SIGTERM)
                lines.append(text)

            def flush(self):
                pass

        try:
            HttpServiceServer(service, port=0).run(out=Out())
        finally:
            service.close()
        assert lines[0].startswith("serving on")
        assert any(line.startswith("shutdown complete") for line in lines)

    def test_stop_during_in_flight_request_drains_not_drops(self):
        graph = _graph()
        service = _sharded(graph)
        with QueryService.build(graph, PARAMS) as reference:
            expected, version = _expected(reference, QUERY_LINES)

        async def body():
            # A long window parks the submission inside the coalescer, so
            # stop() races a genuinely in-flight request.
            server = HttpServiceServer(service, port=0, coalesce_window=0.5)
            await server.start()
            task = asyncio.ensure_future(_request(
                server.port, "POST", "/query", {"queries": QUERY_LINES}
            ))
            # Wait until the request is admitted (waiting in the window);
            # a fixed sleep can lose that race on a slow host.
            deadline = time.monotonic() + 10
            while server._active_requests == 0 and time.monotonic() < deadline:
                await asyncio.sleep(0.005)
            assert server._active_requests == 1
            await server.stop()
            return await task

        status, payload = asyncio.run(body())
        assert status == 200, "stop() dropped an admitted request"
        assert payload["answers"] == expected
        assert payload["index_version"] == version

    def test_stop_is_idempotent_and_close_stays_safe(self):
        service = _sharded(_graph())

        async def body():
            server = HttpServiceServer(service, port=0)
            await server.start()
            await server.stop()
            await server.stop()  # second stop: no-op

        asyncio.run(body())
        # stop() already closed the service; the CLI's ``finally`` close
        # must remain a safe no-op (pools released exactly once).
        service.close()
        service.close()

    def test_plain_query_service_is_served_on_one_strand(self):
        """A non-thread-safe ``QueryService`` still gets correct answers
        and live updates — drains share the query strand."""
        graph = _graph()
        service = QueryService.build(graph, PARAMS)
        with QueryService.build(graph, PARAMS) as reference:
            before, version_before = _expected(reference, QUERY_LINES)
            reference.add_edges([(0, 40)])
            after, version_after = _expected(reference, QUERY_LINES)

        async def scenario(server):
            first = await _request(server.port, "POST", "/query",
                                   {"queries": QUERY_LINES})
            update = await _request(server.port, "POST", "/update",
                                    {"edges": [[0, 40]], "wait": True})
            second = await _request(server.port, "POST", "/query",
                                    {"queries": QUERY_LINES})
            return first, update, second

        first, update, second = _serve(service, scenario)
        assert first == (200, {"answers": before,
                               "index_version": version_before})
        assert update == (200, {"index_version": version_after})
        assert second == (200, {"answers": after,
                                "index_version": version_after})


class _LoopThread:
    """Runs a started server's event loop on a daemon thread, so real
    ``http.client`` threads can hammer it (the concurrency suite)."""

    def __init__(self, server):
        self.server = server
        self.loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._ready.set()
        self.loop.run_forever()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=60), "server failed to start"
        return self

    def __exit__(self, *exc_info):
        future = asyncio.run_coroutine_threadsafe(self.server.stop(),
                                                  self.loop)
        future.result(timeout=120)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=30)
        self.loop.close()
        return False


class TestConcurrency:
    def test_overlapping_clients_during_drains_see_no_torn_reads(self):
        """Real client threads query while updates drain: every response
        must match a single-threaded reference at its reported version,
        and each client's observed versions must be monotone."""
        graph = _graph()

        # Reference: single-shard, single-threaded answers per version.
        by_version = {}
        with QueryService.build(graph, PARAMS) as reference:
            answers, version = _expected(reference, QUERY_LINES)
            by_version[version] = answers
            for batch in EDIT_BATCHES:
                assert reference.add_edges(batch) is not None
                answers, version = _expected(reference, QUERY_LINES)
                by_version[version] = answers
        final_version = max(by_version)

        service = _sharded(graph)
        observations = {0: [], 1: [], 2: []}
        errors = []
        stop = threading.Event()

        def client(slot):
            connection = http.client.HTTPConnection("127.0.0.1", port,
                                                    timeout=60)
            try:
                while not stop.is_set():
                    body = json.dumps({"queries": QUERY_LINES}).encode()
                    connection.request("POST", "/query", body,
                                       {"Content-Type": "application/json"})
                    response = connection.getresponse()
                    payload = json.loads(response.read().decode("utf-8"))
                    if response.status != 200:
                        raise AssertionError(
                            f"query failed: {response.status} {payload}"
                        )
                    observations[slot].append(
                        (payload["index_version"], payload["answers"])
                    )
            except Exception as exc:  # noqa: BLE001 — surfaced after join
                errors.append(exc)
            finally:
                connection.close()

        with _LoopThread(HttpServiceServer(service, port=0,
                                           coalesce_window=0.002)) as running:
            port = running.server.port
            threads = [threading.Thread(target=client, args=(slot,))
                       for slot in observations]
            for thread in threads:
                thread.start()
            try:
                updater = http.client.HTTPConnection("127.0.0.1", port,
                                                     timeout=60)
                try:
                    for batch in EDIT_BATCHES:
                        body = json.dumps({
                            "edges": [list(edge) for edge in batch],
                            "wait": True,
                        }).encode()
                        updater.request("POST", "/update", body,
                                        {"Content-Type": "application/json"})
                        response = updater.getresponse()
                        payload = json.loads(response.read().decode("utf-8"))
                        assert response.status == 200, payload
                        time.sleep(0.02)  # let batches land on this version
                finally:
                    updater.close()
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)

        assert errors == []
        assert service.index_version == final_version
        total = 0
        for slot, seen in observations.items():
            versions = [version for version, _ in seen]
            assert versions == sorted(versions), (
                f"client {slot} observed versions going backwards: {versions}"
            )
            for version, answers in seen:
                assert answers == by_version[version], (
                    f"torn read: answers at version {version} diverged"
                )
                total += 1
        assert total > 0, "concurrency run produced no observations"

    def test_migrations_racing_drains_and_clients_stay_bitwise_stable(self):
        """Live plan migrations race deferred-update drains and the HTTP
        coalescer: every response must bitwise-match one of the reference
        answer states (migrations add versions but never answers), each
        client's versions stay monotone, and any two responses reporting
        the same version must carry identical answers (no torn reads)."""
        graph = _graph()
        n = graph.n_nodes

        # Reference states: answers after 0..len(EDIT_BATCHES) drained
        # batches.  A migration between drains serves the *same* state
        # under a new index version, so responses are validated against
        # the set of states rather than a version-keyed map.
        states = []
        with QueryService.build(graph, PARAMS) as reference:
            answers, base_version = _expected(reference, QUERY_LINES)
            states.append(answers)
            for batch in EDIT_BATCHES:
                assert reference.add_edges(batch) is not None
                answers, _version = _expected(reference, QUERY_LINES)
                states.append(answers)

        service = _sharded(graph)
        rng = random.Random(7)
        observations = {0: [], 1: [], 2: []}
        errors = []
        stop = threading.Event()

        def client(slot):
            connection = http.client.HTTPConnection("127.0.0.1", port,
                                                    timeout=60)
            try:
                while not stop.is_set():
                    body = json.dumps({"queries": QUERY_LINES}).encode()
                    connection.request("POST", "/query", body,
                                       {"Content-Type": "application/json"})
                    response = connection.getresponse()
                    payload = json.loads(response.read().decode("utf-8"))
                    if response.status != 200:
                        raise AssertionError(
                            f"query failed: {response.status} {payload}"
                        )
                    observations[slot].append(
                        (payload["index_version"], payload["answers"])
                    )
            except Exception as exc:  # noqa: BLE001 — surfaced after join
                errors.append(exc)
            finally:
                connection.close()

        migrations = 0
        with _LoopThread(HttpServiceServer(service, port=0,
                                           coalesce_window=0.002)) as running:
            port = running.server.port
            threads = [threading.Thread(target=client, args=(slot,))
                       for slot in observations]
            for thread in threads:
                thread.start()
            try:
                updater = http.client.HTTPConnection("127.0.0.1", port,
                                                     timeout=60)
                try:
                    for batch in EDIT_BATCHES:
                        body = json.dumps({
                            "edges": [list(edge) for edge in batch],
                            "wait": True,
                        }).encode()
                        updater.request("POST", "/update", body,
                                        {"Content-Type": "application/json"})
                        response = updater.getresponse()
                        payload = json.loads(response.read().decode("utf-8"))
                        assert response.status == 200, payload
                        # Migrate to a random plan while clients hammer the
                        # coalescer.  rebalance() serialises against drains
                        # on the update lock, so this genuinely interleaves
                        # with in-flight queries, not with the drain itself.
                        plan = ShardPlan(
                            num_shards=3, strategy="partitioner",
                            assignment=np.array(
                                [rng.randrange(3) for _ in range(n)]
                            ),
                        )
                        report = service.rebalance(plan=plan, force=True)
                        assert report["applied"] is True, report
                        migrations += 1
                finally:
                    updater.close()
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)

        assert errors == []
        assert migrations == len(EDIT_BATCHES)
        # Updates and migrations each bump the version exactly once.
        assert service.index_version == (
            base_version + len(EDIT_BATCHES) + migrations
        )

        by_version = {}
        total = 0
        for slot, seen in observations.items():
            versions = [version for version, _ in seen]
            assert versions == sorted(versions), (
                f"client {slot} observed versions going backwards: {versions}"
            )
            for version, answers in seen:
                assert answers in states, (
                    f"torn read: answers at version {version} match no "
                    f"reference state"
                )
                previous = by_version.setdefault(version, answers)
                assert previous == answers, (
                    f"torn read: version {version} served two different "
                    f"answer sets"
                )
                total += 1
        assert total > 0, "migration stress produced no observations"


class TestRebalance:
    def _contiguous(self, graph, rebalance, **service_overrides):
        service_overrides.setdefault("cache_capacity", 32)
        service_params = ServiceParams(
            serve_backend="threads", serve_workers=2,
            coalesce_window=0.005, **service_overrides,
        )
        return ShardedQueryService.build(
            graph, PARAMS, service_params=service_params,
            sharding=ShardingParams(num_shards=3, strategy="contiguous"),
            rebalance_params=rebalance,
        )

    def test_rebalance_endpoint_migrates_without_changing_answers(self):
        graph = _graph()
        service = self._contiguous(graph, RebalanceParams(min_sources=0))
        with QueryService.build(graph, PARAMS) as reference:
            expected, version = _expected(reference, QUERY_LINES)

        async def scenario(server):
            before = await _request(server.port, "POST", "/query",
                                    {"queries": QUERY_LINES})
            report = await _request(server.port, "POST", "/rebalance",
                                    {"force": True})
            after = await _request(server.port, "POST", "/query",
                                   {"queries": QUERY_LINES})
            stats = await _request(server.port, "GET", "/stats")
            return before, report, after, stats

        before, (r_status, report), after, (s_status, stats) = _serve(
            service, scenario
        )
        assert before == (200, {"answers": expected,
                                "index_version": version})
        assert r_status == 200
        assert report["applied"] is True
        # The migration bumped the version without changing any answer.
        assert after == (200, {"answers": expected,
                               "index_version": version + 1})
        assert s_status == 200
        assert stats["plan_generation"] == 2
        assert stats["http"]["rebalances_triggered"] == 1
        assert stats["http"]["rebalances_applied"] == 1
        assert stats["http"]["rebalances_skipped"] == 0

    def test_unforced_rebalance_below_threshold_is_skipped(self):
        service = self._contiguous(_graph(), RebalanceParams())

        async def scenario(server):
            report = await _request(server.port, "POST", "/rebalance", {})
            stats = await _request(server.port, "GET", "/stats")
            return report, stats

        (r_status, report), (_s, stats) = _serve(service, scenario)
        assert r_status == 200
        assert report["applied"] is False
        assert stats["plan_generation"] == 1
        assert stats["http"]["rebalances_skipped"] == 1
        assert stats["http"]["rebalances_applied"] == 0

    def test_rebalance_on_plain_service_is_400(self):
        service = QueryService.build(_graph(), PARAMS)

        async def scenario(server):
            return await _request(server.port, "POST", "/rebalance",
                                  {"force": True})

        status, payload = _serve(service, scenario)
        assert status == 400
        assert "not sharded" in payload["error"]

    def test_rebalance_force_must_be_boolean(self):
        service = self._contiguous(_graph(), RebalanceParams(min_sources=0))

        async def scenario(server):
            return await _request(server.port, "POST", "/rebalance",
                                  {"force": "yes"})

        status, payload = _serve(service, scenario)
        assert status == 400
        assert "force" in payload["error"]

    def test_auto_rebalance_strand_migrates_on_skewed_load(self):
        """With ``auto_rebalance`` on and a hot contiguous shard, the
        periodic strand migrates on its own — and the migrated service
        keeps serving bitwise-identical answers."""
        graph = _graph()
        # All hot sources live in shard 0 of the contiguous plan; a tiny
        # cold weight makes observed skew dominate the planner's view.
        service = self._contiguous(
            graph,
            RebalanceParams(min_sources=2, cold_weight=0.01,
                            improvement_threshold=1.5, check_interval=0.05),
            cache_capacity=0,
        )
        hot = ["source 1", "source 2", "source 3", "source 4"]
        with QueryService.build(graph, PARAMS) as reference:
            expected, version = _expected(reference, hot)

        async def scenario(server):
            first = await _request(server.port, "POST", "/query",
                                   {"queries": hot})
            deadline = asyncio.get_running_loop().time() + 30.0
            stats = {}
            while asyncio.get_running_loop().time() < deadline:
                _status, stats = await _request(server.port, "GET", "/stats")
                if stats["http"]["rebalances_applied"]:
                    break
                await asyncio.sleep(0.02)
            second = await _request(server.port, "POST", "/query",
                                    {"queries": hot})
            return first, second, stats

        first, second, stats = _serve(service, scenario, auto_rebalance=True)
        assert first == (200, {"answers": expected,
                               "index_version": version})
        assert stats["http"]["rebalances_applied"] >= 1, (
            "auto-rebalance strand never migrated a clearly skewed load"
        )
        assert second[0] == 200
        assert second[1]["answers"] == expected
        assert second[1]["index_version"] > version
        assert service.plan.strategy == "partitioner"
