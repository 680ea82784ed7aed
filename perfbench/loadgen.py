"""The single-process asyncio load generator.

One event loop drives at most two keep-alive HTTP/1.1 connections (the
host has two cores).  Each request carries one wire-format query or one
update.  The paced phase is open-loop: requests become due on a schedule
that does not slow when the server slows, and every latency is measured
from the request's due time, so a request queued behind a stalled server
is charged the wait.  The saturated phase is closed-loop: both connections
send back-to-back to measure capacity.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

#: Per-request limit; a request still unanswered after it counts as failed.
REQUEST_TIMEOUT_S = 20.0


@dataclass
class Record:
    """One request as the client saw it."""

    group: str          # "q" query, "u" update
    conn: int
    body: bytes
    due: float          # monotonic seconds; the send time in closed loops
    sent: float
    done: float
    status: int         # 0 when the request failed without a response
    response: bytes
    error: str = ""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


class Connection:
    """A keep-alive HTTP/1.1 client connection that reopens after errors."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=1 << 20)

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _exchange(self, method: str, path: str,
                        body: bytes) -> Tuple[int, bytes]:
        if self._writer is None:
            await self._open()
        assert self._reader is not None and self._writer is not None
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        blob = await self._reader.readuntil(b"\r\n\r\n")
        lines = blob.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        keep_alive = True
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection":
                keep_alive = value.strip().lower() != "close"
        payload = await self._reader.readexactly(length) if length else b""
        if not keep_alive:
            await self.close()
        return status, payload

    async def request(self, method: str, path: str,
                      body: bytes = b"") -> Tuple[int, bytes]:
        """Send one request; raises on timeout, reset or malformed reply."""
        try:
            return await asyncio.wait_for(
                self._exchange(method, path, body), REQUEST_TIMEOUT_S)
        except BaseException:
            await self.close()
            raise


async def _timed(conn: Connection, index: int, group: str, body: bytes,
                 due: float) -> Record:
    path = "/update" if group == "u" else "/query"
    sent = time.monotonic()
    try:
        status, response = await conn.request("POST", path, body)
        error = ""
    except (asyncio.TimeoutError, asyncio.IncompleteReadError,
            ConnectionError, OSError, ValueError, IndexError) as exc:
        status, response, error = 0, b"", f"{type(exc).__name__}: {exc}"
    return Record(group, index, body, due, sent, time.monotonic(), status,
                  response, error)


@dataclass
class PacedResult:
    records: List[Record]
    gen_lag_ms: List[float]


async def run_paced(conns: Sequence[Connection],
                    events: Sequence[Tuple[float, str, bytes]],
                    shared: bool) -> PacedResult:
    """Open-loop phase: dispatch each event at its due time.

    ``shared``: both connections serve one FIFO of due requests (reads);
    otherwise connection 0 serves queries and connection 1 updates.
    ``gen_lag_ms`` is how late the generator itself woke for each due
    time — the part of lateness the server did not cause.
    """
    queues = [asyncio.Queue() for _ in conns]
    records: List[Record] = []
    lags: List[float] = []

    async def worker(index: int, queue: "asyncio.Queue") -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            group, body, due = item
            records.append(await _timed(conns[index], index, group, body, due))

    workers = [asyncio.ensure_future(worker(i, queues[0] if shared else queues[i]))
               for i in range(len(conns))]
    start = time.monotonic() + 0.05
    try:
        for offset, group, body in events:
            due = start + offset
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(max(0.0, time.monotonic() - due) * 1e3)
            queue = queues[0] if shared or group == "q" else queues[1]
            queue.put_nowait((group, body, due))
        for queue in (queues[:1] * len(conns) if shared else queues):
            queue.put_nowait(None)
        await asyncio.gather(*workers)
    finally:
        for task in workers:
            task.cancel()
    return PacedResult(records, lags)


async def run_closed(conns: Sequence[Connection], bodies: Iterator[bytes],
                     seconds: Optional[float] = None) -> Tuple[List[Record], float]:
    """Closed-loop phase: every connection sends back-to-back.

    Stops issuing at ``seconds`` (or when ``bodies`` runs out); returns the
    records and the elapsed time up to the last completion.
    """
    records: List[Record] = []
    start = time.monotonic()
    deadline = None if seconds is None else start + seconds

    async def worker(index: int) -> None:
        for body in bodies:
            if deadline is not None and time.monotonic() >= deadline:
                return
            now = time.monotonic()
            records.append(await _timed(conns[index], index, "q", body, now))

    await asyncio.gather(*(worker(i) for i in range(len(conns))))
    end = max((record.done for record in records), default=time.monotonic())
    return records, end - start


async def get_json(conn: Connection, path: str) -> dict:
    status, payload = await conn.request("GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(payload)


async def post_json(conn: Connection, path: str, body: bytes) -> Tuple[int, dict]:
    status, payload = await conn.request("POST", path, body)
    return status, json.loads(payload) if payload else {}
