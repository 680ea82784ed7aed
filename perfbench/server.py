"""The server under test as a subprocess: start, observe through /proc, stop.

The server gets only the graph file, the index file and HTTP requests.
It is started on an ephemeral port (announced on its ``serving on`` line)
and stopped with SIGTERM; a run passes only if the graceful drain prints
``shutdown complete`` and exits 0 within the limit, and nothing listens
on the port afterwards.
"""

from __future__ import annotations

import http.client
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import List, Optional, Sequence, Tuple

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    """The server failed to start, crashed, or did not drain gracefully."""


class Server:
    def __init__(self, argv: Sequence[str], env: dict, log_path: str) -> None:
        self.argv = list(argv)
        self.env = env
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.lines: List[str] = []
        self._reader: Optional[threading.Thread] = None
        self._log = None

    def start(self) -> float:
        """Start and wait for the ``serving on`` line; returns the seconds taken."""
        began = time.perf_counter()
        self._log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable] + self.argv, stdout=subprocess.PIPE,
            stderr=self._log, env=self.env, text=True, start_new_session=True)
        ready = threading.Event()

        def read() -> None:
            assert self.proc is not None and self.proc.stdout is not None
            for line in self.proc.stdout:
                self.lines.append(line.rstrip("\n"))
                if line.startswith("serving on http://"):
                    self.port = int(line.split(":")[2].split()[0])
                    ready.set()
            ready.set()

        self._reader = threading.Thread(target=read, daemon=True)
        self._reader.start()
        if not ready.wait(START_TIMEOUT_S) or not self.port:
            self.kill()
            raise ServerError(f"server did not announce a port: {self.tail()}")
        # The server installs its SIGTERM handler just after the announcement;
        # one answered request proves it is in place.
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=START_TIMEOUT_S)
        try:
            connection.request("GET", "/healthz")
            if connection.getresponse().status != 200:
                raise ServerError("GET /healthz failed after start")
        finally:
            connection.close()
        return time.perf_counter() - began

    def tail(self) -> str:
        """The last stdout lines and stderr bytes, for failure messages."""
        try:
            with open(self.log_path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                handle.seek(max(0, handle.tell() - 600))
                stderr = handle.read().decode("utf-8", "replace").strip()
        except OSError:
            stderr = ""
        return " | ".join(self.lines[-3:] + ([f"stderr: {stderr}"] if stderr else []))

    def cpu_seconds(self) -> float:
        """utime + stime of the server process so far."""
        with open(f"/proc/{self.proc.pid}/stat", "r") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """VmHWM: the server's peak resident set size."""
        with open(f"/proc/{self.proc.pid}/status", "r") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    def stop(self) -> Tuple[bool, str]:
        """SIGTERM, then require the graceful drain; kills on failure.

        Returns ``(graceful, message)``.
        """
        if self.proc is None:
            return True, "not started"
        try:
            if self.proc.poll() is not None:
                return False, (f"server exited early with {self.proc.returncode}: "
                               f"{self.tail()}")
            self.proc.send_signal(signal.SIGTERM)
            try:
                code = self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return False, f"server did not drain within {STOP_TIMEOUT_S}s"
            if self._reader is not None:
                self._reader.join(5.0)
            if code != 0:
                return False, f"server exited with {code}: {self.tail()}"
            if not any(line.startswith("shutdown complete") for line in self.lines):
                return False, f"no 'shutdown complete' line: {self.tail()}"
            if _listening(self.port):
                return False, f"port {self.port} still accepts connections"
            return True, "graceful"
        finally:
            self.kill()

    def kill(self) -> None:
        """Make sure neither the server nor anything it started survives."""
        if self.proc is not None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait(10)
        if self._reader is not None:
            self._reader.join(5.0)
        if self.proc is not None and self.proc.stdout is not None:
            self.proc.stdout.close()
        if self._log is not None:
            self._log.close()
            self._log = None


def host_cpu_ticks() -> Tuple[int, int]:
    """(steal ticks, all ticks) of the host's CPUs from ``/proc/stat``.

    Steal is time the hypervisor ran something else while this machine's
    CPUs wanted to run; on a shared host it is the main source of
    run-to-run noise, so the benchmark reports its share over the window.
    """
    with open("/proc/stat", "r") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def _listening(port: int) -> bool:
    with socket.socket() as probe:
        probe.settimeout(1.0)
        return probe.connect_ex(("127.0.0.1", port)) == 0
