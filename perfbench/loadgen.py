"""Lean HTTP/1.1 load generator: raw sockets, keep-alive, one thread.

The serving workload must measure the server, not its client.  This
client keeps a few persistent connections open, multiplexes them with
``selectors`` in a single thread, writes each request as one prebuilt
byte string and parses only the status line and ``Content-Length`` of
each response.  Two loop shapes are offered:

* :meth:`LoadGenerator.closed_loop` -- each connection sends its next
  request as soon as the previous reply arrives (callers that wait for
  an answer);
* :meth:`LoadGenerator.open_loop` -- requests are due on a fixed schedule at a stated
  rate, whether or not earlier ones have returned (independent users).
  Latency is timed from the scheduled send time, as wrk2 does, so a
  stall is charged to every request it delays; how late the generator
  itself ran is reported separately as lag.

Only the standard library is used, so the client adds nothing to the
server's import graph or address space.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

#: A phase that gets no reply for this long is a hung server.
STALL_S = 10.0

#: Margin kept when sleeping towards a due time (see ``open_loop``).
_SLEEP_SLACK_S = 0.0015

#: A request is a (key, prebuilt bytes) pair; the key names the
#: distinct answer it asks for, so bodies can be checked once per key.
Request = Tuple[str, bytes]


def http_get(path: str) -> bytes:
    """One keep-alive ``GET`` request as wire bytes."""
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii")


@dataclass
class LoadResult:
    """What one phase of load produced."""

    sent: int = 0
    ok: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    lags_s: List[float] = field(default_factory=list)
    #: First body seen for each distinct request key.
    bodies: Dict[str, bytes] = field(default_factory=dict)
    #: Successful replies per request key.
    counts: Dict[str, int] = field(default_factory=dict)
    statuses: Dict[int, int] = field(default_factory=dict)

    def extend(self, other: "LoadResult") -> None:
        """Add a later phase's results to this one's."""
        self.sent += other.sent
        self.ok += other.ok
        self.failed += other.failed
        self.wall_s += other.wall_s
        self.cpu_s += other.cpu_s
        self.latencies_s.extend(other.latencies_s)
        self.lags_s.extend(other.lags_s)
        for key, body in other.bodies.items():
            self.bodies.setdefault(key, body)
        for mine, theirs in ((self.counts, other.counts),
                             (self.statuses, other.statuses)):
            for key, n in theirs.items():
                mine[key] = mine.get(key, 0) + n


class _Conn:
    __slots__ = ("sock", "buf", "key", "due", "sent_at")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buf = bytearray()
        self.key: Optional[str] = None
        self.due = 0.0
        self.sent_at = 0.0


def _parse(buf: bytearray) -> Optional[Tuple[int, bytes, int]]:
    """``(status, body, consumed)`` when a whole response is buffered."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = bytes(buf[:end]).decode("latin-1")
    lines = head.split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
            break
    total = end + 4 + length
    if len(buf) < total:
        return None
    return status, bytes(buf[end + 4:total]), total


class LoadGenerator:
    """A fixed set of keep-alive connections to one ``host:port``."""

    def __init__(self, host: str, port: int, connections: int) -> None:
        if connections < 1:
            raise ValueError("connections must be >= 1")
        self._sel = selectors.DefaultSelector()
        self._conns: List[_Conn] = []
        try:
            for _ in range(connections):
                sock = socket.create_connection((host, port), timeout=10)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.setblocking(False)
                conn = _Conn(sock)
                self._conns.append(conn)
                self._sel.register(sock, selectors.EVENT_READ, conn)
        except OSError:
            self.close()
            raise

    def close(self) -> None:
        for conn in self._conns:
            try:
                self._sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conn.sock.close()
        self._conns = []
        self._sel.close()

    def __enter__(self) -> "LoadGenerator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing -------------------------------------------------------------

    @staticmethod
    def _send(conn: _Conn, key: str, wire: bytes, due: float,
              result: LoadResult) -> None:
        conn.key = key
        conn.due = due
        conn.sent_at = time.perf_counter()
        conn.sock.sendall(wire)
        result.sent += 1

    def _receive(
        self, timeout: Optional[float], result: LoadResult
    ) -> List[_Conn]:
        """Read ready sockets; return connections whose reply completed."""
        done = []
        events = self._sel.select(timeout)
        if not events and timeout is not None and timeout >= STALL_S:
            raise TimeoutError("no reply within the stall limit")
        for selkey, _ in events:
            conn: _Conn = selkey.data
            chunk = conn.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed a keep-alive connection")
            conn.buf += chunk
            parsed = _parse(conn.buf)
            if parsed is None:
                continue
            status, body, consumed = parsed
            del conn.buf[:consumed]
            now = time.perf_counter()
            result.statuses[status] = result.statuses.get(status, 0) + 1
            if status == 200:
                result.ok += 1
                seen = result.counts.get(conn.key, 0)
                result.counts[conn.key] = seen + 1
                if not seen:
                    result.bodies[conn.key] = body
            else:
                result.failed += 1
            result.latencies_s.append(now - conn.due)
            conn.key = None
            done.append(conn)
        return done

    # -- loop shapes ----------------------------------------------------------

    def closed_loop(
        self, requests: Iterator[Request], seconds: Optional[float] = None
    ) -> LoadResult:
        """Every connection keeps exactly one request in flight.

        Runs for ``seconds``, or until ``requests`` is exhausted when
        ``seconds`` is ``None``.
        """
        result = LoadResult()
        cpu0 = time.process_time()
        start = time.perf_counter()
        deadline = start + seconds if seconds is not None else None
        idle = list(self._conns)
        exhausted = False
        while True:
            if not exhausted and (
                deadline is None or time.perf_counter() < deadline
            ):
                for conn in idle:
                    request = next(requests, None)
                    if request is None:
                        exhausted = True
                        break
                    self._send(
                        conn, request[0], request[1], time.perf_counter(),
                        result,
                    )
                idle = []
            if all(c.key is None for c in self._conns):
                break
            idle = self._receive(STALL_S, result)
        result.wall_s = time.perf_counter() - start
        result.cpu_s = time.process_time() - cpu0
        return result

    def open_loop(
        self, requests: Iterator[Request], rate: float, seconds: float
    ) -> LoadResult:
        """Requests fall due every ``1/rate`` seconds for ``seconds``.

        A due request waits for an idle connection; that wait counts in
        its latency (measured from the due time) and in ``lags_s``.
        """
        result = LoadResult()
        interval = 1.0 / rate
        total = int(seconds * rate)
        cpu0 = time.process_time()
        start = time.perf_counter()
        idle = list(self._conns)
        issued = 0
        while issued < total or any(c.key is not None for c in self._conns):
            now = time.perf_counter()
            while issued < total and idle:
                due = start + issued * interval
                if due > now:
                    break
                key, wire = next(requests)
                conn = idle.pop()
                self._send(conn, key, wire, due, result)
                result.lags_s.append(conn.sent_at - due)
                issued += 1
            if issued < total and idle:
                # epoll sleeps in whole milliseconds, rounded up: sleep
                # short of the due time and poll for the rest, so the
                # generator's own lateness stays out of the latencies.
                wait = start + issued * interval - time.perf_counter()
                timeout = wait - _SLEEP_SLACK_S if wait > _SLEEP_SLACK_S else 0
            else:
                timeout = STALL_S
            idle.extend(self._receive(timeout, result))
        result.wall_s = time.perf_counter() - start
        result.cpu_s = time.process_time() - cpu0
        return result
