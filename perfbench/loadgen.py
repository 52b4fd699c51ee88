"""Open-loop load generator: one thread, one TCP connection, fixed schedule.

Request ``i`` of a step is due at ``start + i / rate`` no matter how the
daemon is doing, so a slow daemon sees the same offered load as a fast one
and its queue can grow.  Each latency is timed from the request's *due*
time to the moment its response line is read, which charges a stall to
every request scheduled behind it.  The generator also records how late it
sent each request against its own schedule and how many requests were in
flight, so a step whose generator fell behind can be marked invalid
instead of being counted.

Pure stdlib and no ``repro`` import: the generator measures the daemon,
it must not share code paths with it.
"""

from __future__ import annotations

import json
import select
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Sequence, Tuple

# in-flight depth is sampled this often (seconds) for the backlog trend
DEPTH_SAMPLE_PERIOD = 0.05


@dataclass
class StepResult:
    """What one fixed-rate step measured."""

    rate: float
    sent: int = 0
    latencies_ms: List[float] = field(default_factory=list)  # ok responses
    failed: int = 0  # error/429/503 responses and unanswered requests
    protocol_errors: List[str] = field(default_factory=list)
    rejects: int = 0  # ok responses whose decision was "reject"
    late_ms_max: float = 0.0
    depth_samples: List[Tuple[float, int]] = field(default_factory=list)
    max_staleness: int = 0
    # (request index, publish seq, read time, published utility) of every
    # ok response
    reads: List[Tuple[int, int, float, float]] = field(default_factory=list)
    started: float = 0.0  # monotonic time the first request was due

    @property
    def throughput(self) -> float:
        """Answered requests per second, first due time to last answer."""
        if not self.reads:
            return 0.0
        return len(self.latencies_ms) / (self.reads[-1][2] - self.started)

    @property
    def backlog_max(self) -> int:
        return max((d for _t, d in self.depth_samples), default=0)


class Connection:
    """A non-blocking newline-delimited JSON connection to the daemon."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self._inbuf = b""
        self._next_id = 0

    def next_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def recv_lines(self) -> List[bytes]:
        """Every complete line currently readable (may be empty)."""
        try:
            chunk = self.sock.recv(1 << 18)
        except BlockingIOError:
            return []
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self._inbuf += chunk
        *lines, self._inbuf = self._inbuf.split(b"\n")
        return lines

    def request(self, op: str, timeout: float = 60.0) -> Dict:
        """One blocking request/response round-trip (reads and control)."""
        payload = json.dumps({"op": op, "id": self.next_id()}).encode() + b"\n"
        _send_all(self.sock, payload, time.monotonic() + timeout)
        deadline = time.monotonic() + timeout
        while True:
            lines = self.recv_lines()
            if lines:
                if len(lines) != 1 or self._inbuf:
                    raise ConnectionError(f"unexpected extra response to {op}")
                return json.loads(lines[0])
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"no response to {op} within {timeout}s")
            select.select([self.sock], [], [], remaining)

    def close(self) -> None:
        self.sock.close()


def _send_all(sock: socket.socket, data: bytes, deadline: float) -> None:
    view = memoryview(data)
    while view:
        try:
            n = sock.send(view)
            view = view[n:]
        except BlockingIOError:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("send stalled")
            select.select([], [sock], [], remaining)


def run_step(
    conn: Connection,
    payloads: Sequence[bytes],
    rate: float,
    duration: float,
    drain_timeout: float = 10.0,
) -> StepResult:
    """Offer ``rate`` requests/s for ``duration`` s, then wait for answers.

    ``payloads`` are request lines *without* an id (the id is spliced in
    here so it stays unique on the connection); the step sends the first
    ``int(rate * duration)`` of them.  Responses must come back in request
    order with matching ids -- anything else is a protocol error.
    Requests still unanswered ``drain_timeout`` s after the last due time
    count as failed.
    """
    count = int(rate * duration)
    if count > len(payloads):
        raise ValueError(f"step needs {count} requests, stream has {len(payloads)}")
    result = StepResult(rate=rate, sent=count)
    sock = conn.sock
    inflight: Deque[Tuple[int, float, int]] = deque()  # (id, due, index)
    out = bytearray()
    start = time.monotonic() + 0.01
    result.started = start
    interval = 1.0 / rate
    end_by = start + (count - 1) * interval + drain_timeout
    next_sample = start
    i = 0
    while i < count or inflight:
        now = time.monotonic()
        while i < count and start + i * interval <= now:
            due = start + i * interval
            request_id = conn.next_id()
            body = payloads[i]
            out += body[:-2] + b', "id": ' + str(request_id).encode() + b"}\n"
            inflight.append((request_id, due, i))
            late = (now - due) * 1e3
            if late > result.late_ms_max:
                result.late_ms_max = late
            i += 1
        if now >= next_sample:
            result.depth_samples.append((now - start, len(inflight)))
            next_sample += DEPTH_SAMPLE_PERIOD
        if now > end_by:
            break
        if out:
            try:
                sent = sock.send(out)
                del out[:sent]
            except BlockingIOError:
                pass
        wait = (start + i * interval - now) if i < count else 0.05
        wait = max(0.0, min(wait, next_sample - now))
        readable, _w, _x = select.select(
            [sock], [sock] if out else [], [], wait
        )
        if readable:
            lines = conn.recv_lines()
            read_at = time.monotonic()
            for line in lines:
                _account(result, inflight, line, read_at)
    result.failed += len(inflight)
    return result


def _account(
    result: StepResult,
    inflight: Deque[Tuple[int, float, int]],
    line: bytes,
    read_at: float,
) -> None:
    try:
        doc = json.loads(line)
    except ValueError:
        result.protocol_errors.append(f"malformed response {line[:120]!r}")
        return
    if not inflight:
        result.protocol_errors.append(f"response with nothing in flight: {doc}")
        return
    request_id, due, index = inflight.popleft()
    if doc.get("id") != request_id:
        result.protocol_errors.append(
            f"response id {doc.get('id')} out of order (expected {request_id})"
        )
        return
    if not doc.get("ok"):
        error = doc.get("error", {})
        kind = error.get("type") if isinstance(error, dict) else error
        if kind in ("overloaded", "unavailable"):
            result.failed += 1
        else:
            result.protocol_errors.append(f"unexpected error response {doc}")
        return
    result.latencies_ms.append((read_at - due) * 1e3)
    if doc.get("decision") == "reject":
        result.rejects += 1
    epoch, current = doc.get("epoch"), doc.get("current_epoch")
    if isinstance(epoch, int) and isinstance(current, int):
        result.max_staleness = max(result.max_staleness, current - epoch)
    result.reads.append(
        (index, doc.get("seq"), read_at, float(doc.get("utility", "nan")))
    )
