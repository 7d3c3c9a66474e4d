"""The benchmark's own line-protocol client for the serve workload.

A closed loop over persistent TCP connections in the daemon's default
(ordered) mode: each connection keeps ``inflight`` requests outstanding
and sends the next one as soon as a response arrives.  Responses on a
connection come back in request order, so each is matched to the
oldest outstanding request.  One thread runs every connection through
``selectors``; it shares no code with the program.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

Task = Tuple[str, str]  # (task id in the corpus line, corpus line)


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def control(port: int, record: Dict, timeout: float = 10.0) -> Dict:
    """Send one control op on a fresh connection; return the answer."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.sendall(json.dumps(record).encode() + b"\n")
        buffer = b""
        while b"\n" not in buffer:
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("daemon closed the control connection")
            buffer += chunk
    return json.loads(buffer.split(b"\n", 1)[0])


def wait_ready(port: int, process, timeout: float) -> float:
    """Poll until a ping is answered; the monotonic time it was."""
    deadline = time.monotonic() + timeout
    while True:
        if process.poll() is not None:
            raise RuntimeError(f"daemon exited with {process.returncode} "
                               f"before answering a ping")
        try:
            answer = control(port, {"op": "ping"}, timeout=5.0)
        except OSError:
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not answer a ping in time")
            time.sleep(0.005)
            continue
        if answer.get("ok"):
            return time.monotonic()
        raise RuntimeError(f"unexpected ping answer {answer!r}")


class _Connection:
    def __init__(self, port: int, index: int, stream: Sequence[Task]):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.index = index
        self.stream = stream
        self.position = 0
        self.pending: deque = deque()
        self.buffer = b""

    def send_next(self) -> None:
        task_id, line = self.stream[self.position % len(self.stream)]
        request_id = f"{task_id}.c{self.index}.{self.position}"
        self.position += 1
        line = line.replace(f'"id":"{task_id}"', f'"id":"{request_id}"', 1)
        self.pending.append((request_id, line, time.monotonic()))
        self.sock.sendall(line.encode() + b"\n")


class LoadResult:
    def __init__(self):
        self.sent = 0
        self.unanswered = 0
        self.exchanges: List[Tuple[str, str, str, bool]] = []
        self.window_start = 0.0
        self.window_last = 0.0
        # (completion time, latency in ms or None when sent before the
        # window opened) for each request answered inside the window
        self.completions: List[Tuple[float, Optional[float]]] = []
        self.window_latency_ms: Dict[str, float] = {}


def run_load(port: int, streams: Sequence[Sequence[Task]], warmup: int,
             seconds: float, inflight: int, at_answer=None,
             timeout: float = 60.0) -> LoadResult:
    """Drive ``len(streams)`` connections: ``warmup`` responses in
    total, then a measured window of ``seconds``.

    ``exchanges`` holds ``(request id, request line, response line,
    in window)`` for every answered request.  A request still
    unanswered ``timeout`` seconds after the window (or with no window
    ``timeout`` seconds after the start) is counted in ``unanswered``.
    ``at_answer=(n, callback)`` calls ``callback()`` once, right after
    the ``n``-th answer.
    """
    result = LoadResult()
    selector = selectors.DefaultSelector()
    connections = [_Connection(port, index, stream)
                   for index, stream in enumerate(streams)]
    try:
        for connection in connections:
            selector.register(connection.sock, selectors.EVENT_READ,
                              connection)
            for _ in range(inflight):
                connection.send_next()
        answered = 0
        window_start: Optional[float] = None
        window_end = float("inf")
        give_up = time.monotonic() + timeout
        while any(c.pending for c in connections):
            now = time.monotonic()
            if now > give_up:
                break
            for key, _ in selector.select(timeout=1.0):
                connection = key.data
                chunk = connection.sock.recv(1 << 18)
                if not chunk:
                    raise ConnectionError("daemon closed a connection")
                connection.buffer += chunk
                while b"\n" in connection.buffer:
                    raw, connection.buffer = connection.buffer.split(b"\n", 1)
                    now = time.monotonic()
                    request_id, line, sent = connection.pending.popleft()
                    in_window = (window_start is not None
                                 and sent >= window_start and now <= window_end)
                    result.exchanges.append(
                        (request_id, line, raw.decode(), in_window))
                    if window_start is not None and now <= window_end:
                        latency = (now - sent) * 1000.0 if in_window else None
                        result.completions.append((now, latency))
                        if in_window:
                            result.window_latency_ms[request_id] = latency
                        result.window_last = now
                    answered += 1
                    if at_answer is not None and answered == at_answer[0]:
                        at_answer[1]()
                    if window_start is None and answered >= warmup:
                        window_start = result.window_start = now
                        window_end = now + seconds
                        give_up = window_end + timeout
                    if now < window_end:
                        connection.send_next()
        result.sent = sum(c.position for c in connections)
        result.unanswered = sum(len(c.pending) for c in connections)
    finally:
        selector.close()
        for connection in connections:
            connection.sock.close()
    return result
