"""The daemon behind ``repro serve start`` (DESIGN.md §16).

One event loop serves every connection (TCP, stdio and the HTTP/
WebSocket facade) and evaluates nothing itself; evaluation runs in
worker processes:

* **Connection multiplexing** — ``asyncio`` streams hold thousands of
  persistent connections on one thread; no per-connection OS thread.
* **Per-tenant sessions in pinned worker processes** — each connection
  (or each named tenant across connections; see ``{"op": "hello"}``)
  gets its own :class:`~repro.service.tenant.Tenant`, pinned when it
  is created to the least-loaded of ``workers`` forked worker
  processes.  That worker owns the tenant's
  :class:`~repro.session.SolverSession` (own engine, memo bounds and
  PR 8 budget defaults).  Tenants on different workers count in
  parallel on different cores; tenants sharing a worker take turns on
  it.  The event loop never evaluates: it sends each admitted
  line down its tenant's worker pipe and resolves the request's future
  when the answer comes back.
* **Priorities** — every request may carry ``"priority": <int>``
  (lower runs earlier; the tenant quota sets the default).  Each
  worker keeps at most :data:`PIPE_DEPTH` jobs in its pipe; the rest
  wait in the parent in a per-worker priority queue.
* **Admission-control backpressure** — the parent's queues and each
  tenant's in-flight window are bounded; an over-limit request is
  answered *immediately* with a structured ``overloaded`` record
  (``error_kind: "overloaded"``, ``reason: queue-full | tenant-quota
  | draining``) instead of buffering without bound.
* **Graceful drain** — ``{"op": "drain"}`` (or SIGTERM) stops
  admission, answers everything in flight, then closes the servers.
* **Streaming batch** — ``{"op": "batch", "tasks": [...]}`` admits a
  whole task list and streams one JSONL result line per task *as each
  finishes* (completion order), closing with a summary line.
* **Worker supervision** — a worker that dies (EOF on its pipe) costs
  the request it was evaluating a deterministic ``worker-crash``
  record; the requests behind it go to a fresh worker, which inherits
  the dead one's tenants (``service.worker.restarts``).

The protocol: request lines are the batch task codec
(:mod:`repro.batch.tasks`) plus control lines, JSON objects carrying
an ``"op"`` key (``ping``, ``stats``, ``metrics``, ``drain``,
``shutdown``, plus ``hello`` and ``batch``, which only a persistent
TCP or WebSocket connection answers).  Task answers are byte-identical
to batch mode, because evaluation funnels through the same
:func:`~repro.batch.runner.evaluate_envelope`.  A connection answers
in request order by default, so piping a scenario file through the
stdio front end stays byte-identical to ``repro batch run
--workers 1``.  ``{"op": "hello", "mode": "multiplex"}`` switches a
connection to completion-order responses, where each request may carry
a ``"rid"`` echo field for client-side correlation (``rid`` is
stripped before evaluation, so task seeds — and therefore result
bytes — never depend on it).

Workers start with ``fork``, from the loop thread, before any listening
socket exists: they inherit the loaded library instead of re-importing
it, as batch workers do.  The cost is memory — each worker grows its
own memo, compiled targets and store tier (DESIGN.md §16).

The HTTP/WebSocket facade for browser clients lives in
:mod:`repro.service.httpgate`, on top of the same dispatch core.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import json
import math
import os
import socket
import sys
import threading
import time
from collections import deque
from typing import Dict, Iterable, IO, List, Optional, Tuple, Union

from repro.batch.pipe import (
    PIPE_DEPTH,
    detach_from_parent,
    frame,
    read_message,
    receive,
    send_available,
    spawn_worker,
)
from repro.batch.runner import evaluate_envelope, task_identity
from repro.batch.tasks import canonical_json
from repro.errors import ReproError
from repro.faults.inject import current_fault_plan, should_inject
from repro.obs.logs import StructuredLogger, new_request_id
from repro.obs.metrics import MetricsRegistry, merge_counter_snapshots
from repro.obs.trace import collect_phases
from repro.service.tenant import (
    QUOTA_KEYS,
    LockedStore,
    Tenant,
    TenantQuota,
    TenantRegistry,
)
from repro.session import SolverSession

DEFAULT_MAX_QUEUE = 256
CONTROL_OPS = ("ping", "stats", "metrics", "drain", "shutdown")
#: Ops that configure or stream over one persistent connection: the
#: TCP and WebSocket front ends answer them, stdio and HTTP POST refuse.
CONNECTION_OPS = ("hello", "batch")

#: Exit status of a worker killed by the ``serve.worker`` fault point.
_FAULT_EXIT = 87

#: Counter namespaces that belong to one session.  Everything else a
#: session's registry reports (the intern/canonical/bitset/budget
#: layers, the store) is process-wide, so a worker counts it once.
_SESSION_SCOPED = ("engine.", "session.")

Number = Union[int, float]


def usable_cpus() -> int:
    """The CPUs this process may run on: the default worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


class ServiceStats:
    """Request accounting for one service lifetime, registry-homed.

    Every number lives in a :class:`~repro.obs.metrics.MetricsRegistry`
    under the ``service.*`` names of the documented schema
    (:mod:`repro.obs`); :meth:`snapshot` renders the nested
    ``{"op": "stats"}`` shape from those same metrics.  Request latency
    goes into a log2-bucketed histogram in microseconds — the buckets
    the ``metrics`` control op and the Prometheus exposition serve.
    """

    __slots__ = ("metrics", "_requests", "_errors", "_control",
                 "_latency", "_budget_exceeded", "_kinds")

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._requests = self.metrics.counter("service.requests")
        self._errors = self.metrics.counter("service.errors")
        self._control = self.metrics.counter("service.control_requests")
        self._latency = self.metrics.histogram("service.request.latency_us")
        self._budget_exceeded = self.metrics.counter(
            "service.request.budget_exceeded")
        self._kinds: Dict[str, object] = {}

    @property
    def requests(self) -> int:
        return self._requests.value

    @property
    def errors(self) -> int:
        return self._errors.value

    @property
    def control_requests(self) -> int:
        return self._control.value

    def record_control(self) -> None:
        self._control.value += 1

    def record(self, kind: Optional[str], ok: bool, elapsed: float,
               budget_exceeded: bool = False) -> None:
        self._requests.value += 1
        if not ok:
            self._errors.value += 1
        if budget_exceeded:
            self._budget_exceeded.value += 1
        self._latency.observe(elapsed * 1e6)
        label = kind or "invalid"
        counter = self._kinds.get(label)
        if counter is None:
            counter = self.metrics.counter(f"service.requests.kind.{label}")
            self._kinds[label] = counter
        counter.value += 1

    def snapshot(self) -> Dict[str, object]:
        count = self._latency.count
        mean = (self._latency.sum / 1e6 / count) if count else 0.0
        return {
            "requests": self.requests,
            "errors": self.errors,
            "control_requests": self.control_requests,
            "budget_exceeded": self._budget_exceeded.value,
            "mean_latency_ms": round(mean * 1000.0, 3),
            "kinds": {label: counter.value
                      for label, counter in sorted(self._kinds.items())},
        }


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
class _WorkerState:
    """What one worker process owns: its tenants' sessions and one
    store shared among them through :class:`LockedStore`."""

    def __init__(self, store_path: Optional[str], shards: Optional[int],
                 preload: int, log_phases: bool):
        store = None
        if store_path is not None:
            from repro.batch.store import TieredHomStore

            store = LockedStore(TieredHomStore(store_path, shards=shards))
        self.store = store
        self.preload = preload if store is not None else 0
        self.log_phases = log_phases
        self.sessions: Dict[str, SolverSession] = {}
        # Session-scoped counters of dropped sessions, so the worker's
        # totals never run backwards.
        self.retired: Dict[str, Number] = {}
        # Evaluates nothing: its registry reads the process-wide and
        # store counters once for the whole worker.
        self.shared = SolverSession(store=store)

    def evaluate(self, name: str, quota: Optional[TenantQuota], line: str,
                 rid) -> tuple:
        session = self.sessions.get(name)
        if session is None:
            # A tenant's quota travels with its first job to a worker.
            session = self.sessions[name] = SolverSession(
                store=self.store, max_counts=quota.max_counts,
                max_targets=quota.max_targets, preload=self.preload,
                default_deadline_ms=quota.deadline_ms)
        start = time.perf_counter()
        phases = None
        try:
            if self.log_phases:
                with collect_phases() as phases:
                    envelope = evaluate_envelope(line, session)
            else:
                envelope = evaluate_envelope(line, session)
        except Exception as exc:  # noqa: BLE001 — the worker keeps serving
            # Charged to the session too, so service and session
            # accounting stay in step on error streams.
            session.record_task(ok=False)
            envelope = {"id": None, "kind": None, "ok": False,
                        "error": f"InternalError: {type(exc).__name__}: "
                                 f"{exc}"}
        elapsed = time.perf_counter() - start
        kind = envelope.get("kind")
        ok = bool(envelope.get("ok"))
        budget_exceeded = envelope.get("error_kind") == "budget-exceeded"
        task_id = envelope.get("id")
        if rid is not None:
            envelope = dict(envelope)
            envelope["rid"] = rid
        return ("job", canonical_json(envelope), kind, ok, budget_exceeded,
                elapsed, task_id, phases, session.tasks_evaluated)

    def drop(self, name: str) -> None:
        session = self.sessions.pop(name, None)
        if session is not None:
            session.close()
            merge_counter_snapshots(self.retired, _scoped(session))

    def report(self, gauges: bool = False) -> Dict[str, object]:
        # Every name once (the shared session's own engine and session
        # counters stay 0), then each session's share on top.
        counters = self.shared.metrics.counters_snapshot()
        merge_counter_snapshots(counters, self.retired)
        for session in self.sessions.values():
            merge_counter_snapshots(counters, _scoped(session))
        report = {"sessions": sorted(self.sessions), "counters": counters}
        if gauges:
            # Row counts cost SQL: only stats and metrics ops read them,
            # through the shared session alone; each session adds its
            # engine's memo and compiled-target sizes.
            merged = self.shared.metrics.gauges_snapshot()
            for session in self.sessions.values():
                merge_counter_snapshots(
                    merged, session.engine.metrics.gauges_snapshot())
            report["gauges"] = merged
        return report

    def close(self) -> None:
        for session in self.sessions.values():
            session.close()
        if self.store is not None:
            self.store.close()


def _scoped(session: SolverSession) -> Dict[str, Number]:
    return {name: value for name, value in
            session.metrics.counters_snapshot().items()
            if name.startswith(_SESSION_SCOPED)}


def _worker_main(channel: socket.socket, config: tuple) -> None:
    """A worker's life: answer the parent's messages in order until it
    says stop (or the pipe closes), then return — so the process exits
    through multiprocessing's finalizers, after the store's
    write-behind rows are flushed."""
    detach_from_parent(channel)
    state = _WorkerState(*config)
    reader = channel.makefile("rb")
    try:
        while True:
            message = read_message(reader)
            if message is None:  # the parent is gone
                return
            op = message[0]
            if op == "job":
                _, name, quota, line, rid = message
                # The ``serve.worker`` fault point: a poison task kills
                # its worker outright, like a segfault or the OOM
                # killer (``os._exit``, so nothing can soften it).
                if current_fault_plan() is not None and should_inject(
                        "serve.worker", key=task_identity(line)[0]):
                    os._exit(_FAULT_EXIT)
                reply = state.evaluate(name, quota, line, rid)
            elif op == "drop":
                state.drop(message[1])
                continue
            elif op == "stats":
                reply = ("stats", state.report(gauges=True))
            else:  # "stop"
                if state.store is not None:
                    state.store.flush()
                channel.sendall(frame(("stop", state.report())))
                return
            channel.sendall(frame(reply))
    except (BrokenPipeError, ConnectionResetError):  # the parent died
        return
    finally:
        state.close()
        reader.close()
        channel.close()


class _Slot:
    """One worker slot in the parent: the queue of the tenants pinned
    to it, and the worker process currently serving them.

    The queue outlives a worker that dies; the process fields are
    reset and a fresh worker takes over the slot.
    """

    __slots__ = ("index", "queue", "process", "channel", "inbox", "outbox",
                 "held", "sessions", "waiters", "counters", "gauges", "live")

    def __init__(self, index: int):
        self.index = index
        # (priority, seq, job) not yet sent; seq breaks ties FIFO.
        self.queue: List[tuple] = []
        self.process = None
        self.channel: Optional[socket.socket] = None
        self.inbox = bytearray()
        self.outbox = bytearray()
        # Queue entries sent down the pipe, in the order the worker
        # answers them.
        self.held: deque = deque()
        # Tenants whose quota this worker has been sent.
        self.sessions: set = set()
        # Futures of stats/stop requests, in the order they were sent.
        self.waiters: deque = deque()
        # The worker's last reported counters, gauges and live
        # sessions.
        self.counters: Dict[str, Number] = {}
        self.gauges: Dict[str, Number] = {}
        self.live: List[str] = []

    def report(self) -> Dict[str, object]:
        return {"worker": self.index,
                "pid": self.process.pid if self.process else None,
                "sessions": list(self.live)}


class _Job:
    """One admitted request travelling through a slot's queue."""

    __slots__ = ("line", "tenant", "future", "enqueued", "rid")

    def __init__(self, line: str, tenant: Tenant,
                 future: "asyncio.Future[str]", rid=None):
        self.line = line
        self.tenant = tenant
        self.future = future
        self.enqueued = time.monotonic()
        self.rid = rid


def _worker_crash_record(line: str, rid=None) -> str:
    """The deterministic record of a request whose worker died while
    evaluating it (no pid, no timestamp: like a quarantine record)."""
    task_id, kind = task_identity(line)
    record = {"id": task_id, "kind": kind, "ok": False,
              "error": "WorkerCrash: the worker process evaluating this "
                       "request exited",
              "error_kind": "worker-crash"}
    if rid is not None:
        record["rid"] = rid
    return canonical_json(record)


class AsyncSolverService:
    """The dispatch core every async front end (TCP/stdio/HTTP) shares.

    ``workers`` is the number of worker processes (default: the CPUs
    this process may use); ``max_queue`` bounds how many admitted
    requests may wait in the parent before new ones are answered
    ``overloaded``.  Tenant defaults (``max_inflight``,
    ``request_deadline_ms``, memo bounds) seed the quota
    every anonymous connection gets; named tenants override them via
    the hello op.  With ``store_path``, each worker opens the
    persistent store and shares it among its tenants; the parent opens
    it only to create or migrate it and to import ``preload_pack``.
    """

    def __init__(self, workers: Optional[int] = None,
                 max_queue: int = DEFAULT_MAX_QUEUE,
                 store_path: Optional[str] = None,
                 shards: Optional[int] = None,
                 preload_pack: Optional[str] = None,
                 preload: int = 0,
                 logger: Optional[StructuredLogger] = None,
                 request_deadline_ms: Optional[float] = None,
                 max_inflight: Optional[int] = None):
        self.workers = max(1, workers if workers is not None
                           else usable_cpus())
        self.max_queue = max(1, max_queue)
        self.logger = logger
        self.started_at = time.monotonic()
        if store_path is not None:
            from repro.batch.store import TieredHomStore, import_warm_pack

            with TieredHomStore(store_path, shards=shards) as store:
                if preload_pack is not None:
                    import_warm_pack(store, preload_pack)
        elif shards is not None or preload_pack is not None:
            raise ReproError("shards/preload_pack require store_path")
        self._worker_config = (store_path, shards, preload,
                               logger is not None)

        self.metrics = MetricsRegistry()
        self.stats_counters = ServiceStats(self.metrics)
        default_quota = TenantQuota(
            max_inflight=max_inflight if max_inflight is not None
            else TenantQuota.max_inflight,
            deadline_ms=request_deadline_ms)
        self.tenants = TenantRegistry(self.metrics,
                                      default_quota=default_quota,
                                      workers=self.workers,
                                      on_discard=self._drop_session)
        # The default tenant answers stdio mode; a connection that
        # never says hello with a tenant name of its own is *not*
        # given this one — it gets an anonymous isolated tenant.
        self.default_tenant = self.tenants.get_or_create("default")
        self._m_overloaded = self.metrics.counter("service.overloaded")
        self._m_restarts = self.metrics.counter("service.worker.restarts")
        self._queued_us = self.metrics.histogram("service.request.queued_us")
        self.metrics.gauge("service.workers", lambda: self.workers)
        self.metrics.gauge("service.queue.depth", self.queue_depth)
        self.metrics.gauge("service.inflight",
                           lambda: self.tenants.total_inflight())
        self.metrics.gauge(
            "service.uptime_s",
            lambda: round(time.monotonic() - self.started_at, 3))
        # Session, engine and store figures, merged across workers.
        self.metrics.register_collector(self.worker_counters,
                                        monotonic=True)
        self.metrics.register_collector(self.worker_gauges,
                                        monotonic=False)

        self._slots = [_Slot(index) for index in range(self.workers)]
        # Final (or last known) counters of workers that have exited.
        self._retired: Dict[str, Number] = {}
        self._queued = 0
        self._seq = itertools.count()
        self._pump_scheduled = False
        self._reapers: set = set()
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Fork the workers from the running loop's thread.

        Call it before any listening socket exists: workers forked
        now inherit no connection to close.
        """
        if self._loop is not None:
            return
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        for slot in self._slots:
            self._spawn(slot)

    def queue_depth(self) -> int:
        return self._queued

    @property
    def draining(self) -> bool:
        return self._draining

    def request_drain(self) -> None:
        """Stop admitting; finish in flight; wake :meth:`run_until_drained`.

        Callable from signal handlers and other threads (it only flips
        a flag and pokes the loop).
        """
        self._draining = True
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(self._check_quiesced)
            except RuntimeError:  # loop already closed
                pass

    def _check_quiesced(self) -> None:
        if self._draining and self._queued == 0 \
                and self.tenants.total_inflight() == 0 \
                and self._stopped is not None:
            self._stopped.set()

    async def run_until_drained(self) -> None:
        """Block until a drain/shutdown op (or signal) fully quiesces."""
        await self._stopped.wait()

    async def aclose(self) -> None:
        """Answer admitted work, then stop the workers.

        Each worker closes its sessions and store (flushing write-behind
        rows) and reports its final counters before it exits.
        """
        if self._closed:
            return
        self._closed = True
        self._draining = True
        if self._loop is None:
            return
        self._check_quiesced()
        await self._stopped.wait()
        stops = [self._request(slot, ("stop",)) for slot in self._slots
                 if slot.process is not None]
        if stops:
            await asyncio.wait(stops, timeout=30.0)
        for slot in self._slots:
            if slot.process is not None:
                self._reap_later(self._detach(slot), timeout=30.0)
        await asyncio.gather(*self._reapers)

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------
    def _spawn(self, slot: _Slot) -> None:
        slot.process, slot.channel = spawn_worker(
            _worker_main, self._worker_config,
            f"repro-serve-worker-{slot.index}")
        self._loop.add_reader(slot.channel.fileno(), self._on_readable, slot)

    def _detach(self, slot: _Slot):
        """Forget the slot's worker; returns its process to reap."""
        process = slot.process
        self._loop.remove_reader(slot.channel.fileno())
        if slot.outbox:
            self._loop.remove_writer(slot.channel.fileno())
        slot.channel.close()
        merge_counter_snapshots(self._retired, slot.counters)
        slot.process = slot.channel = None
        slot.inbox = bytearray()
        slot.outbox = bytearray()
        slot.sessions = set()
        slot.counters = {}
        slot.gauges = {}
        slot.live = []
        for waiter in slot.waiters:
            if not waiter.done():
                waiter.set_result(None)
        slot.waiters.clear()
        return process

    def _reap_later(self, process, timeout: Optional[float] = None) -> None:
        """Wait for ``process`` to exit without blocking the loop,
        killing it after ``timeout`` seconds."""
        async def reap() -> None:
            deadline = None if timeout is None \
                else self._loop.time() + timeout
            while process.is_alive():
                if deadline is not None and self._loop.time() >= deadline:
                    process.kill()
                    deadline = None
                await asyncio.sleep(0.01)
            process.close()

        task = asyncio.ensure_future(reap())
        self._reapers.add(task)
        task.add_done_callback(self._reapers.discard)

    def _lost(self, slot: _Slot) -> None:
        """The slot's worker died: answer the request it was evaluating
        with a worker-crash record, and give the requests behind it in
        the pipe (which it never started) back to the slot's queue."""
        held = list(slot.held)
        slot.held.clear()
        self._reap_later(self._detach(slot))
        if held:
            job = held[0][2]
            task_id, kind = task_identity(job.line)
            self._finish(job, _worker_crash_record(job.line, job.rid),
                         kind, False, False, 0.0, task_id, None)
            for entry in held[1:]:
                heapq.heappush(slot.queue, entry)
                self._queued += 1
        self._pump(slot)

    def _on_readable(self, slot: _Slot) -> None:
        messages = receive(slot.channel, slot.inbox)
        if messages is None:
            self._lost(slot)
            return
        for message in messages:
            self._on_message(slot, message)

    def _on_message(self, slot: _Slot, message: tuple) -> None:
        if message[0] == "job":
            (_, response, kind, ok, budget_exceeded, elapsed, task_id,
             phases, evaluated) = message
            job = slot.held.popleft()[2]
            job.tenant.tasks_evaluated = evaluated
            self._finish(job, response, kind, ok, budget_exceeded, elapsed,
                         task_id, phases)
            self._pump(slot)
            return
        report = message[1]
        slot.counters = report["counters"]
        slot.gauges = report.get("gauges", {})
        slot.live = report["sessions"]
        waiter = slot.waiters.popleft()
        if not waiter.done():
            waiter.set_result(report)

    def _write(self, slot: _Slot, data: bytes) -> None:
        """Send without ever blocking the loop: what the pipe does not
        take now waits in the slot's outbox for a writable callback."""
        if slot.outbox:
            slot.outbox += data
            return
        sent = send_available(slot.channel, data)
        if sent < len(data):
            slot.outbox += memoryview(data)[sent:]
            self._loop.add_writer(slot.channel.fileno(), self._on_writable,
                                  slot)

    def _on_writable(self, slot: _Slot) -> None:
        del slot.outbox[:send_available(slot.channel, slot.outbox)]
        if not slot.outbox:
            self._loop.remove_writer(slot.channel.fileno())

    def _request(self, slot: _Slot, message: tuple) -> "asyncio.Future":
        """Send a stats/stop message; the future resolves to the
        worker's report, or ``None`` if it dies first."""
        future = self._loop.create_future()
        slot.waiters.append(future)
        self._write(slot, frame(message))
        return future

    def _drop_session(self, tenant: Tenant) -> None:
        slot = self._slots[tenant.worker]
        if tenant.name in slot.sessions:
            slot.sessions.discard(tenant.name)
            self._write(slot, frame(("drop", tenant.name)))

    # ------------------------------------------------------------------
    # Admission + dispatch
    # ------------------------------------------------------------------
    def _overloaded(self, reason: str, tenant: Tenant,
                    task_id=None, rid=None) -> str:
        self._m_overloaded.value += 1
        record = {
            "id": task_id, "kind": None, "ok": False,
            "error": f"overloaded: {reason} "
                     f"(queue depth {self.queue_depth()}, tenant "
                     f"{tenant.name} inflight {tenant.inflight}/"
                     f"{tenant.quota.max_inflight})",
            "error_kind": "overloaded",
            "reason": reason,
        }
        if rid is not None:
            record["rid"] = rid
        return canonical_json(record)

    def submit(self, tenant: Tenant, line: str,
               record: Optional[dict] = None,
               priority: Optional[int] = None,
               rid=None) -> "asyncio.Future[str]":
        """Admit one task line for ``tenant``; resolves to the response.

        Admission control runs here, on the event loop, in constant
        time: a rejected request's future resolves immediately with the
        structured ``overloaded`` record.  ``record`` is the parsed
        line when the caller already has it (to pull ``id``/
        ``priority`` without re-parsing).
        """
        future: "asyncio.Future[str]" = self._loop.create_future()
        task_id = record.get("id") if isinstance(record, dict) else None
        if priority is None and isinstance(record, dict):
            raw = record.get("priority")
            # json.loads accepts NaN and Infinity: they fall back to
            # the tenant default like any other non-numeric priority.
            if (isinstance(raw, int) and not isinstance(raw, bool)) or \
                    (isinstance(raw, float) and math.isfinite(raw)):
                priority = int(raw)
        if priority is None:
            priority = tenant.quota.priority
        if self._draining:
            future.set_result(
                self._overloaded("draining", tenant, task_id, rid))
            return future
        if not self.tenants.try_admit(tenant):
            future.set_result(
                self._overloaded("tenant-quota", tenant, task_id, rid))
            return future
        if self._queued >= self.max_queue:
            self.tenants.release(tenant, ok=False)
            future.set_result(
                self._overloaded("queue-full", tenant, task_id, rid))
            return future
        heapq.heappush(self._slots[tenant.worker].queue,
                       (priority, next(self._seq),
                        _Job(line, tenant, future, rid=rid)))
        self._queued += 1
        # Dispatch after this loop tick, so everything admitted in the
        # same tick is ordered by priority before any of it is sent.
        if not self._pump_scheduled:
            self._pump_scheduled = True
            self._loop.call_soon(self._pump_all)
        return future

    def _pump_all(self) -> None:
        self._pump_scheduled = False
        for slot in self._slots:
            self._pump(slot)

    def _pump(self, slot: _Slot) -> None:
        """Send the slot's most urgent queued jobs into free pipe slots
        (forking a fresh worker first if the last one died)."""
        if not slot.queue or len(slot.held) >= PIPE_DEPTH:
            return
        if slot.process is None:
            self._spawn(slot)
            self._m_restarts.value += 1
        frames = []
        now = time.monotonic()
        while slot.queue and len(slot.held) < PIPE_DEPTH:
            entry = heapq.heappop(slot.queue)
            self._queued -= 1
            job = entry[2]
            self._queued_us.observe((now - job.enqueued) * 1e6)
            name = job.tenant.name
            quota = None
            if name not in slot.sessions:
                slot.sessions.add(name)
                quota = job.tenant.quota
            slot.held.append(entry)
            frames.append(frame(("job", name, quota, job.line, job.rid)))
        self._write(slot, b"".join(frames))

    def _finish(self, job: _Job, response: str, kind: Optional[str],
                ok: bool, budget_exceeded: bool, elapsed: float,
                task_id, phases) -> None:
        self.stats_counters.record(kind, ok, elapsed,
                                   budget_exceeded=budget_exceeded)
        if self.logger is not None:
            self.logger.request(new_request_id(), kind=kind, ok=ok,
                                elapsed_s=elapsed, task_id=task_id,
                                phases=phases)
        self.tenants.release(job.tenant, ok=ok,
                             budget_exceeded=budget_exceeded)
        if not job.future.cancelled():
            job.future.set_result(response)
        self._check_quiesced()

    # ------------------------------------------------------------------
    # Control ops (answered on the event loop)
    # ------------------------------------------------------------------
    def worker_counters(self) -> Dict[str, Number]:
        """Session, engine and store counters summed over the workers:
        the last ones each live worker reported, plus the final ones of
        workers that exited."""
        merged = dict(self._retired)
        for slot in self._slots:
            merge_counter_snapshots(merged, slot.counters)
        return merged

    def worker_gauges(self) -> Dict[str, Number]:
        """The gauges (memo and compiled-target sizes, store row
        counts, tier size, shard count) the live workers reported at
        the last :meth:`refresh`; every name has a gauge suffix, so the
        merge keeps the largest."""
        merged: Dict[str, Number] = {}
        for slot in self._slots:
            merge_counter_snapshots(merged, slot.gauges)
        return merged

    async def refresh(self) -> None:
        """Fetch every live worker's counters, gauges and session
        list."""
        await asyncio.gather(*[self._request(slot, ("stats",))
                               for slot in self._slots
                               if slot.process is not None])

    def stats(self) -> Dict[str, object]:
        """Service figures, with worker counters as of the last
        :meth:`refresh` (or of their exit)."""
        service = self.stats_counters.snapshot()
        service["uptime_s"] = round(time.monotonic() - self.started_at, 3)
        service["workers"] = self.workers
        service["worker_restarts"] = self._m_restarts.value
        service["queue_depth"] = self.queue_depth()
        service["inflight"] = self.tenants.total_inflight()
        service["overloaded"] = self._m_overloaded.value
        service["draining"] = self._draining
        session = self.worker_counters()
        session.update(self.worker_gauges())
        return {"service": service, "session": session,
                "tenants": self.tenants.stats(),
                "workers": [slot.report() for slot in self._slots]}

    def control_record(self, record: dict
                       ) -> Union[str, "asyncio.Future[str]"]:
        """The answer to one control record: a line, or a future of one
        for the ops that ask the workers (stats, metrics).  The TCP,
        WebSocket and HTTP front ends intercept hello/batch before
        calling here, so only stdio gets the refusal below; TCP and
        WebSocket answer an unknown op themselves, since they also
        take hello and batch."""
        op = record.get("op")
        self.stats_counters.record_control()
        rid = record.get("rid")

        def _reply(payload: Dict[str, object]) -> str:
            if rid is not None:
                payload["rid"] = rid
            return canonical_json(payload)

        async def _after_refresh(render) -> str:
            await self.refresh()
            return _reply(render())

        if op == "ping":
            return _reply({"ok": True, "op": "ping"})
        if op == "stats":
            return asyncio.ensure_future(_after_refresh(
                lambda: {"ok": True, "op": "stats", "stats": self.stats()}))
        if op == "metrics":
            if record.get("format") == "prometheus":
                return asyncio.ensure_future(_after_refresh(
                    lambda: {"ok": True, "op": "metrics",
                             "format": "prometheus",
                             "exposition": self.metrics.exposition()}))
            return asyncio.ensure_future(_after_refresh(
                lambda: {"ok": True, "op": "metrics",
                         "metrics": self.metrics.snapshot()}))
        if op == "drain":
            self.request_drain()
            return _reply({"ok": True, "op": "drain", "draining": True})
        if op == "shutdown":
            self.request_drain()
            return _reply({"ok": True, "op": "shutdown"})
        if op in CONNECTION_OPS:
            return _reply({
                "ok": False, "op": op,
                "error": f"{op} op needs a TCP connection (serve start "
                         f"--port); stdio answers task lines and the ops "
                         f"{list(CONTROL_OPS)}"})
        return unknown_op_line(record, CONTROL_OPS)


def unknown_op_line(record: dict, known: Tuple[str, ...]) -> str:
    """The refusal of a control record whose op the front end does not
    answer; ``known`` lists the ops it does."""
    op = record.get("op")
    payload: Dict[str, object] = {
        "ok": False, "op": str(op),
        "error": f"unknown control op {op!r}; expected one of {list(known)}"}
    if record.get("rid") is not None:
        payload["rid"] = record["rid"]
    return canonical_json(payload)


def parse_control(line: str) -> Optional[dict]:
    """The parsed record if ``line`` is a control op, else ``None``."""
    stripped = line.strip()
    if not stripped.startswith("{") or '"op"' not in stripped:
        return None
    try:
        record = json.loads(stripped)
    except json.JSONDecodeError:
        return None
    if isinstance(record, dict) and "op" in record:
        return record
    return None


def strip_rid(line: str) -> Tuple[str, object]:
    """``(evaluation line, rid)`` for one task line.

    ``rid`` is a pure correlation handle: it must not reach
    ``task_seed`` (witness randomness is a content hash of the task
    record), so a rid-carrying line is re-serialized without it.
    Invalid JSON passes through untouched — evaluation will answer
    with the codec's error record.
    """
    if '"rid"' not in line:
        return line, None
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return line, None
    if not isinstance(record, dict) or "rid" not in record:
        return line, None
    rid = record.pop("rid")
    return canonical_json(record), rid


# ----------------------------------------------------------------------
# Connection handling (TCP)
# ----------------------------------------------------------------------
class _Connection:
    """Per-connection state: the tenant, the response mode, the writer.

    Ordered mode (default) answers in request order — a deque of
    futures drained by one writer coroutine, exactly the stdio
    contract.  Multiplex mode writes each response the moment it
    resolves; clients correlate by ``rid``/task id.
    """

    def __init__(self, service: AsyncSolverService,
                 writer: asyncio.StreamWriter):
        self.service = service
        self.writer = writer
        self.tenant: Optional[Tenant] = None
        self.multiplex = False
        self._items: "asyncio.Queue" = asyncio.Queue()
        self._writer_task = asyncio.ensure_future(self._write_loop())
        self._write_lock = asyncio.Lock()
        self._pending: set = set()

    def ensure_tenant(self) -> Tenant:
        if self.tenant is None:
            self.tenant = self.service.tenants.anonymous()
            self.tenant.connections += 1
        return self.tenant

    # ---------------------------------------------------------- output
    async def _write_line(self, line: str) -> None:
        async with self._write_lock:
            self.writer.write(line.encode("utf-8") + b"\n")
            try:
                await self.writer.drain()
            except ConnectionError:
                pass

    async def _write_loop(self) -> None:
        while True:
            item = await self._items.get()
            if item is None:
                return
            try:
                if isinstance(item, str):
                    await self._write_line(item)
                elif isinstance(item, asyncio.Queue):
                    # A streaming block (batch op): lines arrive in
                    # completion order until the terminating None.
                    while True:
                        chunk = await item.get()
                        if chunk is None:
                            break
                        await self._write_line(chunk)
                else:  # a future resolving to one line
                    await self._write_line(await item)
            except ConnectionError:
                return

    def _emit_future(self, future: "asyncio.Future[str]") -> None:
        if self.multiplex:
            task = asyncio.ensure_future(self._forward(future))
            self._pending.add(task)
            task.add_done_callback(self._pending.discard)
        else:
            self._items.put_nowait(future)

    async def _forward(self, future: "asyncio.Future[str]") -> None:
        await self._write_line(await future)

    def emit_line(self, line: str) -> None:
        if self.multiplex:
            task = asyncio.ensure_future(self._write_line(line))
            self._pending.add(task)
            task.add_done_callback(self._pending.discard)
        else:
            self._items.put_nowait(line)

    # ---------------------------------------------------------- input
    def handle_line(self, line: str) -> bool:
        """Process one request line; ``False`` stops the read loop."""
        service = self.service
        control = parse_control(line)
        if control is not None:
            op = control.get("op")
            if op == "hello":
                self.emit_line(self._handle_hello(control))
                return True
            if op == "batch":
                self._handle_batch(control)
                return True
            if op not in CONTROL_OPS:
                service.stats_counters.record_control()
                self.emit_line(unknown_op_line(
                    control, CONTROL_OPS + CONNECTION_OPS))
                return True
            response = service.control_record(control)
            if isinstance(response, str):
                self.emit_line(response)
            else:
                self._emit_future(response)
            return op not in ("drain", "shutdown")
        eval_line, rid = strip_rid(line)
        record = None
        if rid is not None or '"priority"' in line:
            try:
                record = json.loads(eval_line)
            except json.JSONDecodeError:
                record = None
        self._emit_future(service.submit(
            self.ensure_tenant(), eval_line, record=record, rid=rid))
        return True

    def _handle_hello(self, record: dict) -> str:
        service = self.service
        rid = record.get("rid")
        try:
            unknown = set(record) - set(QUOTA_KEYS) - \
                {"op", "rid", "tenant", "mode"}
            if unknown:
                raise ReproError(
                    f"unknown hello key(s) {sorted(unknown)}; expected "
                    f"tenant/mode plus quota keys {list(QUOTA_KEYS)}")
            name = record.get("tenant")
            overrides = {key: record[key]
                         for key in QUOTA_KEYS if key in record}
            if name is not None:
                if not isinstance(name, str) or not name:
                    raise ReproError(
                        f"hello tenant must be a non-empty string, "
                        f"got {name!r}")
                if self.tenant is not None:
                    self.tenant.connections -= 1
                self.tenant = service.tenants.get_or_create(name, overrides)
                self.tenant.connections += 1
            elif overrides:
                raise ReproError(
                    "hello quota overrides require a tenant name")
            mode = record.get("mode", "multiplex" if "mode" in record
                              else None)
            if mode is not None:
                if mode not in ("ordered", "multiplex"):
                    raise ReproError(
                        f"hello mode must be 'ordered' or 'multiplex', "
                        f"got {mode!r}")
                self.multiplex = mode == "multiplex"
        except ReproError as exc:
            payload = {"ok": False, "op": "hello", "error": str(exc)}
        else:
            payload = {"ok": True, "op": "hello",
                       "tenant": self.tenant.name if self.tenant else None,
                       "mode": "multiplex" if self.multiplex else "ordered",
                       "draining": service.draining}
        if rid is not None:
            payload["rid"] = rid
        return canonical_json(payload)

    def _handle_batch(self, record: dict) -> None:
        """Admit every task of a batch op; stream results as they land.

        Each result line is the task's ordinary envelope (it carries
        the task ``id``); the closing summary line reports how many
        were answered vs rejected at admission.  In ordered mode the
        stream occupies one slot of the response order; in multiplex
        mode lines interleave with other traffic.
        """
        service = self.service
        rid = record.get("rid")
        tasks = record.get("tasks")
        if not isinstance(tasks, list):
            payload = {"ok": False, "op": "batch",
                       "error": "batch op needs a 'tasks' list"}
            if rid is not None:
                payload["rid"] = rid
            self.emit_line(canonical_json(payload))
            return
        tenant = self.ensure_tenant()
        priority = record.get("priority")
        if not isinstance(priority, int) or isinstance(priority, bool):
            priority = None
        stream: "asyncio.Queue" = asyncio.Queue()
        if not self.multiplex:
            # The stream occupies one slot in the ordered response
            # sequence; multiplex writes each line directly instead.
            self._items.put_nowait(stream)
        futures = []
        for task in tasks:
            line = canonical_json(task) if isinstance(task, dict) \
                else str(task)
            futures.append(service.submit(
                tenant, line,
                record=task if isinstance(task, dict) else None,
                priority=priority, rid=rid))

        async def _collect() -> None:
            done = 0
            for future in asyncio.as_completed(futures):
                result = await future
                done += 1
                if self.multiplex:
                    await self._write_line(result)
                else:
                    stream.put_nowait(result)
            summary = {"ok": True, "op": "batch", "count": done}
            if rid is not None:
                summary["rid"] = rid
            if self.multiplex:
                await self._write_line(canonical_json(summary))
            else:
                stream.put_nowait(canonical_json(summary))
                stream.put_nowait(None)

        task = asyncio.ensure_future(_collect())
        self._pending.add(task)
        task.add_done_callback(self._pending.discard)

    async def close(self) -> None:
        try:
            if self._pending:
                await asyncio.gather(*list(self._pending),
                                     return_exceptions=True)
            self._items.put_nowait(None)
            await self._writer_task
        except asyncio.CancelledError:
            # Event-loop teardown while responses were still pending
            # (drain with a client that never disconnected): stop the
            # helpers without awaiting them — the work itself was
            # either answered already or rejected at admission.
            self._writer_task.cancel()
            for task in list(self._pending):
                task.cancel()
        self._release_tenant()
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass

    def abort(self) -> None:
        """Synchronous teardown for a cancelled connection task."""
        self._writer_task.cancel()
        for task in list(self._pending):
            task.cancel()
        self._release_tenant()
        try:
            self.writer.close()
        except (ConnectionError, OSError):
            pass

    def _release_tenant(self) -> None:
        if self.tenant is not None:
            self.tenant.connections -= 1
            self.service.tenants.discard(self.tenant)
            self.tenant = None


async def handle_connection(service: AsyncSolverService,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
    """One TCP connection: JSONL request lines in, response lines out.

    A cancelled handler task (event-loop teardown racing a still-open
    client) finishes normally after a synchronous abort — otherwise
    asyncio's stream machinery logs the cancellation as an error.
    """
    connection = _Connection(service, writer)
    cancelled = False
    try:
        while True:
            try:
                raw = await reader.readline()
            except ConnectionError:
                break
            if not raw:
                break
            line = raw.decode("utf-8", errors="replace")
            if not line.strip():
                continue
            if not connection.handle_line(line):
                break
    except asyncio.CancelledError:
        cancelled = True
    finally:
        if cancelled:
            connection.abort()
        else:
            await connection.close()


# ----------------------------------------------------------------------
# Front ends
# ----------------------------------------------------------------------
async def serve_async_tcp(service: AsyncSolverService,
                          host: str = "127.0.0.1", port: int = 0,
                          http_port: Optional[int] = None,
                          ready: Optional[threading.Event] = None,
                          bound: Optional[list] = None) -> None:
    """Serve the line protocol (and optional HTTP/WebSocket facade)
    until drained.

    ``port=0`` binds an ephemeral port; bound addresses are appended
    to ``bound`` (the TCP address first, then the HTTP one when
    enabled) and ``ready`` is set once all servers accept connections.
    """
    await service.start()
    server = await asyncio.start_server(
        lambda r, w: handle_connection(service, r, w), host, port)
    http_server = None
    if http_port is not None:
        from repro.service.httpgate import handle_http

        http_server = await asyncio.start_server(
            lambda r, w: handle_http(service, r, w), host, http_port)
    if bound is not None:
        bound.append(server.sockets[0].getsockname()[:2])
        if http_server is not None:
            bound.append(http_server.sockets[0].getsockname()[:2])
    if ready is not None:
        ready.set()
    try:
        await service.run_until_drained()
    finally:
        server.close()
        await server.wait_closed()
        if http_server is not None:
            http_server.close()
            await http_server.wait_closed()


async def serve_async_stdio(service: AsyncSolverService,
                            source: Optional[Iterable[str]] = None,
                            sink: Optional[IO[str]] = None) -> int:
    """Answer a JSONL stream on the default tenant, responses in
    request order — byte-identical to ``repro batch run --workers 1``.

    Reading and writing happen on the loop's default thread executor
    (blocking file I/O, not evaluation) so the event loop keeps
    dispatching while a slow producer trickles lines in.  The reader
    waits for room in the default tenant's in-flight window and in
    the dispatch queue, and the answers not yet written are bounded by
    that window too: a consumer that stops reading stalls the reader
    instead of letting it buffer the whole stream.  Returns response
    lines written.
    """
    if source is None:
        # Read fd 0 through a file object of its own.  The reader thread
        # waits inside it holding its lock, and a worker forked then
        # closes its copy of sys.stdin, which would wait on that lock
        # forever.
        with open(sys.stdin.fileno(), encoding="utf-8",
                  closefd=False) as stdin:
            return await serve_async_stdio(service, stdin, sink)
    await service.start()
    loop = asyncio.get_running_loop()
    sink = sys.stdout if sink is None else sink
    iterator = iter(source)
    tenant = service.default_tenant
    # A tenant's in-flight slot frees when its job finishes, not when
    # its answer is written, so only this bound holds the reader back
    # from a stalled sink.
    pending: "asyncio.Queue" = asyncio.Queue(
        maxsize=tenant.quota.max_inflight)

    def _next_line() -> Optional[str]:
        try:
            return next(iterator)
        except StopIteration:
            return None

    async def _write_all() -> int:
        count = 0
        while True:
            item = await pending.get()
            if item is None:
                return count
            line = item if isinstance(item, str) else await item
            await loop.run_in_executor(None, _blocking_write, sink, line)
            count += 1

    writer_task = asyncio.ensure_future(_write_all())

    async def _queue_answer(item) -> None:
        while pending.full():
            if writer_task.done():
                writer_task.result()  # the sink failed: raise its error
            await asyncio.sleep(0.001)
        pending.put_nowait(item)

    while True:
        line = await loop.run_in_executor(None, _next_line)
        if line is None:
            break
        if not line.strip():
            continue
        control = parse_control(line)
        if control is not None:
            op = control.get("op")
            await _queue_answer(service.control_record(control))
            if op in ("drain", "shutdown"):
                break
            continue
        if service.draining:
            break
        # Backpressure: wait for quota room instead of queueing an
        # unbounded pile of overloaded responses for a file stream.
        while tenant.inflight >= tenant.quota.max_inflight \
                or service.queue_depth() >= service.max_queue:
            await asyncio.sleep(0.001)
        eval_line, rid = strip_rid(line)
        await _queue_answer(service.submit(tenant, eval_line, rid=rid))
    await _queue_answer(None)
    return await writer_task


def _blocking_write(sink: IO[str], line: str) -> None:
    sink.write(line + "\n")
    sink.flush()


# ----------------------------------------------------------------------
# Embedding helper (tests, benchmarks, load tools)
# ----------------------------------------------------------------------
class AsyncDaemonHandle:
    """Run an async daemon on a background thread; stop it cleanly.

    The bench harness and the tests need a live daemon inside one
    process: ``start()`` spins the event loop up on its own thread and
    returns once the TCP (and optional HTTP) sockets accept
    connections; ``stop()`` drains and joins.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 http_port: Optional[int] = None, **service_kwargs):
        self._host = host
        self._port = port
        self._http_port = http_port
        self._kwargs = service_kwargs
        self.service: Optional[AsyncSolverService] = None
        self.address: Optional[tuple] = None
        self.http_address: Optional[tuple] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._bound: list = []

    def __enter__(self) -> "AsyncDaemonHandle":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> "AsyncDaemonHandle":
        self.service = AsyncSolverService(**self._kwargs)

        def _run() -> None:
            asyncio.run(self._main())

        self._thread = threading.Thread(target=_run, daemon=True,
                                        name="repro-async-daemon")
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ReproError("async daemon did not start within 30s")
        self.address = tuple(self._bound[0])
        if self._http_port is not None:
            self.http_address = tuple(self._bound[1])
        return self

    async def _main(self) -> None:
        try:
            await serve_async_tcp(self.service, host=self._host,
                                  port=self._port,
                                  http_port=self._http_port,
                                  ready=self._ready, bound=self._bound)
        finally:
            await self.service.aclose()
            self._ready.set()  # unblock start() even on bind failure

    def stop(self) -> None:
        if self.service is not None:
            self.service.request_drain()
        if self._thread is not None:
            self._thread.join(timeout=30)
            if self._thread.is_alive():  # pragma: no cover — deadlock aid
                raise ReproError("async daemon did not drain within 30s")
