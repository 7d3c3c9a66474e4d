"""The parallel batch evaluator.

Turns a stream of task lines (:mod:`repro.batch.tasks`) into a stream
of result lines, optionally sharded across worker processes::

    from repro.batch import runner
    for line in runner.iter_results(open("tasks.jsonl"), workers=4,
                                    cache_path="homstore"):
        print(line)

Guarantees
----------
* **Deterministic ordering** — results come out in task order no matter
  how many workers ran them (the parent puts answers back in order by
  sequence number).
* **Deterministic content** — randomized steps (witness construction)
  are seeded from a content hash of the task, and every record is
  serialized canonically, so ``--workers 4`` output is byte-identical
  to ``--workers 1`` output.
* **Fault isolation** — a task that raises a library error produces an
  ``{"ok": false, "error": ...}`` record; the batch keeps going.

Workers are ``multiprocessing`` processes forked with one socketpair
each (:mod:`repro.batch.pipe`), so they inherit the loaded library for
free; the parent sends each a few chunks at a time and reads the
answers with :mod:`selectors`.  Each worker owns a private
:class:`~repro.session.SolverSession` whose engine is attached to the
shared on-disk store (:mod:`repro.batch.store`), warm-starts its
in-memory memo from that store, and publishes its answers through the
store's write-behind, so a later run finds them.  The long-running
request service (:mod:`repro.service`) reuses :func:`evaluate_line`
with *its* session, so batch mode and serving mode produce
byte-identical records.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import socket
import sys
import time
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.batch.pipe import (
    PIPE_DEPTH,
    detach_from_parent,
    frame,
    read_message,
    receive,
    send_available,
    spawn_worker,
)
from repro.errors import ReproError
from repro.faults.budget import BudgetExceeded, use_budget
from repro.faults.inject import (
    FaultPlan,
    current_fault_plan,
    install_fault_plan,
    should_inject,
)
from repro.obs.metrics import merge_counter_snapshots
from repro.obs.trace import span
from repro.batch.tasks import (
    VALID_KINDS,
    DecodedTask,
    canonical_json,
    decode_task,
)
from repro.core.decision import decide_bag_determinacy
from repro.core.pathdet import decide_path_determinacy
from repro.hom.containment import is_contained_set
from repro.session import SolverSession
from repro.ucq.analysis import linear_certificate

DEFAULT_CHUNK_SIZE = 2
DEFAULT_PRELOAD = 2048
DEFAULT_MAX_RETRIES = 2
# Base of the jittered exponential backoff between chunk retries.
# Timing only — results are pure, so the jitter never touches bytes.
_RETRY_BASE_DELAY = 0.05
# Seconds a worker gets to flush and exit after the stop message.
_STOP_TIMEOUT = 30.0
# Chunks per worker whose answers may arrive ahead of the oldest
# unanswered one.  Past that the pool takes no more lines, so a chunk
# that runs long stalls the stream instead of buffering all of it.
_RUN_AHEAD_CHUNKS = 64


# ----------------------------------------------------------------------
# Single-task evaluation
# ----------------------------------------------------------------------
def evaluate_task(task: DecodedTask, session: SolverSession) -> Dict:
    """The result record (without envelope) for one decoded task,
    evaluated under ``session``."""
    if task.kind == "decide-cq":
        result = decide_bag_determinacy(list(task.views), task.query,
                                        session=session)
        record = result.to_record()
        if task.witness and not result.determined:
            pair = result.witness(rng=random.Random(task.seed()))
            record["witness"] = pair.to_record(pair.verify(session.engine))
        return record
    if task.kind == "containment":
        return {"contained": is_contained_set(task.query, task.container,
                                              session=session)}
    if task.kind == "hom-count":
        # Counts routinely exceed 64-bit range; decimal text keeps the
        # record safe for non-Python JSON consumers (same convention as
        # witness query answers).
        return {"count": str(session.count(task.source, task.target))}
    if task.kind == "decide-path":
        result = decide_path_determinacy(list(task.views), task.query)
        record = {
            "determined": result.determined,
            "reachable": sorted(".".join(node) for node in result.reachable),
        }
        if result.certificate is not None:
            record["certificate"] = [
                {"view": ".".join(step.view.letters),
                 "sign": step.sign,
                 "target": ".".join(step.target.letters)}
                for step in result.certificate
            ]
        return record
    if task.kind == "certify-ucq":
        certificate = linear_certificate(list(task.views), task.query)
        record = {"certified": certificate is not None}
        if certificate is not None:
            record["coefficients"] = [str(c) for c in certificate.coefficients]
        return record
    raise ReproError(f"unhandled task kind {task.kind!r}")  # pragma: no cover


def evaluate_envelope(line: str, session: SolverSession) -> Dict:
    """The full result record for one task line; never raises on
    library errors — they become ``{"ok": false}`` records."""
    task_id, kind = None, None
    try:
        with span("parse"):
            task = decode_task(line)
        task_id, kind = task.id, task.kind
        with span("count"), \
                use_budget(session.budget_for(task.deadline_ms)):
            record = evaluate_task(task, session)
    except BudgetExceeded as exc:
        # Before the generic ReproError arm: a tripped budget is a
        # *structured* refusal (the operator set the bound), not an
        # opaque failure — the record carries the partial stats.
        session.record_task(ok=False, budget_exceeded=True)
        return {
            "id": task_id,
            "kind": kind,
            "ok": False,
            "error": f"BudgetExceeded: {exc}",
            "error_kind": "budget-exceeded",
            "budget": exc.to_record(),
        }
    except ReproError as exc:
        session.record_task(ok=False)
        if task_id is None:
            # A rejected line still names its task, so --resume finds
            # it answered; a kind the codec does not know stays null
            # (the daemon keeps one counter per kind).
            task_id, kind = task_identity(line)
            if kind not in VALID_KINDS:
                kind = None
        return {
            "id": task_id,
            "kind": kind,
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
        }
    session.record_task(ok=True)
    envelope: Dict = {"id": task.id, "kind": task.kind, "ok": True}
    envelope.update(record)
    return envelope


def evaluate_line(line: str, session: SolverSession) -> str:
    """One canonical result line for one task line (see
    :func:`evaluate_envelope`, which the request service consumes
    directly to avoid re-parsing its own output)."""
    return canonical_json(evaluate_envelope(line, session))


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
_WORKER_SESSION: Optional[SolverSession] = None
_WORKER_LAST_METRICS: Dict[str, float] = {}


def _init_worker(cache_path: Optional[str], preload: int,
                 fault_spec: Optional[Dict] = None,
                 shards: Optional[int] = None) -> None:
    global _WORKER_SESSION, _WORKER_LAST_METRICS
    if fault_spec is not None:
        # The plan travels as its JSON spec (counters are per-process;
        # only the scheduling-independent task_ids triggers are
        # deterministic across worker layouts — the chaos lane keys
        # worker kills by task id for exactly that reason).
        install_fault_plan(FaultPlan(fault_spec))
    _WORKER_SESSION = SolverSession(store_path=cache_path, preload=preload,
                                    shards=shards)
    # The baseline is the fresh session's own snapshot: the
    # process-wide counters (intern, canonical, decode) arrive already
    # moved by the parent, and the parent counted that work itself.
    _WORKER_LAST_METRICS = _WORKER_SESSION.metrics.counters_snapshot()


def _metrics_delta() -> Dict[str, float]:
    """This worker's monotonic counter movement since the last call.

    Deltas, not cumulative snapshots (the parent sums them, so those
    would double-count), so the parent merges per-worker registries
    into one run summary without any worker-lifetime rendezvous, and a
    worker that dies later has already reported what it counted.
    """
    global _WORKER_LAST_METRICS
    current = _WORKER_SESSION.metrics.counters_snapshot()
    delta = {name: value - _WORKER_LAST_METRICS.get(name, 0)
             for name, value in current.items()
             if value != _WORKER_LAST_METRICS.get(name, 0)}
    _WORKER_LAST_METRICS = current
    return delta


def _evaluate_chunk(lines: List[str]) -> tuple:
    """``(result lines, metrics delta)`` for one chunk."""
    if current_fault_plan() is not None:
        for line in lines:
            # The ``worker.chunk`` fault point: a poison task kills its
            # worker outright — no exception, no cleanup — exactly like
            # a segfault or the OOM killer.  ``os._exit`` (not sys.exit)
            # so no handler downstream can soften the crash.  Without a
            # plan no line is parsed for its id.
            if should_inject("worker.chunk", key=_line_id(line)):
                os._exit(86)
    results = [evaluate_line(line, _WORKER_SESSION) for line in lines]
    return results, _metrics_delta()


def _worker_main(channel: socket.socket, config: tuple) -> None:
    """A batch worker's life: answer each chunk the parent sends, in
    order, with its result lines and counter delta.

    The store's write-behind publishes rows as its queues fill; on the
    parent's stop message the worker flushes the rest, reports that
    flush's counter delta and returns, so the process exits through
    multiprocessing's finalizers.  At EOF (the parent is gone) closing
    the session flushes too.
    """
    detach_from_parent(channel)
    _init_worker(*config)
    session = _WORKER_SESSION
    reader = channel.makefile("rb")
    try:
        while True:
            message = read_message(reader)
            if message is None:  # the parent is gone
                return
            if message[0] == "stop":
                session.flush()
                channel.sendall(frame(("stop", _metrics_delta())))
                return
            _, start, lines = message
            results, delta = _evaluate_chunk(lines)
            channel.sendall(frame(("chunk", start, results, delta)))
    except (BrokenPipeError, ConnectionResetError):  # the parent died
        return
    finally:
        session.close()
        reader.close()
        channel.close()


def _chunks(lines: Iterable[str], size: int) -> Iterator[List[str]]:
    chunk: List[str] = []
    for line in lines:
        if not line.strip():
            continue
        chunk.append(line)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def task_identity(line: str) -> Tuple[Optional[str], Optional[str]]:
    """``(id, kind)`` of a task line, each ``None`` unless a string —
    what a record about a task that never produced its own result
    (quarantine, a crashed serving worker) can still name."""
    payload = None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        pass
    if not isinstance(payload, dict):
        return None, None
    task_id, kind = payload.get("id"), payload.get("kind")
    return (task_id if isinstance(task_id, str) else None,
            kind if isinstance(kind, str) else None)


def _quarantine_record(line: str) -> str:
    """The deterministic error record of a quarantined poison task.

    Carries no timestamps or attempt counts — byte-identical across
    runs, worker counts and retry schedules, so quarantined output
    diffs clean against itself.
    """
    task_id, kind = task_identity(line)
    return canonical_json({
        "id": task_id,
        "kind": kind,
        "ok": False,
        "error": "WorkerCrash: task repeatedly killed or hung its "
                 "worker process",
        "quarantined": True,
    })


def _backoff_delay(attempt: int) -> float:
    """Jittered exponential backoff before retry ``attempt`` (1-based).

    Full jitter on a doubling base: transient resource pressure (the
    usual honest cause of a worker death) gets time to clear, and
    parallel batches don't re-stampede in lockstep.  Timing only —
    never part of the bytes.
    """
    delay = _RETRY_BASE_DELAY * (1 << min(attempt - 1, 6))
    return delay * (0.5 + random.random() / 2)


def _create_store(cache_path: str, shards: Optional[int]) -> None:
    """Create (or migrate) the store and every shard file before any
    worker forks.  Two workers creating one shard file at the same
    moment can fail with ``database is locked``, and the store drops
    the rows of a write that fails."""
    from repro.batch.store import TieredHomStore

    with TieredHomStore(cache_path, shards=shards) as store:
        store.ensure_shards()


class _Chunk:
    """Consecutive task lines; ``start`` is the stream index of the
    first, so it is also the chunk's sequence number."""

    __slots__ = ("start", "lines", "attempts")

    def __init__(self, start: int, lines: List[str]):
        self.start = start
        self.lines = lines
        # Workers that died (or hung) evaluating this chunk.
        self.attempts = 0


class _Slot:
    """One worker slot in the parent: the worker process and its pipe,
    the chunks sent down it (the worker evaluates the head), and the
    suspects — chunks whose worker died — it runs one at a time.

    The suspects outlive the worker; a fresh one takes over the slot.
    """

    __slots__ = ("index", "process", "channel", "inbox", "outbox", "held",
                 "head_since", "suspects", "resume_at", "spawned")

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.channel: Optional[socket.socket] = None
        self.inbox = bytearray()
        self.outbox = bytearray()
        self.held: deque = deque()
        # When the head chunk became the head (chunk_timeout's clock).
        self.head_since = 0.0
        self.suspects: deque = deque()
        # The next suspect waits for its backoff until this time.
        self.resume_at = 0.0
        self.spawned = False


class _WorkerPool:
    """Forked workers on socketpair pipes, and every recovery path
    around them (DESIGN.md §14).

    The parent keeps at most :data:`~repro.batch.pipe.PIPE_DEPTH`
    chunks in each worker's pipe, reads the answers with
    :mod:`selectors` and puts their lines back in task order by
    sequence number.  It never blocks on a full pipe: what a pipe does
    not take waits in that slot's outbox.  It takes lines from the
    stream only while a pipe has room and the answers waiting for an
    earlier one stay under ``_RUN_AHEAD_CHUNKS`` chunks per worker.

    A worker killed mid-chunk (OOM killer, segfault, injected
    ``worker.chunk`` fault) shows as EOF on its pipe; with
    ``chunk_timeout`` set, a worker whose head chunk has run longer is
    killed and handled the same way.  The contract:

    * the chunk the worker was evaluating — the head of its pipe — is
      retried alone on a fresh worker (``batch.worker.restarts``), up
      to ``max_retries`` times with jittered exponential backoff
      (transient deaths succeed on retry and count
      ``batch.chunk.retries``);
    * a chunk that *keeps* dying is bisected until the poison task is a
      chunk of one, which is quarantined as a deterministic error
      record (``batch.tasks.quarantined``) — the batch completes;
    * the chunks queued behind it in that pipe, which the worker never
      started, go back to the queue unchanged, and the other workers
      keep running, so non-quarantined results stay byte-identical to
      a fault-free run;
    * without ``chunk_timeout`` a hang waits forever.
    """

    def __init__(self, workers: int, chunk_size: int, config: tuple,
                 max_retries: int, chunk_timeout: Optional[float],
                 metrics_sink: Optional[Dict[str, float]]):
        self.config = config
        self.max_retries = max(0, max_retries)
        self.chunk_timeout = chunk_timeout
        self.metrics_sink = metrics_sink
        self.slots = [_Slot(index) for index in range(workers)]
        self.selector = selectors.DefaultSelector()
        # Chunks given back by a dead worker, sent before fresh ones.
        self.queue: deque = deque()
        # Result lines not yet yielded, by stream index.
        self.done: Dict[int, str] = {}
        self.source: Optional[Iterator[List[str]]] = None
        # Tasks taken from the stream; result lines yielded.
        self.pulled = 0
        self.emitted = 0
        self.window = _RUN_AHEAD_CHUNKS * workers * chunk_size

    def results(self, chunks: Iterator[List[str]]) -> Iterator[str]:
        """Evaluate ``chunks``; yields their result lines in order."""
        self.source = chunks
        while True:
            self._pump()
            if self.emitted in self.done:
                while self.emitted in self.done:
                    yield self.done.pop(self.emitted)
                    self.emitted += 1
                continue  # the window moved: fill the pipes again
            if self.source is None and self.emitted == self.pulled:
                return
            self._wait()

    def stop(self) -> None:
        """Ask every worker to flush its store and exit; merge the
        flushes' counter deltas and reap the workers."""
        for slot in self.slots:
            if slot.process is not None:
                self._write(slot, frame(("stop",)))
        deadline = time.monotonic() + _STOP_TIMEOUT
        while any(slot.process is not None for slot in self.slots):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return  # close() kills the stragglers
            self._handle(self.selector.select(remaining))

    def close(self) -> None:
        """Kill and reap every worker still running (the caller closed
        the stream early, or it failed), then release the selector."""
        for slot in self.slots:
            if slot.process is not None:
                self._retire(slot, kill=True)
        self.selector.close()

    # ------------------------------------------------------------------
    def _note(self, delta: Dict[str, float]) -> None:
        if self.metrics_sink is not None:
            merge_counter_snapshots(self.metrics_sink, delta)

    def _next_chunk(self) -> Optional[_Chunk]:
        if self.queue:
            return self.queue.popleft()
        if self.source is None or self.pulled - self.emitted >= self.window:
            return None
        lines = next(self.source, None)
        if lines is None:
            self.source = None
            return None
        chunk = _Chunk(self.pulled, lines)
        self.pulled += len(lines)
        return chunk

    def _pump(self) -> None:
        """Fill the pipes: a slot with suspects gets the next one alone,
        once its backoff is over; the others get chunks one per slot in
        turn, until each pipe holds PIPE_DEPTH."""
        now = time.monotonic()
        for slot in self.slots:
            if slot.suspects and not slot.held and now >= slot.resume_at:
                self._send(slot, slot.suspects[0])
        for depth in range(1, PIPE_DEPTH + 1):
            for slot in self.slots:
                if slot.suspects or len(slot.held) >= depth:
                    continue
                chunk = self._next_chunk()
                if chunk is None:
                    return
                self._send(slot, chunk)

    def _send(self, slot: _Slot, chunk: _Chunk) -> None:
        if slot.process is None:
            if slot.spawned:
                self._note({"batch.worker.restarts": 1})
            slot.process, slot.channel = spawn_worker(
                _worker_main, self.config, f"repro-batch-worker-{slot.index}")
            slot.spawned = True
            self.selector.register(slot.channel, selectors.EVENT_READ, slot)
        if not slot.held:
            slot.head_since = time.monotonic()
        slot.held.append(chunk)
        self._write(slot, frame(("chunk", chunk.start, chunk.lines)))

    def _write(self, slot: _Slot, data: bytes) -> None:
        if slot.outbox:
            slot.outbox += data
            return
        sent = send_available(slot.channel, data)
        if sent < len(data):
            slot.outbox += memoryview(data)[sent:]
            self.selector.modify(
                slot.channel, selectors.EVENT_READ | selectors.EVENT_WRITE,
                slot)

    def _wait(self) -> None:
        """Block until a pipe is ready, a head chunk times out or a
        backoff ends, and handle what happened."""
        deadlines = [slot.resume_at for slot in self.slots
                     if slot.suspects and not slot.held]
        if self.chunk_timeout is not None:
            deadlines += [slot.head_since + self.chunk_timeout
                          for slot in self.slots if slot.held]
        timeout = None
        if deadlines:
            timeout = max(0.0, min(deadlines) - time.monotonic())
        self._handle(self.selector.select(timeout))
        if self.chunk_timeout is not None:
            now = time.monotonic()
            for slot in self.slots:
                if slot.held and now - slot.head_since >= self.chunk_timeout:
                    self._lost(slot, kill=True)

    def _handle(self, events) -> None:
        for key, mask in events:
            slot = key.data
            if slot.channel is not key.fileobj:
                continue  # the worker was lost earlier in this round
            if mask & selectors.EVENT_WRITE:
                del slot.outbox[:send_available(slot.channel, slot.outbox)]
                if not slot.outbox:
                    self.selector.modify(slot.channel, selectors.EVENT_READ,
                                         slot)
            if mask & selectors.EVENT_READ:
                self._on_readable(slot)

    def _on_readable(self, slot: _Slot) -> None:
        messages = receive(slot.channel, slot.inbox)
        if messages is None:
            self._lost(slot)
            return
        for message in messages:
            if message[0] == "stop":
                self._note(message[1])
                self._retire(slot)
                return
            _, start, results, delta = message
            chunk = slot.held.popleft()
            self._note(delta)
            for offset, line in enumerate(results):
                self.done[start + offset] = line
            if slot.suspects and slot.suspects[0] is chunk:
                slot.suspects.popleft()
                if chunk.attempts:
                    self._note({"batch.chunk.retries": 1})
            slot.head_since = time.monotonic()

    def _lost(self, slot: _Slot, kill: bool = False) -> None:
        """The slot's worker died (or hung and is killed): retry the
        chunk it was evaluating alone, then bisect, then quarantine;
        give the chunks behind it back to the queue."""
        held = list(slot.held)
        self._retire(slot, kill=kill)
        if not held:
            return
        culprit = held[0]
        self.queue.extendleft(reversed(held[1:]))
        if not (slot.suspects and slot.suspects[0] is culprit):
            slot.suspects.appendleft(culprit)
        culprit.attempts += 1
        if culprit.attempts <= self.max_retries:
            slot.resume_at = time.monotonic() + _backoff_delay(
                culprit.attempts)
            return
        slot.suspects.popleft()
        slot.resume_at = 0.0
        if len(culprit.lines) == 1:
            self._note({"batch.tasks.quarantined": 1})
            self.done[culprit.start] = _quarantine_record(culprit.lines[0])
            return
        middle = len(culprit.lines) // 2
        slot.suspects.extendleft([
            _Chunk(culprit.start + middle, culprit.lines[middle:]),
            _Chunk(culprit.start, culprit.lines[:middle])])

    def _retire(self, slot: _Slot, kill: bool = False) -> None:
        """Forget the slot's worker and reap its process."""
        process = slot.process
        self.selector.unregister(slot.channel)
        slot.channel.close()
        slot.process = slot.channel = None
        slot.inbox = bytearray()
        slot.outbox = bytearray()
        slot.held.clear()
        if kill:
            process.kill()
        process.join(_STOP_TIMEOUT)
        if process.exitcode is None:
            process.kill()
            process.join()
        process.close()


# ----------------------------------------------------------------------
# Batch drivers
# ----------------------------------------------------------------------
def iter_results(
    lines: Iterable[str],
    workers: int = 1,
    cache_path: Optional[str] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    preload: int = DEFAULT_PRELOAD,
    session: Optional[SolverSession] = None,
    metrics_sink: Optional[Dict[str, float]] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    fault_plan: Optional[Dict] = None,
    chunk_timeout: Optional[float] = None,
    shards: Optional[int] = None,
) -> Iterator[str]:
    """Evaluate task lines, yielding result lines in task order.

    ``workers <= 1`` runs inline (no subprocesses); otherwise
    ``workers`` forked processes evaluate the stream in chunks of
    ``chunk_size`` tasks (see :class:`_WorkerPool`).  ``cache_path``
    names the shared persistent hom-count store, a directory of
    ``shards`` SQLite shards when created here (the parent creates it
    and every shard file before forking); ``preload`` bounds how many
    stored counts each worker seeds into its in-memory memo at
    startup.  Rows reach the store through its write-behind; the rest
    are flushed when the stream ends.  An explicit ``session``
    (inline mode only — worker processes own their sessions) evaluates
    the stream under caller-owned state: the request service passes
    its resident session here so memo and store stay warm across
    streams.  ``metrics_sink`` (a dict) receives the merged monotonic
    metric movement of the run — per-worker registry deltas summed
    under the namespaced schema (:mod:`repro.obs`).

    Fault tolerance (DESIGN.md §14): a chunk whose worker dies is
    retried up to ``max_retries`` times with backoff, then bisected to
    quarantine the poison task; ``chunk_timeout`` (seconds)
    additionally treats a hung worker as a dead one.  ``fault_plan`` (a
    :class:`~repro.faults.inject.FaultPlan` spec dict) installs a
    deterministic fault plan in this process and in every worker — the
    chaos lane's handle.
    """
    if session is not None:
        if workers > 1:
            raise ReproError(
                "iter_results: session= requires workers <= 1 (worker "
                "processes cannot share one in-memory session)")
        if cache_path is not None:
            raise ReproError(
                "iter_results: pass either session= or cache_path=, "
                "not both (the session already owns its store)")
    if cache_path is None:
        shards = None
    previous_plan = None
    if fault_plan is not None:
        previous_plan = install_fault_plan(FaultPlan(fault_plan))
    try:
        if workers <= 1:
            yield from _iter_inline(lines, session, cache_path, preload,
                                    shards, metrics_sink)
            return
        if cache_path is not None:
            _create_store(cache_path, shards)
        chunk_size = max(1, chunk_size)
        pool = _WorkerPool(workers, chunk_size,
                           (cache_path, preload, fault_plan, shards),
                           max_retries, chunk_timeout, metrics_sink)
        try:
            yield from pool.results(_chunks(lines, chunk_size))
            pool.stop()
        finally:
            pool.close()
    finally:
        if fault_plan is not None:
            install_fault_plan(previous_plan)


def _iter_inline(lines: Iterable[str], session: Optional[SolverSession],
                 cache_path: Optional[str], preload: int,
                 shards: Optional[int],
                 metrics_sink: Optional[Dict[str, float]]) -> Iterator[str]:
    scoped = session
    if scoped is None:
        scoped = SolverSession(store_path=cache_path, preload=preload,
                               shards=shards)
    before = (scoped.metrics.counters_snapshot()
              if metrics_sink is not None else {})
    try:
        for line in lines:
            if line.strip():
                yield evaluate_line(line, scoped)
    finally:
        # Publish the stream's rows before reading the counters, so
        # the sink counts the flush.
        scoped.flush()
        if metrics_sink is not None:
            after = scoped.metrics.counters_snapshot()
            merge_counter_snapshots(metrics_sink, {
                name: value - before.get(name, 0)
                for name, value in after.items()
                if value != before.get(name, 0)})
        if scoped is not session:
            scoped.close()


def run_batch(
    input_path: str,
    output_path: str,
    workers: int = 1,
    cache_path: Optional[str] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    preload: int = DEFAULT_PRELOAD,
    resume: bool = False,
    max_retries: int = DEFAULT_MAX_RETRIES,
    fault_plan: Optional[Dict] = None,
    chunk_timeout: Optional[float] = None,
    shards: Optional[int] = None,
) -> Dict[str, int]:
    """File-level driver behind ``repro batch run``.

    Streams JSONL from ``input_path`` (``-`` = stdin) to ``output_path``
    (``-`` = stdout).  With ``resume``, task ids already present in the
    output file are skipped and fresh results are appended — so an
    interrupted batch continues where it stopped.  Returns a summary:
    ``{"tasks", "skipped", "written", "errors", "quarantined",
    "retries", "worker_restarts", "metrics"}`` — the ``metrics`` block
    is the merged per-worker registry movement (namespaced counter
    deltas summed across the pool).  ``max_retries``/``fault_plan``/
    ``chunk_timeout`` are the supervision knobs of
    :func:`iter_results`.
    """
    done = set()
    if resume and output_path != "-":
        _truncate_torn_tail(output_path)
        done = _completed_ids(output_path)

    if input_path == "-":
        raw_lines: Iterable[str] = sys.stdin
    else:
        raw_lines = open(input_path, "r", encoding="utf-8")

    summary: Dict[str, object] = {"tasks": 0, "skipped": 0,
                                  "written": 0, "errors": 0,
                                  "quarantined": 0}
    metrics: Dict[str, float] = {}

    def pending() -> Iterator[str]:
        for line in raw_lines:
            if not line.strip():
                continue
            summary["tasks"] += 1
            if done and _line_id(line) in done:
                summary["skipped"] += 1
                continue
            yield line

    if output_path == "-":
        sink = sys.stdout
    else:
        sink = open(output_path, "a" if done else "w", encoding="utf-8")
    try:
        for result in iter_results(pending(), workers=workers,
                                   cache_path=cache_path,
                                   chunk_size=chunk_size, preload=preload,
                                   metrics_sink=metrics,
                                   max_retries=max_retries,
                                   fault_plan=fault_plan,
                                   chunk_timeout=chunk_timeout,
                                   shards=shards):
            sink.write(result + "\n")
            summary["written"] += 1
            if '"ok":false' in result:
                summary["errors"] += 1
            if '"quarantined":true' in result:
                summary["quarantined"] += 1
    finally:
        if sink is not sys.stdout:
            sink.close()
        if raw_lines is not sys.stdin:
            raw_lines.close()
    summary["retries"] = int(metrics.get("batch.chunk.retries", 0))
    summary["worker_restarts"] = int(metrics.get("batch.worker.restarts", 0))
    summary["metrics"] = metrics
    return summary


def _line_id(line: str) -> Optional[str]:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        return None
    if isinstance(payload, dict):
        identifier = payload.get("id")
        if isinstance(identifier, str):
            return identifier
    return None


def _truncate_torn_tail(output_path: str) -> None:
    """Drop a partial final line left by a run killed mid-write.

    Without this, appending a fresh result right after the torn
    fragment would fuse the two into one permanently unparseable line.
    """
    try:
        handle = open(output_path, "rb+")
    except FileNotFoundError:
        return
    with handle:
        size = handle.seek(0, os.SEEK_END)
        if size == 0:
            return
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) == b"\n":
            return
        # Scan backwards in blocks for the last newline; everything
        # after it is the torn fragment.
        position = size
        block = 4096
        while position > 0:
            step = min(block, position)
            position -= step
            handle.seek(position)
            data = handle.read(step)
            newline = data.rfind(b"\n")
            if newline != -1:
                handle.truncate(position + newline + 1)
                _fsync(handle)
                return
        handle.truncate(0)
        _fsync(handle)


def _fsync(handle) -> None:
    """Force a truncation to disk before results are appended after it.

    Without the sync, a crash between truncate and the first append
    could resurrect the torn fragment from the page cache's past —
    fused mid-line with fresh output.
    """
    handle.flush()
    try:
        os.fsync(handle.fileno())
    except OSError:  # pragma: no cover - e.g. fsync-less filesystems
        pass


def _completed_ids(output_path: str) -> set:
    """Task ids already answered in an existing output file."""
    completed = set()
    try:
        with open(output_path, "r", encoding="utf-8") as handle:
            for line in handle:
                identifier = _line_id(line)
                if identifier is not None:
                    completed.add(identifier)
    except FileNotFoundError:
        pass
    return completed
