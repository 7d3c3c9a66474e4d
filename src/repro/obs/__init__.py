"""Operator-grade observability core (metrics, logs, traces).

This package is the one place the system's runtime telemetry lives.
Three zero-dependency layers, all safe to leave enabled in production:

* :mod:`repro.obs.metrics` — a metrics registry holding monotonic
  counters, gauges and log2-bucketed histograms under **namespaced
  metric names**.  Registries compose (`attach`), so the service
  registry exposes the session's and the engine's metrics in one
  snapshot, and snapshots from batch worker processes merge into the
  run summary.
* :mod:`repro.obs.logs` — structured JSON log lines with generated
  request ids, written to stderr (never stdout: the JSONL protocol
  stream stays byte-identical).
* :mod:`repro.obs.trace` — lightweight phase spans
  (``parse → plan → count → store``) collected per request; strict
  no-ops when no collection context is active.

The metric-name schema
----------------------
Every metric name is dot-namespaced by the layer that owns it.  This
is the documented schema that ``SolverSession.stats(flat=True)`` and
the daemon's ``{"op": "metrics"}`` control op return (the daemon
merges its workers' session, engine and store figures into it):

====================================  =========  ========================
name                                  kind       meaning
====================================  =========  ========================
``engine.memo.hits`` / ``.misses``    counter    canonical count memo
``engine.exists.hits`` / ``.misses``  counter    existence-probe memo
``engine.store.hits`` / ``.misses``   counter    persistent store probes
``engine.count.dp`` / ``.backtrack``  counter    counts per backend
``engine.dp.width.<w>``               counter    DP widths (exact buckets)
``engine.memo.entries``               gauge      live memo size
``engine.exists.entries``             gauge      live exists-memo size
``engine.targets.compiled``           gauge      compiled target indexes
``intern.structures`` / ``.hits``     counter    shared intern layer
``canonical.keys`` / ``.hits``        counter    canonical labelings
``intern.cached`` / ``canonical.cached``  gauge  live lru sizes
``bitset.propagations``               counter    bitset domain narrowings
``bitset.fallbacks``                  counter    set-kernel fallbacks
``dp.packed.fallbacks``               counter    packed-DP fallbacks
``dp.packed.peak_entries``            gauge      largest packed table
``session.tasks.evaluated``           counter    requests answered
``session.tasks.errors``              counter    requests failed
``session.tasks.budget_exceeded``     counter    requests cut off by budget
``store.lookups`` / ``.lookup_hits``  counter    persistent store traffic
``store.inserts``                     counter    persistent store writes
``store.corruptions``                 counter    corrupt files quarantined
``store.retries``                     counter    ops retried after a heal
``store.tier.hits`` / ``.misses``     counter    memory tier LRU probes
``store.tier.evictions``              counter    memory tier LRU evictions
``store.flush.batches``               counter    write-behind transactions
``store.flush.rows``                  counter    rows published by flushes
``store.shard.opens``                 counter    shard files actually opened
``store.counts`` / ``store.exists``   gauge      persisted rows
``store.tier.entries``                gauge      live memory tier size
``store.shards``                      gauge      shard count of the store
``budget.exceeded_deadline``          counter    wall-clock budget trips
``budget.exceeded_steps``             counter    work-budget trips
``budget.injected``                   counter    injected engine faults
``budget.degraded``                   counter    DP→backtracking retries
``batch.worker.restarts``             counter    pool restarts after death
``batch.chunk.retries``               counter    chunks retried to success
``batch.tasks.quarantined``           counter    poison tasks quarantined
``service.requests`` / ``.errors``    counter    service request stream
``service.control_requests``          counter    control-op lines
``service.requests.kind.<kind>``      counter    per-task-kind requests
``service.request.latency_us``        histogram  request latency (log2)
``service.request.budget_exceeded``   counter    budget-limited requests
``service.uptime_s``                  gauge      daemon uptime
``service.workers``                   gauge      worker processes
``service.overloaded``                counter    requests shed (async)
``service.request.queued_us``         histogram  admission→dispatch wait
``service.queue.depth``               gauge      async dispatch queue depth
``service.inflight``                  gauge      admitted, not yet answered
``service.tenants.opened``            counter    tenants ever created
``service.tenants.active``            gauge      live tenants (named+anon)
``service.tenant.<name>.requests``    counter    per-tenant request stream
``service.tenant.<name>.errors``      counter    per-tenant error answers
``service.tenant.<name>.rejected``    counter    per-tenant overload sheds
====================================  =========  ========================

The ``budget.*`` counters live in :mod:`repro.faults.budget` and
surface through ``engine.stats()``; the ``batch.*`` fault counters
merge from worker processes into ``run_batch``'s summary ``metrics``
block (and its ``retries``/``worker_restarts``/``quarantined``
top-level fields).

Histograms bucket by powers of two: a value ``v`` lands in the bucket
labeled ``2**v.bit_length()`` — the least power of two strictly greater
than ``v`` (so bucket ``1`` holds ``v == 0``, bucket ``8`` holds
``4 <= v <= 7``).  Snapshots render a histogram as
``{"count": n, "sum": s, "buckets": {"<le>": c, ...}}``; the
Prometheus exposition renders cumulative ``_bucket{le="..."}`` series.
"""

from repro.obs.logs import StructuredLogger, new_request_id
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_counter_snapshots,
)
from repro.obs.trace import collect_phases, span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "StructuredLogger",
    "collect_phases",
    "merge_counter_snapshots",
    "new_request_id",
    "span",
]
