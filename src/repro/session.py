"""Session-scoped solver context — the ownership layer above the engine.

Every decision procedure in the library bottoms out in the compiled
counting engine (:mod:`repro.hom.engine`).  A resident service
answering thousands of tasks needs one place that owns the engine, the
persistent store and the memo limits — and that can report aggregated
statistics over its lifetime.

:class:`SolverSession` is that place.  One session owns:

* a :class:`~repro.hom.engine.HomEngine` built from the session's
  configuration;
* an optional persistent store — either an object implementing the
  engine's duck-typed store protocol, or the path of a
  :class:`~repro.batch.store.TieredHomStore` the session opens (and
  then closes) itself;
* the memo bounds and the per-request budget defaults;
* session-level counters (tasks evaluated, errors) that the batch
  runner and the request service feed.

Every decision-procedure entry point accepts ``session=``; passing the
same session across ``decide → witness → refute`` reuses every compiled
target and memoized count, and two sessions never share state.  A call
without one runs under the module-level *default session*
(:func:`default_session`)::

    with SolverSession(store_path="homstore") as session:
        result = decide_bag_determinacy(views, query, session=session)
        if not result.determined:
            pair = result.witness()        # reuses the deciding engine
        print(session.stats()["engine.memo.hits"])
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ReproError
from repro.faults.budget import Budget
from repro.hom.engine import HomEngine
from repro.obs.metrics import PROCESS_METRICS, MetricsRegistry


class SolverSession:
    """Explicit ownership of engine, store and statistics.

    Parameters
    ----------
    store:
        A store object implementing the engine's duck-typed protocol
        (``lookup``/``record``; see :class:`repro.hom.engine.HomEngine`).
        Borrowed — the caller closes it.
    store_path:
        Directory of a persistent hom store, owned by the session
        (opened here as a :class:`repro.batch.store.TieredHomStore`,
        closed in :meth:`close`; a v2 single file at the path is
        migrated on open).
    shards:
        The shard count of a store created at ``store_path`` (requires
        ``store_path``; an existing store keeps its own).
    preload_pack:
        Path to a warm-start pack (``repro cache warm-pack``) whose
        rows are imported into the owned store before serving — the
        engine's first probes for packed keys become store hits.
    max_counts / max_targets:
        Memo bounds forwarded to the engine.
    preload:
        With ``store_path`` (or ``store``): seed up to this many stored
        counts into the fresh engine's memo (warm start).
    default_deadline_ms / default_max_steps:
        Per-request budget defaults (DESIGN.md §14): every task
        evaluated under this session runs inside a fresh
        :class:`~repro.faults.budget.Budget` built from these bounds
        unless the request carries its own ``deadline_ms``.  ``None``
        (the default) means unbounded — budgets cost nothing unless
        asked for.
    """

    __slots__ = ("engine", "_store", "_owns_store",
                 "metrics", "_m_tasks", "_m_task_errors",
                 "_m_budget_exceeded", "default_deadline_ms",
                 "default_max_steps", "_closed")

    def __init__(self, *, store=None, store_path: Optional[str] = None,
                 shards: Optional[int] = None,
                 preload_pack: Optional[str] = None,
                 max_counts: int = 16384, max_targets: int = 512,
                 preload: int = 0,
                 default_deadline_ms: Optional[float] = None,
                 default_max_steps: Optional[int] = None):
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ReproError(
                f"default_deadline_ms must be > 0, got {default_deadline_ms}")
        if default_max_steps is not None and default_max_steps <= 0:
            raise ReproError(
                f"default_max_steps must be > 0, got {default_max_steps}")
        self.default_deadline_ms = default_deadline_ms
        self.default_max_steps = default_max_steps
        if store is not None and store_path is not None:
            raise ReproError(
                "SolverSession takes either a store object or a "
                "store_path, not both")
        if store_path is None and (shards is not None
                                   or preload_pack is not None):
            raise ReproError(
                "shards=/preload_pack= configure the session-owned "
                "store and require store_path=")
        self._owns_store = False
        if store_path is not None:
            from repro.batch.store import TieredHomStore, import_warm_pack

            store = TieredHomStore(store_path, shards=shards)
            self._owns_store = True
            if preload_pack is not None:
                import_warm_pack(store, preload_pack)
        self._store = store
        self.engine = HomEngine(max_counts=max_counts,
                                max_targets=max_targets,
                                store=store)
        if store is not None and preload > 0:
            seeder = getattr(store, "preload", None)
            if seeder is not None:
                seeder(self.engine, limit=preload)
        # The session's metrics registry: request accounting lives
        # here, the engine's registry and the process-wide one are
        # attached (one snapshot walks all three), and the persistent
        # store's counters are pulled in through collectors that read
        # whatever store is *currently* attached to the engine.
        metrics = MetricsRegistry()
        self.metrics = metrics
        self._m_tasks = metrics.counter("session.tasks.evaluated")
        self._m_task_errors = metrics.counter("session.tasks.errors")
        self._m_budget_exceeded = \
            metrics.counter("session.tasks.budget_exceeded")
        metrics.register_collector(self._collect_store_counters,
                                   monotonic=True)
        metrics.register_collector(self._collect_store_gauges,
                                   monotonic=False)
        metrics.attach(self.engine.metrics)
        metrics.attach(PROCESS_METRICS)
        self._closed = False

    # Read-only attribute surface over the registry-homed counters.
    @property
    def tasks_evaluated(self) -> int:
        return self._m_tasks.value

    @property
    def task_errors(self) -> int:
        return self._m_task_errors.value

    @property
    def tasks_budget_exceeded(self) -> int:
        return self._m_budget_exceeded.value

    def _store_read(self, method: str) -> Dict[str, int]:
        read = getattr(self.engine.store, method, None)
        return read() if read else {}

    # stats() key -> metric name, per kind.  A borrowed store may
    # report only some of the keys; the missing ones are skipped.
    # Counters come from the store's SQL-free counters(); only the
    # gauges pay for stats()' row counts.
    _STORE_COUNTER_METRICS = {
        "lookups": "store.lookups",
        "lookup_hits": "store.lookup_hits",
        "inserts": "store.inserts",
        "corruptions": "store.corruptions",
        "retries": "store.retries",
        "tier_hits": "store.tier.hits",
        "tier_misses": "store.tier.misses",
        "tier_evictions": "store.tier.evictions",
        "flush_batches": "store.flush.batches",
        "flush_rows": "store.flush.rows",
        "shard_opens": "store.shard.opens",
    }
    _STORE_GAUGE_METRICS = {
        "counts": "store.counts",
        "exists": "store.exists",
        "tier_entries": "store.tier.entries",
        "shards": "store.shards",
    }

    def _collect_store_counters(self) -> Dict[str, int]:
        counters = self._store_read("counters")
        return {name: counters[key]
                for key, name in self._STORE_COUNTER_METRICS.items()
                if key in counters}

    def _collect_store_gauges(self) -> Dict[str, int]:
        stats = self._store_read("stats")
        return {name: stats[key]
                for key, name in self._STORE_GAUGE_METRICS.items()
                if key in stats}

    # ------------------------------------------------------------------
    # Counting facade (the operations consumers actually perform)
    # ------------------------------------------------------------------
    def count(self, source, target) -> int:
        """``|hom(source, target)|`` through this session's engine."""
        return self.engine.count(source, target)

    def exists(self, source, target) -> bool:
        """Chandra–Merlin existence probe through this session's engine."""
        return self.engine.exists(source, target)

    @property
    def store(self):
        return self.engine.store

    # ------------------------------------------------------------------
    # Request accounting (fed by the batch runner and the service)
    # ------------------------------------------------------------------
    def record_task(self, ok: bool = True,
                    budget_exceeded: bool = False) -> None:
        """Count one evaluated request against this session."""
        self._m_tasks.value += 1
        if not ok:
            self._m_task_errors.value += 1
        if budget_exceeded:
            self._m_budget_exceeded.value += 1

    def budget_for(self, deadline_ms: Optional[float] = None
                   ) -> Optional[Budget]:
        """The fresh :class:`~repro.faults.budget.Budget` one request
        should run under — or ``None`` when neither the request nor
        the session bounds it.

        ``deadline_ms`` is the request's own deadline (the
        ``deadline_ms`` envelope field); it overrides the session
        default.  The session's ``default_max_steps`` applies either
        way (a work budget is a property of the deployment, not of one
        request).
        """
        deadline = deadline_ms if deadline_ms is not None \
            else self.default_deadline_ms
        if deadline is None and self.default_max_steps is None:
            return None
        return Budget(deadline_ms=deadline,
                      max_steps=self.default_max_steps)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Aggregated session statistics: the namespaced registry
        snapshot (:mod:`repro.obs`) of request accounting, the
        engine's counters, the process-wide intern/canonical/decode
        layers and, when a store is attached, its counters — the one
        metric schema the service's ``metrics`` control op serves.
        """
        return self.metrics.snapshot()

    def flush(self) -> None:
        """Flush buffered writes of the attached store, if any."""
        self.engine.flush_store()

    def clear(self) -> None:
        """Drop the engine's in-memory caches (store untouched)."""
        self.engine.clear()

    def close(self) -> None:
        """Flush, and close the store when this session opened it.

        Idempotent; a borrowed store is left as the caller configured
        it (only buffered writes are flushed).
        """
        if self._closed:
            return
        self._closed = True
        self.flush()
        if self._owns_store:
            self._store.close()
            self.engine.detach_store()

    def __enter__(self) -> "SolverSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"SolverSession(engine={self.engine!r}, "
                f"tasks={self.tasks_evaluated})")


# ----------------------------------------------------------------------
# The module-level default session
# ----------------------------------------------------------------------
_DEFAULT_SESSION: Optional[SolverSession] = None


def default_session() -> SolverSession:
    """The process-wide shared session (LRU-bounded, safe to keep)."""
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = SolverSession()
    return _DEFAULT_SESSION


def set_default_session(session: Optional[SolverSession]
                        ) -> Optional[SolverSession]:
    """Swap the process-wide default session; returns the previous one.

    ``None`` resets to "build a fresh default on next use".  The
    previous session is *not* closed — the caller decides its fate
    (tests swap a scoped session in and restore the old one after).
    """
    global _DEFAULT_SESSION
    previous = _DEFAULT_SESSION
    _DEFAULT_SESSION = session
    return previous


def resolve_session(session: Optional[SolverSession] = None
                    ) -> SolverSession:
    """The session an API call should run under: ``session`` when
    given, otherwise the process default."""
    return session if session is not None else default_session()
