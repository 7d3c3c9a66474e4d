"""Per-connection tenancy for the daemon (DESIGN.md §16).

One session shared by every client would let a single hot tenant
convoy everyone else, and could not give two clients different budgets
or memo bounds.  The daemon (:mod:`repro.service.async_daemon`)
instead gives each connection — or each named tenant across
connections — its own :class:`Tenant`:

* an isolated :class:`~repro.session.SolverSession` (own engine, own
  memo, own budget defaults), so one tenant's deadline trips or memo
  churn never leak into another's.  The session lives in the worker
  process the tenant is pinned to; this module keeps only the
  tenant's quota, pin and accounting, in the event-loop process;
* a **quota** (:class:`TenantQuota`): max in-flight requests admitted
  at once, per-request deadline default (PR 8 budgets), memo bounds,
  and a default priority for the dispatch queue;
* registry-homed accounting (``service.tenant.<name>.*`` counters)
  surfaced live through ``{"op": "stats"}`` / ``{"op": "metrics"}``.

The sessions a worker holds share its one persistent store through
:class:`LockedStore`, which owns the store and serializes access to it
(the store's SQLite handles are only thread-compatible under external
serialization).
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry

DEFAULT_MAX_INFLIGHT = 8


class LockedStore:
    """A thread-safe facade over one shared store object.

    Implements the engine's duck-typed store protocol (``lookup`` /
    ``record`` / ``lookup_exists`` / ``record_exists`` / ``flush`` /
    ``stats`` / ``counters``) by delegating under one lock.  Every
    tenant session in a worker process borrows this wrapper, so the
    worker's tenant engines share one warm persistent cache, which the
    wrapper closes once.
    """

    __slots__ = ("_store", "_lock")

    def __init__(self, store):
        self._store = store
        self._lock = threading.Lock()

    def lookup(self, component, leaf):
        with self._lock:
            return self._store.lookup(component, leaf)

    def record(self, component, leaf, count) -> None:
        with self._lock:
            self._store.record(component, leaf, count)

    def lookup_exists(self, source, target):
        with self._lock:
            return self._store.lookup_exists(source, target)

    def record_exists(self, source, target, exists) -> None:
        with self._lock:
            self._store.record_exists(source, target, exists)

    def preload(self, engine, limit: int = 2048) -> int:
        with self._lock:
            seeder = getattr(self._store, "preload", None)
            return seeder(engine, limit=limit) if seeder else 0

    def flush(self) -> None:
        with self._lock:
            self._store.flush()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            stats = getattr(self._store, "stats", None)
            return stats() if stats else {}

    def counters(self) -> Dict[str, int]:
        with self._lock:
            counters = getattr(self._store, "counters", None)
            return counters() if counters else {}

    def close(self) -> None:
        with self._lock:
            self._store.close()


@dataclass(frozen=True)
class TenantQuota:
    """Admission and budget bounds for one tenant.

    ``max_inflight`` bounds how many of the tenant's requests may be
    admitted (queued or executing) at once — the per-tenant slice of
    the service's backpressure.  ``deadline_ms`` is the PR 8 default
    wall-clock budget for every request that does not carry its own
    ``deadline_ms``.  ``max_counts``/``max_targets`` bound the
    tenant engine's memo (its memory budget).  ``priority`` is the
    default dispatch priority (lower runs earlier; see
    :mod:`repro.service.async_daemon`).
    """

    max_inflight: int = DEFAULT_MAX_INFLIGHT
    deadline_ms: Optional[float] = None
    max_counts: int = 16384
    max_targets: int = 512
    priority: int = 5

    def validate(self) -> None:
        # Hello values arrive straight from JSON: a string, a bool or
        # a NaN would otherwise surface later as an exception in the
        # event loop or in every task of the tenant.  The deadline
        # bound also keeps the float() in get_or_create from
        # overflowing.
        for key in ("max_inflight", "max_counts", "max_targets",
                    "priority"):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ReproError(
                    f"tenant {key} must be an integer, got {value!r}")
        if self.max_inflight < 1:
            raise ReproError(
                f"tenant max_inflight must be >= 1, got {self.max_inflight}")
        deadline = self.deadline_ms
        if deadline is not None and (
                not isinstance(deadline, (int, float))
                or isinstance(deadline, bool)
                or not 0 < deadline <= sys.float_info.max):
            raise ReproError(
                f"tenant deadline_ms must be null or a positive number, "
                f"got {deadline!r}")


class Tenant:
    """One tenant: its quota, its worker pin and its accounting.

    ``worker`` is the index of the worker process that owns the
    tenant's session; the registry picks it when the tenant is created
    and it never changes.  Admission state (``inflight``) is guarded
    by the registry's lock.
    """

    __slots__ = ("name", "quota", "worker", "inflight", "requests",
                 "errors", "rejected", "budget_exceeded", "connections",
                 "ephemeral", "tasks_evaluated")

    def __init__(self, name: str, quota: TenantQuota, worker: int = 0,
                 ephemeral: bool = False):
        quota.validate()
        self.name = name
        self.quota = quota
        self.worker = worker
        self.ephemeral = ephemeral
        self.inflight = 0
        self.requests = 0
        self.errors = 0
        self.rejected = 0
        self.budget_exceeded = 0
        self.connections = 0
        # The session's own count, as its worker last reported it.
        self.tasks_evaluated = 0

    def stats(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "rejected": self.rejected,
            "budget_exceeded": self.budget_exceeded,
            "inflight": self.inflight,
            "connections": self.connections,
            "max_inflight": self.quota.max_inflight,
            "priority": self.quota.priority,
            "deadline_ms": self.quota.deadline_ms,
            "tasks_evaluated": self.tasks_evaluated,
            "worker": self.worker,
        }

    def __repr__(self) -> str:
        return (f"Tenant({self.name!r}, worker={self.worker}, "
                f"inflight={self.inflight}/{self.quota.max_inflight})")


#: hello-op keys that configure a TenantQuota (everything else in the
#: hello payload is connection state, not tenant state).
QUOTA_KEYS = ("max_inflight", "deadline_ms", "max_counts",
              "max_targets", "priority")


class TenantRegistry:
    """All tenants of one async service, plus their shared accounting.

    ``get_or_create(name, quota)`` reuses an existing tenant by name —
    a reconnecting client gets its warm session back — but *refuses* a
    hello that tries to reconfigure an existing tenant's quota
    (silently adopting one of two contradicting configurations is the
    failure mode the session/service constructors already refuse).
    Anonymous connections get a fresh ``conn-<n>`` tenant with the
    service-default quota.

    Each new tenant is pinned to the least-loaded of ``workers`` worker
    processes (the one with the fewest tenants; ties go to the lowest
    index).  ``on_discard(tenant)`` runs after an ephemeral tenant is
    dropped, so its worker can drop the session.
    """

    def __init__(self, metrics: MetricsRegistry,
                 default_quota: Optional[TenantQuota] = None,
                 workers: int = 1,
                 on_discard: Optional[Callable[[Tenant], None]] = None):
        self._tenants: Dict[str, Tenant] = {}
        self._lock = threading.Lock()
        self._anonymous = 0
        self._load = [0] * max(1, workers)
        self._on_discard = on_discard
        self.default_quota = default_quota or TenantQuota()
        self.metrics = metrics
        self._m_opened = metrics.counter("service.tenants.opened")
        metrics.gauge("service.tenants.active", lambda: len(self._tenants))
        metrics.register_collector(self._collect, monotonic=True)

    def _collect(self) -> Dict[str, int]:
        report: Dict[str, int] = {}
        with self._lock:
            tenants = list(self._tenants.values())
        for tenant in tenants:
            prefix = f"service.tenant.{tenant.name}"
            report[f"{prefix}.requests"] = tenant.requests
            report[f"{prefix}.errors"] = tenant.errors
            report[f"{prefix}.rejected"] = tenant.rejected
        return report

    # ------------------------------------------------------------------
    def _build(self, name: str, quota: TenantQuota,
               ephemeral: bool = False) -> Tenant:
        worker = min(range(len(self._load)), key=self._load.__getitem__)
        tenant = Tenant(name, quota, worker=worker, ephemeral=ephemeral)
        self._load[worker] += 1
        self._tenants[name] = tenant
        self._m_opened.value += 1
        return tenant

    def anonymous(self) -> Tenant:
        """A fresh single-connection tenant with the default quota."""
        with self._lock:
            self._anonymous += 1
            return self._build(f"conn-{self._anonymous}",
                               self.default_quota, ephemeral=True)

    def discard(self, tenant: Tenant) -> None:
        """Drop an ephemeral tenant once its last connection closes.

        Named tenants survive disconnects (a reconnecting client gets
        its warm session back); anonymous ``conn-<n>`` tenants would
        otherwise accumulate forever.  No-op for named tenants or when
        other connections still reference the tenant.
        """
        if not tenant.ephemeral or tenant.connections > 0:
            return
        with self._lock:
            if self._tenants.get(tenant.name) is not tenant:
                return
            del self._tenants[tenant.name]
            self._load[tenant.worker] -= 1
        if self._on_discard is not None:
            self._on_discard(tenant)

    def get_or_create(self, name: str,
                      overrides: Optional[Dict[str, object]] = None
                      ) -> Tenant:
        """The named tenant, built from ``overrides`` on first use.

        A second hello for the same name must either repeat the same
        quota values or omit them; a contradicting value raises.
        """
        overrides = overrides or {}
        unknown = set(overrides) - set(QUOTA_KEYS)
        if unknown:
            raise ReproError(
                f"unknown tenant quota key(s) {sorted(unknown)}; "
                f"expected a subset of {list(QUOTA_KEYS)}")
        quota = replace(self.default_quota, **overrides)
        quota.validate()
        if quota.deadline_ms is not None:
            quota = replace(quota, deadline_ms=float(quota.deadline_ms))
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                return self._build(name, quota)
            for key in overrides:
                current = getattr(tenant.quota, key)
                value = getattr(quota, key)
                if value != current:
                    raise ReproError(
                        f"tenant {name!r} already exists with "
                        f"{key}={current!r}; cannot reconfigure to "
                        f"{value!r} (drain and restart the tenant "
                        f"instead)")
            return tenant

    # ------------------------------------------------------------------
    # Admission (called from the event loop; must never block on work)
    # ------------------------------------------------------------------
    def try_admit(self, tenant: Tenant) -> bool:
        """Reserve one in-flight slot; ``False`` when the quota is full."""
        with self._lock:
            if tenant.inflight >= tenant.quota.max_inflight:
                tenant.rejected += 1
                return False
            tenant.inflight += 1
            return True

    def release(self, tenant: Tenant, ok: bool,
                budget_exceeded: bool = False) -> None:
        with self._lock:
            tenant.inflight -= 1
            tenant.requests += 1
            if not ok:
                tenant.errors += 1
            if budget_exceeded:
                tenant.budget_exceeded += 1

    def total_inflight(self) -> int:
        with self._lock:
            return sum(t.inflight for t in self._tenants.values())

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._lock:
            tenants = dict(self._tenants)
        return {name: tenant.stats() for name, tenant in
                sorted(tenants.items())}

    def tenants(self):
        with self._lock:
            return list(self._tenants.values())
