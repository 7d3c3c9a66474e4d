"""The resident request service (``repro serve``).

Turns the one-shot CLI into a long-running daemon: warm
:class:`~repro.session.SolverSession` objects stay resident across an
entire request stream, so compiled targets, canonical-component memo
entries and the persistent store amortize over thousands of requests
instead of being rebuilt per process invocation.

The daemon (:mod:`repro.service.async_daemon`) multiplexes every
connection on one asyncio event loop and evaluates in worker
processes, one session per tenant, with quotas, priorities,
admission-control backpressure, and an HTTP/WebSocket facade
(:mod:`repro.service.httpgate`).  See DESIGN.md §16.
"""

from repro.service.async_daemon import (
    AsyncDaemonHandle,
    AsyncSolverService,
    ServiceStats,
    serve_async_stdio,
    serve_async_tcp,
)
from repro.service.client import DaemonClient
from repro.service.loadgen import LoadReport, run_load
from repro.service.tenant import (
    LockedStore,
    Tenant,
    TenantQuota,
    TenantRegistry,
)

__all__ = [
    "AsyncDaemonHandle",
    "AsyncSolverService",
    "DaemonClient",
    "LoadReport",
    "LockedStore",
    "ServiceStats",
    "Tenant",
    "TenantQuota",
    "TenantRegistry",
    "run_load",
    "serve_async_stdio",
    "serve_async_tcp",
]
