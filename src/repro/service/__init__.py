"""The resident request service (``repro serve``).

Turns the one-shot CLI into a long-running daemon: one
:class:`~repro.session.SolverSession` stays warm across an entire
request stream, so compiled targets, canonical-component memo entries
and the persistent store amortize over thousands of requests instead
of being rebuilt per process invocation.  See DESIGN.md §10.

Two front ends share the protocol:

* the threaded daemon (:mod:`repro.service.daemon`) — one resident
  session, thread-per-connection TCP, the original deployment;
* the async daemon (:mod:`repro.service.async_daemon`) — asyncio
  multiplexing, per-tenant sessions with quotas and priorities in
  worker processes, admission-control backpressure, and an
  HTTP/WebSocket facade.  See DESIGN.md §16.
"""

from repro.service.async_daemon import (
    AsyncDaemonHandle,
    AsyncSolverService,
    serve_async_stdio,
    serve_async_tcp,
)
from repro.service.client import DaemonClient
from repro.service.daemon import (
    ServiceStats,
    SolverService,
    serve_socket,
    serve_stdio,
)
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
    "SolverService",
    "Tenant",
    "TenantQuota",
    "TenantRegistry",
    "run_load",
    "serve_async_stdio",
    "serve_async_tcp",
    "serve_socket",
    "serve_stdio",
]
