"""Outside-in span tracing of the program's layers.

:func:`install` replaces each traced public entry point *where its
caller looks it up* (a module global such as
``repro.batch.runner.decode_task``, or a method on a class) with a
wrapper that records one span: name, start, end, parent span, task id
and self time (duration minus the time its child spans cover).  The
program's own code is not changed.

Spans stay in memory and are written to ``<dir>/spans-<pid>.jsonl``
when the process ends: explicitly by the caller, or, in forked batch
workers, by a multiprocessing finalizer that runs when the worker
exits.  Counters read at the same boundaries (memo hits, canonical
cache misses, store tier hits) travel in the file's first line.
"""

from __future__ import annotations

import inspect
import json
import multiprocessing.util
import os
import re
import threading
import time
from typing import Callable, Dict, List, Optional

_ID = re.compile(r'"id":"([^"]*)"')


def _task_id(line) -> Optional[str]:
    if isinstance(line, str):
        match = _ID.search(line)
        if match:
            return match.group(1)
    return None


class Tracer:
    def __init__(self, directory: str):
        self.directory = directory
        self.spans: List[tuple] = []
        self.counters: Dict[str, int] = {}
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()

    # ------------------------------------------------------------ spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: int) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, function: Callable, name: str, root: bool = False,
             probe: Optional[Callable] = None) -> Callable:
        """``function`` with a span around every call.

        ``root`` spans take the task id from the first task line among
        their arguments; other spans inherit it from their
        parent.  ``probe(args, before)`` is called before and after the
        call (``before`` is its first return value) to read counters.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if root:
                task = next(filter(None, map(_task_id, args)), None)
            else:
                task = parent[3] if parent else None
            frame = [next(tracer._ids), name, 0.0, task]
            stack.append(frame)
            before = probe(args, None) if probe else None
            start = time.monotonic()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                tracer.spans.append((frame[0], parent[0] if parent else 0,
                                     name, start, end, duration - frame[2],
                                     task))
            if probe:
                probe(args, before, result)
            return result

        traced.__wrapped__ = function
        return traced

    def patch(self, owner, attribute: str, name: str, **options) -> None:
        """Replace ``owner.attribute`` (module global or method) with a
        traced wrapper, keeping classmethods classmethods."""
        raw = inspect.getattr_static(owner, attribute)
        if isinstance(raw, classmethod):
            setattr(owner, attribute,
                    classmethod(self.wrap(raw.__func__, name, **options)))
        else:
            setattr(owner, attribute, self.wrap(raw, name, **options))

    # ------------------------------------------------------------- output
    def dump(self) -> None:
        if not self.spans and not self.counters:
            return
        path = os.path.join(self.directory, f"spans-{os.getpid()}.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"pid": os.getpid(),
                                     "counters": self.counters}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []
        self.counters = {}

    def _after_fork(self) -> None:
        """A forked worker starts empty and writes its own file at exit."""
        self.spans = []
        self.counters = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=10)


def _delta_probe(tracer: Tracer, reads: Dict[str, Callable]):
    """A probe adding the movement of each ``reads`` value across the
    call to the tracer's counters (``reads`` get the call's args)."""
    def probe(args, before, result=None):
        values = {key: read(args) for key, read in reads.items()}
        if before is None:
            return values
        for key, value in values.items():
            tracer.count(key, value - before[key])
        return None
    return probe


def install(directory: str) -> Tracer:
    """Patch every traced entry point; return the tracer."""
    import repro.batch.runner as runner
    import repro.batch.store as store
    import repro.core.basis as basis
    import repro.core.decision as decision
    import repro.core.witness as witness
    import repro.hom.engine as engine
    import repro.service.async_daemon as async_daemon
    import repro.service.tenant as tenant
    import repro.structures.canonical as canonical
    import repro.ucq.analysis as analysis

    tracer = Tracer(directory)
    original_key = canonical.canonical_key

    def canonical_probe(args, before, result=None):
        misses = original_key.cache_info().misses
        if before is None:
            return misses
        tracer.count("canonical.calls", 1)
        tracer.count("canonical.misses", misses - before)
        return None

    engine_probe = _delta_probe(tracer, {
        "memo.hits": lambda a: a[0].hits + a[0].exists_hits,
        "memo.misses": lambda a: a[0].misses + a[0].exists_misses,
        "count.dp": lambda a: a[0].dp_counts,
        "count.backtrack": lambda a: a[0].backtrack_counts,
    })

    def lookup_probe(args, before, result=None):
        tier = args[0].tier
        values = (tier.hits, tier.misses)
        if before is None:
            return values
        tracer.count("store.lookups", 1)
        tracer.count("store.lookup_hits", result is not None)
        tracer.count("store.tier_hits", values[0] - before[0])
        tracer.count("store.tier_misses", values[1] - before[1])
        return None

    patches = [
        (runner, "evaluate_envelope", "runner.task", {"root": True}),
        (async_daemon, "evaluate_envelope", "service.eval", {"root": True}),
        (async_daemon.AsyncSolverService, "submit", "service.submit",
         {"root": True}),
        (runner, "decode_task", "codec.decode", {}),
        (runner, "canonical_json", "codec.encode", {}),
        (async_daemon, "canonical_json", "codec.encode", {}),
        (runner, "is_contained_set", "hom.containment", {}),
        (runner, "decide_path_determinacy", "core.pathdet", {}),
        (runner, "linear_certificate", "ucq.certificate", {}),
        (decision, "views_containing", "hom.containment", {}),
        (decision, "span_coefficients", "linalg.span", {}),
        (analysis, "span_coefficients", "linalg.span", {}),
        (basis.ComponentBasis, "from_queries", "core.basis", {}),
        (basis.ComponentBasis, "vector", "core.basis", {}),
        (basis, "find_isomorphism", "structures.isomorphism", {}),
        (analysis, "find_isomorphism", "structures.isomorphism", {}),
        (witness, "construct_counterexample", "core.witness", {}),
        (witness.CounterexamplePair, "verify", "core.witness", {}),
        (engine, "canonical_key", "structures.canonical",
         {"probe": canonical_probe}),
        (store, "canonical_key", "structures.canonical",
         {"probe": canonical_probe}),
        (engine, "source_plan", "hom.compile", {}),
        (engine.HomEngine, "target_index", "hom.compile", {}),
        (engine.HomEngine, "count_connected_leaf", "hom.count",
         {"probe": engine_probe}),
        (engine.HomEngine, "exists", "hom.count", {"probe": engine_probe}),
        (store.TieredHomStore, "lookup", "store.lookup",
         {"probe": lookup_probe}),
        (store.TieredHomStore, "lookup_exists", "store.lookup",
         {"probe": lookup_probe}),
        (store.TieredHomStore, "record", "store.record", {}),
        (store.TieredHomStore, "record_exists", "store.record", {}),
        (store.TieredHomStore, "flush", "store.flush", {}),
        # The service shares one store between tenants behind a lock;
        # waiting for that lock is store time too.
        (tenant.LockedStore, "lookup", "store.lookup", {}),
        (tenant.LockedStore, "lookup_exists", "store.lookup", {}),
        (tenant.LockedStore, "record", "store.record", {}),
        (tenant.LockedStore, "record_exists", "store.record", {}),
        (tenant.LockedStore, "flush", "store.flush", {}),
    ]
    for owner, attribute, name, options in patches:
        tracer.patch(owner, attribute, name, **options)
    # Runs in each multiprocessing child after the child has cleared the
    # finalizers it inherited, so the exit-time dump stays registered.
    multiprocessing.util.register_after_fork(tracer, Tracer._after_fork)
    return tracer
