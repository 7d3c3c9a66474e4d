"""Deterministic fault injection (DESIGN.md §14).

A :class:`FaultPlan` names *trigger points* — the places the stack
deliberately consults before doing something that can fail in
production — and decides, deterministically, which invocations of each
point fail:

====================  ====================================================
point                 consulted by
====================  ====================================================
``store.lookup``      :class:`repro.batch.store.TieredHomStore` before
                      each shard probe (fires as a corrupt-database
                      error → exercises per-shard self-healing)
``worker.chunk``      batch worker processes before evaluating a chunk
                      (fires as ``os._exit`` → exercises pool restart,
                      retry and poison-task bisection)
``client.connect``    :class:`repro.service.client.DaemonClient` before
                      dialing (fires as connection-refused → exercises
                      retry backoff and ``wait_until_ready``)
``engine.step``       the counting kernels at count start (fires as
                      :class:`~repro.faults.budget.BudgetExceeded` with
                      reason ``"injected"`` → exercises the structured
                      budget-exceeded path and DP→backtracking
                      degradation without wall-clock races)
``serve.worker``      async-daemon worker processes before evaluating a
                      request (fires as ``os._exit`` → exercises the
                      worker-crash record and worker restart)
====================  ====================================================

Each point's entry selects invocations three composable ways:

* ``indices`` — explicit 0-based invocation indices of that point
  (process-local counter, incremented on every consult);
* ``task_ids`` — fire whenever the consult is keyed by one of these
  ids (scheduling-independent: a poison task kills its worker no
  matter which worker drew it);
* ``probability`` + plan-level ``seed`` — a per-point
  ``random.Random(seed ^ crc32(point))`` coin, so seeded chaos lanes
  get the same fault sequence on every run.

The plan is installed **process-globally** (:func:`install_fault_plan`)
— batch workers receive it through the pool initializer, forked
async-daemon workers inherit it, and the
``REPRO_FAULT_PLAN`` environment variable installs one at import time
for CLI chaos runs.  No plan installed (or an empty plan) means every
consult answers "no fault": the property the test suite pins is that a
fault-free plan is byte-identical to no plan at all.
"""

from __future__ import annotations

import json
import os
import random
import threading
import zlib
from typing import Dict, Optional

from repro.errors import ReproError

POINTS = ("store.lookup", "worker.chunk", "client.connect", "engine.step",
          "serve.worker")


class FaultInjected(ReproError):
    """Generic injected failure (points with no native error type)."""


class _PointTrigger:
    """Compiled trigger rule of one fault point."""

    __slots__ = ("indices", "task_ids", "probability", "rng", "calls",
                 "fired")

    def __init__(self, point: str, entry, seed: int):
        if isinstance(entry, (list, tuple)):
            entry = {"indices": list(entry)}
        if not isinstance(entry, dict):
            raise ReproError(
                f"fault plan entry for {point!r} must be a list of "
                f"indices or an object, got {type(entry).__name__}")
        unknown = set(entry) - {"indices", "task_ids", "probability"}
        if unknown:
            raise ReproError(
                f"fault plan entry for {point!r} has unknown keys "
                f"{sorted(unknown)}")
        self.indices = frozenset(int(i) for i in entry.get("indices", ()))
        self.task_ids = frozenset(str(t) for t in entry.get("task_ids", ()))
        probability = entry.get("probability")
        if probability is not None:
            probability = float(probability)
            if not 0.0 <= probability <= 1.0:
                raise ReproError(
                    f"fault probability for {point!r} must be in [0, 1], "
                    f"got {probability}")
        self.probability = probability
        # Seeded per point (not per plan): two points never share a
        # coin sequence, so adding a point never shifts another's.
        self.rng = random.Random(seed ^ zlib.crc32(point.encode("utf-8")))
        self.calls = 0
        self.fired = 0

    def fire(self, key: Optional[str]) -> bool:
        index = self.calls
        self.calls += 1
        hit = index in self.indices \
            or (key is not None and key in self.task_ids) \
            or (self.probability is not None
                and self.rng.random() < self.probability)
        if hit:
            self.fired += 1
        return hit


class FaultPlan:
    """A compiled, installable fault plan.

    ``spec`` maps point names to trigger entries (see the module
    docstring); a plan-level ``"seed"`` key seeds the probability
    coins.  The spec round-trips (:meth:`to_spec`) so plans travel to
    worker processes and ``repro batch run --fault-plan`` files
    unchanged.  Consults are thread-safe (the threads of one process
    share one plan).
    """

    def __init__(self, spec: Optional[Dict] = None):
        spec = dict(spec or {})
        seed = int(spec.pop("seed", 0))
        unknown = set(spec) - set(POINTS)
        if unknown:
            raise ReproError(
                f"fault plan names unknown points {sorted(unknown)}; "
                f"expected a subset of {list(POINTS)}")
        self.seed = seed
        self._spec = {point: spec[point] for point in POINTS if point in spec}
        self._triggers = {point: _PointTrigger(point, entry, seed)
                          for point, entry in self._spec.items()}
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                spec = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot load fault plan {path!r}: {exc}")
        if not isinstance(spec, dict):
            raise ReproError(
                f"fault plan {path!r} must be a JSON object, "
                f"got {type(spec).__name__}")
        return cls(spec)

    def to_spec(self) -> Dict:
        """The JSON-serializable spec this plan was built from."""
        spec: Dict = dict(self._spec)
        if self.seed:
            spec["seed"] = self.seed
        return spec

    def should_fire(self, point: str, key: Optional[str] = None) -> bool:
        """Consult one trigger point (increments its counter)."""
        trigger = self._triggers.get(point)
        if trigger is None:
            return False
        with self._lock:
            return trigger.fire(key)

    def fired(self) -> Dict[str, int]:
        """Fires per point so far (chaos-lane accounting)."""
        with self._lock:
            return {point: trigger.fired
                    for point, trigger in self._triggers.items()
                    if trigger.fired}

    def __repr__(self) -> str:
        return f"FaultPlan(points={sorted(self._triggers)}, seed={self.seed})"


# ----------------------------------------------------------------------
# Process-global installation
# ----------------------------------------------------------------------
_PLAN: Optional[FaultPlan] = None


def install_fault_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` process-globally; returns the previous plan."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    return previous


def clear_fault_plan() -> None:
    install_fault_plan(None)


def current_fault_plan() -> Optional[FaultPlan]:
    return _PLAN


def should_inject(point: str, key: Optional[str] = None) -> bool:
    """The one-line consult the fault points call.

    ``False`` with no side effects when no plan is installed — the
    production fast path is a module-global ``is None`` test.
    """
    plan = _PLAN
    if plan is None:
        return False
    return plan.should_fire(point, key)


# CLI chaos runs install a plan through the environment: the variable
# names a JSON spec file, loaded once at import.  A bad path must fail
# loudly — a chaos lane silently running fault-free would pass its
# assertions for the wrong reason.
_ENV_PLAN = os.environ.get("REPRO_FAULT_PLAN")
if _ENV_PLAN:
    install_fault_plan(FaultPlan.from_file(_ENV_PLAN))
