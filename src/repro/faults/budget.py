"""Deadlines and work budgets for counting work (DESIGN.md §14).

A :class:`Budget` bounds one request two ways at once:

* a **wall-clock deadline** (``deadline_ms``) — the guarantee an
  operator actually cares about: no request occupies a pool thread
  past its deadline (to within the check stride);
* a **work budget** (``max_steps``) — a machine-independent bound in
  *kernel steps* (backtracking search nodes, DP table entries).  Unlike
  the deadline it is deterministic: the same instance exhausts the
  same budget at the same step on every machine.

The budget is installed around a request with :func:`use_budget`
(thread-local, so threads evaluating side by side never see each
other's budgets) and the kernels fetch it once per count via
:func:`active_budget`.  The kernels call :meth:`Budget.charge` every
``2^k`` iterations (1024 search nodes, 256 table entries) — one int
test per iteration when a budget is active, a single ``is not None``
test per count when none is — which keeps the overhead inside the
bench gate's ≤2% envelope while bounding the overshoot past a
deadline to one check stride.

Exhaustion raises :class:`BudgetExceeded` carrying partial stats
(reason, steps charged, elapsed wall clock); the request layer turns
it into a structured ``budget-exceeded`` error record instead of an
opaque failure.  When the *work* budget trips inside the DP backend
but wall-clock remains, the engine may degrade to backtracking once
(:meth:`Budget.allow_degrade`) — the DP's table-size bet went wrong,
but the deadline still has room for the O(n)-memory backend.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Optional

from repro.errors import ReproError

# Module-wide budget observability (same scoping as the bitset /
# intern counters: budgets are consulted by shared kernel code).
_BUDGET_COUNTERS = {
    "exceeded_deadline": 0,
    "exceeded_steps": 0,
    "injected": 0,
    "degraded": 0,
}


def budget_stats() -> Dict[str, int]:
    """Counters of the budget layer (for ``stats()`` / the registry)."""
    return dict(_BUDGET_COUNTERS)


class BudgetExceeded(ReproError):
    """A count ran past its deadline or work budget.

    Carries the partial stats of the interrupted count: ``reason`` is
    ``"deadline"``, ``"steps"`` or ``"injected"`` (the deterministic
    fault-injection trigger), ``steps`` is the kernel work charged so
    far, ``elapsed_ms`` the wall clock consumed.
    """

    def __init__(self, reason: str, steps: int = 0,
                 elapsed_ms: float = 0.0,
                 deadline_ms: Optional[float] = None,
                 max_steps: Optional[int] = None):
        self.reason = reason
        self.steps = steps
        self.elapsed_ms = elapsed_ms
        self.deadline_ms = deadline_ms
        self.max_steps = max_steps
        if reason == "deadline":
            detail = (f"deadline of {deadline_ms:.0f}ms exceeded after "
                      f"{elapsed_ms:.1f}ms ({steps} kernel steps)")
        elif reason == "steps":
            detail = (f"work budget of {max_steps} kernel steps exceeded "
                      f"({elapsed_ms:.1f}ms elapsed)")
        else:
            detail = f"fault injection tripped the budget ({reason})"
        super().__init__(detail)

    def to_record(self) -> Dict[str, object]:
        """The structured payload of a ``budget-exceeded`` error record."""
        record: Dict[str, object] = {
            "reason": self.reason,
            "steps": self.steps,
        }
        if self.deadline_ms is not None:
            record["deadline_ms"] = self.deadline_ms
        if self.max_steps is not None:
            record["max_steps"] = self.max_steps
        return record


class Budget:
    """One request's wall-clock deadline and kernel work budget.

    Either bound may be ``None``; a budget with neither is refused
    (it could never trip, and silently accepting it would mask a
    configuration mistake).  ``charge(n)`` accounts ``n`` kernel steps
    and raises :class:`BudgetExceeded` when a bound is crossed.

    A budget is owned by one request on one thread; it is not safe to
    share across threads (and never needs to be — :func:`use_budget`
    scopes it thread-locally).
    """

    __slots__ = ("deadline_ms", "max_steps", "steps", "started_at",
                 "_deadline_at", "_steps_enforced")

    def __init__(self, deadline_ms: Optional[float] = None,
                 max_steps: Optional[int] = None):
        if deadline_ms is None and max_steps is None:
            raise ReproError(
                "Budget needs a deadline_ms and/or a max_steps bound")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ReproError(f"deadline_ms must be > 0, got {deadline_ms}")
        if max_steps is not None and max_steps <= 0:
            raise ReproError(f"max_steps must be > 0, got {max_steps}")
        self.deadline_ms = deadline_ms
        self.max_steps = max_steps
        self.steps = 0
        self.started_at = time.monotonic()
        self._deadline_at = None if deadline_ms is None \
            else self.started_at + deadline_ms / 1000.0
        self._steps_enforced = max_steps is not None

    def elapsed_ms(self) -> float:
        return (time.monotonic() - self.started_at) * 1000.0

    def remaining_ms(self) -> Optional[float]:
        """Wall clock left before the deadline (``None`` = unbounded)."""
        if self._deadline_at is None:
            return None
        return max(0.0, (self._deadline_at - time.monotonic()) * 1000.0)

    def charge(self, steps: int = 1) -> None:
        """Account kernel work; raise when a bound is crossed."""
        self.steps += steps
        if self._steps_enforced and self.steps > self.max_steps:
            _BUDGET_COUNTERS["exceeded_steps"] += 1
            raise BudgetExceeded("steps", steps=self.steps,
                                 elapsed_ms=self.elapsed_ms(),
                                 deadline_ms=self.deadline_ms,
                                 max_steps=self.max_steps)
        if self._deadline_at is not None \
                and time.monotonic() > self._deadline_at:
            _BUDGET_COUNTERS["exceeded_deadline"] += 1
            raise BudgetExceeded("deadline", steps=self.steps,
                                 elapsed_ms=self.elapsed_ms(),
                                 deadline_ms=self.deadline_ms,
                                 max_steps=self.max_steps)

    def allow_degrade(self) -> bool:
        """May the engine retry this request once under backtracking?

        Granted when the *work* budget tripped but the wall clock still
        has room: the steps bound is lifted (the retry runs under the
        deadline alone, which is the bound the operator cares about)
        and subsequent calls return ``False`` — one retry, ever.
        Without a deadline there is nothing left to bound the retry,
        so a steps-only budget never degrades.
        """
        if not self._steps_enforced or self._deadline_at is None:
            return False
        if time.monotonic() > self._deadline_at:
            return False
        self._steps_enforced = False
        _BUDGET_COUNTERS["degraded"] += 1
        return True

    def __repr__(self) -> str:
        return (f"Budget(deadline_ms={self.deadline_ms}, "
                f"max_steps={self.max_steps}, steps={self.steps})")


_ACTIVE = threading.local()


def active_budget() -> Optional[Budget]:
    """The budget installed on this thread, if any."""
    return getattr(_ACTIVE, "budget", None)


def injected_exceeded() -> BudgetExceeded:
    """A :class:`BudgetExceeded` for a fault-injection trip.

    The ``engine.step`` fault point raises through this constructor so
    injected trips are counted apart from organic ones.
    """
    _BUDGET_COUNTERS["injected"] += 1
    budget = active_budget()
    if budget is None:
        return BudgetExceeded("injected")
    return BudgetExceeded("injected", steps=budget.steps,
                          elapsed_ms=budget.elapsed_ms(),
                          deadline_ms=budget.deadline_ms,
                          max_steps=budget.max_steps)


def may_degrade(exc: BudgetExceeded) -> bool:
    """Arbiter of the one-shot DP→backtracking degradation.

    Consulted by the engine's dispatcher (``HomEngine._dispatch``)
    when a DP count its cost model chose trips a budget.  A *deadline*
    trip never degrades — the wall clock is spent either way.  A
    *steps* trip degrades through :meth:`Budget.allow_degrade` (work
    budget lifted, deadline keeps guarding, one retry ever).  An
    *injected* trip degrades whenever the deadline (if any) still has
    room — the deterministic handle the fault harness uses to exercise
    this path.
    """
    if exc.reason == "deadline":
        return False
    budget = active_budget()
    if exc.reason == "injected":
        if budget is not None:
            remaining = budget.remaining_ms()
            if remaining is not None and remaining <= 0.0:
                return False
        _BUDGET_COUNTERS["degraded"] += 1
        return True
    if budget is None:
        return False
    return budget.allow_degrade()


@contextmanager
def use_budget(budget: Optional[Budget]):
    """Install ``budget`` thread-locally for the duration of the block.

    ``None`` is accepted and is a no-op (callers thread an optional
    budget through without branching).  Nested budgets shadow — the
    inner request wins, the outer budget is restored on exit.
    """
    if budget is None:
        yield None
        return
    previous = active_budget()
    _ACTIVE.budget = budget
    try:
        yield budget
    finally:
        _ACTIVE.budget = previous
