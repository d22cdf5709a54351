"""Request intake and micro-batch formation for the query service.

The service splits serving into *intake* (this module) and *execution*
(:mod:`repro.service.engine`), the dispatcher/scheduler separation used by
real serving systems: submitters append :class:`QueryRequest` records to a
:class:`RequestQueue` and go wait on their futures, while the scheduler
thread drains the queue and folds the drained requests into
:class:`DispatchGroup` batches.

Two requests coalesce into the same group when they would run the **same
plan** over the same semiring.  The engine hands each group to the batch
chunker (:func:`repro.matlang.evaluator.plan_chunks`), which splits it by
dimension assignment — the precondition of
:func:`repro.matlang.ir.execute_plan_batch` — and runs each part as stacked
kernel calls.  Everything else about a request (which thread submitted it,
when, for which tenant) is irrelevant to correctness, so the group key is
just::

    (plan identity, semiring identity)

Plan identity is object identity: the compiler's plan cache returns one
plan object per ``(expression, schema, options)`` key, so concurrent
requests for the same query share the plan object and therefore the group.
A cache eviction between two submissions merely yields two groups — less
coalescing, never a wrong result.

:class:`CoalescingPolicy` carries the tunable knobs: how long the scheduler
waits for stragglers once work is pending (``max_delay``), how many
requests it drains per scheduling round (``max_batch``), and how deep the
intake queue may grow before ``submit`` blocks for backpressure
(``max_pending``).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

__all__ = [
    "CoalescingPolicy",
    "DispatchGroup",
    "QueryFuture",
    "QueryRequest",
    "RequestQueue",
    "estimate_cost",
]


class QueryFuture:
    """A lightweight future for one submitted request.

    The standard-library :class:`concurrent.futures.Future` allocates its
    own condition variable per instance — tens of microseconds each, which
    at serving rates costs more than executing the query.  This future
    instead shares **one** engine-wide condition: completions notify it, and
    waiters re-check their own flag.  The visible API is the familiar
    subset — :meth:`done`, :meth:`result`, :meth:`exception` — with the
    same semantics (``result`` re-raises the request's exception,
    ``TimeoutError`` on expiry).
    """

    __slots__ = ("_condition", "_finished", "_result", "_error", "_callbacks")

    def __init__(self, condition: threading.Condition) -> None:
        self._condition = condition
        self._finished = False
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._callbacks: Optional[List[Any]] = None

    def done(self) -> bool:
        return self._finished

    def add_done_callback(self, callback: Any) -> None:
        """Call ``callback(self)`` once the future resolves.

        If the future has already resolved, the callback runs immediately on
        the calling thread; otherwise it runs on the thread that resolves
        the future, after the result is published.  Callback exceptions are
        swallowed (matching :class:`concurrent.futures.Future`).  This is
        the bridge the asyncio front end (:mod:`repro.service.aio`) and the
        worker pool's result shipping are built on.
        """
        with self._condition:
            if not self._finished:
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(callback)
                return
        try:
            callback(self)
        except Exception:
            pass

    def _drain_callbacks(self) -> None:
        """Run queued callbacks after resolution, outside the condition.

        The engine resolves futures via :meth:`_finish_locked` while holding
        the shared condition; callbacks must not run under it (an asyncio
        bridge or a pool shipping hook may take its own locks), so every
        finish path calls this after releasing the condition.
        """
        with self._condition:
            callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for callback in callbacks:
                try:
                    callback(self)
                except Exception:
                    pass

    def _wait(self, timeout: Optional[float]) -> None:
        if self._finished:
            return
        with self._condition:
            if not self._condition.wait_for(lambda: self._finished, timeout):
                raise TimeoutError("the request has not completed yet")

    def result(self, timeout: Optional[float] = None) -> Any:
        """The request's result, blocking until it resolves."""
        self._wait(timeout)
        if self._error is not None:
            raise self._error
        return self._result

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The request's exception (or ``None``), blocking until resolved."""
        self._wait(timeout)
        return self._error

    def _finish(self, result: Any, error: Optional[BaseException]) -> bool:
        """Resolve once; returns whether this call did the transition."""
        with self._condition:
            resolved = self._finish_locked(result, error)
            if resolved:
                self._condition.notify_all()
        if resolved:
            self._drain_callbacks()
        return resolved

    def _finish_locked(self, result: Any, error: Optional[BaseException]) -> bool:
        """Resolve without notifying; the caller holds the shared condition.

        Lets the engine resolve a whole dispatched chunk under one condition
        acquisition and wake waiters once, instead of paying a lock round
        trip and a broadcast per request.
        """
        if self._finished:
            return False
        self._result = result
        self._error = error
        self._finished = True
        return True


@dataclass(frozen=True)
class CoalescingPolicy:
    """Tunable micro-batching knobs of the engine's scheduler.

    ``max_delay``
        Seconds the scheduler lingers after finding work, giving concurrent
        submitters time to land requests into the same batch.  ``0`` turns
        the engine into a pure pass-through (dispatch whatever is there).
        The delay bounds added latency: a request waits at most
        ``max_delay`` beyond its own execution time before dispatch starts.
    ``max_batch``
        Most requests drained per scheduling round, and therefore the
        largest stacked batch one group can reach before it is split into
        chunks.  Also the memory bound together with the executor's
        entry-budget chunking.
    ``max_pending``
        Intake queue bound; ``submit`` blocks once this many requests are
        waiting (backpressure instead of unbounded buffering).

    Robustness knobs (the PR 8 subsystem):

    ``default_deadline``
        Seconds-from-submission deadline applied to every request that does
        not carry its own ``deadline=``; ``None`` (the default) leaves
        requests unbounded.  Expired requests are shed with
        :class:`~repro.exceptions.DeadlineExceededError` before they cost
        anything — at submission, at dequeue, at batch formation, and on
        the worker in pooled mode.
    ``max_queue_depth``
        Admission-control threshold: a submission arriving while this many
        requests are already queued (in flight, for a pooled engine)
        resolves immediately with
        :class:`~repro.exceptions.EngineOverloadedError` instead of
        queueing.  Distinct from ``max_pending``, which *blocks* the
        submitter; shed-instead-of-block is what an upstream load balancer
        needs to fail over.  ``None`` disables depth shedding.
    ``max_pending_cost``
        Admission-control threshold over the *estimated cost* of the
        backlog (see :func:`estimate_cost`; roughly "matmul entry-ops
        waiting").  A queue of a few giant requests can be far more
        overloaded than a thousand tiny ones; this knob sheds on work, not
        count.  ``None`` disables cost shedding.
    ``heartbeat_interval`` / ``heartbeat_timeout``
        Workers send a heartbeat over their control pipe every
        ``heartbeat_interval`` seconds; the router watchdog force-kills and
        respawns a worker whose last heartbeat is older than
        ``heartbeat_timeout`` — the *hung*-worker detector (dead workers
        already surface as pipe EOF).
    ``hung_task_grace``
        A pooled task still in flight this many seconds past its deadline
        marks its worker as hung (the deadline said nobody wants the result
        anymore, yet the worker is still stuck on it); the watchdog kills
        and respawns the worker and the task resolves through the rescue
        path.
    ``quarantine_strikes`` / ``quarantine_reset``
        The plan circuit breaker (:class:`repro.service.health.CircuitBreaker`):
        a plan whose tasks coincide with ``quarantine_strikes`` worker
        deaths inside the strike window is quarantined; while open, its
        requests run on the router's sandboxed single-instance path, which
        resolves a request with
        :class:`~repro.exceptions.PlanQuarantinedError` if its sandbox
        dies too; after ``quarantine_reset`` seconds one probe request is
        let back into the pool.
    """

    max_delay: float = 0.002
    max_batch: int = 256
    max_pending: int = 8192
    default_deadline: Optional[float] = None
    max_queue_depth: Optional[int] = None
    max_pending_cost: Optional[float] = None
    heartbeat_interval: float = 0.25
    heartbeat_timeout: float = 5.0
    hung_task_grace: float = 2.0
    quarantine_strikes: int = 3
    quarantine_reset: float = 30.0

    def __post_init__(self) -> None:
        if self.max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay!r}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch!r}")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending!r}")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ValueError(
                f"default_deadline must be > 0, got {self.default_deadline!r}"
            )
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth!r}"
            )
        if self.max_pending_cost is not None and self.max_pending_cost <= 0:
            raise ValueError(
                f"max_pending_cost must be > 0, got {self.max_pending_cost!r}"
            )
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval!r}"
            )
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError(
                "heartbeat_timeout must exceed heartbeat_interval, got "
                f"{self.heartbeat_timeout!r} <= {self.heartbeat_interval!r}"
            )
        if self.hung_task_grace < 0:
            raise ValueError(
                f"hung_task_grace must be >= 0, got {self.hung_task_grace!r}"
            )
        if self.quarantine_strikes < 1:
            raise ValueError(
                f"quarantine_strikes must be >= 1, got {self.quarantine_strikes!r}"
            )
        if self.quarantine_reset < 0:
            raise ValueError(
                f"quarantine_reset must be >= 0, got {self.quarantine_reset!r}"
            )


def estimate_cost(plan: Any, instance: Any) -> float:
    """A cheap admission-control cost surrogate for one request.

    Deliberately crude — ``ops x max_dimension^3`` — because it runs on the
    submitting thread for *every* request when cost shedding is enabled:
    it only needs to rank a backlog of giant matmuls above a backlog of
    tiny ones, not predict seconds (that is the planner's
    :mod:`repro.matlang.cost` job, far too heavy for intake).
    """
    dimension = 1
    for size in instance.dimensions.values():
        if size > dimension:
            dimension = size
    return float(max(1, len(plan.ops))) * float(dimension) ** 3


class QueryRequest:
    """One submitted evaluation: a compiled plan, an instance, a future."""

    __slots__ = (
        "plan",
        "instance",
        "future",
        "submitted_at",
        "memo_key",
        "deadline_at",
        "cost_estimate",
        "trace",
    )

    def __init__(
        self,
        plan: Any,
        instance: Any,
        future: QueryFuture,
        submitted_at: float,
        deadline_at: Optional[float] = None,
    ) -> None:
        self.plan = plan
        self.instance = instance
        self.future = future
        #: ``time.perf_counter()`` at submission, for latency telemetry.
        self.submitted_at = submitted_at
        #: Result-memo key when the request missed a memoizable lookup at
        #: intake; the finish paths retain the result under it.
        self.memo_key = None
        #: Absolute ``time.perf_counter()`` deadline (``None`` = unbounded).
        self.deadline_at = deadline_at
        #: Admission-control cost estimate (0.0 when cost shedding is off).
        self.cost_estimate = 0.0
        #: :class:`repro.obs.trace.TraceContext` when this request was
        #: sampled for tracing, else ``None`` (the overwhelmingly common
        #: case — untraced requests pay one attribute read per stage).
        self.trace = None

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether this request's deadline has passed."""
        if self.deadline_at is None:
            return False
        return (time.perf_counter() if now is None else now) >= self.deadline_at

    def group_key(self) -> Tuple:
        """The coalescing identity (see the module docstring)."""
        return (id(self.plan), id(self.instance.semiring))


@dataclass
class DispatchGroup:
    """Requests sharing a plan and a semiring, dispatched together."""

    plan: Any
    requests: List[QueryRequest] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.requests)


def coalesce(requests: List[QueryRequest]) -> List[DispatchGroup]:
    """Fold drained requests into dispatch groups, preserving intake order.

    Groups come back in order of their earliest member, and members keep
    their submission order inside the group, so a drained burst executes in
    a deterministic order regardless of how threads interleaved at intake.
    """
    groups: "OrderedDict[Tuple, DispatchGroup]" = OrderedDict()
    for request in requests:
        key = request.group_key()
        group = groups.get(key)
        if group is None:
            groups[key] = group = DispatchGroup(plan=request.plan)
        group.requests.append(request)
    return list(groups.values())


class RequestQueue:
    """A condition-synchronized FIFO intake queue with backpressure.

    ``put`` blocks while the queue is at ``max_pending`` (so a runaway
    submitter cannot buffer unboundedly), ``drain`` blocks the scheduler
    until work arrives and then lingers up to the policy's ``max_delay``
    for stragglers — the heart of micro-batching: the first request of a
    quiet period pays at most ``max_delay`` extra latency, while a
    concurrent burst gets folded into large stacked batches.
    """

    def __init__(self, policy: CoalescingPolicy) -> None:
        self.policy = policy
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._items: List[QueryRequest] = []
        self._closed = False

    def put(self, request: QueryRequest) -> None:
        with self._not_full:
            while len(self._items) >= self.policy.max_pending and not self._closed:
                self._not_full.wait()
            if self._closed:
                raise RuntimeError("the request queue is closed")
            self._items.append(request)
            self._not_empty.notify()

    def put_many(self, requests: List[QueryRequest]) -> int:
        """Enqueue a pre-built burst under one lock acquisition.

        Appends as much of the burst as backpressure allows per round
        (waiting for the scheduler to drain when the queue is full) and
        wakes the scheduler once per round instead of once per request.
        Returns the number of requests accepted — the full burst unless the
        queue was closed mid-way, in which case the un-accepted suffix is
        the caller's to reject.
        """
        index = 0
        with self._not_full:
            while index < len(requests):
                if self._closed:
                    break
                space = self.policy.max_pending - len(self._items)
                if space <= 0:
                    self._not_full.wait()
                    continue
                accepted = requests[index : index + space]
                self._items.extend(accepted)
                index += len(accepted)
                self._not_empty.notify()
        return index

    def drain(self) -> List[QueryRequest]:
        """Blockingly take up to the policy's ``max_batch`` pending requests.

        Returns an empty list only when the queue is closed and empty —
        the scheduler's termination signal.
        """
        limit = self.policy.max_batch
        deadline: Optional[float] = None
        with self._not_empty:
            while not self._items:
                if self._closed:
                    return []
                self._not_empty.wait()
            # Work exists: linger for stragglers unless the batch is already
            # full or the engine is shutting down (then drain immediately).
            if self.policy.max_delay > 0 and not self._closed:
                deadline = time.perf_counter() + self.policy.max_delay
                while len(self._items) < limit and not self._closed:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._not_empty.wait(timeout=remaining)
            taken = self._items[:limit]
            del self._items[:limit]
            self._not_full.notify_all()
            return taken

    def close(self) -> None:
        """Stop accepting requests; pending ones will still be drained."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)
