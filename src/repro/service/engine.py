"""The concurrent query engine: micro-batched serving over compiled plans.

:class:`Engine` is the serving front door of the reproduction: many threads
call :meth:`Engine.submit` / :meth:`Engine.submit_many` with independent
``(expression, instance)`` requests and get :class:`concurrent.futures.Future`
results back, while a single scheduler thread drains the intake queue and
**coalesces** concurrent requests that share a compiled plan and a semiring.
Each coalesced group runs through the batch chunker sweeps use
(:func:`repro.matlang.evaluator.plan_chunks`), which splits it by
dimensions, picks each part's lane and runs it as stacked kernel calls
(:func:`repro.matlang.ir.execute_plan_batch`).  The Python dispatch cost of
plan execution — the dominant cost of small-instance traffic — is thereby
paid once per chunk instead of once per request: the move the batched
sweep API makes, lifted from "one caller with a list" to "many callers
with one request each".  The engine itself is intake, scheduling and
delivery.

Correctness contract
--------------------
Results are **bitwise-equal** to evaluating each request sequentially with
:func:`repro.matlang.evaluator.evaluate`:

* batched dense execution is bitwise-equal to per-instance dense execution
  (asserted across every registered semiring);
* sparse-selected and mixed (conversion-carrying) groups batch too: the
  group assembles into one block-diagonal CSR operand per input and every
  plan op runs once over the whole batch — block structure is closed under
  each combine op, so the stacked answer is bitwise-equal to running each
  request on its own sparse/mixed physical plan;
* a lone request, and each request of a group whose physical plan uses a
  custom (caller-registered) backend, runs on its own physical plan, the
  one ``evaluate`` picks;
* groups never merge across dimensions (no zero padding), so the contract
  holds on float64 as on the exact semirings;
* a request that raises (bad schema, carrier violation, overflow) delivers
  its exception through its own future without poisoning the group: the
  scheduler retries the group's surviving members per-instance.

Scheduling
----------
The :class:`~repro.service.batching.CoalescingPolicy` bounds the trade
between latency and batching: the scheduler lingers at most ``max_delay``
seconds for stragglers once work is pending, drains at most ``max_batch``
requests per round, and ``submit`` applies backpressure beyond
``max_pending`` queued requests.  :meth:`Engine.stats` exposes the serving
telemetry (queue depth, coalesce ratio, p50/p95 latency, throughput) as an
atomic snapshot.

Worker pools
------------
With ``workers=N`` the engine stops executing anything itself: it becomes
the **router** of a sharded multi-process tier.  Each request is compiled
(and memoized) on the submitting thread, looked up in the cross-request
:class:`~repro.service.memo.ResultMemo`, and on a miss hashed by its
coalescing identity to one of N forked worker processes
(:mod:`repro.service.pool`), each of which runs this same engine class
in-process over its own plan-cache shard.  Instance matrices travel
pickled, in the caller's own memory layout, over the worker's control
pipe; results come back the same way.  The correctness contract is
unchanged — results are bitwise-equal to sequential ``evaluate`` on every
semiring — and a worker crash resolves only the futures in flight on that
worker (one rescue attempt each) while the shard respawns.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import (
    DeadlineExceededError,
    EngineDiedError,
    EngineOverloadedError,
)
from repro.matlang.evaluator import plan_chunks, run_plan
from repro.service import faults
from repro.service.batching import (
    CoalescingPolicy,
    DispatchGroup,
    QueryFuture,
    QueryRequest,
    RequestQueue,
    coalesce,
    estimate_cost,
)
from repro.service.stats import EngineStats, EngineStatsSnapshot

__all__ = ["Engine"]


def _trace_label(expression: Any) -> str:
    """A short human-readable trace label for a submitted expression."""
    try:
        label = str(expression)
    except Exception:  # a label must never fail a submission
        return f"expr@{id(expression) & 0xFFFFFF:06x}"
    if len(label) > 60:
        label = label[:57] + "..."
    return label


class Engine:
    """A thread-safe serving engine over the compile-then-execute pipeline.

    Parameters
    ----------
    policy:
        The :class:`~repro.service.batching.CoalescingPolicy`; defaults to a
        2 ms straggler window, 256-request rounds and an 8192-deep queue.
    functions:
        Pointwise-function registry shared by all requests (defaults to the
        paper's registry, like the evaluator).
    workers:
        ``0`` (the default) keeps the single-process scheduler.  ``N >= 1``
        starts a sharded pool of N forked worker processes and turns this
        engine into their router (see the module docstring).
    memoize:
        Cross-request result memoization.  ``None`` enables it exactly in
        pooled mode (where the front door is the natural cache point);
        ``True`` / ``False`` force it either way.  Memoized repeats of an
        identical ``(plan, instance)`` pair resolve without executing.
    trace:
        Request tracing.  ``None`` / ``False`` (the default) records
        nothing and costs nothing beyond one attribute read per pipeline
        stage.  ``True`` traces through the process-wide default
        :class:`repro.obs.trace.Tracer`; a ``Tracer`` instance uses that
        tracer (and its ``sample_rate``).  Sampled requests accumulate
        spans across admission → queue → coalesce → (ship → worker) →
        dispatch → per-op kernel → delivery; in pooled mode worker-side
        spans ship back with the result and land in the router's tracer.

    The engine owns one daemon scheduler thread (or a worker pool); use it
    as a context manager (or call :meth:`shutdown`) to drain and stop
    deterministically.
    """

    def __init__(
        self,
        policy: Optional[CoalescingPolicy] = None,
        functions: Any = None,
        workers: int = 0,
        memoize: Optional[bool] = None,
        trace: Any = None,
    ) -> None:
        from repro.matlang.functions import default_registry
        from repro.matlang.ir import StackCache

        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers!r}")
        self.policy = policy if policy is not None else CoalescingPolicy()
        self.functions = functions if functions is not None else default_registry()
        self.workers = workers
        self._stats = EngineStats()
        if trace is None or trace is False:
            self._tracer: Any = None
        elif trace is True:
            from repro.obs.trace import get_tracer

            self._tracer = get_tracer()
        else:
            self._tracer = trace
        self._queue = RequestQueue(self.policy)
        #: Stacked inputs shared across dispatches (thread-safe; see
        #: :class:`repro.matlang.ir.StackCache`): a hot instance set served
        #: repeatedly re-stacks nothing.
        self._stack_cache = StackCache()
        self._shutdown = False
        self._shutdown_lock = threading.Lock()
        #: Set when the scheduler thread died of an unexpected exception;
        #: every pending and future request then resolves with it instead of
        #: hanging on a queue nobody drains.
        self._died: Optional[EngineDiedError] = None
        #: One condition shared by every future this engine hands out (see
        #: :class:`repro.service.batching.QueryFuture`).
        self._result_condition = threading.Condition()
        #: Trace labels of submitted expressions, ``id(expression) ->
        #: (expression, label)``: ``str()`` on an AST costs microseconds, so
        #: a traced engine pays it once per expression, not once per sampled
        #: request.  The expression is pinned so its id cannot be recycled.
        self._trace_labels: Dict[int, Tuple[Any, str]] = {}
        self._trace_labels_lock = threading.Lock()

        #: Cross-request result memo; enabled by default in pooled mode.
        if memoize is None:
            memoize = workers > 0
        if memoize:
            from repro.service.memo import ResultMemo

            self._memo: Any = ResultMemo()
        else:
            self._memo = None

        if workers > 0:
            from repro.service.pool import WorkerPool

            self._stats.set_workers(workers)
            self._scheduler = None
            self._pool_drainer: Optional[threading.Thread] = None
            self._pool: Any = WorkerPool(
                workers,
                deliver=self._deliver_pooled,
                policy=self.policy,
                functions=self.functions,
                stats=self._stats,
            )
        else:
            self._pool = None
            self._scheduler = threading.Thread(
                target=self._run_scheduler, name="repro-service-scheduler", daemon=True
            )
            self._scheduler.start()

    # ------------------------------------------------------------------
    # Submission API (any thread)
    # ------------------------------------------------------------------
    def submit(
        self, expression: Any, instance: Any, deadline: Optional[float] = None
    ) -> QueryFuture:
        """Enqueue one evaluation; returns a future resolving to the result.

        Compilation happens on the submitting thread (the plan cache makes
        repeats cheap and is lock-protected), so typing errors surface
        through the future immediately instead of occupying the scheduler.
        In pooled mode the request is additionally checked against the
        result memo and, on a miss, routed to its shard worker.

        ``deadline`` is seconds from now (overriding the policy's
        ``default_deadline``); a request whose deadline expires before it
        executes is shed and its future resolves with
        :class:`~repro.exceptions.DeadlineExceededError`.  Under admission
        control (``max_queue_depth`` / ``max_pending_cost``) an overloaded
        engine resolves the future with
        :class:`~repro.exceptions.EngineOverloadedError` instead of
        queueing.  Neither error is ever *raised* from ``submit``.
        """
        return self.submit_many(((expression, instance, deadline),))[0]

    def submit_many(self, requests: Iterable[Tuple[Any, ...]]) -> List[QueryFuture]:
        """Enqueue a burst of ``(expression, instance[, deadline])`` tuples.

        The burst is compiled first and enqueued in one queue sweep, which
        both minimises per-request synchronization cost and gives the
        scheduler the best possible shot at coalescing the burst into large
        stacked batches.  In pooled mode each request is routed to its
        shard as soon as it is built.  Futures come back in input order.
        """
        futures: List[QueryFuture] = []
        built: List[QueryRequest] = []
        for item in requests:
            expression, instance, deadline = self._unpack_submission(item)
            future = QueryFuture(self._result_condition)
            futures.append(future)
            if self._reject_if_shutdown(future) or self._overloaded(future):
                continue
            request = self._build_request(expression, instance, future, deadline)
            if (
                request is None
                or not self._admit(request)
                or self._memo_lookup(request)
            ):
                continue
            if self._pool is not None:
                self._submit_pooled(request)
            else:
                built.append(request)
        self._enqueue(built)
        return futures

    @staticmethod
    def _unpack_submission(item: Tuple[Any, ...]) -> Tuple[Any, Any, Optional[float]]:
        """``(expression, instance)`` or ``(expression, instance, deadline)``."""
        if len(item) == 2:
            return item[0], item[1], None
        expression, instance, deadline = item
        return expression, instance, deadline

    def submit_compiled(
        self,
        plan: Any,
        instance: Any,
        deadline: Optional[float] = None,
        trace: Any = None,
    ) -> QueryFuture:
        """Enqueue an already-compiled plan, skipping expression compilation.

        The entry point worker processes use for parent-shipped plans; also
        handy for callers that compile once and replay many instances.
        Only valid on a single-process engine (workers route compiled plans
        themselves).  ``trace`` optionally attaches an existing
        :class:`~repro.obs.trace.TraceContext` (the pool passes the
        router-started context so worker-side spans join the same trace);
        without one, the engine's own tracer samples as usual.
        """
        if self._pool is not None:
            raise RuntimeError("submit_compiled is a worker-side entry point")
        future = QueryFuture(self._result_condition)
        if self._reject_if_shutdown(future):
            return future
        if self._overloaded(future):
            return future
        submitted_at = time.perf_counter()
        request = QueryRequest(
            plan=plan,
            instance=instance,
            future=future,
            submitted_at=submitted_at,
            deadline_at=self._deadline_at(submitted_at, deadline),
        )
        if trace is not None:
            request.trace = trace
        elif self._tracer is not None:
            context = self._tracer.start(f"plan@{id(plan) & 0xFFFFFF:06x}")
            if context is not None:
                context.add_perf("admission", "serving", submitted_at, 0.0)
                request.trace = context
        if self.policy.max_pending_cost is not None:
            request.cost_estimate = estimate_cost(plan, instance)
        if not self._admit(request):
            return future
        if not self._memo_lookup(request):
            self._enqueue([request])
        return future

    def evaluate(
        self, expression: Any, instance: Any, deadline: Optional[float] = None
    ) -> Any:
        """Synchronous convenience wrapper: submit and wait for the result."""
        return self.submit(expression, instance, deadline).result()

    def asubmit(self, expression: Any, instance: Any, deadline: Optional[float] = None):
        """Submit from asyncio: returns an awaitable ``asyncio.Future``.

        Must be called from the thread running the event loop (the future
        is bound to ``asyncio.get_running_loop()``); the engine resolves it
        thread-safely from its scheduler / receiver threads.
        """
        from repro.service.aio import bridge_future

        return bridge_future(self.submit(expression, instance, deadline))

    def asubmit_many(self, requests: Iterable[Tuple[Any, ...]]):
        """Submit a burst from asyncio; awaiting gathers in input order."""
        import asyncio

        from repro.service.aio import bridge_future

        return asyncio.gather(
            *[bridge_future(future) for future in self.submit_many(requests)]
        )

    def stats(self) -> EngineStatsSnapshot:
        """An atomic snapshot of the serving telemetry.

        In pooled mode this is the router's view — submissions, memo
        hits/misses, in-flight depth, completions and latencies;
        per-worker dispatch detail (coalesce ratios, batch sizes) lives in
        :meth:`worker_stats`.
        """
        return self._stats.snapshot()

    def worker_stats(self, timeout: float = 5.0) -> List[Any]:
        """Per-worker engine snapshots (empty for a single-process engine)."""
        if self._pool is None:
            return []
        return self._pool.worker_stats(timeout)

    @property
    def tracer(self) -> Any:
        """The request :class:`~repro.obs.trace.Tracer` (``None`` = off)."""
        return self._tracer

    def _trace_finish(self, request: Any, error: Optional[BaseException] = None) -> None:
        """Stamp the delivery on a traced request and flush its spans.

        ``request`` is anything carrying ``trace`` / ``submitted_at`` (a
        :class:`QueryRequest` here, a pool ``_Task`` on the router).  On a
        worker the engine has no tracer, so the spans stay in the context
        and ship back to the router with the result.
        """
        context = request.trace
        if context is None:
            return
        now = time.perf_counter()
        args: Dict[str, Any] = {"latency": now - request.submitted_at}
        if error is not None:
            args["error"] = type(error).__name__
        context.add_perf("deliver", "serving", now, 0.0, args)
        if self._tracer is not None:
            self._tracer.finish(context)

    def memo_info(self):
        """Counters of the cross-request result memo (``None`` if off)."""
        return None if self._memo is None else self._memo.info()

    def stack_cache_info(self):
        """Counters of the engine's cross-dispatch input-stacking cache."""
        return self._stack_cache.info()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop intake; the scheduler drains pending requests, then exits.

        Idempotent.  With ``wait`` (the default) the call returns once every
        already-submitted future has resolved — in pooled mode that means
        draining the worker pool.  With ``wait=False`` the call returns
        promptly in both modes; a pooled engine drains its workers on a
        background thread, and a later ``shutdown(wait=True)`` joins it.
        """
        with self._shutdown_lock:
            first = not self._shutdown
            self._shutdown = True
            if first:
                self._queue.close()
                if self._pool is not None and not wait:
                    # Started under the lock so a concurrent
                    # shutdown(wait=True) always observes the drainer.
                    self._pool_drainer = threading.Thread(
                        target=self._pool.shutdown,
                        name="repro-pool-drain",
                        daemon=True,
                    )
                    self._pool_drainer.start()
        if self._pool is not None:
            if first and wait:
                self._pool.shutdown()
            elif wait:
                drainer = self._pool_drainer
                if drainer is not None:
                    drainer.join()
            return
        if wait:
            self._scheduler.join()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Intake helpers
    # ------------------------------------------------------------------
    #: Entries kept in the trace-label cache; a serving mix rarely has more
    #: live query shapes than this, and eviction only costs one ``str()``.
    _TRACE_LABEL_CAPACITY = 512

    def _deadline_at(
        self, submitted_at: float, deadline: Optional[float]
    ) -> Optional[float]:
        """Absolute ``perf_counter`` deadline for one submission (or ``None``)."""
        if deadline is None:
            deadline = self.policy.default_deadline
        if deadline is None:
            return None
        return submitted_at + deadline

    def _overloaded(self, future: QueryFuture) -> bool:
        """Depth-based admission control; resolves the future when shedding."""
        limit = self.policy.max_queue_depth
        if limit is None or self._stats.pending_depth() < limit:
            return False
        self._stats.record_overloaded()
        future._finish(
            None,
            EngineOverloadedError(
                f"the engine is overloaded: {limit} requests already pending"
            ),
        )
        return True

    def _admit(self, request: QueryRequest) -> bool:
        """Deadline / cost admission for one built request.

        Returns ``False`` when the request was shed — its future is already
        resolved with the typed error and it must not be enqueued.
        """
        if request.expired():
            self._stats.record_expired(at_submit=True)
            error: BaseException = DeadlineExceededError(
                "the request's deadline expired at submission"
            )
            self._trace_finish(request, error)
            request.future._finish(None, error)
            return False
        limit = self.policy.max_pending_cost
        if limit is not None and request.cost_estimate:
            pending = self._stats.current_pending_cost()
            if pending and pending + request.cost_estimate > limit:
                self._stats.record_overloaded()
                error = EngineOverloadedError(
                    "the engine is overloaded: backlog cost "
                    f"{pending:.3g} + {request.cost_estimate:.3g} "
                    f"exceeds {limit:.3g}"
                )
                self._trace_finish(request, error)
                request.future._finish(None, error)
                return False
        return True

    def _build_request(
        self,
        expression: Any,
        instance: Any,
        future: QueryFuture,
        deadline: Optional[float] = None,
    ) -> Optional[QueryRequest]:
        from repro.matlang.compiler import compile_expression

        tracer = self._tracer
        context = None
        intake = 0.0
        if tracer is not None:
            intake = time.perf_counter()
            context = tracer.start()
        try:
            # Warm repeats hit the plan cache's identity front in O(1).
            plan = compile_expression(expression, instance.schema)
        except Exception as error:  # typing / schema errors belong to the future
            if context is not None:
                context.add_perf(
                    "admission", "serving", intake,
                    time.perf_counter() - intake,
                    {"error": type(error).__name__},
                )
                tracer.finish(context)
            self._stats.record_rejected()
            future._finish(None, error)
            return None
        submitted_at = time.perf_counter()
        request = QueryRequest(
            plan=plan,
            instance=instance,
            future=future,
            submitted_at=submitted_at,
            deadline_at=self._deadline_at(submitted_at, deadline),
        )
        if context is not None:
            context.label = self._label_for(expression)
            # Admission covers intake through compile — everything the
            # submitting thread does before the request exists.
            context.add_perf("admission", "serving", intake, submitted_at - intake)
            request.trace = context
        if self.policy.max_pending_cost is not None:
            request.cost_estimate = estimate_cost(plan, instance)
        return request

    def _label_for(self, expression: Any) -> str:
        entry = self._trace_labels.get(id(expression))
        if entry is not None:
            return entry[1]
        label = _trace_label(expression)
        with self._trace_labels_lock:
            while len(self._trace_labels) >= self._TRACE_LABEL_CAPACITY:
                self._trace_labels.pop(next(iter(self._trace_labels)))
            self._trace_labels[id(expression)] = (expression, label)
        return label

    def _enqueue(self, requests: List[QueryRequest]) -> None:
        if not requests:
            return
        # Counted as submitted *before* the enqueue: the scheduler may drain
        # and complete a request the instant it lands, and a stats snapshot
        # taken in that window must never see completed > submitted or a
        # negative queue depth.
        self._stats.record_submitted(len(requests))
        cost = sum(request.cost_estimate for request in requests)
        if cost:
            self._stats.record_cost(cost)
        accepted = self._queue.put_many(requests)
        rejected = requests[accepted:]
        if rejected:
            self._stats.record_queue_rejected(len(rejected))
            refund = sum(request.cost_estimate for request in rejected)
            if refund:
                self._stats.record_cost(-refund)
            error: BaseException = (
                self._died
                if self._died is not None
                else RuntimeError("the request queue is closed")
            )
            for request in rejected:
                request.future._finish(None, error)

    def _reject_if_shutdown(self, future: QueryFuture) -> bool:
        """Fail a new future when the engine is shut down (before the memo).

        A memoized repeat would otherwise keep resolving after ``shutdown``,
        making the lifecycle contract depend on what happens to be cached.
        A scheduler death outranks a plain shutdown: its
        :class:`~repro.exceptions.EngineDiedError` tells the caller the
        engine broke rather than was retired.
        """
        if self._died is not None:
            self._stats.record_rejected()
            future._finish(None, self._died)
            return True
        if not self._shutdown:
            return False
        self._stats.record_rejected()
        future._finish(None, RuntimeError("the engine is shut down"))
        return True

    def _memo_lookup(self, request: QueryRequest) -> bool:
        """Try to answer a request from the result memo.

        Returns ``True`` when the future was resolved from a memo hit (the
        request must not be enqueued).  On a memoizable miss the request is
        tagged with its memo key so the finish paths retain the result.
        """
        memo = self._memo
        if memo is None:
            return False
        key, hit = memo.lookup(request.plan, request.instance)
        if key is None:
            return False  # not memoizable (object-dtype carriers)
        if hit is not None:
            self._stats.record_submitted(1)
            self._stats.record_memo_hit(
                time.perf_counter() - request.submitted_at, memo.bytes
            )
            context = request.trace
            if context is not None:
                context.add_perf(
                    "memo", "serving", request.submitted_at,
                    time.perf_counter() - request.submitted_at, {"hit": True},
                )
                if self._tracer is not None:
                    self._tracer.finish(context)
            request.future._finish(hit, None)
            return True
        self._stats.record_memo_miss(memo.bytes)
        request.memo_key = key
        return False

    # ------------------------------------------------------------------
    # Pooled routing (workers >= 1)
    # ------------------------------------------------------------------
    def _submit_pooled(self, request: QueryRequest) -> None:
        """Route one built, admitted memo miss to its shard worker."""
        future = request.future
        self._stats.record_submitted(1)
        if request.cost_estimate:
            self._stats.record_cost(request.cost_estimate)
        try:
            task = self._pool.submit(
                request.plan,
                request.instance,
                future,
                request.memo_key,
                request.submitted_at,
                deadline_at=request.deadline_at,
                cost=request.cost_estimate,
                trace=request.trace,
            )
        except Exception as error:
            if request.cost_estimate:
                self._stats.record_cost(-request.cost_estimate)
            self._stats.record_queue_rejected(1)
            future._finish(None, error)
            return
        if task is None:  # pool already closed
            if request.cost_estimate:
                self._stats.record_cost(-request.cost_estimate)
            self._stats.record_queue_rejected(1)
            future._finish(None, RuntimeError("the engine is shut down"))

    def _deliver_pooled(self, task: Any, result: Any, error: Optional[BaseException]) -> None:
        """Pool completion hook: memoize, account, resolve (receiver threads)."""
        if error is None and task.memo_key is not None and self._memo is not None:
            self._memo.store(task.memo_key, task.plan, result)
        cost = getattr(task, "cost", 0.0)
        if cost:
            self._stats.record_cost(-cost)
        if isinstance(error, DeadlineExceededError):
            self._stats.record_expired()
        future = task.future
        latency = time.perf_counter() - task.submitted_at
        with self._result_condition:
            if future.done():
                return
            self._stats.record_dequeued(1)
            self._stats.record_done(latency, failed=error is not None)
            future._finish_locked(result if error is None else None, error)
            self._result_condition.notify_all()
        future._drain_callbacks()
        self._trace_finish(task, error)

    # ------------------------------------------------------------------
    # The scheduler thread
    # ------------------------------------------------------------------
    def _run_scheduler(self) -> None:
        drained: List[QueryRequest] = []
        try:
            while True:
                drained = self._queue.drain()
                if not drained:
                    return  # queue closed and empty: clean shutdown
                if faults.ACTIVE is not None:
                    faults.ACTIVE.fire("engine.scheduler")
                self._stats.record_dequeued(len(drained))
                dequeued_at = time.perf_counter()
                for request in drained:
                    if request.trace is not None:
                        request.trace.add_perf(
                            "queue", "serving", request.submitted_at,
                            dequeued_at - request.submitted_at,
                        )
                cost = sum(request.cost_estimate for request in drained)
                if cost:
                    self._stats.record_cost(-cost)
                drained = self._shed_expired(drained)
                if not drained:
                    continue
                groups = coalesce(drained)
                coalesced_at = time.perf_counter()
                for group in groups:
                    for request in group.requests:
                        if request.trace is not None:
                            request.trace.add_perf(
                                "coalesce", "serving", dequeued_at,
                                coalesced_at - dequeued_at,
                                {"groups": len(groups), "group": len(group.requests)},
                            )
                for group in groups:
                    try:
                        self._dispatch(group)
                    except Exception as error:  # pragma: no cover - last resort
                        # A scheduler-level surprise must not strand futures.
                        for request in group.requests:
                            self._finish_error(request, error)
        except BaseException as error:
            self._fail_engine(error, drained)

    def _shed_expired(self, requests: List[QueryRequest]) -> List[QueryRequest]:
        """Drop already-expired requests before they cost a dispatch.

        Shedding is O(µs) per request — one clock read, one typed-error
        finish — which is the whole point of deadlines under overload: work
        nobody is waiting for anymore never reaches a kernel.
        """
        now = time.perf_counter()
        live: List[QueryRequest] = []
        for request in requests:
            if request.expired(now):
                self._stats.record_expired()
                self._finish_error(
                    request,
                    DeadlineExceededError(
                        "the request's deadline expired before dispatch"
                    ),
                )
            else:
                live.append(request)
        return live if len(live) < len(requests) else requests

    def _fail_engine(
        self, error: BaseException, inflight: List[QueryRequest]
    ) -> None:
        """The scheduler died: fail everything instead of hanging callers.

        Every in-flight request of the dying round, everything still queued,
        and every later submission resolves with one shared
        :class:`~repro.exceptions.EngineDiedError` chained to the scheduler's
        exception — a future that can never resolve is the one outcome the
        serving tier must not produce.
        """
        died = EngineDiedError(
            f"the engine scheduler died: {type(error).__name__}: {error}"
        )
        died.__cause__ = error
        self._died = died
        with self._shutdown_lock:
            self._shutdown = True
            self._queue.close()
        for request in inflight:
            self._finish_error(request, died)
        while True:
            leftovers = self._queue.drain()
            if not leftovers:
                break
            self._stats.record_dequeued(len(leftovers))
            for request in leftovers:
                self._finish_error(request, died)

    def _dispatch(self, group: DispatchGroup) -> None:
        """Execute one coalesced group through the batch chunker.

        :func:`repro.matlang.evaluator.plan_chunks` splits the group by
        dimensions, picks each part's lane and sizes its chunks, as for a
        ``run_batch(..., ragged=False)`` sweep; the engine runs the chunks
        it yields.  Near-miss sizes are not padded into one batch, so every
        result is the one ``evaluate`` computes.
        """
        if faults.ACTIVE is not None:
            faults.ACTIVE.fire("engine.dispatch")
        requests = group.requests
        if any(request.deadline_at is not None for request in requests):
            # Re-check at batch formation: time passed in the straggler
            # window and in earlier groups of this round.
            requests = self._shed_expired(requests)
            if not requests:
                return
        chunks = plan_chunks(
            group.plan, [request.instance for request in requests], ragged=False
        )
        for chunk in chunks:
            members = [requests[position] for position in chunk.positions]
            if chunk.lane == "single":
                self._execute_single(members[0])
            else:
                self._execute_chunk(members, chunk)

    def _execute_chunk(self, requests: List[QueryRequest], chunk: Any) -> None:
        """Run one stacked chunk; if it raises, run its requests alone."""
        started = time.perf_counter()
        traced = [request for request in requests if request.trace is not None]
        collector = None
        if traced:
            # The batch executor's profiler hook is the kernel span source.
            from repro.obs.trace import OpSpanCollector

            collector = OpSpanCollector()
        try:
            results = chunk.run(self.functions, self._stack_cache, collector)
        except Exception:
            # Rescue pass: one poisoned request (carrier violation,
            # overflow) must only fail its own future, so each request of
            # the chunk reruns alone for its own verdict.
            for request in requests:
                self._execute_single(request)
            return
        self._stats.record_dispatch(len(requests), batched=True)
        if chunk.lane != "dense":
            self._stats.record_sparse_dispatch(
                len(requests), time.perf_counter() - started
            )
        if traced:
            ended = time.perf_counter()
            for request in traced:
                request.trace.add_perf(
                    "dispatch", "serving", started, ended - started,
                    {"batch": len(requests), "lane": chunk.lane},
                )
                collector.attach(request.trace, batch=len(requests))
        self._finish_chunk(requests, results)

    def _execute_single(self, request: QueryRequest) -> None:
        """Run one request alone, on the plan ``evaluate`` picks for it."""
        context = request.trace
        collector = None
        if context is not None:
            # The executor's profiler hook is the kernel span source.
            from repro.obs.trace import OpSpanCollector

            collector = OpSpanCollector()
        self._stats.record_dispatch(1, batched=False)
        started = time.perf_counter()
        try:
            result = run_plan(
                request.plan, request.instance, self.functions, profiler=collector
            )
        except Exception as error:
            if context is not None:
                context.add_perf(
                    "dispatch", "serving", started, time.perf_counter() - started,
                    {"batch": 1, "lane": "single", "error": type(error).__name__},
                )
                collector.attach(context, batch=1)
            self._finish_error(request, error)
        else:
            if context is not None:
                context.add_perf(
                    "dispatch", "serving", started, time.perf_counter() - started,
                    {"batch": 1, "lane": "single"},
                )
                collector.attach(context, batch=1)
            self._finish_result(request, result)

    # ------------------------------------------------------------------
    # Result delivery
    # ------------------------------------------------------------------
    # Completion statistics are recorded *before* the future flips to done
    # (mirroring the record-submitted-before-enqueue ordering at intake): a
    # client whose ``result()`` just returned may call ``stats()``
    # immediately, and must never observe ``completed + failed`` lagging
    # behind its own finished request.

    def _finish_chunk(self, chunk: List[QueryRequest], results: List[Any]) -> None:
        """Resolve one dispatched chunk's futures under a single broadcast."""
        now = time.perf_counter()
        with self._result_condition:
            pending = [
                (request, result)
                for request, result in zip(chunk, results)
                if not request.future.done()
            ]
            self._stats.record_done_many(
                [now - request.submitted_at for request, _ in pending], failed=False
            )
            for request, result in pending:
                self._memo_store(request, result)
                request.future._finish_locked(result, None)
            self._result_condition.notify_all()
        for request, _ in pending:
            request.future._drain_callbacks()
            self._trace_finish(request)

    def _finish_result(self, request: QueryRequest, result: Any) -> None:
        with self._result_condition:
            if request.future.done():
                return  # already resolved by an overlapping rescue pass
            self._stats.record_done(
                time.perf_counter() - request.submitted_at, failed=False
            )
            self._memo_store(request, result)
            request.future._finish_locked(result, None)
            self._result_condition.notify_all()
        request.future._drain_callbacks()
        self._trace_finish(request)

    def _finish_error(self, request: QueryRequest, error: BaseException) -> None:
        with self._result_condition:
            if request.future.done():
                return  # already resolved by an overlapping rescue pass
            self._stats.record_done(
                time.perf_counter() - request.submitted_at, failed=True
            )
            request.future._finish_locked(None, error)
            self._result_condition.notify_all()
        request.future._drain_callbacks()
        self._trace_finish(request, error)

    def _memo_store(self, request: QueryRequest, result: Any) -> None:
        """Retain one finished result under the key its intake miss minted.

        Runs *before* the future flips to done (under the result
        condition), so the memo's copy is taken before any caller can see —
        and mutate — the delivered array.
        """
        if request.memo_key is not None and self._memo is not None:
            self._memo.store(request.memo_key, request.plan, result)
