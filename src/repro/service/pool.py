"""The multi-process worker pool behind a pooled :class:`Engine`.

Each worker is a forked process running its **own** in-process engine —
the same scheduler + coalescer loop single-process serving uses — over its
own shard of the plan cache.  The parent's pooled engine is
reduced to a router: it compiles, memoizes, hashes the request's
coalescing identity to a shard (:class:`~repro.service.router.ShardRouter`)
and sends the request down that worker's control pipe.

Protocol (one duplex control pipe per worker)
---------------------------------------------
parent -> worker::

    ("plan",     plan_id, payload, schema)         register a compiled plan
    ("semiring", pickled_semiring)                 register a late semiring
    ("submit",   task_id, plan_id, semiring, dims, pickled_matrices, remaining, trace)
    ("stats",)  ("stop",)

worker -> parent::

    ("result",    task_id, pickled_result, spans)
    ("error",     task_id, pickled_exception, spans)
    ("heartbeat",)
    ("stats", snapshot)  ("stopped",)

Matrices and results are pickled exactly as they are laid out (a
Fortran-ordered matrix reaches the worker Fortran-ordered, so its kernels
see the operands ``evaluate`` would), and each payload is pickled apart
from its message: the message header always decodes, so a payload the
receiver cannot decode fails only its own task.

``trace`` is ``None`` for the (overwhelmingly common) untraced request, or
``(trace_id, label)`` for a request the router's tracer sampled: the
worker rebuilds a :class:`~repro.obs.trace.TraceContext` around it, its
engine records queue/coalesce/dispatch/kernel spans into it, and the
accumulated span tuples travel back as the ``spans`` field of the result
message (``None`` when untraced).  Span timestamps are wall-clock epoch
seconds, which *are* comparable across a fork (both underlying clocks are
system-wide on Linux — see :mod:`repro.obs.clock`), so worker spans land
directly on the router trace's time axis.

``remaining`` is the request's deadline as *seconds left at send time*
(``None`` = unbounded): ``time.perf_counter()`` epochs differ across
processes, so an absolute deadline cannot travel — the worker re-anchors
it against its own clock on receipt.  An already-expired task is answered
with :class:`~repro.exceptions.DeadlineExceededError` without executing,
both router-side at dispatch and worker-side at receipt.

Semirings are resolved by name in the worker against the registry it
inherited at fork; a semiring registered in the parent *after* the pool
started is shipped once per worker as a ``("semiring", ...)`` message
before the first submit that needs it (vectorized kernel factories
registered post-fork do not travel — such a semiring executes on the
generic object-dtype fold in the workers).

Fork safety
-----------
Workers are started with the ``fork`` method (required; the instance
arrays and registries must be inherited, not re-imported).  The first
thing a worker does is re-initialize the module-level locks a fork may
have captured in a held state (the compiler plan-cache lock, the profile
lock) and clear the inherited plan cache — giving each worker the private
plan-cache shard the sharded design wants anyway.

Crash rescue and self-healing
-----------------------------
A worker that dies (segfault, OOM-kill, ``kill -9``) surfaces as EOF on
its pipe.  The parent respawns the shard and resubmits each in-flight
request **once** to a live worker; a request that has already been rescued
fails its own future with :class:`~repro.exceptions.WorkerCrashError`
instead of retrying forever.  Only futures in flight on the dead worker
are touched.

*Hung* workers (stuck kernel, wedged interpreter) never produce an EOF on
their own, so each worker also sends a heartbeat over its control pipe
every ``policy.heartbeat_interval`` seconds, and a router-side
:class:`~repro.service.health.Watchdog` force-kills a worker whose last
heartbeat is older than ``policy.heartbeat_timeout`` — or that is still
chewing on a task ``policy.hung_task_grace`` seconds past the task's
deadline.  The kill turns the hang into the pipe-EOF the rescue machinery
already heals, so dead and hung workers share one recovery path.

A send that fails (its worker died mid-route) is retried
:data:`DISPATCH_RETRIES` times, with exponential backoff starting at
:data:`RETRY_BACKOFF` seconds, before the request fails with
:class:`~repro.exceptions.WorkerCrashError`.

A plan whose tasks keep *coinciding* with worker deaths is treated as the
probable cause: each death strikes every orphaned task's plan on a
:class:`~repro.service.health.CircuitBreaker`, and a plan that accumulates
``policy.quarantine_strikes`` strikes is quarantined — its requests run on
the router's sandboxed single-instance lane (one disposable forked process
per request, so a poison plan can only kill its own sandbox); a request
whose sandbox dies too resolves with
:class:`~repro.exceptions.PlanQuarantinedError`.  After
``policy.quarantine_reset`` seconds one probe request is let back into the
pool; surviving closes the breaker, dying re-opens it, and a probe that
never reaches a worker hands its slot to the plan's next request.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import pickle
import queue
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import (
    DeadlineExceededError,
    PlanQuarantinedError,
    WorkerCrashError,
)
from repro.service import faults
from repro.service.health import CircuitBreaker, Watchdog, backoff_delays
from repro.service.router import ShardRouter

__all__ = ["WorkerCrashError", "WorkerPool"]

#: Retries of a failed send before the request fails (see the module doc).
DISPATCH_RETRIES = 3

#: Seconds before the first retry; each further retry waits twice as long.
RETRY_BACKOFF = 0.01


def _reinit_module_locks() -> None:
    """Give the forked worker fresh module locks and a private plan cache.

    A thread of the parent may hold these locks at the instant of the
    fork; the child would then deadlock on first use.  Re-creating them
    (and clearing the inherited plan cache, which doubles as giving the
    worker its own shard) makes the child self-consistent.
    """
    from repro.matlang import compiler
    from repro import profile as profile_module

    compiler._PLAN_CACHE_LOCK = threading.RLock()
    compiler._PLAN_CACHE.clear()
    profile_module._LOCK = threading.Lock()


def _rebuild_instance(schema, dimensions, semiring, matrices):
    """Reassemble an :class:`Instance` without re-validating or re-lifting.

    The parent validated the instance at submission; the worker receives
    arrays that are byte-for-byte the validated ones, so running
    ``__post_init__`` again would only re-copy every matrix.
    """
    from repro.matlang.instance import Instance

    instance = Instance.__new__(Instance)
    instance.schema = schema
    instance.dimensions = dict(dimensions)
    instance.matrices = matrices
    instance.semiring = semiring
    return instance


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(index: int, connection, policy, functions) -> None:
    from repro.semiring.registry import get_semiring
    from repro.service.engine import Engine

    _reinit_module_locks()
    engine = Engine(policy=policy, functions=functions)
    plans: Dict[int, Any] = {}
    schemas: Dict[int, Any] = {}
    send_lock = threading.Lock()
    stop_heartbeat = threading.Event()

    def ship_error(task_id: int, error: BaseException, spans=None) -> None:
        try:
            payload = pickle.dumps(error)
        except Exception:
            payload = pickle.dumps(RuntimeError(repr(error)))
        with send_lock:
            connection.send(("error", task_id, payload, spans))

    def ship(task_id: int, future, trace=None) -> None:
        # Runs as a done callback (exceptions would be swallowed), so every
        # failure mode of shipping itself — an unpicklable result, an
        # injected pickle fault — degrades to an ``error`` message rather
        # than a silently unresolved parent-side future.
        spans = None if trace is None else trace.export_state()
        try:
            error = future.exception()
            if error is not None:
                ship_error(task_id, error, spans)
                return
            if faults.ACTIVE is not None:
                faults.ACTIVE.fire("worker.ship", worker=index, task=task_id)
            payload = pickle.dumps(future.result())
            with send_lock:
                connection.send(("result", task_id, payload, spans))
        except Exception as error:
            try:
                ship_error(task_id, error, spans)
            except Exception:
                pass  # pipe gone: the parent's EOF handling takes over

    def heartbeat_loop() -> None:
        while not stop_heartbeat.wait(policy.heartbeat_interval):
            if faults.ACTIVE is not None and faults.ACTIVE.deny(
                "worker.heartbeat", worker=index
            ):
                continue  # injected silence: the watchdog should kill us
            try:
                with send_lock:
                    connection.send(("heartbeat",))
            except Exception:
                return  # parent went away; the main loop will exit too

    threading.Thread(
        target=heartbeat_loop, name=f"repro-worker-{index}-hb", daemon=True
    ).start()

    def handle_submit(message) -> None:
        _, task_id, plan_id, semiring_name, dimensions, payload, remaining, trace_wire = (
            message
        )
        trace_context = None
        if trace_wire is not None:
            from repro.obs.trace import TraceContext

            trace_context = TraceContext(trace_wire[0], trace_wire[1])
        if remaining is not None and remaining <= 0:
            # Expired in transit (or rescued onto this worker too late):
            # answer with the typed error without executing — and without
            # visiting the worker.task fault site, so a rescued task cannot
            # be hit twice by one injected crash schedule.
            ship_error(
                task_id,
                DeadlineExceededError(
                    "the request's deadline expired before worker execution"
                ),
            )
            return
        try:
            plan = plans[plan_id]
            semiring = get_semiring(semiring_name)
            instance = _rebuild_instance(
                schemas[plan_id], dimensions, semiring, pickle.loads(payload)
            )
        except Exception as error:
            ship_error(task_id, error)
            return
        if faults.ACTIVE is not None:
            # The canonical chaos site: ``crash`` simulates a segfaulting
            # kernel, ``sleep`` a stuck one, ``raise`` a poisoned plan.  A
            # raised poison fails the *task* (shipped as its typed error);
            # only ``crash`` takes the whole worker down.
            try:
                faults.ACTIVE.fire("worker.task", worker=index, task=task_id)
            except Exception as error:
                ship_error(task_id, error)
                return
        future = engine.submit_compiled(
            plan, instance, deadline=remaining, trace=trace_context
        )
        future.add_done_callback(
            lambda finished, tid=task_id, ctx=trace_context: ship(tid, finished, ctx)
        )

    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            break  # parent went away
        kind = message[0]
        if kind == "submit":
            handle_submit(message)
        elif kind == "plan":
            from repro.matlang.ir import deserialize_plan

            _, plan_id, payload, schema = message
            plans[plan_id] = deserialize_plan(payload)
            schemas[plan_id] = schema
        elif kind == "semiring":
            # A semiring registered in the parent after this worker forked.
            from repro.semiring.registry import register_semiring

            try:
                register_semiring(pickle.loads(message[1]), overwrite=True)
            except Exception:
                pass  # the submit needing it fails with a clear SemiringError
        elif kind == "stats":
            with send_lock:
                connection.send(("stats", engine.stats()))
        elif kind == "stop":
            stop_heartbeat.set()
            engine.shutdown(wait=True)
            with send_lock:
                connection.send(("stopped",))
            break
    stop_heartbeat.set()
    connection.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _Task:
    """One in-flight pooled request (parent-side bookkeeping)."""

    __slots__ = (
        "task_id",
        "plan",
        "plan_id",
        "instance",
        "future",
        "memo_key",
        "submitted_at",
        "deadline_at",
        "cost",
        "rescued",
        "probe",
        "trace",
        "sent_at",
    )

    def __init__(
        self,
        task_id,
        plan,
        instance,
        future,
        memo_key,
        submitted_at,
        deadline_at=None,
        cost=0.0,
        trace=None,
    ):
        self.task_id = task_id
        self.plan = plan
        #: Wire plan id; stamped by the first dispatch (breaker key).
        self.plan_id: Optional[int] = None
        self.instance = instance
        self.future = future
        self.memo_key = memo_key
        self.submitted_at = submitted_at
        #: Absolute ``perf_counter`` deadline in the *router's* clock.
        self.deadline_at = deadline_at
        #: Admission-control cost the engine retires at delivery.
        self.cost = cost
        self.rescued = False
        #: Whether this task is a half-open circuit-breaker probe.
        self.probe = False
        #: Router-side :class:`~repro.obs.trace.TraceContext` when sampled.
        self.trace = trace
        #: ``perf_counter`` at the last successful send (the "worker" span
        #: of a traced task runs from here to its reply).
        self.sent_at = 0.0

    def remaining(self) -> Optional[float]:
        """Seconds left before the deadline (the wire representation)."""
        if self.deadline_at is None:
            return None
        return self.deadline_at - time.perf_counter()


class _WorkerHandle:
    """Parent-side state of one worker process."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[Any] = None
        self.connection: Optional[Any] = None
        self.send_lock = threading.Lock()
        self.control_lock = threading.Lock()
        self.replies: "queue.Queue" = queue.Queue()
        self.registered: set = set()
        #: Semiring names the worker is known to resolve: the registry
        #: snapshot it inherited at fork, plus any shipped since.
        self.semirings: set = set()
        self.inflight: Dict[int, _Task] = {}
        self.receiver: Optional[threading.Thread] = None
        self.alive = False
        self.stopping = False
        #: ``time.monotonic()`` of the last heartbeat (or the spawn).
        self.last_heartbeat = 0.0


def _sandbox_main(connection, plan, instance, functions) -> None:
    """Entry point of a disposable quarantine sandbox (one request).

    Runs the plan exactly the way a worker's per-instance fallback would —
    per-op physical planning, single-instance execution — but in a process
    whose death cannot take any in-flight neighbour with it.  Deliberately
    does **not** contain the ``worker.task`` fault site: the sandbox exists
    to get a *correct answer* out of a plan whose pool executions keep
    dying, and the chaos suite relies on that asymmetry.
    """
    _reinit_module_locks()
    try:
        from repro.matlang.evaluator import run_plan

        connection.send(("ok", np.asarray(run_plan(plan, instance, functions))))
    except BaseException as error:
        try:
            connection.send(("error", error))
        except Exception:
            try:
                connection.send(("error", RuntimeError(repr(error))))
            except Exception:
                pass
    finally:
        connection.close()


class _QuarantineLane:
    """Sandboxed single-instance execution for quarantined plans.

    One lazily-started daemon thread drains quarantined tasks in order;
    each runs in a fresh forked sandbox (arguments travel in fork-inherited
    memory, so nothing needs pickling on the way in) bounded by the task's
    deadline or :attr:`SANDBOX_TIMEOUT`.  A sandbox that crashes or times
    out resolves its task with
    :class:`~repro.exceptions.PlanQuarantinedError`.
    """

    #: Wall-clock cap for one sandboxed execution without a deadline.
    SANDBOX_TIMEOUT = 60.0

    def __init__(self, pool: "WorkerPool") -> None:
        self._pool = pool
        self._queue: "queue.Queue" = queue.Queue()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._stopped = False

    def submit(self, task: _Task) -> None:
        with self._lock:
            if self._stopped:
                self._pool._deliver(
                    task,
                    None,
                    RuntimeError("the worker pool shut down mid-request"),
                )
                return
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="repro-quarantine", daemon=True
                )
                self._thread.start()
        self._queue.put(task)

    def stop(self, timeout: float = 30.0) -> None:
        """Drain queued tasks, then stop; fails whatever could not run."""
        with self._lock:
            self._stopped = True
            thread = self._thread
        if thread is None:
            return
        self._queue.put(None)
        thread.join(timeout=timeout)
        while True:
            try:
                task = self._queue.get_nowait()
            except queue.Empty:
                return
            if task is not None:
                self._pool._deliver(
                    task,
                    None,
                    RuntimeError("the worker pool shut down mid-request"),
                )

    def _run(self) -> None:
        while True:
            task = self._queue.get()
            if task is None:
                return
            try:
                result, error = self._execute(task)
            except Exception as surprise:  # pragma: no cover - last resort
                result, error = None, surprise
            self._pool._deliver(task, result, error)

    def _execute(self, task: _Task):
        if task.deadline_at is not None and time.perf_counter() >= task.deadline_at:
            return None, DeadlineExceededError(
                "the request's deadline expired before dispatch"
            )
        with self._pool._fork_lock:
            receiver, sender = self._pool._context.Pipe(duplex=False)
            process = self._pool._context.Process(
                target=_sandbox_main,
                args=(sender, task.plan, task.instance, self._pool._functions),
                name="repro-quarantine-sandbox",
                daemon=True,
            )
            process.start()
            sender.close()
        if task.deadline_at is None:
            timeout = self.SANDBOX_TIMEOUT
        else:
            timeout = max(0.05, task.deadline_at - time.perf_counter())
        verdict = None
        try:
            if receiver.poll(timeout):
                verdict = receiver.recv()
        except (EOFError, OSError):
            verdict = None
        finally:
            try:
                receiver.close()
            except Exception:
                pass
            if process.is_alive():
                process.kill()
            process.join(timeout=5.0)
        if verdict is None:
            return None, PlanQuarantinedError(
                "the quarantined plan's sandboxed execution crashed or timed out"
            )
        kind, payload = verdict
        if kind == "ok":
            return payload, None
        return None, payload


class WorkerPool:
    """N forked workers plus the routing/rescue logic binding them.

    ``deliver(task, result, error)`` is the engine's completion hook: the
    pool calls it exactly once per submitted task, from a parent-side
    receiver thread.  ``policy`` is the engine's
    :class:`~repro.service.batching.CoalescingPolicy`; its workers serve
    under it, and the pool reads its heartbeat and quarantine knobs.
    ``functions`` is the engine's pointwise-function registry, which the
    workers and the quarantine sandbox run with, and ``stats`` the
    engine's :class:`~repro.service.stats.EngineStats`, where the pool
    counts respawns, retries, watchdog kills and quarantine events.
    """

    def __init__(
        self,
        workers: int,
        deliver: Callable[[_Task, Any, Optional[BaseException]], None],
        policy,
        functions,
        stats,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-posix platforms
            raise RuntimeError(
                "the worker pool requires the 'fork' start method"
            ) from None
        self.router = ShardRouter(workers)
        self._deliver = deliver
        self._policy = policy
        self._functions = functions
        self._stats = stats
        self._lock = threading.Lock()
        # Serializes every fork in the pool (worker spawns, sandbox runs)
        # against the instant where a freshly created pipe's child end is
        # still open in the parent: a concurrent fork in that window
        # inherits the fd, and a worker whose child end leaked into a
        # sibling never EOFs the parent when it dies — its receive loop
        # blocks forever and its in-flight tasks are never rescued.
        self._fork_lock = threading.Lock()
        self._closed = False
        self._task_counter = 0
        self._plan_counter = 0
        #: ``id(plan) -> (pinned plan, wire plan id, payload)``.
        self._plans: Dict[int, Tuple[Any, int, bytes]] = {}

        self.breaker = CircuitBreaker(
            strikes=policy.quarantine_strikes, reset_after=policy.quarantine_reset
        )
        self._lane = _QuarantineLane(self)
        self._handles: List[_WorkerHandle] = []
        for index in range(workers):
            handle = _WorkerHandle(index)
            self._spawn(handle)
            self._handles.append(handle)
        self._watchdog = Watchdog(
            self._watchdog_scan,
            interval=policy.heartbeat_interval,
            name="repro-pool-watchdog",
        ).start()

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, handle: _WorkerHandle, respawn: bool = False) -> None:
        from repro.semiring.registry import available_semirings

        if respawn:
            self._stats.record_respawn()

        with self._fork_lock:
            parent_conn, child_conn = self._context.Pipe(duplex=True)
            process = self._context.Process(
                target=_worker_main,
                args=(handle.index, child_conn, self._policy, self._functions),
                name=f"repro-worker-{handle.index}",
                daemon=True,
            )
            # Snapshot the registry *before* the fork: every name in it is
            # inherited by the child, anything registered later must be
            # shipped.
            known_semirings = set(available_semirings())
            process.start()
            child_conn.close()
        handle.process = process
        handle.connection = parent_conn
        handle.registered = set()
        handle.semirings = known_semirings
        handle.inflight = {}
        handle.replies = queue.Queue()
        handle.alive = True
        handle.stopping = False
        handle.last_heartbeat = time.monotonic()
        handle.receiver = threading.Thread(
            target=self._receive_loop,
            args=(handle,),
            name=f"repro-pool-recv-{handle.index}",
            daemon=True,
        )
        handle.receiver.start()

    def _receive_loop(self, handle: _WorkerHandle) -> None:
        connection = handle.connection
        while True:
            try:
                message = connection.recv()
            except (EOFError, OSError, TypeError):
                # TypeError: teardown's close() nulls the descriptor under
                # a thread already inside recv().  `expect` pins the report
                # to the incarnation this thread was started for: if the
                # watchdog already reaped the death and respawned the
                # worker, a late EOF from the old pipe must not take down
                # the healthy replacement.
                if not handle.stopping:
                    self._on_worker_death(handle, expect=connection)
                return
            kind = message[0]
            if kind == "result":
                _, task_id, payload, spans = message
                try:
                    result = pickle.loads(payload)
                except Exception as error:
                    self._complete(handle, task_id, None, error, spans)
                    continue
                self._complete(handle, task_id, result, None, spans)
            elif kind == "error":
                _, task_id, payload, spans = message
                try:
                    error = pickle.loads(payload)
                except Exception:
                    error = RuntimeError("worker reported an undecodable error")
                self._complete(handle, task_id, None, error, spans)
            elif kind == "heartbeat":
                handle.last_heartbeat = time.monotonic()
            else:  # stats / stopped control replies
                handle.replies.put(message)
                if kind == "stopped":
                    return

    def _complete(self, handle, task_id, result, error, spans=None) -> None:
        with self._lock:
            task = handle.inflight.pop(task_id, None)
        if task is None:
            return  # already rescued onto another worker
        if task.trace is not None:
            # The worker span brackets the whole remote leg (send to reply);
            # the shipped worker-side spans nest inside it on the same
            # wall-clock axis (system-wide clocks survive the fork).
            if spans:
                task.trace.ingest_state(spans)
            if task.sent_at:
                task.trace.add_perf(
                    "worker", "serving", task.sent_at,
                    time.perf_counter() - task.sent_at,
                    {"worker": handle.index},
                )
        if task.plan_id is not None:
            # Any reply at all proves the worker survived this plan's task —
            # enough to retire breaker evidence (a half-open probe's success
            # closes the breaker here).
            self.breaker.record_success(task.plan_id)
            if task.probe:
                self._stats.set_quarantine_open(self.breaker.open_count())
        self._deliver(task, result, error)

    def _on_worker_death(self, handle: _WorkerHandle, expect=None) -> None:
        with self._lock:
            if not handle.alive:
                return
            if expect is not None and handle.connection is not expect:
                return  # stale observer: that incarnation was already healed
            handle.alive = False
            orphaned = list(handle.inflight.values())
            handle.inflight = {}
            closed = self._closed
            exhausted: List[_Task] = []
            rescuable: List[_Task] = []
            for task in orphaned:
                if task.rescued or closed:
                    exhausted.append(task)
                else:
                    # Claimed under the pool lock so a submit thread whose
                    # _send_task to this worker is failing concurrently can
                    # see ownership changed hands (see _dispatch's cleanup).
                    task.rescued = True
                    rescuable.append(task)
        # Each orphaned *plan* takes one strike per death — counting deaths,
        # not tasks, so a single crash with a deep in-flight queue cannot
        # quarantine a plan by itself.  Struck *before* the rescues are
        # rerouted, so a plan that just earned quarantine sends its rescued
        # tasks to the sandbox instead of crash-looping a second worker.
        tripped = 0
        for plan_id in {
            task.plan_id for task in orphaned if task.plan_id is not None
        }:
            if self.breaker.strike(plan_id):
                tripped += 1
        for _ in range(tripped):
            self._stats.record_quarantine_trip()
        self._stats.set_quarantine_open(self.breaker.open_count())
        # The send lock keeps a _send_task that already passed its liveness
        # check on one pipe: without it, a sender could register its plan
        # with the old worker and submit to the new one, which has never
        # seen the plan.  (The in-flight sender then targets the old pipe
        # wholesale; it dies with the old worker, harmlessly.)
        with handle.send_lock:
            self._teardown_handle(handle)
            # Re-read _closed *after* teardown: a shutdown that started
            # since this death was claimed may already be past this handle
            # in its stop loop, and a worker spawned now would never be
            # torn down.  If shutdown instead flips _closed right after
            # this check, it has yet to visit this handle — it will block
            # on send_lock until the spawn finishes, then stop and tear
            # down the replacement normally.
            with self._lock:
                closed = closed or self._closed
            if not closed:
                try:
                    self._spawn(handle, respawn=True)
                except Exception:
                    pass
        crash = WorkerCrashError(
            f"worker {handle.index} (shard {handle.index}) died unexpectedly"
        )
        for task in exhausted:
            # At-most-once rescue caps pool re-dispatch, but a twice-orphaned
            # task whose plan is now quarantined still has somewhere safe to
            # go: the sandbox is a different execution vehicle, so sending it
            # there cannot crash-loop a third worker.
            if task.plan_id is not None and self.breaker.is_open(task.plan_id):
                try:
                    self._quarantine(task)
                except Exception as error:
                    self._deliver(task, None, error)
            else:
                self._deliver(task, None, crash)
        for task in rescuable:
            try:
                self._route(task)
            except Exception as error:
                self._deliver(task, None, error)

    def _teardown_handle(self, handle: _WorkerHandle) -> None:
        try:
            handle.connection.close()
        except Exception:
            pass
        process = handle.process
        if process is not None:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.kill()
                process.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        plan,
        instance,
        future,
        memo_key,
        submitted_at,
        deadline_at=None,
        cost=0.0,
        trace=None,
    ) -> Optional[_Task]:
        """Route one compiled request to its shard; ``None`` when closed."""
        with self._lock:
            if self._closed:
                return None
            self._task_counter += 1
            task = _Task(
                self._task_counter,
                plan,
                instance,
                future,
                memo_key,
                submitted_at,
                deadline_at,
                cost,
                trace,
            )
        task.plan_id = self._plan_record(plan)[0]
        self._route(task)
        return task

    def _route(self, task: _Task) -> None:
        """Send one task through the circuit breaker to pool or quarantine."""
        verdict = self.breaker.admit(task.plan_id)
        if verdict == "open":
            self._quarantine(task)
            return
        task.probe = verdict == "probe"  # re-set when a rescue re-routes
        self._dispatch(task)

    def _quarantine(self, task: _Task) -> None:
        """Send one task of a quarantined plan to the sandbox lane."""
        self._stats.record_quarantined()
        self._lane.submit(task)

    def _plan_record(self, plan) -> Tuple[int, bytes]:
        from repro.matlang.ir import serialize_plan

        with self._lock:
            record = self._plans.get(id(plan))
            if record is not None and record[0] is plan:
                return record[1], record[2]
        payload = serialize_plan(plan)
        with self._lock:
            record = self._plans.get(id(plan))
            if record is not None and record[0] is plan:
                return record[1], record[2]
            self._plan_counter += 1
            self._plans[id(plan)] = (plan, self._plan_counter, payload)
            return self._plan_counter, payload

    def _dispatch(self, task: _Task) -> None:
        """Dispatch with bounded-backoff retries around transient failures.

        A send can fail because its worker died mid-route; the respawn is
        usually up within the first backoff step, so retrying locally is
        far cheaper than burning the task's one crash rescue.  The retry
        budget exhausted, the failure surfaces as
        :class:`~repro.exceptions.WorkerCrashError`.  A half-open probe
        that is shed or runs out of retries never reached a worker, so it
        hands its probe slot back to the breaker.
        """
        if task.deadline_at is not None and time.perf_counter() >= task.deadline_at:
            # O(µs) shed: nobody is waiting for this result anymore (also
            # the fate of a rescued task whose deadline lapsed while its
            # worker hung — the watchdog test's deterministic outcome).
            if task.probe:
                self.breaker.release_probe(task.plan_id)
            self._deliver(
                task,
                None,
                DeadlineExceededError(
                    "the request's deadline expired before dispatch"
                ),
            )
            return
        delays = backoff_delays(DISPATCH_RETRIES, base=RETRY_BACKOFF)
        while True:
            try:
                self._dispatch_once(task)
                return
            except Exception as error:
                delay = next(delays, None)
                if delay is None or self._closed:
                    if task.probe:
                        self.breaker.release_probe(task.plan_id)
                    if isinstance(error, WorkerCrashError):
                        raise
                    raise WorkerCrashError(
                        f"dispatch failed after {DISPATCH_RETRIES} "
                        f"retries: {type(error).__name__}: {error}"
                    ) from error
                self._stats.record_dispatch_retry()
                time.sleep(delay)

    def _dispatch_once(self, task: _Task) -> None:
        plan_id, payload = self._plan_record(task.plan)
        instance = task.instance
        shard = self.router.shard_for(
            plan_id, instance.semiring.name, instance.dimensions
        )
        handle = self._handles[shard]
        with self._lock:
            if not handle.alive:
                alive = [h.index for h in self._handles if h.alive]
                if not alive:
                    raise WorkerCrashError("no live workers")
                # Rendezvous selection keeps the stand-in stable for this
                # coalescing identity while the home shard is down.
                stand_in = self.router.shard_among(
                    plan_id, instance.semiring.name, instance.dimensions, alive
                )
                handle = self._handles[stand_in]
            handle.inflight[task.task_id] = task
            was_rescued = task.rescued
        try:
            self._send_task(handle, task, plan_id, payload)
        except Exception:
            with self._lock:
                if task.rescued == was_rescued:
                    handle.inflight.pop(task.task_id, None)
                    owned = True
                else:
                    # The worker died mid-send and _on_worker_death already
                    # orphaned this task and claimed it for rescue; the
                    # rescue now owns delivery, so the send failure must
                    # neither fail the future nor pop the rescue's fresh
                    # registration (which reuses the same task_id key).
                    owned = False
            if owned:
                raise

    def _send_task(self, handle, task, plan_id, payload) -> None:
        ship_started = time.perf_counter()
        trace_wire = (
            None if task.trace is None else (task.trace.trace_id, task.trace.label)
        )
        instance = task.instance
        matrices = pickle.dumps(instance.matrices)
        with handle.send_lock:
            if not handle.alive:
                raise WorkerCrashError(f"worker {handle.index} is down")
            if plan_id not in handle.registered:
                # The schema rides along once per plan: every instance of
                # the plan conforms to it, so a submit carries dims only.
                handle.connection.send(
                    ("plan", plan_id, payload, instance.schema)
                )
                handle.registered.add(plan_id)
            if instance.semiring.name not in handle.semirings:
                # Registered in the parent after this worker forked: ship
                # the object so the worker's by-name lookup can resolve it.
                # The cached (version, kernel backend) pair is stripped (the
                # worker re-resolves it); an unpicklable semiring fails here,
                # at submit time, instead of as a worker-side name miss.
                clone = copy.copy(instance.semiring)
                clone.__dict__.pop("_kernel_cache", None)
                handle.connection.send(("semiring", pickle.dumps(clone)))
                handle.semirings.add(instance.semiring.name)
            # Sampled at send time: the wire carries seconds-left, which the
            # worker re-anchors against its own perf_counter epoch.
            handle.connection.send(
                (
                    "submit",
                    task.task_id,
                    plan_id,
                    instance.semiring.name,
                    dict(instance.dimensions),
                    matrices,
                    task.remaining(),
                    trace_wire,
                )
            )
        if task.trace is not None:
            sent_at = time.perf_counter()
            task.sent_at = sent_at
            task.trace.add_perf(
                "ship", "serving", ship_started, sent_at - ship_started,
                {"worker": handle.index, "transport": "pickle", "bytes": len(matrices)},
            )

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _control(self, handle: _WorkerHandle, request: Tuple, timeout: float):
        with handle.control_lock:
            with handle.send_lock:
                if not handle.alive:
                    return None
                handle.connection.send(request)
            try:
                return handle.replies.get(timeout=timeout)
            except queue.Empty:
                return None

    def worker_stats(self, timeout: float = 5.0) -> List[Any]:
        """Per-worker engine snapshots (``None`` for unreachable workers)."""
        snapshots = []
        for handle in self._handles:
            reply = self._control(handle, ("stats",), timeout)
            snapshots.append(reply[1] if reply else None)
        return snapshots

    # ------------------------------------------------------------------
    # Watchdog (self-healing of hung workers)
    # ------------------------------------------------------------------
    def _watchdog_scan(self) -> None:
        """Kill workers that stopped heartbeating or are stuck past deadline.

        Killing is the whole intervention: the death surfaces as pipe EOF
        and the existing crash machinery (respawn + one rescue per task)
        heals the shard — hung and dead workers share one recovery path.
        """
        policy = self._policy
        now = time.monotonic()
        clock = time.perf_counter()
        oldest = 0.0
        doomed: List[_WorkerHandle] = []
        unreaped: List[Tuple[_WorkerHandle, Any]] = []
        with self._lock:
            if self._closed:
                return
            for handle in self._handles:
                if not handle.alive or handle.stopping:
                    continue
                process = handle.process
                if process is not None and not process.is_alive():
                    # Dead process whose pipe EOF never reached us (e.g. a
                    # leaked fd is keeping the pipe open): the kill lever
                    # below is useless — reap the death directly, pinned to
                    # this incarnation's connection.
                    unreaped.append((handle, handle.connection))
                    continue
                age = now - handle.last_heartbeat
                if age > oldest:
                    oldest = age
                hung = age > policy.heartbeat_timeout
                if not hung:
                    for task in handle.inflight.values():
                        if (
                            task.deadline_at is not None
                            and clock > task.deadline_at + policy.hung_task_grace
                        ):
                            # The deadline says nobody wants this result
                            # anymore, yet the worker is still on it.
                            hung = True
                            break
                if hung:
                    doomed.append(handle)
        self._stats.set_heartbeat_age(oldest)
        for handle, connection in unreaped:
            self._stats.record_watchdog_kill()
            self._on_worker_death(handle, expect=connection)
        for handle in doomed:
            self._stats.record_watchdog_kill()
            process = handle.process
            try:
                if process is not None and process.is_alive():
                    process.kill()
            except Exception:  # pragma: no cover - already reaping
                pass

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def shutdown(self, timeout: float = 30.0) -> None:
        """Stop every worker.

        Pending requests drain first (each worker's inner engine finishes
        its queue before acknowledging the stop), so every submitted future
        resolves.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._watchdog.stop()
        self._lane.stop()
        deadline = time.perf_counter() + timeout
        for handle in self._handles:
            handle.stopping = True
            with handle.send_lock:
                alive = handle.alive
                if alive:
                    try:
                        handle.connection.send(("stop",))
                    except Exception:
                        alive = False
            if alive:
                remaining = max(0.5, deadline - time.perf_counter())
                while True:
                    try:
                        reply = handle.replies.get(timeout=remaining)
                    except queue.Empty:
                        break
                    if reply[0] == "stopped":
                        break
            handle.alive = False
            self._teardown_handle(handle)
        # A worker that never acknowledged leaves its in-flight futures
        # unresolved; fail them rather than hang their waiters.
        leftovers: List[_Task] = []
        with self._lock:
            for handle in self._handles:
                leftovers.extend(handle.inflight.values())
                handle.inflight = {}
        for task in leftovers:
            self._deliver(
                task, None, RuntimeError("the worker pool shut down mid-request")
            )

    def __del__(self) -> None:  # pragma: no cover - safety net
        try:
            if not self._closed:
                self._watchdog.stop()
                self._lane.stop()
                for handle in self._handles:
                    handle.stopping = True
                    if handle.process is not None and handle.process.is_alive():
                        handle.process.terminate()
                    self._teardown_handle(handle)
        except Exception:
            pass


def available_cpus() -> int:
    """CPUs this process may use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1
