"""The concurrent query service: a micro-batching, multi-process serving layer.

This package is the front door for concurrent evaluation traffic: an
:class:`~repro.service.engine.Engine` accepts independent
``(expression, instance)`` requests from many threads, and its scheduler
coalesces requests that share a compiled plan, semiring and dimension
signature into single stacked kernel calls — turning the batched execution
layer (PR 3) from an API one caller uses on a list into a property of the
whole system under concurrent load.  With ``workers=N`` the engine becomes
a router over N forked worker processes, each running that same scheduler
loop over its own plan-cache shard, with requests and results pickled
over each worker's control pipe and results memoized across requests.

* :mod:`repro.service.engine` — the engine: submission API (sync, bulk,
  asyncio), the scheduler thread or the pooled router, and the result memo.
* :mod:`repro.service.batching` — request intake: the coalescing policy
  knobs, the backpressured queue and micro-batch formation.
* :mod:`repro.service.pool` — the forked worker pool: shard lifecycle,
  crash rescue, and the control-pipe transport.
* :mod:`repro.service.router` — the shard router hashing a request's
  coalescing identity to a worker.
* :mod:`repro.service.memo` — the bounded cross-request result memo.
* :mod:`repro.service.aio` — the asyncio bridge behind ``Engine.asubmit``.
* :mod:`repro.service.server` — a length-prefixed TCP protocol for
  out-of-process clients (:class:`QueryServer` / :class:`QueryClient`).
* :mod:`repro.service.stats` — serving telemetry: queue depth, coalesce
  ratio, memo hit rate, p50/p95 latency and throughput as atomic snapshots.

Observability on top of the serving tier — request tracing across the
pipeline stages, a unified metrics registry with Prometheus exposition,
and the live terminal dashboard — lives in :mod:`repro.obs` (pass
``trace=True`` to :class:`Engine` to sample per-request span trees).
"""

from repro.exceptions import (
    DeadlineExceededError,
    EngineDiedError,
    EngineOverloadedError,
    PlanQuarantinedError,
    ServiceError,
)
from repro.service import faults
from repro.service.batching import (
    CoalescingPolicy,
    QueryFuture,
    QueryRequest,
    RequestQueue,
    estimate_cost,
)
from repro.service.engine import Engine
from repro.service.faults import FaultInjector, FaultSpec, InjectedFault, injected_faults
from repro.service.health import CircuitBreaker, Watchdog
from repro.service.memo import ResultMemo
from repro.service.pool import WorkerCrashError, WorkerPool, available_cpus
from repro.service.router import ShardRouter
from repro.service.server import QueryClient, QueryServer, RemoteQueryError
from repro.service.stats import EngineStats, EngineStatsSnapshot

__all__ = [
    "CircuitBreaker",
    "CoalescingPolicy",
    "DeadlineExceededError",
    "Engine",
    "EngineDiedError",
    "EngineOverloadedError",
    "EngineStats",
    "EngineStatsSnapshot",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "PlanQuarantinedError",
    "QueryClient",
    "QueryFuture",
    "QueryRequest",
    "QueryServer",
    "RemoteQueryError",
    "RequestQueue",
    "ResultMemo",
    "ServiceError",
    "ShardRouter",
    "Watchdog",
    "WorkerCrashError",
    "WorkerPool",
    "available_cpus",
    "estimate_cost",
    "faults",
    "injected_faults",
]
