"""Throughput telemetry for the concurrent query service.

:class:`EngineStats` is the engine's single mutable telemetry object: every
counter mutation and every snapshot runs under one lock, so readers always
see a consistent state (a completion can never be visible in ``completed``
while its latency sample or its dispatch is still missing).  Snapshots are
frozen :class:`EngineStatsSnapshot` values — plain data, safe to hand to
monitoring code on any thread.

The derived figures follow the usual serving-layer conventions:

``coalesce_ratio``
    Requests executed per kernel dispatch, i.e. ``completed / dispatches``.
    ``1.0`` means no batching happened (every request ran alone); the whole
    point of the micro-batching scheduler is to push this well above 1 on
    concurrent streams.
``throughput``
    Completed requests per second of serving time, measured from the first
    submission to the most recent completion.
``latency_p50`` / ``latency_p95``
    Percentiles over a bounded reservoir of the most recent per-request
    latencies (submission to result delivery), so a long-lived engine's
    percentiles track current behaviour instead of averaging over its whole
    history.

Every snapshot is anchored to wall-clock time: the stats object captures a
``(perf_counter, epoch)`` :class:`~repro.obs.clock.ClockAnchor` pair at
engine start, and stamps each snapshot with ``started_epoch`` /
``snapshot_epoch`` / ``uptime_seconds`` — so exported metrics and traces
can say *when* something happened, not just how long it took.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.obs.clock import ClockAnchor

__all__ = ["EngineStats", "EngineStatsSnapshot"]


@dataclass(frozen=True)
class EngineStatsSnapshot:
    """One atomic reading of the engine's telemetry."""

    #: Requests accepted by ``submit`` / ``submit_many`` so far.
    submitted: int
    #: Requests whose future resolved successfully.
    completed: int
    #: Requests whose future resolved with an exception.
    failed: int
    #: Requests currently waiting in the queue (not yet dispatched).
    queue_depth: int
    #: Kernel dispatches issued: batched group executions plus per-instance
    #: fallback executions (each counts one).
    dispatches: int
    #: Requests that were served through a stacked batch of two or more.
    batched_requests: int
    #: Requests that ran per-instance (lone requests, plans with no batched
    #: counterpart, pinned non-dense backends, and batch-execution rescues).
    fallback_requests: int
    #: Finished requests per kernel dispatch (1.0 = no coalescing).
    coalesce_ratio: float
    #: Completed requests per second of serving time.
    throughput: float
    #: Median / 95th-percentile request latency in seconds over the
    #: most recent requests (``None`` until something completed).
    latency_p50: Optional[float]
    latency_p95: Optional[float]
    #: Requests answered from the cross-request result memo without any
    #: kernel execution (pooled engines; 0 with memoization off).
    memo_hits: int = 0
    #: Requests that consulted the memo and missed (and therefore executed).
    memo_misses: int = 0
    #: Result bytes currently retained by the memo.
    memo_bytes: int = 0
    #: Worker processes behind this engine (0 = in-process scheduler).
    workers: int = 0
    #: Requests shed because their deadline expired before execution.
    shed_expired: int = 0
    #: Requests shed by admission control (queue-depth / cost thresholds).
    shed_overload: int = 0
    #: Pooled dispatch attempts retried after a transient send failure.
    dispatch_retries: int = 0
    #: Worker processes respawned after a death (crash or watchdog kill).
    worker_respawns: int = 0
    #: Workers force-killed by the watchdog (hung heartbeat / stuck task).
    watchdog_kills: int = 0
    #: Plan circuit-breaker trips (closed -> open, incl. failed probes).
    quarantine_trips: int = 0
    #: Requests answered on the quarantine path (sandbox or typed rejection).
    quarantined_requests: int = 0
    #: Plans whose breaker is currently open or half-open (gauge).
    quarantine_open: int = 0
    #: Oldest worker-heartbeat age in seconds at the last watchdog scan
    #: (gauge; ``None`` until a pooled watchdog has scanned).
    heartbeat_age: Optional[float] = None
    #: Estimated cost of the current backlog (gauge; admission-control units).
    pending_cost: float = 0.0
    #: Stacked dispatches executed on the block-diagonal sparse / mixed lane
    #: (a subset of ``dispatches``; 0 when every batch ran dense).
    sparse_batches: int = 0
    #: Requests served through a block-diagonal sparse / mixed batch
    #: (a subset of ``batched_requests``).
    sparse_batched_requests: int = 0
    #: Wall-clock seconds spent assembling and executing block-diagonal
    #: sparse batches (group stacking through kernel completion).
    sparse_assembly_seconds: float = 0.0
    #: Engine start, as seconds since the Unix epoch (wall-clock anchor
    #: captured when the stats object was created).
    started_epoch: float = 0.0
    #: Snapshot capture time, on the same wall-clock axis.
    snapshot_epoch: float = 0.0
    #: Seconds between engine start and this snapshot (monotonic).
    uptime_seconds: float = 0.0

    def render(self) -> str:
        """A one-line human-readable summary (used by benchmarks / examples)."""
        p50 = "-" if self.latency_p50 is None else f"{self.latency_p50 * 1e3:.2f}ms"
        p95 = "-" if self.latency_p95 is None else f"{self.latency_p95 * 1e3:.2f}ms"
        line = (
            f"served={self.completed} failed={self.failed} queued={self.queue_depth} "
            f"dispatches={self.dispatches} coalesce={self.coalesce_ratio:.1f}x "
            f"throughput={self.throughput:.0f}/s p50={p50} p95={p95}"
        )
        if self.workers:
            line += f" workers={self.workers}"
        if self.memo_hits or self.memo_misses:
            looked = self.memo_hits + self.memo_misses
            rate = self.memo_hits / looked if looked else 0.0
            line += (
                f" memo={self.memo_hits}/{looked} ({rate:.0%} hit, "
                f"{self.memo_bytes / 1e6:.1f}MB)"
            )
        if self.shed_expired or self.shed_overload:
            line += f" shed={self.shed_expired}exp/{self.shed_overload}ovl"
        if self.dispatch_retries:
            line += f" retries={self.dispatch_retries}"
        if self.worker_respawns or self.watchdog_kills:
            line += (
                f" respawns={self.worker_respawns}"
                f" (watchdog={self.watchdog_kills})"
            )
        if self.quarantine_trips or self.quarantine_open:
            line += (
                f" quarantine={self.quarantine_open}open/"
                f"{self.quarantine_trips}trips/{self.quarantined_requests}req"
            )
        if self.heartbeat_age is not None:
            line += f" hb_age={self.heartbeat_age:.2f}s"
        if self.sparse_batches:
            line += (
                f" sparse_batch={self.sparse_batched_requests}req/"
                f"{self.sparse_batches} "
                f"({self.sparse_assembly_seconds * 1e3:.1f}ms)"
            )
        return line


def _percentile(sorted_values: Tuple[float, ...], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sample."""
    rank = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[rank]


class EngineStats:
    """Lock-guarded accumulator behind :meth:`Engine.stats`.

    All mutators take the internal lock; nothing is published except through
    :meth:`snapshot`, which also computes the derived ratios under the same
    lock — so a snapshot can never pair counters from two different moments.
    """

    #: Latency samples retained for the percentile reservoir.  4096 recent
    #: requests bound both memory and the per-snapshot sort while keeping
    #: the percentiles meaningful for bursty serving workloads.
    RESERVOIR_SIZE = 4096

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Wall-clock anchor captured at engine start; converts the
        #: ``perf_counter`` timings everything here is measured with into
        #: absolute epoch timestamps for snapshots and trace spans.
        self.anchor = ClockAnchor()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._queue_depth = 0
        self._dispatches = 0
        self._batched_requests = 0
        self._fallback_requests = 0
        self._latencies: Deque[float] = deque(maxlen=self.RESERVOIR_SIZE)
        self._first_submit: Optional[float] = None
        self._last_done: Optional[float] = None
        self._memo_hits = 0
        self._memo_misses = 0
        self._memo_bytes = 0
        self._workers = 0
        self._shed_expired = 0
        self._shed_overload = 0
        self._dispatch_retries = 0
        self._worker_respawns = 0
        self._watchdog_kills = 0
        self._quarantine_trips = 0
        self._quarantined_requests = 0
        self._quarantine_open = 0
        self._heartbeat_age: Optional[float] = None
        self._pending_cost = 0.0
        self._sparse_batches = 0
        self._sparse_batched_requests = 0
        self._sparse_assembly_seconds = 0.0

    # -- mutators (called by the engine) ---------------------------------
    def record_submitted(self, count: int = 1) -> None:
        now = time.perf_counter()
        with self._lock:
            self._submitted += count
            self._queue_depth += count
            if self._first_submit is None:
                self._first_submit = now

    def record_dequeued(self, count: int) -> None:
        with self._lock:
            self._queue_depth -= count

    def record_rejected(self, count: int = 1) -> None:
        """A request failed before it ever reached the queue."""
        with self._lock:
            self._submitted += count
            self._failed += count

    def record_queue_rejected(self, count: int) -> None:
        """Requests counted as submitted whose enqueue was then refused."""
        with self._lock:
            self._queue_depth -= count
            self._failed += count

    def record_dispatch(self, requests: int, batched: bool) -> None:
        with self._lock:
            self._dispatches += 1
            if batched:
                self._batched_requests += requests
            else:
                self._fallback_requests += requests

    def record_sparse_dispatch(self, requests: int, seconds: float) -> None:
        """One stacked dispatch executed on the block-diagonal sparse lane.

        Called *in addition to* :meth:`record_dispatch` for the same chunk:
        the sparse counters are a lane-attribution breakdown of the batched
        totals, not a separate population.
        """
        with self._lock:
            self._sparse_batches += 1
            self._sparse_batched_requests += requests
            self._sparse_assembly_seconds += seconds

    def record_done(self, latency: float, failed: bool) -> None:
        with self._lock:
            if failed:
                self._failed += 1
            else:
                self._completed += 1
            self._latencies.append(latency)
            self._last_done = time.perf_counter()

    def record_memo_hit(self, latency: float, memo_bytes: int) -> None:
        """One request answered straight from the result memo.

        The hit is a completion like any other (it joins the latency
        reservoir and the completed count) but never reached the queue, so
        the queue-depth increment from :meth:`record_submitted` is undone
        here.
        """
        with self._lock:
            self._memo_hits += 1
            self._memo_bytes = memo_bytes
            self._queue_depth -= 1
            self._completed += 1
            self._latencies.append(latency)
            self._last_done = time.perf_counter()

    def record_memo_miss(self, memo_bytes: int) -> None:
        with self._lock:
            self._memo_misses += 1
            self._memo_bytes = memo_bytes

    def set_workers(self, workers: int) -> None:
        with self._lock:
            self._workers = workers

    # -- robustness mutators ---------------------------------------------
    def record_expired(self, at_submit: bool = False) -> None:
        """One request shed on an expired deadline.

        ``at_submit`` sheds never reached the queue, so they account their
        own submission and failure here; a shed at dequeue or dispatch was
        already counted submitted, and its failure is recorded by the
        normal finish path — only the shed counter is added.
        """
        with self._lock:
            self._shed_expired += 1
            if at_submit:
                self._submitted += 1
                self._failed += 1

    def record_overloaded(self) -> None:
        """One request rejected by admission control (never queued)."""
        with self._lock:
            self._shed_overload += 1
            self._submitted += 1
            self._failed += 1

    def record_dispatch_retry(self) -> None:
        with self._lock:
            self._dispatch_retries += 1

    def record_respawn(self) -> None:
        with self._lock:
            self._worker_respawns += 1

    def record_watchdog_kill(self) -> None:
        with self._lock:
            self._watchdog_kills += 1

    def record_quarantine_trip(self) -> None:
        with self._lock:
            self._quarantine_trips += 1

    def record_quarantined(self) -> None:
        """One request answered on the quarantine path (sandbox/rejection)."""
        with self._lock:
            self._quarantined_requests += 1

    def set_quarantine_open(self, count: int) -> None:
        with self._lock:
            self._quarantine_open = count

    def set_heartbeat_age(self, age: Optional[float]) -> None:
        with self._lock:
            self._heartbeat_age = age

    def record_cost(self, delta: float) -> None:
        """Adjust the backlog cost gauge (positive at intake, negative at
        retirement); clamped at zero so an accounting race can only
        under-report pressure, never wedge admission shut."""
        with self._lock:
            self._pending_cost = max(0.0, self._pending_cost + delta)

    def pending_depth(self) -> int:
        """The current queue-depth gauge (pooled admission control)."""
        with self._lock:
            return self._queue_depth

    def current_pending_cost(self) -> float:
        with self._lock:
            return self._pending_cost

    def record_done_many(self, latencies: list, failed: bool = False) -> None:
        """Record a whole dispatched chunk's completions in one lock trip."""
        if not latencies:
            return
        with self._lock:
            if failed:
                self._failed += len(latencies)
            else:
                self._completed += len(latencies)
            self._latencies.extend(latencies)
            self._last_done = time.perf_counter()

    # -- reader ----------------------------------------------------------
    def snapshot(self) -> EngineStatsSnapshot:
        now = time.perf_counter()
        with self._lock:
            finished = self._completed + self._failed
            coalesce = (finished / self._dispatches) if self._dispatches else 0.0
            elapsed = 0.0
            if self._first_submit is not None and self._last_done is not None:
                elapsed = self._last_done - self._first_submit
            throughput = (self._completed / elapsed) if elapsed > 0 else 0.0
            p50 = p95 = None
            if self._latencies:
                ordered = tuple(sorted(self._latencies))
                p50 = _percentile(ordered, 0.50)
                p95 = _percentile(ordered, 0.95)
            return EngineStatsSnapshot(
                submitted=self._submitted,
                completed=self._completed,
                failed=self._failed,
                queue_depth=self._queue_depth,
                dispatches=self._dispatches,
                batched_requests=self._batched_requests,
                fallback_requests=self._fallback_requests,
                coalesce_ratio=coalesce,
                throughput=throughput,
                latency_p50=p50,
                latency_p95=p95,
                memo_hits=self._memo_hits,
                memo_misses=self._memo_misses,
                memo_bytes=self._memo_bytes,
                workers=self._workers,
                shed_expired=self._shed_expired,
                shed_overload=self._shed_overload,
                dispatch_retries=self._dispatch_retries,
                worker_respawns=self._worker_respawns,
                watchdog_kills=self._watchdog_kills,
                quarantine_trips=self._quarantine_trips,
                quarantined_requests=self._quarantined_requests,
                quarantine_open=self._quarantine_open,
                heartbeat_age=self._heartbeat_age,
                pending_cost=self._pending_cost,
                sparse_batches=self._sparse_batches,
                sparse_batched_requests=self._sparse_batched_requests,
                sparse_assembly_seconds=self._sparse_assembly_seconds,
                started_epoch=self.anchor.epoch,
                snapshot_epoch=self.anchor.epoch_of(now),
                uptime_seconds=max(0.0, now - self.anchor.monotonic),
            )
