"""Request tracing for the serving tier.

Every sampled request carries a :class:`TraceContext` that accumulates
:class:`Span` records across the full serving path::

    admission -> queue -> coalesce -> [ship -> worker] -> dispatch
              -> kernel (one span per plan op) -> deliver

Single-process engines record all stages themselves; pooled engines record
``admission``/``ship``/``worker``/``deliver`` on the router and the
``queue``/``coalesce``/``dispatch``/``kernel`` stages inside the worker,
whose spans travel back piggybacked on the result message
(:meth:`TraceContext.export_state` / :meth:`TraceContext.ingest_state`).
All timestamps are wall-clock epoch seconds (converted from
``perf_counter`` readings through :mod:`repro.obs.clock`), so spans from
different processes share one time axis.

Finished contexts flush into the :class:`Tracer`'s **per-thread ring
buffers**: each recording thread appends to its own bounded deque under
its own lock, so concurrent finishes never contend with each other — only
a (rare) exporting reader ever takes a writer's lock.  The ``sample_rate``
knob bounds the overhead at the source: an unsampled request carries no
context and records nothing anywhere.

Exports: :meth:`Tracer.export_jsonl` (one JSON object per span) and
:meth:`Tracer.export_chrome` — the Chrome trace-event format, loadable in
Perfetto / ``chrome://tracing``, with one ``pid`` lane per OS process (the
router and each worker show up side by side).

The kernel span names — ``r<register> <opcode>`` — use the same register
labels as the physical-plan section of :meth:`repro.matlang.ir.Plan.explain`,
so a hot span in a trace maps directly onto a line of the plan listing.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.clock import anchor

__all__ = ["OpSpanCollector", "Span", "TraceContext", "Tracer", "get_tracer"]

#: Span categories used by the serving tier ("kernel" spans additionally
#: carry the executing backend and batch size in ``args``).
SERVING = "serving"
KERNEL = "kernel"

#: ``os.getpid()`` cached per process (a syscall per span would be measurable
#: at serving rates); refreshed in forked children so worker spans carry the
#: worker's pid lane, not the router's.
_PID = os.getpid()


def _refresh_pid() -> None:
    global _PID
    _PID = os.getpid()


os.register_at_fork(after_in_child=_refresh_pid)

#: Bound method of the process-wide clock anchor — one attribute lookup per
#: span instead of two calls.  The anchor is captured at import, so a value
#: bound pre-fork stays valid in workers (both clocks are system-wide).
_epoch_of = anchor().epoch_of


@dataclass(frozen=True)
class Span:
    """One finished span, as readers see it (see :meth:`Tracer.spans`)."""

    #: Identity of the request the span belongs to (shared by every span of
    #: one trace, across processes).
    trace_id: int
    #: Human-readable request label (the rendered expression, truncated).
    label: Optional[str]
    #: Stage name (``admission``/``queue``/... or ``r<N> <opcode>``).
    name: str
    #: ``"serving"`` for pipeline stages, ``"kernel"`` for per-op spans.
    category: str
    #: Wall-clock start in epoch seconds.
    start: float
    #: Duration in seconds.
    duration: float
    #: OS process / thread that recorded the span.
    pid: int
    tid: int
    #: Stage-specific detail (batch size, lane, worker index, backend, ...).
    args: Optional[Dict[str, Any]] = None

    @property
    def end(self) -> float:
        return self.start + self.duration


class TraceContext:
    """The per-request span accumulator a sampled request carries.

    Spans are appended by whichever thread currently owns the request —
    the submitting thread at admission, the scheduler at queue/dispatch,
    a pool receiver at delivery — in pipeline order, never concurrently,
    so plain list appends need no lock.  The internal record is a plain
    tuple (picklable: worker-side spans ship over the control pipe).
    """

    __slots__ = ("trace_id", "label", "spans")

    def __init__(self, trace_id: int, label: Optional[str] = None) -> None:
        self.trace_id = trace_id
        self.label = label
        #: ``(name, category, start_epoch, duration, pid, tid, args)``.
        self.spans: List[Tuple] = []

    def add(
        self,
        name: str,
        category: str,
        start_epoch: float,
        duration: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one span with an absolute (epoch-seconds) start."""
        self.spans.append(
            (
                name,
                category,
                start_epoch,
                duration,
                _PID,
                threading.get_ident(),
                args,
            )
        )

    def add_perf(
        self,
        name: str,
        category: str,
        started: float,
        duration: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one span whose start is a ``perf_counter`` reading."""
        self.add(name, category, _epoch_of(started), duration, args)

    @contextmanager
    def span(self, name: str, category: str = SERVING, **args: Any):
        """Context manager measuring one stage around its body."""
        started = time.perf_counter()
        try:
            yield self
        finally:
            self.add_perf(
                name,
                category,
                started,
                time.perf_counter() - started,
                args or None,
            )

    # -- cross-process shipping ------------------------------------------
    def export_state(self) -> Tuple[Tuple, ...]:
        """The accumulated spans as plain picklable tuples (worker -> router)."""
        return tuple(self.spans)

    def ingest_state(self, spans: Iterable[Tuple]) -> None:
        """Fold spans shipped from another process into this context."""
        self.spans.extend(tuple(span) for span in spans)


class OpSpanCollector:
    """An :class:`~repro.profile.ExecutionProfiler`-shaped span collector.

    The plan executors (:func:`repro.matlang.ir.execute_plan` and
    :func:`execute_plan_batch`) time every op for an attached profiler;
    this adapter plugs into the same ``profiler=`` hook and turns each
    observation into a pending kernel span.  Span names are
    ``r<register> <opcode>``, the register labels
    :meth:`repro.matlang.ir.Plan.explain` uses.
    """

    __slots__ = ("spans",)

    def __init__(self) -> None:
        #: ``(name, backend_name, start_perf, duration)`` per executed op.
        self.spans: List[Tuple[str, str, float, float]] = []

    def record(self, op: Any, backend_name: str, values: List[Any], seconds: float) -> None:
        """Record one executed op as span ``r<register> <opcode>``.

        ``values`` is the executor's register list up to the op (the
        contract of :func:`repro.matlang.ir._run`): ``values[-1]`` is the
        op's result and ``len(values) - 1`` its register.  Registers a
        dimension frame supplies are not executed, so get no span.
        """
        ended = time.perf_counter()
        self.spans.append(
            (f"r{len(values) - 1} {op.opcode}", backend_name, ended - seconds, seconds)
        )

    def attach(self, context: TraceContext, batch: int = 1) -> None:
        """Append the collected kernel spans to one request's context."""
        for name, backend_name, started, duration in self.spans:
            context.add_perf(
                name,
                KERNEL,
                started,
                duration,
                {"backend": backend_name, "batch": batch},
            )


class _ThreadRing:
    """One thread's bounded span buffer plus the lock readers share with it."""

    __slots__ = ("spans", "lock", "dropped")

    def __init__(self, capacity: int) -> None:
        self.spans: deque = deque(maxlen=capacity)
        self.lock = threading.Lock()
        self.dropped = 0


class Tracer:
    """Sampling, per-thread ring storage and export for request traces.

    ``sample_rate`` is the fraction of requests traced (deterministic
    stride sampling: ``0.25`` traces every 4th start).  ``capacity`` bounds
    each recording thread's ring; overflow evicts the oldest spans and
    counts them in :attr:`dropped` — a long-lived engine's tracer holds the
    most recent window, never unbounded history.
    """

    def __init__(self, sample_rate: float = 1.0, capacity: int = 8192) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self._counter = itertools.count()
        self._id_counter = itertools.count(1)
        self._stride = 1
        self.sample_rate = sample_rate
        self._local = threading.local()
        self._rings: List[_ThreadRing] = []
        self._rings_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.started = 0
        self.finished = 0

    # -- sampling --------------------------------------------------------
    @property
    def sample_rate(self) -> float:
        return self._sample_rate

    @sample_rate.setter
    def sample_rate(self, rate: float) -> None:
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {rate!r}")
        if rate <= 0.0:
            self._stride = 0  # never sample
        elif rate >= 1.0:
            self._stride = 1
        else:
            self._stride = max(1, round(1.0 / rate))
        self._sample_rate = rate

    def start(self, label: Optional[str] = None) -> Optional[TraceContext]:
        """A fresh context when this request is sampled, else ``None``."""
        stride = self._stride
        if stride == 0:
            return None
        if next(self._counter) % stride:
            return None
        return self.begin(label)

    def begin(self, label: Optional[str] = None) -> TraceContext:
        """A fresh context unconditionally (sampling already decided)."""
        with self._stats_lock:
            self.started += 1
        return TraceContext(next(self._id_counter), label)

    def finish(self, context: TraceContext) -> None:
        """Flush a finished request's spans into this thread's ring."""
        ring: Optional[_ThreadRing] = getattr(self._local, "ring", None)
        if ring is None:
            ring = _ThreadRing(self.capacity)
            self._local.ring = ring
            with self._rings_lock:
                self._rings.append(ring)
        trace_id, label = context.trace_id, context.label
        with ring.lock:
            before = len(ring.spans)
            for span in context.spans:
                ring.spans.append((trace_id, label) + tuple(span))
            overflow = before + len(context.spans) - self.capacity
            if overflow > 0:
                ring.dropped += overflow
        with self._stats_lock:
            self.finished += 1

    # -- readers ---------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Spans evicted from full rings since the last :meth:`clear`."""
        with self._rings_lock:
            rings = list(self._rings)
        return sum(ring.dropped for ring in rings)

    def spans(self) -> List[Span]:
        """Every buffered span, across all threads, sorted by start time."""
        with self._rings_lock:
            rings = list(self._rings)
        records: List[Tuple] = []
        for ring in rings:
            with ring.lock:
                records.extend(ring.spans)
        spans = [
            Span(
                trace_id=record[0],
                label=record[1],
                name=record[2],
                category=record[3],
                start=record[4],
                duration=record[5],
                pid=record[6],
                tid=record[7],
                args=record[8],
            )
            for record in records
        ]
        spans.sort(key=lambda span: (span.start, span.trace_id))
        return spans

    def clear(self) -> None:
        """Drop every buffered span (the rings stay registered)."""
        with self._rings_lock:
            rings = list(self._rings)
        for ring in rings:
            with ring.lock:
                ring.spans.clear()
                ring.dropped = 0
        with self._stats_lock:
            self.started = 0
            self.finished = 0

    def hot_plans(self, top: int = 5) -> List[Dict[str, Any]]:
        """The plans with the most buffered kernel time, hottest first.

        Aggregates the ``kernel`` spans by request label; each entry breaks
        the plan's time down per op (``r<N> <opcode>``), matching the
        physical-plan lines of :meth:`repro.matlang.ir.Plan.explain`.
        Returns plain dicts — safe to ship over the query-server protocol.
        """
        plans: Dict[Any, Dict[str, Any]] = {}
        for span in self.spans():
            if span.category != KERNEL:
                continue
            label = span.label if span.label is not None else "<unlabeled>"
            entry = plans.get(label)
            if entry is None:
                entry = plans[label] = {
                    "plan": label,
                    "seconds": 0.0,
                    "count": 0,
                    "ops": {},
                }
            entry["seconds"] += span.duration
            entry["count"] += 1
            op_seconds, op_count = entry["ops"].get(span.name, (0.0, 0))
            entry["ops"][span.name] = (op_seconds + span.duration, op_count + 1)
        ranked = sorted(plans.values(), key=lambda entry: -entry["seconds"])[:top]
        for entry in ranked:
            entry["ops"] = sorted(
                (
                    {"op": name, "seconds": seconds, "count": count}
                    for name, (seconds, count) in entry["ops"].items()
                ),
                key=lambda op: -op["seconds"],
            )
        return ranked

    # -- exports ---------------------------------------------------------
    def to_chrome(self) -> Dict[str, Any]:
        """The buffered spans as a Chrome trace-event document (a dict)."""
        events = []
        for span in self.spans():
            args: Dict[str, Any] = {"trace_id": span.trace_id}
            if span.label is not None:
                args["plan"] = span.label
            if span.args:
                args.update(span.args)
            events.append(
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "X",  # complete event: start + duration
                    "ts": span.start * 1e6,  # microseconds
                    "dur": span.duration * 1e6,
                    "pid": span.pid,
                    "tid": span.tid,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome(self, path: str) -> int:
        """Write the Chrome trace-event JSON; returns the event count."""
        document = self.to_chrome()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return len(document["traceEvents"])

    def export_jsonl(self, path: str) -> int:
        """Write one JSON object per span; returns the span count."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(
                    json.dumps(
                        {
                            "trace_id": span.trace_id,
                            "plan": span.label,
                            "name": span.name,
                            "category": span.category,
                            "start": span.start,
                            "duration": span.duration,
                            "pid": span.pid,
                            "tid": span.tid,
                            "args": span.args,
                        }
                    )
                )
                handle.write("\n")
        return len(spans)


#: Module-default tracer behind ``Engine(trace=True)``.
_DEFAULT: Optional[Tracer] = None
_DEFAULT_LOCK = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide default tracer (created on first use)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = Tracer()
        return _DEFAULT
