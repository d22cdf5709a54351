"""A unified, pull-based metrics registry for the serving tier.

The stack grew half a dozen unrelated telemetry surfaces — `EngineStats`
snapshots, the compiler's plan-cache counters, the executor's stack-cache
counters, `ResultMemo.info()`, per-worker heartbeat snapshots and tracer
counters.  :class:`MetricsRegistry` pulls them all
into one named, typed snapshot tree on demand: nothing is pushed, nothing
is buffered — every :meth:`MetricsRegistry.metrics` call reads the live
sources, so the registry adds zero steady-state overhead.

Two renderings:

- :meth:`MetricsRegistry.tree` — nested plain dicts, for programmatic use
  and the ``python -m repro.obs stats`` CLI.
- :meth:`MetricsRegistry.prometheus` — Prometheus text exposition
  (``# HELP`` / ``# TYPE`` / ``name{labels} value`` lines), served as the
  ``metrics`` frame on :class:`repro.service.server.QueryServer` so any
  process can scrape a running engine without importing repro at all.

:func:`engine_registry` wires a registry to a live
:class:`repro.service.Engine` with every source the engine exposes.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Metric", "MetricsRegistry", "engine_registry"]

COUNTER = "counter"
GAUGE = "gauge"


@dataclass(frozen=True)
class Metric:
    """One named sample in a snapshot.

    ``kind`` follows Prometheus semantics: a ``counter`` only ever grows
    (and gets a ``_total`` suffix in the exposition), a ``gauge`` can move
    either way.  ``labels`` is a tuple of ``(key, value)`` pairs — e.g.
    ``(("worker", "0"),)`` for per-worker series.
    """

    name: str
    value: Optional[float]
    kind: str = GAUGE
    help: str = ""
    labels: Tuple[Tuple[str, str], ...] = ()


# Kind + help text for every EngineStatsSnapshot field.  Unknown fields
# (added later) fall back to an undocumented gauge rather than being
# silently dropped — the exposition-completeness test enforces that every
# snapshot field appears.
_ENGINE_FIELDS: Dict[str, Tuple[str, str]] = {
    "submitted": (COUNTER, "Requests accepted into the engine."),
    "completed": (COUNTER, "Requests finished with a result."),
    "failed": (COUNTER, "Requests finished with an error (incl. shed)."),
    "queue_depth": (GAUGE, "Requests queued or in flight right now."),
    "dispatches": (COUNTER, "Kernel dispatches issued by the scheduler."),
    "batched_requests": (COUNTER, "Requests served through stacked batch kernels."),
    "fallback_requests": (COUNTER, "Requests served one-by-one (no coalesce)."),
    "coalesce_ratio": (GAUGE, "Mean requests per dispatch."),
    "throughput": (GAUGE, "Completed requests per second since start."),
    "latency_p50": (GAUGE, "Median request latency in seconds."),
    "latency_p95": (GAUGE, "95th-percentile request latency in seconds."),
    "memo_hits": (COUNTER, "Result-memo hits answered at the router."),
    "memo_misses": (COUNTER, "Result-memo misses."),
    "memo_bytes": (GAUGE, "Bytes held by the result memo."),
    "workers": (GAUGE, "Worker processes configured (0 = in-process)."),
    "shed_expired": (COUNTER, "Requests shed for missed deadlines."),
    "shed_overload": (COUNTER, "Requests shed by admission control."),
    "dispatch_retries": (COUNTER, "Pool dispatches retried on another worker."),
    "worker_respawns": (COUNTER, "Crashed/hung workers respawned."),
    "watchdog_kills": (COUNTER, "Workers force-killed by the watchdog."),
    "quarantine_trips": (COUNTER, "Plans tripped into the quarantine lane."),
    "quarantined_requests": (COUNTER, "Requests served via fork-per-request quarantine."),
    "quarantine_open": (GAUGE, "Plans currently quarantined (circuit open)."),
    "heartbeat_age": (GAUGE, "Seconds since the stalest worker heartbeat."),
    "pending_cost": (GAUGE, "Estimated cost units queued right now."),
    "sparse_batches": (COUNTER, "Block-diagonal sparse batch dispatches."),
    "sparse_batched_requests": (COUNTER, "Requests served via sparse batches."),
    "sparse_assembly_seconds": (COUNTER, "Seconds spent assembling sparse batches."),
    "started_epoch": (GAUGE, "Engine start time (seconds since the Unix epoch)."),
    "snapshot_epoch": (GAUGE, "Snapshot capture time (seconds since the Unix epoch)."),
    "uptime_seconds": (GAUGE, "Seconds since engine start."),
}


class MetricsRegistry:
    """Named collectors, pulled on demand into one snapshot.

    Register a source with :meth:`register`; each collector is a zero-arg
    callable returning an iterable of :class:`Metric`.  A collector that
    raises is skipped (and remembered in :attr:`errors`) rather than
    poisoning the whole scrape — a dead worker must not take the metrics
    endpoint down with it.
    """

    def __init__(self) -> None:
        self._sources: List[Tuple[str, Callable[[], Iterable[Metric]]]] = []
        self._lock = threading.Lock()
        self.errors: Dict[str, str] = {}

    def register(self, name: str, collector: Callable[[], Iterable[Metric]]) -> None:
        with self._lock:
            self._sources.append((name, collector))

    def metrics(self) -> List[Metric]:
        """One flat scrape across every registered source."""
        with self._lock:
            sources = list(self._sources)
        out: List[Metric] = []
        errors: Dict[str, str] = {}
        for name, collector in sources:
            try:
                out.extend(collector())
            except Exception as error:  # noqa: BLE001 - isolate a bad source
                errors[name] = f"{type(error).__name__}: {error}"
        self.errors = errors
        return out

    def tree(self) -> Dict[str, Any]:
        """The scrape as a nested dict keyed by metric-name segments."""
        root: Dict[str, Any] = {}
        for metric in self.metrics():
            node = root
            parts = metric.name.split("_")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
                if not isinstance(node, dict):  # name collision: leaf vs branch
                    break
            else:
                leaf = parts[-1]
                if metric.labels:
                    leaf += "{" + ",".join(f"{k}={v}" for k, v in metric.labels) + "}"
                node[leaf] = metric.value
        return root

    def prometheus(self) -> str:
        """The scrape in the Prometheus text exposition format."""
        lines: List[str] = []
        seen_meta: set = set()
        for metric in self.metrics():
            name = metric.name
            if metric.kind == COUNTER and not name.endswith("_total"):
                name += "_total"
            if name not in seen_meta:
                seen_meta.add(name)
                if metric.help:
                    lines.append(f"# HELP {name} {metric.help}")
                lines.append(f"# TYPE {name} {metric.kind}")
            label_text = ""
            if metric.labels:
                rendered = ",".join(
                    f'{key}="{_escape_label(value)}"' for key, value in metric.labels
                )
                label_text = "{" + rendered + "}"
            lines.append(f"{name}{label_text} {_render_value(metric.value)}")
        return "\n".join(lines) + "\n"


def _escape_label(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_value(value: Optional[float]) -> str:
    if value is None:
        return "NaN"
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _snapshot_metrics(
    snapshot: Any, prefix: str, labels: Tuple[Tuple[str, str], ...] = ()
) -> List[Metric]:
    """Every field of an ``EngineStatsSnapshot`` as typed metrics."""
    out: List[Metric] = []
    for field in dataclass_fields(snapshot):
        kind, help_text = _ENGINE_FIELDS.get(field.name, (GAUGE, ""))
        value = getattr(snapshot, field.name)
        out.append(
            Metric(
                name=f"{prefix}_{field.name}",
                value=None if value is None else float(value),
                kind=kind,
                help=help_text,
                labels=labels,
            )
        )
    return out


def engine_registry(engine: Any, tracer: Any = None) -> MetricsRegistry:
    """A registry covering everything a live engine exposes.

    Sources: the engine's :class:`EngineStats` snapshot, the module plan
    cache, the executor stack cache, the pooled result memo, per-worker
    snapshots (labeled ``worker=<i>``) and the request tracer's counters.
    Sources the engine doesn't have
    (e.g. workers on an in-process engine) contribute nothing rather than
    erroring.
    """
    registry = MetricsRegistry()
    if tracer is None:
        tracer = getattr(engine, "tracer", None)

    def engine_source() -> List[Metric]:
        return _snapshot_metrics(engine.stats(), "repro_engine")

    def plan_cache_source() -> List[Metric]:
        from repro.matlang.compiler import plan_cache_info

        info = plan_cache_info()
        return [
            Metric("repro_plan_cache_hits", float(info.hits), COUNTER,
                   "Logical-plan cache hits."),
            Metric("repro_plan_cache_misses", float(info.misses), COUNTER,
                   "Logical-plan cache misses (compiles)."),
            Metric("repro_plan_cache_size", float(info.size), GAUGE,
                   "Plans currently cached."),
            Metric("repro_plan_cache_capacity", float(info.capacity), GAUGE,
                   "Plan-cache capacity."),
        ]

    def stack_cache_source() -> List[Metric]:
        info = engine.stack_cache_info()
        if info is None:
            return []
        return [
            Metric("repro_stack_cache_hits", float(info.hits), COUNTER,
                   "Batch stack-cache hits."),
            Metric("repro_stack_cache_misses", float(info.misses), COUNTER,
                   "Batch stack-cache misses."),
            Metric("repro_stack_cache_size", float(info.size), GAUGE,
                   "Stacked arrays currently cached."),
            Metric("repro_stack_cache_bytes", float(info.bytes), GAUGE,
                   "Bytes held by the stack cache."),
        ]

    def memo_source() -> List[Metric]:
        info = engine.memo_info()
        if info is None:
            return []
        return [
            Metric("repro_memo_entries", float(info["entries"]), GAUGE,
                   "Results held by the router memo."),
            Metric("repro_memo_bytes", float(info["bytes"]), GAUGE,
                   "Bytes held by the router memo."),
            Metric("repro_memo_hits", float(info["hits"]), COUNTER,
                   "Router memo hits."),
            Metric("repro_memo_misses", float(info["misses"]), COUNTER,
                   "Router memo misses."),
        ]

    def worker_source() -> List[Metric]:
        worker_stats = getattr(engine, "worker_stats", None)
        if worker_stats is None or not getattr(engine, "workers", 0):
            return []
        out: List[Metric] = []
        for index, snapshot in enumerate(worker_stats(timeout=1.0)):
            labels = (("worker", str(index)),)
            up = snapshot is not None
            out.append(
                Metric("repro_worker_up", 1.0 if up else 0.0, GAUGE,
                       "Whether the worker answered a stats poll.", labels)
            )
            if up:
                out.extend(_snapshot_metrics(snapshot, "repro_worker", labels))
        return out

    def trace_source() -> List[Metric]:
        if tracer is None:
            return []
        return [
            Metric("repro_trace_started", float(tracer.started), COUNTER,
                   "Trace contexts started (sampled requests)."),
            Metric("repro_trace_finished", float(tracer.finished), COUNTER,
                   "Trace contexts finished and buffered."),
            Metric("repro_trace_dropped_spans", float(tracer.dropped), COUNTER,
                   "Spans evicted from full trace rings."),
            Metric("repro_trace_sample_rate", float(tracer.sample_rate), GAUGE,
                   "Configured trace sampling rate."),
        ]

    registry.register("engine", engine_source)
    registry.register("plan_cache", plan_cache_source)
    registry.register("stack_cache", stack_cache_source)
    registry.register("memo", memo_source)
    registry.register("workers", worker_source)
    registry.register("trace", trace_source)
    return registry
