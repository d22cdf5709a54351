"""Observability for the serving tier: tracing, metrics, dashboard.

Three layers, all pull-based and optional (a tier with no tracer and no
scraper pays nothing):

- :mod:`repro.obs.trace` — per-request span tracing across the full
  serving path (admission → queue → coalesce → ship → dispatch →
  per-op kernel → deliver), sampled, buffered in per-thread rings, and
  exportable as JSONL or Chrome trace-event JSON (Perfetto-loadable).
  Enable with ``Engine(trace=True)`` or ``Engine(trace=Tracer(...))``.
- :mod:`repro.obs.metrics` — a unified registry pulling `EngineStats`,
  plan/stack caches, the result memo, per-worker snapshots and tracer
  counters into one typed snapshot tree with a Prometheus text
  exposition (served as the ``metrics`` frame on ``QueryServer``).
- :mod:`repro.obs.dashboard` — a live terminal dashboard over either.

``python -m repro.obs {stats,metrics,watch,demo}`` is the CLI face; see
:mod:`repro.obs.__main__`.  :mod:`repro.obs.clock` anchors all of it to
wall-clock time.
"""

from repro.obs.clock import ClockAnchor, anchor
from repro.obs.dashboard import DashboardLoop, render_dashboard, sparkline
from repro.obs.metrics import Metric, MetricsRegistry, engine_registry
from repro.obs.trace import OpSpanCollector, Span, TraceContext, Tracer, get_tracer

__all__ = [
    "ClockAnchor",
    "DashboardLoop",
    "Metric",
    "MetricsRegistry",
    "OpSpanCollector",
    "Span",
    "TraceContext",
    "Tracer",
    "anchor",
    "engine_registry",
    "get_tracer",
    "render_dashboard",
    "sparkline",
]
