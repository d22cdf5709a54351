"""Tests for the observability subsystem (:mod:`repro.obs`).

Covers five concerns:

* **tracing primitives** — the clock anchor, sampling stride, per-thread
  ring overflow accounting, span context export/ingest (the pool's wire
  form), and both export formats (Chrome trace events, JSONL);
* **engine integration** — a traced single-process engine emits a full
  admission→queue→coalesce→dispatch→kernel→deliver span tree whose
  kernel-span names match the plan listing, and a pooled
  ``Engine(workers=2)`` run produces the same coverage for every sampled
  request with ship/worker hops in between (the PR's acceptance walk);
* **metrics registry** — the Prometheus exposition carries every
  :class:`EngineStatsSnapshot` field, worker labels, and trace counters,
  and erroring sources are isolated rather than failing the scrape;
* **serving protocol** — the ``metrics`` / ``worker_stats`` /
  ``hot_plans`` frames roundtrip through ``QueryServer``/``QueryClient``;
* **stats integrity** — wall-clock anchoring of snapshots, the
  N-thread submitted == completed + failed + shed ledger, and
  ``_percentile`` edge cases.
"""

import io
import json
import threading
import time
from collections import defaultdict
from dataclasses import fields as dataclass_fields

import numpy as np
import pytest

from repro.matlang.builder import diag, lit, ones, ssum, var
from repro.matlang.compiler import compile_expression
from repro.matlang.functions import default_registry
from repro.matlang.instance import Instance
from repro.matlang.ir import execute_plan_batch
from repro.obs import (
    ClockAnchor,
    DashboardLoop,
    Metric,
    MetricsRegistry,
    OpSpanCollector,
    TraceContext,
    Tracer,
    engine_registry,
    render_dashboard,
    sparkline,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.trace import KERNEL, SERVING
from repro.semiring import MIN_PLUS, REAL
from repro.semiring.backends import BatchedDenseBackend
from repro.service import Engine, QueryClient, QueryServer
from repro.service.stats import EngineStats, EngineStatsSnapshot, _percentile

A = var("A")
V = var("v")
EXPR = ssum("_v", A @ V)

#: Pipeline stages every sampled request must cover (acceptance criterion).
PIPELINE_STAGES = {"admission", "queue", "dispatch", "deliver"}


def _instance(seed, size=8, semiring=REAL):
    rng = np.random.default_rng(seed)
    return Instance.from_matrices(
        {"A": rng.random((size, size)), "v": rng.random((size, 1))},
        semiring=semiring,
    )


def _span_tree(tracer):
    """Map trace_id -> {span name -> [Span, ...]} from the tracer's rings."""
    tree = defaultdict(lambda: defaultdict(list))
    for span in tracer.spans():
        tree[span.trace_id][span.name].append(span)
    return tree


# ----------------------------------------------------------------------
# Tracing primitives
# ----------------------------------------------------------------------
class TestClockAnchor:
    def test_epoch_monotonic_roundtrip(self):
        anchor = ClockAnchor()
        monotonic = anchor.monotonic + 1.25
        epoch = anchor.epoch_of(monotonic)
        assert epoch == pytest.approx(anchor.epoch + 1.25)
        assert anchor.monotonic_of(epoch) == pytest.approx(monotonic)

    def test_anchor_tracks_wall_clock(self):
        anchor = ClockAnchor()
        assert abs(anchor.now_epoch() - time.time()) < 1.0


class TestTracerSampling:
    def test_rate_one_samples_everything(self):
        tracer = Tracer(sample_rate=1.0)
        assert all(tracer.start("q") is not None for _ in range(10))
        assert tracer.started == 10

    def test_rate_zero_samples_nothing(self):
        tracer = Tracer(sample_rate=0.0)
        assert all(tracer.start("q") is None for _ in range(10))

    def test_fractional_rate_uses_deterministic_stride(self):
        tracer = Tracer(sample_rate=0.25)
        sampled = [tracer.start("q") is not None for _ in range(12)]
        assert sum(sampled) == 3  # every 4th attempt
        assert sampled[0]  # stride sampling starts on the first request

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)

    def test_ring_overflow_counts_drops(self):
        tracer = Tracer(sample_rate=1.0, capacity=4)
        for index in range(8):
            context = tracer.begin(f"q{index}")
            context.add("stage", SERVING, time.time(), 0.0)
            tracer.finish(context)
        assert len(tracer.spans()) == 4
        assert tracer.dropped == 4
        assert tracer.finished == 8

    def test_clear_resets_rings_and_counters(self):
        tracer = Tracer(sample_rate=1.0)
        context = tracer.begin("q")
        context.add("stage", SERVING, time.time(), 0.0)
        tracer.finish(context)
        assert tracer.spans()
        tracer.clear()
        assert tracer.spans() == []
        assert tracer.started == 0
        assert tracer.dropped == 0


class TestTraceContext:
    def test_span_contextmanager_times_the_block(self):
        context = TraceContext(7, "label")
        with context.span("stage", note="x"):
            time.sleep(0.01)
        ((name, category, start, duration, _pid, _tid, args),) = context.spans
        assert name == "stage"
        assert category == SERVING
        assert duration >= 0.009
        assert abs(start - time.time()) < 5.0
        assert args == {"note": "x"}

    def test_export_ingest_roundtrip(self):
        source = TraceContext(3, "plan")
        source.add("queue", SERVING, 100.0, 0.5, {"depth": 2})
        state = source.export_state()
        sink = TraceContext(3, "plan")
        sink.ingest_state(state)
        assert sink.spans == list(source.spans)

    def test_exported_state_survives_pickle(self):
        import pickle

        source = TraceContext(3, "plan")
        source.add("worker", SERVING, 100.0, 0.5)
        state = pickle.loads(pickle.dumps(source.export_state()))
        sink = TraceContext(3, "plan")
        sink.ingest_state(state)
        assert sink.spans == list(source.spans)


class TestExports:
    def _populated_tracer(self):
        tracer = Tracer(sample_rate=1.0)
        context = tracer.begin("sum _v. A * v")
        now = time.time()
        context.add("queue", SERVING, now, 0.001)
        context.add("r2 matmul", KERNEL, now + 0.001, 0.002, {"backend": "dense"})
        tracer.finish(context)
        return tracer

    def test_chrome_export_is_loadable_complete_events(self, tmp_path):
        tracer = self._populated_tracer()
        path = tmp_path / "trace.json"
        count = tracer.export_chrome(str(path))
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        assert count == len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            # Timestamps are µs on the epoch axis (not a perf_counter zero).
            assert event["ts"] > 1e14
            assert event["dur"] >= 0
            assert event["args"]["trace_id"] == 1
        categories = {event["cat"] for event in events}
        assert categories == {SERVING, KERNEL}

    def test_jsonl_export_parses_line_by_line(self, tmp_path):
        tracer = self._populated_tracer()
        path = tmp_path / "spans.jsonl"
        count = tracer.export_jsonl(str(path))
        lines = [line for line in path.read_text().splitlines() if line]
        assert count == len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert {record["name"] for record in records} == {"queue", "r2 matmul"}
        assert all(record["trace_id"] == 1 for record in records)

    def test_hot_plans_aggregates_kernel_time_by_label(self):
        tracer = Tracer(sample_rate=1.0)
        for _ in range(3):
            context = tracer.begin("hot-plan")
            context.add("r0 load", KERNEL, time.time(), 0.010)
            tracer.finish(context)
        context = tracer.begin("cool-plan")
        context.add("r0 load", KERNEL, time.time(), 0.001)
        tracer.finish(context)
        ranked = tracer.hot_plans(top=2)
        assert [entry["plan"] for entry in ranked] == ["hot-plan", "cool-plan"]
        assert ranked[0]["count"] == 3
        assert ranked[0]["seconds"] == pytest.approx(0.030)
        assert ranked[0]["ops"][0]["op"] == "r0 load"


class TestOpSpanCollector:
    @staticmethod
    def _execute_batch(instances, collector):
        plan = compile_expression(EXPR, instances[0].schema)
        backend = BatchedDenseBackend(instances[0].semiring, len(instances))
        execute_plan_batch(
            plan, backend, instances, default_registry(), profiler=collector
        )
        return plan

    def test_execute_plan_batch_reports_per_op_timings(self):
        collector = OpSpanCollector()
        plan = self._execute_batch([_instance(0), _instance(1)], collector)
        names = [name for name, *_ in collector.spans]
        listing = plan.describe()
        assert names  # one span per executed op
        for name in names:
            register, opcode = name.split(" ", 1)
            assert f"{register} = {opcode}(" in listing
        assert all(seconds >= 0 for *_, seconds in collector.spans)

        # On a warm dimension frame the executor supplies the frame registers
        # (the identity and the constant) instead of running them: the spans
        # name only the other registers, which are not contiguous, and each
        # hook call still sees its op's result last, at its own register.
        instances = [_instance(2), _instance(3)]
        plan = compile_expression(diag(ones(A)) @ V @ V.T + lit(2) * A, instances[0].schema)
        backend = BatchedDenseBackend(REAL, len(instances))
        execute_plan_batch(plan, backend, instances, default_registry())
        seen = []

        class Recorder(OpSpanCollector):
            def record(self, op, backend_name, values, seconds):
                operands = [values[register] for register in op.inputs]
                seen.append((len(values) - 1, op, values[-1], operands))
                super().record(op, backend_name, values, seconds)

        collector = Recorder()
        execute_plan_batch(plan, backend, instances, default_registry(), profiler=collector)
        executed = [
            register
            for register, op in enumerate(plan.ops)
            if op.opcode not in ("identity_of", "const")
        ]
        assert len(executed) < len(plan.ops)
        assert executed != list(range(executed[0], executed[-1] + 1))
        assert [name for name, *_ in collector.spans] == [
            f"r{register} {plan.ops[register].opcode}" for register in executed
        ]
        for register, op, result, operands in seen:
            assert plan.ops[register] is op
            assert result.shape[0] == len(instances)
            assert all(operand is not None for operand in operands)

    def test_attach_marks_spans_as_kernel_category(self):
        collector = OpSpanCollector()
        self._execute_batch([_instance(0)], collector)
        context = TraceContext(1, "plan")
        collector.attach(context, batch=4)
        assert len(context.spans) == len(collector.spans)
        for _name, category, _start, _duration, _pid, _tid, args in context.spans:
            assert category == KERNEL
            assert args["batch"] == 4


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
class TestTracedEngine:
    def test_single_process_span_tree_covers_the_pipeline(self):
        tracer = Tracer(sample_rate=1.0)
        with Engine(trace=tracer) as engine:
            futures = [engine.submit(EXPR, _instance(seed)) for seed in range(5)]
            for future in futures:
                future.result(10.0)
        tree = _span_tree(tracer)
        assert len(tree) == 5
        for stages in tree.values():
            assert PIPELINE_STAGES <= set(stages)
            kernel_names = {
                name
                for name, spans in stages.items()
                if any(span.category == KERNEL for span in spans)
            }
            assert kernel_names  # per-op kernel spans present

    def test_kernel_span_names_match_the_plan_listing(self):
        tracer = Tracer(sample_rate=1.0)
        instance = _instance(0)
        listing = compile_expression(EXPR, instance.schema).describe()
        with Engine(trace=tracer) as engine:
            engine.submit(EXPR, instance).result(10.0)
        kernel_names = {
            span.name for span in tracer.spans() if span.category == KERNEL
        }
        assert kernel_names
        for name in kernel_names:
            register, opcode = name.split(" ", 1)
            assert f"{register} = {opcode}(" in listing

    def test_sampled_out_requests_carry_no_context(self):
        tracer = Tracer(sample_rate=0.0)
        with Engine(trace=tracer) as engine:
            engine.submit(EXPR, _instance(0)).result(10.0)
        assert tracer.spans() == []

    def test_failed_request_is_finished_with_error_marker(self):
        tracer = Tracer(sample_rate=1.0)
        bad = ssum("_v", var("missing") @ V)
        with Engine(trace=tracer) as engine:
            future = engine.submit(bad, _instance(0))
            with pytest.raises(Exception):
                future.result(10.0)
        assert tracer.finished >= 1

    def test_trace_spans_order_within_a_request(self):
        tracer = Tracer(sample_rate=1.0)
        with Engine(trace=tracer) as engine:
            engine.submit(EXPR, _instance(0)).result(10.0)
        ((_trace_id, stages),) = list(_span_tree(tracer).items())
        admission = stages["admission"][0]
        queue = stages["queue"][0]
        dispatch = stages["dispatch"][0]
        deliver = stages["deliver"][0]
        assert admission.start <= queue.start
        assert queue.start <= dispatch.start + 1e-6
        assert dispatch.start <= deliver.start + 1e-6

    def test_pooled_engine_span_tree_acceptance_walk(self):
        """Acceptance: every sampled pooled request covers the full path."""
        tracer = Tracer(sample_rate=1.0)
        with Engine(workers=2, trace=tracer) as engine:
            futures = [
                engine.submit(
                    EXPR, _instance(seed, semiring=(REAL, MIN_PLUS)[seed % 2])
                )
                for seed in range(8)
            ]
            for future in futures:
                future.result(60.0)
        tree = _span_tree(tracer)
        assert len(tree) == 8
        for stages in tree.values():
            # Router-side stages plus the pipe hop...
            assert PIPELINE_STAGES | {"ship", "worker"} <= set(stages)
            # ...and worker-side kernel spans shipped back over the wire.
            kernel_spans = [
                span
                for spans in stages.values()
                for span in spans
                if span.category == KERNEL
            ]
            assert kernel_spans
            # Worker spans land on the same wall-clock axis as the router's:
            # each kernel span falls inside the request's serving window.
            window_start = stages["admission"][0].start
            window_end = stages["deliver"][0].end
            for span in kernel_spans:
                assert window_start - 0.5 <= span.start <= window_end + 0.5


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_prometheus_covers_every_engine_stats_field(self):
        with Engine() as engine:
            engine.submit(EXPR, _instance(0)).result(10.0)
            text = engine_registry(engine).prometheus()
        for field in dataclass_fields(EngineStatsSnapshot):
            assert f"repro_engine_{field.name}" in text, field.name

    def test_counters_get_total_suffix_and_type_lines(self):
        with Engine() as engine:
            text = engine_registry(engine).prometheus()
        assert "# TYPE repro_engine_submitted_total counter" in text
        assert "repro_engine_queue_depth " in text  # gauges keep their name
        assert "# HELP repro_engine_submitted_total" in text

    def test_worker_metrics_carry_worker_labels(self):
        tracer = Tracer(sample_rate=1.0)
        with Engine(workers=2, trace=tracer) as engine:
            engine.submit(EXPR, _instance(0)).result(60.0)
            text = engine_registry(engine).prometheus()
        assert 'repro_worker_up{worker="0"} 1' in text
        assert 'repro_worker_up{worker="1"} 1' in text
        assert 'repro_worker_submitted_total{worker="0"}' in text
        assert "repro_trace_started_total" in text
        assert "repro_trace_sample_rate" in text

    def test_erroring_source_is_isolated_not_fatal(self):
        registry = MetricsRegistry()
        registry.register("good", lambda: [Metric("up", 1.0)])

        def explode():
            raise RuntimeError("scrape failed")

        registry.register("bad", explode)
        text = registry.prometheus()
        assert "up 1" in text
        assert "bad" in registry.errors
        assert "RuntimeError" in registry.errors["bad"]
        assert "scrape failed" in registry.errors["bad"]

    def test_label_escaping_and_none_rendering(self):
        registry = MetricsRegistry()
        registry.register(
            "source",
            lambda: [
                Metric("weird", None, labels=(("plan", 'a"b\\c\nd'),)),
            ],
        )
        text = registry.prometheus()
        assert 'plan="a\\"b\\\\c\\nd"' in text
        assert "NaN" in text

    def test_tree_nests_by_name_segments(self):
        registry = MetricsRegistry()
        registry.register(
            "engine",
            lambda: [
                Metric("repro_engine_submitted", 3.0),
                Metric("repro_engine_queue_depth", 1.0),
            ],
        )
        tree = registry.tree()
        assert tree["repro"]["engine"]["submitted"] == 3.0
        assert tree["repro"]["engine"]["queue"]["depth"] == 1.0


# ----------------------------------------------------------------------
# Serving protocol frames
# ----------------------------------------------------------------------
class TestServerFrames:
    def test_metrics_worker_stats_and_hot_plans_roundtrip(self):
        tracer = Tracer(sample_rate=1.0)
        with Engine(workers=2, trace=tracer) as engine:
            with QueryServer(engine) as server:
                host, port = server.address
                with QueryClient(host, port) as client:
                    for seed in range(4):
                        client.query(EXPR, _instance(seed))
                    text = client.metrics()
                    workers = client.worker_stats()
                    hot = client.hot_plans(3)
        assert "repro_engine_submitted_total" in text
        assert len(workers) == 2
        assert all(worker is not None for worker in workers)
        assert hot and hot[0]["ops"]

    def test_hot_plans_empty_without_a_tracer(self):
        with Engine() as engine:
            with QueryServer(engine) as server:
                host, port = server.address
                with QueryClient(host, port) as client:
                    assert client.hot_plans() == []
                    assert client.worker_stats() == []


# ----------------------------------------------------------------------
# Dashboard
# ----------------------------------------------------------------------
class TestDashboard:
    def _snapshot(self, engine):
        return engine.stats()

    def test_render_contains_the_headline_numbers(self):
        tracer = Tracer(sample_rate=1.0)
        with Engine(trace=tracer) as engine:
            for seed in range(3):
                engine.submit(EXPR, _instance(seed)).result(10.0)
            frame = render_dashboard(
                engine.stats(), hot_plans=tracer.hot_plans(2)
            )
        assert "throughput" in frame
        assert "queue depth" in frame
        assert "submitted" in frame
        assert "sum _v. A * v" in frame  # hottest plan label

    def test_render_marks_dead_workers(self):
        with Engine() as engine:
            frame = render_dashboard(engine.stats(), workers=[None])
        assert "DOWN" in frame

    def test_sparkline_maps_extremes_to_extreme_blocks(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0], width=4)
        assert len(line) == 4
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert sparkline([], width=4) == ""

    def test_dashboard_loop_renders_requested_frames(self):
        with Engine() as engine:
            stream = io.StringIO()
            loop = DashboardLoop(
                lambda: {"stats": engine.stats()},
                interval=0.01,
                frames=3,
                stream=stream,
                clear=False,
            )
            assert loop.run() == 3
        assert stream.getvalue().count("throughput") == 3


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_demo_exports_all_three_formats(self, tmp_path, capsys):
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "spans.jsonl"
        prom = tmp_path / "metrics.prom"
        code = obs_main(
            [
                "demo",
                "--requests",
                "12",
                "--workers",
                "0",
                "--chrome-out",
                str(chrome),
                "--jsonl-out",
                str(jsonl),
                "--metrics-out",
                str(prom),
            ]
        )
        assert code == 0
        data = json.loads(chrome.read_text())
        assert data["traceEvents"]
        assert all(json.loads(line) for line in jsonl.read_text().splitlines())
        assert "repro_engine_submitted_total" in prom.read_text()
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "traces: 12 finished" in out

    def test_stats_command_against_a_live_server(self, capsys):
        with Engine() as engine:
            engine.submit(EXPR, _instance(0)).result(10.0)
            with QueryServer(engine) as server:
                host, port = server.address
                code = obs_main(["stats", "--host", host, "--port", str(port)])
        assert code == 0
        assert "served=" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Stats integrity
# ----------------------------------------------------------------------
class TestStatsIntegrity:
    def test_snapshot_is_anchored_to_wall_clock(self):
        stats = EngineStats()
        before = time.time()
        time.sleep(0.02)
        snapshot = stats.snapshot()
        after = time.time()
        assert before - 1.0 <= snapshot.started_epoch <= after
        assert snapshot.started_epoch <= snapshot.snapshot_epoch <= after + 1.0
        assert snapshot.uptime_seconds >= 0.02
        assert snapshot.uptime_seconds == pytest.approx(
            snapshot.snapshot_epoch - snapshot.started_epoch, abs=0.05
        )

    def test_engine_snapshot_carries_the_anchor(self):
        with Engine() as engine:
            snapshot = engine.stats()
        assert snapshot.started_epoch > 1e9  # a real epoch, not perf_counter
        assert snapshot.uptime_seconds >= 0.0

    def test_percentile_single_sample(self):
        assert _percentile((5.0,), 0.50) == 5.0
        assert _percentile((5.0,), 0.95) == 5.0

    def test_percentile_all_equal_reservoir(self):
        ordered = (2.0,) * 7
        assert _percentile(ordered, 0.50) == 2.0
        assert _percentile(ordered, 0.95) == 2.0

    def test_percentile_never_overruns_the_reservoir(self):
        ordered = tuple(float(value) for value in range(10))
        assert _percentile(ordered, 1.0) == 9.0
        assert _percentile(ordered, 0.0) == 0.0

    def test_empty_reservoir_reports_none_percentiles(self):
        snapshot = EngineStats().snapshot()
        assert snapshot.latency_p50 is None
        assert snapshot.latency_p95 is None

    def test_threaded_ledger_conservation(self):
        """submitted == completed + failed + queue_depth under N threads."""
        stats = EngineStats()
        threads = 8
        per_thread = 200
        barrier = threading.Barrier(threads)

        def hammer(seed):
            rng = np.random.default_rng(seed)
            barrier.wait()
            for _ in range(per_thread):
                stats.record_submitted()
                stats.record_dequeued(1)
                stats.record_done(0.001, failed=bool(rng.integers(0, 4) == 0))

        workers = [
            threading.Thread(target=hammer, args=(seed,)) for seed in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        snapshot = stats.snapshot()
        assert snapshot.submitted == threads * per_thread
        assert snapshot.completed + snapshot.failed == threads * per_thread
        assert snapshot.queue_depth == 0

    def test_engine_ledger_under_concurrent_submitters(self):
        with Engine() as engine:
            threads = 4
            per_thread = 10
            barrier = threading.Barrier(threads)
            errors = []

            def submitter(base):
                try:
                    barrier.wait()
                    futures = [
                        engine.submit(EXPR, _instance(base * per_thread + index))
                        for index in range(per_thread)
                    ]
                    for future in futures:
                        future.result(30.0)
                except Exception as error:  # pragma: no cover - diagnostic
                    errors.append(error)

            workers = [
                threading.Thread(target=submitter, args=(base,))
                for base in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            snapshot = engine.stats()
        assert not errors
        total = threads * per_thread
        assert snapshot.submitted == total
        shed = snapshot.shed_expired + snapshot.shed_overload
        assert snapshot.completed + snapshot.failed + shed == total
        assert snapshot.queue_depth == 0
