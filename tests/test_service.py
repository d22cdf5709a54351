"""Tests for the concurrent query service and the thread-safety hardening.

Covers four concerns:

* **engine correctness** — results delivered through the engine are
  bitwise-equal to sequential :func:`repro.matlang.evaluator.evaluate` on
  every registered semiring, across mixed-schema request streams, for
  adaptive and pinned backends, with errors isolated to their own futures
  (a poisoned request never fails its batch neighbours);
* **scheduling machinery** — the request queue's ordering, backpressure
  and close semantics; the coalescing policy's validation; the telemetry
  snapshot's internal consistency;
* **concurrency properties** — N threads hammering one engine with mixed
  schemas get exactly the sequential answers, and the shared caches under
  them (the module-level plan cache, the stack cache) keep consistent
  counters with no lost updates;
* **lifecycle** — shutdown drains in-flight work, rejects later
  submissions through the future (never by raising at the call site), and
  the context manager form is equivalent.
"""

import threading
import time

import numpy as np
import pytest

from repro.exceptions import SemiringError, TypingError
from repro.experiments.harness import ServedWorkload
from repro.matlang.builder import ssum, var
from repro.matlang.compiler import (
    clear_plan_cache,
    compile_expression,
    plan_cache_info,
)
from repro.matlang.evaluator import evaluate
from repro.matlang.functions import default_registry
from repro.matlang.instance import Instance
from repro.matlang.ir import StackCache
from repro.semiring import BOOLEAN, INTEGER, MAX_PLUS, MIN_PLUS, NATURAL, REAL
from repro.semiring.provenance import PROVENANCE, Polynomial
from repro.service import CoalescingPolicy, Engine, QueryFuture, RequestQueue
from repro.service.batching import QueryRequest, coalesce

try:
    import scipy.sparse  # noqa: F401

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised on scipy-less installs
    HAVE_SCIPY = False

ALL_SEMIRINGS = [REAL, NATURAL, INTEGER, BOOLEAN, MIN_PLUS, MAX_PLUS, PROVENANCE]


def _matrix_for(semiring, size, seed):
    rng = np.random.default_rng(seed)
    if semiring.name == "boolean":
        return rng.random((size, size)) < 0.4
    if semiring.name == "natural":
        return rng.integers(0, 5, (size, size))
    if semiring.name == "integer":
        return rng.integers(-4, 5, (size, size))
    if semiring.name in ("min_plus", "max_plus"):
        return np.round(rng.random((size, size)) * 9, 3)
    if semiring.name == "provenance":
        matrix = np.empty((size, size), dtype=object)
        for i in range(size):
            for j in range(size):
                matrix[i, j] = (
                    Polynomial.variable(f"x{seed}_{i}_{j}") if rng.random() < 0.5 else 0
                )
        return matrix
    return rng.standard_normal((size, size))


def _instance_for(semiring, size, seed):
    return Instance.from_matrices(
        {"A": _matrix_for(semiring, size, seed)}, semiring=semiring
    )


def _entrywise_equal(left, right):
    if left.shape != right.shape:
        return False
    if left.dtype == object or right.dtype == object:
        return all(left[index] == right[index] for index in np.ndindex(left.shape))
    return bool(np.array_equal(left, right))


def _sum_workload():
    return ssum("_v", var("A") @ var("_v"))


def _quadratic_workload():
    A, v = var("A"), var("_v")
    return ssum("_v", v.T @ A @ v) * (var("A") @ var("A"))


# ----------------------------------------------------------------------
# Engine correctness
# ----------------------------------------------------------------------
class TestEngineResults:
    def test_single_submission_matches_evaluate(self):
        instance = _instance_for(REAL, 6, 0)
        expression = _sum_workload()
        with Engine() as engine:
            result = engine.submit(expression, instance).result(30)
        assert np.array_equal(result, evaluate(expression, instance))

    def test_mixed_schema_stream_matches_sequential(self):
        expression = _sum_workload()
        instances = [
            _instance_for((REAL, MIN_PLUS, BOOLEAN)[seed % 3], (5, 7, 9)[seed % 3], seed)
            for seed in range(45)
        ]
        with Engine() as engine:
            futures = engine.submit_many((expression, inst) for inst in instances)
            results = [future.result(30) for future in futures]
            snapshot = engine.stats()
        for instance, result in zip(instances, results):
            assert np.array_equal(result, evaluate(expression, instance))
        # 45 requests over 3 (plan, semiring, dims) groups must coalesce.
        assert snapshot.dispatches < len(instances)
        assert snapshot.coalesce_ratio > 1.0

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
    def test_bitwise_equal_per_semiring(self, semiring):
        expression = _quadratic_workload()
        count = 6 if semiring.name == "provenance" else 16
        size = 3 if semiring.name == "provenance" else 6
        instances = [_instance_for(semiring, size, seed) for seed in range(count)]
        sequential = [evaluate(expression, instance) for instance in instances]
        with Engine() as engine:
            futures = engine.submit_many((expression, inst) for inst in instances)
            results = [future.result(60) for future in futures]
        for expected, actual in zip(sequential, results):
            assert _entrywise_equal(actual, expected), semiring.name

    def test_evaluate_convenience_wrapper(self):
        instance = _instance_for(NATURAL, 4, 1)
        expression = _sum_workload()
        with Engine() as engine:
            assert np.array_equal(
                engine.evaluate(expression, instance), evaluate(expression, instance)
            )

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy is required for the sparse backend")
    def test_sparse_selected_requests_fall_back_per_instance(self):
        from repro.stdlib import shortest_path_matrix

        expression = shortest_path_matrix("A")
        dense = np.zeros((80, 80))
        rng = np.random.default_rng(3)
        mask = rng.random((80, 80)) < 0.03
        dense[mask] = 1.0
        instance = Instance.from_matrices({"A": dense.astype(bool)}, semiring=BOOLEAN)
        with Engine() as engine:
            result = engine.submit(expression, instance).result(60)
            snapshot = engine.stats()
        assert np.array_equal(result, evaluate(expression, instance))
        assert snapshot.fallback_requests == 1
        assert snapshot.batched_requests == 0

    def test_pinned_dense_backend_batches(self):
        expression = _sum_workload()
        instances = [_instance_for(REAL, 5, seed) for seed in range(8)]
        with Engine(backend="dense") as engine:
            futures = engine.submit_many((expression, inst) for inst in instances)
            results = [future.result(30) for future in futures]
            snapshot = engine.stats()
        for instance, result in zip(instances, results):
            assert np.array_equal(result, evaluate(expression, instance))
        assert snapshot.batched_requests == len(instances)

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy is required for the sparse backend")
    def test_pinned_sparse_backend_is_honoured(self):
        expression = var("A") @ var("A")
        instances = [_instance_for(BOOLEAN, 6, seed) for seed in range(4)]
        with Engine(backend="sparse") as engine:
            futures = engine.submit_many((expression, inst) for inst in instances)
            results = [future.result(30) for future in futures]
            snapshot = engine.stats()
        for instance, result in zip(instances, results):
            assert np.array_equal(result, evaluate(expression, instance))
        assert snapshot.fallback_requests == len(instances)


@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy is required for the sparse backend")
class TestOneBatchPath:
    """The engine runs requests the way ``run_plan_batch`` runs a sweep."""

    @staticmethod
    def _closure_instance(seed):
        rng = np.random.default_rng(seed)
        return Instance.from_matrices(
            {"A": rng.random((128, 128)) < 0.004}, semiring=BOOLEAN
        )

    def test_a_lone_request_runs_on_the_plan_evaluate_picks(self):
        from repro.obs.trace import Tracer
        from repro.semiring.backends import plan_physical
        from repro.stdlib import transitive_closure_product

        expression = transitive_closure_product()
        instance = self._closure_instance(7)
        plan = compile_expression(expression, instance.schema)
        picked = plan_physical(plan, instance, None)
        assert "sparse" in picked.backends, picked.notes
        tracer = Tracer(sample_rate=1.0)
        with Engine(trace=tracer) as engine:
            result = engine.submit(expression, instance).result(60)
            snapshot = engine.stats()
        assert np.array_equal(result, evaluate(expression, instance))
        assert snapshot.fallback_requests == 1
        ran_on = {span.args["backend"] for span in tracer.spans() if span.category == "kernel"}
        assert ran_on == set(picked.backends)

    def test_a_group_with_no_batched_counterpart_runs_per_instance(self, monkeypatch):
        import repro.matlang.evaluator as evaluator_module
        from repro.semiring import backends as backends_module
        from repro.semiring.backends import DenseExecutionBackend, register_backend
        from repro.stdlib import transitive_closure_product

        powers = []

        class CustomSparse(DenseExecutionBackend):
            """A caller-registered "sparse" backend with no batched form."""

            name = "sparse"

            def power(self, value, count):
                powers.append(value.shape)
                return super().power(value, count)

        batch_calls = []
        original_batch = evaluator_module.execute_plan_batch

        def counting(plan, backend, instances, functions, **kwargs):
            batch_calls.append(len(instances))
            return original_batch(plan, backend, instances, functions, **kwargs)

        monkeypatch.setattr(evaluator_module, "execute_plan_batch", counting)
        expression = transitive_closure_product()
        instances = [self._closure_instance(seed) for seed in range(3)]
        plan = compile_expression(expression, instances[0].schema)
        original = backends_module._BACKEND_FACTORIES["sparse"]
        register_backend("sparse", CustomSparse, overwrite=True)
        try:
            assert backends_module.plan_physical(plan, instances[0], None, batch_size=3).batch_mode is None
            expected = [evaluate(expression, instance) for instance in instances]
            assert len(powers) == 3
            swept = evaluator_module.run_plan_batch(plan, instances, default_registry())
            assert batch_calls == [] and len(powers) == 6
            with Engine(policy=CoalescingPolicy(max_delay=0.05)) as engine:
                futures = engine.submit_many((expression, inst) for inst in instances)
                served = [future.result(60) for future in futures]
                snapshot = engine.stats()
            assert batch_calls == [] and len(powers) == 9
        finally:
            register_backend("sparse", original, overwrite=True)
        assert snapshot.fallback_requests == 3 and snapshot.batched_requests == 0
        for want, got_swept, got_served in zip(expected, swept, served):
            assert np.array_equal(got_swept, want)
            assert np.array_equal(got_served, want)


class TestEngineErrors:
    def test_typing_error_resolves_the_future(self):
        instance = _instance_for(REAL, 4, 0)
        with Engine() as engine:
            future = engine.submit(var("NoSuchVariable"), instance)
            error = future.exception(30)
        assert isinstance(error, TypingError)

    def test_error_is_isolated_from_batch_neighbours(self):
        # Both requests share plan / semiring / dims, so they coalesce into
        # one batch; the overflowing instance must fail alone.
        expression = var("A") @ var("A")
        good = Instance.from_matrices(
            {"A": np.full((4, 4), 3, dtype=np.int64)}, semiring=NATURAL
        )
        poisoned = Instance.from_matrices(
            {"A": np.full((4, 4), 2**32, dtype=np.int64)}, semiring=NATURAL
        )
        with Engine() as engine:
            futures = engine.submit_many([(expression, good), (expression, poisoned)])
            assert np.array_equal(futures[0].result(30), evaluate(expression, good))
            assert isinstance(futures[1].exception(30), SemiringError)
            snapshot = engine.stats()
        assert snapshot.completed == 1
        assert snapshot.failed == 1

    def test_result_reraises_the_request_error(self):
        instance = _instance_for(REAL, 4, 0)
        with Engine() as engine:
            future = engine.submit(var("Missing"), instance)
            with pytest.raises(TypingError):
                future.result(30)


class TestEngineLifecycle:
    def test_shutdown_drains_pending_work(self):
        expression = _sum_workload()
        instances = [_instance_for(REAL, 5, seed) for seed in range(20)]
        engine = Engine()
        futures = engine.submit_many((expression, inst) for inst in instances)
        engine.shutdown(wait=True)
        assert all(future.done() for future in futures)
        for instance, future in zip(instances, futures):
            assert np.array_equal(future.result(0), evaluate(expression, instance))

    def test_submit_after_shutdown_rejects_through_the_future(self):
        engine = Engine()
        engine.shutdown(wait=True)
        future = engine.submit(_sum_workload(), _instance_for(REAL, 4, 0))
        assert isinstance(future.exception(5), RuntimeError)

    def test_shutdown_is_idempotent(self):
        engine = Engine()
        engine.shutdown(wait=True)
        engine.shutdown(wait=True)


class TestTelemetry:
    def test_snapshot_consistency(self):
        expression = _sum_workload()
        instances = [_instance_for(REAL, 5, seed) for seed in range(32)]
        with Engine() as engine:
            futures = engine.submit_many((expression, inst) for inst in instances)
            [future.result(30) for future in futures]
            snapshot = engine.stats()
        assert snapshot.submitted == len(instances)
        assert snapshot.completed + snapshot.failed == snapshot.submitted
        assert snapshot.queue_depth == 0
        assert snapshot.batched_requests + snapshot.fallback_requests == snapshot.submitted
        assert snapshot.dispatches >= 1
        assert snapshot.coalesce_ratio >= 1.0
        assert snapshot.throughput > 0
        assert snapshot.latency_p50 is not None
        assert snapshot.latency_p95 is not None
        assert snapshot.latency_p95 >= snapshot.latency_p50
        assert "coalesce" in snapshot.render()

    def test_stack_cache_info_exposed(self):
        expression = _sum_workload()
        instances = [_instance_for(REAL, 5, seed) for seed in range(8)]
        with Engine() as engine:
            for _ in range(2):
                futures = engine.submit_many((expression, inst) for inst in instances)
                [future.result(30) for future in futures]
            info = engine.stack_cache_info()
        assert info.hits + info.misses > 0


# ----------------------------------------------------------------------
# Scheduling machinery
# ----------------------------------------------------------------------
class TestCoalescingPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoalescingPolicy(max_delay=-0.1)
        with pytest.raises(ValueError):
            CoalescingPolicy(max_batch=0)
        with pytest.raises(ValueError):
            CoalescingPolicy(max_pending=0)

    def test_zero_delay_engine_still_correct(self):
        expression = _sum_workload()
        instances = [_instance_for(REAL, 5, seed) for seed in range(12)]
        with Engine(policy=CoalescingPolicy(max_delay=0.0)) as engine:
            futures = engine.submit_many((expression, inst) for inst in instances)
            for instance, future in zip(instances, futures):
                assert np.array_equal(future.result(30), evaluate(expression, instance))


class _FakePlan:
    pass


def _fake_request(plan, instance):
    return QueryRequest(
        plan=plan,
        instance=instance,
        future=QueryFuture(threading.Condition()),
        submitted_at=time.perf_counter(),
    )


class TestRequestQueue:
    def test_fifo_order_and_sequencing(self):
        queue = RequestQueue(CoalescingPolicy(max_delay=0.0))
        plan = _FakePlan()
        instance = _instance_for(REAL, 3, 0)
        requests = [_fake_request(plan, instance) for _ in range(5)]
        assert queue.put_many(requests) == 5
        drained = queue.drain()
        assert [request.sequence for request in drained] == [0, 1, 2, 3, 4]

    def test_backpressure_releases_on_drain(self):
        queue = RequestQueue(CoalescingPolicy(max_delay=0.0, max_pending=2))
        plan = _FakePlan()
        instance = _instance_for(REAL, 3, 0)
        queue.put(_fake_request(plan, instance))
        queue.put(_fake_request(plan, instance))
        unblocked = threading.Event()

        def blocked_put():
            queue.put(_fake_request(plan, instance))
            unblocked.set()

        thread = threading.Thread(target=blocked_put, daemon=True)
        thread.start()
        assert not unblocked.wait(0.05), "put must block at max_pending"
        assert len(queue.drain()) == 2
        assert unblocked.wait(5), "draining must release the blocked put"
        thread.join(5)
        queue.close()

    def test_close_drains_remainder_then_signals_termination(self):
        queue = RequestQueue(CoalescingPolicy(max_delay=0.0))
        plan = _FakePlan()
        instance = _instance_for(REAL, 3, 0)
        queue.put(_fake_request(plan, instance))
        queue.close()
        assert len(queue.drain()) == 1
        assert queue.drain() == []
        with pytest.raises(RuntimeError):
            queue.put(_fake_request(plan, instance))

    def test_put_many_after_close_reports_rejected_suffix(self):
        queue = RequestQueue(CoalescingPolicy(max_delay=0.0))
        queue.close()
        plan = _FakePlan()
        instance = _instance_for(REAL, 3, 0)
        assert queue.put_many([_fake_request(plan, instance)]) == 0

    def test_coalesce_groups_by_plan_and_semiring(self):
        plan_a, plan_b = _FakePlan(), _FakePlan()
        small = _instance_for(REAL, 3, 0)
        large = _instance_for(REAL, 5, 0)
        natural = _instance_for(NATURAL, 3, 0)
        requests = [
            _fake_request(plan_a, small),
            _fake_request(plan_b, small),
            _fake_request(plan_a, small),
            _fake_request(plan_a, large),
            _fake_request(plan_a, natural),
        ]
        groups = coalesce(requests)
        # Dimensions do not split a group: the chunker does (see
        # test_chunker_splits_a_group_by_dimensions).
        assert [len(group) for group in groups] == [3, 1, 1]
        assert groups[0].requests == [requests[0], requests[2], requests[3]]
        assert groups[1].requests == [requests[1]]
        assert groups[2].requests == [requests[4]]

    def test_chunker_splits_a_group_by_dimensions(self):
        from repro.matlang.evaluator import plan_chunks

        instances = [_instance_for(REAL, size, seed) for seed, size in enumerate((3, 5, 3, 5, 3))]
        plan = compile_expression(_sum_workload(), instances[0].schema)
        chunks = list(plan_chunks(plan, instances, ragged=False))
        assert [(chunk.positions, chunk.lane) for chunk in chunks] == [
            ([0, 2, 4], "dense"),
            ([1, 3], "dense"),
        ]
        for chunk in chunks:
            for instance in chunk.instances:
                assert instance.dimensions == chunk.instances[0].dimensions


class TestQueryFuture:
    def test_timeout(self):
        future = QueryFuture(threading.Condition())
        with pytest.raises(TimeoutError):
            future.result(timeout=0.01)

    def test_single_resolution(self):
        future = QueryFuture(threading.Condition())
        assert future._finish(1, None)
        assert not future._finish(2, None)
        assert future.result(0) == 1


# ----------------------------------------------------------------------
# Concurrency properties
# ----------------------------------------------------------------------
class TestConcurrencyProperties:
    THREADS = 8
    REQUESTS_PER_THREAD = 30

    def test_threaded_mixed_streams_match_sequential(self):
        """N threads hammer one engine; every answer is bitwise-sequential."""
        expressions = [_sum_workload(), _quadratic_workload()]
        semirings = [REAL, NATURAL, BOOLEAN, MIN_PLUS]
        failures = []
        barrier = threading.Barrier(self.THREADS)

        def worker(worker_id, engine):
            rng_offset = worker_id * 1000
            stream = []
            for index in range(self.REQUESTS_PER_THREAD):
                expression = expressions[(worker_id + index) % len(expressions)]
                semiring = semirings[index % len(semirings)]
                size = (4, 5, 6)[index % 3]
                stream.append(
                    (expression, _instance_for(semiring, size, rng_offset + index))
                )
            barrier.wait(timeout=30)
            futures = [engine.submit(expr, inst) for expr, inst in stream]
            for (expression, instance), future in zip(stream, futures):
                try:
                    actual = future.result(60)
                    expected = evaluate(expression, instance)
                    if not np.array_equal(actual, expected):
                        failures.append((worker_id, "mismatch"))
                except Exception as error:  # pragma: no cover - diagnostic
                    failures.append((worker_id, repr(error)))

        with Engine() as engine:
            threads = [
                threading.Thread(target=worker, args=(worker_id, engine), daemon=True)
                for worker_id in range(self.THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            snapshot = engine.stats()
        assert not failures, failures
        total = self.THREADS * self.REQUESTS_PER_THREAD
        assert snapshot.submitted == total
        assert snapshot.completed == total
        assert snapshot.failed == 0
        assert snapshot.queue_depth == 0

    def test_plan_cache_counters_are_consistent_under_threads(self):
        """hits + misses == compile calls, regardless of interleaving."""
        clear_plan_cache()
        distinct = 6
        repeats = 25
        schema = _instance_for(REAL, 4, 0).schema
        expressions = []
        chain = var("A")
        for _ in range(distinct):
            chain = chain @ var("A")
            expressions.append(chain)
        errors = []
        barrier = threading.Barrier(self.THREADS)

        def worker():
            try:
                barrier.wait(timeout=30)
                for repeat in range(repeats):
                    for expression in expressions:
                        compile_expression(expression, schema)
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(repr(error))

        threads = [
            threading.Thread(target=worker, daemon=True) for _ in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not errors, errors
        info = plan_cache_info()
        total_calls = self.THREADS * repeats * distinct
        assert info.hits + info.misses == total_calls, (
            "lost cache-counter updates under concurrency"
        )
        # Every distinct key missed at least once; duplicated lowering on a
        # racy first miss is allowed, but bounded by the thread count.
        assert distinct <= info.misses <= distinct * self.THREADS
        assert info.size >= distinct

    def test_stack_cache_counters_are_consistent_under_threads(self):
        cache = StackCache(capacity=16)
        lookups_per_thread = 200
        errors = []
        barrier = threading.Barrier(self.THREADS)
        payload = np.zeros((4, 4))

        def worker(worker_id):
            try:
                barrier.wait(timeout=30)
                rng = np.random.default_rng(worker_id)
                instances = (object(), object())
                for index in range(lookups_per_thread):
                    name = f"V{rng.integers(0, 8)}"
                    token = (id(instances[0]), id(instances[1]))
                    if cache.lookup(name, token, instances) is None:
                        cache.store(name, token, instances, payload)
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(repr(error))

        threads = [
            threading.Thread(target=worker, args=(worker_id,), daemon=True)
            for worker_id in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not errors, errors
        info = cache.info()
        assert info.hits + info.misses == self.THREADS * lookups_per_thread, (
            "lost stack-cache counter updates under concurrency"
        )
        assert info.size <= 16

    def test_concurrent_submitters_and_closers_never_strand_futures(self):
        """Shutdown racing submissions resolves every future, one way or another."""
        expression = _sum_workload()
        instances = [_instance_for(REAL, 4, seed) for seed in range(10)]
        for _ in range(5):
            engine = Engine(policy=CoalescingPolicy(max_delay=0.001))
            futures = []
            collected = threading.Lock()

            def submitter():
                for instance in instances:
                    future = engine.submit(expression, instance)
                    with collected:
                        futures.append(future)

            threads = [threading.Thread(target=submitter, daemon=True) for _ in range(3)]
            for thread in threads:
                thread.start()
            engine.shutdown(wait=True)
            for thread in threads:
                thread.join(30)
            # Late submissions may have been rejected; every future resolves.
            for future in futures:
                error = future.exception(10)
                assert error is None or isinstance(error, RuntimeError)


# ----------------------------------------------------------------------
# The harness hook
# ----------------------------------------------------------------------
class TestServedWorkload:
    def test_replay_matches_sequential(self):
        expression = _sum_workload()
        instances = [
            _instance_for((REAL, MIN_PLUS)[seed % 2], (5, 6)[seed % 2], seed)
            for seed in range(20)
        ]
        requests = [(expression, instance) for instance in instances]
        with ServedWorkload() as served:
            results = served.replay(requests, timeout=60)
            snapshot = served.stats()
        for instance, result in zip(instances, results):
            assert np.array_equal(result, evaluate(expression, instance))
        assert snapshot.completed == len(instances)
        assert snapshot.coalesce_ratio > 1.0
