"""Tests for the sharded multi-process serving tier (PR 7).

Covers the whole pooled stack and its satellites:

* **transport** — plan wire serialization (roundtrip identity, version
  rejection) and the pickled request/result messages (large and
  object-dtype payloads, Fortran-ordered and mixed-layout operands, alone
  and coalesced, large and small payloads in flight together, the
  ``ship`` span, and a worker-side failure or an undecodable result
  failing only its own request);
* **routing** — the shard router's determinism and group-identity keying;
* **memoization** — the bounded result memo (copy-out semantics, LRU and
  byte eviction, object-dtype refusal, profile-generation invalidation)
  and its engine integration (hit/miss/bytes telemetry, repeats resolving
  without execution, the traced ``memo`` span, both pooled and
  single-process);
* **pooled correctness** — results bitwise-equal to sequential
  ``evaluate`` on every registered semiring;
* **worker protocol** — one worker driven over a raw control pipe: bare
  ``("heartbeat",)`` and ``("stopped",)`` tags, the heartbeat interval
  read from the policy, no reply to a ``("profile",)`` request, a submit
  answered with its pickled result, and a task expired in transit failed
  without executing;
* **worker lifecycle** — crash rescue (a killed worker's shard respawns
  and only its in-flight futures are touched), shutdown-vs-submit races
  resolving every future, and a pool built without a policy refused;
* **front ends** — the asyncio bridge (``asubmit`` / ``asubmit_many``)
  and the length-prefixed socket protocol (queries, bursts, stats, error
  propagation, magic rejection).
"""

import asyncio
import contextlib
import multiprocessing
import pickle
import socket
import threading
import time

import numpy as np
import pytest

from repro.matlang.builder import ssum, var
from repro.matlang.compiler import compile_expression
from repro.matlang.evaluator import evaluate
from repro.matlang.instance import Instance
from repro.matlang.ir import (
    PLAN_WIRE_VERSION,
    deserialize_plan,
    serialize_plan,
)
from repro.exceptions import DeadlineExceededError, EvaluationError, SemiringError
from repro.obs.trace import Tracer
from repro.profile import DEFAULT_PROFILE, set_active_profile
from repro.semiring import BOOLEAN, INTEGER, MAX_PLUS, MIN_PLUS, NATURAL, REAL
from repro.semiring.base import Semiring
from repro.semiring.provenance import PROVENANCE, Polynomial
from repro.service import (
    CoalescingPolicy,
    Engine,
    QueryClient,
    QueryServer,
    RemoteQueryError,
    ResultMemo,
    ShardRouter,
    WorkerCrashError,
)
from repro.service.pool import WorkerPool, _worker_main

ALL_SEMIRINGS = [REAL, NATURAL, INTEGER, BOOLEAN, MIN_PLUS, MAX_PLUS, PROVENANCE]


class _LateMaxMin(Semiring):
    """A module-level custom semiring (picklable by reference) that tests
    register *after* a worker pool has already forked."""

    name = "test_late_max_min"

    @property
    def zero(self):
        return 0.0

    @property
    def one(self):
        return float("inf")

    def plus(self, left, right):
        return max(left, right)

    def times(self, left, right):
        return min(left, right)

    def coerce(self, value):
        return float(value)


@pytest.fixture(autouse=True)
def _restore_profile():
    """Tests that install a profile restore the default after."""
    yield
    set_active_profile(DEFAULT_PROFILE)


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


def _workload():
    return ssum("_v", var("A") @ var("_v"))


def _fortran_instances(sizes=(16, 48), seeds=range(3)):
    """REAL instances whose ``A`` is Fortran-ordered, as a caller may hold it."""
    instances = []
    for size in sizes:
        for seed in seeds:
            matrix = np.random.default_rng(seed).standard_normal((size, size))
            instance = Instance.from_matrices(
                {"A": np.asfortranarray(matrix)}, semiring=REAL
            )
            assert instance.matrices["A"].flags.f_contiguous
            instances.append(instance)
    return instances


@contextlib.contextmanager
def _bare_worker(**knobs):
    """One worker process on a raw control pipe, forked as the pool forks it.

    Yields ``(connection, process)``; the test speaks the wire protocol
    itself.  The worker is killed on exit if it is still running.
    """
    context = multiprocessing.get_context("fork")
    connection, child = context.Pipe(duplex=True)
    process = context.Process(
        target=_worker_main,
        args=(0, child, CoalescingPolicy(**knobs), None, None, None),
        daemon=True,
    )
    process.start()
    child.close()
    try:
        yield connection, process
    finally:
        if process.is_alive():
            process.kill()
        process.join(10)
        connection.close()


def _reply(connection, timeout=30.0):
    """The worker's next message that is not a heartbeat."""
    deadline = time.perf_counter() + timeout
    while True:
        remaining = deadline - time.perf_counter()
        assert remaining > 0 and connection.poll(remaining), "the worker never replied"
        message = connection.recv()
        if message != ("heartbeat",):
            return message


#: Expressions whose REAL kernels sum in an order that depends on the
#: operand's memory layout (the matrix-vector products) or does not (the
#: matrix products); a pooled result must match ``evaluate`` on all three.
FORTRAN_EXPRESSIONS = {
    "sum-Av": _workload(),
    "quadratic-form-times-square": (
        ssum("_v", var("_v").T @ var("A") @ var("_v")) * (var("A") @ var("A"))
    ),
    "cube": var("A") @ var("A") @ var("A"),
}


# ----------------------------------------------------------------------
# Plan wire serialization
# ----------------------------------------------------------------------
class TestPlanSerialization:
    def test_roundtrip_executes_identically(self):
        instance = _instance_for(REAL, 6, 0)
        expression = _workload()
        plan = compile_expression(expression, instance.schema)
        clone = deserialize_plan(serialize_plan(plan))
        assert clone is not plan
        assert len(clone.ops) == len(plan.ops)
        with Engine() as engine:
            via_clone = engine.submit_compiled(clone, instance).result(30)
        assert np.array_equal(via_clone, evaluate(expression, instance))

    def test_version_mismatch_rejected(self):
        payload = pickle.dumps((PLAN_WIRE_VERSION + 1, None))
        with pytest.raises(EvaluationError):
            deserialize_plan(payload)

    def test_garbage_rejected(self):
        with pytest.raises(EvaluationError):
            deserialize_plan(b"not a plan")


# ----------------------------------------------------------------------
# Shard routing
# ----------------------------------------------------------------------
class TestShardRouter:
    def test_deterministic_and_in_range(self):
        router = ShardRouter(4)
        shard = router.shard_for(7, "real", {"alpha": 64})
        for _ in range(5):
            assert router.shard_for(7, "real", {"alpha": 64}) == shard
        assert 0 <= shard < 4

    def test_distinct_identities_spread(self):
        router = ShardRouter(4)
        shards = {
            router.shard_for(plan_id, "real", {"alpha": 64}) for plan_id in range(64)
        }
        assert len(shards) > 1

    def test_dimension_signature_changes_shard_key(self):
        router = ShardRouter(1024)
        spread = {
            router.shard_for(1, "real", {"alpha": size}) for size in range(128)
        }
        assert len(spread) > 1


# ----------------------------------------------------------------------
# Result memo (unit level)
# ----------------------------------------------------------------------
class TestResultMemo:
    def test_hit_returns_a_private_copy(self):
        instance = _instance_for(REAL, 4, 0)
        plan = compile_expression(_workload(), instance.schema)
        memo = ResultMemo()
        key, hit = memo.lookup(plan, instance)
        assert key is not None and hit is None
        result = np.arange(4.0).reshape(4, 1)
        memo.store(key, plan, result)
        result[0, 0] = 99.0  # caller mutates after store: memo unaffected
        _, first = memo.lookup(plan, instance)
        assert first[0, 0] == 0.0
        first[1, 0] = -1.0  # mutating a hit must not corrupt the cache
        _, second = memo.lookup(plan, instance)
        assert second[1, 0] == 1.0

    def test_object_dtype_not_memoizable(self):
        instance = _instance_for(PROVENANCE, 3, 0)
        plan = compile_expression(_workload(), instance.schema)
        memo = ResultMemo()
        assert memo.lookup(plan, instance) == (None, None)

    def test_capacity_eviction_is_lru(self):
        plan = object.__new__(type("FakePlan", (), {}))
        memo = ResultMemo(capacity=2)
        keys = [(id(plan), bytes([n]), 0) for n in range(3)]
        for n, key in enumerate(keys):
            memo.store(key, plan, np.full((1, 1), float(n)))
        assert len(memo) == 2
        info = memo.info()
        assert info["entries"] == 2

    def test_byte_limit_eviction(self):
        plan = object.__new__(type("FakePlan", (), {}))
        memo = ResultMemo(capacity=64, byte_limit=1024)
        for n in range(8):
            memo.store((id(plan), bytes([n]), 0), plan, np.zeros((8, 8)))  # 512B each
        assert memo.bytes <= 1024

    def test_oversized_result_skipped(self):
        plan = object.__new__(type("FakePlan", (), {}))
        memo = ResultMemo(byte_limit=64)
        memo.store((id(plan), b"k", 0), plan, np.zeros((8, 8)))
        assert len(memo) == 0

    def test_profile_generation_invalidates_key(self):
        instance = _instance_for(REAL, 4, 0)
        plan = compile_expression(_workload(), instance.schema)
        memo = ResultMemo()
        key, _ = memo.lookup(plan, instance)
        memo.store(key, plan, np.zeros((4, 1)))
        set_active_profile(DEFAULT_PROFILE.bumped(source="test"))
        fresh_key, hit = memo.lookup(plan, instance)
        assert fresh_key != key
        assert hit is None


# ----------------------------------------------------------------------
# Pooled engine correctness
# ----------------------------------------------------------------------
class TestPooledResults:
    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
    def test_bitwise_equal_per_semiring(self, semiring):
        expression = _workload()
        count = 4 if semiring.name == "provenance" else 10
        size = 3 if semiring.name == "provenance" else 6
        instances = [_instance_for(semiring, size, seed) for seed in range(count)]
        sequential = [evaluate(expression, instance) for instance in instances]
        with Engine(workers=2) as engine:
            futures = engine.submit_many((expression, inst) for inst in instances)
            results = [future.result(60) for future in futures]
        for expected, actual in zip(sequential, results):
            assert _entrywise_equal(actual, expected), semiring.name

    def test_large_and_object_payloads_roundtrip(self):
        # A 2 MiB float64 matrix and an object-dtype provenance matrix both
        # cross the control pipe pickled and come back bitwise-equal.
        expression = _workload()
        instances = [_instance_for(REAL, 512, 3), _instance_for(PROVENANCE, 4, 3)]
        assert instances[0].matrices["A"].nbytes == 2 * 1024 * 1024
        with Engine(workers=1, memoize=False) as engine:
            for instance in instances:
                result = engine.submit(expression, instance).result(60)
                assert _entrywise_equal(result, evaluate(expression, instance))

    @pytest.mark.parametrize(
        "expression", list(FORTRAN_EXPRESSIONS.values()), ids=list(FORTRAN_EXPRESSIONS)
    )
    def test_fortran_ordered_operands_match_evaluate_bitwise(self, expression):
        # The worker must multiply the caller's own layout: a C-ordered
        # copy of a Fortran-ordered REAL matrix sums in another order and
        # drifts from evaluate() in the last bits of the matrix-vector
        # products.  Submitted one at a time, so no batch forms.
        with Engine(workers=1, memoize=False) as engine:
            for instance in _fortran_instances():
                got = engine.submit(expression, instance).result(60)
                want = evaluate(expression, instance)
                assert np.array_equal(got, want), (str(expression), instance)

    def test_coalesced_fortran_operands_match_evaluate_bitwise(self):
        # The same operands in flight together: the worker coalesces them
        # into batches, and every batched result must still equal evaluate().
        expression = FORTRAN_EXPRESSIONS["sum-Av"]
        instances = _fortran_instances(sizes=(48,), seeds=range(12))
        expected = [evaluate(expression, instance) for instance in instances]
        with Engine(workers=1, memoize=False) as engine:
            futures = engine.submit_many((expression, inst) for inst in instances)
            results = [future.result(60) for future in futures]
            (worker,) = engine.worker_stats()
        for want, got in zip(expected, results):
            assert np.array_equal(got, want)
        assert worker.completed == len(instances)

    def test_each_operand_keeps_its_own_layout(self):
        # One request carries several matrices in different layouts; each
        # must reach the worker under its own name and in its own order.
        rng = np.random.default_rng(5)
        instance = Instance.from_matrices(
            {
                "A": rng.standard_normal((24, 24)),
                "B": np.asfortranarray(rng.standard_normal((24, 24))),
                "u": rng.standard_normal((24, 1)),
            },
            semiring=REAL,
        )
        assert instance.matrices["A"].flags.c_contiguous
        assert instance.matrices["B"].flags.f_contiguous
        expression = ssum("_v", var("A") @ var("B") @ var("_v")) + var("B").T @ var("u")
        with Engine(workers=1, memoize=False) as engine:
            got = engine.submit(expression, instance).result(60)
        assert np.array_equal(got, evaluate(expression, instance))

    def test_large_and_small_requests_in_flight_resolve_to_their_own_results(self):
        # 2 MiB and 288-byte payloads interleave on both workers' pipes;
        # the sizes differ, so a result delivered to the wrong future would
        # fail on its shape as well as its values.
        expression = _workload()
        instances = []
        for seed in range(4):
            instances.append(_instance_for(REAL, 512, seed))
            instances.append(_instance_for(REAL, 6, seed))
            instances.append(_instance_for(REAL, 6, seed + 10))
        expected = [evaluate(expression, instance) for instance in instances]
        with Engine(workers=2, memoize=False) as engine:
            futures = [engine.submit(expression, inst) for inst in instances]
            results = [future.result(60) for future in futures]
        for want, got in zip(expected, results):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_ship_span_reports_the_pickled_payload(self):
        expression = _workload()
        instance = _instance_for(REAL, 48, 0)
        tracer = Tracer(sample_rate=1.0)
        with Engine(workers=1, memoize=False, trace=tracer) as engine:
            engine.submit(expression, instance).result(30)
        ship_spans = [span for span in tracer.spans() if span.name == "ship"]
        assert len(ship_spans) == 1
        args = ship_spans[0].args
        assert args["worker"] == 0
        assert args["transport"] == "pickle"
        # The pickled matrices: every byte of A plus the dict's framing.
        assert args["bytes"] > instance.matrices["A"].nbytes

    def test_undecodable_result_fails_only_its_own_request(self, monkeypatch):
        # The router decodes each result payload apart from its message, so
        # a payload it cannot decode fails that request's future alone and
        # the pipe stays in step for the requests after it.
        import types

        import repro.service.pool as pool_module

        decoded = []

        def flaky_loads(payload):
            decoded.append(payload)
            if len(decoded) == 1:
                raise pickle.UnpicklingError("corrupt result payload")
            return pickle.loads(payload)

        expression = _workload()
        instances = [_instance_for(REAL, 6, seed) for seed in range(5)]
        expected = [evaluate(expression, instance) for instance in instances]
        with Engine(workers=1, memoize=False) as engine:
            # Patched after the fork: only the router's decoding is flaky.
            monkeypatch.setattr(
                pool_module,
                "pickle",
                types.SimpleNamespace(dumps=pickle.dumps, loads=flaky_loads),
            )
            failed = engine.submit(expression, instances[0])
            assert isinstance(failed.exception(30), pickle.UnpicklingError)
            for instance, want in zip(instances[1:], expected[1:]):
                got = engine.submit(expression, instance).result(30)
                assert np.array_equal(got, want)

    def test_worker_side_failure_fails_only_its_own_request(self, monkeypatch):
        # A request that fails inside the worker before it executes (here:
        # the semiring lookup raising) resolves with its own error, and the
        # next requests on the same worker come back right.
        import repro.semiring.registry as registry

        real_lookup = registry.get_semiring

        def flaky_lookup(name):
            if name == "natural":
                raise SemiringError("natural is broken in this worker")
            return real_lookup(name)

        # Patched before the fork so the workers inherit the flaky lookup.
        monkeypatch.setattr(registry, "get_semiring", flaky_lookup)
        expression = _workload()
        poisoned = _instance_for(NATURAL, 6, 0)
        healthy = [_instance_for(REAL, 6, seed) for seed in range(1, 5)]
        expected = [evaluate(expression, instance) for instance in healthy]
        with Engine(workers=1, memoize=False) as engine:
            failed = engine.submit(expression, poisoned)
            assert isinstance(failed.exception(30), SemiringError)
            for instance, want in zip(healthy, expected):
                got = engine.submit(expression, instance).result(30)
                assert np.array_equal(got, want)

    def test_semiring_registered_after_pool_start_is_shipped(self, monkeypatch):
        # The workers' fork-inherited registries predate the registration;
        # the parent must ship the semiring object so by-name resolution
        # works instead of failing every pooled request.
        from repro.semiring import register_semiring
        from repro.semiring.registry import _REGISTRY

        expression = _workload()
        with Engine(workers=2, memoize=False) as engine:
            # Patched after the fork: only the parent's shipping is seen.
            shipped = []
            real_dumps = pickle.dumps

            def recording_dumps(obj, *args, **kwargs):
                if isinstance(obj, Semiring):
                    shipped.append(obj)
                return real_dumps(obj, *args, **kwargs)

            monkeypatch.setattr(pickle, "dumps", recording_dumps)
            semiring = _LateMaxMin()
            register_semiring(semiring)
            try:
                matrix = np.round(
                    np.random.default_rng(7).random((5, 5)) * 9 + 0.5, 3
                )
                instance = Instance.from_matrices({"A": matrix}, semiring=semiring)
                expected = evaluate(expression, instance)
                futures = [engine.submit(expression, instance) for _ in range(4)]
                for future in futures:
                    assert _entrywise_equal(future.result(60), expected)
            finally:
                _REGISTRY.pop(semiring.name, None)
        # The parent's semiring has a warm backend cache; the clone shipped
        # to the workers carries none (each worker resolves its own).
        assert "_kernel_cache" in vars(semiring)
        assert shipped and all(clone is not semiring for clone in shipped)
        assert all("_kernel_cache" not in vars(clone) for clone in shipped)

    def test_compile_errors_surface_through_the_future(self):
        instance = _instance_for(REAL, 4, 0)
        with Engine(workers=1) as engine:
            future = engine.submit(var("NoSuchMatrix"), instance)
            assert future.exception(30) is not None

    def test_worker_stats_report_dispatch_detail(self):
        expression = _workload()
        instances = [_instance_for(REAL, 6, seed) for seed in range(12)]
        with Engine(workers=2, memoize=False) as engine:
            futures = engine.submit_many((expression, inst) for inst in instances)
            for future in futures:
                future.result(30)
            per_worker = engine.worker_stats()
            router_view = engine.stats()
        assert len(per_worker) == 2
        served = sum(s.completed for s in per_worker if s is not None)
        assert served == len(instances)
        assert router_view.completed == len(instances)
        assert router_view.workers == 2

    def test_sparse_selected_stream_batches_in_workers(self):
        # Sparse boolean instances large enough for adaptive planning to
        # pick the sparse lane: the owning worker must coalesce them into
        # block-diagonal CSR batches (visible in its sparse telemetry), and
        # the results must stay bitwise-equal to sequential evaluation.
        pytest.importorskip("scipy.sparse")
        expression = (var("A") @ var("A")) @ var("A")
        rng = np.random.default_rng(11)
        instances = [
            Instance.from_matrices(
                {"A": (rng.random((64, 64)) < 0.04).astype(np.float64)},
                semiring=BOOLEAN,
            )
            for _ in range(12)
        ]
        sequential = [evaluate(expression, instance) for instance in instances]
        with Engine(workers=2, memoize=False) as engine:
            futures = engine.submit_many((expression, inst) for inst in instances)
            results = [future.result(60) for future in futures]
            per_worker = engine.worker_stats()
        for expected, actual in zip(sequential, results):
            assert np.array_equal(actual, expected)
        sparse_batches = sum(
            s.sparse_batches for s in per_worker if s is not None
        )
        sparse_requests = sum(
            s.sparse_batched_requests for s in per_worker if s is not None
        )
        assert sparse_batches >= 1, "the sparse stream never hit the batched lane"
        assert sparse_requests >= 2
        batched_total = sum(
            s.batched_requests for s in per_worker if s is not None
        )
        assert sparse_requests <= batched_total

    def test_submit_compiled_is_worker_side_only(self):
        instance = _instance_for(REAL, 4, 0)
        plan = compile_expression(_workload(), instance.schema)
        with Engine(workers=1) as engine:
            with pytest.raises(RuntimeError):
                engine.submit_compiled(plan, instance)


# ----------------------------------------------------------------------
# Worker protocol (one worker, raw control pipe)
# ----------------------------------------------------------------------
class TestWorkerProtocol:
    def test_heartbeat_is_a_bare_tag(self):
        with _bare_worker(heartbeat_interval=0.02) as (connection, _):
            assert connection.poll(30), "no heartbeat"
            assert connection.recv() == ("heartbeat",)

    def test_heartbeat_interval_comes_from_the_policy(self):
        knobs = dict(heartbeat_interval=60.0, heartbeat_timeout=120.0)
        with _bare_worker(**knobs) as (connection, _):
            connection.send(("stats",))
            assert _reply(connection)[0] == "stats"  # the worker is serving
            assert not connection.poll(0.5)  # and stays silent until 60 s

    def test_stop_is_answered_by_a_bare_stopped_tag(self):
        with _bare_worker(heartbeat_interval=0.02) as (connection, process):
            connection.send(("stop",))
            messages = []
            while True:
                assert connection.poll(30), "the worker never closed its pipe"
                try:
                    messages.append(connection.recv())
                except EOFError:
                    break
            process.join(30)
        assert [m for m in messages if m != ("heartbeat",)] == [("stopped",)]
        assert process.exitcode == 0

    def test_a_profile_request_gets_no_reply(self):
        # Profiler state no longer crosses the pipe: the worker ignores a
        # ``("profile",)`` request and answers the next message.
        with _bare_worker() as (connection, _):
            connection.send(("profile",))
            connection.send(("stats",))
            tag, snapshot = _reply(connection)
        assert tag == "stats"
        assert snapshot.submitted == 0

    def test_submit_is_answered_with_its_pickled_result(self):
        instance = _instance_for(REAL, 6, 0)
        plan = compile_expression(_workload(), instance.schema)
        with _bare_worker() as (connection, _):
            connection.send(("plan", 3, serialize_plan(plan), instance.schema))
            connection.send(
                (
                    "submit", 9, 3, instance.semiring.name,
                    dict(instance.dimensions), pickle.dumps(instance.matrices),
                    None, None,
                )
            )
            tag, task_id, payload, spans = _reply(connection)
        assert (tag, task_id, spans) == ("result", 9, None)
        assert np.array_equal(pickle.loads(payload), evaluate(_workload(), instance))

    def test_a_task_expired_in_transit_fails_without_executing(self):
        instance = _instance_for(REAL, 6, 0)
        plan = compile_expression(_workload(), instance.schema)
        with _bare_worker() as (connection, _):
            connection.send(("plan", 3, serialize_plan(plan), instance.schema))
            connection.send(
                (
                    "submit", 9, 3, instance.semiring.name,
                    dict(instance.dimensions), pickle.dumps(instance.matrices),
                    0.0, None,
                )
            )
            tag, task_id, payload, _spans = _reply(connection)
            connection.send(("stats",))
            _, snapshot = _reply(connection)
        assert (tag, task_id) == ("error", 9)
        assert isinstance(pickle.loads(payload), DeadlineExceededError)
        assert snapshot.submitted == 0  # never reached the worker's engine


# ----------------------------------------------------------------------
# Engine-level memoization
# ----------------------------------------------------------------------
class TestEngineMemo:
    def test_pooled_repeats_hit_and_count(self):
        expression = _workload()
        instance = _instance_for(REAL, 6, 0)
        with Engine(workers=1) as engine:
            first = engine.submit(expression, instance).result(30)
            second = engine.submit(expression, instance).result(30)
            snapshot = engine.stats()
            info = engine.memo_info()
        assert np.array_equal(first, second)
        assert snapshot.memo_hits == 1
        assert snapshot.memo_misses == 1
        assert snapshot.memo_bytes > 0
        assert info["entries"] == 1
        assert "memo=" in snapshot.render()

    def test_single_process_engine_can_opt_in(self):
        expression = _workload()
        instance = _instance_for(REAL, 6, 1)
        with Engine(memoize=True) as engine:
            first = engine.submit(expression, instance).result(30)
            second = engine.submit(expression, instance).result(30)
            snapshot = engine.stats()
        assert np.array_equal(first, second)
        assert snapshot.memo_hits == 1

    @pytest.mark.parametrize(
        "options", [{"memoize": True}, {"workers": 1}], ids=["in-process", "pooled"]
    )
    def test_repeat_records_one_memo_hit_span(self, options):
        expression = _workload()
        instance = _instance_for(REAL, 6, 3)
        tracer = Tracer(sample_rate=1.0)
        with Engine(trace=tracer, **options) as engine:
            first = engine.submit(expression, instance).result(30)
            second = engine.submit(expression, instance).result(30)
            snapshot = engine.stats()
        assert np.array_equal(first, second)
        memo_spans = [span for span in tracer.spans() if span.name == "memo"]
        assert len(memo_spans) == 1
        assert memo_spans[0].args == {"hit": True}
        assert (snapshot.memo_hits, snapshot.memo_misses) == (1, 1)

    def test_memoization_off_by_default_single_process(self):
        with Engine() as engine:
            assert engine.memo_info() is None

    def test_hit_results_are_independent_copies(self):
        expression = _workload()
        instance = _instance_for(REAL, 6, 2)
        with Engine(memoize=True) as engine:
            first = engine.submit(expression, instance).result(30)
            first[0, 0] = 12345.0  # mutate the delivered array
            second = engine.submit(expression, instance).result(30)
        assert second[0, 0] != 12345.0

    def test_object_dtype_streams_never_memoize(self):
        expression = _workload()
        instance = _instance_for(PROVENANCE, 3, 0)
        with Engine(workers=1) as engine:
            engine.submit(expression, instance).result(60)
            engine.submit(expression, instance).result(60)
            snapshot = engine.stats()
            info = engine.memo_info()
        assert snapshot.memo_hits == 0
        assert snapshot.memo_misses == 0
        assert info["entries"] == 0


# ----------------------------------------------------------------------
# Worker lifecycle
# ----------------------------------------------------------------------
class TestWorkerLifecycle:
    def test_killed_worker_respawns_and_serves(self):
        expression = _workload()
        with Engine(workers=2, memoize=False) as engine:
            engine.submit(expression, _instance_for(REAL, 6, 0)).result(30)
            for handle in engine._pool._handles:
                if handle.process is not None:
                    handle.process.kill()
                    break
            deadline = time.perf_counter() + 10
            while time.perf_counter() < deadline:
                if all(h.alive for h in engine._pool._handles):
                    break
                time.sleep(0.05)
            result = engine.submit(expression, _instance_for(REAL, 6, 1)).result(30)
        assert result is not None

    def test_crash_mid_flight_resolves_every_future(self):
        # Kill both workers while a burst is in flight: every future must
        # resolve — with the correct result (rescued) or WorkerCrashError
        # (rescue exhausted) — and never hang.
        expression = _workload()
        instances = [_instance_for(REAL, 48, seed) for seed in range(40)]
        with Engine(workers=2, memoize=False) as engine:
            futures = engine.submit_many((expression, inst) for inst in instances)
            for handle in list(engine._pool._handles):
                if handle.process is not None:
                    handle.process.kill()
            outcomes = []
            for future, instance in zip(futures, instances):
                try:
                    result = future.result(60)
                except (WorkerCrashError, RuntimeError) as error:
                    outcomes.append(error)
                else:
                    assert np.array_equal(result, evaluate(expression, instance))
                    outcomes.append(None)
        assert len(outcomes) == len(instances)

    def test_submit_after_shutdown_fails_the_future(self):
        expression = _workload()
        instance = _instance_for(REAL, 6, 0)
        engine = Engine(workers=1)
        engine.submit(expression, instance).result(30)
        engine.shutdown()
        future = engine.submit(expression, instance)
        assert isinstance(future.exception(10), RuntimeError)

    def test_shutdown_vs_submit_race_resolves_everything(self):
        expression = _workload()
        instances = [_instance_for(REAL, 6, seed) for seed in range(30)]
        engine = Engine(workers=2, memoize=False)
        futures = []
        lock = threading.Lock()

        def submitter(chunk):
            for instance in chunk:
                future = engine.submit(expression, instance)
                with lock:
                    futures.append(future)

        threads = [
            threading.Thread(target=submitter, args=(instances[i::3],))
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        engine.shutdown()
        for thread in threads:
            thread.join()
        for future in futures:
            try:
                result = future.result(30)
            except RuntimeError:
                continue  # rejected at the closed door: a valid outcome
            assert result is not None  # accepted: must carry a real result

    def test_shutdown_is_idempotent(self):
        engine = Engine(workers=1)
        engine.shutdown()
        engine.shutdown()

    def test_the_pool_requires_a_policy(self):
        # The Engine always passes its policy; the pool keeps no defaults
        # of its own to drift from CoalescingPolicy's.
        with pytest.raises(TypeError, match="policy"):
            WorkerPool(1, deliver=lambda task, result, error: None)

    def test_pooled_shutdown_honors_wait_false(self):
        # shutdown(wait=False) must return without blocking on the pool
        # drain (which can take up to its 30s timeout); a later
        # shutdown(wait=True) joins the background drain, after which
        # every accepted future has resolved.
        expression = _workload()
        instances = [_instance_for(REAL, 32, seed) for seed in range(8)]
        engine = Engine(workers=1, memoize=False)
        futures = [engine.submit(expression, inst) for inst in instances]
        start = time.perf_counter()
        engine.shutdown(wait=False)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0  # far below the pool's 30s drain timeout
        engine.shutdown(wait=True)
        for future, instance in zip(futures, instances):
            assert np.array_equal(
                future.result(30), evaluate(expression, instance)
            )


# ----------------------------------------------------------------------
# asyncio front end
# ----------------------------------------------------------------------
class TestAsyncio:
    def test_asubmit_and_asubmit_many(self):
        expression = _workload()
        instance = _instance_for(REAL, 6, 0)
        expected = evaluate(expression, instance)

        async def main():
            with Engine(workers=1) as engine:
                single = await engine.asubmit(expression, instance)
                burst = await engine.asubmit_many([(expression, instance)] * 4)
                return single, burst

        single, burst = asyncio.run(main())
        assert np.array_equal(single, expected)
        assert all(np.array_equal(result, expected) for result in burst)

    def test_asubmit_propagates_errors(self):
        instance = _instance_for(REAL, 4, 0)

        async def main():
            with Engine(workers=1) as engine:
                await engine.asubmit(var("NoSuchMatrix"), instance)

        with pytest.raises(Exception):
            asyncio.run(main())

    def test_asubmit_works_single_process_too(self):
        expression = _workload()
        instance = _instance_for(REAL, 6, 0)

        async def main():
            with Engine() as engine:
                return await engine.asubmit(expression, instance)

        assert np.array_equal(asyncio.run(main()), evaluate(expression, instance))


# ----------------------------------------------------------------------
# Socket protocol
# ----------------------------------------------------------------------
class TestQueryServer:
    def test_query_roundtrip(self):
        expression = _workload()
        instance = _instance_for(REAL, 6, 0)
        with Engine() as engine, QueryServer(engine) as server:
            host, port = server.address
            with QueryClient(host, port) as client:
                assert client.ping()
                result = client.query(expression, instance)
                burst = client.query_many([(expression, instance)] * 3)
                snapshot = client.stats()
        expected = evaluate(expression, instance)
        assert np.array_equal(result, expected)
        assert all(np.array_equal(item, expected) for item in burst)
        assert snapshot.completed == 4

    def test_remote_errors_carry_the_type_name(self):
        instance = _instance_for(REAL, 4, 0)
        with Engine() as engine, QueryServer(engine) as server:
            host, port = server.address
            with QueryClient(host, port) as client:
                with pytest.raises(RemoteQueryError) as excinfo:
                    client.query(var("NoSuchMatrix"), instance)
        assert excinfo.value.type_name

    def test_bad_magic_drops_the_connection(self):
        with Engine() as engine, QueryServer(engine) as server:
            host, port = server.address
            raw = socket.create_connection((host, port), timeout=5)
            try:
                raw.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 16)
                raw.settimeout(5)
                try:
                    assert raw.recv(1) == b""  # closed without replying
                except ConnectionResetError:
                    pass  # also a close, just with unread bytes pending
            finally:
                raw.close()

    def test_non_loopback_bind_requires_explicit_opt_in(self):
        # The protocol unpickles payloads, so a reachable port is code
        # execution: non-loopback binds must be refused unless the caller
        # explicitly accepts the risk (and even then a warning fires).
        with Engine() as engine:
            with pytest.raises(ValueError):
                QueryServer(engine, host="0.0.0.0")
            with pytest.warns(UserWarning):
                server = QueryServer(engine, host="0.0.0.0", allow_remote=True)
            server.close()
            loopback = QueryServer(engine, host="localhost")
            loopback.close()

    def test_pooled_engine_behind_the_server(self):
        expression = _workload()
        instance = _instance_for(REAL, 6, 0)
        with Engine(workers=2) as engine, QueryServer(engine) as server:
            host, port = server.address
            with QueryClient(host, port) as client:
                result = client.query(expression, instance)
        assert np.array_equal(result, evaluate(expression, instance))
