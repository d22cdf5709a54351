"""Chaos suite: the serving tier under a seeded storm of injected faults.

Marked ``chaos`` and excluded from the default (tier-1) pytest run — CI
drives it as its own step under ``timeout`` with faulthandler enabled.

The central experiment is the one the robustness subsystem exists for: a
500-request mixed-semiring stream against a pooled engine while a seeded
fault schedule crashes workers and poisons result shipping.  The
invariants:

* **liveness** — every submitted future resolves (a value or a typed
  error); a future that can never resolve is the one forbidden outcome;
* **correctness** — every *successful* result is bitwise-equal to a
  sequential ``evaluate`` of the same request (no cross-wired results);
* **typed failures** — every error is either a
  :class:`~repro.exceptions.ServiceError` or the injected fault itself.

A second storm runs the same stream at the default policy with every
tenth request replaced by a plan that kills whatever process evaluates
it, so the circuit breaker trips and the quarantine sandbox runs under
load: no poison request may succeed, and the breaker must stop the
poison from crash-looping the workers.
"""

import os
import threading

import numpy as np
import pytest

from repro.exceptions import DeadlineExceededError, ServiceError
from repro.matlang.builder import apply, ssum, var
from repro.matlang.evaluator import evaluate
from repro.matlang.functions import default_registry
from repro.matlang.instance import Instance
from repro.semiring import BOOLEAN, INTEGER, MAX_PLUS, MIN_PLUS, NATURAL, REAL
from repro.semiring.provenance import PROVENANCE, Polynomial
from repro.service import CoalescingPolicy, Engine, faults
from repro.service.faults import InjectedFault, injected_faults

pytestmark = pytest.mark.chaos

ALL_SEMIRINGS = [REAL, NATURAL, INTEGER, BOOLEAN, MIN_PLUS, MAX_PLUS, PROVENANCE]


@pytest.fixture(autouse=True)
def _pristine_faults():
    yield
    faults.disarm()


def _workload():
    return ssum("_v", var("A") @ var("_v"))


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


def _entrywise_equal(left, right):
    left, right = np.asarray(left), np.asarray(right)
    if left.shape != right.shape:
        return False
    if left.dtype == object or right.dtype == object:
        return all(left[index] == right[index] for index in np.ndindex(left.shape))
    return bool(np.array_equal(left, right))


def _mixed_stream(total):
    """``total`` (request, expected) pairs cycling semirings, seeds, sizes.

    Sizes vary with the seed so the stream populates several coalescing
    identities (and therefore several worker shards) instead of pinning
    everything to one home worker.
    """
    expression = _workload()
    catalogue = []
    for semiring in ALL_SEMIRINGS:
        for seed in range(3):
            size = 4 if semiring.name == "provenance" else 6 + seed
            instance = Instance.from_matrices(
                {"A": _matrix_for(semiring, size, seed)}, semiring=semiring
            )
            catalogue.append((instance, evaluate(expression, instance)))
    return expression, [catalogue[i % len(catalogue)] for i in range(total)]


class TestChaosStorm:
    def test_pooled_stream_survives_seeded_fault_storm(self):
        total = 500
        expression, stream = _mixed_stream(total)
        # High strike threshold: this storm measures crash *rescue*; the
        # quarantine path has its own deterministic tests.
        policy = CoalescingPolicy(quarantine_strikes=100, quarantine_reset=60.0)
        successes = 0
        errors = []
        with injected_faults(seed=2026) as injector:
            injector.arm("worker.task", "crash", every=17)
            injector.arm("worker.ship", "raise", every=23)
            with Engine(workers=3, policy=policy, memoize=False) as engine:
                for chunk_start in range(0, total, 50):
                    futures = []
                    for index in range(chunk_start, chunk_start + 50):
                        instance, expected = stream[index]
                        # Every 50th request carries an already-dead
                        # deadline: it must shed, not execute.
                        deadline = 1e-9 if index % 50 == 49 else None
                        future = engine.submit(expression, instance, deadline)
                        futures.append((index, future, expected))
                    for index, future, expected in futures:
                        error = future.exception(120)  # liveness: must resolve
                        if error is None:
                            assert _entrywise_equal(future.result(0), expected), (
                                f"request {index} returned a wrong value"
                            )
                            successes += 1
                        else:
                            assert isinstance(error, (ServiceError, InjectedFault)), (
                                f"request {index} failed untyped: {error!r}"
                            )
                            if index % 50 == 49:
                                assert isinstance(error, DeadlineExceededError)
                            errors.append(error)
                snapshot = engine.stats()
        # The storm actually happened...
        assert snapshot.worker_respawns >= 1
        assert snapshot.shed_expired >= total // 50
        # ...and the tier still served a solid majority.  (The at-most-once
        # rescue contract legitimately fails tasks orphaned by two deaths,
        # so the floor reflects the storm's severity, not a target SLO.)
        assert successes + len(errors) == total
        assert successes >= total * 3 // 5
        assert "respawns=" in snapshot.render()
        # Sparse-batch telemetry is a lane breakdown of the batched totals:
        # it can never exceed them, even under a fault storm.
        assert snapshot.sparse_batched_requests <= snapshot.batched_requests
        assert snapshot.sparse_batches <= snapshot.dispatches
        assert snapshot.sparse_assembly_seconds >= 0.0

    def test_poison_plan_storm_trips_the_breaker_at_the_default_policy(self):
        # Every tenth request applies a function that exits its process:
        # it kills each worker it reaches, and the sandbox too.  The
        # breaker (default strikes) must quarantine it after a few deaths,
        # while the other plan keeps being served correctly.
        total = 300
        expression, stream = _mixed_stream(total)
        registry = default_registry()
        registry.register_simple("die", 1, lambda x: os._exit(13))
        poison = apply("die", var("A"))
        strikes = CoalescingPolicy().quarantine_strikes
        successes = 0
        errors = []
        with Engine(workers=3, functions=registry, memoize=False) as engine:
            for chunk_start in range(0, total, 50):
                futures = []
                for index in range(chunk_start, chunk_start + 50):
                    instance, expected = stream[index]
                    query = poison if index % 10 == 9 else expression
                    futures.append((index, engine.submit(query, instance), expected))
                for index, future, expected in futures:
                    error = future.exception(120)  # liveness: must resolve
                    if error is None:
                        assert index % 10 != 9, f"poison request {index} succeeded"
                        assert _entrywise_equal(future.result(0), expected), (
                            f"request {index} returned a wrong value"
                        )
                        successes += 1
                    else:
                        assert isinstance(error, ServiceError), (
                            f"request {index} failed untyped: {error!r}"
                        )
                        errors.append(error)
            snapshot = engine.stats()
        assert successes + len(errors) == total
        assert snapshot.quarantine_trips >= 1
        assert snapshot.worker_respawns <= 2 * strikes

    def test_overload_and_deadline_storm_single_process(self):
        # Eight submitter threads race a scheduler that an injected sleep
        # keeps slower than the request deadlines, behind a shallow
        # admission limit: everything must resolve as a value, a deadline
        # shed or an overload rejection — and the accounting must balance.
        expression = _workload()
        instance = Instance.from_matrices(
            {"A": np.random.default_rng(0).standard_normal((6, 6))}, semiring=REAL
        )
        expected = evaluate(expression, instance)
        policy = CoalescingPolicy(default_deadline=0.05, max_queue_depth=64)
        outcomes = []
        outcomes_lock = threading.Lock()
        with injected_faults(seed=11) as injector:
            injector.arm("engine.scheduler", "sleep", seconds=0.08)
            with Engine(policy=policy, memoize=False) as engine:

                def submitter():
                    local = []
                    for _ in range(60):
                        local.append(engine.submit(expression, instance))
                    with outcomes_lock:
                        outcomes.extend(local)

                threads = [threading.Thread(target=submitter) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                resolved_values = 0
                for future in outcomes:
                    error = future.exception(60)
                    if error is None:
                        assert _entrywise_equal(future.result(0), expected)
                        resolved_values += 1
                    else:
                        assert isinstance(error, ServiceError)
                # A late, generous deadline still gets served: the storm
                # degraded the tier, it did not wedge it.
                assert _entrywise_equal(
                    engine.submit(expression, instance, deadline=30.0).result(30),
                    expected,
                )
                snapshot = engine.stats()
        assert len(outcomes) == 480
        assert snapshot.shed_expired + snapshot.shed_overload >= 1
        # Conservation: everything submitted is accounted served or failed.
        assert snapshot.submitted == snapshot.completed + snapshot.failed
        assert snapshot.queue_depth == 0
