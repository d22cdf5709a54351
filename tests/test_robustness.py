"""Tests for the serving tier's robustness subsystem (PR 8).

Covers the four coupled tentpole pieces and the satellites:

* **fault injection** — the seeded, programmatically-armed
  :class:`~repro.service.faults.FaultInjector`: deterministic schedules
  (``every`` / ``on_hits`` / ``limit`` / seeded ``probability``), context
  matching, and the zero-cost disarmed state;
* **deadlines** — expiry shed at submission, at dequeue, and the typed
  :class:`~repro.exceptions.DeadlineExceededError` resolution (never a
  raise out of ``submit``);
* **admission control** — queue-depth and backlog-cost shedding with
  :class:`~repro.exceptions.EngineOverloadedError`, in process and on the
  pooled router (expired and overloaded requests never reach a worker);
* **self-healing** — the circuit-breaker state machine, crash rescue
  under injected worker crashes, the watchdog killing *hung* (not dead)
  and *silent* workers, and plan quarantine running poison plans on the sandboxed
  single-instance path with correct results;
* **scheduler death** — an unexpected scheduler exception resolves every
  pending and in-flight future with
  :class:`~repro.exceptions.EngineDiedError` instead of hanging;
* **transport degradation** — injected socket drops mid-frame, and an
  injected worker-side result-shipping failure failing only its own
  request;
* **server failure paths** — client disconnects mid-frame, truncated
  length prefixes, handler exceptions inside a burst, connect timeouts.
"""

import socket
import struct
import time

import numpy as np
import pytest

from repro.exceptions import (
    DeadlineExceededError,
    EngineDiedError,
    EngineOverloadedError,
    PlanQuarantinedError,
    ServiceError,
)
from repro.matlang.builder import ssum, var
from repro.matlang.evaluator import evaluate
from repro.matlang.instance import Instance
from repro.profile import DEFAULT_PROFILE, set_active_profile
from repro.semiring import REAL
from repro.service import (
    CoalescingPolicy,
    Engine,
    QueryClient,
    QueryServer,
    RemoteQueryError,
    faults,
)
from repro.service.faults import FaultInjector, InjectedFault, injected_faults
from repro.service.health import CircuitBreaker, backoff_delays


@pytest.fixture(autouse=True)
def _pristine_faults():
    """No test may leak an armed injector into the next."""
    yield
    faults.disarm()
    set_active_profile(DEFAULT_PROFILE)


def _workload():
    return ssum("_v", var("A") @ var("_v"))


def _instance(size=8, seed=0):
    rng = np.random.default_rng(seed)
    return Instance.from_matrices(
        {"A": rng.standard_normal((size, size))}, semiring=REAL
    )


# ----------------------------------------------------------------------
# Fault injector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_disarmed_by_default(self):
        assert faults.ACTIVE is None

    def test_context_manager_arms_and_disarms(self):
        with injected_faults(seed=1) as injector:
            assert faults.ACTIVE is injector
        assert faults.ACTIVE is None

    def test_every_schedule_is_deterministic(self):
        injector = FaultInjector(seed=0)
        injector.arm("site", "raise", every=3)
        pattern = []
        for _ in range(9):
            try:
                injector.fire("site")
                pattern.append(False)
            except InjectedFault:
                pattern.append(True)
        assert pattern == [False, False, True] * 3

    def test_on_hits_and_limit(self):
        injector = FaultInjector(seed=0)
        injector.arm("site", "raise", on_hits={2, 4, 6}, limit=2)
        fired = []
        for hit in range(1, 8):
            try:
                injector.fire("site")
            except InjectedFault:
                fired.append(hit)
        assert fired == [2, 4]  # the limit stops the third scheduled fire

    def test_probability_is_seed_deterministic(self):
        def schedule(seed):
            injector = FaultInjector(seed=seed)
            injector.arm("site", "raise", probability=0.5)
            pattern = []
            for _ in range(32):
                try:
                    injector.fire("site")
                    pattern.append(False)
                except InjectedFault:
                    pattern.append(True)
            return pattern

        assert schedule(42) == schedule(42)
        assert any(schedule(42))  # the schedule actually fires sometimes

    def test_match_restricts_to_context(self):
        injector = FaultInjector(seed=0)
        injector.arm("site", "raise", match={"worker": 1})
        injector.fire("site", worker=0)  # must not raise
        with pytest.raises(InjectedFault):
            injector.fire("site", worker=1)

    def test_deny_and_fire_are_separate_channels(self):
        injector = FaultInjector(seed=0)
        injector.arm("site", "deny")
        injector.fire("site")  # a deny spec never raises through fire()
        assert injector.deny("site") is True
        assert injector.fired["site"] >= 1

    def test_custom_error_and_reset(self):
        injector = FaultInjector(seed=0)
        injector.arm("site", "raise", error=ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            injector.fire("site")
        injector.reset("site")
        injector.fire("site")  # disarmed again


# ----------------------------------------------------------------------
# Healing primitives
# ----------------------------------------------------------------------
class TestHealthPrimitives:
    def test_backoff_delays_bounded_exponential(self):
        delays = list(backoff_delays(5, base=0.01, factor=2.0, cap=0.05))
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]
        assert list(backoff_delays(0)) == []

    def test_breaker_trips_after_strikes_and_probes(self):
        breaker = CircuitBreaker(strikes=2, reset_after=0.05)
        assert breaker.admit("plan") == "closed"
        assert breaker.strike("plan") is False
        assert breaker.strike("plan") is True  # second strike trips
        assert breaker.admit("plan") == "open"
        assert breaker.open_count() == 1
        time.sleep(0.06)
        assert breaker.admit("plan") == "probe"  # half-open lets one through
        assert breaker.admit("plan") == "open"  # ...exactly one
        breaker.record_success("plan")
        assert breaker.admit("plan") == "closed"
        assert breaker.open_count() == 0

    def test_breaker_probe_death_reopens(self):
        breaker = CircuitBreaker(strikes=1, reset_after=0.02)
        assert breaker.strike("plan") is True
        time.sleep(0.03)
        assert breaker.admit("plan") == "probe"
        assert breaker.strike("plan") is True  # the probe died: reopen
        assert breaker.admit("plan") == "open"
        assert breaker.trips == 2

    def test_breaker_resets_on_profile_generation_bump(self):
        breaker = CircuitBreaker(strikes=1, reset_after=60.0)
        assert breaker.strike("plan") is True
        assert breaker.admit("plan") == "open"
        set_active_profile(DEFAULT_PROFILE)  # bumps the generation
        assert breaker.admit("plan") == "closed"
        assert breaker.open_count() == 0


# ----------------------------------------------------------------------
# Deadlines and admission control (single-process engine)
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_met_deadline_changes_nothing(self):
        instance = _instance()
        with Engine(memoize=False) as engine:
            value = engine.submit(_workload(), instance, deadline=30.0).result(30)
        assert np.array_equal(value, evaluate(_workload(), instance))

    def test_expired_at_submit_sheds_without_queueing(self):
        with Engine(memoize=False) as engine:
            future = engine.submit(_workload(), _instance(), deadline=1e-9)
            assert future.done()  # shed synchronously, never queued
            with pytest.raises(DeadlineExceededError):
                future.result(1)
            snapshot = engine.stats()
        assert snapshot.shed_expired == 1
        assert snapshot.failed == 1

    def test_policy_default_deadline_applies(self):
        policy = CoalescingPolicy(default_deadline=1e-9)
        with Engine(policy=policy, memoize=False) as engine:
            with pytest.raises(DeadlineExceededError):
                engine.submit(_workload(), _instance()).result(1)
            assert engine.stats().shed_expired == 1

    def test_expiry_between_enqueue_and_dispatch_sheds_at_dequeue(self):
        # Stall the scheduler (injected sleep fires after the drain, before
        # the shed pass) so a request whose deadline was healthy at
        # submission is expired by the time the batch forms.
        with injected_faults(seed=0) as injector:
            injector.arm("engine.scheduler", "sleep", seconds=0.1)
            with Engine(memoize=False) as engine:
                future = engine.submit(_workload(), _instance(), deadline=0.02)
                with pytest.raises(DeadlineExceededError, match="before dispatch"):
                    future.result(10)
                snapshot = engine.stats()
        assert snapshot.shed_expired == 1
        assert snapshot.completed == 0

    def test_queue_depth_overload_sheds_typed(self):
        policy = CoalescingPolicy(max_queue_depth=1)
        with injected_faults(seed=0) as injector:
            # Hold the drained batch inside the scheduler so the depth gauge
            # stays up while the follow-up submissions arrive.
            injector.arm("engine.scheduler", "sleep", seconds=0.5)
            with Engine(policy=policy, memoize=False) as engine:
                first = engine.submit(_workload(), _instance())
                shed = [engine.submit(_workload(), _instance()) for _ in range(3)]
                for future in shed:
                    assert future.done()  # rejected synchronously, not queued
                    with pytest.raises(EngineOverloadedError):
                        future.result(1)
                assert np.array_equal(
                    first.result(30), evaluate(_workload(), _instance())
                )
                assert engine.stats().shed_overload == 3

    def test_pending_cost_overload_sheds_typed(self):
        policy = CoalescingPolicy(max_pending_cost=1.0)
        with injected_faults(seed=0) as injector:
            injector.arm("engine.scheduler", "sleep", seconds=0.5)
            with Engine(policy=policy, memoize=False) as engine:
                first = engine.submit(_workload(), _instance())
                second = engine.submit(_workload(), _instance())
                with pytest.raises(EngineOverloadedError, match="backlog cost"):
                    second.result(1)
                assert np.array_equal(
                    first.result(30), evaluate(_workload(), _instance())
                )
                assert engine.stats().shed_overload == 1

    # The pooled router admits through the same intake as the in-process
    # engine: shed requests resolve synchronously and never reach a worker.
    def test_pooled_expired_at_submit_sheds_without_routing(self):
        with Engine(workers=1, memoize=False) as engine:
            future = engine.submit(_workload(), _instance(), deadline=1e-9)
            assert future.done()
            with pytest.raises(DeadlineExceededError, match="at submission"):
                future.result(1)
            snapshot = engine.stats()
            (worker,) = engine.worker_stats()
        assert snapshot.shed_expired == 1
        assert snapshot.failed == 1
        assert worker.submitted == 0

    def test_pooled_queue_depth_overload_sheds_typed(self):
        policy = CoalescingPolicy(max_queue_depth=1)
        with injected_faults(seed=0) as injector:
            # The worker (which inherits the injector at fork) holds the
            # first task, so it stays in flight while the burst arrives.
            injector.arm("worker.task", "sleep", seconds=0.5)
            with Engine(workers=1, policy=policy, memoize=False) as engine:
                first = engine.submit(_workload(), _instance())
                shed = [engine.submit(_workload(), _instance()) for _ in range(3)]
                for future in shed:
                    assert future.done()
                    with pytest.raises(EngineOverloadedError):
                        future.result(1)
                assert np.array_equal(
                    first.result(30), evaluate(_workload(), _instance())
                )
                assert engine.stats().shed_overload == 3

    def test_pooled_pending_cost_overload_sheds_typed(self):
        policy = CoalescingPolicy(max_pending_cost=1.0)
        with injected_faults(seed=0) as injector:
            injector.arm("worker.task", "sleep", seconds=0.5)
            with Engine(workers=1, policy=policy, memoize=False) as engine:
                first = engine.submit(_workload(), _instance())
                second = engine.submit(_workload(), _instance())
                with pytest.raises(EngineOverloadedError, match="backlog cost"):
                    second.result(1)
                assert np.array_equal(
                    first.result(30), evaluate(_workload(), _instance())
                )
                snapshot = engine.stats()
        assert snapshot.shed_overload == 1
        assert snapshot.completed == 1

    def test_shed_errors_resolve_futures_not_submit(self):
        # The contract: submit() never raises for shed requests — callers
        # iterating a burst must get every future back.
        policy = CoalescingPolicy(default_deadline=1e-9)
        with Engine(policy=policy, memoize=False) as engine:
            futures = engine.submit_many(
                [(_workload(), _instance())] * 4
            )
            assert len(futures) == 4
            for future in futures:
                assert isinstance(future.exception(1), DeadlineExceededError)


# ----------------------------------------------------------------------
# Scheduler death (satellite: no future may hang)
# ----------------------------------------------------------------------
class TestSchedulerDeath:
    def test_scheduler_exception_fails_all_futures_typed(self):
        with injected_faults(seed=0) as injector:
            injector.arm("engine.scheduler", "raise", limit=1)
            engine = Engine(memoize=False)
            try:
                futures = [
                    engine.submit(_workload(), _instance(seed=seed))
                    for seed in range(6)
                ]
                for future in futures:
                    error = future.exception(10)
                    assert isinstance(error, EngineDiedError)
                    assert isinstance(error.__cause__, InjectedFault)
                # Later submissions resolve immediately with the same error.
                late = engine.submit(_workload(), _instance())
                assert isinstance(late.exception(1), EngineDiedError)
            finally:
                engine.shutdown()

    def test_dead_engine_rejects_evaluate(self):
        with injected_faults(seed=0) as injector:
            injector.arm("engine.scheduler", "raise", limit=1)
            engine = Engine(memoize=False)
            try:
                with pytest.raises((EngineDiedError, InjectedFault)):
                    engine.evaluate(_workload(), _instance())
                with pytest.raises(EngineDiedError):
                    engine.evaluate(_workload(), _instance())
            finally:
                engine.shutdown()


# ----------------------------------------------------------------------
# Pooled self-healing
# ----------------------------------------------------------------------
class TestPooledHealing:
    def test_crash_rescue_under_periodic_worker_crashes(self):
        # Every 10th task a worker executes kills it.  The tier's contract:
        # a first-time orphan is rescued onto a live worker and completes
        # correctly; an orphan whose rescue *also* died fails with the typed
        # WorkerCrashError (at-most-once rescue — the breaker, not endless
        # re-dispatch, handles plans that keep killing workers).  Bounded
        # submission waves keep the orphan sets small, so double-orphaning
        # stays rare and strictly bounded by the wave size.
        expression = _workload()
        instances = [_instance(seed=seed) for seed in range(8)]
        expected = [evaluate(expression, instance) for instance in instances]
        correct = 0
        crashes = []
        with injected_faults(seed=7) as injector:
            injector.arm("worker.task", "crash", every=10)
            with Engine(workers=2, memoize=False) as engine:
                for wave in range(10):
                    futures = [
                        (index, engine.submit(expression, instances[index % 8]))
                        for index in range(wave * 4, wave * 4 + 4)
                    ]
                    for index, future in futures:
                        error = future.exception(60)
                        if error is None:
                            assert np.array_equal(
                                future.result(0), expected[index % 8]
                            )
                            correct += 1
                        else:
                            crashes.append(error)
                snapshot = engine.stats()
        from repro.service import WorkerCrashError

        assert all(isinstance(error, WorkerCrashError) for error in crashes)
        assert len(crashes) <= 8  # at most two waves' worth of double-orphans
        assert correct >= 32
        assert snapshot.worker_respawns >= 1
        assert "respawns=" in snapshot.render()

    def test_poison_plan_quarantines_to_sandbox_with_correct_results(self):
        # Every pool execution of the plan kills its worker; after two
        # coinciding deaths the breaker opens and the remaining requests run
        # on the sandboxed single-instance path — which must produce the
        # *correct* value (the sandbox does not run the injected fault).
        expression = _workload()
        instances = [_instance(seed=seed) for seed in range(10)]
        expected = [evaluate(expression, instance) for instance in instances]
        policy = CoalescingPolicy(quarantine_strikes=2, quarantine_reset=60.0)
        with injected_faults(seed=3) as injector:
            injector.arm("worker.task", "crash", every=1)
            with Engine(workers=1, policy=policy, memoize=False) as engine:
                futures = [
                    engine.submit(expression, instance) for instance in instances
                ]
                for future, want in zip(futures, expected):
                    assert np.array_equal(future.result(120), want)
                snapshot = engine.stats()
        assert snapshot.quarantine_trips >= 1
        assert snapshot.quarantined_requests >= 1
        assert snapshot.worker_respawns >= 2
        assert "quarantine=" in snapshot.render()

    def test_quarantine_rejects_typed_when_execution_disabled(self):
        expression = _workload()
        policy = CoalescingPolicy(
            quarantine_strikes=2, quarantine_reset=60.0, quarantine_execute=False
        )
        with injected_faults(seed=3) as injector:
            injector.arm("worker.task", "crash", every=1)
            with Engine(workers=1, policy=policy, memoize=False) as engine:
                futures = [
                    engine.submit(expression, _instance(seed=seed))
                    for seed in range(10)
                ]
                outcomes = [future.exception(120) for future in futures]
        # Every future resolved, and the quarantined tail is typed.
        assert all(
            outcome is None or isinstance(outcome, ServiceError)
            for outcome in outcomes
        )
        assert any(
            isinstance(outcome, PlanQuarantinedError) for outcome in outcomes
        )

    def test_watchdog_kills_hung_worker_and_pool_recovers(self):
        # The first task wedges its worker far past deadline + grace; the
        # watchdog must force-kill it (heartbeats are still flowing, so this
        # exercises the hung-*task* detector), the rescue path resolves the
        # stuck future with the deadline error, and the respawned worker
        # serves the follow-up request correctly.
        expression = _workload()
        instance = _instance()
        policy = CoalescingPolicy(
            heartbeat_interval=0.05,
            heartbeat_timeout=10.0,
            hung_task_grace=0.2,
            default_deadline=0.5,
        )
        with injected_faults(seed=5) as injector:
            # Matched to the first task id: the respawned worker re-inherits
            # the armed injector through fork, and an unrestricted sleep
            # would wedge it again on the follow-up request.
            injector.arm("worker.task", "sleep", seconds=30.0, match={"task": 1})
            with Engine(workers=1, policy=policy, memoize=False) as engine:
                stuck = engine.submit(expression, instance)
                assert isinstance(stuck.exception(30), DeadlineExceededError)
                follow_up = engine.submit(expression, instance, deadline=30.0)
                assert np.array_equal(
                    follow_up.result(30), evaluate(expression, instance)
                )
                snapshot = engine.stats()
        assert snapshot.watchdog_kills >= 1
        assert snapshot.worker_respawns >= 1
        assert "watchdog=" in snapshot.render()

    def test_worker_ship_failure_fails_only_its_own_request(self):
        # A result the worker fails to ship goes back as that request's
        # error message; the worker stays up and ships the next one.
        # Submitted one at a time, so the fault hits every second result.
        expression = _workload()
        instances = [_instance(seed=seed) for seed in range(6)]
        expected = [evaluate(expression, instance) for instance in instances]
        with injected_faults(seed=5) as injector:
            injector.arm("worker.ship", "raise", every=2)
            with Engine(workers=1, memoize=False) as engine:
                futures = []
                for instance in instances:
                    futures.append(engine.submit(expression, instance))
                    futures[-1].exception(60)
                snapshot = engine.stats()
        for index, (future, want) in enumerate(zip(futures, expected)):
            if index % 2:
                assert isinstance(future.exception(0), InjectedFault)
            else:
                assert np.array_equal(future.result(0), want)
        assert snapshot.worker_respawns == 0

    def test_silent_worker_is_killed_and_respawned(self):
        # A worker whose heartbeats stop (it still serves) looks hung to the
        # router: the watchdog must kill it once its last heartbeat is older
        # than heartbeat_timeout, and the shard must respawn and serve
        # bitwise-equal results.  Worker 0 inherits the armed injector at
        # fork; disarming stops later respawns from inheriting it.
        expression = _workload()
        instances = [_instance(size=size, seed=size) for size in (4, 6, 8, 10)]
        expected = [evaluate(expression, instance) for instance in instances]
        policy = CoalescingPolicy(heartbeat_interval=0.05, heartbeat_timeout=0.3)
        with injected_faults(seed=5) as injector:
            injector.arm("worker.heartbeat", "deny", match={"worker": 0})
            with Engine(workers=2, policy=policy, memoize=False) as engine:
                handles = engine._pool._handles
                silent_pid, healthy_pid = (h.process.pid for h in handles)
                deadline = time.perf_counter() + 30.0
                while engine.stats().watchdog_kills < 1:
                    assert time.perf_counter() < deadline, "no watchdog kill"
                    time.sleep(0.01)
                faults.disarm()
                futures = engine.submit_many(
                    (expression, instance) for instance in instances
                )
                results = [future.result(30) for future in futures]
                # A respawn that raced the disarm is silent too and gets
                # killed in turn; wait for the healed pool's fresh beats.
                deadline = time.perf_counter() + 30.0
                while True:
                    snapshot = engine.stats()
                    age = snapshot.heartbeat_age
                    if age is not None and age < policy.heartbeat_timeout:
                        break
                    assert time.perf_counter() < deadline, "heartbeats stale"
                    time.sleep(0.02)
                assert handles[0].process.pid != silent_pid
                assert handles[1].process.pid == healthy_pid
        for result, want in zip(results, expected):
            assert np.array_equal(result, want)
        assert snapshot.worker_respawns >= 1
        assert snapshot.watchdog_kills >= 1


# ----------------------------------------------------------------------
# Socket server failure paths (satellite)
# ----------------------------------------------------------------------
class TestServerFailurePaths:
    def test_remote_deadline_raises_typed(self):
        instance = _instance()
        with Engine(memoize=False) as engine, QueryServer(engine) as server:
            host, port = server.address
            with QueryClient(host, port) as client:
                with pytest.raises(DeadlineExceededError):
                    client.query(_workload(), instance, deadline=1e-9)
                # The connection survives the typed error.
                value = client.query(_workload(), instance)
                assert np.array_equal(value, evaluate(_workload(), instance))

    def test_client_disconnect_mid_frame_does_not_kill_server(self):
        with Engine(memoize=False) as engine, QueryServer(engine) as server:
            host, port = server.address
            # A raw peer announces a large frame, sends half of it, and
            # vanishes; the server must drop that connection and keep
            # serving others.
            rogue = socket.create_connection((host, port), timeout=5)
            rogue.sendall(struct.pack(">I", 1 << 16) + b"x" * 100)
            rogue.close()
            time.sleep(0.05)
            with QueryClient(host, port) as client:
                assert client.ping()

    def test_truncated_length_prefix_is_tolerated(self):
        with Engine(memoize=False) as engine, QueryServer(engine) as server:
            host, port = server.address
            rogue = socket.create_connection((host, port), timeout=5)
            rogue.sendall(b"\x00\x00")  # half a length prefix
            rogue.close()
            time.sleep(0.05)
            with QueryClient(host, port) as client:
                assert client.ping()

    def test_handler_exception_inside_burst_raises_remote(self):
        instance = _instance()
        with Engine(memoize=False) as engine, QueryServer(engine) as server:
            host, port = server.address
            with QueryClient(host, port) as client:
                with pytest.raises(RemoteQueryError):
                    client.query_many(
                        [
                            (_workload(), instance),
                            (var("NoSuchMatrix"), instance),
                        ]
                    )
                assert client.ping()  # the connection is still healthy

    def test_connect_timeout_budget_is_separate_from_io_timeout(self):
        # A listener with a saturated accept queue never completes the
        # handshake; the client must give up within the connect budget, not
        # the 30s I/O timeout.
        listener = socket.socket()
        backlog_fill = []
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(0)
            port = listener.getsockname()[1]
            for _ in range(4):  # saturate the (tiny) accept queue
                filler = socket.socket()
                filler.settimeout(0.5)
                try:
                    filler.connect(("127.0.0.1", port))
                except OSError:
                    filler.close()
                    break
                backlog_fill.append(filler)
            start = time.perf_counter()
            with pytest.raises(OSError):
                QueryClient("127.0.0.1", port, timeout=30.0, connect_timeout=0.5)
            assert time.perf_counter() - start < 10.0
        finally:
            for filler in backlog_fill:
                filler.close()
            listener.close()

    def test_injected_socket_drop_mid_frame(self):
        instance = _instance()
        with Engine(memoize=False) as engine, QueryServer(engine) as server:
            host, port = server.address
            client = QueryClient(host, port)
            try:
                with injected_faults(seed=0) as injector:
                    injector.arm("server.send", "deny", limit=1)
                    with pytest.raises((ConnectionError, OSError, EOFError)):
                        client.query(_workload(), instance)
            finally:
                client.close()
            # The server survives the drop: a fresh client works.
            with QueryClient(host, port) as fresh:
                assert np.array_equal(
                    fresh.query(_workload(), instance),
                    evaluate(_workload(), instance),
                )
