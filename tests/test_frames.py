"""Tests of the dimension frame (see "Dimension frame" in repro.matlang.ir).

Frame values depend on the dimensions, the semiring and the backend
alone; each is computed once per plan and key.  These tests pin what the
frame may keep and how it is bounded: which registers are frame values,
the per-plan bound, read-only values, the wire format, a frame op that
raises, concurrent runs, and the op counts of warm runs.  The generated
differential suite lives in ``test_lanes.py``
(``test_frames_agree_across_sizes_and_instances``).
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro import stdlib
from repro.exceptions import SemiringError
from repro.matlang import ir
from repro.matlang.builder import diag, lit, ones, prod, ssum, var
from repro.matlang.compiler import compile_expression
from repro.matlang.evaluator import Evaluator, evaluate
from repro.matlang.functions import default_registry
from repro.matlang.instance import Instance
from repro.semiring import BOOLEAN, INTEGER, REAL
from repro.semiring.backends import backend_for

#: ``Sigma_v (v^T A v) . S`` with ``S`` a dimension-only matrix (``e_max``,
#: an identity and a constant), so the frame holds values of every size.
FRAMED = ssum("v", (var("v").T @ var("A") @ var("v")) * (stdlib.s_less_equal() + lit(2) * diag(ones(var("A")))))


def _instance(n, seed=0, semiring=REAL):
    rng = np.random.default_rng(seed)
    return Instance.from_matrices({"A": rng.integers(-3, 4, (n, n))}, semiring=semiring)


def _fresh(expression, instance):
    """A copy of the cached plan with empty frames."""
    return dataclasses.replace(compile_expression(expression, instance.schema))


def _execute(plan, instance, profiler=None):
    backend = backend_for(instance.semiring, "dense")
    return ir.execute_plan(plan, backend, instance, default_registry(), profiler=profiler)


class _Counter:
    """A profiler hook counting executed ops."""

    def __init__(self):
        self.ops = 0

    def record(self, op, backend_name, values, seconds):
        self.ops += 1


def test_plan_keeps_at_most_capacity_keys():
    instance = _instance(2)
    plan = _fresh(FRAMED, instance)
    sizes = range(2, ir.FRAME_CAPACITY + 5)
    for n in sizes:
        instance = _instance(n, seed=n)
        reference = Evaluator(instance, compile=False).run(FRAMED)
        assert np.array_equal(_execute(plan, instance), reference)
        assert len(plan._frames.frames) <= ir.FRAME_CAPACITY
    # First in, first out: the last sizes are the ones kept.
    kept = {dict(key[0])["alpha"] for key in plan._frames.frames}
    assert kept == set(sizes[-ir.FRAME_CAPACITY:])
    for n in sizes:  # evicted and kept keys alike stay correct
        instance = _instance(n, seed=n + 100)
        assert np.array_equal(_execute(plan, instance), Evaluator(instance, compile=False).run(FRAMED))


def test_byte_budget_bounds_the_frames(monkeypatch):
    plan = _fresh(FRAMED, _instance(2))
    for n in (4, 5, 6):
        _execute(plan, _instance(n))
    sizes = [size for _, size in plan._frames.frames.values()]
    assert len(sizes) == 3 and all(sizes)
    # Below the smallest frame nothing is kept, and runs stay correct.
    monkeypatch.setattr(ir, "FRAME_BYTE_BUDGET", min(sizes) - 1)
    plan = _fresh(FRAMED, _instance(2))
    for n in (4, 5, 4):
        instance = _instance(n, seed=n)
        assert np.array_equal(_execute(plan, instance), Evaluator(instance, compile=False).run(FRAMED))
    assert not plan._frames.frames
    # A budget for two frames keeps the newest ones that fit.
    monkeypatch.setattr(ir, "FRAME_BYTE_BUDGET", sizes[1] + sizes[2])
    for n in (4, 5, 6):
        _execute(plan, _instance(n))
    assert sum(size for _, size in plan._frames.frames.values()) <= ir.FRAME_BYTE_BUDGET
    assert [dict(key[0])["alpha"] for key in plan._frames.frames] == [5, 6]


def test_frame_arrays_are_read_only():
    instance = _instance(4)
    plan = _fresh(FRAMED, instance)
    _execute(plan, instance)
    arrays = [
        value
        for frame, _ in plan._frames.frames.values()
        for value in frame.retained()
        if isinstance(value, np.ndarray)
    ]
    assert arrays
    for array in arrays:
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1
    # A plan whose result is a frame value hands out that very array, once
    # its first run has finished; evaluate copies it.
    expression = diag(ones(var("A")))
    plan = _fresh(expression, instance)
    for _ in range(2):
        result = _execute(plan, instance)
        with pytest.raises(ValueError):
            result[0, 0] = 5.0
    copied = evaluate(expression, instance)
    copied[0, 0] = 5.0
    assert np.array_equal(evaluate(expression, instance), np.eye(4))


def test_runs_leave_the_wire_format_unchanged():
    instance = _instance(4)
    plan = _fresh(stdlib.plu_upper(), instance)
    payload = ir.serialize_plan(plan)
    for n in (3, 4):
        _execute(plan, _instance(n))
    assert plan._frames.frames
    assert ir.serialize_plan(plan) == payload
    clone = ir.deserialize_plan(payload)
    assert not clone._frames.frames  # a worker fills its own
    assert np.array_equal(_execute(clone, instance), _execute(plan, instance))


def test_a_raising_frame_op_raises_on_every_run():
    # Pi over a constant fuses to a power of it, a frame value: 2**(40 n)
    # leaves int64, so the frame is never stored and every run raises.
    expression = prod("_v", lit(2**40)) * var("A")
    instance = _instance(3, semiring=INTEGER)
    plan = compile_expression(expression, instance.schema)
    assert plan._frames is not None
    for _ in range(2):
        with pytest.raises(SemiringError):
            evaluate(expression, instance)
    assert not plan._frames.frames
    with pytest.raises(SemiringError):
        Evaluator(instance, compile=False).run(expression)


def test_concurrent_runs_agree_with_a_sequential_run():
    # Eight threads race to fill and read the frames of one plan at two
    # sizes, switching often; every result must equal a sequential run's.
    expression = stdlib.plu_upper()
    instances = [_instance(n, seed=seed) for n in (5, 6) for seed in range(4)]
    sequential = [_execute(_fresh(expression, instance), instance) for instance in instances]
    plan = _fresh(expression, instances[0])
    results = {}
    barrier = threading.Barrier(8)

    def worker(index):
        barrier.wait()
        for round_ in range(3):
            for position in range(len(instances)):
                slot = (position + index) % len(instances)
                results[(index, round_, slot)] = _execute(plan, instances[slot])

    threads = [threading.Thread(target=worker, args=(index,)) for index in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 8 * 3 * len(instances)
    for (_, _, slot), result in results.items():
        assert result.tobytes() == sequential[slot].tobytes()
    assert len(plan._frames.frames) == 2


def test_warm_runs_execute_only_the_other_ops():
    instance = _instance(8)
    plan = _fresh(stdlib.plu_upper(), instance)
    counts = []
    for seed in range(3):
        counter = _Counter()
        _execute(plan, _instance(8, seed=seed), profiler=counter)
        counts.append(counter.ops)
    assert counts[1] == counts[2] < counts[0]
    # A plan without frame values takes the plain path.
    fw = compile_expression(stdlib.transitive_closure_floyd_warshall(), instance.schema)
    assert fw._frames is None


def _loop_lines(report):
    return report[report.index("loop execution"):].splitlines()[1:]


def test_explain_lists_the_frame():
    instance = _instance(16)
    report = compile_expression(stdlib.plu_upper(), instance.schema).explain(instance=instance)
    lines = _loop_lines(report)
    # The order predicates before the elimination loop: e_max (r4), its
    # transpose, Prev (r6), S_< (r7), the identity and S_<= (r9), and the
    # constants.  Their loops run once per key.
    assert lines[0] == "  frame: r1, r2, r3, r4, r5, r6, r7, r8, r9", report
    assert lines[1].endswith("; frame value") and lines[1].startswith("  r4 for")
    assert lines[2].startswith("  r6 for") and lines[3].startswith("  r7 for")
    assert lines[4].startswith("  r10 for over alpha: in order") and "; body frame: r" in lines[4]
    # The pivot scan's affine lanes: its iterator, (t, X) and S_<= terms.
    scan = lines[5].split("; body frame: ")
    assert scan[0] == "    r14 for over alpha: affine lanes, m=16, chunk width 16"
    scanned = scan[1].split(", ")
    assert {"r0", "r2", "r5"} <= set(scanned)  # captures, iterator, accumulator

    fw = stdlib.transitive_closure_floyd_warshall()
    boolean = _instance(16, semiring=BOOLEAN)
    lines = _loop_lines(compile_expression(fw, boolean.schema).explain(instance=boolean))
    assert lines == [
        "  frame: none",
        "  r1 for over alpha: in order (accumulator not a vector); body frame: none",
    ]
