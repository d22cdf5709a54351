"""P5 — Staged optimizer: normalization, cost-based ordering, adaptive backends.

Reproduction-specific experiment for the logical/physical plan split.  Three
claims are asserted (also under ``--benchmark-disable``, so CI checks them on
every push):

* **normalization widens fusion** — ``Sigma_v A . (B . v)``, which only
  fused when written ``(A . B) . v``, now compiles loop-free (and the
  chain ordering multiplies its ones vector first, ``A . (B . 1)``, which
  keeps it quadratic instead of cubic), agreeing with the reference
  tree-walk;
* **cost-based ordering** — a rectangular matmul chain evaluated in the
  DP-chosen association beats the written-order association by at least 5x;
* **adaptive physical planning** — with no user-supplied backend flag, the
  planner picks the sparse CSR backend for sparse boolean reachability and
  the result is bitwise equal to dense execution.
"""

import numpy as np
import pytest

from benchmarks.conftest import assert_speedup

from repro.experiments.harness import CompiledWorkload
from repro.experiments.workloads import random_matrix
from repro.matlang.builder import ssum, var
from repro.matlang.compiler import OptimizationOptions, compile_expression
from repro.matlang.evaluator import Evaluator
from repro.matlang.instance import Instance
from repro.semiring import BOOLEAN
from repro.stdlib import shortest_path_matrix

try:
    import scipy.sparse  # noqa: F401

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    HAVE_SCIPY = False

DIMENSION = 512
ORDERING_SPEEDUP_FLOOR = 5.0

#: Every optimizer stage off: the plan executes the written association.
WRITTEN_ORDER = OptimizationOptions(normalize=False, reorder=False)


def _chain_instance(dimension=DIMENSION):
    return Instance.from_matrices(
        {
            "A": random_matrix(dimension, seed=0),
            "B": random_matrix(dimension, seed=1),
            "v": random_matrix(dimension, seed=2)[:, :1],
        }
    )


def _sparse_boolean_instance(size=256, cycle=8):
    """Disjoint directed cycles: the reachability closure stays sparse."""
    adjacency = np.zeros((size, size), dtype=bool)
    for start in range(0, size, cycle):
        width = min(cycle, size - start)
        for offset in range(width):
            adjacency[start + offset, start + (offset + 1) % width] = True
    return Instance.from_matrices({"A": adjacency}, semiring=BOOLEAN)


# ----------------------------------------------------------------------
# (a) Fusion modulo associativity
# ----------------------------------------------------------------------
def test_reassociated_sum_quantifier_compiles_loop_free():
    instance = _chain_instance(64)
    v = var("_v")
    expression = ssum("_v", var("A") @ (var("B") @ v))
    plan = compile_expression(expression, instance.schema)
    assert plan.count_ops("loop") == 0, plan.explain()
    # Multiplying the ones vector first keeps the chain quadratic: no
    # matrix-matrix product survives in the plan.
    assert plan.count_ops("ones_type") == 1

    compiled = Evaluator(instance).run(expression)
    reference = Evaluator(instance, compile=False).run(expression)
    assert instance.semiring.matrices_equal(compiled, reference, 1e-9)

    # The explain report names both stages that made this happen.
    report = plan.explain()
    assert "normalize" in report and "reorder" in report


# ----------------------------------------------------------------------
# (b) Cost-based matmul-chain ordering
# ----------------------------------------------------------------------
def test_cost_based_ordering_beats_written_order(bench_artifact):
    instance = _chain_instance()
    expression = (var("A") @ var("B")) @ var("v")

    written = CompiledWorkload(
        expression, instance.schema, backend="dense", options=WRITTEN_ORDER
    )
    ordered = CompiledWorkload(expression, instance.schema, backend="dense")

    assert written.plan.count_ops("matmul") == 2
    assert ordered.plan.count_ops("matmul") == 2
    # The DP must have moved the vector product first: the written plan
    # multiplies A . B (matrix-matrix), the ordered plan never does.
    assert any("re-associated" in note for note in ordered.plan.notes)

    fast = ordered.run(instance)
    slow = written.run(instance)
    assert instance.semiring.matrices_equal(fast, slow, 1e-6)

    slow_time, fast_time, speedup = assert_speedup(
        lambda: written.run(instance),
        lambda: ordered.run(instance),
        ORDERING_SPEEDUP_FLOOR,
        f"matmul chain ordering {DIMENSION}x{DIMENSION}",
    )
    bench_artifact(
        "p05", op="matmul-chain", size=DIMENSION, backend="written-order",
        seconds=slow_time,
    )
    bench_artifact(
        "p05", op="matmul-chain", size=DIMENSION, backend="cost-ordered",
        seconds=fast_time, speedup=speedup,
    )
    print(f"\ncost-based ordering speedup over written order: {speedup:.1f}x")


def test_written_order_chain(benchmark):
    instance = _chain_instance()
    workload = CompiledWorkload(
        (var("A") @ var("B")) @ var("v"), instance.schema,
        backend="dense", options=WRITTEN_ORDER,
    )
    workload.run(instance)
    result = benchmark(lambda: workload.run(instance))
    assert result.shape == (DIMENSION, 1)


def test_cost_ordered_chain(benchmark):
    instance = _chain_instance()
    workload = CompiledWorkload(
        (var("A") @ var("B")) @ var("v"), instance.schema, backend="dense"
    )
    workload.run(instance)
    result = benchmark(lambda: workload.run(instance))
    assert result.shape == (DIMENSION, 1)


# ----------------------------------------------------------------------
# (c) Adaptive physical planning
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy is required for the sparse backend")
def test_adaptive_planning_picks_sparse_for_sparse_reachability(bench_artifact):
    instance = _sparse_boolean_instance()
    expression = shortest_path_matrix("A")  # over booleans: reflexive closure

    adaptive = Evaluator(instance)  # note: no backend flag anywhere
    plan = compile_expression(expression, instance.schema)
    selection = adaptive.physical(plan)
    assert selection.backend.name == "sparse", selection.notes
    assert any("auto-selected sparse" in note for note in selection.notes)

    pinned_dense = Evaluator(instance, backend="dense")
    adaptive_result = adaptive.run(expression)
    dense_result = pinned_dense.run(expression)
    assert np.array_equal(adaptive_result, dense_result)

    slow_time, fast_time, speedup = assert_speedup(
        lambda: pinned_dense.run(expression),
        lambda: adaptive.run(expression),
        1.0,
        "adaptive sparse reachability 256x256",
    )
    bench_artifact(
        "p05", op="adaptive-reachability", size=256, backend="dense-pinned",
        seconds=slow_time, semiring="boolean",
    )
    bench_artifact(
        "p05", op="adaptive-reachability", size=256, backend="auto-sparse",
        seconds=fast_time, speedup=speedup, semiring="boolean",
    )
    print(f"\nadaptive-sparse speedup over pinned dense: {speedup:.1f}x")


def test_adaptive_planning_stays_dense_on_dense_instances():
    instance = _chain_instance(128)
    expression = var("A") @ var("B")
    evaluator = Evaluator(instance)
    selection = evaluator.physical(compile_expression(expression, instance.schema))
    assert selection.backend.name == "dense"
    assert any("auto-selected dense" in note for note in selection.notes)
