"""Tests for batched plan execution and the new sparse tropical backend.

Covers five concerns:

* **batched kernels** — ``batch_matmul`` / ``batch_add`` / ``batch_hadamard``
  and the row-wise reductions agree slice-by-slice with the 2-D kernels for
  every registered semiring (the object-fold fallback included), and the
  int64 batched matmul falls back per slice — never wrapping — when the
  batch-wide bound fails;
* **the batched backend** — :class:`BatchedDenseBackend` implements the
  execution-backend protocol over ``(B, rows, cols)`` stacks, with
  batch-invariant constructors as broadcast views;
* **batched plans** — :func:`execute_plan_batch` produces bitwise-identical
  results to the per-instance executor across semirings and workloads
  (random sum-MATLANG expressions and stdlib constructions);
* **sharding** — :func:`evaluate_batch` / :meth:`CompiledWorkload.run_batch`
  bucket ragged sweeps (mixed sizes, schemas and semirings), respect chunk
  boundaries, preserve input order and handle empty batches;
* **sparse min-plus / max-plus** — :class:`SparseTropicalBackend` agrees
  entrywise with the dense kernels and is reachable through
  ``Evaluator(instance, backend="sparse")`` on the tropical semirings;
* **block-diagonal CSR batching** — the batched sparse backend family
  agrees slice-by-slice with the single sparse backend, and adaptive
  batched sweeps over sparse-selected instances are bitwise equal to
  per-instance execution (sparse and dense alike), including powers,
  closures, empty members, ragged groups and chunk boundaries.
"""

import numpy as np
import pytest

from repro.exceptions import EvaluationError, SemiringError
from repro.experiments.harness import CompiledWorkload
from repro.experiments.workloads import random_digraph, random_sum_matlang_expression
from repro.matlang.builder import apply, ssum, var
from repro.matlang.compiler import compile_expression
from repro.matlang.evaluator import Evaluator, evaluate_batch, run_plan_batch
from repro.matlang.functions import default_registry
from repro.matlang.instance import Instance
from repro.matlang.ir import Plan, PlanOp, execute_plan, execute_plan_batch
from repro.semiring import BOOLEAN, INTEGER, MAX_PLUS, MIN_PLUS, NATURAL, REAL
from repro.semiring.backends import (
    BatchedDenseBackend,
    DenseExecutionBackend,
    SparseTropicalBackend,
    backend_for,
    batched_backends_for,
)
from repro.semiring.provenance import PROVENANCE, Polynomial
from repro.stdlib import shortest_path_matrix, total_sum, trace

try:
    import scipy.sparse  # noqa: F401

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised on scipy-less installs
    HAVE_SCIPY = False

ALL_SEMIRINGS = [REAL, NATURAL, INTEGER, BOOLEAN, MIN_PLUS, MAX_PLUS, PROVENANCE]
TROPICAL = [MIN_PLUS, MAX_PLUS]


def _matrix_for(semiring, rows, cols, seed):
    rng = np.random.default_rng(seed)
    if semiring.name == "boolean":
        return rng.random((rows, cols)) < 0.4
    if semiring.name == "natural":
        return rng.integers(0, 5, (rows, cols))
    if semiring.name == "integer":
        return rng.integers(-4, 5, (rows, cols))
    if semiring.name in ("min_plus", "max_plus"):
        return np.round(rng.random((rows, cols)) * 9, 3)
    if semiring.name == "provenance":
        matrix = np.empty((rows, cols), dtype=object)
        for i in range(rows):
            for j in range(cols):
                matrix[i, j] = (
                    Polynomial.variable(f"x{seed}_{i}_{j}") if rng.random() < 0.5 else 0
                )
        return matrix
    return rng.standard_normal((rows, cols))


def _stack_for(semiring, batch, rows, cols, base_seed=0):
    kernels = semiring.kernels
    return np.stack(
        [
            kernels.ensure_storage(
                kernels.coerce_matrix(_matrix_for(semiring, rows, cols, base_seed + b))
            )
            for b in range(batch)
        ]
    )


def _instance_for(semiring, dimension, seed):
    return Instance.from_matrices(
        {"A": _matrix_for(semiring, dimension, dimension, seed)}, semiring=semiring
    )


def _entrywise_equal(left, right):
    if left.shape != right.shape:
        return False
    if left.dtype == object or right.dtype == object:
        return all(left[index] == right[index] for index in np.ndindex(left.shape))
    return bool(np.array_equal(left, right))


#: One hand-built plan per guard the interpreter keeps on every entry point,
#: with the message it raises (``A`` is 3 x 3; the backend map passed along
#: holds only ``"here"``).
GUARD_PLANS = {
    "scale-factor-not-1x1": (
        Plan((PlanOp("load", name="A"), PlanOp("scale", (0, 0))), 1),
        "1x1 left operand",
    ),
    "diag-of-a-non-column": (
        Plan((PlanOp("load", name="A"), PlanOp("diag", (0,))), 1),
        "column vector",
    ),
    "diagonal-of-a-non-square": (
        Plan(
            (
                PlanOp("load", name="A"),
                PlanOp("ones", (0,)),
                PlanOp("matmul", (0, 1)),
                PlanOp("diagonal", (2,)),
            ),
            3,
        ),
        "square matrix",
    ),
    "iterator-outside-a-loop": (Plan((PlanOp("iterator"),), 0), "iterator referenced"),
    "accumulator-outside-a-loop": (Plan((PlanOp("accumulator"),), 0), "accumulator referenced"),
    "tag-missing-from-the-map": (
        Plan((PlanOp("load", name="A", backend="elsewhere"),), 0),
        "tagged for backend 'elsewhere'",
    ),
    "conversion-source-missing-from-the-map": (
        Plan(
            (
                PlanOp("load", name="A"),
                PlanOp("to_dense", (0,), name="elsewhere", backend="here"),
            ),
            1,
        ),
        "source backend 'elsewhere'",
    ),
}

#: (semiring, entry point, backend tag, batch size): the dense family on
#: REAL and BOOLEAN, the CSR family (one block-diagonal matrix per batch) on
#: BOOLEAN.
_DENSE_ENTRY_POINTS = [
    (execute_plan, "dense", None),
    (execute_plan_batch, "dense", 1),
    (execute_plan_batch, "dense", 3),
]
GUARD_ENTRY_POINTS = [
    (semiring, *point) for semiring in (REAL, BOOLEAN) for point in _DENSE_ENTRY_POINTS
] + [
    pytest.param(
        BOOLEAN,
        *point,
        marks=pytest.mark.skipif(not HAVE_SCIPY, reason="scipy is required for sparse"),
    )
    for point in [(execute_plan, "sparse", None), (execute_plan_batch, "sparse", 3)]
]


# ----------------------------------------------------------------------
# Batched kernels
# ----------------------------------------------------------------------
class TestBatchedKernels:
    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
    def test_batch_matmul_matches_per_slice(self, semiring):
        kernels = semiring.kernels
        left = _stack_for(semiring, 5, 4, 3, base_seed=0)
        right = _stack_for(semiring, 5, 3, 6, base_seed=50)
        batched = kernels.batch_matmul(left, right)
        for index in range(5):
            assert _entrywise_equal(batched[index], kernels.matmul(left[index], right[index]))

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
    def test_batch_elementwise_matches_per_slice(self, semiring):
        kernels = semiring.kernels
        left = _stack_for(semiring, 4, 3, 3, base_seed=0)
        right = _stack_for(semiring, 4, 3, 3, base_seed=40)
        added = kernels.batch_add(left, right)
        multiplied = kernels.batch_hadamard(left, right)
        for index in range(4):
            assert _entrywise_equal(added[index], kernels.add_matrices(left[index], right[index]))
            assert _entrywise_equal(
                multiplied[index], kernels.hadamard(left[index], right[index])
            )

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
    def test_batch_reductions_match_scalar_folds(self, semiring):
        kernels = semiring.kernels
        rows = _stack_for(semiring, 6, 5, 1, base_seed=7)[:, :, 0]
        products = kernels.batch_product(rows.copy())
        assert products.shape == (6, 1, 1)
        for index in range(6):
            assert semiring.close_to(
                products[index, 0, 0], kernels.product(rows[index].copy())
            )

    def test_batch_matmul_shape_errors(self):
        kernels = REAL.kernels
        with pytest.raises(SemiringError):
            kernels.batch_matmul(np.zeros((2, 3, 4)), np.zeros((2, 5, 6)))
        with pytest.raises(SemiringError):
            kernels.batch_matmul(np.zeros((2, 3, 4)), np.zeros((3, 4, 6)))
        with pytest.raises(SemiringError):
            kernels.batch_matmul(np.zeros((3, 4)), np.zeros((4, 6)))
        with pytest.raises(SemiringError):
            kernels.batch_add(np.zeros((2, 3, 4)), np.zeros((3, 3, 4)))

    def test_int64_batch_bound_falls_back_per_slice(self):
        kernels = INTEGER.kernels
        # The batch-wide bound mixes extrema across slices (max|L| from one
        # slice, max|R| from another), so it fails here even though every
        # individual slice is comfortably wrap-free — the per-slice 2-D
        # kernels must deliver the exact results.
        big = np.zeros((2, 2), dtype=np.int64)
        np.fill_diagonal(big, 2**40)
        small = np.full((2, 2), 3, dtype=np.int64)
        left = np.stack([big, small])
        right = np.stack([small, big])
        result = kernels.batch_matmul(left, right)
        assert result.dtype == np.int64
        assert np.array_equal(result[0], big @ small)
        assert np.array_equal(result[1], small @ big)

    def test_int64_batch_overflow_raises_instead_of_wrapping(self):
        kernels = INTEGER.kernels
        huge = np.full((2, 2, 2), 2**32, dtype=np.int64)
        with pytest.raises(SemiringError):
            kernels.batch_matmul(huge, huge)

    @pytest.mark.parametrize("semiring", TROPICAL, ids=lambda s: s.name)
    def test_tropical_batch_matmul_blocks(self, semiring, monkeypatch):
        kernels = semiring.kernels
        monkeypatch.setattr(type(kernels), "_BLOCK_ENTRIES", 64)
        left = _stack_for(semiring, 7, 4, 5, base_seed=1)
        right = _stack_for(semiring, 7, 5, 3, base_seed=80)
        batched = kernels.batch_matmul(left, right)
        for index in range(7):
            assert np.array_equal(batched[index], kernels.matmul(left[index], right[index]))


# ----------------------------------------------------------------------
# The batched dense backend
# ----------------------------------------------------------------------
class TestBatchedDenseBackend:
    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
    def test_protocol_operations_match_dense(self, semiring):
        batch = 4
        batched = BatchedDenseBackend(semiring, batch)
        dense = DenseExecutionBackend(semiring)
        stack = _stack_for(semiring, batch, 5, 5, base_seed=3)
        column = _stack_for(semiring, batch, 5, 1, base_seed=90)

        operations = {
            "transpose": (lambda b, value: b.transpose(value), stack),
            "diagonal": (lambda b, value: b.diagonal(value), stack),
            "diag_product": (lambda b, value: b.diag_product(value), stack),
            "power": (lambda b, value: b.power(value, 3), stack),
            "hadamard_power": (lambda b, value: b.hadamard_power(value, 3), stack),
            "diag": (lambda b, value: b.diag(value), column),
        }
        for name, (operation, operand) in operations.items():
            expected = [
                dense.to_dense(
                    operation(dense, operand[index] if name != "diag" else operand[index])
                )
                for index in range(batch)
            ]
            actual = batched.to_dense(operation(batched, operand))
            for index in range(batch):
                assert _entrywise_equal(actual[index], expected[index]), (
                    semiring.name,
                    name,
                )

    def test_constructors_are_batch_views(self):
        backend = BatchedDenseBackend(REAL, 8)
        zeros = backend.zeros(3, 4)
        assert zeros.shape == (8, 3, 4)
        assert zeros.strides[0] == 0, "batch-invariant values must not copy"
        assert backend.identity(5).shape == (8, 5, 5)
        assert backend.basis_column(5, 2).shape == (8, 5, 1)

    def test_from_dense_shapes(self):
        backend = BatchedDenseBackend(REAL, 3)
        assert backend.from_dense(np.zeros((2, 2))).shape == (3, 2, 2)
        assert backend.from_dense(np.zeros((3, 2, 2))).shape == (3, 2, 2)
        with pytest.raises(SemiringError):
            backend.from_dense(np.zeros((4, 2, 2)))
        with pytest.raises(SemiringError):
            BatchedDenseBackend(REAL, 0)

    def test_stack_rejects_wrong_count_and_shapes(self):
        backend = BatchedDenseBackend(REAL, 2)
        with pytest.raises(SemiringError):
            backend.stack_instance_matrices([np.zeros((2, 2))])
        with pytest.raises(ValueError):
            backend.stack_instance_matrices([np.zeros((2, 2)), np.zeros((3, 3))])
        with pytest.raises(SemiringError):
            DenseExecutionBackend(REAL).stack_instance_matrices(
                [np.zeros((2, 2)), np.zeros((2, 2))]
            )


# ----------------------------------------------------------------------
# Batched plans: bitwise equivalence with the per-instance executor
# ----------------------------------------------------------------------
class TestBatchedPlanEquivalence:
    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_sum_matlang_sweeps(self, semiring, seed):
        expression = random_sum_matlang_expression(seed=seed, depth=3)
        instances = [
            Instance.from_matrices(
                {
                    "A": _matrix_for(semiring, 3, 3, seed * 10 + offset),
                    "B": _matrix_for(semiring, 3, 3, seed * 10 + offset + 100),
                },
                semiring=semiring,
            )
            for offset in range(4)
        ]
        self._assert_batch_matches_sequential(expression, instances)

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
    def test_stdlib_sweeps(self, semiring):
        instances = [_instance_for(semiring, 5, seed) for seed in range(5)]
        for expression in (trace("A"), total_sum("A")):
            self._assert_batch_matches_sequential(expression, instances)

    @pytest.mark.parametrize("semiring", [REAL, BOOLEAN, MIN_PLUS], ids=lambda s: s.name)
    def test_closure_sweeps(self, semiring):
        instances = [_instance_for(semiring, 5, seed) for seed in range(4)]
        self._assert_batch_matches_sequential(shortest_path_matrix("A"), instances)

    def test_apply_sweeps(self):
        expression = apply("gt0", var("A") @ var("A"))
        instances = [_instance_for(REAL, 5, seed) for seed in range(4)]
        self._assert_batch_matches_sequential(expression, instances)

    @staticmethod
    def _assert_batch_matches_sequential(expression, instances):
        semiring = instances[0].semiring
        functions = default_registry()
        plan = compile_expression(expression, instances[0].schema)
        dense = DenseExecutionBackend(semiring)
        sequential = [
            dense.to_dense(execute_plan(plan, dense, instance, functions)).copy()
            for instance in instances
        ]
        backend = BatchedDenseBackend(semiring, len(instances))
        stacked = backend.to_dense(
            execute_plan_batch(plan, backend, instances, functions)
        )
        for index in range(len(instances)):
            assert _entrywise_equal(stacked[index], sequential[index]), semiring.name

    def test_empty_batch_is_rejected(self):
        instance = _instance_for(REAL, 3, 0)
        plan = compile_expression(trace("A"), instance.schema)
        backend = BatchedDenseBackend(REAL, 1)
        with pytest.raises(EvaluationError):
            execute_plan_batch(plan, backend, [], default_registry())

    def test_mismatched_batches_are_rejected(self):
        plan = compile_expression(trace("A"), _instance_for(REAL, 3, 0).schema)
        small, large = _instance_for(REAL, 3, 0), _instance_for(REAL, 4, 0)
        backend = BatchedDenseBackend(REAL, 2)
        with pytest.raises(EvaluationError):
            execute_plan_batch(plan, backend, [small, large], default_registry())
        mixed = [_instance_for(REAL, 3, 0), _instance_for(MIN_PLUS, 3, 0)]
        with pytest.raises(EvaluationError):
            execute_plan_batch(plan, backend, mixed, default_registry())
        with pytest.raises(EvaluationError):
            execute_plan_batch(plan, backend, [small], default_registry())
        with pytest.raises(EvaluationError):
            execute_plan_batch(plan, DenseExecutionBackend(REAL), [small], default_registry())

    @pytest.mark.parametrize("guard", sorted(GUARD_PLANS))
    @pytest.mark.parametrize(
        "semiring, entry, tag, batch",
        GUARD_ENTRY_POINTS,
        ids=lambda value: getattr(value, "__name__", getattr(value, "name", str(value))),
    )
    def test_guards_hold_on_every_entry_point(self, guard, semiring, entry, tag, batch):
        plan, message = GUARD_PLANS[guard]
        instances = [_instance_for(semiring, 3, seed) for seed in range(batch or 1)]
        if entry is execute_plan:
            backend = backend_for(semiring, tag)
            arguments = (plan, backend, instances[0], default_registry())
        else:
            backend = batched_backends_for(semiring, batch, (tag,))[tag]
            arguments = (plan, backend, instances, default_registry())
        with pytest.raises(EvaluationError, match=message):
            entry(*arguments, backends={"here": backend})


# ----------------------------------------------------------------------
# Sharding: ragged sweeps, chunking, ordering
# ----------------------------------------------------------------------
class TestSharding:
    def _ragged_sweep(self):
        instances = []
        for seed in range(17):
            size = (3, 5, 8)[seed % 3]
            semiring = (REAL, MIN_PLUS, BOOLEAN)[seed % 3 if seed % 2 else 0]
            instances.append(_instance_for(semiring, size, seed))
        return instances

    @pytest.mark.parametrize("chunk_size", [None, 1, 2, 4, 17, 64])
    def test_evaluate_batch_matches_evaluator(self, chunk_size):
        expression = ssum("_v", var("A") @ var("_v"))
        instances = self._ragged_sweep()
        results = evaluate_batch(expression, instances, chunk_size=chunk_size)
        assert len(results) == len(instances)
        for instance, result in zip(instances, results):
            reference = Evaluator(instance).run(expression)
            assert _entrywise_equal(result, reference)

    def test_evaluate_batch_empty(self):
        assert evaluate_batch(trace("A"), []) == []

    def test_run_plan_batch_rejects_bad_chunk_size(self):
        instance = _instance_for(REAL, 3, 0)
        plan = compile_expression(trace("A"), instance.schema)
        with pytest.raises(EvaluationError):
            run_plan_batch(plan, [instance], default_registry(), chunk_size=0)

    def test_chunk_boundaries_are_seamless(self):
        # 7 instances with chunk size 3: chunks of 3, 3, 1.
        expression = total_sum("A")
        instances = [_instance_for(REAL, 4, seed) for seed in range(7)]
        workload = CompiledWorkload(expression, instances[0].schema)
        chunked = workload.run_batch(instances, chunk_size=3)
        unchunked = workload.run_batch(instances, chunk_size=64)
        sequential = [workload.run(instance) for instance in instances]
        for index in range(7):
            assert np.array_equal(chunked[index], sequential[index])
            assert np.array_equal(unchunked[index], sequential[index])

    def test_results_are_defensive_copies(self):
        instances = [_instance_for(REAL, 3, seed) for seed in range(2)]
        workload = CompiledWorkload(var("A"), instances[0].schema)
        results = workload.run_batch(instances)
        results[0][0, 0] = 123.0
        assert instances[0].matrix("A")[0, 0] != 123.0
        again = workload.run_batch(instances)
        assert again[0][0, 0] != 123.0

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy is required for the sparse backend")
    def test_sparse_pinned_workload_falls_back_sequentially(self):
        instances = [_instance_for(BOOLEAN, 5, seed) for seed in range(3)]
        workload = CompiledWorkload(
            shortest_path_matrix("A"), instances[0].schema, backend="sparse"
        )
        batched = workload.run_batch(instances)
        for instance, result in zip(instances, batched):
            assert np.array_equal(result, workload.run(instance))

    def test_ragged_near_miss_buckets_merge_into_one_batch(self, monkeypatch):
        """A 15/16/17-node sweep runs as one padded kernel call."""
        import repro.matlang.evaluator as evaluator_module

        expression = ssum("_v", var("A") @ var("_v"))
        calls = []
        original = evaluator_module.execute_plan_batch

        def counting(plan, backend, instances, functions, **kwargs):
            calls.append(len(list(instances)))
            return original(plan, backend, instances, functions, **kwargs)

        monkeypatch.setattr(evaluator_module, "execute_plan_batch", counting)

        for semiring in (BOOLEAN, MIN_PLUS, NATURAL):
            instances = [
                _instance_for(semiring, (15, 16, 17)[seed % 3], seed)
                for seed in range(12)
            ]
            calls.clear()
            merged = run_plan_batch(
                compile_expression(expression, instances[0].schema),
                instances,
                default_registry(),
            )
            assert calls == [12], (
                f"{semiring.name}: near-miss buckets must merge into one batch"
            )
            # Exact semirings: padded results are bitwise-identical.
            for instance, result in zip(instances, merged):
                reference = Evaluator(instance).run(expression)
                assert result.shape == reference.shape
                assert np.array_equal(result, reference), semiring.name

    def test_ragged_merge_float64_is_tolerance_equal(self):
        expression = ssum("_v", var("A") @ var("_v"))
        instances = [
            _instance_for(REAL, (15, 16, 17)[seed % 3], seed) for seed in range(9)
        ]
        merged = CompiledWorkload(expression, instances[0].schema).run_batch(instances)
        for instance, result in zip(instances, merged):
            reference = Evaluator(instance).run(expression)
            assert result.shape == reference.shape
            assert np.allclose(result, reference)

    def test_ragged_merge_skips_far_apart_buckets(self, monkeypatch):
        """8 -> 16 padding quadruples the work; those buckets stay separate."""
        import repro.matlang.evaluator as evaluator_module

        expression = ssum("_v", var("A") @ var("_v"))
        calls = []
        original = evaluator_module.execute_plan_batch

        def counting(plan, backend, instances, functions, **kwargs):
            calls.append(len(list(instances)))
            return original(plan, backend, instances, functions, **kwargs)

        monkeypatch.setattr(evaluator_module, "execute_plan_batch", counting)
        instances = [
            _instance_for(REAL, (4, 9, 16)[seed % 3], seed) for seed in range(9)
        ]
        results = run_plan_batch(
            compile_expression(expression, instances[0].schema),
            instances,
            default_registry(),
        )
        assert len(calls) == 3, "far-apart sizes must not pad into one batch"
        for instance, result in zip(instances, results):
            assert np.array_equal(result, Evaluator(instance).run(expression))

    def test_ragged_outlier_does_not_block_near_miss_merging(self, monkeypatch):
        """15/16/17/40 clusters as {40} plus one padded {15,16,17} batch."""
        import repro.matlang.evaluator as evaluator_module

        expression = ssum("_v", var("A") @ var("_v"))
        calls = []
        singles = []
        original = evaluator_module.execute_plan_batch
        original_single = evaluator_module.execute_plan

        def counting(plan, backend, instances, functions, **kwargs):
            calls.append(len(list(instances)))
            return original(plan, backend, instances, functions, **kwargs)

        def counting_single(plan, backend, instance, functions, **kwargs):
            singles.append(instance.dimension("alpha"))
            return original_single(plan, backend, instance, functions, **kwargs)

        monkeypatch.setattr(evaluator_module, "execute_plan_batch", counting)
        monkeypatch.setattr(evaluator_module, "execute_plan", counting_single)
        instances = [
            _instance_for(MIN_PLUS, size, seed)
            for seed, size in enumerate((15, 16, 17, 40, 15, 16, 17))
        ]
        results = run_plan_batch(
            compile_expression(expression, instances[0].schema),
            instances,
            default_registry(),
        )
        assert calls == [6], (
            "the 40-node outlier must not price 15/16/17 out of merging"
        )
        # A chunk of one runs per instance, on the plan evaluate picks.
        assert singles == [40]
        for instance, result in zip(instances, results):
            assert np.array_equal(result, Evaluator(instance).run(expression))

    def test_ragged_merge_skips_padding_unsafe_plans(self, monkeypatch):
        """Plans with apply / loop / power ops never see padded instances."""
        import repro.matlang.evaluator as evaluator_module

        expression = apply("gt0", var("A") @ var("A"))
        calls = []
        singles = []
        original = evaluator_module.execute_plan_batch
        original_single = evaluator_module.execute_plan

        def counting(plan, backend, instances, functions, **kwargs):
            calls.append(len(list(instances)))
            return original(plan, backend, instances, functions, **kwargs)

        def counting_single(plan, backend, instance, functions, **kwargs):
            singles.append(instance.dimension("alpha"))
            return original_single(plan, backend, instance, functions, **kwargs)

        monkeypatch.setattr(evaluator_module, "execute_plan_batch", counting)
        monkeypatch.setattr(evaluator_module, "execute_plan", counting_single)
        instances = [_instance_for(REAL, 15 + seed, seed) for seed in range(3)]
        results = run_plan_batch(
            compile_expression(expression, instances[0].schema),
            instances,
            default_registry(),
        )
        # Three unmerged buckets of one: each runs alone, at its own size.
        assert calls == []
        assert singles == [15, 16, 17]
        for instance, result in zip(instances, results):
            assert np.array_equal(result, Evaluator(instance).run(expression))

    def test_ragged_false_restores_per_signature_buckets(self, monkeypatch):
        import repro.matlang.evaluator as evaluator_module

        expression = ssum("_v", var("A") @ var("_v"))
        calls = []
        original = evaluator_module.execute_plan_batch

        def counting(plan, backend, instances, functions, **kwargs):
            calls.append(len(list(instances)))
            return original(plan, backend, instances, functions, **kwargs)

        monkeypatch.setattr(evaluator_module, "execute_plan_batch", counting)
        instances = [
            _instance_for(MIN_PLUS, (15, 16, 17)[seed % 3], seed) for seed in range(6)
        ]
        plan = compile_expression(expression, instances[0].schema)
        results = run_plan_batch(plan, instances, default_registry(), ragged=False)
        assert len(calls) == 3
        for instance, result in zip(instances, results):
            assert np.array_equal(result, Evaluator(instance).run(expression))

    def test_ragged_merge_handles_scalar_results(self):
        """A trace workload (1x1 results) survives the padded slice-back."""
        expression = trace("A")
        instances = [
            _instance_for(NATURAL, (15, 16, 17)[seed % 3], seed) for seed in range(6)
        ]
        results = run_plan_batch(
            compile_expression(expression, instances[0].schema),
            instances,
            default_registry(),
        )
        for instance, result in zip(instances, results):
            reference = Evaluator(instance).run(expression)
            assert result.shape == (1, 1)
            assert np.array_equal(result, reference)

    @pytest.mark.parametrize(
        "expression, merges",
        [
            (ssum("_v", var("A") @ var("_v")), True),
            (trace("A"), True),
            (ssum("_v", (var("_v").T @ var("A") @ var("_v")) * (var("_v") @ var("_v").T)), True),
            (ssum("_v", var("A")), False),
        ],
        ids=["row-sums", "trace", "diagonal", "n-copies"],
    )
    def test_ragged_merge_follows_the_padding_of_each_axis(self, monkeypatch, expression, merges):
        """``A . 1``, ``1^T . diagonal(A)`` and ``diag(diagonal(A))`` meet the
        padding of their ones vector only through a zero axis of ``A``;
        ``(1^T . 1) x A`` would scale each instance by the padded size."""
        import repro.matlang.evaluator as evaluator_module

        calls = []
        original = evaluator_module.execute_plan_batch

        def counting(plan, backend, instances, functions, **kwargs):
            calls.append(len(list(instances)))
            return original(plan, backend, instances, functions, **kwargs)

        monkeypatch.setattr(evaluator_module, "execute_plan_batch", counting)
        for semiring in (NATURAL, MIN_PLUS):
            instances = [
                _instance_for(semiring, (15, 16, 17)[seed % 3], seed) for seed in range(6)
            ]
            calls.clear()
            results = run_plan_batch(
                compile_expression(expression, instances[0].schema),
                instances,
                default_registry(),
            )
            assert calls == ([6] if merges else [2, 2, 2]), semiring.name
            for instance, result in zip(instances, results):
                assert np.array_equal(result, Evaluator(instance).run(expression))

    def test_ragged_merge_respects_chunk_size(self, monkeypatch):
        import repro.matlang.evaluator as evaluator_module

        expression = ssum("_v", var("A") @ var("_v"))
        calls = []
        original = evaluator_module.execute_plan_batch

        def counting(plan, backend, instances, functions, **kwargs):
            calls.append(len(list(instances)))
            return original(plan, backend, instances, functions, **kwargs)

        monkeypatch.setattr(evaluator_module, "execute_plan_batch", counting)
        instances = [
            _instance_for(BOOLEAN, (15, 16, 17)[seed % 3], seed) for seed in range(10)
        ]
        results = run_plan_batch(
            compile_expression(expression, instances[0].schema),
            instances,
            default_registry(),
            chunk_size=4,
        )
        assert calls == [4, 4, 2], "padded groups must still honour chunk_size"
        for instance, result in zip(instances, results):
            assert np.array_equal(result, Evaluator(instance).run(expression))

    def test_repeated_run_batch_reuses_stacked_inputs(self):
        expression = ssum("_v", var("A") @ var("_v"))
        instances = [_instance_for(REAL, 4, seed) for seed in range(6)]
        workload = CompiledWorkload(expression, instances[0].schema)

        first = workload.run_batch(instances)
        hits_after_first, misses_after_first, size = workload.stack_cache_info()
        assert size >= 1  # the sweep's stacks were retained

        second = workload.run_batch(instances)
        hits_after_second, misses_after_second, _ = workload.stack_cache_info()
        assert misses_after_second == misses_after_first, (
            "a repeated sweep over the same instances must not re-stack inputs"
        )
        assert hits_after_second > hits_after_first
        for before, after in zip(first, second):
            assert np.array_equal(before, after)

        # Fresh instance objects are a different batch: stacked anew, and
        # still correct.
        fresh = [_instance_for(REAL, 4, seed) for seed in range(6)]
        third = workload.run_batch(fresh)
        _, misses_after_third, _ = workload.stack_cache_info()
        assert misses_after_third > misses_after_second
        for before, after in zip(first, third):
            assert np.array_equal(before, after)


# ----------------------------------------------------------------------
# The sparse tropical backend
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy is required for the sparse backend")
class TestSparseTropicalBackend:
    def _sparse_weights(self, semiring, size, seed, density=0.25):
        rng = np.random.default_rng(seed)
        weights = np.full((size, size), float(semiring.zero))
        mask = rng.random((size, size)) < density
        weights[mask] = np.round(rng.random(mask.sum()) * 7, 3)
        return weights

    @pytest.mark.parametrize("semiring", TROPICAL, ids=lambda s: s.name)
    def test_operations_agree_with_dense(self, semiring):
        sparse = backend_for(semiring, "sparse")
        assert isinstance(sparse, SparseTropicalBackend)
        dense = DenseExecutionBackend(semiring)
        left = self._sparse_weights(semiring, 7, 0)
        right = self._sparse_weights(semiring, 7, 1)
        pairs = [
            ("matmul", lambda b, x, y: b.matmul(x, y)),
            ("add", lambda b, x, y: b.add(x, y)),
            ("hadamard", lambda b, x, y: b.hadamard(x, y)),
        ]
        for name, operation in pairs:
            expected = dense.to_dense(operation(dense, left.copy(), right.copy()))
            actual = sparse.to_dense(
                operation(sparse, sparse.from_dense(left), sparse.from_dense(right))
            )
            assert np.array_equal(actual, expected), (semiring.name, name)
        singles = [
            ("transpose", lambda b, x: b.transpose(x)),
            ("diagonal", lambda b, x: b.diagonal(x)),
            ("diag_product", lambda b, x: b.diag_product(x)),
            ("power3", lambda b, x: b.power(x, 3)),
            ("hadamard_power3", lambda b, x: b.hadamard_power(x, 3)),
        ]
        for name, operation in singles:
            expected = dense.to_dense(operation(dense, left.copy()))
            actual = sparse.to_dense(operation(sparse, sparse.from_dense(left)))
            assert np.array_equal(actual, expected), (semiring.name, name)

    @pytest.mark.parametrize("semiring", TROPICAL, ids=lambda s: s.name)
    def test_scale_and_constructors(self, semiring):
        sparse = backend_for(semiring, "sparse")
        dense = DenseExecutionBackend(semiring)
        matrix = self._sparse_weights(semiring, 5, 2)
        value = sparse.from_dense(matrix)
        assert np.array_equal(
            sparse.to_dense(sparse.scale(sparse.constant(1.5), value)),
            dense.to_dense(dense.scale(dense.constant(1.5), matrix.copy())),
        )
        zero = sparse.scale(sparse.constant(semiring.zero), value)
        assert zero.nnz == 0
        assert np.array_equal(sparse.to_dense(sparse.identity(4)), dense.identity(4))
        assert np.array_equal(sparse.to_dense(sparse.ones(3, 2)), dense.ones(3, 2))
        assert np.array_equal(
            sparse.to_dense(sparse.basis_column(5, 3)), dense.basis_column(5, 3)
        )
        column = self._sparse_weights(semiring, 5, 3)[:, :1]
        assert np.array_equal(
            sparse.to_dense(sparse.diag(sparse.from_dense(column))),
            dense.to_dense(dense.diag(column.copy())),
        )

    def test_rejects_unsupported_semirings(self):
        with pytest.raises(SemiringError):
            SparseTropicalBackend(REAL)
        with pytest.raises(SemiringError):
            backend_for(REAL, "sparse")
        with pytest.raises(SemiringError):
            backend_for(PROVENANCE, "sparse")

    def test_carrier_violations_rejected_at_lift(self):
        sparse = backend_for(MIN_PLUS, "sparse")
        poisoned = np.array([[0.0, -np.inf], [1.0, 2.0]])
        with pytest.raises(SemiringError):
            sparse.from_dense(poisoned)

    @pytest.mark.parametrize("semiring", TROPICAL, ids=lambda s: s.name)
    def test_evaluator_selects_sparse_tropical(self, semiring):
        weights = self._sparse_weights(semiring, 12, 4)
        instance = Instance.from_matrices({"A": weights}, semiring=semiring)
        expression = shortest_path_matrix("A")
        sparse_result = Evaluator(instance, backend="sparse").run(expression)
        dense_result = Evaluator(instance).run(expression)
        reference = Evaluator(instance, compile=False).run(expression)
        # Same plan, same reduction order: sparse and dense agree bitwise.
        assert np.array_equal(sparse_result, dense_result)
        # The tree-walk associates the float additions differently (the
        # compiled path fuses the closure power into repeated squaring), so
        # agreement with the reference is up to the semiring tolerance.
        assert semiring.matrices_equal(sparse_result, reference, 1e-9)

    def test_shortest_paths_match_floyd_warshall_baseline(self):
        adjacency = random_digraph(10, probability=0.3, seed=5).astype(bool)
        weights = np.where(adjacency, 1.0, np.inf)
        instance = Instance.from_matrices({"A": weights}, semiring=MIN_PLUS)
        result = Evaluator(instance, backend="sparse").run(shortest_path_matrix("A"))
        # Independent reference: iterated min-plus relaxation in numpy.
        n = len(weights)
        distances = np.minimum(weights, np.where(np.eye(n, dtype=bool), 0.0, np.inf))
        for _ in range(n):
            distances = np.minimum(
                distances, (distances[:, :, None] + distances[None, :, :]).min(axis=1)
            )
        assert np.array_equal(result, distances)


# ----------------------------------------------------------------------
# Block-diagonal CSR batching: the batched sparse backend family
# ----------------------------------------------------------------------
SPARSE_BATCH_SEMIRINGS = [BOOLEAN, MIN_PLUS, MAX_PLUS]


def _sparse_matrix(semiring, rows, cols, seed, density=0.2):
    """A semiring matrix whose off-support entries are the semiring zero."""
    rng = np.random.default_rng(seed)
    mask = rng.random((rows, cols)) < density
    if semiring is BOOLEAN:
        return mask.astype(np.float64)
    weights = np.full((rows, cols), float(semiring.zero))
    weights[mask] = np.round(rng.random(int(mask.sum())) * 7, 3)
    return weights


def _sparse_instance(semiring, dimension, seed, density=0.2):
    return Instance.from_matrices(
        {"A": _sparse_matrix(semiring, dimension, dimension, seed, density)},
        semiring=semiring,
    )


@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy is required for the sparse backend")
class TestBatchedSparseBackend:
    """The block-diagonal backends agree slice-by-slice with the single
    sparse backend (and therefore, transitively, with dense)."""

    @pytest.mark.parametrize("semiring", SPARSE_BATCH_SEMIRINGS, ids=lambda s: s.name)
    def test_protocol_operations_match_per_instance_sparse(self, semiring):
        from repro.semiring.backends import batched_sparse_backend

        batch = 4
        batched = batched_sparse_backend(semiring, batch)
        single = backend_for(semiring, "sparse")
        slices = [_sparse_matrix(semiring, 6, 6, seed) for seed in range(batch)]
        columns = [_sparse_matrix(semiring, 6, 1, 40 + seed) for seed in range(batch)]
        stack = batched.stack_instance_matrices(slices)
        column_stack = batched.stack_instance_matrices(columns)

        operations = {
            "transpose": (lambda b, value: b.transpose(value), stack, slices),
            "diagonal": (lambda b, value: b.diagonal(value), stack, slices),
            "diag_product": (lambda b, value: b.diag_product(value), stack, slices),
            "power": (lambda b, value: b.power(value, 3), stack, slices),
            "hadamard_power": (
                lambda b, value: b.hadamard_power(value, 3), stack, slices
            ),
            "diag": (lambda b, value: b.diag(value), column_stack, columns),
        }
        for name, (operation, operand, per_slice) in operations.items():
            expected = [
                single.to_dense(operation(single, single.from_dense(matrix)))
                for matrix in per_slice
            ]
            actual = batched.to_dense(operation(batched, operand))
            for index in range(batch):
                assert np.array_equal(actual[index], expected[index]), (
                    semiring.name,
                    name,
                )

    @pytest.mark.parametrize("semiring", SPARSE_BATCH_SEMIRINGS, ids=lambda s: s.name)
    def test_binary_operations_and_scale(self, semiring):
        from repro.semiring.backends import batched_sparse_backend

        batch = 3
        batched = batched_sparse_backend(semiring, batch)
        single = backend_for(semiring, "sparse")
        lefts = [_sparse_matrix(semiring, 5, 5, seed) for seed in range(batch)]
        rights = [_sparse_matrix(semiring, 5, 5, 10 + seed) for seed in range(batch)]
        left = batched.stack_instance_matrices(lefts)
        right = batched.stack_instance_matrices(rights)
        for name, operation in [
            ("matmul", lambda b, x, y: b.matmul(x, y)),
            ("add", lambda b, x, y: b.add(x, y)),
            ("hadamard", lambda b, x, y: b.hadamard(x, y)),
        ]:
            expected = [
                single.to_dense(
                    operation(
                        single, single.from_dense(one), single.from_dense(other)
                    )
                )
                for one, other in zip(lefts, rights)
            ]
            actual = batched.to_dense(operation(batched, left, right))
            for index in range(batch):
                assert np.array_equal(actual[index], expected[index]), (
                    semiring.name,
                    name,
                )
        # Scale by a per-block scalar (a trace): each block is scaled by its
        # own factor — the batched analogue of ``scale(1^T . diagonal(X), Y)``.
        def trace(backend, value):
            return backend.matmul(backend.ones(1, 5), backend.diagonal(value))

        factor = trace(batched, left)
        expected = [
            single.to_dense(
                single.scale(trace(single, single.from_dense(one)), single.from_dense(other))
            )
            for one, other in zip(lefts, rights)
        ]
        actual = batched.to_dense(batched.scale(factor, right))
        for index in range(batch):
            assert np.array_equal(actual[index], expected[index]), semiring.name

    @pytest.mark.parametrize("semiring", SPARSE_BATCH_SEMIRINGS, ids=lambda s: s.name)
    def test_constructors_replicate_per_block(self, semiring):
        from repro.semiring.backends import batched_sparse_backend

        batch = 3
        batched = batched_sparse_backend(semiring, batch)
        single = backend_for(semiring, "sparse")
        for name, batched_value, single_value in [
            ("zeros", batched.zeros(4, 2), single.zeros(4, 2)),
            ("ones", batched.ones(2, 3), single.ones(2, 3)),
            ("identity", batched.identity(4), single.identity(4)),
            ("basis_column", batched.basis_column(5, 2), single.basis_column(5, 2)),
        ]:
            stacked = batched.to_dense(batched_value)
            reference = single.to_dense(single_value)
            assert stacked.shape == (batch,) + reference.shape, name
            for index in range(batch):
                assert np.array_equal(stacked[index], reference), (semiring.name, name)

    def test_stack_rejects_wrong_count_and_shapes(self):
        from repro.semiring.backends import batched_sparse_backend

        backend = batched_sparse_backend(BOOLEAN, 2)
        with pytest.raises(SemiringError):
            backend.stack_instance_matrices([np.zeros((2, 2))])
        with pytest.raises(ValueError):
            backend.stack_instance_matrices([np.zeros((2, 2)), np.zeros((3, 3))])
        with pytest.raises(SemiringError):
            backend_for(BOOLEAN, "sparse").stack_instance_matrices(
                [np.zeros((2, 2)), np.zeros((2, 2))]
            )
        with pytest.raises(SemiringError):
            batched_sparse_backend(BOOLEAN, 0)
        with pytest.raises(SemiringError):
            batched_sparse_backend(REAL, 2)

    @pytest.mark.parametrize("semiring", SPARSE_BATCH_SEMIRINGS, ids=lambda s: s.name)
    def test_all_empty_blocks(self, semiring):
        from repro.semiring.backends import batched_sparse_backend

        batch = 3
        batched = batched_sparse_backend(semiring, batch)
        empty = [np.full((4, 4), float(semiring.zero)) for _ in range(batch)]
        stack = batched.stack_instance_matrices(empty)
        assert stack.nnz == 0
        result = batched.to_dense(batched.power(stack, 3))
        for index in range(batch):
            assert np.array_equal(result[index], empty[index])


# ----------------------------------------------------------------------
# The diagonal primitive on every backend
# ----------------------------------------------------------------------
def _diagonal_backends(semiring):
    """Every backend family that holds ``semiring``: name, backend, batch."""
    backends = [("dense", DenseExecutionBackend(semiring), None)]
    backends.append(("batched dense", BatchedDenseBackend(semiring, 3), 3))
    if semiring in SPARSE_BATCH_SEMIRINGS and HAVE_SCIPY:
        from repro.semiring.backends import batched_sparse_backend

        backends.append(("sparse", backend_for(semiring, "sparse"), None))
        backends.append(("block-diagonal CSR", batched_sparse_backend(semiring, 3), 3))
    return backends


@pytest.mark.parametrize(
    "semiring", [INTEGER, REAL, BOOLEAN, MIN_PLUS, MAX_PLUS, PROVENANCE], ids=lambda s: s.name
)
def test_diagonal_matches_numpy_on_every_backend(semiring):
    kernels = semiring.kernels
    if semiring in SPARSE_BATCH_SEMIRINGS:
        # Sparse values: implicit (zero) entries on the diagonal too.
        matrices = [kernels.ensure_storage(_sparse_matrix(semiring, 5, 5, seed, 0.5)) for seed in range(3)]
    else:
        matrices = list(_stack_for(semiring, 3, 5, 5, base_seed=11))
    for name, backend, batch in _diagonal_backends(semiring):
        if batch is None:
            results = [backend.to_dense(backend.diagonal(backend.from_dense(matrix))) for matrix in matrices]
        else:
            results = backend.to_dense(backend.diagonal(backend.stack_instance_matrices(matrices)))
        for matrix, result in zip(matrices, results):
            expected = np.diagonal(matrix).reshape(-1, 1)
            assert _entrywise_equal(np.asarray(result), expected), (semiring.name, name)


# ----------------------------------------------------------------------
# Block-diagonal CSR batching: plan-level equivalence
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy is required for the sparse backend")
class TestBlockDiagonalPlanEquivalence:
    """Adaptive batched sweeps over sparse-selected instances are bitwise
    equal to per-instance execution — sparse and dense alike."""

    #: Large enough to clear ``AUTO_SPARSE_MIN_DIMENSION`` (64) and sparse
    #: enough that the cost model keeps multiplication chains sparse.
    DIMENSION = 64
    DENSITY = 0.04

    def _sweep(self, semiring, count, expression, density=None):
        instances = [
            _sparse_instance(
                semiring, self.DIMENSION, seed, density or self.DENSITY
            )
            for seed in range(count)
        ]
        plan = compile_expression(expression, instances[0].schema)
        return plan, instances

    def _assert_block_diag_matches_per_instance(
        self, plan, instances, chunk_size=None, expect_mode="sparse"
    ):
        from repro.semiring.backends import plan_physical

        physical = plan_physical(plan, instances[0], None, batch_size=len(instances))
        assert physical.batch_mode == expect_mode, physical.notes
        batched = run_plan_batch(
            plan, instances, default_registry(), chunk_size=chunk_size
        )
        semiring = instances[0].semiring
        dense = DenseExecutionBackend(semiring)
        for instance, result in zip(instances, batched):
            sparse_reference = plan_physical(plan, instance, "sparse")
            expected_sparse = sparse_reference.result_backend.to_dense(
                execute_plan(
                    sparse_reference.plan,
                    sparse_reference.backend,
                    instance,
                    default_registry(),
                    backends=sparse_reference.backends,
                )
            )
            expected_dense = dense.to_dense(
                execute_plan(plan, dense, instance, default_registry())
            )
            assert np.array_equal(result, expected_sparse), semiring.name
            assert np.array_equal(result, expected_dense), semiring.name

    @pytest.mark.parametrize("semiring", SPARSE_BATCH_SEMIRINGS, ids=lambda s: s.name)
    def test_multiplication_chain_sweeps(self, semiring):
        expression = (var("A") @ var("A")) @ var("A")
        plan, instances = self._sweep(semiring, 5, expression)
        self._assert_block_diag_matches_per_instance(plan, instances)

    @pytest.mark.parametrize("semiring", SPARSE_BATCH_SEMIRINGS, ids=lambda s: s.name)
    def test_power_sweeps(self, semiring):
        # Repeated squaring over the block-diagonal operand: block structure
        # is closed under every intermediate power.
        expression = (var("A") @ var("A")) @ (var("A") @ var("A"))
        plan, instances = self._sweep(semiring, 4, expression, density=0.02)
        self._assert_block_diag_matches_per_instance(plan, instances)

    def test_closure_sweep_boolean(self):
        # Reachability closure at a density where it stays sparse-selected.
        plan, instances = self._sweep(
            BOOLEAN, 4, shortest_path_matrix("A"), density=0.005
        )
        self._assert_block_diag_matches_per_instance(plan, instances)

    @pytest.mark.parametrize("semiring", SPARSE_BATCH_SEMIRINGS, ids=lambda s: s.name)
    def test_empty_members_ride_along(self, semiring):
        expression = (var("A") @ var("A")) @ var("A")
        plan, instances = self._sweep(semiring, 4, expression)
        hollow = Instance.from_matrices(
            {"A": np.full((self.DIMENSION,) * 2, float(semiring.zero))},
            semiring=semiring,
        )
        instances = instances[:2] + [hollow] + instances[2:]
        self._assert_block_diag_matches_per_instance(plan, instances)

    @pytest.mark.parametrize("chunk_size", [2, 3, 64])
    def test_chunk_boundaries_are_seamless(self, chunk_size):
        expression = (var("A") @ var("A")) @ var("A")
        plan, instances = self._sweep(BOOLEAN, 7, expression)
        self._assert_block_diag_matches_per_instance(
            plan, instances, chunk_size=chunk_size
        )

    def test_ragged_sparse_groups_merge_into_one_batch(self, monkeypatch):
        """Near-miss sparse buckets pad and stack like dense ones."""
        import repro.matlang.evaluator as evaluator_module

        expression = (var("A") @ var("A")) @ var("A")
        calls = []
        original = evaluator_module.execute_plan_batch

        def counting(plan, backend, instances, functions, **kwargs):
            calls.append(len(list(instances)))
            return original(plan, backend, instances, functions, **kwargs)

        monkeypatch.setattr(evaluator_module, "execute_plan_batch", counting)
        sizes = (64, 66, 68)
        instances = [
            _sparse_instance(BOOLEAN, sizes[seed % 3], seed, 0.04)
            for seed in range(9)
        ]
        plan = compile_expression(expression, instances[0].schema)
        merged = run_plan_batch(plan, instances, default_registry())
        assert calls == [9], "near-miss sparse buckets must merge into one batch"
        dense = DenseExecutionBackend(BOOLEAN)
        for instance, result in zip(instances, merged):
            expected = dense.to_dense(
                execute_plan(plan, dense, instance, default_registry())
            )
            assert result.shape == expected.shape
            assert np.array_equal(result, expected)

    def test_sparse_lane_is_actually_selected(self):
        """The sweep runs on the block-diagonal backend, not dense."""
        from repro.semiring.backends import batched_sparse_backend

        expression = (var("A") @ var("A")) @ var("A")
        plan, instances = self._sweep(BOOLEAN, 4, expression)
        batched = batched_sparse_backend(BOOLEAN, len(instances))
        stacked = batched.stack_instance_matrices(
            [instance.matrix("A") for instance in instances]
        )
        chained = batched.matmul(batched.matmul(stacked, stacked), stacked)
        reference = batched.to_dense(chained)
        results = run_plan_batch(plan, instances, default_registry())
        for index, result in enumerate(results):
            assert np.array_equal(result, reference[index])
