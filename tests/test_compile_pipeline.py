"""Tests for the compile-then-execute pipeline.

Covers four concerns:

* **equivalence** — every fragment generator and stdlib construction
  evaluates identically through the plan executor and the retained
  reference tree-walk, across all registered semirings that support the
  workload;
* **fusion** — quantifiers over the canonical body shapes compile to
  loop-free plans (rewrite rules for the products, contractions for the
  sums) that run a pinned number of ops once warm;
* **plan structure** — CSE and loop-invariant hoisting actually move work
  out of loop bodies;
* **caching** — compiling once and evaluating against many same-schema
  instances performs no re-lowering, and the sparse boolean backend agrees
  with the dense kernels.
"""

import numpy as np
import pytest

from repro.exceptions import EvaluationError, SemiringError
from repro.experiments.harness import CompiledWorkload
from repro.experiments.workloads import (
    random_digraph,
    random_integer_matrix,
    random_matrix,
    random_sum_matlang_expression,
)
from repro.matlang.ast import Apply
from repro.matlang.builder import apply, forloop, had, ones, prod, ssum, var
from repro.matlang.compiler import (
    clear_plan_cache,
    compile_expression,
    plan_cache_info,
)
from repro.matlang.evaluator import Evaluator
from repro.matlang.instance import Instance
from repro.matlang.schema import Schema
from repro.semiring import BOOLEAN, INTEGER, MAX_PLUS, MIN_PLUS, NATURAL, REAL
from repro.semiring.backends import SparseBooleanBackend, backend_for
from repro.semiring.provenance import PROVENANCE, Polynomial
from repro.stdlib import (
    diag_via_for,
    diagonal_product,
    column_sums,
    ones_via_for,
    row_sums,
    shortest_path_matrix,
    total_sum,
    trace,
    transitive_closure_floyd_warshall,
    transitive_closure_product,
    triangle_count,
)
from repro.stdlib.order import s_less, s_less_equal

try:
    import scipy.sparse  # noqa: F401

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised on scipy-less installs
    HAVE_SCIPY = False


def _both_paths(expression, instance, functions=None):
    """Evaluate through the compiled pipeline and the reference tree-walk."""
    compiled = Evaluator(instance, functions, compile=True).run(expression)
    interpreted = Evaluator(instance, functions, compile=False).run(expression)
    return compiled, interpreted


def _assert_equivalent(expression, instance, functions=None):
    compiled, interpreted = _both_paths(expression, instance, functions)
    assert compiled.shape == interpreted.shape
    assert instance.semiring.matrices_equal(compiled, interpreted, 1e-9), (
        f"compiled and interpreted results differ for {expression}\n"
        f"compiled:\n{compiled}\ninterpreted:\n{interpreted}"
    )


class _OpCounter:
    """A profiler hook counting executed ops."""

    def __init__(self):
        self.ops = 0

    def record(self, op, backend_name, values, seconds):
        self.ops += 1

    def observe_instance(self, instance):
        pass


def _warm_ops(expression, instance):
    """Ops a second ``evaluate`` runs, once the dimension frame is filled."""
    counts = []
    for _ in range(2):
        counter = _OpCounter()
        Evaluator(instance, profiler=counter).run(expression)
        counts.append(counter.ops)
    return counts[1]


def _instance_for(semiring, dimension=4, seed=0):
    """A square instance with A, B matrices valid in the semiring's carrier."""
    if semiring.name == "boolean":
        a = random_digraph(dimension, probability=0.4, seed=seed)
        b = random_digraph(dimension, probability=0.4, seed=seed + 1)
    elif semiring.name in ("natural", "integer"):
        a = random_integer_matrix(dimension, seed=seed)
        b = random_integer_matrix(dimension, seed=seed + 1)
    elif semiring.name in ("min_plus", "max_plus"):
        a = np.abs(random_matrix(dimension, seed=seed))
        b = np.abs(random_matrix(dimension, seed=seed + 1))
    elif semiring.name == "provenance":
        rng = np.random.default_rng(seed)
        a = np.empty((dimension, dimension), dtype=object)
        b = np.empty((dimension, dimension), dtype=object)
        for i in range(dimension):
            for j in range(dimension):
                a[i, j] = Polynomial.variable(f"a{i}{j}") if rng.random() < 0.5 else 0
                b[i, j] = Polynomial.variable(f"b{i}{j}") if rng.random() < 0.5 else 0
    else:
        a = random_matrix(dimension, seed=seed)
        b = random_matrix(dimension, seed=seed + 1)
    return Instance.from_matrices({"A": a, "B": b}, semiring=semiring)


ALL_SEMIRINGS = [REAL, NATURAL, INTEGER, BOOLEAN, MIN_PLUS, MAX_PLUS, PROVENANCE]
NUMERIC_SEMIRINGS = [REAL, NATURAL, INTEGER, BOOLEAN, MIN_PLUS, MAX_PLUS]


# ----------------------------------------------------------------------
# Compiled-vs-interpreted equivalence
# ----------------------------------------------------------------------
class TestEquivalenceProperty:
    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
    @pytest.mark.parametrize("seed", range(8))
    def test_random_sum_matlang_expressions(self, semiring, seed):
        expression = random_sum_matlang_expression(seed=seed, depth=3)
        instance = _instance_for(semiring, dimension=3, seed=seed)
        _assert_equivalent(expression, instance)

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
    @pytest.mark.parametrize(
        "builder",
        [
            trace,
            diagonal_product,
            row_sums,
            column_sums,
            total_sum,
            lambda a: ssum("_s1", ssum("_s2", var("_s1") @ var("_s2").T)),
            lambda a: prod("_p", var(a)),
            lambda a: had("_h", var(a)),
            lambda a: forloop("_v", "_X", var("_X") @ var(a), init=var(a)),
        ],
        ids=[
            "trace",
            "diagonal_product",
            "row_sums",
            "column_sums",
            "total_sum",
            "ones_outer",
            "matrix_power",
            "hadamard_power",
            "initialised_power_loop",
        ],
    )
    def test_stdlib_constructions_all_semirings(self, semiring, builder):
        instance = _instance_for(semiring, dimension=4, seed=3)
        _assert_equivalent(builder("A"), instance)

    # The order constructions use the literal -1, which is outside the
    # carrier of the naturals (both evaluation paths reject it there).
    @pytest.mark.parametrize(
        "semiring", [REAL, INTEGER, BOOLEAN, MIN_PLUS, MAX_PLUS], ids=lambda s: s.name
    )
    def test_order_and_loop_stdlib(self, semiring):
        instance = _instance_for(semiring, dimension=4, seed=5)
        for expression in (
            ones_via_for(),
            diag_via_for(ones(var("A"))),
            s_less(),
            s_less_equal(),
        ):
            _assert_equivalent(expression, instance)

    def test_graph_closures_real_and_boolean(self):
        adjacency = random_digraph(6, probability=0.3, seed=7)
        for semiring in (REAL, BOOLEAN, NATURAL):
            instance = Instance.from_matrices({"A": adjacency}, semiring=semiring)
            _assert_equivalent(transitive_closure_floyd_warshall("A"), instance)
            _assert_equivalent(transitive_closure_product("A"), instance)
            if semiring is not NATURAL:
                # triangle_count's distinctness factor uses the literal -1,
                # which the naturals reject on both evaluation paths.
                _assert_equivalent(triangle_count("A"), instance)

    def test_shortest_paths_min_plus(self):
        weights = np.abs(random_matrix(6, seed=11))
        weights[weights < 0.5] = np.inf
        instance = Instance.from_matrices({"A": weights}, semiring=MIN_PLUS)
        _assert_equivalent(shortest_path_matrix("A"), instance)

    def test_apply_workloads(self):
        instance = _instance_for(REAL, dimension=4, seed=13)
        for expression in (
            apply("gt0", var("A")),
            apply("div", var("A"), var("B")),
            apply("mul", var("A"), var("B"), var("A")),
            apply("add", var("A"), var("B")),
            apply("square", var("A")),
            apply("sub", var("A"), var("B")),
            apply("neg", var("A")),
            apply("nonzero", var("A") @ var("B")),
        ):
            _assert_equivalent(expression, instance)

    def test_linalg_lu_over_reals(self):
        from repro.experiments.workloads import random_lu_factorizable_matrix
        from repro.stdlib.linalg import lu_lower

        matrix = random_lu_factorizable_matrix(4, seed=17)
        instance = Instance.from_matrices({"A": matrix})
        _assert_equivalent(lu_lower("A"), instance)


# ----------------------------------------------------------------------
# Fusion and plan structure
# ----------------------------------------------------------------------
class TestFusion:
    def setup_method(self):
        clear_plan_cache()

    def test_trace_lowers_loop_free(self, square_instance, square_matrix):
        plan = compile_expression(trace("A"), square_instance.schema)
        assert plan.count_ops("loop") == 0
        result = Evaluator(square_instance).run(trace("A"))
        assert np.isclose(result[0, 0], np.trace(square_matrix))
        _assert_equivalent(trace("A"), square_instance)
        # 1^T . diagonal(A): load, diagonal, matmul (the ones row is a
        # frame value).
        assert _warm_ops(trace("A"), square_instance) == 3

    def test_row_and_column_sum_loops_fuse(self, square_instance, square_matrix):
        sum_rows = ssum("_v", var("A") @ var("_v"))
        sum_cols = ssum("_v", var("_v").T @ var("A"))
        plan_rows = compile_expression(sum_rows, square_instance.schema)
        plan_cols = compile_expression(sum_cols, square_instance.schema)
        assert plan_rows.count_ops("loop") == 0 and plan_cols.count_ops("loop") == 0
        assert np.allclose(
            Evaluator(square_instance).run(sum_rows).ravel(), square_matrix.sum(axis=1)
        )
        assert np.allclose(
            Evaluator(square_instance).run(sum_cols).ravel(), square_matrix.sum(axis=0)
        )
        for expression in (sum_rows, sum_cols):
            _assert_equivalent(expression, square_instance)
            # A . 1 and 1^T . A: the load and the product.
            assert _warm_ops(expression, square_instance) == 2

    def test_selector_sum_is_the_identity(self, square_instance):
        expression = ssum("_v", var("_v") @ var("_v").T)
        plan = compile_expression(expression, square_instance.schema)
        assert plan.count_ops("loop") == 0
        assert plan.count_ops("identity_sym") == 1

    def test_diag_via_for_fuses_to_diag(self, square_instance):
        expression = diag_via_for(ones(var("A")))
        plan = compile_expression(expression, square_instance.schema)
        assert plan.count_ops("loop") == 0
        assert plan.count_ops("diag") == 1

    def test_diagonal_filter_fuses(self, square_instance, square_matrix):
        v = var("_v")
        expression = ssum("_v", (v.T @ var("A") @ v) * (v @ v.T))
        plan = compile_expression(expression, square_instance.schema)
        assert plan.count_ops("loop") == 0
        result = Evaluator(square_instance).run(expression)
        assert np.allclose(result, np.diag(np.diag(square_matrix)))
        _assert_equivalent(expression, square_instance)
        # diag(diagonal(A)): load, diagonal, diag.
        assert _warm_ops(expression, square_instance) == 3

    def test_invariant_product_loop_fuses_to_power(self, square_instance):
        expression = shortest_path_matrix("A")
        plan = compile_expression(expression, square_instance.schema)
        assert plan.count_ops("loop") == 0
        assert plan.count_ops("power") == 1

    def test_invariant_sum_scales_by_the_dimension(self, square_instance, square_matrix):
        expression = ssum("_v", var("A"))
        plan = compile_expression(expression, square_instance.schema)
        assert plan.count_ops("loop") == 0
        result = Evaluator(square_instance).run(expression)
        assert np.allclose(result, 4 * square_matrix)
        _assert_equivalent(expression, square_instance)
        # (1^T . 1) x A: the dimension 1^T . 1 is a frame value, so a warm
        # run loads A and scales it.
        assert _warm_ops(expression, square_instance) == 2

    def test_diagonal_product_fuses(self, square_instance, square_matrix):
        plan = compile_expression(diagonal_product("A"), square_instance.schema)
        assert plan.count_ops("loop") == 0
        assert plan.count_ops("diag_product") == 1
        result = Evaluator(square_instance).run(diagonal_product("A"))
        assert np.isclose(result[0, 0], np.prod(np.diag(square_matrix)))

    def test_loop_invariant_subexpressions_are_hoisted(self, square_instance):
        # The Floyd-Warshall inner sums depend on the loop binders, but the
        # A.A product below does not: it must be computed outside the loop.
        body = var("_X") @ (var("A") @ var("A")) + var("_v") @ var("_v").T
        expression = forloop("_v", "_X", body, init=var("A"))
        plan = compile_expression(expression, square_instance.schema)
        (loop_op,) = [op for op in plan.ops if op.opcode == "loop"]
        # No variable loads and no matmul of loads inside the body: the
        # invariant product arrives through a capture.
        assert loop_op.body.count_ops("load") == 0
        assert loop_op.body.count_ops("capture") >= 1
        assert plan.count_ops("load") == 1  # A is loaded exactly once (CSE)

    def test_structural_cse_shares_repeated_subtrees(self, square_instance):
        expression = (var("A") @ var("A")) + (var("A") @ var("A"))
        plan = compile_expression(expression, square_instance.schema)
        assert plan.count_ops("matmul") == 1
        assert plan.count_ops("load") == 1

    def test_describe_renders_every_op(self, square_instance):
        plan = compile_expression(trace("A"), square_instance.schema)
        text = plan.describe()
        assert "diagonal" in text and "return" in text


# ----------------------------------------------------------------------
# PR 3 fusion gaps: Add-body split and nested total-sum (rewrite-fires)
# ----------------------------------------------------------------------
class TestAddSplitAndNestedFusion:
    def setup_method(self):
        clear_plan_cache()

    def test_add_body_splits_when_both_summands_fuse(self, square_instance, square_matrix):
        A, v = var("A"), var("_v")
        expression = ssum("_v", (A @ v) + (A.T @ v))
        plan = compile_expression(expression, square_instance.schema)
        assert plan.count_ops("loop") == 0, "Add split must eliminate the loop"
        assert plan.count_ops("add") == 1
        result = Evaluator(square_instance).run(expression)
        expected = square_matrix.sum(axis=1) + square_matrix.sum(axis=0)
        assert np.allclose(result.ravel(), expected)
        _assert_equivalent(expression, square_instance)
        # A . 1 + A^T . 1: load, transpose, two products and the add.
        assert _warm_ops(expression, square_instance) == 5

    def test_add_split_recurses_through_nested_adds(self, square_instance):
        A, v = var("A"), var("_v")
        expression = ssum("_v", ((A @ v) + (A.T @ v)) + ((A @ A) @ v))
        plan = compile_expression(expression, square_instance.schema)
        assert plan.count_ops("loop") == 0
        # Every summand is a product against the one ones vector; cost-based
        # ordering multiplies (A @ A) @ v as A . (A . 1), skipping the
        # matrix product and sharing A . 1 with the first summand.
        assert plan.count_ops("ones_type") == 1
        _assert_equivalent(expression, square_instance)
        # load, transpose, three products, two adds.
        assert _warm_ops(expression, square_instance) == 7

    def test_half_fusible_add_declines_and_leaves_no_dead_ops(self, square_instance):
        A, v = var("A"), var("_v")
        expression = ssum("_v", (A @ v) + apply("gt0", v))
        plan = compile_expression(expression, square_instance.schema)
        # The right summand cannot contract, so the loop stays, and what
        # the left summand's contraction emitted must have been pruned.
        assert plan.count_ops("loop") == 1
        assert [op.opcode for op in plan.ops] == ["load", "loop"]
        assert not any(note.startswith("contract") for note in plan.notes)
        _assert_equivalent(expression, square_instance)

    @pytest.mark.parametrize("semiring", NUMERIC_SEMIRINGS, ids=lambda s: s.name)
    def test_add_split_agrees_across_semirings(self, semiring):
        A, v = var("A"), var("_v")
        expression = ssum("_v", (A @ v) + (var("B") @ v))
        instance = _instance_for(semiring)
        _assert_equivalent(expression, instance)

    def test_nested_total_sum_fuses(self, square_instance, square_matrix):
        A, u, v = var("A"), var("_u"), var("_v")
        expression = ssum("_u", ssum("_v", u.T @ A @ v))
        plan = compile_expression(expression, square_instance.schema)
        assert plan.count_ops("loop") == 0, "nested total sum must fuse"
        result = Evaluator(square_instance).run(expression)
        assert np.isclose(result[0, 0], square_matrix.sum())
        _assert_equivalent(expression, square_instance)
        # 1^T . (A^T . 1): load, transpose and two products.
        assert _warm_ops(expression, square_instance) == 4

    def test_nested_total_sum_fuses_with_swapped_iterators(
        self, square_instance, square_matrix
    ):
        A, u, v = var("A"), var("_u"), var("_v")
        # The *inner* iterator takes the row side: Sigma_u Sigma_v v^T A u.
        expression = ssum("_u", ssum("_v", v.T @ A @ u))
        plan = compile_expression(expression, square_instance.schema)
        assert plan.count_ops("loop") == 0
        result = Evaluator(square_instance).run(expression)
        assert np.isclose(result[0, 0], square_matrix.sum())
        _assert_equivalent(expression, square_instance)

    def test_nested_total_sum_through_for_loop_sugar(self, square_instance, square_matrix):
        A, u, v = var("A"), var("_u"), var("_v")
        expression = ssum("_u", forloop("_v", "_X", var("_X") + (u.T @ A @ v)))
        plan = compile_expression(expression, square_instance.schema)
        assert plan.count_ops("loop") == 0
        result = Evaluator(square_instance).run(expression)
        assert np.isclose(result[0, 0], square_matrix.sum())
        _assert_equivalent(expression, square_instance)

    def test_total_sum_stdlib_now_fuses_completely(self, square_instance, square_matrix):
        plan = compile_expression(total_sum("A"), square_instance.schema)
        assert plan.count_ops("loop") == 0
        result = Evaluator(square_instance).run(total_sum("A"))
        assert np.isclose(result[0, 0], square_matrix.sum())

    def test_nested_sum_with_offdiagonal_body_still_works(self, square_instance):
        # Body does not match the bilinear pattern (extra transpose): must
        # fall back without changing semantics.
        A, u, v = var("A"), var("_u"), var("_v")
        expression = ssum("_u", ssum("_v", (u.T @ A @ v) + (u.T @ v)))
        _assert_equivalent(expression, square_instance)

    def test_eliminated_for_loop_keeps_initialiser(self, square_instance):
        # The loop body ignores both binders, so the loop collapses — but
        # the initialiser must still be evaluated for error parity with the
        # interpreter, so its matmul survives dead-op pruning (pinned).
        A = var("A")
        expression = forloop("_v", "_X", A + A, init=A @ A)
        plan = compile_expression(expression, square_instance.schema)
        assert plan.count_ops("loop") == 0
        assert plan.count_ops("matmul") == 1, "pinned initialiser must survive pruning"
        _assert_equivalent(expression, square_instance)


# ----------------------------------------------------------------------
# Plan caching
# ----------------------------------------------------------------------
class TestPlanCache:
    def setup_method(self):
        clear_plan_cache()

    def test_same_schema_instances_share_one_plan(self):
        expression = trace("A")
        instances = [
            Instance.from_matrices({"A": random_matrix(8, seed=seed)})
            for seed in range(5)
        ]
        results = []
        for instance in instances:
            results.append(Evaluator(instance).run(expression))
        info = plan_cache_info()
        assert info.misses == 1, "re-evaluation must not re-lower"
        assert info.hits == len(instances) - 1
        for instance, result in zip(instances, results):
            assert np.isclose(
                result[0, 0], np.trace(np.asarray(instance.matrix("A")))
            )

    def test_warm_hits_never_hash_the_expression(self):
        from repro.matlang.ast import Var

        hashed = []

        class CountingVar(Var):
            def __hash__(self):
                hashed.append(self)
                return super().__hash__()

        expression = CountingVar("A") @ CountingVar("A") + CountingVar("A")
        schema = Schema({"A": ("alpha", "alpha")})
        plan = compile_expression(expression, schema)
        hashed.clear()
        assert compile_expression(expression, schema) is plan
        assert not hashed, "a warm hit must not hash the expression tree"
        # An equal but distinct object still hits, through the structural key.
        twin = CountingVar("A") @ CountingVar("A") + CountingVar("A")
        assert compile_expression(twin, schema) is plan
        info = plan_cache_info()
        assert (info.hits, info.misses) == (2, 1)
        clear_plan_cache()
        assert compile_expression(expression, schema) is not plan
        assert plan_cache_info().misses == 1

    def test_plans_are_symbolic_in_the_dimensions(self):
        # One plan serves instances of *different sizes* of the same schema.
        expression = ssum("_v", var("A") @ var("_v"))
        for size in (2, 5, 9):
            instance = Instance.from_matrices({"A": random_matrix(size, seed=size)})
            result = Evaluator(instance).run(expression)
            assert result.shape == (size, 1)
        assert plan_cache_info().misses == 1

    def test_run_typed_hits_the_same_cache_as_run(self, square_instance):
        from repro.matlang.typecheck import annotate

        expression = trace("A")
        typed = annotate(expression, square_instance.schema)
        evaluator = Evaluator(square_instance)
        first = evaluator.run(expression)
        second = evaluator.run_typed(typed)
        assert np.allclose(first, second)
        assert plan_cache_info().misses == 1

    def test_mismatched_run_typed_cannot_poison_the_cache(self):
        # Regression: a tree annotated against a *different* schema used to
        # be cached under the evaluator's schema key, breaking every later
        # correct evaluation of the same expression process-wide.
        from repro.matlang.typecheck import annotate

        expression = ssum("_v", var("A"))
        foreign_schema = Schema({"A": ("m", "m")})
        foreign_typed = annotate(expression, foreign_schema)

        instance = Instance.from_matrices({"A": random_matrix(3, seed=1)})
        evaluator = Evaluator(instance)
        # The mismatched call may fail on its own terms ('m' has no
        # dimension here) — that is the historical run_typed contract.
        with pytest.raises(Exception):
            evaluator.run_typed(foreign_typed)
        # ...but a correct evaluation afterwards must be unaffected.
        result = evaluator.run(expression)  # Sigma_v A = 3 x A over dim 3
        assert np.allclose(result, 3.0 * np.asarray(instance.matrix("A")))

    def test_hand_built_trees_are_lowered_uncached(self, square_instance):
        from repro.matlang.compiler import compile_typed
        from repro.matlang.typecheck import TypedExpression

        typed = TypedExpression(var("A"), ("alpha", "alpha"), ())
        before = plan_cache_info()
        plan = compile_typed(typed, square_instance.schema)
        after = plan_cache_info()
        assert plan.count_ops("load") == 1
        assert after.size == before.size  # nothing stored for unknown provenance

    def test_compiled_workload_runs_across_instances(self):
        schema = Schema({"A": ("alpha", "alpha")})
        workload = CompiledWorkload(trace("A"), schema)
        for seed in range(3):
            matrix = random_matrix(6, seed=seed)
            instance = Instance.from_matrices({"A": matrix})
            result = workload.run(instance)
            assert np.isclose(result[0, 0], np.trace(matrix))
        assert plan_cache_info().misses == 1


# ----------------------------------------------------------------------
# Error behaviour parity with the interpreter
# ----------------------------------------------------------------------
class TestCompiledErrors:
    def test_unconstrained_iterator_raises(self):
        schema = Schema({"A": ("alpha", "alpha"), "B": ("beta", "beta")})
        instance = Instance(
            schema, {"alpha": 2, "beta": 3}, {"A": np.eye(2), "B": np.eye(3)}
        )
        with pytest.raises(EvaluationError):
            Evaluator(instance).run(forloop("v", "X", var("v")))

    def test_shared_binder_name_matches_the_interpreter(self, square_instance):
        # Degenerate but legal: iterator and accumulator share a name.  The
        # interpreter binds the iterator first and the accumulator second
        # into one environment slot, so the accumulator shadows; the
        # compiled path must resolve the name identically.
        expression = forloop("v", "v", var("v"))
        _assert_equivalent(expression, square_instance)
        body = var("v") + ssum("_u", var("_u") @ var("v").T)
        _assert_equivalent(forloop("v", "v", body), square_instance)

    def test_nullary_apply_raises_evaluation_error(self, square_instance):
        from repro.matlang.typecheck import TypedExpression

        typed = TypedExpression(Apply("gt0", ()), ("1", "1"), ())
        with pytest.raises(EvaluationError):
            Evaluator(square_instance).run_typed(typed)

    def test_apply_overflow_raises_semiring_error(self):
        big = np.array([[2**40, 1], [1, 2**40]], dtype=object)
        instance = Instance.from_matrices({"A": big}, semiring=NATURAL)
        with pytest.raises(SemiringError):
            Evaluator(instance).run(apply("mul", var("A"), var("A")))

    def test_results_are_defensive_copies(self, square_instance, square_matrix):
        result = Evaluator(square_instance).run(var("A"))
        result[0, 0] = -999.0
        assert square_instance.matrix("A")[0, 0] == square_matrix[0, 0]


# ----------------------------------------------------------------------
# The sparse boolean execution backend
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy is required for the sparse backend")
class TestSparseBackend:
    def _sparse_instance(self, size=24, seed=2):
        adjacency = random_digraph(size, probability=0.08, seed=seed)
        return Instance.from_matrices({"A": adjacency}, semiring=BOOLEAN)

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: var("A") @ var("A"),
            lambda: transitive_closure_product("A"),
            lambda: shortest_path_matrix("A"),
            lambda: ssum("_v", var("A") @ var("_v")),
            lambda: trace("A"),
            lambda: diag_via_for(ones(var("A"))),
            lambda: transitive_closure_floyd_warshall("A"),
        ],
        ids=[
            "matmul",
            "closure_product",
            "reflexive_closure",
            "row_sums",
            "trace",
            "diag",
            "floyd_warshall",
        ],
    )
    def test_sparse_agrees_with_dense(self, builder):
        instance = self._sparse_instance()
        expression = builder()
        dense = Evaluator(instance).run(expression)
        sparse = Evaluator(instance, backend="sparse").run(expression)
        assert sparse.dtype == np.bool_
        assert np.array_equal(dense, sparse)

    def test_sparse_backend_rejects_non_boolean_semirings(self):
        with pytest.raises(SemiringError):
            backend_for(REAL, "sparse")

    def test_backend_bound_to_wrong_semiring_is_rejected(self):
        instance = self._sparse_instance()
        real_backend = backend_for(REAL, "dense")
        with pytest.raises(SemiringError):
            Evaluator(instance, backend=real_backend)
        workload = CompiledWorkload(
            trace("A"), instance.schema, backend=real_backend
        )
        with pytest.raises(SemiringError):
            workload.run(instance)

    def test_sparse_backend_instance(self):
        backend = backend_for(BOOLEAN, "sparse")
        assert isinstance(backend, SparseBooleanBackend)

    def test_unknown_backend_name(self):
        with pytest.raises(SemiringError):
            backend_for(BOOLEAN, "no-such-backend")
