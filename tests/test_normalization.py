"""Tests for the staged optimizer: normalization, cost-based ordering and
adaptive physical planning.

The normalization property suite runs re-associated / commuted plans against
the reference tree-walk interpreter across every registered semiring, with
the exactness contract the optimizer promises: **bitwise** agreement over
exact semirings (boolean, tropical, integers, naturals, provenance
polynomials) and tolerance agreement over float64, where re-association is
an algebraic identity but not a floating-point one.
"""

import numpy as np
import pytest

from repro.experiments.harness import CompiledWorkload
from repro.experiments.workloads import (
    random_digraph,
    random_integer_matrix,
    random_matrix,
)
from repro.matlang.builder import forloop, ssum, var
from repro.matlang.compiler import (
    DEFAULT_OPTIONS,
    OptimizationOptions,
    clear_plan_cache,
    compile_expression,
)
from repro.matlang.cost import chain_order, symbol_weight
from repro.matlang.evaluator import Evaluator
from repro.matlang.instance import Instance
from repro.matlang.normalize import normalize, structural_key
from repro.matlang.typecheck import annotate
from repro.semiring import BOOLEAN, INTEGER, MAX_PLUS, MIN_PLUS, NATURAL, REAL
from repro.semiring.backends import instance_statistics
from repro.semiring.provenance import PROVENANCE, Polynomial

try:
    import scipy.sparse  # noqa: F401

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised on scipy-less installs
    HAVE_SCIPY = False

#: Semirings whose operations are exact: re-association must be bitwise.
EXACT_SEMIRINGS = [NATURAL, INTEGER, BOOLEAN, MIN_PLUS, MAX_PLUS, PROVENANCE]
ALL_SEMIRINGS = [REAL] + EXACT_SEMIRINGS


def _instance_for(semiring, dimension=4, seed=0):
    """A square instance with A, B, C matrices valid in the carrier."""
    if semiring.name == "boolean":
        mats = [random_digraph(dimension, probability=0.4, seed=seed + i) for i in range(3)]
    elif semiring.name in ("natural", "integer"):
        mats = [random_integer_matrix(dimension, seed=seed + i) for i in range(3)]
    elif semiring.name in ("min_plus", "max_plus"):
        # Integer-valued weights: tropical *times* is float addition, which
        # only re-associates bitwise when the sums stay exactly
        # representable.  (The semiring's min/max *plus* is bitwise for any
        # carrier values.)
        mats = [
            np.round(8 * np.abs(random_matrix(dimension, seed=seed + i)))
            for i in range(3)
        ]
    elif semiring.name == "provenance":
        rng = np.random.default_rng(seed)
        mats = []
        for tag in "abc":
            matrix = np.empty((dimension, dimension), dtype=object)
            for i in range(dimension):
                for j in range(dimension):
                    matrix[i, j] = (
                        Polynomial.variable(f"{tag}{i}{j}") if rng.random() < 0.6 else 0
                    )
            mats.append(matrix)
    else:
        mats = [random_matrix(dimension, seed=seed + i) for i in range(3)]
    return Instance.from_matrices(
        {"A": mats[0], "B": mats[1], "C": mats[2]}, semiring=semiring
    )


class _OpCounter:
    """A profiler hook counting executed ops."""

    def __init__(self):
        self.ops = 0

    def record(self, op, backend_name, values, seconds):
        self.ops += 1

    def observe_instance(self, instance):
        pass


def _agree(semiring, left, right):
    """Bitwise agreement for exact semirings, tolerance for float64."""
    tolerance = 1e-9 if semiring.name == "real" else 0.0
    return semiring.matrices_equal(left, right, tolerance)


A, B, C = var("A"), var("B"), var("C")

#: Families of algebraically equal expressions that differ only in
#: association / operand order; every member must compile to the same value.
VARIANT_FAMILIES = [
    pytest.param([(A @ B) @ C, A @ (B @ C)], id="matmul-assoc"),
    pytest.param([(A + B) + C, A + (B + C), (C + A) + B, B + (C + A)], id="add-assoc-comm"),
    pytest.param(
        [((A @ B) @ C) @ A, (A @ (B @ C)) @ A, A @ (B @ (C @ A))],
        id="matmul-4chain",
    ),
    pytest.param(
        [(A @ B) + (B @ A), (B @ A) + (A @ B)],
        id="add-commute-products",
    ),
    pytest.param(
        [ssum("_v", (A @ B) @ var("_v")), ssum("_v", A @ (B @ var("_v")))],
        id="sum-quantifier-assoc",
    ),
]


class TestNormalizationProperty:
    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
    @pytest.mark.parametrize("variants", VARIANT_FAMILIES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_reassociated_variants_agree_with_interpreter(
        self, semiring, variants, seed
    ):
        instance = _instance_for(semiring, dimension=3, seed=seed)
        interpreter = Evaluator(instance, compile=False)
        compiled = Evaluator(instance)
        results = [compiled.run(expression) for expression in variants]
        references = [interpreter.run(expression) for expression in variants]
        for result, reference in zip(results, references):
            assert _agree(semiring, result, reference)
        # All re-associated variants collapse to one canonical plan, so the
        # compiled results agree *bitwise* with each other — even over
        # float64, where a shared evaluation order makes rounding identical.
        for other in results[1:]:
            assert semiring.matrices_equal(results[0], other, 0.0)

    @pytest.mark.parametrize("variants", VARIANT_FAMILIES)
    def test_variants_share_one_plan(self, variants):
        schema = _instance_for(REAL).schema
        plans = [compile_expression(expression, schema) for expression in variants]
        canonical = plans[0].describe()
        for plan in plans[1:]:
            assert plan.describe() == canonical

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
    def test_reassociated_sum_quantifier_fuses_loop_free(self, semiring):
        """The ISSUE's motivating case: ``Sigma_v A . (B . v)``."""
        instance = _instance_for(semiring, dimension=4, seed=3)
        expression = ssum("_v", A @ (B @ var("_v")))
        plan = compile_expression(expression, instance.schema)
        assert plan.count_ops("loop") == 0, plan.explain()
        result = Evaluator(instance).run(expression)
        reference = Evaluator(instance, compile=False).run(expression)
        assert _agree(semiring, result, reference)


class TestChainAwareFusion:
    """The widened quantifier rules fire on chains of any association."""

    def _plan(self, expression):
        return compile_expression(expression, _instance_for(REAL).schema)

    def test_col_sums_through_chain(self):
        plan = self._plan(ssum("_v", (var("_v").T @ A) @ B))
        assert plan.count_ops("loop") == 0
        assert plan.count_ops("ones_type") == 1

    def test_trace_of_chain(self):
        expression = ssum("_v", var("_v").T @ (A @ (B @ var("_v"))))
        plan = self._plan(expression)
        assert plan.count_ops("loop") == 0
        assert plan.count_ops("diagonal") == 1
        instance = _instance_for(REAL, dimension=4, seed=5)
        result = Evaluator(instance).run(expression)
        reference = Evaluator(instance, compile=False).run(expression)
        assert _agree(REAL, result, reference)
        # 1^T . diagonal(A . B): two loads, the product, the diagonal and
        # the sum (the ones row is a frame value).
        counter = _OpCounter()
        for _ in range(2):
            counter.ops = 0
            Evaluator(instance, profiler=counter).run(expression)
        assert counter.ops == 5

    def test_selector_pair_mid_chain_vanishes(self):
        expression = ssum("_v", (A @ var("_v")) @ (var("_v").T @ B))
        plan = self._plan(expression)
        assert plan.count_ops("loop") == 0
        # Sigma_v A.v.v^T.B = A.B: two loads and one matmul, nothing else.
        assert plan.count_ops("matmul") == 1
        instance = _instance_for(REAL, dimension=4, seed=5)
        result = Evaluator(instance).run(expression)
        reference = Evaluator(instance, compile=False).run(expression)
        assert _agree(REAL, result, reference)

    def test_iterator_inner_product_counts_dimension(self):
        expression = ssum("_v", var("_v").T @ var("_v"))
        instance = _instance_for(NATURAL, dimension=5, seed=1)
        plan = compile_expression(expression, instance.schema)
        assert plan.count_ops("loop") == 0
        result = Evaluator(instance).run(expression)
        assert result[0, 0] == 5
        reference = Evaluator(instance, compile=False).run(expression)
        assert _agree(NATURAL, result, reference)

    def test_for_loop_sum_recognised_through_flattened_adds(self):
        # ``for v, X. (A.v + (X + A^T.v))``: the accumulator is one summand
        # of a flattened chain — still the Sigma desugaring, still fuses.
        body = (A @ var("_v")) + (var("_X") + (A.T @ var("_v")))
        expression = forloop("_v", "_X", body)
        instance = _instance_for(REAL, dimension=4, seed=6)
        plan = compile_expression(expression, instance.schema)
        assert plan.count_ops("loop") == 0
        result = Evaluator(instance).run(expression)
        reference = Evaluator(instance, compile=False).run(expression)
        assert _agree(REAL, result, reference)


class TestNormalizePass:
    def test_canonical_form_is_left_deep_and_sorted(self):
        schema = _instance_for(REAL).schema
        typed = annotate((B + A) + C, schema)
        normalized, notes = normalize(typed)
        # Left-deep spine with operands in canonical (sorted) order.
        from repro.matlang.ast import Add, Var

        spine = normalized.expression
        assert isinstance(spine, Add) and isinstance(spine.right, Var)
        assert notes and "addition" in notes[0]

    def test_structural_key_is_deterministic_and_discriminating(self):
        assert structural_key(A @ B) == structural_key(var("A") @ var("B"))
        assert structural_key(A @ B) != structural_key(B @ A)
        assert sorted([structural_key(B), structural_key(A)]) == [
            structural_key(A),
            structural_key(B),
        ]

    def test_normalization_enables_cse_across_associations(self):
        schema = _instance_for(REAL).schema
        expression = ((A @ B) @ C) + (A @ (B @ C))
        plan = compile_expression(expression, schema)
        # Both summands canonicalize to one chain: two matmuls, one add of
        # the same register with itself.
        assert plan.count_ops("matmul") == 2
        add_ops = [op for op in plan.walk_ops() if op.opcode == "add"]
        assert len(add_ops) == 1
        assert add_ops[0].inputs[0] == add_ops[0].inputs[1]

    def test_disabled_stages_preserve_written_order(self):
        schema = _instance_for(REAL).schema
        options = OptimizationOptions(normalize=False, reorder=False)
        written = compile_expression((A @ B) @ C, schema, options)
        assert written.notes == ()
        assert options != DEFAULT_OPTIONS

    def test_options_key_the_plan_cache(self):
        clear_plan_cache()
        schema = _instance_for(REAL).schema.with_variable("v", ("alpha", "1"))
        expression = (A @ B) @ var("v")
        default = compile_expression(expression, schema)
        written = compile_expression(
            expression, schema, OptimizationOptions(normalize=False, reorder=False)
        )
        assert default.describe() != written.describe()
        # And both entries are cached independently.
        assert compile_expression(expression, schema) is default
        assert (
            compile_expression(
                expression, schema, OptimizationOptions(normalize=False, reorder=False)
            )
            is written
        )


class TestCostModel:
    def test_symbol_weights(self):
        assert symbol_weight("1") == 1
        assert symbol_weight("alpha") == symbol_weight("beta") > 1

    def test_chain_order_prefers_vector_first(self):
        # A (n x n) . B (n x n) . v (n x 1): optimal splits after A.
        cost, splits = chain_order([("a", "a"), ("a", "a"), ("a", "1")])
        assert splits[(0, 2)] == 0  # A . (B . v)
        worst, _ = chain_order([("a", "a"), ("a", "a")])
        assert cost < worst + symbol_weight("a")  # quadratic, not cubic

    def test_rectangular_chain_is_reordered_in_the_plan(self):
        instance = _instance_for(REAL, dimension=6)
        schema = instance.schema.with_variable("v", ("alpha", "1"))
        expression = (A @ B) @ var("v")
        plan = compile_expression(expression, schema)
        assert any("re-associated" in note for note in plan.notes)
        # The second matmul consumes the first: the plan multiplies B.v
        # (vector) before A touches anything.
        matmuls = [op for op in plan.ops if op.opcode == "matmul"]
        assert matmuls[0].type[1] == "1" and matmuls[1].type[1] == "1"

    def test_square_chains_keep_canonical_order(self):
        schema = _instance_for(REAL).schema
        plan = compile_expression((A @ B) @ C, schema)
        assert not any("re-associated" in note for note in plan.notes)

    @pytest.mark.parametrize(
        "name",
        [
            "transitive_closure_floyd_warshall",
            "triangle_count",
            "four_clique_count",
            "plu_upper",
            "csanky_inverse",
        ],
    )
    def test_rebuilt_chains_share_identical_products(self, name):
        # Reordered chains over shared leaves used to emit one matmul per
        # product even when two products were identical (four_clique_count
        # multiplied the same pair twice in its innermost body).
        from repro import stdlib

        def bodies(plan):
            yield plan
            for op in plan.ops:
                if op.body is not None:
                    yield from bodies(op.body)

        schema = Instance.from_matrices({"A": np.eye(2)}).schema
        plan = compile_expression(getattr(stdlib, name)(), schema)
        for body in bodies(plan):
            pure = [op for op in body.ops if op.opcode != "loop"]
            keys = [(op.opcode, op.inputs, op.name, op.value, op.symbol, op.type) for op in pure]
            assert len(set(keys)) == len(keys), name


class TestPhysicalPlanning:
    def _sparse_instance(self, size=128, cycle=8):
        adjacency = np.zeros((size, size), dtype=bool)
        for start in range(0, size, cycle):
            width = min(cycle, size - start)
            for offset in range(width):
                adjacency[start + offset, start + (offset + 1) % width] = True
        return Instance.from_matrices({"A": adjacency}, semiring=BOOLEAN)

    def test_statistics_profile_density(self):
        instance = self._sparse_instance(size=16, cycle=4)
        stats = instance_statistics(instance)
        assert stats.semiring == "boolean"
        assert stats.max_dimension == 16
        assert stats.density == pytest.approx(16 / 256)

    def test_dense_semirings_are_not_profiled(self):
        stats = instance_statistics(_instance_for(REAL))
        assert stats.density is None

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy required for sparse")
    def test_adaptive_evaluator_matches_pinned_dense(self):
        instance = self._sparse_instance()
        expression = var("A") @ (var("A") @ var("A"))
        adaptive = Evaluator(instance)
        assert adaptive.backend is None  # deferred to physical planning
        pinned = Evaluator(instance, backend="dense")
        assert pinned.backend is not None
        assert np.array_equal(adaptive.run(expression), pinned.run(expression))

    def test_explain_reports_all_three_stages(self):
        instance = self._sparse_instance()
        plan = compile_expression(
            ssum("_v", var("A") @ (var("A") @ var("_v"))), instance.schema
        )
        report = plan.explain(instance=instance)
        assert "plan:" in report
        assert "logical optimizer:" in report
        assert "physical plan:" in report
        for note in plan.notes:
            assert note in report

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy required for sparse")
    def test_compiled_workload_adaptive_selection(self):
        instance = self._sparse_instance()
        workload = CompiledWorkload(var("A") @ var("A"), instance.schema)
        assert workload.adaptive
        assert workload.physical(instance).backend.name == "sparse"
        pinned = CompiledWorkload(var("A") @ var("A"), instance.schema, backend="dense")
        assert not pinned.adaptive
        assert np.array_equal(workload.run(instance), pinned.run(instance))
