"""Per-op physical planning, conversion ops, and measured-cost feedback.

Covers the PR-6 pipeline end to end:

* **per-op assignment** — :func:`repro.semiring.backends.plan_physical`
  tags each plan op with a backend and inserts explicit ``to_dense`` /
  ``to_sparse`` conversion ops at representation boundaries, while uniform
  outcomes return the *original* plan object so identity-keyed caches and
  batch grouping keep working;
* **mixed-execution equivalence** — a sparse-prefix/dense-epilogue plan is
  entrywise identical to pinned pure-dense execution across every
  registered semiring, conversion ops round-trip exactly, and the int64
  overflow discipline (exact-fold fallback, carrier check) survives inside
  a tagged, conversion-carrying plan;
* **profile feedback** — profile updates bump the generation, which
  invalidates the compiler's plan cache and every physical-plan cache, a
  calibrated profile can flip planning decisions, the execution
  profiler fits observed timings back into a profile, and installing that
  refit invalidates a serving engine's memo and plans;
* **calibration CLI** — ``python -m repro.calibrate`` runs the sweep,
  writes the JSON profile, and the written profile auto-loads;
* **ragged serving** — ``CoalescingPolicy(ragged=True)`` merges near-miss
  dimension groups into zero-padded batches with results sliced back to
  true shape, matching sequential evaluation.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.exceptions import EvaluationError, SemiringError
from repro.matlang.builder import prod, var
from repro.matlang.compiler import clear_plan_cache, compile_expression
from repro.matlang.evaluator import Evaluator, evaluate, evaluate_batch, plan_chunks
from repro.matlang.functions import default_registry
from repro.matlang.instance import Instance
from repro.matlang.ir import Plan, execute_plan, execute_plan_batch, serialize_plan
from repro.profile import (
    DEFAULT_PROFILE,
    CostProfile,
    ExecutionProfiler,
    active_profile,
    profile_generation,
    set_active_profile,
)
from repro.profile.calibration import main as calibrate_main
from repro.profile.calibration import run_calibration
from repro.semiring import BOOLEAN, INTEGER, MAX_PLUS, MIN_PLUS, NATURAL, REAL
from repro.semiring.backends import AUTO_SPARSE_MIN_DIMENSION, backend_for, plan_physical
from repro.semiring.provenance import PROVENANCE, Polynomial
from repro.service import CoalescingPolicy, Engine
from repro.stdlib import transitive_closure_product

try:
    import scipy.sparse  # noqa: F401

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised on scipy-less installs
    HAVE_SCIPY = False

needs_scipy = pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")

ALL_SEMIRINGS = [REAL, NATURAL, INTEGER, BOOLEAN, MIN_PLUS, MAX_PLUS, PROVENANCE]

#: The canonical mixed workload: a sparse-friendly reachability prefix
#: (iterated product over a sparse adjacency matrix) feeding a dense
#: epilogue (sum and product against dense matrices).
MIXED_EXPRESSION = (prod("_v", var("A")) + var("D")) @ var("E")


@pytest.fixture(autouse=True)
def _restore_profile():
    """Tests here install profiles; always restore the built-in default."""
    yield
    set_active_profile(DEFAULT_PROFILE)


def _cycles_matrix(size: int, cycle: int = 8) -> np.ndarray:
    """Disjoint ``cycle``-cycles: sparse, with structured iterated products."""
    adjacency = np.zeros((size, size), dtype=bool)
    for start in range(0, size - cycle + 1, cycle):
        for offset in range(cycle):
            adjacency[start + offset, start + (offset + 1) % cycle] = True
    return adjacency


def _mixed_instance(semiring, size: int, seed: int = 0) -> Instance:
    """An instance with a sparse ``A`` and dense ``D`` / ``E``."""
    rng = np.random.default_rng(seed)
    sparse_mask = _cycles_matrix(size)
    dense_mask_d = rng.random((size, size)) < 0.9
    dense_mask_e = rng.random((size, size)) < 0.9
    if semiring.name == "boolean":
        matrices = {"A": sparse_mask, "D": dense_mask_d, "E": dense_mask_e}
    elif semiring.name in ("natural", "integer"):
        matrices = {
            "A": sparse_mask.astype(np.int64),
            "D": dense_mask_d.astype(np.int64),
            "E": dense_mask_e.astype(np.int64),
        }
    elif semiring.name in ("min_plus", "max_plus"):
        weights = np.round(rng.random((size, size)) * 9, 3)
        zero = semiring.zero

        def weighted(mask):
            matrix = np.full((size, size), zero)
            matrix[mask] = weights[mask]
            return matrix

        matrices = {
            "A": weighted(sparse_mask),
            "D": weighted(dense_mask_d),
            "E": weighted(dense_mask_e),
        }
    elif semiring.name == "provenance":

        def tagged(mask, label):
            matrix = np.empty((size, size), dtype=object)
            for i in range(size):
                for j in range(size):
                    matrix[i, j] = (
                        Polynomial.variable(f"{label}_{i}_{j}") if mask[i, j] else 0
                    )
            return matrix

        matrices = {
            "A": tagged(sparse_mask, "a"),
            "D": tagged(dense_mask_d, "d"),
            "E": tagged(dense_mask_e, "e"),
        }
    else:
        values = rng.standard_normal((size, size))
        matrices = {
            "A": np.where(sparse_mask, values, 0.0),
            "D": np.where(dense_mask_d, values, 0.0),
            "E": np.where(dense_mask_e, values, 0.0),
        }
    return Instance.from_matrices(matrices, semiring=semiring)


def _entrywise_equal(left, right) -> bool:
    left = np.asarray(left)
    right = np.asarray(right)
    if left.shape != right.shape:
        return False
    if left.dtype == object or right.dtype == object:
        return all(left[index] == right[index] for index in np.ndindex(left.shape))
    return bool(np.array_equal(left, right))


# ----------------------------------------------------------------------
# Per-op assignment
# ----------------------------------------------------------------------
@needs_scipy
class TestPerOpAssignment:
    def test_mixed_plan_tags_ops_and_inserts_conversions(self):
        instance = _mixed_instance(BOOLEAN, 128)
        plan = compile_expression(MIXED_EXPRESSION, instance.schema)
        physical = plan_physical(plan, instance, None)
        assert physical.mixed
        # mixed CSR/dense plans batch since the block-diagonal lane landed
        assert physical.batch_mode == "mixed"
        assert set(physical.backends) == {"dense", "sparse"}
        tags = {op.backend for op in physical.plan.ops}
        assert tags == {"dense", "sparse"}
        conversions = [
            op for op in physical.plan.ops if op.opcode in ("to_dense", "to_sparse")
        ]
        assert conversions, "a mixed plan must carry explicit conversion ops"
        assert any("per-op physical planning" in note for note in physical.notes)
        assert any("conversion" in note for note in physical.notes)

    def test_a_mixed_assignment_reuses_one_tagged_plan(self):
        # The serve-mixed closure shape: n=128, density 0.004, batches of 8.
        rng = np.random.default_rng(5)
        instances = []
        for _ in range(8):
            adjacency = rng.random((128, 128)) < 0.004
            np.fill_diagonal(adjacency, False)
            instances.append(Instance.from_matrices({"A": adjacency}, semiring=BOOLEAN))
        expression = transitive_closure_product()
        plan = compile_expression(expression, instances[0].schema)
        first = plan_physical(plan, instances[0], None, batch_size=8)
        second = plan_physical(plan, instances[0], None, batch_size=8)
        assert first.mixed
        assert second.plan is first.plan
        assert second.notes == first.notes
        # A copy of the base plan holds no memo, so it tags afresh.
        fresh = plan_physical(dataclasses.replace(plan), instances[0], None, batch_size=8)
        assert fresh.plan is not first.plan
        assert serialize_plan(fresh.plan) == serialize_plan(first.plan)
        dense = [Evaluator(instance, backend="dense").run(expression) for instance in instances]
        for _ in range(2):
            for result, reference in zip(evaluate_batch(expression, instances), dense):
                assert np.array_equal(result, reference)

    def test_closure_fill_in_flips_moderately_dense_power_to_dense(self):
        # A closure (power op) over a moderately dense matrix fills in to
        # dense within a squaring or two; the per-step density ladder must
        # surface that blowup instead of costing every step at the input
        # density, which under-costed sparse and picked it anyway.
        rng = np.random.default_rng(0)
        instance = Instance.from_matrices(
            {"A": rng.random((256, 256)) < 0.1}, semiring=BOOLEAN
        )
        plan = compile_expression(prod("_v", var("A")), instance.schema)
        physical = plan_physical(plan, instance, None)
        assert not physical.mixed
        assert physical.default_tag == "dense"

    def test_closure_fill_in_keeps_permutation_structured_power_sparse(self):
        # A one-entry-per-row matrix sits at the ``d * n == 1`` fixed point
        # of the fill rule: squaring never fills it in, so the ladder must
        # keep the closure on the sparse backend.
        instance = Instance.from_matrices(
            {"A": _cycles_matrix(256)}, semiring=BOOLEAN
        )
        plan = compile_expression(prod("_v", var("A")), instance.schema)
        physical = plan_physical(plan, instance, None)
        assert not physical.mixed
        assert physical.default_tag == "sparse"

    def test_closure_fill_in_keeps_reflexive_cycles_sparse(self):
        # A reflexive closure input (cycles + I, density 2/n) carries a
        # one-entry-per-row backbone on top of the permutation; the fill
        # rule must discount that backbone before squaring — diagonal and
        # permutation structure composes to more structure, not to
        # quadratic fill — or the ladder misreads branching factor 2 and
        # saturates a closure that genuinely stays sparse.
        adjacency = _cycles_matrix(256) | np.eye(256, dtype=bool)
        instance = Instance.from_matrices({"A": adjacency}, semiring=BOOLEAN)
        plan = compile_expression(prod("_v", var("A")), instance.schema)
        physical = plan_physical(plan, instance, None)
        assert not physical.mixed
        assert physical.default_tag == "sparse"

    def test_uniform_outcome_returns_the_original_plan_object(self):
        # Dense instance: everything lands dense, and the planner hands the
        # caller's plan object back untouched (identity-keyed caches rely on
        # this).
        rng = np.random.default_rng(1)
        dense = Instance.from_matrices(
            {"A": rng.random((96, 96)) < 0.7}, semiring=BOOLEAN
        )
        plan = compile_expression(var("A") @ var("A"), dense.schema)
        physical = plan_physical(plan, dense, None)
        assert physical.plan is plan
        assert not physical.mixed
        assert physical.backend.name == "dense"
        assert any("density" in note for note in physical.notes)

        # Uniformly sparse: same object-identity contract, sparse default.
        sparse = Instance.from_matrices(
            {"A": _cycles_matrix(256)}, semiring=BOOLEAN
        )
        physical = plan_physical(plan, sparse, None)
        assert physical.plan is plan
        assert not physical.mixed
        assert physical.backend.name == "sparse"

        # The same sparse structure below the size threshold stays dense.
        small = Instance.from_matrices(
            {"A": _cycles_matrix(AUTO_SPARSE_MIN_DIMENSION // 2)}, semiring=BOOLEAN
        )
        physical = plan_physical(plan, small, None)
        assert physical.plan is plan
        assert physical.backend.name == "dense"
        assert any("below the sparse threshold" in note for note in physical.notes)

    def test_pinned_backend_short_circuits(self):
        instance = _mixed_instance(BOOLEAN, 128)
        plan = compile_expression(MIXED_EXPRESSION, instance.schema)
        physical = plan_physical(plan, instance, "dense")
        assert physical.plan is plan
        assert physical.backend.name == "dense"
        assert any("pinned by the caller" in note for note in physical.notes)

    def test_batch_executor_requires_backend_map_for_tagged_plans(self):
        instance = _mixed_instance(BOOLEAN, 128)
        plan = compile_expression(MIXED_EXPRESSION, instance.schema)
        physical = plan_physical(plan, instance, None)
        assert physical.mixed
        from repro.semiring.backends import BatchedDenseBackend

        backend = BatchedDenseBackend(BOOLEAN, 2)
        with pytest.raises(EvaluationError, match="backend map"):
            execute_plan_batch(
                physical.plan, backend, [instance, instance], default_registry()
            )
        # With the matching batched backend map the mixed plan executes on
        # the whole batch, conversions included, and matches per-instance.
        backends = physical.batched_backends(2)
        value = execute_plan_batch(
            physical.plan,
            backends[physical.default_tag],
            [instance, instance],
            default_registry(),
            backends=backends,
        )
        result_tag = physical.plan.ops[physical.plan.result].backend
        stacked = backends[result_tag or physical.default_tag].to_dense(value)
        want = evaluate(MIXED_EXPRESSION, instance)
        assert _entrywise_equal(stacked[0], want)
        assert _entrywise_equal(stacked[1], want)

    def test_explain_reports_assignments_and_conversions(self):
        instance = _mixed_instance(BOOLEAN, 128)
        plan = compile_expression(MIXED_EXPRESSION, instance.schema)
        report = plan.explain(instance=instance)
        assert "physical plan:" in report
        assert "(inserted conversion)" in report
        assert ": sparse" in report
        assert ": dense" in report
        assert "per-op physical planning" in report


# ----------------------------------------------------------------------
# Mixed-execution equivalence
# ----------------------------------------------------------------------
class TestMixedExecutionEquivalence:
    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
    def test_adaptive_matches_pinned_dense(self, semiring):
        # Provenance polynomials make 128^3 object matmuls prohibitively
        # slow; the adaptive plan is dense there anyway (not sparse-capable),
        # so a small instance exercises the same code path.
        size = 16 if semiring.name == "provenance" else 128
        instance = _mixed_instance(semiring, size)
        adaptive = evaluate(MIXED_EXPRESSION, instance)
        pinned = Evaluator(instance, backend="dense").run(MIXED_EXPRESSION)
        assert _entrywise_equal(adaptive, pinned)

    @needs_scipy
    @pytest.mark.parametrize(
        "semiring", [BOOLEAN, MIN_PLUS, MAX_PLUS], ids=lambda s: s.name
    )
    def test_sparse_capable_semirings_actually_mix(self, semiring):
        instance = _mixed_instance(semiring, 128)
        plan = compile_expression(MIXED_EXPRESSION, instance.schema)
        physical = plan_physical(plan, instance, None)
        assert physical.mixed, (
            f"the {semiring.name} sparse-prefix/dense-epilogue workload "
            "should split across backends"
        )

    @needs_scipy
    def test_conversion_round_trip_is_exact(self):
        rng = np.random.default_rng(3)
        matrix = rng.random((64, 64)) < 0.2
        dense = backend_for(BOOLEAN, "dense")
        sparse = backend_for(BOOLEAN, "sparse")
        # backend-level round trips
        assert _entrywise_equal(
            dense.to_dense(dense.from_dense(sparse.to_dense(sparse.from_dense(matrix)))),
            matrix,
        )
        # plan-level: a to_sparse / to_dense pair around a load is identity
        instance = Instance.from_matrices({"A": matrix}, semiring=BOOLEAN)
        typed = ("n", "n")
        plan = Plan(
            ops=(
                dataclasses.replace(
                    compile_expression(var("A"), instance.schema).ops[0],
                    backend="dense",
                ),
                # dense -> sparse
                type(compile_expression(var("A"), instance.schema).ops[0])(
                    opcode="to_sparse", inputs=(0,), type=typed,
                    name="dense", backend="sparse",
                ),
                # sparse -> dense
                type(compile_expression(var("A"), instance.schema).ops[0])(
                    opcode="to_dense", inputs=(1,), type=typed,
                    name="sparse", backend="dense",
                ),
            ),
            result=2,
        )
        value = execute_plan(
            plan,
            dense,
            instance,
            default_registry(),
            backends={"dense": dense, "sparse": sparse},
        )
        assert _entrywise_equal(dense.to_dense(value), matrix)

    def test_overflow_fallback_inside_a_tagged_plan(self):
        # inner * max^2 overflows the a-priori int64 bound, so the natural
        # kernel must take its exact-fold fallback — inside a plan running
        # through the per-op dispatch machinery (tags + a conversion op).
        matrix = np.zeros((4, 4), dtype=np.int64)
        np.fill_diagonal(matrix, 2**31)
        instance = Instance.from_matrices({"A": matrix}, semiring=NATURAL)
        plan = compile_expression(var("A") @ var("A"), instance.schema)
        dense = backend_for(NATURAL, "dense")
        tagged_ops = [dataclasses.replace(op, backend="dense") for op in plan.ops]
        # splice a dense->dense conversion (a degenerate but legal boundary)
        # between the loads and the matmul, remapping the matmul's inputs
        load_count = len(tagged_ops) - 1
        conversion = dataclasses.replace(
            tagged_ops[0],
            opcode="to_dense",
            inputs=(0,),
            name="dense",
            backend="dense",
            value=None,
        )
        matmul = tagged_ops[-1]
        remapped = dataclasses.replace(
            matmul,
            inputs=tuple(
                load_count if register == 0 else register
                for register in matmul.inputs
            ),
        )
        mixed_plan = Plan(
            ops=tuple(tagged_ops[:-1]) + (conversion, remapped),
            result=load_count + 1,
        )
        value = execute_plan(
            mixed_plan, dense, instance, default_registry(),
            backends={"dense": dense},
        )
        expected = matrix.astype(object) @ matrix.astype(object)
        assert _entrywise_equal(dense.to_dense(value), expected.astype(np.int64))

        # A result that does not fit int64 must still raise, not wrap.
        oversized = np.full((4, 4), 2**32, dtype=np.int64)
        poisoned = Instance.from_matrices({"A": oversized}, semiring=NATURAL)
        with pytest.raises(SemiringError):
            execute_plan(
                mixed_plan, dense, poisoned, default_registry(),
                backends={"dense": dense},
            )

    def test_missing_backend_tag_is_an_evaluation_error(self):
        instance = _mixed_instance(REAL, 16)
        plan = compile_expression(var("A") @ var("D"), instance.schema)
        tagged = Plan(
            ops=tuple(
                dataclasses.replace(op, backend="sparse") for op in plan.ops
            ),
            result=plan.result,
        )
        dense = backend_for(REAL, "dense")
        with pytest.raises(EvaluationError, match="backend map"):
            execute_plan(
                tagged, dense, instance, default_registry(),
                backends={"dense": dense},
            )


# ----------------------------------------------------------------------
# Profile feedback
# ----------------------------------------------------------------------
class TestProfileFeedback:
    def test_profile_update_invalidates_the_plan_cache(self):
        clear_plan_cache()
        schema = _mixed_instance(REAL, 8).schema
        first = compile_expression(MIXED_EXPRESSION, schema)
        assert compile_expression(MIXED_EXPRESSION, schema) is first
        set_active_profile(DEFAULT_PROFILE.bumped(source="test"))
        recompiled = compile_expression(MIXED_EXPRESSION, schema)
        assert recompiled is not first
        assert compile_expression(MIXED_EXPRESSION, schema) is recompiled

    def test_profile_update_replans_the_evaluator_cache(self):
        instance = _mixed_instance(REAL, 16)
        evaluator = Evaluator(instance)
        plan = compile_expression(MIXED_EXPRESSION, instance.schema)
        before = evaluator.physical(plan)
        assert evaluator.physical(plan) is before
        set_active_profile(DEFAULT_PROFILE.bumped(source="test"))
        after = evaluator.physical(plan)
        assert after is not before

    @needs_scipy
    def test_calibrated_profile_changes_a_planning_decision(self):
        instance = _mixed_instance(BOOLEAN, 128)
        plan = compile_expression(MIXED_EXPRESSION, instance.schema)
        default_physical = plan_physical(plan, instance, None)
        assert default_physical.mixed

        # A profile that measured sparse execution as ruinously slow must
        # drive the same workload fully dense.
        sparse_hostile = DEFAULT_PROFILE.bumped(
            source="calibrated",
            unit_costs={
                **DEFAULT_PROFILE.unit_costs,
                "sparse.matmul": 1e9,
                "sparse.elementwise": 1e9,
                "sparse.construct": 1e9,
            },
        )
        hostile_physical = plan_physical(plan, instance, None, profile=sparse_hostile)
        assert not hostile_physical.mixed
        assert hostile_physical.backend.name == "dense"
        assert hostile_physical.plan is plan

    def test_execution_profiler_fits_observed_timings(self):
        instance = _mixed_instance(REAL, 32)
        profiler = ExecutionProfiler()
        evaluator = Evaluator(instance, profiler=profiler)
        for _ in range(ExecutionProfiler.MIN_SAMPLES + 2):
            evaluator.run(MIXED_EXPRESSION)
        assert profiler.sample_count() > 0
        fitted = profiler.fit(base=DEFAULT_PROFILE)
        assert fitted.version > DEFAULT_PROFILE.version
        assert fitted.source == "fitted"
        assert fitted.unit_costs["dense.matmul"] > 0.0
        assert fitted.symbol_sizes  # observe_instance fed the EWMA

    def test_explicit_refit_reaches_a_serving_engine(self):
        # The refit recipe the Engine documents in place of serving
        # feedback: profile an Evaluator, fit over the active profile,
        # install it.  A running engine must stop answering from results
        # and plans made under the old profile.
        instance = _mixed_instance(REAL, 24)
        schema = instance.schema
        with Engine(memoize=True, backend=backend_for(REAL, "dense")) as engine:
            served = engine.submit(MIXED_EXPRESSION, instance).result(30)
            engine.submit(MIXED_EXPRESSION, instance).result(30)
            assert engine.stats().memo_hits == 1
            plan = compile_expression(MIXED_EXPRESSION, schema)
            profiler = ExecutionProfiler()
            evaluator = Evaluator(instance, profiler=profiler)
            for _ in range(ExecutionProfiler.MIN_SAMPLES + 2):
                evaluator.run(MIXED_EXPRESSION)
            generation = profile_generation()
            set_active_profile(profiler.fit(base=active_profile()))
            assert profile_generation() == generation + 1
            assert active_profile().source == "fitted"
            assert compile_expression(MIXED_EXPRESSION, schema) is not plan
            refit = engine.submit(MIXED_EXPRESSION, instance).result(30)
            snapshot = engine.stats()
        assert snapshot.memo_hits == 1  # the memoized result was not reused
        assert snapshot.memo_misses == 2
        assert np.array_equal(refit, served)

    def test_execution_profiler_counts_batched_matmul_work(self):
        # A (B, r, k) @ (B, k, c) stack multiplies B r x k by k x c matrices.
        from repro.matlang.ir import PlanOp

        profiler = ExecutionProfiler()
        values = [np.ones((4, 3, 5)), np.ones((4, 5, 7)), np.ones((4, 3, 7))]
        profiler.record(PlanOp("matmul", (0, 1)), "batched", values, 1e-3)
        profiler.record(PlanOp("matmul", (0, 1)), "dense", [v[0] for v in values], 1e-3)
        samples = profiler._samples  # the reservoirs: (work units, seconds)
        assert list(samples["batched.matmul"]) == [(4 * 3 * 5 * 7, 1e-3)]
        assert list(samples["dense.matmul"]) == [(3 * 5 * 7, 1e-3)]


# ----------------------------------------------------------------------
# Calibration CLI
# ----------------------------------------------------------------------
class TestCalibration:
    def test_run_calibration_produces_a_usable_profile(self):
        profile = run_calibration(sizes=(16, 32), densities=(0.1, 0.6), repeats=1)
        assert isinstance(profile, CostProfile)
        assert profile.source == "calibrated"
        assert profile.unit_costs["dense.matmul"] > 0.0
        assert 0.0 < profile.sparse_max_density <= 0.6
        assert profile.sparse_min_dimension >= 1

    def test_cli_dry_run_prints_without_writing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_PATH", str(tmp_path / "profile.json"))
        assert calibrate_main(["--quick", "--repeats", "1", "--dry-run"]) == 0
        output = capsys.readouterr().out
        assert "calibrated cost profile" in output
        assert "dry run: profile not written" in output
        assert not (tmp_path / "profile.json").exists()

    def test_cli_writes_and_the_profile_auto_loads(self, tmp_path, monkeypatch):
        target = tmp_path / "profile.json"
        monkeypatch.setenv("REPRO_PROFILE_PATH", str(target))
        assert calibrate_main(["--quick", "--repeats", "1"]) == 0
        assert target.is_file()
        written = CostProfile.load(target)
        assert written.source == "calibrated"
        # Auto-load: a fresh process would pick the file up on first use.
        import repro.profile as profile_module

        monkeypatch.setattr(profile_module, "_ACTIVE", None)
        loaded = profile_module.active_profile()
        assert loaded.source == "calibrated"
        assert loaded.unit_costs == written.unit_costs


@pytest.mark.parametrize("semiring", [REAL, BOOLEAN], ids=lambda s: s.name)
def test_gates_that_need_no_profile_come_before_profiling(monkeypatch, semiring):
    """A plan no gate lets go sparse never profiles its instance."""
    import repro.semiring.backends as backends_module

    instance = _mixed_instance(semiring, 16)
    expression = var("A") @ var("D")
    expected = evaluate(expression, instance)

    def refuse(instance):
        raise AssertionError("profiled an instance that cannot go sparse")

    monkeypatch.setattr(backends_module, "instance_statistics", refuse)
    plan = compile_expression(expression, instance.schema)
    physical = plan_physical(plan, instance, None)
    if semiring is REAL:
        reason = "no sparse representation for semiring 'real'"
    else:
        threshold = int(active_profile().sparse_min_dimension)
        reason = f"largest dimension 16 is below the sparse threshold {threshold}"
    assert physical.notes == (f"auto-selected dense: {reason}",)
    assert np.array_equal(evaluate(expression, instance), expected)


# ----------------------------------------------------------------------
# Ragged serving
# ----------------------------------------------------------------------
class TestRaggedServing:
    @staticmethod
    def _instance(size: int, seed: int) -> Instance:
        rng = np.random.default_rng(seed)
        return Instance.from_matrices(
            {"A": rng.random((size, size)), "B": rng.random((size, size))},
            semiring=REAL,
        )

    EXPRESSION = var("A") @ var("B") + var("A")

    def test_ragged_results_match_sequential(self):
        instances = [
            self._instance(size, seed)
            for seed, size in enumerate((15, 16, 17, 15, 16, 17, 40))
        ]
        expected = [evaluate(self.EXPRESSION, inst) for inst in instances]
        with Engine(policy=CoalescingPolicy(max_delay=0.05, ragged=True)) as engine:
            futures = engine.submit_many(
                (self.EXPRESSION, inst) for inst in instances
            )
            results = [future.result(30) for future in futures]
        for got, want in zip(results, expected):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_merge_folds_near_miss_groups_and_pads(self):
        instances = [self._instance(size, size) for size in (15, 16, 17)]
        plan = compile_expression(self.EXPRESSION, instances[0].schema)
        (chunk,) = plan_chunks(plan, instances, ragged=True)
        assert chunk.positions == [0, 1, 2]
        assert chunk.lane == "dense"
        assert chunk.target["alpha"] == 17
        results = chunk.run(default_registry())
        for instance, result, size in zip(instances, results, (15, 16, 17)):
            assert result.shape == (size, size)
            assert np.allclose(result, evaluate(self.EXPRESSION, instance))
        # the original instances are untouched
        for instance, original, size in zip(chunk.instances, instances, (15, 16, 17)):
            assert instance is original
            assert instance.dimension("alpha") == size
            assert instance.matrix("A").shape == (size, size)
        # The engine serves the same burst as one padded dispatch.
        policy = CoalescingPolicy(max_delay=0.05, ragged=True)
        with Engine(policy=policy) as engine:
            futures = engine.submit_many((self.EXPRESSION, inst) for inst in instances)
            served = [future.result(30) for future in futures]
            snapshot = engine.stats()
        assert snapshot.dispatches == 1
        assert snapshot.batched_requests == 3
        for got, want in zip(served, results):
            assert np.array_equal(got, want)

    def test_padding_unsafe_plans_never_merge(self):
        instances = [_mixed_instance(REAL, size) for size in (15, 16, 17)]
        # prod(...) lowers to a loop op, which padding does not commute with
        plan = compile_expression(prod("_v", var("A")), instances[0].schema)
        chunks = list(plan_chunks(plan, instances, ragged=True))
        assert [chunk.positions for chunk in chunks] == [[0], [1], [2]]
        assert all(chunk.target is None for chunk in chunks)
        safe_plan = compile_expression(var("A") @ var("D"), instances[0].schema)
        (chunk,) = plan_chunks(safe_plan, instances, ragged=True)
        assert chunk.positions == [0, 1, 2]
        assert chunk.target["alpha"] == 17


# ----------------------------------------------------------------------
# Harness integration
# ----------------------------------------------------------------------
@needs_scipy
class TestHarnessMixedPlans:
    def test_run_and_run_batch_match_evaluate_for_mixed_plans(self):
        from repro.experiments.harness import CompiledWorkload

        instances = [_mixed_instance(BOOLEAN, 128, seed) for seed in range(3)]
        workload = CompiledWorkload(MIXED_EXPRESSION, instances[0].schema)
        physical = workload.physical(instances[0])
        assert physical.mixed
        assert physical.batch_mode == "mixed"
        expected = [evaluate(MIXED_EXPRESSION, inst) for inst in instances]
        for instance, want in zip(instances, expected):
            assert _entrywise_equal(workload.run(instance), want)
        batch = workload.run_batch(instances)
        for got, want in zip(batch, expected):
            assert _entrywise_equal(got, want)
