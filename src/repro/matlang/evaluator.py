"""Evaluation of MATLANG / for-MATLANG expressions over a semiring.

The semantics follows Sections 2, 3.1 and 6 of the paper.  Evaluation is a
staged compile-then-execute pipeline with a logical/physical split:

    annotate -> normalize (canonical associativity/commutativity)
             -> lower to plan IR + fuse (CSE / hoisting / loop fusion)
             -> cost-based matmul ordering
             -> physical backend selection -> execute

:meth:`Evaluator.run` and :meth:`Evaluator.run_typed` are thin wrappers over
that pipeline: they compile the expression once through
:mod:`repro.matlang.compiler` (whose module-level cache is keyed by
``(expression, schema, options)``, so repeated evaluations — including
across evaluators and instances of the same schema — perform no
re-lowering) and execute the plan on a pluggable execution backend
(:mod:`repro.semiring.backends`).  By default the *physical planner*
assigns a backend per plan op from instance statistics and the active cost
profile (:func:`repro.semiring.backends.plan_physical`): sparse CSR
execution for sparse boolean / tropical prefixes, the dense kernel layer
for dense epilogues, with explicit conversion ops inserted at
representation boundaries.  Passing ``backend="dense"`` / ``"sparse"`` (or
a backend instance) pins the choice for the whole plan.

Constructing the evaluator with ``compile=False`` selects the original
tree-walking interpreter instead, which is retained verbatim as the
executable reference semantics: the equivalence property suite runs every
workload through both paths and asserts entrywise agreement.

Sweeps over many instances evaluate fastest through the *batched* entry
points: :func:`evaluate_batch` (and the lower-level :func:`run_plan_batch`)
compiles once, buckets the instances by schema / semiring / dimension
assignment, stacks each bucket into ``(B, rows, cols)`` arrays and runs every
plan op once per chunk over the whole stack
(:func:`repro.matlang.ir.execute_plan_batch`), so the Python dispatch cost —
which dominates small-instance sweeps — is amortized over the batch.
Oversized buckets are chunked to bound peak memory.

Results returned from the public entry points (:meth:`Evaluator.run`,
:meth:`Evaluator.run_typed`, :func:`evaluate`, :func:`evaluate_batch`) are
defensive copies: mutating them can never corrupt the instance's matrices or
any cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import EvaluationError
from repro.matlang.ast import (
    Add,
    Apply,
    Diag,
    Expression,
    ForLoop,
    HadamardLoop,
    Literal,
    MatMul,
    OneVector,
    ProductLoop,
    ScalarMul,
    SumLoop,
    Transpose,
    TypeHint,
    Var,
)
from repro.matlang.compiler import compile_expression, compile_typed
from repro.matlang.functions import FunctionRegistry, default_registry
from repro.matlang.instance import Instance
from repro.matlang.ir import StackCache, execute_plan, execute_plan_batch
from repro.matlang.typecheck import TypedExpression, annotate
from repro.semiring import diagonal, identity, ones_matrix, scalar
from repro.semiring.backends import (
    ExecutionBackend,
    PhysicalPlan,
    instance_statistics,
    plan_physical,
    resolve_backend,
)


class Evaluator:
    """Evaluates annotated expressions against a fixed instance.

    The evaluator is reusable: :meth:`run` may be called many times with
    different expressions over the same instance, which the benchmark harness
    exploits.

    Parameters
    ----------
    compile:
        When true (the default) expressions are lowered to plan IR and
        executed on ``backend``; when false the retained reference
        tree-walk interprets the annotated tree directly.
    backend:
        Execution backend for the compiled path: an
        :class:`~repro.semiring.backends.ExecutionBackend` instance (which
        must be bound to the instance's semiring), a registered backend
        name (``"dense"``, ``"sparse"``), or ``None`` / ``"auto"`` for
        adaptive physical planning — each compiled plan op is assigned a
        backend by :func:`repro.semiring.backends.plan_physical`, which
        inspects the instance's statistics (semiring, density, dimensions),
        the active :class:`~repro.profile.CostProfile` and the plan's op
        mix, inserting conversion ops where the assignment switches
        representation.  Explicit backends are validated eagerly and
        honoured verbatim.
    memoize:
        Only consulted by the ``compile=False`` tree-walk (its id-keyed
        loop memo cache); the compiled path replaces memoisation with CSE
        and loop-invariant hoisting at lowering time.
    """

    def __init__(
        self,
        instance: Instance,
        functions: Optional[FunctionRegistry] = None,
        memoize: bool = True,
        compile: bool = True,
        backend: Union[ExecutionBackend, str, None] = None,
        profiler: Any = None,
    ) -> None:
        self.instance = instance
        self.semiring = instance.semiring
        self.functions = functions if functions is not None else default_registry()
        self.memoize = memoize
        self.compile = compile
        #: Optional :class:`~repro.profile.recorder.ExecutionProfiler`: when
        #: set, every executed plan op feeds one timing observation into it
        #: (and each executed instance's dimensions update its symbol EWMA).
        self.profiler = profiler
        #: The backend request; ``None`` / ``"auto"`` defers to per-plan
        #: physical planning.  Explicit backends resolve (and validate)
        #: eagerly, exactly as they always have.
        self.backend_request = backend
        self.backend: Optional[ExecutionBackend] = (
            None
            if backend is None or backend == "auto"
            else resolve_backend(self.semiring, backend)
        )
        #: Per-plan physical selections, keyed by plan identity (the plan is
        #: kept in the value so its id cannot be recycled while cached).
        #: Bounded FIFO: an evaluator fed ever-new expressions must not pin
        #: every plan it ever selected for.
        self._physical_cache: "OrderedDict[int, tuple]" = OrderedDict()
        #: Instance statistics for the physical planner, profiled once.
        self._statistics = None
        #: Cache of results of loop sub-expressions that do not depend on any
        #: loop-bound variable.  Such sub-expressions (for example the order
        #: matrix ``S_<=`` occurring inside the body of an LU reduction loop)
        #: would otherwise be re-evaluated once per iteration of every
        #: enclosing loop, turning the stdlib constructions quadratically
        #: slower than necessary.  The cache is keyed by the identity of the
        #: annotated node, so structurally equal but distinct sub-trees are
        #: simply cached separately.
        self._cache: Dict[int, np.ndarray] = {}
        #: Identity matrices keyed by dimension, shared across all loops of
        #: this evaluator: loop iterations bind the iterator variable to
        #: (read-only) column views of these, so canonical vectors are not
        #: reallocated once per iteration.
        self._basis_cache: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, expression: Expression) -> np.ndarray:
        """Type-check and evaluate ``expression`` against the instance.

        On the compiled path (the default) the annotate + lower work is
        cached on ``(expression, schema)``: evaluating the same expression
        again — on this instance or any other instance of the same schema —
        executes the cached plan directly.
        """
        if self.compile:
            plan = compile_expression(expression, self.instance.schema)
            return self._execute(plan)
        typed = annotate(expression, self.instance.schema)
        return self.run_typed(typed)

    def run_typed(self, typed: TypedExpression) -> np.ndarray:
        """Evaluate an already annotated expression.

        The tree must have been annotated against (a schema compatible with)
        the instance's schema.  The result is a defensive copy: internally
        arrays are shared freely (instance matrices, hoisted loop-invariant
        values, basis-vector views), so handing out the raw array would let
        callers corrupt the instance or a cache by mutating it.
        """
        if self.compile:
            plan = compile_typed(typed, self.instance.schema)
            return self._execute(plan)
        # The memoisation cache is keyed by node identity, which is only
        # guaranteed stable for the lifetime of one evaluation; clear it so a
        # recycled object id from a different tree can never produce a stale hit.
        self._cache.clear()
        environment: Dict[str, np.ndarray] = {}
        return self._evaluate(typed, environment).copy()

    def physical(self, plan) -> PhysicalPlan:
        """The physical plan for ``plan`` on this evaluator's instance.

        Pinned backends short-circuit; adaptive requests consult the per-op
        planner (:func:`~repro.semiring.backends.plan_physical`) with the
        (cached) instance statistics, once per distinct plan per profile
        generation — a profile update re-plans instead of serving a stale
        assignment.
        """
        if self.backend is not None:
            return PhysicalPlan(
                plan,
                {self.backend.name: self.backend},
                self.backend.name,
                (f"backend {self.backend.name!r} pinned by the caller",),
            )
        from repro.profile import active_profile, profile_generation

        generation = profile_generation()
        cached = self._physical_cache.get(id(plan))
        if cached is not None and cached[0] is plan and cached[2] == generation:
            return cached[1]
        if self._statistics is None:
            self._statistics = instance_statistics(self.instance)
        physical = plan_physical(
            plan,
            self.instance,
            None,
            statistics=self._statistics,
            profile=active_profile(),
        )
        self._physical_cache[id(plan)] = (plan, physical, generation)
        while len(self._physical_cache) > self._PHYSICAL_CACHE_CAPACITY:
            self._physical_cache.popitem(last=False)
        return physical

    _PHYSICAL_CACHE_CAPACITY = 128

    def _execute(self, plan) -> np.ndarray:
        physical = self.physical(plan)
        profiler = self.profiler
        if profiler is not None:
            profiler.observe_instance(self.instance)
        value = execute_plan(
            physical.plan,
            physical.backend,
            self.instance,
            self.functions,
            backends=physical.backends,
            profiler=profiler,
        )
        return physical.result_backend.to_dense(value).copy()

    # ------------------------------------------------------------------
    # Shape helpers
    # ------------------------------------------------------------------
    def _dimension(self, symbol: str, context: str) -> int:
        if symbol.startswith("?"):
            # Unconstrained dimension: fall back to the instance's unique
            # non-scalar dimension when there is one (the square-schema
            # convention of Sections 5 and 6); otherwise the expression is
            # genuinely ambiguous and we refuse to guess.
            non_scalar = sorted(
                name for name in self.instance.dimensions if name != "1"
            )
            if len(non_scalar) == 1:
                return self.instance.dimension(non_scalar[0])
            raise EvaluationError(
                f"cannot determine the dimension of {context}: the size symbol is "
                "unconstrained; declare the variable in the schema or add a TypeHint"
            )
        return self.instance.dimension(symbol)

    def _shape(self, matrix_type, context: str) -> tuple[int, int]:
        row_symbol, col_symbol = matrix_type
        return (
            self._dimension(row_symbol, f"{context} (rows)"),
            self._dimension(col_symbol, f"{context} (columns)"),
        )

    # ------------------------------------------------------------------
    # Core recursion
    # ------------------------------------------------------------------
    def _evaluate(self, typed: TypedExpression, env: Dict[str, np.ndarray]) -> np.ndarray:
        expression = typed.expression
        semiring = self.semiring
        # Every array the evaluator handles is carrier-validated by
        # construction (instance matrices through lift, everything else
        # produced by the kernels themselves), so dispatch straight to the
        # kernel layer and skip the public API's per-operand re-validation.
        kernels = semiring.kernels

        if isinstance(expression, Var):
            if expression.name in env:
                return env[expression.name]
            return self.instance.matrix(expression.name)

        if isinstance(expression, Literal):
            return scalar(semiring, expression.value)

        if isinstance(expression, Transpose):
            operand = self._evaluate(typed.children[0], env)
            return operand.T.copy()

        if isinstance(expression, OneVector):
            operand = self._evaluate(typed.children[0], env)
            return ones_matrix(semiring, operand.shape[0], 1)

        if isinstance(expression, Diag):
            operand = self._evaluate(typed.children[0], env)
            if operand.shape[1] != 1:
                raise EvaluationError(
                    f"diag expects a column vector, got shape {operand.shape}"
                )
            return diagonal(semiring, operand)

        if isinstance(expression, TypeHint):
            return self._evaluate(typed.children[0], env)

        if isinstance(expression, MatMul):
            left = self._evaluate(typed.children[0], env)
            right = self._evaluate(typed.children[1], env)
            return kernels.matmul(left, right)

        if isinstance(expression, Add):
            left = self._evaluate(typed.children[0], env)
            right = self._evaluate(typed.children[1], env)
            return kernels.add_matrices(left, right)

        if isinstance(expression, ScalarMul):
            factor = self._evaluate(typed.children[0], env)
            operand = self._evaluate(typed.children[1], env)
            if factor.shape != (1, 1):
                raise EvaluationError(
                    f"scalar multiplication expects a 1x1 left operand, got {factor.shape}"
                )
            return kernels.scale(factor[0, 0], operand)

        if isinstance(expression, Apply):
            return self._evaluate_apply(expression, typed, env)

        if isinstance(expression, (ForLoop, SumLoop, HadamardLoop, ProductLoop)):
            cacheable = self.memoize and not (typed.free_names & env.keys())
            if cacheable and id(typed) in self._cache:
                return self._cache[id(typed)]

            if isinstance(expression, ForLoop):
                result = self._evaluate_for(expression, typed, env)
            elif isinstance(expression, SumLoop):
                result = self._evaluate_quantifier(expression, typed, env, kind="sum")
            elif isinstance(expression, HadamardLoop):
                result = self._evaluate_quantifier(expression, typed, env, kind="hadamard")
            else:
                result = self._evaluate_quantifier(expression, typed, env, kind="product")

            if cacheable:
                self._cache[id(typed)] = result
            return result

        raise EvaluationError(f"unknown expression node {type(expression).__name__}")

    # ------------------------------------------------------------------
    # Pointwise application
    # ------------------------------------------------------------------
    def _evaluate_apply(
        self, expression: Apply, typed: TypedExpression, env: Dict[str, np.ndarray]
    ) -> np.ndarray:
        function = self.functions.get(expression.function)
        operands = [self._evaluate(child, env) for child in typed.children]
        if not operands:
            # annotate() rejects this at typing time, but run_typed can be
            # handed a hand-built tree that never went through it.
            raise EvaluationError(
                f"pointwise function {expression.function!r} applied to no operands; "
                "the result shape would be undefined"
            )
        shape = operands[0].shape
        for operand in operands[1:]:
            if operand.shape != shape:
                raise EvaluationError(
                    f"pointwise function {expression.function!r} applied to matrices of "
                    f"different shapes {shape} and {operand.shape}"
                )
        # Whole-array fast path for the registered vectorized functions,
        # falling back to the per-entry scalar loop (see apply_matrix).
        return function.apply_matrix(self.semiring, operands)

    # ------------------------------------------------------------------
    # Loops
    # ------------------------------------------------------------------
    def _loop_dimension(self, typed: TypedExpression, expression) -> int:
        if typed.iterator_symbol is None:
            raise EvaluationError("loop node is missing its iterator annotation")
        return self._dimension(
            typed.iterator_symbol, f"iterator {expression.iterator!r}"
        )

    def _basis(self, count: int) -> np.ndarray:
        """The identity matrix whose columns are the canonical vectors.

        Shared (never mutated) across every loop of this evaluator, so each
        iteration only takes an O(1) column view instead of materialising a
        fresh ``count x 1`` zero vector.
        """
        basis = self._basis_cache.get(count)
        if basis is None:
            basis = identity(self.semiring, count)
            self._basis_cache[count] = basis
        return basis

    def _evaluate_for(
        self, expression: ForLoop, typed: TypedExpression, env: Dict[str, np.ndarray]
    ) -> np.ndarray:
        semiring = self.semiring
        count = self._loop_dimension(typed, expression)

        if expression.init is not None:
            init_typed, body_typed = typed.children
            accumulator = self._evaluate(init_typed, env)
        else:
            (body_typed,) = typed.children
            if typed.accumulator_type is None:
                raise EvaluationError("for-loop node is missing its accumulator type")
            rows, cols = self._shape(
                typed.accumulator_type, f"accumulator {expression.accumulator!r}"
            )
            accumulator = semiring.zeros(rows, cols)

        basis = self._basis(count)
        saved_iterator = env.get(expression.iterator)
        saved_accumulator = env.get(expression.accumulator)
        try:
            for index in range(count):
                env[expression.iterator] = basis[:, index : index + 1]
                env[expression.accumulator] = accumulator
                accumulator = self._evaluate(body_typed, env)
        finally:
            _restore(env, expression.iterator, saved_iterator)
            _restore(env, expression.accumulator, saved_accumulator)
        return accumulator

    def _evaluate_quantifier(
        self,
        expression,
        typed: TypedExpression,
        env: Dict[str, np.ndarray],
        kind: str,
    ) -> np.ndarray:
        kernels = self.semiring.kernels
        count = self._loop_dimension(typed, expression)
        (body_typed,) = typed.children

        basis = self._basis(count)
        saved_iterator = env.get(expression.iterator)
        accumulator: Optional[np.ndarray] = None
        try:
            for index in range(count):
                env[expression.iterator] = basis[:, index : index + 1]
                value = self._evaluate(body_typed, env)
                if accumulator is None:
                    accumulator = value
                elif kind == "sum":
                    accumulator = kernels.add_matrices(accumulator, value)
                elif kind == "hadamard":
                    accumulator = kernels.hadamard(accumulator, value)
                else:
                    accumulator = kernels.matmul(accumulator, value)
        finally:
            _restore(env, expression.iterator, saved_iterator)

        if accumulator is None:  # pragma: no cover - dimensions are always >= 1
            raise EvaluationError("quantifier iterated over an empty dimension")
        return accumulator


def _restore(env: Dict[str, np.ndarray], name: str, saved: Optional[np.ndarray]) -> None:
    if saved is None:
        env.pop(name, None)
    else:
        env[name] = saved


def evaluate(
    expression: Expression,
    instance: Instance,
    functions: Optional[FunctionRegistry] = None,
) -> np.ndarray:
    """Evaluate ``expression`` over ``instance``.

    This is the module-level convenience wrapper around :class:`Evaluator`;
    it type-checks the expression against the instance's schema first and
    raises :class:`~repro.exceptions.TypingError` if that fails.
    """
    return Evaluator(instance, functions).run(expression)


# ----------------------------------------------------------------------
# Batched evaluation
# ----------------------------------------------------------------------
#: Cap on the entries of one stacked instance-matrix operand per batch chunk
#: (~128 MiB of float64).  Intermediate values of a plan can exceed the
#: largest *input* matrix (a vector workload may build n x n temporaries),
#: so this is a heuristic bound, not a hard ceiling; pass ``chunk_size`` to
#: the batched entry points for exact control.
BATCH_CHUNK_ENTRY_BUDGET = 1 << 24


def _batch_chunk_size(instance: Instance) -> int:
    """Instances per chunk keeping stacked inputs under the entry budget."""
    largest = 1
    for name in instance.schema.variables():
        rows, cols = instance.shape_of(name)
        largest = max(largest, rows * cols)
    return max(1, BATCH_CHUNK_ENTRY_BUDGET // largest)


#: Cap on the *stored* entries of one block-diagonal CSR operand per batch
#: chunk (~4M nnz).  The sparse lane's memory scales with nnz, not with the
#: dense ``rows * cols`` envelope, so a sparse bucket packs far more
#: instances per kernel call than the dense budget would allow — which is
#: most of the point of batching it.
SPARSE_BATCH_NNZ_BUDGET = 1 << 22


def _sparse_batch_chunk_size(instance) -> int:
    """Instances per chunk keeping stacked CSR inputs under the nnz budget."""
    zero = instance.semiring.zero
    largest = 1
    for name in instance.schema.variables():
        matrix = instance.matrix(name)
        largest = max(largest, int(np.count_nonzero(matrix != zero)))
    return max(1, SPARSE_BATCH_NNZ_BUDGET // largest)


# ----------------------------------------------------------------------
# Ragged-bucket merging (padded batching)
# ----------------------------------------------------------------------
#: Largest tolerated padded-entries / true-entries ratio per instance
#: matrix when merging near-miss buckets: a 15-node instance pads into a
#: 17-node batch (ratio ~1.28) and one kernel call serves the whole sweep,
#: while an 8-node instance never pads into a 16-node batch (ratio 4) —
#: there the wasted kernel work would outweigh the saved dispatch.
RAGGED_PAD_LIMIT = 2.0


def _padding_safe(plan) -> bool:
    """Whether ``plan`` tolerates zero-padded instances.

    Padding embeds every input as the top-left block of a larger matrix
    whose other entries are the semiring zero.  A plan tolerates it when
    the top-left block of each value it computes is the unpadded value.
    Each value carries two flags: whether its padded rows, and its padded
    columns, hold the zero (an axis of dimension ``1`` is never padded, so
    it counts as zero).  Inputs and constants are zero on both axes;
    ``ones`` and the identities have ones in their padding.  ``matmul``
    sums over its inner axis, so the padded terms vanish only when the
    left operand's columns or the right operand's rows are zero;
    ``hadamard`` is zero where either operand is, ``add`` where both are.
    ``diagonal`` reads the padded corner, zero when either axis is.
    Loops, ``apply`` (``f(0)`` need not be ``0``), the powers and
    ``diag_product`` depend on the dimension itself, so a plan holding one
    never merges ragged buckets; neither does ``Sigma_v A``, which is
    ``(1^T . 1) x A``.
    """
    ops = plan.ops
    if ops[plan.result].type is None:
        return False
    flags: List[Tuple[bool, bool]] = []
    for op in ops:
        opcode = op.opcode
        operands = [flags[register] for register in op.inputs]
        if opcode in ("load", "const"):
            rows, cols = True, True
        elif opcode in ("ones", "ones_type", "identity_of", "identity_sym"):
            rows, cols = False, False
        elif opcode == "transpose":
            cols, rows = operands[0]
        elif opcode == "matmul":
            (rows, inner_left), (inner_right, cols) = operands
            if not (inner_left or inner_right):
                return False
        elif opcode == "hadamard":
            rows, cols = (left or right for left, right in zip(*operands))
        elif opcode == "add":
            rows, cols = (left and right for left, right in zip(*operands))
        elif opcode == "scale":
            rows, cols = operands[1]
        elif opcode == "diag":
            rows = cols = operands[0][0]
        elif opcode == "diagonal":
            rows, cols = operands[0][0] or operands[0][1], True
        else:
            return False
        row_symbol, col_symbol = op.type or (None, None)
        flags.append((rows or row_symbol == "1", cols or col_symbol == "1"))
    return True


def _result_shape(plan, instance) -> tuple:
    """The concrete result shape of ``plan`` on the *unpadded* instance."""
    row_symbol, col_symbol = plan.ops[plan.result].type

    def resolve(symbol: str) -> int:
        if symbol.startswith("?"):
            # Same square-schema fallback as the executors (_Runtime.dimension).
            non_scalar = sorted(
                name for name in instance.dimensions if name != "1"
            )
            if len(non_scalar) == 1:
                return instance.dimension(non_scalar[0])
            raise EvaluationError(
                "cannot determine the padded result shape: the size symbol is "
                "unconstrained"
            )
        return instance.dimension(symbol)

    return (resolve(row_symbol), resolve(col_symbol))


class _PaddedInstance:
    """A read-only view of an instance zero-padded to larger dimensions.

    Presents the :class:`Instance` protocol the batch executor consumes
    (``semiring``, ``schema``, ``dimensions``, ``dimension``, ``shape_of``,
    ``matrix``) with every matrix embedded as the top-left block of a
    ``target``-sized matrix whose remaining entries are the semiring zero.
    Padded matrices are built lazily and cached per variable.
    """

    __slots__ = ("instance", "dimensions", "semiring", "schema", "_padded")

    def __init__(self, instance, target: Dict[str, int]) -> None:
        self.instance = instance
        self.semiring = instance.semiring
        self.schema = instance.schema
        self.dimensions = dict(target)
        self._padded: Dict[str, np.ndarray] = {}

    def dimension(self, symbol: str) -> int:
        if symbol == "1":
            return 1
        try:
            return self.dimensions[symbol]
        except KeyError:
            return self.instance.dimension(symbol)

    def shape_of(self, name: str) -> tuple:
        row_symbol, col_symbol = self.schema.size(name)
        return (self.dimension(row_symbol), self.dimension(col_symbol))

    def matrix(self, name: str) -> np.ndarray:
        padded = self._padded.get(name)
        if padded is not None:
            return padded
        matrix = self.instance.matrix(name)
        rows, cols = self.shape_of(name)
        if matrix.shape == (rows, cols):
            padded = matrix
        else:
            padded = np.full((rows, cols), self.semiring.zero, dtype=matrix.dtype)
            padded[: matrix.shape[0], : matrix.shape[1]] = matrix
        self._padded[name] = padded
        return padded


def _pad_inflation(instance, target: Dict[str, int]) -> float:
    """Worst padded-entries / true-entries ratio across instance matrices."""

    def resolve(symbol: str, dims) -> int:
        return 1 if symbol == "1" else dims[symbol]

    worst = 1.0
    for name in instance.schema.variables():
        row_symbol, col_symbol = instance.schema.size(name)
        true_entries = instance.dimension(row_symbol) * instance.dimension(col_symbol)
        padded_entries = resolve(row_symbol, target) * resolve(col_symbol, target)
        if true_entries:
            worst = max(worst, padded_entries / true_entries)
    return worst


def _merge_ragged_buckets(buckets, instances):
    """Fold near-miss dimension buckets into padded groups.

    ``buckets`` maps ``(semiring name, sorted dimension items)`` to input
    positions.  Buckets sharing a semiring and a dimension-symbol set are
    clustered greedily from the largest down: each cluster pads to its
    per-symbol maximum, and a bucket joins only while every member's
    padding inflation stays within :data:`RAGGED_PAD_LIMIT` of the
    cluster's (possibly enlarged) target — so one oversized outlier forms
    its own cluster instead of pricing the genuine near-misses out of
    merging (15/16/17/40 becomes ``{40}`` plus one padded ``{15,16,17}``
    batch).  Returns a list of ``(positions, target-dims-or-None)``
    groups; ``None`` means "execute unpadded" (the group already agrees on
    every dimension).
    """
    by_shape: "OrderedDict[Any, List]" = OrderedDict()
    for (semiring_name, dims), positions in buckets.items():
        symbols = tuple(symbol for symbol, _ in dims)
        by_shape.setdefault((semiring_name, symbols), []).append((dims, positions))

    groups: List = []
    for (_, symbols), members in by_shape.items():
        if len(members) == 1:
            groups.append((members[0][1], None))
            continue
        # Largest first, so a cluster's seed usually dominates its target
        # and smaller near-misses fold in underneath it.
        remaining = sorted(
            members,
            key=lambda member: tuple(value for _, value in member[0]),
            reverse=True,
        )
        while remaining:
            seed_dims, seed_positions = remaining.pop(0)
            cluster = [(seed_dims, seed_positions)]
            target = dict(seed_dims)
            survivors: List = []
            for dims, positions in remaining:
                candidate = {
                    symbol: max(target[symbol], value)
                    for symbol, value in dims
                }
                members_fit = all(
                    _pad_inflation(instances[member_positions[0]], candidate)
                    <= RAGGED_PAD_LIMIT
                    for _, member_positions in cluster
                ) and _pad_inflation(instances[positions[0]], candidate) <= RAGGED_PAD_LIMIT
                if members_fit:
                    cluster.append((dims, positions))
                    target = candidate
                else:
                    survivors.append((dims, positions))
            remaining = survivors
            merged_positions = [
                position for _, positions in cluster for position in positions
            ]
            groups.append((merged_positions, target if len(cluster) > 1 else None))
    return groups


def run_plan_batch(
    plan,
    instances,
    functions: FunctionRegistry,
    chunk_size: Optional[int] = None,
    stack_cache: Optional[StackCache] = None,
    ragged: bool = True,
    backend: Optional[str] = None,
) -> List[np.ndarray]:
    """Execute a compiled plan over many instances with batched kernels.

    Instances are bucketed by semiring and dimension assignment (a batch
    must agree on both), each bucket is chunked to at most ``chunk_size``
    instances (default: derived from :data:`BATCH_CHUNK_ENTRY_BUDGET` for
    the dense lane, :data:`SPARSE_BATCH_NNZ_BUDGET` for the block-diagonal
    CSR lane), and each chunk runs the plan once over the whole batch on
    the batched backend(s) the physical planner picks.  Results come back
    in input order, one defensive copy per instance — entrywise identical
    to running the plan per instance.

    With ``ragged`` (the default), *near-miss* buckets — same semiring,
    same dimension symbols, sizes within :data:`RAGGED_PAD_LIMIT` of the
    group maximum — are additionally merged into one padded batch when the
    plan tolerates it (see :func:`_padding_safe`): every
    instance is embedded as the top-left block of a group-maximum matrix
    padded with the semiring zero, the batch executes once, and each result
    is sliced back to its true shape.  A 15/16/17-node sweep then runs as
    one kernel call instead of three.  Over exact semirings padded results
    are bitwise-identical to unpadded execution; over float64 the padded
    zeros can regroup the kernel's reductions, so equality holds to
    floating-point tolerance instead.  ``ragged=False`` restores strict
    bucket-per-signature execution.

    ``stack_cache`` (a :class:`~repro.matlang.ir.StackCache`) carries the
    stacked input arrays across calls: repeated sweeps over the same
    instance objects skip the per-call re-stacking entirely.  Padded
    groups bypass the cache (their padded views are rebuilt per call, so
    entries could never hit).

    Each group picks its execution lane through the physical planner
    (costed at the group's batch width): a dense stack, one block-diagonal
    CSR batch (sparse-selected reachability / shortest-path sweeps), or a
    mixed per-op assignment with whole-batch conversions at representation
    boundaries.  All three lanes return entrywise-identical results;
    ``backend="dense"`` pins the dense lane (the historical behaviour).
    """
    from repro.semiring.backends import batched_backends_for, plan_physical

    if backend not in (None, "auto", "dense"):
        raise EvaluationError(
            f"run_plan_batch lanes are adaptive or dense, got backend {backend!r}; "
            "pinned non-dense workloads run per instance (see CompiledWorkload)"
        )
    instances = list(instances)
    results: List[Optional[np.ndarray]] = [None] * len(instances)
    buckets: "OrderedDict[Any, List[int]]" = OrderedDict()
    for position, instance in enumerate(instances):
        key = (instance.semiring.name, tuple(sorted(instance.dimensions.items())))
        buckets.setdefault(key, []).append(position)
    if ragged and len(buckets) > 1 and _padding_safe(plan):
        groups = _merge_ragged_buckets(buckets, instances)
    else:
        groups = [(positions, None) for positions in buckets.values()]
    for positions, target in groups:
        if target is None:
            batch_instances = [instances[position] for position in positions]
            cache = stack_cache
        else:
            batch_instances = [
                _PaddedInstance(instances[position], target) for position in positions
            ]
            cache = None
        representative = batch_instances[0]
        # Lane selection on the unpadded representative (padding only adds
        # semiring zeros, so the original densities are the honest signal),
        # costed at the group's width so per-batch fixed costs amortize.
        origin = instances[positions[0]]
        exec_plan, default_tag, tags = plan, "dense", ("dense",)
        mode = "dense"
        if backend in (None, "auto"):
            physical = plan_physical(plan, origin, None, batch_size=len(positions))
            mode = physical.batch_mode or "dense"
            if mode != "dense":
                exec_plan = physical.plan
                default_tag = physical.default_tag
                tags = tuple(physical.backends)
        if chunk_size is not None:
            limit = chunk_size
        elif mode == "sparse":
            limit = _sparse_batch_chunk_size(origin)
        else:
            limit = _batch_chunk_size(representative)
        if limit < 1:
            raise EvaluationError(f"batch chunk size must be positive, got {limit!r}")
        result_tag = exec_plan.ops[exec_plan.result].backend or default_tag
        for start in range(0, len(positions), limit):
            chunk = positions[start : start + limit]
            backends_map = batched_backends_for(
                representative.semiring, len(chunk), tags
            )
            value = execute_plan_batch(
                exec_plan,
                backends_map[default_tag],
                batch_instances[start : start + limit],
                functions,
                stack_cache=cache,
                backends=backends_map,
            )
            stacked = backends_map[result_tag].to_dense(value)
            for offset, position in enumerate(chunk):
                if target is None:
                    results[position] = stacked[offset].copy()
                else:
                    rows, cols = _result_shape(plan, instances[position])
                    results[position] = stacked[offset][:rows, :cols].copy()
    return results


def evaluate_batch(
    expression: Expression,
    instances,
    functions: Optional[FunctionRegistry] = None,
    chunk_size: Optional[int] = None,
    ragged: bool = True,
) -> List[np.ndarray]:
    """Evaluate ``expression`` over a sweep of instances, batching the work.

    The batched counterpart of :func:`evaluate`: the expression is compiled
    once per distinct schema (through the plan cache) and executed over the
    instances in stacked batches — see :func:`run_plan_batch` (including
    its ``ragged`` near-miss bucket merging).  The sweep may freely mix
    sizes, dimensions and semirings; bucketing keeps each kernel call
    homogeneous and the result list matches the input order.
    """
    instances = list(instances)
    if functions is None:
        functions = default_registry()
    results: List[Optional[np.ndarray]] = [None] * len(instances)
    groups: "OrderedDict[Any, List[int]]" = OrderedDict()
    for position, instance in enumerate(instances):
        groups.setdefault(instance.schema.signature(), []).append(position)
    for positions in groups.values():
        plan = compile_expression(expression, instances[positions[0]].schema)
        outputs = run_plan_batch(
            plan,
            [instances[position] for position in positions],
            functions,
            chunk_size,
            ragged=ragged,
        )
        for position, output in zip(positions, outputs):
            results[position] = output
    return results
