"""The compiled plan IR for MATLANG / for-MATLANG expressions.

A :class:`Plan` is a flat, register-based sequence of :class:`PlanOp`
instructions in topological order, produced by
:func:`repro.matlang.compiler.lower`.  The opcodes mirror the semiring
kernel / execution-backend API one-to-one, so executing a plan is a single
linear pass with no tree re-interpretation:

==================  =========================================================
opcode              meaning (``rK`` are register indices)
==================  =========================================================
``load``            the instance matrix of variable ``name``
``const``           the ``1 x 1`` carrier constant ``value``
``iterator``        the current loop iterator (canonical vector)
``accumulator``     the current for-loop accumulator
``capture``         value imported from the enclosing plan (hoisted /
                    loop-invariant operand); ``index`` selects from the loop
                    op's ``captures`` tuple
``transpose``       ``r0^T``
``ones``            the all-ones column vector with the row count of ``r0``
``ones_type``       the all-ones matrix of the op's (symbolic) type
``identity_of``     the identity matrix with the row count of ``r0``
``identity_sym``    the identity matrix of dimension ``symbol``
``diag``            ``diag(r0)`` of a column vector
``matmul``          ``r0 . r1``
``add``             ``r0 + r1``
``hadamard``        ``r0 o r1`` (entrywise product; no core AST node maps
                    here — the contraction lowering of
                    :mod:`repro.matlang.contract` multiplies factors with it)
``scale``           ``r0 x r1`` with ``r0`` of shape ``1 x 1``
``apply``           pointwise function ``name`` applied to the inputs
``loop``            iterate the nested ``body`` plan (see below)
``nsum``            ``Sigma_v r0`` with ``v`` not free: ``n`` copies summed
``row_sums``        ``Sigma_v (r0 . v)``
``col_sums``        ``Sigma_v (v^T . r0)``
``trace``           ``Sigma_v (v^T . r0 . v)``
``diag_of_diag``    ``Sigma_v (v^T.r0.v) x (v.v^T)``
``diag_product``    ``Pi-o_v (v^T . r0 . v)``
``power``           ``Pi_v r0`` with ``v`` not free: ``r0^n`` by squaring
``hadamard_power``  ``Pi-o_v r0`` with ``v`` not free: entrywise power
``to_dense``        representation change: ``r0`` re-hosted on the backend
``to_sparse``       tagged on the op (inserted by the physical planner at
                    backend boundaries; see below)
==================  =========================================================

Per-op physical assignment
--------------------------
Ops optionally carry a physical ``backend`` tag (a key into the backend map
the physical planner supplies — see
:func:`repro.semiring.backends.plan_physical`).  An untagged op runs on the
executor's default backend, preserving the historical whole-plan behaviour;
a tagged op dispatches to its assigned backend, and the planner inserts
explicit ``to_dense`` / ``to_sparse`` conversion ops wherever a value
crosses from one representation to another — so a single plan can run a
CSR sparse prefix into a dense epilogue.  Conversion ops name their source
representation in ``name`` and their target in the ``backend`` tag; both
execute as ``target.from_dense(source.to_dense(value))``, the exact
boundary contract every backend already satisfies.  A ``loop`` op's tag
applies to its whole nested body.

Loops that fusion cannot eliminate become a ``loop`` op holding a nested
:class:`Plan` for the body.  Loop-invariant sub-expressions are *not* in the
body: the compiler hoists them into the enclosing plan and the body refers
to them through ``capture`` ops, so they are computed exactly once instead
of once per iteration (this subsumes the old id-keyed memo cache of the
tree-walking evaluator).

Dimension *symbols* (not concrete sizes) are stored on the ops, so one plan
is reusable across every instance of the same schema; symbols are resolved
against the instance when :func:`execute_plan` runs.

Batched execution
-----------------
:func:`execute_plan_batch` runs a plan against *many* instances of the same
schema in one pass: every instance's matrix for a variable is stacked into a
``(B, rows, cols)`` array, and each plan op executes **once** over the whole
stack on a :class:`~repro.semiring.backends.BatchedDenseBackend`.  The
Python dispatch cost of the executor — the dominant cost of small-instance
sweeps — is thereby paid once per op instead of once per op per instance,
and ``for`` / ``Pi`` loops iterate ``n`` times total instead of ``B * n``
times.  All instances of a batch must agree on their dimension assignments
(and semiring); the harness's :meth:`CompiledWorkload.run_batch` buckets
mixed sweeps accordingly.

:func:`execute_plan`, :func:`execute_plan_batch` and every lane pass run
one interpreter, :func:`_run`, over one :class:`_Runtime` holding the
instances its values carry: one for :func:`execute_plan`, ``B`` for a
batch.  The interpreter reads a value's per-instance ``(rows, cols)``
through the backend's ``batch_shape`` and imports instance matrices
through its ``stack_instance_matrices``, so the backend alone decides
whether a value is one matrix, a ``(B, rows, cols)`` stack or one
block-diagonal CSR matrix.

Lane execution
--------------
The ``Sigma`` and ``Pi-o`` quantifiers combine their ``n`` iterations with
the semiring's ``+`` or ``o``; no iteration reads another's result.  An
unfused ``sum`` or ``hadamard`` loop therefore runs its body **once** for
all of them: on a ``BatchedDenseBackend`` of ``B * n`` *lanes*, with the
iterator bound to the stack of all ``n`` canonical vectors (lane
``i * B + b`` holds vector ``i`` of instance ``b``) and every capture
repeated per lane.  The body runs through the same :func:`_run`, on a
runtime whose instances are the loop's ``B`` repeated once per lane.  The
lanes are then folded in iteration order through
the kernels' own ``add_matrices`` / ``hadamard``: the same left fold the
tree-walk interpreter runs, so the int64 semirings check for overflow at
the same partial sums (a fold that leaves int64 raises ``SemiringError``,
never wraps), and a result never depends on how the range was chunked or
on how many instances shared the batch.  Single-instance execution is the
``B = 1`` case of the same function.  A nested quantifier widens the lanes
again (a depth-4 nest at ``n = 8`` runs its innermost body over 4,096
lanes at once, where :mod:`repro.matlang.contract` does not lower it),
and the iterator range is split into chunks so that lanes x the body's
largest per-lane value — read from the resolved types
of the body's ops — stays under :data:`LANE_ENTRY_BUDGET`; chunk sizes
depend on dimensions only, never on values.  Where a chunk would hold a
single iteration (an ``n x n`` body value at ``n >= 256``), the loop
iterates in order on the enclosing backend instead, with the same fold.

``Pi`` loops and most ``for`` loops keep their order (their accumulator
threads through the iterations), but the quantifiers inside their bodies
run as lanes.  Loops on a sparse backend and over object-dtype carriers
(such as provenance polynomials, whose kernels fold entry by entry anyway)
iterate one canonical vector at a time; the choice follows the backend and
its storage dtype.  :meth:`Plan.explain` reports the mode of every loop op,
from the same function (:func:`_loop_mode`) the executor asks.

Affine ``for`` loops
--------------------
A ``for`` loop whose accumulator ``X`` is a vector or a scalar (its type
has a ``1`` dimension) and whose body is *affine* in ``X`` also runs as
lanes: every iteration ``v`` is a map ``X -> M_v . X + b_v``.  The body
plan is classified op by op.  A value that depends on ``X`` stays linear
through ``transpose``, ``diag``, the fused sums, ``add``, and a product
(``matmul``, ``hadamard``, ``scale``) with an ``X``-free operand; ``ones``
and ``identity_of`` read only a shape, so they are ``X``-free.  A product of
two ``X``-dependent values, an ``apply``, ``power``, ``hadamard_power`` or
``diag_product`` of one, a nested loop that reads ``X``, or a physical tag
disqualifies the body, and a body that never reads ``X`` keeps the in-order
loop.

An affine body is *homogenized* once per body plan (:attr:`Plan.affine_body`):
every ``X``-free summand of an ``add`` whose other summand reads ``X`` is
scaled by a per-lane scalar ``t``, giving ``g(X, t) = L_v(X) + t . b_v``.
``t`` is the semiring's ``0`` or ``1``, so no subtraction is needed and the
rule holds on every semiring.  One pass of ``g`` over ``n * (m + 1)`` lanes,
binding ``(X, t)`` to ``(e_k, 0)`` for each of ``X``'s ``m`` entries and to
``(0, 1)``, yields every iteration's ``M_v`` (column ``k`` is ``L_v(e_k)``;
a row-vector accumulator multiplies from the right) and ``b_v``.  The maps
are then applied in iteration order, ``X <- M_v . X + b_v``, through the
kernels' batched ``matmul`` and ``add``, so an int64 overflow raises
``SemiringError`` and never wraps.  The lane pass is :func:`_run_lanes`'s,
as for ``Sigma``; the range is chunked over iterations and ``X`` is carried
from chunk to chunk.

The choice depends on the plan and the dimensions only: a loop runs as
affine lanes when one instance's ``n * (m + 1)`` lanes times the largest
per-lane value of ``g`` fit :data:`LANE_ENTRY_BUDGET` (PLU's pivot scan
does up to ``n = 39``); a batch of ``B`` instances only narrows the chunks.
Each step re-associates by distributivity only, as the fused ops do, so
exact semirings are bitwise-equal to the tree-walk whenever nothing
overflows, REAL agrees within rounding, and ``evaluate``, ``run_batch`` and
``Engine`` are bitwise-equal to each other on every semiring and raise on
the same inputs.

Dimension frame
---------------
Many plan values depend on the dimensions alone: the paper's order
predicates (``e_max``, ``Prev``, ``S_<``, ``S_<=``, the powers of
``Next``, App. B.1) are ``for`` loops over canonical vectors, and
constants, identities and all-ones vectors are everywhere.  Such *frame
values* are functions of the resolved dimensions, the semiring and the
backend, never of an instance's matrices, so the executor computes each
once per plan and key and, on every later run, supplies those registers
and executes only the remaining ops.

*Classification* (:func:`_frame_layout`, one static pass per plan and
calling context, memoised on the plan).  Never frame values: ``load``,
``apply`` (its function registry is per call) and an op with a physical
tag.  Always: ``const``, ``identity_sym``, ``ones_type``, and the
shape-only ``identity_of`` and ``ones``.  ``iterator`` and ``accumulator``
are frame values in a lane pass, whose chunk fixes them, and never in an
in-order body; a ``capture`` is one when the captured register is one in
the enclosing plan.  A ``loop`` is one when its initialiser and captures
are and so is its body's result, counting the body's iterator and
accumulator as frame values; it then runs once per key.  Any other op is
one when all its inputs are.  A loop's body keeps a frame of its own (one
for all iterations of an in-order loop, which the first fills), unless
the loop is a frame value or its lane pass has several chunks: those
frames would pin every chunk's values where a run holds one at a time.
A lane pass of one chunk also keeps its bindings (lanes backend,
iterator and ``(t, X)`` stacks) and the lane copies of its frame
captures.  A plan where no run can keep a frame takes the plain path
after one cached check (``Plan._frames`` is ``None``).

*Key.*  The resolved dimension assignment, the semiring and its kernels,
the backend's class and name, the batch size, the physical tag map and
:data:`LANE_ENTRY_BUDGET` (loop modes and chunks depend on it).  A body's
frame hangs off its loop's register in the enclosing frame.  A frame of
one batch size never serves another: float64 stacked matmul rounds by
operand layout.

*Bound.*  The frames live on the plan object and die with it; they are
never serialized, so each pool worker fills its own.  A plan keeps at
most :data:`FRAME_CAPACITY` keys and :data:`FRAME_BYTE_BUDGET` bytes,
evicted first-in first-out; a frame over the budget alone is not kept.
The first run for a key computes every frame value and stores its frame
only when it finishes, so a frame op that raises stores nothing and
raises again on the next run.  Lookups take no lock and stores take one,
so the engine's scheduler and direct callers may run one plan at once.
Stored ndarrays are read-only.  Results are the plain path's, bit for
bit: a frame value is the very array the first run computed.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.exceptions import EvaluationError, SchemaError
from repro.matlang.schema import SCALAR_SYMBOL, MatrixType, scalar_type
from repro.semiring.backends import BatchedDenseBackend, DenseExecutionBackend

__all__ = [
    "PLAN_WIRE_VERSION",
    "Plan",
    "PlanOp",
    "StackCache",
    "StackCacheInfo",
    "deserialize_plan",
    "execute_plan",
    "execute_plan_batch",
    "serialize_plan",
]

@dataclass(frozen=True)
class PlanOp:
    """One instruction of a plan (see the module docstring for opcodes)."""

    opcode: str
    inputs: Tuple[int, ...] = ()
    #: Resolved (row symbol, column symbol) type of the op's result.
    type: Optional[MatrixType] = None
    #: Variable name (``load``), function name (``apply``).
    name: Optional[str] = None
    #: Constant payload (``const``) or capture index (``capture``).
    value: Any = None
    #: Dimension symbol for symbol-parameterised ops (``identity_sym``,
    #: ``nsum``, ``power``, ``hadamard_power``) and the iteration symbol of
    #: ``loop`` ops.
    symbol: Optional[str] = None
    #: ``loop`` only: ``"for"``, ``"sum"``, ``"hadamard"`` or ``"product"``.
    kind: Optional[str] = None
    #: ``loop`` only: the nested body plan.
    body: Optional["Plan"] = None
    #: ``loop`` only: registers of the *enclosing* plan whose values the
    #: body imports through its ``capture`` ops.
    captures: Tuple[int, ...] = ()
    #: ``loop`` (kind ``for``) only: type of the zero accumulator when the
    #: loop has no initialiser.
    accumulator_type: Optional[MatrixType] = None
    #: Physical assignment: key into the executor's backend map, or ``None``
    #: to run on the default backend (see "Per-op physical assignment" in
    #: the module docstring).  For ``to_dense`` / ``to_sparse`` conversion
    #: ops this is the *target* representation (``name`` holds the source).
    backend: Optional[str] = None


@dataclass(frozen=True)
class Plan:
    """A straight-line register program computing one expression."""

    ops: Tuple[PlanOp, ...]
    result: int
    #: Registers that must survive dead-code elimination although nothing
    #: references them: initialisers of for-loops whose body ignores both
    #: binders still evaluate (the interpreter evaluates them too, so errors
    #: they raise must surface identically on the compiled path).
    pinned: Tuple[int, ...] = ()
    #: Human-readable record of the optimizer decisions that shaped this
    #: plan (normalization rewrites, cost-based reorderings), rendered by
    #: :meth:`explain`.
    notes: Tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.ops)

    def walk_ops(self):
        """Yield every op of this plan and of all nested loop bodies."""
        for op in self.ops:
            yield op
            if op.body is not None:
                yield from op.body.walk_ops()

    def count_ops(self, opcode: str) -> int:
        """Number of ops (including nested bodies) with the given opcode."""
        return sum(1 for op in self.walk_ops() if op.opcode == opcode)

    @functools.cached_property
    def affine_body(self) -> Optional["Plan"]:
        """This ``for`` body homogenized in its accumulator, or ``None``.

        The plan of ``g(X, t)`` (see "Affine ``for`` loops" in the module
        docstring): the same ops, with every ``X``-free summand of an add
        that reads ``X`` scaled by ``t``, which ``g`` reads as capture 0
        (the body's own captures move up by one).  ``None`` when the body
        is not affine in its accumulator or never reads it.
        """
        return _homogenize(self)

    @functools.cached_property
    def value_types(self) -> Tuple[MatrixType, ...]:
        """The distinct types of this plan's op values, in first-use order."""
        return tuple(dict.fromkeys(op.type for op in self.ops if op.type is not None))

    @functools.cached_property
    def _frame_layouts(self) -> dict:
        """Memo of :func:`_frame_layout`: calling context -> layout."""
        return {}

    @functools.cached_property
    def _tagged_plans(self) -> dict:
        """Memo of :func:`repro.semiring.backends.plan_physical`'s mixed
        plans: tag tuple -> (tagged plan, conversions)."""
        return {}

    @functools.cached_property
    def _frames(self) -> Optional["_FrameCache"]:
        """This plan's frames by key, or ``None`` when no run keeps one.

        Never serialized (see "Dimension frame" in the module docstring).
        """
        # Not memoised: a plan that keeps no frame keeps no layout either.
        layout = _classify_frame(self, False, ())
        return _FrameCache(layout) if layout.active else None

    def describe(self, indent: str = "") -> str:
        """A readable listing of the plan, for debugging and tests."""
        lines: List[str] = []
        for register, op in enumerate(self.ops):
            args = ", ".join(f"r{i}" for i in op.inputs)
            detail = ""
            if op.name is not None:
                detail += f" name={op.name!r}"
            if op.value is not None:
                detail += f" value={op.value!r}"
            if op.symbol is not None:
                detail += f" symbol={op.symbol!r}"
            if op.kind is not None:
                detail += f" kind={op.kind!r}"
            lines.append(f"{indent}r{register} = {op.opcode}({args}){detail}")
            if op.body is not None:
                captured = ", ".join(f"r{i}" for i in op.captures)
                lines.append(f"{indent}  captures [{captured}] body:")
                lines.append(op.body.describe(indent + "    "))
        lines.append(f"{indent}return r{self.result}")
        return "\n".join(lines)

    def explain(self, instance: Any = None, backend: Any = None) -> str:
        """A report of the plan and the optimizer / planner decisions.

        Three sections: the op listing, the logical-optimizer notes recorded
        at compile time (normalization and cost-based reordering), and —
        when an ``instance`` is supplied — the physical plan: the execution
        backend adaptive selection would pick for that instance (or the one
        ``backend`` pins), with the statistics that drove the choice and the
        per-op execution assignment.

        The ``r<register>`` labels in the op listing are the same names the
        request tracer gives its per-op kernel spans (``r3 matmul`` in a
        :meth:`repro.obs.trace.Tracer.hot_plans` breakdown or an exported
        Chrome trace is line ``r3`` of this listing), so a hot span maps
        straight back to a plan op.
        """
        sections: List[str] = ["plan:", self.describe(indent="  ")]
        sections.append("logical optimizer:")
        if self.notes:
            sections.extend(f"  {note}" for note in self.notes)
        else:
            sections.append("  (no rewrites fired)")
        if instance is not None:
            # Imported lazily: the backends module is a consumer of values,
            # not of the IR, and must stay importable without this module.
            from repro.semiring.backends import plan_physical

            physical = plan_physical(self, instance, backend)
            sections.append("physical plan:")
            sections.extend(f"  {note}" for note in physical.notes)
            default = physical.default_tag
            mode = physical.batch_mode
            batch_labels = {
                "dense": "dense-stack",
                "sparse": "block-diag CSR",
            }
            if mode is None:
                sections.append("  batch execution: per-instance fallback")
            else:
                sections.append(f"  batch execution: {mode}")
            for register, op in enumerate(physical.plan.ops):
                assigned = op.backend or default
                if mode is None:
                    batched = "per-instance fallback"
                else:
                    batched = batch_labels.get(assigned, assigned)
                if op.opcode in ("to_dense", "to_sparse"):
                    source = op.name or default
                    sections.append(
                        f"  r{register} {op.opcode}: {source} -> {assigned} "
                        f"(inserted conversion) [batch: {batched}]"
                    )
                    continue
                if op.opcode == "apply":
                    assigned = f"{assigned} (dense round-trip)"
                sections.append(
                    f"  r{register} {op.opcode}: {assigned} [batch: {batched}]"
                )
            sections.append("loop execution (evaluate):")
            runtime = _Runtime(physical.backend, (instance,), None)
            layout = _frame_layout(physical.plan, False, ())
            sections.append(f"  frame: {_frame_registers(layout)}")
            loops = _explain_loops(
                physical.plan, runtime, physical.backend, physical.backends, layout
            )
            sections.extend(loops or ["  (no loops)"])
        return "\n".join(sections)


# ----------------------------------------------------------------------
# Wire format (worker handoff)
# ----------------------------------------------------------------------
#: Version tag of the serialized-plan payload.  Bumped whenever the
#: structural encoding below changes shape, so a worker from a different
#: build rejects the payload instead of mis-executing it.
PLAN_WIRE_VERSION = 1

#: The ``PlanOp`` fields carried on the wire, in payload order.
_OP_WIRE_FIELDS = (
    "opcode",
    "inputs",
    "type",
    "name",
    "value",
    "symbol",
    "kind",
    "body",
    "captures",
    "accumulator_type",
    "backend",
)


def _plan_state(plan: "Plan"):
    """Structural (tuples-of-primitives) form of a plan for serialization."""
    ops = []
    for op in plan.ops:
        state = []
        for field_name in _OP_WIRE_FIELDS:
            value = getattr(op, field_name)
            if field_name == "body" and value is not None:
                value = _plan_state(value)
            state.append(value)
        ops.append(tuple(state))
    return (tuple(ops), plan.result, plan.pinned, plan.notes)


def _plan_from_state(state) -> "Plan":
    ops_state, result, pinned, notes = state
    ops = []
    for op_state in ops_state:
        fields = dict(zip(_OP_WIRE_FIELDS, op_state))
        if fields["body"] is not None:
            fields["body"] = _plan_from_state(fields["body"])
        ops.append(PlanOp(**fields))
    return Plan(
        ops=tuple(ops), result=result, pinned=tuple(pinned), notes=tuple(notes)
    )


def serialize_plan(plan: "Plan") -> bytes:
    """Encode a compiled plan for handoff to a worker process.

    The payload is a pickled *structural* form — nested tuples of the
    ``PlanOp`` fields rather than the dataclass instances themselves — so
    the wire format is pinned by :data:`_OP_WIRE_FIELDS` and
    :data:`PLAN_WIRE_VERSION` instead of by whatever pickle happens to do
    with the classes.  Constant payloads (``const`` ops may carry semiring
    carriers such as provenance polynomials) ride along pickled as values.
    """
    import pickle

    return pickle.dumps(
        (PLAN_WIRE_VERSION, _plan_state(plan)), protocol=pickle.HIGHEST_PROTOCOL
    )


def deserialize_plan(payload: bytes) -> "Plan":
    """Decode a :func:`serialize_plan` payload back into a :class:`Plan`."""
    import pickle

    try:
        version, state = pickle.loads(payload)
    except Exception as error:
        raise EvaluationError(f"malformed plan payload: {error}") from error
    if version != PLAN_WIRE_VERSION:
        raise EvaluationError(
            f"plan wire version mismatch: payload v{version}, "
            f"this build speaks v{PLAN_WIRE_VERSION}"
        )
    return _plan_from_state(state)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
class _Runtime:
    """Per-execution context shared by a plan and its nested bodies.

    ``instances`` are the instances every value carries: one for
    :func:`execute_plan`, ``B`` for :func:`execute_plan_batch`, and the
    loop's instances once per lane in a lane pass.  Dimension symbols
    resolve against the first (a batch is validated to agree on every
    dimension).  A variable load imports one matrix per instance through
    the backend's ``stack_instance_matrices``, cached so a plan reloading a
    variable (or repeated loop iterations) imports it once.

    ``stack_cache`` optionally persists the loaded stacks *across* calls
    (see :class:`StackCache`): repeated sweeps over the same instances — the
    ``CompiledWorkload.run_batch`` pattern — then re-stack nothing.
    """

    def __init__(
        self,
        backend: Any,
        instances: Tuple[Any, ...],
        functions: Any,
        backends: Any = None,
        profiler: Any = None,
        stack_cache: Optional["StackCache"] = None,
    ) -> None:
        self.backend = backend
        self.instances = instances
        self.functions = functions
        #: Physical tag -> backend map for per-op dispatch (``None``: every
        #: op runs on ``backend``, the historical whole-plan behaviour).
        self.backends = backends
        #: Optional :class:`~repro.profile.recorder.ExecutionProfiler` fed
        #: one observation per executed op.
        self.profiler = profiler
        self._loads: dict = {}
        self._stack_cache = stack_cache
        self._batch_token = (
            None if stack_cache is None else tuple(id(instance) for instance in instances)
        )

    def dimension(self, symbol: str, context: str) -> int:
        if symbol is None:
            raise EvaluationError(f"plan op for {context} is missing its size symbol")
        instance = self.instances[0]
        if symbol.startswith("?"):
            # Unconstrained dimension: same square-schema fallback as the
            # interpreted evaluator (see Evaluator._dimension).
            non_scalar = sorted(
                name for name in instance.dimensions if name != "1"
            )
            if len(non_scalar) == 1:
                return instance.dimension(non_scalar[0])
            raise EvaluationError(
                f"cannot determine the dimension of {context}: the size symbol is "
                "unconstrained; declare the variable in the schema or add a TypeHint"
            )
        return instance.dimension(symbol)

    def shape(self, matrix_type: Optional[MatrixType], context: str) -> Tuple[int, int]:
        if matrix_type is None:
            raise EvaluationError(f"plan op for {context} is missing its type")
        row_symbol, col_symbol = matrix_type
        return (
            self.dimension(row_symbol, f"{context} (rows)"),
            self.dimension(col_symbol, f"{context} (columns)"),
        )

    def load(self, name: str, backend: Any) -> Any:
        # Stacks are representation-specific (dense (B, r, c) arrays vs
        # block-diagonal CSR), so the cache key carries the backend name: a
        # mixed plan loading one variable on both representations — or a
        # profile flip re-running the same instances on the other lane —
        # must never see the other lane's stack.
        key = f"{name}@{backend.name}"
        value = self._loads.get(key)
        if value is not None:
            return value
        if self._stack_cache is not None:
            value = self._stack_cache.lookup(key, self._batch_token, self.instances)
        if value is None:
            value = backend.stack_instance_matrices(
                [instance.matrix(name) for instance in self.instances]
            )
            if self._stack_cache is not None:
                self._stack_cache.store(key, self._batch_token, self.instances, value)
        self._loads[key] = value
        return value


def execute_plan(
    plan: Plan,
    backend: Any,
    instance: Any,
    functions: Any,
    backends: Any = None,
    profiler: Any = None,
) -> Any:
    """Run ``plan`` against ``instance`` on ``backend``.

    ``backend`` executes every untagged op; ops carrying a physical
    ``backend`` tag dispatch through the ``backends`` map (required whenever
    the plan is tagged — the physical planner supplies both together).
    ``profiler`` optionally records one timing observation per executed op.
    Returns a backend value hosted on the backend that computed the result
    op; callers convert through that backend's ``to_dense`` (and copy)
    before handing it to user code.
    """
    runtime = _Runtime(backend, (instance,), functions, backends, profiler)
    return _execute(plan, runtime)


def _execute(plan: Plan, runtime: _Runtime) -> Any:
    """Run a whole plan over ``runtime``, through its frame for the key.

    A plan no run keeps a frame for takes :func:`_run` directly.  Otherwise
    the first run for a key fills a new frame and stores it once the run
    has finished, so a frame op that raises stores nothing.
    """
    frames = plan._frames
    if frames is None:
        return _run(plan, runtime, (), None, None)
    key = _frame_key(runtime)
    frame = frames.get(key)
    if frame is not None:
        return _run(plan, runtime, (), None, None, None, frame)
    frame = _Frame(frames.layout)
    value = _run(plan, runtime, (), None, None, None, frame)
    frames.store(key, frame)
    return value


def _run(
    plan: Plan,
    runtime: _Runtime,
    captured: Tuple[Any, ...],
    iterator: Any,
    accumulator: Any,
    default: Any = None,
    frame: Optional["_Frame"] = None,
) -> Any:
    """Run ``plan`` (or a loop body) over ``runtime``'s instances.

    ``default`` runs the untagged ops (the runtime's backend unless a loop
    passes its own); tagged ops dispatch through ``runtime.backends``.  A
    value carries every instance of the runtime, as the backend represents
    them, so shapes are read per instance through ``batch_shape``; a
    ``scale`` factor is one ``1 x 1`` scalar per instance.

    ``frame`` is the plan's frame for this key, or ``None``.  An empty one
    is filled from this run's values; a filled one supplies its frame
    registers, and only the other ops execute.

    ``runtime.profiler`` gets ``record(op, backend_name, values, seconds)``
    after each executed op.  ``values`` is the register list up to that op:
    ``values[-1]`` is the op's result, ``len(values) - 1`` its register and
    ``values[i]`` the value of register ``i``.  Frame registers are filled
    in place, unrecorded, so on a warm frame the recorded registers need
    not be contiguous.
    """
    if default is None:
        default = runtime.backend
    backends = runtime.backends
    profiler = runtime.profiler
    values: List[Any] = []
    append = values.append
    steps = plan.ops if frame is None or frame.steps is None else frame.steps

    for op in steps:
        opcode = op.opcode
        tag = op.backend
        if tag is None:
            backend = default
        elif tag is _FrameRun:
            values.extend(op.values)
            continue
        else:
            backend = None if backends is None else backends.get(tag)
            if backend is None:
                raise EvaluationError(
                    f"plan op {opcode!r} is tagged for backend {tag!r}, which "
                    "the supplied backend map does not provide"
                )
        started = time.perf_counter() if profiler is not None else 0.0

        if opcode == "matmul":
            append(backend.matmul(values[op.inputs[0]], values[op.inputs[1]]))
        elif opcode == "add":
            append(backend.add(values[op.inputs[0]], values[op.inputs[1]]))
        elif opcode == "hadamard":
            append(backend.hadamard(values[op.inputs[0]], values[op.inputs[1]]))
        elif opcode == "scale":
            factor = values[op.inputs[0]]
            shape = backend.batch_shape(factor)
            if shape != (1, 1):
                raise EvaluationError(
                    f"scalar multiplication expects a 1x1 left operand, got {shape}"
                )
            append(backend.scale(factor, values[op.inputs[1]]))
        elif opcode == "transpose":
            append(backend.transpose(values[op.inputs[0]]))
        elif opcode == "load":
            append(runtime.load(op.name, backend))
        elif opcode == "const":
            append(backend.constant(op.value))
        elif opcode == "iterator":
            if iterator is None:
                raise EvaluationError("iterator referenced outside of a loop body")
            append(iterator)
        elif opcode == "accumulator":
            if accumulator is None:
                raise EvaluationError("accumulator referenced outside of a for-loop body")
            append(accumulator)
        elif opcode == "capture":
            append(captured[op.value])
        elif opcode == "ones":
            append(backend.ones(backend.batch_shape(values[op.inputs[0]])[0], 1))
        elif opcode == "ones_type":
            rows, cols = runtime.shape(op.type, "a fused ones matrix")
            append(backend.ones(rows, cols))
        elif opcode == "identity_of":
            append(backend.identity(backend.batch_shape(values[op.inputs[0]])[0]))
        elif opcode == "identity_sym":
            append(backend.identity(runtime.dimension(op.symbol, "a fused identity")))
        elif opcode == "diag":
            operand = values[op.inputs[0]]
            shape = backend.batch_shape(operand)
            if shape[1] != 1:
                raise EvaluationError(f"diag expects a column vector, got shape {shape}")
            append(backend.diag(operand))
        elif opcode == "apply":
            append(_run_apply(op, values, runtime, backend))
        elif opcode == "loop":
            append(_run_loop(op, values, runtime, backend, frame))
        elif opcode == "nsum":
            count = runtime.dimension(op.symbol, "a fused quantifier")
            append(backend.nsum(values[op.inputs[0]], count))
        elif opcode == "row_sums":
            append(backend.row_sums(values[op.inputs[0]]))
        elif opcode == "col_sums":
            append(backend.col_sums(values[op.inputs[0]]))
        elif opcode == "trace":
            append(backend.trace(values[op.inputs[0]]))
        elif opcode == "diag_of_diag":
            append(backend.diag_of_diagonal(values[op.inputs[0]]))
        elif opcode == "diag_product":
            append(backend.diag_product(values[op.inputs[0]]))
        elif opcode == "power":
            count = runtime.dimension(op.symbol, "a fused matrix-product quantifier")
            append(backend.power(values[op.inputs[0]], count))
        elif opcode == "hadamard_power":
            count = runtime.dimension(op.symbol, "a fused Hadamard quantifier")
            append(backend.hadamard_power(values[op.inputs[0]], count))
        elif opcode in ("to_dense", "to_sparse"):
            # Physical-planner conversion: re-host the value on this op's
            # target backend through the dense boundary contract, once for
            # all of the runtime's instances.
            if op.name is None:
                source = default
            else:
                source = None if backends is None else backends.get(op.name)
                if source is None:
                    raise EvaluationError(
                        f"conversion op {opcode!r} names source backend "
                        f"{op.name!r}, which the backend map does not provide"
                    )
            append(backend.from_dense(source.to_dense(values[op.inputs[0]])))
        else:  # pragma: no cover - the compiler only emits known opcodes
            raise EvaluationError(f"unknown plan opcode {opcode!r}")

        if profiler is not None:
            profiler.record(op, backend.name, values, time.perf_counter() - started)

    if frame is not None and frame.steps is None:
        frame.fill(plan, values)
    return values[plan.result]


def _run_apply(op: PlanOp, values: List[Any], runtime: _Runtime, backend: Any) -> Any:
    function = runtime.functions.get(op.name)
    operands = [backend.to_dense(values[register]) for register in op.inputs]
    shape = operands[0].shape
    for operand in operands[1:]:
        if operand.shape != shape:
            raise EvaluationError(
                f"pointwise function {op.name!r} applied to matrices of "
                f"different shapes {shape} and {operand.shape}"
            )
    result = function.apply_matrix(backend.semiring, operands)
    return backend.from_dense(result)


def _run_loop(
    op: PlanOp,
    values: List[Any],
    runtime: _Runtime,
    backend: Any,
    frame: Optional["_Frame"] = None,
) -> Any:
    """Run one ``loop`` op on ``backend``.

    :func:`_loop_mode` decides whether the loop runs as lanes
    (:func:`_run_lanes`); otherwise it iterates in order, running its body
    through :func:`_run` once per canonical vector.  ``frame`` is the
    enclosing plan's; every iteration shares the body's frame, which the
    first one fills.
    """
    count = runtime.dimension(op.symbol, "a loop iterator")
    captured = tuple(values[register] for register in op.captures)
    body = op.body
    accumulator = None
    if op.kind == "for":
        if op.inputs:
            accumulator = values[op.inputs[0]]
        else:
            rows, cols = runtime.shape(op.accumulator_type, "a loop accumulator")
            accumulator = backend.zeros(rows, cols)
    mode = _loop_mode(op, runtime, backend, count)
    if frame is not None:
        frame = frame.body(len(values), op, mode, count)
    if mode.width:
        return _run_lanes(op, mode, captured, accumulator, count, runtime, backend, frame)

    if op.kind == "for":
        for index in range(count):
            iterator = backend.basis_column(count, index)
            accumulator = _run(body, runtime, captured, iterator, accumulator, backend, frame)
        return accumulator

    if op.kind == "sum":
        combine = backend.add
    elif op.kind == "hadamard":
        combine = backend.hadamard
    elif op.kind == "product":
        combine = backend.matmul
    else:  # pragma: no cover - the compiler only emits known kinds
        raise EvaluationError(f"unknown loop kind {op.kind!r}")

    for index in range(count):
        iterator = backend.basis_column(count, index)
        value = _run(body, runtime, captured, iterator, None, backend, frame)
        accumulator = value if accumulator is None else combine(accumulator, value)
    if accumulator is None:  # pragma: no cover - dimensions are always >= 1
        raise EvaluationError("quantifier iterated over an empty dimension")
    return accumulator


# ----------------------------------------------------------------------
# Lane execution of Sigma / Pi-o loops and affine for loops
# ----------------------------------------------------------------------
#: Upper bound on the entries of one lane-stacked body value: a vectorised
#: loop splits its iterator range into chunks so that lanes x the largest
#: per-lane value of its body stays below it (512 KiB of float64).
LANE_ENTRY_BUDGET = 1 << 16


class _LoopMode(namedtuple("_LoopMode", "width entries reason")):
    """How one loop op runs (see :func:`_loop_mode`).

    ``width`` iterations share one lane pass, or ``0`` when the loop
    iterates in order for ``reason``; ``entries`` is ``m``, the entry count
    of an affine ``for`` loop's accumulator, and ``0`` for ``Sigma`` /
    ``Pi-o`` lanes.
    """

    __slots__ = ()

    def describe(self) -> str:
        if not self.width:
            return f"in order ({self.reason})"
        if self.entries:
            return f"affine lanes, m={self.entries}, chunk width {self.width}"
        return f"lanes, chunk width {self.width}"


def _loop_mode(op: PlanOp, runtime: _Runtime, backend: Any, count: int) -> _LoopMode:
    """How ``op`` runs on ``backend``, from the plan and the dimensions only.

    Only :func:`_lane_capable` backends run lanes.  A ``sum`` /
    ``hadamard`` loop runs as lanes when a chunk holds at least
    two iterations.  A ``for`` loop runs as affine lanes when its
    accumulator type has a ``1`` dimension, its body is affine in it
    (:attr:`Plan.affine_body`) and one instance's lanes fit
    :data:`LANE_ENTRY_BUDGET`; the batch size only narrows its chunks.
    :func:`_run_loop` executes this decision and :meth:`Plan.explain`
    reports it.
    """
    if op.kind not in ("sum", "hadamard", "for"):
        return _LoopMode(0, 0, f"kind {op.kind!r}")
    if not _lane_capable(backend):
        dense = isinstance(backend, (DenseExecutionBackend, BatchedDenseBackend))
        return _LoopMode(0, 0, "object dtype" if dense else f"{backend.name} backend")
    batch = backend.batch_size if isinstance(backend, BatchedDenseBackend) else 1
    if op.kind != "for":
        width = _lane_width(op.body, runtime, batch, count)
        if width > 1:
            return _LoopMode(width, 0, None)
        return _LoopMode(0, 0, "over the lane budget")
    if op.type is None or SCALAR_SYMBOL not in op.type:
        return _LoopMode(0, 0, "accumulator not a vector")
    body = op.body.affine_body
    if body is None:
        return _LoopMode(0, 0, "body not affine")
    rows, cols = runtime.shape(op.type, "a loop accumulator")
    # Per iteration and instance: one lane for each binding of (X, t).
    footprint = (rows * cols + 1) * _largest_value(body, runtime, count)
    if count * footprint > LANE_ENTRY_BUDGET:
        return _LoopMode(0, 0, "over the lane budget")
    width = max(1, min(count, LANE_ENTRY_BUDGET // (batch * footprint)))
    return _LoopMode(width, rows * cols, None)


def _lane_capable(backend: Any) -> bool:
    """Whether loops on ``backend`` may run as lanes.

    Lanes need the dense ``(lanes, rows, cols)`` representation; object
    dtypes gain nothing from it (their kernels fold entry by entry anyway),
    and sparse backends keep their own representation, so both iterate.
    """
    return (
        isinstance(backend, (DenseExecutionBackend, BatchedDenseBackend))
        and np.dtype(backend.kernels.dtype) != np.dtype(object)
    )


def _run_lanes(
    op: PlanOp,
    mode: _LoopMode,
    captured: Tuple[Any, ...],
    accumulator: Any,
    count: int,
    runtime: _Runtime,
    backend: Any,
    frame: Optional["_Frame"] = None,
) -> Any:
    """A ``sum`` / ``hadamard`` loop or an affine ``for`` loop as lanes.

    ``backend`` holds ``B`` instances: a :class:`BatchedDenseBackend` of
    batch size ``B`` or a single-instance dense backend (``B = 1``).  Each
    iteration takes ``p`` lanes per instance: one for a quantifier, and one
    per binding ``j`` of ``(X, t)`` for an affine loop (``(e_j, 0)`` for
    ``j < m``, then ``(0, 1)``).  A chunk of ``k <= mode.width`` iterations
    runs the body once on a ``BatchedDenseBackend`` of ``k * p * B`` lanes;
    lane ``(i * p + j) * B + b`` binds the iterator to canonical vector
    ``start + i`` of instance ``b``, and each capture is repeated ``k * p``
    times.  A quantifier's lanes are folded one iteration at a time with the
    kernels' own entrywise sum or product; an affine loop applies each
    iteration's map ``X <- M_v . X + b_v`` in turn with the kernels' batched
    matmul and add.  Both follow the tree-walk's iteration order, and the
    kernels' overflow checks hold on any stack rank.

    ``frame`` is the body's frame, kept only for a pass of one chunk: it
    holds the chunk's bindings (lanes backend, iterator and ``(t, X)``
    stacks), and a filled one also supplies the lane copies of the
    captures that are frame values.
    """
    single = not isinstance(backend, BatchedDenseBackend)
    batch = 1 if single else backend.batch_size
    kernels = backend.kernels
    entries = mode.entries
    per_iteration = entries + 1
    if entries:
        body = op.body.affine_body
        rows, cols = accumulator.shape[-2:]
        total = accumulator[None] if single else accumulator
    else:
        body = op.body
        combine = kernels.add_matrices if op.kind == "sum" else kernels.hadamard
        total = None
    chunks = _lane_chunks(backend, mode, count, batch, accumulator)
    # A filled frame holds the lane copies of the captures that are frame values.
    skipped = (False,) * len(captured)
    if frame is not None:
        if frame.bindings is None:
            frame.bind(tuple(chunks))
        elif frame.steps is not None:
            skipped = frame.layout.captures[1:] if entries else frame.layout.captures
        chunks = frame.bindings
    for copies, lanes, iterator, t_lanes, x_lanes in chunks:
        lane_runtime = _Runtime(
            lanes,
            runtime.instances * (copies * per_iteration),
            runtime.functions,
            profiler=runtime.profiler,
        )
        lane_captures = tuple(
            None if skip else _per_lane(value, copies * per_iteration)
            for value, skip in zip(captured, skipped)
        )
        if not entries:
            value = _run(body, lane_runtime, lane_captures, iterator, None, None, frame)
            # Fold in iteration order, carrying the total across chunks: the
            # tree-walk's left fold, whatever the chunk widths or batch size.
            for index in range(copies):
                lane = value[index * batch : (index + 1) * batch]
                total = lane if total is None else combine(total, lane)
            continue
        value = _run(
            body, lane_runtime, (t_lanes,) + lane_captures, iterator, x_lanes, None, frame
        )
        g = np.ascontiguousarray(value).reshape(copies, per_iteration, batch, entries)
        offsets = g[:, entries].reshape(copies, batch, rows, cols)
        # L_v(e_j) is column j of M_v (X <- M_v X + b_v) for a column
        # accumulator and row j of M_v (X <- X M_v + b_v) for a row; each
        # (B, m, m) stack is contiguous, whatever B is.
        axes = (0, 2, 3, 1) if cols == 1 else (0, 2, 1, 3)
        maps = np.ascontiguousarray(g[:, :entries].transpose(axes))
        for index in range(copies):
            if cols == 1:
                product = kernels.batch_matmul(maps[index], total)
            else:
                product = kernels.batch_matmul(total, maps[index])
            total = kernels.batch_add(product, offsets[index])
    return total[0] if single else total


def _lane_chunks(backend: Any, mode: _LoopMode, count: int, batch: int, accumulator: Any):
    """Yield ``(copies, lanes, iterator, t, X)`` for each chunk of a lane pass.

    ``lanes`` is the chunk's :class:`BatchedDenseBackend` and ``iterator``
    its canonical vectors, lane ``(i * p + j) * B + b`` (see
    :func:`_run_lanes`); ``t`` and ``X`` are the ``(t, X)`` bindings of an
    affine loop, ``None`` for a quantifier.
    """
    kernels = backend.kernels
    basis = kernels.identity(count)
    entries = mode.entries
    if entries:
        rows, cols = accumulator.shape[-2:]
        # The (t, X) bindings of one iteration, lane j * B + b.
        t = np.concatenate([kernels.zeros(entries, 1), kernels.ones(1, 1)])
        x = np.concatenate([kernels.identity(entries), kernels.zeros(1, entries)])
        bindings = [
            np.repeat(stack.reshape(-1, *shape), batch, axis=0)
            for stack, shape in ((t, (1, 1)), (x, (rows, cols)))
        ]
    repeats = (entries + 1) * batch
    for start in range(0, count, mode.width):
        copies = min(count, start + mode.width) - start
        lanes = BatchedDenseBackend(backend.semiring, copies * repeats)
        iterator = basis[start : start + copies, :, None]
        if repeats > 1:
            iterator = np.repeat(iterator, repeats, axis=0)
        t_lanes = x_lanes = None
        if entries:
            t_lanes, x_lanes = (np.tile(stack, (copies, 1, 1)) for stack in bindings)
        yield copies, lanes, iterator, t_lanes, x_lanes


def _explain_loops(
    plan: Plan,
    runtime: _Runtime,
    default: Any,
    backends: Any,
    layout: Optional["_FrameLayout"],
    indent: str = "  ",
) -> List[str]:
    """One line per loop op of ``plan`` and its bodies: mode and frame.

    A body runs on its loop's backend when the loop iterates in order, and
    on the lanes of the loop's first chunk otherwise.  ``layout`` is the
    frame layout ``plan`` runs with, or ``None`` when it keeps no frame.  A
    loop that is itself a frame value runs once per key.  An affine body's
    frame is listed in the numbering of the body as written: its
    homogenized copy has the same frame values, and its scaled summands.
    """
    lines: List[str] = []
    for register, op in enumerate(plan.ops):
        if op.opcode != "loop":
            continue
        backend = default if op.backend is None else backends[op.backend]
        count = runtime.dimension(op.symbol, "a loop iterator")
        mode = _loop_mode(op, runtime, backend, count)
        inner = None
        if layout is not None and layout.frame[register]:
            kept = "frame value"
        elif layout is None or _body_frame_layout(layout, register, op, mode, count) is None:
            kept = "body frame: none"
        else:
            captures = tuple(layout.frame[source] for source in op.captures)
            inner = _frame_layout(op.body, bool(mode.width), captures)
            kept = f"body frame: {_frame_registers(inner)}"
        lines.append(
            f"{indent}r{register} {op.kind} over {op.symbol}: {mode.describe()}; {kept}"
        )
        if mode.width:
            batch = backend.batch_size if isinstance(backend, BatchedDenseBackend) else 1
            lanes = mode.width * (mode.entries + 1) * batch
            backend = BatchedDenseBackend(backend.semiring, lanes)
        lines.extend(_explain_loops(op.body, runtime, backend, backends, inner, indent + "  "))
    return lines


def _largest_value(body: Plan, runtime: _Runtime, count: int) -> int:
    """Entries of the largest value ``body``'s ops produce, per lane.

    Read from the ops' resolved types (the iterator itself has ``count``
    entries); types with an unresolvable symbol do not count.
    """
    largest = count
    for value_type in body.value_types:
        try:
            rows, cols = runtime.shape(value_type, "a loop body value")
        except (EvaluationError, SchemaError):
            continue
        largest = max(largest, rows * cols)
    return largest


def _lane_width(body: Plan, runtime: _Runtime, batch: int, count: int) -> int:
    """Iterations per ``Sigma`` / ``Pi-o`` lane chunk, from dimensions only."""
    return max(1, min(count, LANE_ENTRY_BUDGET // (batch * _largest_value(body, runtime, count))))


def _per_lane(value: Any, copies: int) -> Any:
    """A capture repeated for ``copies`` iterations, as a lane stack.

    A ``(B, r, c)`` stack becomes ``(copies * B, r, c)`` with lane
    ``i * B + b`` holding instance ``b``; a single ``(r, c)`` matrix
    becomes a stride-0 ``(copies, r, c)`` view (kernels never mutate
    their operands).
    """
    if value.ndim == 2:
        return np.broadcast_to(value, (copies,) + value.shape)
    if copies == 1:
        return value
    return np.tile(value, (copies, 1, 1))


#: Opcodes linear in their one operand on every semiring.
_LINEAR_OPCODES = frozenset(
    {"transpose", "diag", "nsum", "row_sums", "col_sums", "trace", "diag_of_diag"}
)
#: Opcodes that read only their operand's shape.
_SHAPE_OPCODES = frozenset({"ones", "identity_of"})
#: Products, linear in each operand separately.
_PRODUCT_OPCODES = frozenset({"matmul", "hadamard", "scale"})


def _homogenize(body: Plan) -> Optional[Plan]:
    """``g(X, t)`` of a ``for`` body affine in its accumulator, or ``None``.

    Classifies the body op by op (see "Affine ``for`` loops" in the module
    docstring) and copies it with ``t`` as capture 0: every other capture
    index moves up by one, and an ``X``-free summand of an add that reads
    ``X`` is scaled by ``t`` first.
    """
    ops: List[PlanOp] = [PlanOp("capture", type=scalar_type(), value=0)]
    where: List[int] = []  # body register -> register of g
    reads: List[bool] = []  # body register depends on X
    for op in body.ops:
        if op.backend is not None:
            return None
        inputs = [where[register] for register in op.inputs]
        dependent = [reads[register] for register in op.inputs]
        changes: dict = {}
        if op.opcode == "accumulator":
            read = True
        elif op.opcode == "capture":
            read = False
            changes["value"] = op.value + 1
        elif op.opcode == "loop":
            if any(dependent) or any(reads[register] for register in op.captures):
                return None
            read = False
            changes["captures"] = tuple(where[register] for register in op.captures)
        elif not any(dependent) or op.opcode in _SHAPE_OPCODES:
            read = False
        elif op.opcode in _LINEAR_OPCODES or (
            op.opcode in _PRODUCT_OPCODES and not all(dependent)
        ):
            read = True
        elif op.opcode == "add":
            read = True
            for side, flag in enumerate(dependent):
                if not flag:
                    operand_type = body.ops[op.inputs[side]].type
                    ops.append(PlanOp("scale", (0, inputs[side]), type=operand_type))
                    inputs[side] = len(ops) - 1
        else:
            return None
        ops.append(replace(op, inputs=tuple(inputs), **changes))
        where.append(len(ops) - 1)
        reads.append(read)
    if not reads[body.result]:
        return None
    return Plan(
        ops=tuple(ops),
        result=where[body.result],
        pinned=tuple(where[register] for register in body.pinned),
        notes=body.notes,
    )


# ----------------------------------------------------------------------
# Dimension frame
# ----------------------------------------------------------------------
#: Keys whose frames one plan keeps; the first stored is evicted first.
FRAME_CAPACITY = 8
#: Bytes of frame values one plan keeps over all its keys; a frame larger
#: on its own is not kept.
FRAME_BYTE_BUDGET = 32 << 20
#: Opcodes whose value depends on the dimensions and the semiring alone.
_FRAME_OPCODES = frozenset({"const", "identity_sym", "ones_type"}) | _SHAPE_OPCODES
#: Serialises stores into the plans' frame caches (lookups take no lock).
_FRAME_LOCK = threading.Lock()


def _reset_frame_lock() -> None:
    # A thread of the parent may hold the lock at the instant of a fork.
    global _FRAME_LOCK
    _FRAME_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_frame_lock)


class _FrameLayout(namedtuple("_FrameLayout", "frame live active captures")):
    """Which registers of a plan are frame values in one calling context.

    ``frame[r]`` says whether register ``r`` is a frame value; ``live[r]``
    whether a warm run must supply it (an executed op, a loop or the
    result reads it).  ``active`` says whether a run keeps a frame at all:
    the plan has a frame value or a loop whose body may keep one.
    ``captures`` is the context: per capture index, whether the enclosing
    plan's register is a frame value.
    """

    __slots__ = ()


def _frame_layout(plan: Plan, lanes: bool, captures: Tuple[bool, ...]) -> _FrameLayout:
    """The frame layout of ``plan`` in one calling context, memoised on it.

    ``lanes`` is true for the body of a lane pass, whose chunk fixes the
    iterator and accumulator; ``captures`` as in :class:`_FrameLayout`.
    """
    memo = plan._frame_layouts
    layout = memo.get((lanes, captures))
    if layout is None:
        layout = memo[(lanes, captures)] = _classify_frame(plan, lanes, captures)
    return layout


def _classify_frame(plan: Plan, lanes: bool, captures: Tuple[bool, ...]) -> _FrameLayout:
    """Classify ``plan``'s registers (see "Dimension frame")."""
    frame: List[bool] = []
    for op in plan.ops:
        opcode = op.opcode
        if op.backend is not None or opcode in ("load", "apply"):
            flag = False
        elif opcode in _FRAME_OPCODES:
            flag = True
        elif opcode in ("iterator", "accumulator"):
            flag = lanes
        elif opcode == "capture":
            flag = op.value < len(captures) and captures[op.value]
        else:
            flag = all(frame[register] for register in op.inputs)
            if opcode == "loop" and flag:
                # Run once for the key, the loop binds its iterator and
                # accumulator to values of the dimensions alone.
                whole = _frame_layout(op.body, True, (True,) * len(op.captures))
                flag = whole.frame[op.body.result] and all(
                    frame[register] for register in op.captures
                )
        frame.append(flag)
    live = [False] * len(frame)
    live[plan.result] = frame[plan.result]
    active = any(frame)
    for register, op in enumerate(plan.ops):
        if frame[register]:
            continue
        for source in op.inputs + op.captures:
            live[source] = live[source] or frame[source]
        if op.opcode == "loop" and not active:
            inner = tuple(frame[source] for source in op.captures)
            active = any(
                _body_layout(op, mode, inner).active for mode in _possible_modes(op)
            )
    return _FrameLayout(tuple(frame), tuple(live), active, captures)


def _possible_modes(op: PlanOp) -> Tuple[_LoopMode, ...]:
    """Stand-ins for the modes loop ``op`` may run in, whatever the key."""
    modes = [_LoopMode(0, 0, None)]
    if op.kind in ("sum", "hadamard"):
        modes.append(_LoopMode(1, 0, None))
    elif (
        op.kind == "for"
        and op.type is not None
        and SCALAR_SYMBOL in op.type
        and op.body.affine_body is not None
    ):
        modes.append(_LoopMode(1, 1, None))
    return tuple(modes)


def _body_layout(op: PlanOp, mode: _LoopMode, captures: Tuple[bool, ...]) -> _FrameLayout:
    """The layout of the plan loop ``op`` runs for its body in ``mode``."""
    if mode.entries:
        return _frame_layout(op.body.affine_body, True, (True,) + captures)
    return _frame_layout(op.body, bool(mode.width), captures)


def _body_frame_layout(
    layout: _FrameLayout, register: int, op: PlanOp, mode: _LoopMode, count: int
) -> Optional[_FrameLayout]:
    """The layout of the frame loop ``op`` at ``register`` keeps for its body.

    ``None`` when it keeps none: the loop is itself a frame value (it runs
    once per key), its lane pass has several chunks (their frames would
    pin every chunk's values where a run holds one at a time), or the body
    has no frame value and no loop that keeps a frame.
    """
    if layout.frame[register] or 0 < mode.width < count:
        return None
    inner = _body_layout(op, mode, tuple(layout.frame[source] for source in op.captures))
    return inner if inner.active else None


def _frame_registers(layout: Optional[_FrameLayout]) -> str:
    registers = [] if layout is None else [r for r, flag in enumerate(layout.frame) if flag]
    return ", ".join(f"r{register}" for register in registers) or "none"


def _frame_key(runtime: _Runtime) -> Tuple:
    """The key of a top-level frame: what its values may depend on."""
    backend = runtime.backend
    semiring = backend.semiring
    backends = runtime.backends
    return (
        frozenset(runtime.instances[0].dimensions.items()),
        semiring,
        semiring.kernels,
        type(backend),
        backend.name,
        len(runtime.instances),
        None
        if backends is None
        else frozenset((tag, type(other), other.name) for tag, other in backends.items()),
        LANE_ENTRY_BUDGET,
    )


class _FrameRun:
    """A warm schedule's stand-in for a run of frame registers: their values.

    Its ``backend`` tag is the class itself, which no backend map holds,
    so :func:`_run` tests for it only on its path for tagged ops.
    """

    __slots__ = ("values",)
    opcode = "frame"

    def __init__(self, values: List[Any]) -> None:
        self.values = tuple(values)


_FrameRun.backend = _FrameRun


def _read_only(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    return value


class _Frame:
    """The frame of one plan or loop body for one key.

    ``steps`` is ``None`` until a run fills it; then it is the plan's ops
    with each run of frame registers replaced by a :class:`_FrameRun`.
    ``bodies`` holds the frames of the loops' bodies by register, and
    ``bindings`` a one-chunk lane pass's chunk (see :func:`_lane_chunks`).
    """

    __slots__ = ("layout", "steps", "bodies", "bindings")

    def __init__(self, layout: _FrameLayout) -> None:
        self.layout = layout
        self.steps: Optional[Tuple[Any, ...]] = None
        self.bodies: dict = {}
        self.bindings: Optional[Tuple[Any, ...]] = None

    def body(self, register: int, op: PlanOp, mode: _LoopMode, count: int) -> Optional["_Frame"]:
        """The frame of the body of loop ``op`` at ``register``, made on first use."""
        try:
            return self.bodies[register]
        except KeyError:
            inner = _body_frame_layout(self.layout, register, op, mode, count)
            body = self.bodies[register] = None if inner is None else _Frame(inner)
            return body

    def bind(self, chunks: Tuple[Any, ...]) -> None:
        """Keep a lane pass's chunk bindings, read-only."""
        for chunk in chunks:
            for value in chunk[2:]:
                _read_only(value)
        self.bindings = chunks

    def fill(self, plan: Plan, values: List[Any]) -> None:
        """Keep the frame values of a finished run of ``plan``."""
        frame, live = self.layout.frame, self.layout.live
        steps: List[Any] = []
        run: List[Any] = []
        for register, op in enumerate(plan.ops):
            if frame[register]:
                run.append(_read_only(values[register]) if live[register] else None)
                continue
            if run:
                steps.append(_FrameRun(run))
                run = []
            steps.append(op)
        if run:
            steps.append(_FrameRun(run))
        self.steps = tuple(steps)

    def retained(self):
        """Every value this frame and its bodies' frames hold."""
        for step in self.steps or ():
            if type(step) is _FrameRun:
                yield from step.values
        for chunk in self.bindings or ():
            yield from chunk[2:]
        for body in self.bodies.values():
            if body is not None:
                yield from body.retained()


def _retained_bytes(values) -> int:
    """Bytes of the distinct buffers behind ``values`` (views share theirs)."""
    buffers = {}
    for value in values:
        while isinstance(getattr(value, "base", None), np.ndarray):
            value = value.base
        if value is not None:
            buffers[id(value)] = value
    return sum(StackCache._size_of(value) for value in buffers.values())


class _FrameCache:
    """A plan's frames by key (see "Dimension frame").

    At most :data:`FRAME_CAPACITY` keys and :data:`FRAME_BYTE_BUDGET`
    bytes, evicted first-in first-out.  Lookups read the dict without a
    lock; stores and evictions take :data:`_FRAME_LOCK`.
    """

    __slots__ = ("layout", "frames")

    def __init__(self, layout: _FrameLayout) -> None:
        self.layout = layout
        #: key -> (frame, retained bytes), oldest first.
        self.frames: dict = {}

    def get(self, key: Tuple) -> Optional[_Frame]:
        entry = self.frames.get(key)
        return None if entry is None else entry[0]

    def store(self, key: Tuple, frame: _Frame) -> None:
        size = _retained_bytes(frame.retained())
        if size > FRAME_BYTE_BUDGET:
            return
        with _FRAME_LOCK:
            frames = self.frames
            frames.setdefault(key, (frame, size))
            while len(frames) > FRAME_CAPACITY or (
                sum(kept for _, kept in frames.values()) > FRAME_BYTE_BUDGET
            ):
                del frames[next(iter(frames))]


# ----------------------------------------------------------------------
# Batched execution
# ----------------------------------------------------------------------
#: Atomic snapshot of a :class:`StackCache` (see :meth:`StackCache.info`).
StackCacheInfo = namedtuple("StackCacheInfo", "hits misses size bytes capacity")


class StackCache:
    """A bounded cross-call cache of stacked instance-matrix inputs.

    Keyed by ``(variable name, tuple of instance identities)``; the
    instances themselves are pinned in the entry so an identity can never be
    recycled while its stack is cached.  Stacks are never mutated by the
    executor (kernels treat operands as read-only), so sharing them across
    calls is safe.  Bounded FIFO on *both* entry count and retained bytes:
    a stacked chunk can be ~128 MiB on its own (see
    ``BATCH_CHUNK_ENTRY_BUDGET``), and each entry also pins its source
    instances, so a workload sweeping ever-fresh large batches must shed old
    stacks instead of accumulating gigabytes.

    The cache is thread-safe: lookup, store and the :meth:`info` snapshot
    each run under one lock, so concurrent batch executions (the service
    engine dispatches from its scheduler while callers may also run
    ``run_batch`` directly) can share a cache without lost updates to the
    entries, the byte accounting or the hit / miss counters.
    """

    #: Default cap on the summed sizes of the cached stacks (256 MiB):
    #: enough for a couple of budget-sized chunks, small enough that an
    #: abandoned sweep's stacks cannot dominate the process footprint.
    DEFAULT_BYTE_BUDGET = 256 * 1024 * 1024

    def __init__(self, capacity: int = 64, byte_budget: int = DEFAULT_BYTE_BUDGET) -> None:
        from collections import OrderedDict

        if capacity < 1:
            raise ValueError(f"stack cache capacity must be positive, got {capacity!r}")
        if byte_budget < 1:
            raise ValueError(f"stack cache byte budget must be positive, got {byte_budget!r}")
        self.capacity = capacity
        self.byte_budget = byte_budget
        self.hits = 0
        self.misses = 0
        self._bytes = 0
        self._entries: "OrderedDict[Tuple, Tuple[Any, Any]]" = OrderedDict()
        self._lock = threading.RLock()

    @staticmethod
    def _size_of(value: Any) -> int:
        nbytes = getattr(value, "nbytes", None)
        if nbytes is not None:
            return int(nbytes)
        # Block-diagonal CSR stacks: sum the constituent index/data arrays.
        return sum(
            int(getattr(getattr(value, field, None), "nbytes", 0))
            for field in ("data", "indices", "indptr")
        )

    def lookup(self, name: str, token: Tuple, instances: Any) -> Optional[Any]:
        with self._lock:
            entry = self._entries.get((name, token))
            if entry is not None and all(
                cached is live for cached, live in zip(entry[0], instances)
            ):
                self.hits += 1
                self._entries.move_to_end((name, token))
                return entry[1]
            self.misses += 1
            return None

    def store(self, name: str, token: Tuple, instances: Any, value: Any) -> None:
        size = self._size_of(value)
        if size > self.byte_budget:
            return  # a single over-budget stack is never worth pinning
        with self._lock:
            previous = self._entries.pop((name, token), None)
            if previous is not None:
                self._bytes -= self._size_of(previous[1])
            self._entries[(name, token)] = (tuple(instances), value)
            self._bytes += size
            while self._entries and (
                len(self._entries) > self.capacity or self._bytes > self.byte_budget
            ):
                _, (_, evicted) = self._entries.popitem(last=False)
                self._bytes -= self._size_of(evicted)

    def info(self) -> StackCacheInfo:
        """Counters, entry count and retained bytes, read atomically."""
        with self._lock:
            return StackCacheInfo(
                self.hits, self.misses, len(self._entries), self._bytes, self.capacity
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def execute_plan_batch(
    plan: Plan,
    backend: Any,
    instances: Any,
    functions: Any,
    stack_cache: Optional[StackCache] = None,
    backends: Any = None,
    profiler: Any = None,
) -> Any:
    """Run ``plan`` once over a whole batch of same-shape instances.

    ``backend`` must be a batch-capable backend — a
    :class:`~repro.semiring.backends.BatchedDenseBackend` over ``(B, rows,
    cols)`` stacks or a block-diagonal CSR backend from
    :func:`~repro.semiring.backends.batched_sparse_backend` — whose
    ``batch_size`` equals ``len(instances)``.  Plans carrying per-op
    physical tags additionally need ``backends``, a tag -> batched-backend
    map covering every tag the plan uses (see
    ``PhysicalPlan.batched_backends``); inserted ``to_dense`` /
    ``to_sparse`` conversion ops then cross representations on the whole
    batch at once.  All instances must share the semiring and assign
    identical dimensions to every size symbol — callers with mixed sweeps
    bucket first (see ``CompiledWorkload.run_batch``).  ``profiler``
    optionally records one timing observation per executed batch op (the
    same hook :func:`execute_plan` takes — an ``ExecutionProfiler`` or a
    :class:`repro.obs.trace.OpSpanCollector`).  Returns a backend value
    stacking one result per instance; callers convert through the result
    backend's ``to_dense`` and split along the leading axis.
    """
    instances = tuple(instances)
    if not instances:
        raise EvaluationError("cannot execute a plan over an empty batch")
    if getattr(backend, "batch_size", None) != len(instances):
        raise EvaluationError(
            f"batch backend of size {getattr(backend, 'batch_size', None)!r} cannot "
            f"execute a batch of {len(instances)} instances"
        )
    first = instances[0]
    for instance in instances[1:]:
        if instance.semiring != first.semiring:
            raise EvaluationError(
                f"batched execution requires a single semiring, got "
                f"{first.semiring.name!r} and {instance.semiring.name!r}"
            )
        if instance.dimensions != first.dimensions:
            raise EvaluationError(
                f"batched execution requires identical dimension assignments, "
                f"got {first.dimensions!r} and {instance.dimensions!r}"
            )
    runtime = _Runtime(backend, instances, functions, backends, profiler, stack_cache)
    return _execute(plan, runtime)
