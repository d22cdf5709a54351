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
                    here — reserved for user-registered rewrite rules)
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

Lane execution
--------------
The ``Sigma`` and ``Pi-o`` quantifiers combine their ``n`` iterations with
the semiring's ``+`` or ``o``; no iteration reads another's result.  An
unfused ``sum`` or ``hadamard`` loop therefore runs its body **once** for
all of them: on a ``BatchedDenseBackend`` of ``B * n`` *lanes*, with the
iterator bound to the stack of all ``n`` canonical vectors (lane
``i * B + b`` holds vector ``i`` of instance ``b``) and every capture
repeated per lane.  The lanes are then folded in iteration order through
the kernels' own ``add_matrices`` / ``hadamard``: the same left fold the
tree-walk interpreter runs, so the int64 semirings check for overflow at
the same partial sums (a fold that leaves int64 raises ``SemiringError``,
never wraps), and a result never depends on how the range was chunked or
on how many instances shared the batch.  Single-instance execution is the
``B = 1`` case of the same function.  A nested quantifier widens the lanes
again (the four-clique count at ``n = 8`` runs its innermost body over
4,096 lanes at once), and the iterator range is split into chunks so that
lanes x the body's largest per-lane value — read from the resolved types
of the body's ops — stays under :data:`LANE_ENTRY_BUDGET`; chunk sizes
depend on dimensions only, never on values.  Where a chunk would hold a
single iteration (an ``n x n`` body value at ``n >= 256``), the loop
iterates in order on the enclosing backend instead, with the same fold.

``for`` and ``Pi`` loops keep their order (their accumulator threads
through the iterations), but the quantifiers inside their bodies run as
lanes.  Loops on a sparse backend and over object-dtype carriers (such as
provenance polynomials, whose kernels fold entry by entry anyway) iterate
one canonical vector at a time; the choice follows the backend and its
storage dtype.
"""

from __future__ import annotations

import threading
import time
from collections import namedtuple
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.exceptions import EvaluationError, SchemaError
from repro.matlang.schema import MatrixType
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

#: Opcodes whose semantics replace a whole Python-level loop with a single
#: backend call (emitted by :mod:`repro.matlang.rewrites`).
FUSED_OPCODES = frozenset(
    {
        "nsum",
        "row_sums",
        "col_sums",
        "trace",
        "diag_of_diag",
        "diag_product",
        "power",
        "hadamard_power",
    }
)


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
@dataclass
class _Runtime:
    """Per-execution context shared by a plan and its nested bodies."""

    backend: Any
    instance: Any
    functions: Any
    #: Physical tag -> backend map for per-op dispatch (``None``: every op
    #: runs on ``backend``, the historical whole-plan behaviour).
    backends: Any = None
    #: Optional :class:`~repro.profile.recorder.ExecutionProfiler` fed one
    #: observation per executed op.
    profiler: Any = None

    def dimension(self, symbol: str, context: str) -> int:
        if symbol is None:
            raise EvaluationError(f"plan op for {context} is missing its size symbol")
        if symbol.startswith("?"):
            # Unconstrained dimension: same square-schema fallback as the
            # interpreted evaluator (see Evaluator._dimension).
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

    def shape(self, matrix_type: Optional[MatrixType], context: str) -> Tuple[int, int]:
        if matrix_type is None:
            raise EvaluationError(f"plan op for {context} is missing its type")
        row_symbol, col_symbol = matrix_type
        return (
            self.dimension(row_symbol, f"{context} (rows)"),
            self.dimension(col_symbol, f"{context} (columns)"),
        )


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
    runtime = _Runtime(
        backend=backend,
        instance=instance,
        functions=functions,
        backends=backends,
        profiler=profiler,
    )
    return _run(plan, runtime, (), None, None, backend)


def _run(
    plan: Plan,
    runtime: _Runtime,
    captured: Tuple[Any, ...],
    iterator: Any,
    accumulator: Any,
    default: Any = None,
) -> Any:
    if default is None:
        default = runtime.backend
    backends = runtime.backends
    profiler = runtime.profiler
    values: List[Any] = []
    append = values.append

    for op in plan.ops:
        opcode = op.opcode
        tag = op.backend
        if tag is None:
            backend = default
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
            if factor.shape != (1, 1):
                raise EvaluationError(
                    f"scalar multiplication expects a 1x1 left operand, got {factor.shape}"
                )
            append(backend.scale(factor, values[op.inputs[1]]))
        elif opcode == "transpose":
            append(backend.transpose(values[op.inputs[0]]))
        elif opcode == "load":
            append(backend.lift_instance_matrix(runtime.instance.matrix(op.name)))
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
            append(backend.ones(values[op.inputs[0]].shape[0], 1))
        elif opcode == "ones_type":
            rows, cols = runtime.shape(op.type, "a fused ones matrix")
            append(backend.ones(rows, cols))
        elif opcode == "identity_of":
            append(backend.identity(values[op.inputs[0]].shape[0]))
        elif opcode == "identity_sym":
            append(backend.identity(runtime.dimension(op.symbol, "a fused identity")))
        elif opcode == "diag":
            operand = values[op.inputs[0]]
            if operand.shape[1] != 1:
                raise EvaluationError(
                    f"diag expects a column vector, got shape {operand.shape}"
                )
            append(backend.diag(operand))
        elif opcode == "apply":
            append(_run_apply(op, values, runtime, backend))
        elif opcode == "loop":
            append(_run_loop(op, values, runtime, backend, _run))
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
            # target backend through the dense boundary contract.
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
    op: PlanOp, values: List[Any], runtime: _Runtime, backend: Any, run: Any
) -> Any:
    """Run one ``loop`` op; ``run`` is the interpreter of the enclosing plan.

    ``sum`` and ``hadamard`` loops on a primitive-dtype dense backend run as
    vector lanes (:func:`_run_lanes`) when a chunk holds at least two
    iterations; every other loop iterates in order, running its body
    through ``run`` once per canonical vector.
    """
    count = runtime.dimension(op.symbol, "a loop iterator")
    captured = tuple(values[register] for register in op.captures)
    body = op.body
    if op.kind in ("sum", "hadamard") and _lane_capable(backend):
        batch = backend.batch_size if isinstance(backend, BatchedDenseBackend) else 1
        width = _lane_width(body, runtime, batch, count)
        if width > 1:
            return _run_lanes(op, captured, count, width, runtime, backend)

    if op.kind == "for":
        if op.inputs:
            accumulator = values[op.inputs[0]]
        else:
            rows, cols = runtime.shape(op.accumulator_type, "a loop accumulator")
            accumulator = backend.zeros(rows, cols)
        for index in range(count):
            iterator = backend.basis_column(count, index)
            accumulator = run(body, runtime, captured, iterator, accumulator, backend)
        return accumulator

    if op.kind == "sum":
        combine = backend.add
    elif op.kind == "hadamard":
        combine = backend.hadamard
    elif op.kind == "product":
        combine = backend.matmul
    else:  # pragma: no cover - the compiler only emits known kinds
        raise EvaluationError(f"unknown loop kind {op.kind!r}")

    accumulator = None
    for index in range(count):
        iterator = backend.basis_column(count, index)
        value = run(body, runtime, captured, iterator, None, backend)
        accumulator = value if accumulator is None else combine(accumulator, value)
    if accumulator is None:  # pragma: no cover - dimensions are always >= 1
        raise EvaluationError("quantifier iterated over an empty dimension")
    return accumulator


# ----------------------------------------------------------------------
# Lane execution of Sigma / Pi-o loops
# ----------------------------------------------------------------------
#: Upper bound on the entries of one lane-stacked body value: a vectorised
#: quantifier splits its iterator range into chunks so that lanes x the
#: largest per-lane value of its body stays below it (512 KiB of float64).
LANE_ENTRY_BUDGET = 1 << 16


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
    captured: Tuple[Any, ...],
    count: int,
    width: int,
    runtime: _Runtime,
    backend: Any,
) -> Any:
    """A ``sum`` / ``hadamard`` loop as one batched body over its iterations.

    ``backend`` holds ``B`` instances: a :class:`BatchedDenseBackend` of
    batch size ``B`` or a single-instance dense backend (``B = 1``).  A
    chunk of ``k <= width`` iterations runs the body once on a
    ``BatchedDenseBackend`` of ``k * B`` lanes; lane ``i * B + b`` binds
    the iterator to canonical vector ``start + i`` of instance ``b``, and
    each capture is repeated ``k`` times.  The lanes are folded one
    iteration at a time with the kernels' own entrywise sum or product,
    whose overflow checks hold on any stack rank.
    """
    single = not isinstance(backend, BatchedDenseBackend)
    batch = 1 if single else backend.batch_size
    instances = [runtime.instance] if single else runtime.instances
    kernels = backend.kernels
    combine = kernels.add_matrices if op.kind == "sum" else kernels.hadamard
    basis = kernels.identity(count)
    total = None
    for start in range(0, count, width):
        copies = min(count, start + width) - start
        lanes = BatchedDenseBackend(backend.semiring, copies * batch)
        iterator = basis[start : start + copies, :, None]
        if batch > 1:
            iterator = np.repeat(iterator, batch, axis=0)
        lane_runtime = _BatchRuntime(
            backend=lanes,
            instances=instances * copies,
            functions=runtime.functions,
            profiler=runtime.profiler,
        )
        value = _run_batch(
            op.body,
            lane_runtime,
            tuple(_per_lane(value, copies) for value in captured),
            iterator,
            None,
            lanes,
        )
        # Fold in iteration order, carrying the total across chunks: the
        # tree-walk's left fold, whatever the chunk widths or batch size.
        for index in range(copies):
            lane = value[index * batch : (index + 1) * batch]
            total = lane if total is None else combine(total, lane)
    return total[0] if single else total


def _lane_width(body: Plan, runtime: _Runtime, batch: int, count: int) -> int:
    """Iterations per lane chunk, from dimensions only (never values).

    The per-lane footprint is the largest value the body's ops produce,
    read from their resolved types (the iterator itself has ``count``
    entries); types with an unresolvable symbol do not count.
    """
    largest = count
    for op in body.ops:
        if op.type is None:
            continue
        try:
            rows, cols = runtime.shape(op.type, "a loop body value")
        except (EvaluationError, SchemaError):
            continue
        largest = max(largest, rows * cols)
    return max(1, min(count, LANE_ENTRY_BUDGET // (batch * largest)))


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


# ----------------------------------------------------------------------
# Batched execution
# ----------------------------------------------------------------------
class _BatchRuntime(_Runtime):
    """Batch execution context: one representative instance plus the stack.

    Dimension symbols resolve against the representative instance (the batch
    is validated to agree on every dimension), while variable loads stack the
    per-instance matrices into one ``(B, rows, cols)`` value, cached so a
    plan reloading a variable (or repeated loop iterations) stacks it once.

    ``stack_cache`` optionally persists the stacked inputs *across* calls
    (see :class:`StackCache`): repeated sweeps over the same instances — the
    ``CompiledWorkload.run_batch`` pattern — then re-stack nothing.
    """

    def __init__(
        self,
        backend: Any,
        instances: Any,
        functions: Any,
        stack_cache: Optional["StackCache"] = None,
        backends: Any = None,
        profiler: Any = None,
    ) -> None:
        super().__init__(
            backend=backend,
            instance=instances[0],
            functions=functions,
            backends=backends,
            profiler=profiler,
        )
        self.instances = instances
        self._load_cache: dict = {}
        self._stack_cache = stack_cache
        self._batch_token = (
            None if stack_cache is None else tuple(id(instance) for instance in instances)
        )

    def load(self, name: str, backend: Any = None) -> Any:
        if backend is None:
            backend = self.backend
        # Stacks are representation-specific (dense (B, r, c) arrays vs
        # block-diagonal CSR), so the cache key carries the backend name: a
        # mixed plan loading one variable on both representations — or a
        # profile flip re-running the same instances on the other lane —
        # must never see the other lane's stack.
        key = f"{name}@{backend.name}"
        value = self._load_cache.get(key)
        if value is not None:
            return value
        if self._stack_cache is not None:
            value = self._stack_cache.lookup(key, self._batch_token, self.instances)
        if value is None:
            value = backend.stack_instance_matrices(
                instance.matrix(name) for instance in self.instances
            )
            if self._stack_cache is not None:
                self._stack_cache.store(key, self._batch_token, self.instances, value)
        self._load_cache[key] = value
        return value


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
    instances = list(instances)
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
    runtime = _BatchRuntime(
        backend=backend,
        instances=instances,
        functions=functions,
        stack_cache=stack_cache,
        backends=backends,
        profiler=profiler,
    )
    return _run_batch(plan, runtime, (), None, None)


def _run_batch(
    plan: Plan,
    runtime: _BatchRuntime,
    captured: Tuple[Any, ...],
    iterator: Any,
    accumulator: Any,
    default: Any = None,
) -> Any:
    """The batched twin of :func:`_run`.

    Identical op dispatch — including per-op physical-tag dispatch through
    ``runtime.backends`` and whole-batch conversion ops — with three
    systematic changes: values carry the batch (as a leading axis on dense
    stacks, as block-diagonal structure on CSR values; shape inspections go
    through ``backend.batch_shape``), variable loads stack the whole batch
    per representation, and ``scale`` factors are batches of per-instance
    scalars.  A ``for`` / ``Pi`` loop body evaluates once per iteration for
    the entire batch; ``sum`` / ``hadamard`` loops run as lanes (see the
    module docstring).
    """
    if default is None:
        default = runtime.backend
    backends = runtime.backends
    profiler = runtime.profiler
    values: List[Any] = []
    append = values.append

    for op in plan.ops:
        opcode = op.opcode
        tag = op.backend
        if tag is None:
            backend = default
        else:
            backend = None if backends is None else backends.get(tag)
            if backend is None:
                raise EvaluationError(
                    f"plan op {opcode!r} is tagged for backend {tag!r}, which "
                    "the supplied batched backend map does not provide"
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
            if backend.batch_shape(factor) != (1, 1):
                raise EvaluationError(
                    f"scalar multiplication expects 1x1 left operands, got "
                    f"per-instance shape {backend.batch_shape(factor)}"
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
            if backend.batch_shape(operand)[1] != 1:
                raise EvaluationError(
                    f"diag expects column vectors, got per-instance shape "
                    f"{backend.batch_shape(operand)}"
                )
            append(backend.diag(operand))
        elif opcode == "apply":
            append(_run_apply(op, values, runtime, backend))
        elif opcode == "loop":
            append(_run_loop(op, values, runtime, backend, _run_batch))
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
            # Physical-planner conversion on the whole batch: the source
            # backend renders its stack dense (``(B, rows, cols)``) and the
            # target backend lifts it — one crossing per batch, not per
            # instance.
            if op.name is None:
                source = default
            else:
                source = None if backends is None else backends.get(op.name)
                if source is None:
                    raise EvaluationError(
                        f"conversion op {opcode!r} names source backend "
                        f"{op.name!r}, which the batched backend map does "
                        "not provide"
                    )
            append(backend.from_dense(source.to_dense(values[op.inputs[0]])))
        else:  # pragma: no cover - the compiler only emits known opcodes
            raise EvaluationError(f"unknown plan opcode {opcode!r}")

        if profiler is not None:
            profiler.record(op, backend.name, values, time.perf_counter() - started)

    return values[plan.result]
