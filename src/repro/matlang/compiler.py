"""Compilation of annotated MATLANG expressions into executable plans.

This module drives the staged *logical* optimizer — the query-optimizer
style split of the evaluation pipeline:

    annotate  ->  normalize (algebraic canonicalization)
              ->  lower + fuse (this module + rewrites + contract)
              ->  cost-based matmul ordering (cost)
              ->  execute, with physical backend assignment per op
                  (semiring.backends.plan_physical)

Normalization (:mod:`repro.matlang.normalize`) re-associates and commutes
matmul / addition chains into a canonical form, so lowering sees one shape
per algebraic equivalence class; the cost pass
(:mod:`repro.matlang.cost`) then re-associates matmul chains of the lowered
plan by estimated FLOPs.  Each stage can be switched off through
:class:`OptimizationOptions`, and what fired is recorded in ``Plan.notes``
(rendered by :meth:`repro.matlang.ir.Plan.explain`).

The lowering walk itself turns a
:class:`~repro.matlang.typecheck.TypedExpression` into a flat
:class:`~repro.matlang.ir.Plan`, applying four optimizations as it goes:

* **Common-subexpression elimination** — registers are hash-consed on the
  *structural* identity of the underlying expression (AST nodes are frozen
  dataclasses that cache their hashes, so a lookup is O(1)), so
  structurally equal sub-trees within one binding scope compile to a
  single register.  This strictly subsumes the id-keyed memo cache the
  tree-walking evaluator used.
* **Loop-invariant hoisting** — a sub-expression whose free variables do
  not meet the binders of the enclosing loop is lowered into the *parent*
  plan and imported through a ``capture`` op, so it is computed once before
  the loop instead of once per iteration (and bubbles out of nested loops
  as far as its dependencies allow).
* **Loop fusion** — product quantifiers whose bodies match the algebraic
  patterns of :mod:`repro.matlang.rewrites` compile to single fused kernel
  ops (iterated powers by repeated squaring, the product of the diagonal),
  eliminating the per-iteration Python loop entirely.
* **Contraction** — every ``sum`` loop is lowered, with the ``Sigma`` nest
  around it, as a semiring contraction by variable elimination
  (:mod:`repro.matlang.contract`), when its body is a sum of products of
  matrix entries and output selectors.  ``for v, X. X + e`` loops are
  first recognised as sum quantifiers.  A quantifier neither lowering
  takes becomes a generic ``loop`` op (which :mod:`repro.matlang.ir` runs
  as lanes where it can).

Compiled plans are cached at module level keyed by ``(expression, schema
signature, optimizer options)`` — plans reference dimension *symbols*, not
concrete sizes, so one plan serves every instance of a schema.  An identity
front keyed on the expression object answers warm repeats without hashing
the expression tree.
:func:`plan_cache_info` exposes hit / miss counters so tests (and
benchmarks) can assert that re-evaluation performs no re-lowering.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import EvaluationError
from repro.matlang import contract, rewrites
from repro.matlang.cost import CostModel, reorder_plan
from repro.matlang.normalize import normalize
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
from repro.matlang.ir import Plan, PlanOp
from repro.matlang.schema import Schema
from repro.matlang.typecheck import TypedExpression, annotate
from repro.profile import profile_generation

__all__ = [
    "DEFAULT_OPTIONS",
    "OptimizationOptions",
    "clear_plan_cache",
    "compile_expression",
    "compile_typed",
    "lower",
    "plan_cache_info",
]


@dataclass(frozen=True)
class OptimizationOptions:
    """Stage switches of the logical optimizer.

    The compile pipeline is staged — ``annotate -> normalize -> lower (with
    fusion) -> cost-based reordering`` — and each optimization stage can be
    disabled independently, which the benchmarks use to measure what a stage
    buys and tests use to pin a "written order" baseline.

    ``normalize``
        Canonicalize the typed tree first (:mod:`repro.matlang.normalize`):
        matmul chains re-associated left-deep, addition chains flattened and
        commuted into a deterministic order.
    ``reorder``
        Run cost-based matmul-chain ordering over the lowered plan
        (:mod:`repro.matlang.cost`).
    """

    normalize: bool = True
    reorder: bool = True


#: The default, fully-enabled optimizer configuration.
DEFAULT_OPTIONS = OptimizationOptions()


# ----------------------------------------------------------------------
# Lowering frames
# ----------------------------------------------------------------------
class _Frame:
    """One plan under construction: ops, CSE table and binder names."""

    __slots__ = (
        "ops",
        "cse",
        "parent",
        "iterator_name",
        "accumulator_name",
        "bound",
        "captures",
        "pinned",
        "notes",
    )

    def __init__(
        self,
        parent: Optional["_Frame"] = None,
        iterator_name: Optional[str] = None,
        accumulator_name: Optional[str] = None,
    ) -> None:
        self.ops: List[PlanOp] = []
        self.cse: Dict[Any, int] = {}
        self.parent = parent
        self.iterator_name = iterator_name
        self.accumulator_name = accumulator_name
        self.bound = frozenset(
            name for name in (iterator_name, accumulator_name) if name is not None
        )
        #: Parent registers imported by this frame's ``capture`` ops.
        self.captures: List[int] = []
        #: Registers kept alive through dead-op pruning (see Plan.pinned).
        self.pinned: List[int] = []
        #: Plan notes of the lowering walk, one list shared by every frame.
        self.notes: List[str] = [] if parent is None else parent.notes

    def emit(self, opcode: str, inputs: Tuple[int, ...] = (), **params: Any) -> int:
        self.ops.append(PlanOp(opcode=opcode, inputs=tuple(inputs), **params))
        return len(self.ops) - 1

    def capture(self, parent_register: int, type: Optional[Tuple[str, str]] = None) -> int:
        key = ("__capture__", parent_register)
        register = self.cse.get(key)
        if register is None:
            self.captures.append(parent_register)
            register = self.emit("capture", value=len(self.captures) - 1, type=type)
            self.cse[key] = register
        return register


class _RuleContext:
    """What :mod:`repro.matlang.rewrites` rules and
    :mod:`repro.matlang.contract` see of the compiler."""

    __slots__ = ("frame", "iterator", "symbol")

    def __init__(self, frame: _Frame, iterator: str, symbol: str) -> None:
        self.frame = frame
        self.iterator = iterator
        self.symbol = symbol

    def lower(self, typed: TypedExpression) -> int:
        return _lower(typed, self.frame)

    def emit(self, opcode: str, inputs: Tuple[int, ...] = (), **params: Any) -> int:
        return self.frame.emit(opcode, inputs, **params)

    def child_frame(self, parent: _Frame, iterator: str) -> _Frame:
        return _Frame(parent, iterator_name=iterator)


# ----------------------------------------------------------------------
# Core lowering
# ----------------------------------------------------------------------
def lower(typed: TypedExpression, options: Optional[OptimizationOptions] = None) -> Plan:
    """Compile an annotated expression to a plan (uncached entry point).

    This runs the staged logical optimizer: normalization of the typed tree
    (canonical matmul association, flattened + ordered addition chains),
    lowering with fusion/contraction/CSE/hoisting, dead-op pruning, and
    cost-based matmul-chain reordering.  Stages record what fired in
    ``Plan.notes``.

    The dead-op pruning pass removes ops orphaned by a speculative lowering
    (a ``Sigma`` over a sum of terms that :mod:`repro.matlang.contract`
    splits, one of which then declines), restoring the plan the
    non-speculative compiler would have produced.  Registers
    recorded in ``Plan.pinned`` (for-loop initialisers whose loop was
    eliminated) survive pruning for error parity with the interpreter.
    """
    if options is None:
        options = DEFAULT_OPTIONS
    notes: Tuple[str, ...] = ()
    if options.normalize:
        typed, notes = normalize(typed)
    frame = _Frame()
    result = _lower(typed, frame)
    notes += tuple(dict.fromkeys(frame.notes))
    plan = _prune_plan(Plan(tuple(frame.ops), result, pinned=tuple(frame.pinned)))
    if options.reorder:
        # The active cost profile supplies the symbol weights, so calibrated
        # or fitted symbol sizes re-rank matmul chains (cache keys carry the
        # profile generation, so stale orderings cannot be served).
        plan, reorder_notes = reorder_plan(plan, model=CostModel.from_active())
        notes = notes + reorder_notes
    if notes:
        plan = Plan(plan.ops, plan.result, plan.pinned, notes)
    return plan


def _lower(typed: TypedExpression, frame: _Frame) -> int:
    expression = typed.expression

    # Type hints are semantically transparent.
    if isinstance(expression, TypeHint):
        return _lower(typed.children[0], frame)

    # Loop-invariant hoisting: nothing this node reads is bound by the
    # current loop, so compute it in the enclosing plan (recursively — it
    # keeps bubbling up while it stays invariant).  The capture records the
    # hoisted value's type so the cost model can treat it as a chain factor.
    if frame.parent is not None and not (typed.free_names & frame.bound):
        return frame.capture(_lower(typed, frame.parent), type=typed.type)

    register = frame.cse.get(expression)
    if register is not None:
        return register
    register = _emit_node(typed, frame)
    frame.cse[expression] = register
    return register


def _emit_node(typed: TypedExpression, frame: _Frame) -> int:
    expression = typed.expression

    if isinstance(expression, Var):
        name = expression.name
        # Accumulator before iterator: the reference interpreter binds the
        # iterator and then the accumulator into the same environment, so a
        # for-loop whose binders share one name resolves it to the
        # accumulator — the compiled path must agree.
        if name == frame.accumulator_name:
            return frame.emit("accumulator", type=typed.type)
        if name == frame.iterator_name:
            return frame.emit("iterator", type=typed.type)
        return frame.emit("load", name=name, type=typed.type)

    if isinstance(expression, Literal):
        return frame.emit("const", value=expression.value, type=typed.type)

    if isinstance(expression, Transpose):
        return frame.emit("transpose", (_lower(typed.children[0], frame),), type=typed.type)

    if isinstance(expression, OneVector):
        return frame.emit("ones", (_lower(typed.children[0], frame),), type=typed.type)

    if isinstance(expression, Diag):
        child = typed.children[0]
        stripped = rewrites.strip_hints(child)
        if isinstance(stripped.expression, OneVector):
            # diag(1(e)) is the identity; skip materialising the ones vector.
            inner = _lower(stripped.children[0], frame)
            return frame.emit("identity_of", (inner,), type=typed.type)
        return frame.emit("diag", (_lower(child, frame),), type=typed.type)

    if isinstance(expression, MatMul):
        left = _lower(typed.children[0], frame)
        right = _lower(typed.children[1], frame)
        return frame.emit("matmul", (left, right), type=typed.type)

    if isinstance(expression, Add):
        left = _lower(typed.children[0], frame)
        right = _lower(typed.children[1], frame)
        return frame.emit("add", (left, right), type=typed.type)

    if isinstance(expression, ScalarMul):
        factor = _lower(typed.children[0], frame)
        operand = _lower(typed.children[1], frame)
        return frame.emit("scale", (factor, operand), type=typed.type)

    if isinstance(expression, Apply):
        if not expression.operands:
            raise EvaluationError(
                f"pointwise function {expression.function!r} applied to no operands; "
                "the result shape would be undefined"
            )
        registers = tuple(_lower(child, frame) for child in typed.children)
        return frame.emit("apply", registers, name=expression.function, type=typed.type)

    if isinstance(expression, ForLoop):
        return _lower_for(typed, frame)

    if isinstance(expression, (SumLoop, HadamardLoop, ProductLoop)):
        kind = (
            "sum"
            if isinstance(expression, SumLoop)
            else "hadamard"
            if isinstance(expression, HadamardLoop)
            else "product"
        )
        (body,) = typed.children
        return _lower_quantifier(typed, body, frame, kind)

    raise EvaluationError(f"unknown expression node {type(expression).__name__}")


def _lower_for(typed: TypedExpression, frame: _Frame) -> int:
    expression = typed.expression
    if typed.iterator_symbol is None:
        raise EvaluationError("loop node is missing its iterator annotation")

    init_register: Optional[int] = None
    if expression.init is not None:
        init_typed, body_typed = typed.children
        init_register = _lower(init_typed, frame)
    else:
        (body_typed,) = typed.children
        # ``for v, X. X + e`` is the sum quantifier in disguise; treating it
        # as one lets it contract and drops the accumulator binding (which
        # in turn lets more of the body hoist).
        sum_body = rewrites.sum_quantifier_body(typed)
        if sum_body is not None:
            return _lower_quantifier(typed, sum_body, frame, "sum")

    # A body that reads neither binder is the loop's final value (n >= 1).
    # The initialiser (lowered above) stays in the plan even though the
    # result ignores it: the interpreter evaluates it too, so errors it
    # raises must surface identically on the compiled path.  Pinning keeps
    # it through dead-op pruning.
    if not ({expression.iterator, expression.accumulator} & body_typed.free_names):
        if init_register is not None:
            frame.pinned.append(init_register)
        return _lower(body_typed, frame)

    if init_register is None and typed.accumulator_type is None:
        raise EvaluationError("for-loop node is missing its accumulator type")

    child = _Frame(frame, expression.iterator, expression.accumulator)
    body_register = _lower(body_typed, child)
    inputs = () if init_register is None else (init_register,)
    return frame.emit(
        "loop",
        inputs,
        kind="for",
        symbol=typed.iterator_symbol,
        body=Plan(tuple(child.ops), body_register, pinned=tuple(child.pinned)),
        captures=tuple(child.captures),
        accumulator_type=typed.accumulator_type,
        type=typed.type,
    )


def _lower_quantifier(
    typed: TypedExpression, body_typed: TypedExpression, frame: _Frame, kind: str
) -> int:
    expression = typed.expression
    if typed.iterator_symbol is None:
        raise EvaluationError("loop node is missing its iterator annotation")

    context = _RuleContext(frame, expression.iterator, typed.iterator_symbol)
    if kind == "sum":
        fused = contract.lower_sum_nest(typed, body_typed, context)
    else:
        fused = rewrites.try_fuse(kind, body_typed, context)
    if fused is not None:
        return fused

    child = _Frame(frame, iterator_name=expression.iterator)
    body_register = _lower(body_typed, child)
    return frame.emit(
        "loop",
        (),
        kind=kind,
        symbol=typed.iterator_symbol,
        body=Plan(tuple(child.ops), body_register, pinned=tuple(child.pinned)),
        captures=tuple(child.captures),
        type=typed.type,
    )


# ----------------------------------------------------------------------
# Dead-op pruning
# ----------------------------------------------------------------------
def _compact_captures(body: Plan, captures: Tuple[int, ...]):
    """Drop capture slots whose ``capture`` ops were pruned from ``body``.

    Returns the surviving parent registers and the body with its capture
    indices renumbered to the compacted slots.
    """
    used = sorted({op.value for op in body.ops if op.opcode == "capture"})
    if used == list(range(len(captures))):
        return captures, body
    renumber = {old: new for new, old in enumerate(used)}
    ops = tuple(
        replace(op, value=renumber[op.value]) if op.opcode == "capture" else op
        for op in body.ops
    )
    return tuple(captures[index] for index in used), Plan(ops, body.result, body.pinned)


def _prune_plan(plan: Plan) -> Plan:
    """Remove ops that neither the result nor a pinned register depends on.

    Bodies are pruned first so that a loop only keeps captures its pruned
    body still reads; ops are in topological order, so one reverse liveness
    sweep suffices.  Register indices are compacted afterwards.
    """
    ops = list(plan.ops)
    for index, op in enumerate(ops):
        if op.body is None:
            continue
        captures, body = _compact_captures(_prune_plan(op.body), op.captures)
        if body is not op.body or captures != op.captures:
            ops[index] = replace(op, body=body, captures=captures)

    live = [False] * len(ops)
    for register in (plan.result, *plan.pinned):
        live[register] = True
    for index in range(len(ops) - 1, -1, -1):
        if not live[index]:
            continue
        for register in ops[index].inputs:
            live[register] = True
        for register in ops[index].captures:
            live[register] = True

    if all(live):
        if any(new is not old for new, old in zip(ops, plan.ops)):
            return Plan(tuple(ops), plan.result, plan.pinned)
        return plan

    remap: Dict[int, int] = {}
    kept: List[PlanOp] = []
    for index, op in enumerate(ops):
        if not live[index]:
            continue
        inputs = tuple(remap[register] for register in op.inputs)
        captures = tuple(remap[register] for register in op.captures)
        if inputs != op.inputs or captures != op.captures:
            op = replace(op, inputs=inputs, captures=captures)
        remap[index] = len(kept)
        kept.append(op)
    pinned = tuple(sorted({remap[register] for register in plan.pinned}))
    return Plan(tuple(kept), remap[plan.result], pinned)


# ----------------------------------------------------------------------
# The plan cache
# ----------------------------------------------------------------------
PlanCacheInfo = namedtuple("PlanCacheInfo", "hits misses size capacity")

_PLAN_CACHE: "OrderedDict[Tuple[Expression, Tuple], Plan]" = OrderedDict()
_PLAN_CACHE_CAPACITY = 512
#: Identity front of the plan cache for :func:`compile_expression`:
#: ``(id(expression), options, signature, generation) -> (expression,
#: plan)``.  A warm caller hands in the same expression object again;
#: keying on its id makes that hit O(1) and hashes nothing.  The
#: structural key costs more: its first hash visits every node object once
#: (nodes cache their hashes), and a hit through an equal but distinct
#: expression compares the two trees.  The expression is pinned in the
#: entry, so its id cannot be recycled while the entry lives.  Eviction is
#: first-in first-out: a hit only reads, and an evicted expression costs
#: one structural lookup to re-enter.
_IDENTITY_FRONT: "OrderedDict[Tuple, Tuple[Expression, Plan]]" = OrderedDict()
#: Guards both dicts *and* the counters: the get / move-to-end /
#: insert / evict sequences and the info snapshot race under concurrent
#: compilation (the service engine compiles on every submitter thread).
#: An RLock so a registered trace hook calling ``plan_cache_info`` from
#: inside a compile cannot deadlock.
_PLAN_CACHE_LOCK = threading.RLock()
_hits = 0
_misses = 0


def _cache_lookup(key) -> Optional[Plan]:
    global _hits
    with _PLAN_CACHE_LOCK:
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            _hits += 1
            _PLAN_CACHE.move_to_end(key)
        return plan


def _cache_store(key, plan: Plan) -> None:
    global _misses
    with _PLAN_CACHE_LOCK:
        _misses += 1
        _PLAN_CACHE[key] = plan
        while len(_PLAN_CACHE) > _PLAN_CACHE_CAPACITY:
            _PLAN_CACHE.popitem(last=False)


def compile_expression(
    expression: Expression,
    schema: Schema,
    options: Optional[OptimizationOptions] = None,
) -> Plan:
    """Type-check and lower ``expression``, reusing the plan cache.

    On a cache hit even the ``annotate`` pass is skipped: the key is the
    structural identity of the expression plus the schema signature and the
    optimizer options, which together fully determine the plan.  Repeat
    calls with the same expression *object* hit the identity front first
    and never hash the tree.
    """
    global _hits
    if options is None:
        options = DEFAULT_OPTIONS
    signature = schema.signature()
    # The profile generation joins every key: a profile update (calibration,
    # an ExecutionProfiler refit) makes every cached plan unreachable, so the
    # next compilation re-runs the cost-based passes against the fresh weights.
    generation = profile_generation()
    front_key = (id(expression), options, signature, generation)
    with _PLAN_CACHE_LOCK:
        entry = _IDENTITY_FRONT.get(front_key)
        if entry is not None:
            _hits += 1
            return entry[1]
    key = (expression, signature, options, generation)
    plan = _cache_lookup(key)
    if plan is None:
        plan = lower(annotate(expression, schema), options)
        _cache_store(key, plan)
    with _PLAN_CACHE_LOCK:
        _IDENTITY_FRONT[front_key] = (expression, plan)
        while len(_IDENTITY_FRONT) > _PLAN_CACHE_CAPACITY:
            _IDENTITY_FRONT.popitem(last=False)
    return plan


def compile_typed(
    typed: TypedExpression,
    schema: Schema,
    options: Optional[OptimizationOptions] = None,
) -> Plan:
    """Lower an already annotated expression, reusing the plan cache.

    The cache key uses the schema signature :func:`annotate` recorded on the
    tree — never ``schema`` — so a tree annotated against a different schema
    than the evaluator's can only mis-evaluate its own call (the historical
    ``run_typed`` contract) and can never poison the cache entry that
    correctly annotated evaluations of the same expression share.  Trees
    without a recorded signature (hand-built ones) are lowered uncached.
    """
    del schema  # part of the call signature for symmetry; see the docstring
    if options is None:
        options = DEFAULT_OPTIONS
    signature = typed.schema_signature
    if signature is None:
        return lower(typed, options)
    key = (typed.expression, signature, options, profile_generation())
    plan = _cache_lookup(key)
    if plan is None:
        plan = lower(typed, options)
        _cache_store(key, plan)
    return plan


def plan_cache_info() -> PlanCacheInfo:
    """Hit / miss counters and current size of the module-level plan cache.

    The snapshot is atomic: hits, misses and size are read under the cache
    lock, so concurrent compilations can never produce a torn reading
    (e.g. a size that already includes an insert whose miss is missing).
    Every ``compile_expression`` / ``compile_typed`` call that consulted the
    cache counts exactly once — ``hits + misses`` equals the number of
    cache-consulting compilations regardless of thread interleaving.
    """
    with _PLAN_CACHE_LOCK:
        return PlanCacheInfo(_hits, _misses, len(_PLAN_CACHE), _PLAN_CACHE_CAPACITY)


def clear_plan_cache() -> None:
    """Empty the plan cache and its identity front, and reset the counters."""
    global _hits, _misses
    with _PLAN_CACHE_LOCK:
        _PLAN_CACHE.clear()
        _IDENTITY_FRONT.clear()
        _hits = 0
        _misses = 0
