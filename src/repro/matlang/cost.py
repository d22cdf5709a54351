"""Cost-based matmul-chain ordering over the plan IR.

This is the middle stage of the staged optimizer

    annotate -> normalize -> lower + fuse -> **cost-based reordering**
    (this module) -> physical backend selection

Plans carry dimension *symbols*, not sizes, so the pass works with a
symbolic cost model: the distinguished scalar symbol ``"1"`` weighs 1 and
every other schema symbol weighs a fixed surrogate dimension.  That is
enough to rank the orderings that matter in practice — a chain mixing
matrices with vectors (symbols against ``"1"``) has an optimal association
that is a full surrogate factor cheaper than the worst one, while all-square
chains cost the same either way and are left in their canonical form.

One rewrite fires, exact over every semiring (associativity only): a
maximal chain of ``matmul`` ops whose intermediate results have no other
consumer is flattened and re-emitted in the association the classic
matrix-chain DP picks, when that beats the association the plan came with.
Row and column sums are products against an all-ones vector in the plan
(see :mod:`repro.matlang.contract`), so the ones vector is one more chain
factor: ``Sigma_v A.(B.v)`` runs as ``A.(B.1)`` at quadratic cost instead of
the cubic ``(A.B).1``.

Estimated costs use the schoolbook ``rows * inner * cols`` FLOP count per
product.  The pass rewrites structure only — it never changes which
instance matrices are loaded, so interpreter error parity is preserved
(reassociation can change *intermediate* magnitudes, which the int64
kernels' overflow discipline handles exactly as it does for fusion).

The module also schedules the variable elimination of a contracted
``Sigma`` nest (:func:`elimination_order`, used by
:mod:`repro.matlang.contract`): a min-fill order over the nest's factor
graph, read from the plan's structure alone.

Symbol weights come from a :class:`CostModel`: by default every non-scalar
symbol weighs the flat surrogate dimension (the historical behaviour), but
a model built from a calibrated :class:`~repro.profile.model.CostProfile`
weighs each symbol by its *observed* size, so a schema mixing a large graph
dimension with a small feature dimension orders its chains by the sizes
execution actually sees.  The same model carries the per-op physical unit
costs the per-op backend planner (:mod:`repro.semiring.backends`) consumes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.matlang.ir import Plan, PlanOp
from repro.matlang.schema import SCALAR_SYMBOL, MatrixType

__all__ = [
    "SURROGATE_DIMENSION",
    "CostModel",
    "chain_order",
    "elimination_order",
    "reorder_plan",
    "symbol_weight",
]

#: Stand-in size for every non-scalar dimension symbol in the cost model.
#: The model only needs to *rank* associations: with all non-scalar symbols
#: equal, the DP exactly separates "vector-shaped early" from "matrix-matrix
#: early" orderings, which is the decision that changes asymptotics.
SURROGATE_DIMENSION = 256


class CostModel:
    """Symbolic and physical costs parameterised by a cost profile.

    Wraps a :class:`~repro.profile.model.CostProfile` behind the two
    queries the optimizer stages ask: symbol weights (the matmul-chain DP)
    and per-op-class unit costs (the per-op physical planner).  With no
    profile the model reproduces the static defaults — flat
    :data:`SURROGATE_DIMENSION` weights and the shipped relative unit
    costs — exactly.
    """

    __slots__ = ("profile",)

    def __init__(self, profile=None) -> None:
        if profile is None:
            from repro.profile.model import DEFAULT_PROFILE

            profile = DEFAULT_PROFILE
        self.profile = profile

    @classmethod
    def from_active(cls) -> "CostModel":
        """A model over the process-wide active profile."""
        from repro.profile import active_profile

        return cls(active_profile())

    # -- symbolic weights (logical reordering) ---------------------------
    def symbol_weight(self, symbol: Optional[str]) -> int:
        """The believed size of a dimension symbol (``"1"`` weighs one)."""
        if symbol == SCALAR_SYMBOL:
            return 1
        return max(1, int(round(self.profile.symbol_size(symbol))))

    def chain_order(
        self, types: List[MatrixType]
    ) -> Tuple[int, Dict[Tuple[int, int], int]]:
        """Matrix-chain DP over factor types; ``(cost, split table)``.

        ``types`` are the ``(row symbol, column symbol)`` pairs of the
        chain factors in order.  The split table maps ``(i, j)`` spans to
        the index after which the optimal association splits.
        """
        weight = self.symbol_weight
        count = len(types)
        dims = [weight(types[0][0])] + [weight(t[1]) for t in types]
        cost: Dict[Tuple[int, int], int] = {(i, i): 0 for i in range(count)}
        split: Dict[Tuple[int, int], int] = {}
        for span in range(2, count + 1):
            for i in range(count - span + 1):
                j = i + span - 1
                best = None
                at = i
                for k in range(i, j):
                    candidate = (
                        cost[(i, k)]
                        + cost[(k + 1, j)]
                        + dims[i] * dims[k + 1] * dims[j + 1]
                    )
                    if best is None or candidate < best:
                        best = candidate
                        at = k
                cost[(i, j)] = best
                split[(i, j)] = at
        return cost[(0, count - 1)], split

    # -- physical unit costs (per-op backend planning) -------------------
    def unit(self, key: str) -> float:
        """Cost per work unit of one op class (``"dense.matmul"`` …)."""
        return self.profile.unit_cost(key)

    @property
    def op_overhead(self) -> float:
        """Fixed per-op dispatch cost, in the profile's units."""
        return self.profile.op_overhead

    def amortized_overhead(self, batch_size: int) -> float:
        """Per-instance share of the fixed dispatch cost at batch width ``B``.

        A batched execution pays each kernel-call and conversion overhead
        once for the whole batch, so per instance it shrinks as ``1/B`` —
        which is what lets a borderline mixed plan (whose conversions are
        mostly fixed cost) flip to sparse or mixed at batch time.
        """
        return self.op_overhead / max(1, int(batch_size))


#: The uncalibrated model behind the module-level helper functions.
_DEFAULT_MODEL = CostModel()


def symbol_weight(symbol: Optional[str]) -> int:
    """The surrogate size of a dimension symbol (``"1"`` weighs one)."""
    return _DEFAULT_MODEL.symbol_weight(symbol)


def chain_order(
    types: List[MatrixType], model: Optional[CostModel] = None
) -> Tuple[int, Dict[Tuple[int, int], int]]:
    """Matrix-chain DP over factor types; returns ``(cost, split table)``."""
    return (model or _DEFAULT_MODEL).chain_order(types)


def elimination_order(
    iterators: Iterable[str],
    scopes: Iterable[Iterable[str]],
    outputs: FrozenSet[str],
) -> Tuple[Tuple[str, str], ...]:
    """Schedule the variable elimination of a ``Sigma`` nest's factor graph.

    ``iterators`` are the nest's iterators in nest order, ``scopes`` the
    iterator sets of its factors (at most two each) and ``outputs`` the
    iterators the result keeps.  Returns steps ``("eliminate", v)`` and
    ``("lane", v)`` for every iterator not in ``outputs``.

    Eliminating ``v`` multiplies the factors that mention it and sums ``v``
    out, leaving one factor over ``v``'s neighbours; a step is allowed only
    when that factor spans at most two iterators (one kernel call over
    matrices).  Among the allowed steps the one adding the fewest new
    edges between neighbours wins (min-fill), then the one with the fewest
    neighbours, then the outermost.  When no step is allowed (the
    four-clique count's complete graph), the iterator with the most
    neighbours becomes a lane: a ``sum`` loop whose body is the rest of the
    schedule with that iterator fixed, which removes it from the graph.
    The schedule depends on the factor graph only.
    """
    remaining = [name for name in iterators if name not in outputs]
    if len(remaining) < 2:
        # A lone iterator's neighbours are all outputs, at most two.
        return tuple(("eliminate", name) for name in remaining)
    graph: Dict[str, set] = {name: set() for name in iterators}
    for scope in scopes:
        for name in scope:
            graph[name].update(scope)
            graph[name].discard(name)

    def fill(name: str) -> int:
        neighbours = sorted(graph[name])
        return sum(
            1
            for index, first in enumerate(neighbours)
            for second in neighbours[index + 1 :]
            if second not in graph[first]
        )

    # ``remaining`` is in nest order, and ``min`` / ``max`` keep the first
    # of equal candidates: ties go to the outermost iterator.
    steps: List[Tuple[str, str]] = []
    while remaining:
        allowed = [name for name in remaining if len(graph[name]) <= 2]
        if allowed:
            name = allowed[0] if len(allowed) == 1 else min(allowed, key=lambda v: (fill(v), len(graph[v])))
            neighbours = graph[name]
            for first in neighbours:
                graph[first].update(neighbours)
                graph[first].discard(first)
            steps.append(("eliminate", name))
        else:
            name = max(remaining, key=lambda v: len(graph[v]))
            steps.append(("lane", name))
        for neighbour in graph.pop(name):
            graph[neighbour].discard(name)
        remaining.remove(name)
    return tuple(steps)


def reorder_plan(
    plan: Plan, model: Optional[CostModel] = None
) -> Tuple[Plan, Tuple[str, ...]]:
    """Reorder the matmul chains of ``plan`` by estimated cost.

    ``model`` supplies the symbol weights (default: the flat surrogate
    model).  Returns the (possibly identical) plan and human-readable notes
    about what fired, for :meth:`~repro.matlang.ir.Plan.explain`.
    """
    if model is None:
        model = _DEFAULT_MODEL
    notes: List[str] = []
    reordered = _reorder(plan, notes, model)
    return reordered, tuple(notes)


def _reorder(plan: Plan, notes: List[str], model: CostModel) -> Plan:
    weight = model.symbol_weight
    ops = list(plan.ops)
    changed = False
    for index, op in enumerate(ops):
        if op.body is not None:
            body = _reorder(op.body, notes, model)
            if body is not op.body:
                ops[index] = replace(op, body=body)
                changed = True

    # A chain of three or more factors has a product as an operand.
    if not any(
        ops[register].opcode == "matmul" for op in ops if op.opcode == "matmul" for register in op.inputs
    ):
        return Plan(tuple(ops), plan.result, plan.pinned, notes=plan.notes) if changed else plan

    uses = [0] * len(ops)
    for op in ops:
        for register in op.inputs:
            uses[register] += 1
        for register in op.captures:
            uses[register] += 1
    uses[plan.result] += 1
    for register in plan.pinned:
        uses[register] += 1

    def absorbable(register: int) -> bool:
        return ops[register].opcode == "matmul" and uses[register] == 1

    def flatten(root: int):
        """Leaf registers and interior matmuls of the chain rooted at ``root``.

        Returns ``(leaves, interiors)`` or ``(None, None)`` when a factor is
        missing the type the cost model needs.
        """
        leaves: List[int] = []
        interiors: List[int] = []

        def visit(register: int) -> bool:
            for operand in ops[register].inputs:
                if absorbable(operand):
                    interiors.append(operand)
                    if not visit(operand):
                        return False
                else:
                    if ops[operand].type is None:
                        return False
                    leaves.append(operand)
            return True

        if not visit(root):
            return None, None
        return leaves, interiors

    def current_cost(root: int, interiors: List[int]) -> Optional[int]:
        """Estimated FLOPs of the chain as currently associated."""
        total = 0
        for member in [root, *interiors]:
            left, right = ops[member].inputs
            left_type, right_type = ops[left].type, ops[right].type
            if left_type is None or right_type is None:
                return None
            total += (
                weight(left_type[0])
                * weight(right_type[0])
                * weight(right_type[1])
            )
        return total

    absorbed: set = set()
    #: root op index -> (chain factor registers, DP splits)
    rebuilt: Dict[int, Tuple[list, Dict[Tuple[int, int], int]]] = {}

    for index in range(len(ops) - 1, -1, -1):
        if index in absorbed or ops[index].opcode != "matmul":
            continue
        leaves, interiors = flatten(index)
        if leaves is None or len(leaves) < 3:
            continue
        types = [ops[register].type for register in leaves]
        as_is = current_cost(index, interiors)
        if as_is is None:
            continue
        best, splits = model.chain_order(types)
        if best < as_is:
            rebuilt[index] = (leaves, splits)
            absorbed.update(interiors)
            notes.append(
                f"reorder: re-associated a {len(leaves)}-factor matmul "
                f"chain (est. cost {as_is} -> {best})"
            )

    if not rebuilt:
        if changed:
            return Plan(tuple(ops), plan.result, plan.pinned, notes=plan.notes)
        return plan

    out: List[PlanOp] = []
    remap: Dict[int, int] = {}
    #: ``(left, right) -> register`` of the matmuls emitted so far: chains
    #: rebuilt from shared leaves can ask for the same product twice.
    products: Dict[Tuple[int, int], int] = {}

    def emit(op: PlanOp) -> int:
        if op.opcode == "matmul":
            existing = products.get(op.inputs)
            if existing is not None:
                return existing
            products[op.inputs] = len(out)
        out.append(op)
        return len(out) - 1

    def build(factors: list, splits, i: int, j: int) -> Tuple[int, MatrixType]:
        if i == j:
            return remap[factors[i]], ops[factors[i]].type
        at = splits[(i, j)]
        left, left_type = build(factors, splits, i, at)
        right, right_type = build(factors, splits, at + 1, j)
        result_type = (left_type[0], right_type[1])
        return emit(PlanOp("matmul", (left, right), type=result_type)), result_type

    for index, op in enumerate(ops):
        if index in absorbed:
            continue
        if index in rebuilt:
            factors, splits = rebuilt[index]
            register, _ = build(factors, splits, 0, len(factors) - 1)
            remap[index] = register
            continue
        inputs = tuple(remap[register] for register in op.inputs)
        captures = tuple(remap[register] for register in op.captures)
        if inputs != op.inputs or captures != op.captures:
            op = replace(op, inputs=inputs, captures=captures)
        remap[index] = emit(op)

    pinned = tuple(sorted({remap[register] for register in plan.pinned}))
    return Plan(tuple(out), remap[plan.result], pinned, notes=plan.notes)
