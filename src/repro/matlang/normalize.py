"""Algebraic normalization of annotated MATLANG expressions.

This is the *logical* stage of the staged optimizer

    annotate -> normalize (this module) -> lower + fuse -> cost-based
    reordering -> physical backend selection

It rewrites the typed tree into a canonical form using only semiring
identities that hold over every commutative semiring:

* **matmul chains** are flattened across arbitrary parenthesisations and
  rebuilt left-deep (associativity), so ``A . (B . C)`` and ``(A . B) . C``
  compile to the same plan — every CSE opportunity and every fusion rule of
  :mod:`repro.matlang.rewrites` fires *modulo associativity*;
* **addition chains** are flattened and their operands sorted by a
  deterministic structural key (associativity + commutativity), so
  ``A + B`` and ``B + A`` share one register and sum-quantifier splits see
  one canonical shape.

Over exact semirings (boolean, tropical, integers, polynomials) these
rewrites are bitwise identities.  Over float64 they re-associate floating
point arithmetic, which is exact as *algebra* but can change the last few
ulps of a result; the property suite therefore asserts bitwise equality for
exact semirings and tolerance agreement for the reals — the same contract
the fusion rules have always had.

Type hints inside a flattened chain are dropped (they are semantically
transparent and their constraints were already consumed by ``annotate``).
The pass never changes which instance matrices are read or how loops are
bound, so loop-invariant hoisting and interpreter error parity are
unaffected.

The module also hosts the shared typed-tree surgery helpers
(:func:`strip_hints`, :func:`matmul_leaves`, :func:`build_matmul_chain`)
used by the chain-aware fusion rules in :mod:`repro.matlang.rewrites`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

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
from repro.matlang.typecheck import TypedExpression

__all__ = [
    "add_leaves",
    "build_matmul_chain",
    "matmul_leaves",
    "normalize",
    "strip_hints",
    "structural_key",
]


def strip_hints(typed: TypedExpression) -> TypedExpression:
    """Skip through type hints, which evaluate to their operand."""
    while isinstance(typed.expression, TypeHint):
        typed = typed.children[0]
    return typed


# ----------------------------------------------------------------------
# Chain flattening and rebuilding
# ----------------------------------------------------------------------
def matmul_leaves(typed: TypedExpression) -> List[TypedExpression]:
    """Flatten a matmul tree (through hints) into its ordered leaf factors.

    Returns ``[typed]`` when the node is not a matmul, so the result is
    always a non-empty chain whose left-to-right product equals the input.
    """
    stripped = strip_hints(typed)
    if not isinstance(stripped.expression, MatMul):
        return [typed]
    left, right = stripped.children
    return matmul_leaves(left) + matmul_leaves(right)


def add_leaves(typed: TypedExpression) -> List[TypedExpression]:
    """Flatten an addition tree (through hints) into its ordered summands."""
    stripped = strip_hints(typed)
    if not isinstance(stripped.expression, Add):
        return [typed]
    left, right = stripped.children
    return add_leaves(left) + add_leaves(right)


def typed_matmul(left: TypedExpression, right: TypedExpression) -> TypedExpression:
    """The annotated product ``left . right`` (types recomputed from the parts)."""
    return TypedExpression(
        MatMul(left.expression, right.expression),
        (left.type[0], right.type[1]),
        (left, right),
        free_names=left.free_names | right.free_names,
    )


def typed_add(left: TypedExpression, right: TypedExpression) -> TypedExpression:
    """The annotated sum ``left + right``."""
    return TypedExpression(
        Add(left.expression, right.expression),
        left.type,
        (left, right),
        free_names=left.free_names | right.free_names,
    )


def build_matmul_chain(leaves: List[TypedExpression]) -> TypedExpression:
    """Rebuild a flattened matmul chain left-deep: ``((l0 . l1) . l2) ...``."""
    if not leaves:
        raise ValueError("cannot build a matmul chain from no factors")
    chain = leaves[0]
    for leaf in leaves[1:]:
        chain = typed_matmul(chain, leaf)
    return chain


def build_add_chain(leaves: List[TypedExpression]) -> TypedExpression:
    """Rebuild a flattened addition chain left-deep."""
    if not leaves:
        raise ValueError("cannot build an addition chain from no summands")
    chain = leaves[0]
    for leaf in leaves[1:]:
        chain = typed_add(chain, leaf)
    return chain


# ----------------------------------------------------------------------
# Canonical operand ordering
# ----------------------------------------------------------------------
def structural_key(expression: Expression) -> Tuple:
    """A deterministic, hash-randomisation-free total order key for AST nodes.

    Used to sort the operands of flattened addition chains: structurally
    equal expressions get equal keys, and the order is stable across
    processes (no reliance on ``hash``), so the canonical form — and with it
    the plan cache and any float64 rounding — is reproducible.
    """
    return _structural_key(expression, structural_key)


def _structural_key(expression: Expression, child_key: Callable[[Expression], Tuple]) -> Tuple:
    """:func:`structural_key` of ``expression`` over its children's
    ``child_key`` (the normalizer's memoised one)."""
    expression_type = type(expression).__name__
    if isinstance(expression, Var):
        return (expression_type, expression.name)
    if isinstance(expression, Literal):
        return (expression_type, repr(expression.value))
    if isinstance(expression, Apply):
        return (
            expression_type,
            expression.function,
            tuple(child_key(operand) for operand in expression.operands),
        )
    if isinstance(expression, TypeHint):
        return (
            expression_type,
            expression.row or "",
            expression.col or "",
            child_key(expression.operand),
        )
    if isinstance(expression, ForLoop):
        parts = [child_key(expression.body)]
        if expression.init is not None:
            parts.append(child_key(expression.init))
        return (
            expression_type,
            expression.iterator,
            expression.accumulator,
            tuple(parts),
        )
    if isinstance(expression, (SumLoop, HadamardLoop, ProductLoop)):
        return (expression_type, expression.iterator, child_key(expression.body))
    return (
        expression_type,
        tuple(child_key(child) for child in expression.children()),
    )


# ----------------------------------------------------------------------
# The normalization pass
# ----------------------------------------------------------------------
class _Normalizer:
    """One normalization run; counts what fired for the plan notes.

    The input is a DAG when :func:`~repro.matlang.typecheck.annotate`
    shared a typed node, so rewrites and structural keys are memoised per
    node object.  A reused rewrite adds its counts again, so the notes read
    as for a tree.
    """

    def __init__(self) -> None:
        self.reassociated_products = 0
        self.reordered_sums = 0
        #: ``id(typed) -> (typed, rewritten, products, sums)``.
        self._rewrites: Dict[int, Tuple] = {}
        #: ``id(expression) -> (expression, structural key)``.
        self._keys: Dict[int, Tuple[Expression, Tuple]] = {}

    def notes(self) -> Tuple[str, ...]:
        notes = []
        if self.reassociated_products:
            notes.append(
                f"normalize: re-associated {self.reassociated_products} matmul "
                f"chain(s) into canonical left-deep form"
            )
        if self.reordered_sums:
            notes.append(
                f"normalize: flattened and canonically ordered "
                f"{self.reordered_sums} addition chain(s)"
            )
        return tuple(notes)

    def key(self, expression: Expression) -> Tuple:
        """:func:`structural_key`, memoised."""
        entry = self._keys.get(id(expression))
        if entry is not None:
            return entry[1]
        key = _structural_key(expression, self.key)
        self._keys[id(expression)] = (expression, key)
        return key

    # ------------------------------------------------------------------
    def rewrite(self, typed: TypedExpression) -> TypedExpression:
        if not typed.children:
            return typed
        entry = self._rewrites.get(id(typed))
        if entry is not None:
            _, rewritten, products, sums = entry
            self.reassociated_products += products
            self.reordered_sums += sums
            return rewritten
        products, sums = self.reassociated_products, self.reordered_sums
        rewritten = self._rewrite(typed)
        self._rewrites[id(typed)] = (
            typed,
            rewritten,
            self.reassociated_products - products,
            self.reordered_sums - sums,
        )
        return rewritten

    def _rewrite(self, typed: TypedExpression) -> TypedExpression:
        expression = typed.expression

        if isinstance(expression, MatMul):
            leaves = [self.rewrite(leaf) for leaf in matmul_leaves(typed)]
            canonical = build_matmul_chain(leaves)
            if canonical.expression != typed.expression:
                self.reassociated_products += 1
            return canonical

        if isinstance(expression, Add):
            leaves = [self.rewrite(leaf) for leaf in add_leaves(typed)]
            ordered = sorted(leaves, key=lambda leaf: self.key(leaf.expression))
            canonical = build_add_chain(ordered)
            if canonical.expression != typed.expression:
                self.reordered_sums += 1
            return canonical

        children = tuple(self.rewrite(child) for child in typed.children)
        if all(new is old for new, old in zip(children, typed.children)):
            return typed
        return self._rebuild(typed, children)

    # ------------------------------------------------------------------
    def _rebuild(
        self, typed: TypedExpression, children: Tuple[TypedExpression, ...]
    ) -> TypedExpression:
        """A copy of ``typed`` over new children, with its AST node rebuilt."""
        expression = typed.expression
        child_expressions = tuple(child.expression for child in children)

        if isinstance(expression, Transpose):
            rebuilt: Expression = Transpose(*child_expressions)
        elif isinstance(expression, OneVector):
            rebuilt = OneVector(*child_expressions)
        elif isinstance(expression, Diag):
            rebuilt = Diag(*child_expressions)
        elif isinstance(expression, TypeHint):
            rebuilt = TypeHint(child_expressions[0], expression.row, expression.col)
        elif isinstance(expression, ScalarMul):
            rebuilt = ScalarMul(*child_expressions)
        elif isinstance(expression, Apply):
            rebuilt = Apply(expression.function, child_expressions)
        elif isinstance(expression, SumLoop):
            rebuilt = SumLoop(expression.iterator, child_expressions[0])
        elif isinstance(expression, HadamardLoop):
            rebuilt = HadamardLoop(expression.iterator, child_expressions[0])
        elif isinstance(expression, ProductLoop):
            rebuilt = ProductLoop(expression.iterator, child_expressions[0])
        elif isinstance(expression, ForLoop):
            if expression.init is None:
                rebuilt = ForLoop(
                    expression.iterator, expression.accumulator, child_expressions[0]
                )
            else:
                rebuilt = ForLoop(
                    expression.iterator,
                    expression.accumulator,
                    child_expressions[1],
                    child_expressions[0],
                )
        else:  # pragma: no cover - every composite node is handled above
            raise TypeError(f"cannot rebuild node {type(expression).__name__}")

        free_names = frozenset()
        for child in children:
            free_names |= child.free_names
        if isinstance(expression, ForLoop):
            bound = {expression.iterator, expression.accumulator}
            if expression.init is None:
                free_names = children[0].free_names - bound
            else:
                free_names = children[0].free_names | (children[1].free_names - bound)
        elif isinstance(expression, (SumLoop, HadamardLoop, ProductLoop)):
            free_names = children[0].free_names - {expression.iterator}

        return TypedExpression(
            rebuilt,
            typed.type,
            children,
            iterator_symbol=typed.iterator_symbol,
            accumulator_type=typed.accumulator_type,
            free_names=free_names,
        )


def normalize(typed: TypedExpression) -> Tuple[TypedExpression, Tuple[str, ...]]:
    """Canonicalize an annotated tree; returns ``(tree, notes)``.

    The result is annotated exactly like the input (types, loop symbols and
    free-name sets are recomputed where sub-trees moved) and carries the same
    ``schema_signature``, so it is a drop-in input for the plan compiler.
    """
    normalizer = _Normalizer()
    rewritten = normalizer.rewrite(typed)
    if rewritten is not typed:
        rewritten.schema_signature = typed.schema_signature
    return rewritten, normalizer.notes()
