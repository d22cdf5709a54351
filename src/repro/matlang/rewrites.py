"""Loop-fusion rewrite rules for the product quantifiers.

The quantifiers of Section 6 iterate a body once per canonical vector, which
the tree-walking evaluator pays for with ``n`` Python dispatch rounds.  For
the product quantifiers the rules in this module recognise the body shapes
whose whole loop is one fused plan op (see :mod:`repro.matlang.ir`):

=================================  =====================================
quantifier body (iterator v)       fused op
=================================  =====================================
``Pi_v e``, ``v`` not free         ``power``: ``e^n`` by repeated squaring
``Pi-o_v e``, ``v`` not free       ``hadamard_power``: entrywise power
``Pi-o_v v^T . e . v``             ``diag_product``: the product of the
                                   diagonal (Example 6.6)
=================================  =====================================

Both powers take ``O(log n)`` kernel calls instead of ``n``.  The identities
use only associativity and commutativity, so they hold over every
commutative semiring.  The rules consult
:attr:`~repro.matlang.typecheck.TypedExpression.free_names` for the
"iterator not free" side conditions and match *through*
:class:`~repro.matlang.ast.TypeHint` nodes (which are semantically
transparent); they emit no plan op before a match is certain, and a failed
match leaves the generic ``loop`` op.

The sum quantifier has no rules here: the compiler lowers every ``Sigma``
nest through :mod:`repro.matlang.contract`, by variable elimination
(Proposition 6.3), or keeps it as a loop.  Row sums, traces, diagonals and
``n`` copies are contractions like any other (``M . 1``,
``1^T . diagonal(M)``, ``diag(diagonal(M))``, ``(1^T . 1) x e``).  This
module still recognises ``for v, X. X + e`` as ``Sigma_v e``
(:func:`sum_quantifier_body`), which routes such loops there.

The rule lists (``PRODUCT_RULES``, ``HADAMARD_RULES``) are plain
module-level sequences: downstream code can append custom rules, which
receive ``(body, context)`` and return a plan register or ``None``.
Compiled plans are cached on ``(expression, schema)`` only, so after
mutating a rule list call :func:`repro.matlang.compiler.clear_plan_cache` —
expressions compiled earlier would otherwise keep serving their
pre-extension plans.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.matlang.ast import Add, MatMul, Transpose, Var
from repro.matlang.normalize import add_leaves, build_add_chain, strip_hints
from repro.matlang.schema import SCALAR_SYMBOL
from repro.matlang.typecheck import TypedExpression

__all__ = [
    "HADAMARD_RULES",
    "PRODUCT_RULES",
    "strip_hints",
    "sum_quantifier_body",
    "try_fuse",
]


# ----------------------------------------------------------------------
# Structural matchers
# ----------------------------------------------------------------------
def _is_iterator(typed: TypedExpression, name: str) -> bool:
    """``v``"""
    stripped = strip_hints(typed)
    return isinstance(stripped.expression, Var) and stripped.expression.name == name


def _is_iterator_t(typed: TypedExpression, name: str) -> bool:
    """``v^T``"""
    stripped = strip_hints(typed)
    return isinstance(stripped.expression, Transpose) and _is_iterator(
        stripped.children[0], name
    )


def _match_quadratic(typed: TypedExpression, name: str) -> Optional[TypedExpression]:
    """Match ``v^T . e . v`` (either association); return ``e`` or ``None``."""
    stripped = strip_hints(typed)
    if not isinstance(stripped.expression, MatMul):
        return None
    left, right = stripped.children
    if _is_iterator(right, name):
        inner = strip_hints(left)
        if isinstance(inner.expression, MatMul) and _is_iterator_t(
            inner.children[0], name
        ):
            matrix = inner.children[1]
            if name not in matrix.free_names:
                return matrix
    if _is_iterator_t(left, name):
        inner = strip_hints(right)
        if isinstance(inner.expression, MatMul) and _is_iterator(
            inner.children[1], name
        ):
            matrix = inner.children[0]
            if name not in matrix.free_names:
                return matrix
    return None


# ----------------------------------------------------------------------
# Product-quantifier rules
# ----------------------------------------------------------------------
def _rule_product_invariant(body: TypedExpression, ctx) -> Optional[int]:
    """``Pi_v e`` with ``v`` not free: ``e^n`` by repeated squaring."""
    if ctx.iterator in body.free_names:
        return None
    return ctx.emit("power", (ctx.lower(body),), symbol=ctx.symbol, type=body.type)


PRODUCT_RULES: List[Callable[[TypedExpression, object], Optional[int]]] = [
    _rule_product_invariant,
]


# ----------------------------------------------------------------------
# Hadamard-quantifier rules
# ----------------------------------------------------------------------
def _rule_hadamard_invariant(body: TypedExpression, ctx) -> Optional[int]:
    if ctx.iterator in body.free_names:
        return None
    return ctx.emit(
        "hadamard_power", (ctx.lower(body),), symbol=ctx.symbol, type=body.type
    )


def _rule_hadamard_diagonal(body: TypedExpression, ctx) -> Optional[int]:
    """``Pi-o_v v^T.e.v``: the product of the diagonal entries (Example 6.6)."""
    quadratic = _match_quadratic(body, ctx.iterator)
    if quadratic is None:
        return None
    return ctx.emit(
        "diag_product", (ctx.lower(quadratic),), type=(SCALAR_SYMBOL, SCALAR_SYMBOL)
    )


HADAMARD_RULES: List[Callable[[TypedExpression, object], Optional[int]]] = [
    _rule_hadamard_invariant,
    _rule_hadamard_diagonal,
]


# ----------------------------------------------------------------------
# Entry points used by the compiler
# ----------------------------------------------------------------------
def _fuse_with(rules, body: TypedExpression, ctx) -> Optional[int]:
    body = strip_hints(body)
    for rule in rules:
        register = rule(body, ctx)
        if register is not None:
            return register
    return None


def try_fuse(kind: str, body: TypedExpression, ctx) -> Optional[int]:
    """Try to replace a whole quantifier loop with fused plan ops.

    ``ctx`` is the compiler's rule context (``iterator`` name, dimension
    ``symbol``, and the ``lower`` / ``emit`` callbacks into the enclosing
    plan frame).  Returns the result register, or ``None`` when no rule
    matches and the loop must be lowered generically.
    """
    if kind == "product":
        return _fuse_with(PRODUCT_RULES, body, ctx)
    if kind == "hadamard":
        return _fuse_with(HADAMARD_RULES, body, ctx)
    return None


def sum_quantifier_body(typed: TypedExpression) -> Optional[TypedExpression]:
    """Recognise ``for v, X. X + e`` (no initialiser) as ``Sigma_v e``.

    Returns the typed body ``e`` when the for-loop is exactly the paper's
    desugaring of the sum quantifier (Section 6.1): the accumulator occurs
    exactly as one top-level summand and nowhere in ``e``.  The rewrite is
    exact because the accumulator starts at the additive identity.
    """
    expression = typed.expression
    if expression.init is not None or expression.iterator == expression.accumulator:
        return None
    (body,) = typed.children
    stripped = strip_hints(body)
    if not isinstance(stripped.expression, Add):
        return None
    accumulator = expression.accumulator

    def is_accumulator(node: TypedExpression) -> bool:
        inner = strip_hints(node)
        return (
            isinstance(inner.expression, Var)
            and inner.expression.name == accumulator
        )

    # The body is flattened across associations (and hence across the
    # canonical operand order normalization imposes): the accumulator must
    # occur as exactly one summand of the chain and nowhere inside the rest.
    leaves = add_leaves(stripped)
    hits = [index for index, leaf in enumerate(leaves) if is_accumulator(leaf)]
    if len(hits) != 1:
        return None
    rest = leaves[: hits[0]] + leaves[hits[0] + 1 :]
    if any(accumulator in leaf.free_names for leaf in rest):
        return None
    if len(rest) == 1:
        return rest[0]
    return build_add_chain(rest)
