"""Loop-fusion rewrite rules for the MATLANG plan compiler.

The quantifiers of Section 6 iterate a body once per canonical vector, which
the tree-walking evaluator pays for with ``n`` Python dispatch rounds.  For
the overwhelmingly common body shapes the whole loop is algebraically equal
to a *single* whole-array kernel call; the rules in this module recognise
those shapes on the annotated tree and emit the corresponding fused plan op
(see :mod:`repro.matlang.ir`):

=================================  =====================================
sum-quantifier body (iterator v)   fused op
=================================  =====================================
``e`` with ``v`` not free          ``nsum``: ``n`` copies = ``n x e``
``v``                              ``ones_type`` (the all-ones vector)
``v^T``                            ``ones_type`` (the all-ones row)
``v . v^T``                        ``identity_sym``
``(v.v^T) . e`` / ``e . (v.v^T)``  ``e`` itself (sum of selectors is I)
``v . (v^T.e)`` / ``(e.v) . v^T``  ``e`` itself
``e . v``                          ``row_sums``
``v^T . e``                        ``col_sums``
``v^T . e . v``                    ``trace``
``(v^T.e.v) x (v.v^T)``            ``diag_of_diag``
``(v^T.e) x (v.v^T)``              ``diag`` of the column ``e``
``(e.v) x (v.v^T)``                ``diag`` of the row ``e`` transposed
``s x (v.v^T)``, ``v`` not in s    ``s x identity_sym``
``s x m``, ``v`` not in ``m``      ``(Sigma_v s) x m`` (recursive)
``s x m``, ``v`` not in ``s``      ``s x (Sigma_v m)`` (recursive)
``a + b``                          ``Sigma_v a + Sigma_v b`` (recursive,
                                   fires only when *both* summands fuse)
``Sigma_w (v^T . e . w)``          ``col+row sums``: the total sum of ``e``
=================================  =====================================

The matmul patterns above are additionally matched *modulo associativity*
(and through arbitrary chain lengths) by a chain-aware rule: quantifier
bodies are flattened into their factor chains, so ``Sigma_v A . (B . v)``
fuses exactly like ``Sigma_v (A . B) . v``, ``v^T . chain . v`` becomes a
trace, a mid-chain ``v . v^T`` selector pair vanishes, and a single
mid-chain iterator is summed out into a materialised ones vector.  With
normalization (:mod:`repro.matlang.normalize`) canonicalizing trees before
lowering, every rule in this module fires regardless of how the user
parenthesised the body.

The Add-body split is *speculative*: it fuses the left summand before
knowing whether the right one fuses too.  When the right side fails, the
rule declines and the already-emitted left ops become dead code — which the
compiler's dead-op pruning pass removes again (see
:func:`repro.matlang.compiler.lower`), so a failed split still leaves the
final plan exactly as if the rule had never run.

For the product quantifiers a loop-invariant body collapses to an iterated
power computed by repeated squaring (``power`` / ``hadamard_power``,
``O(log n)`` kernel calls instead of ``n``), and the Hadamard quantifier
over ``v^T . e . v`` becomes the product of the diagonal (``diag_product``,
Example 6.6).  All identities use only associativity, commutativity and
distributivity, so they hold over every commutative semiring.

The rules consult :attr:`~repro.matlang.typecheck.TypedExpression.free_names`
for the "iterator not free" side conditions and match *through*
:class:`~repro.matlang.ast.TypeHint` nodes (which are semantically
transparent).  With the exception of the speculative Add split above, rules
never emit plan ops before a match is certain; a failed match falls back to
a generic ``loop`` op, and any speculatively emitted ops are removed by the
compiler's dead-op pruning, so failed matches never change the final plan.

The compiler tries these rules first.  A ``sum`` loop no rule fuses goes to
:mod:`repro.matlang.contract`, which lowers the ``Sigma`` nest around it by
variable elimination when its body is a product of matrix entries and an
output selector; only a nest outside that fragment becomes a generic loop.
Most rows of the table above are special contractions the lowering also
produces (``tests/test_contract.py`` checks each row with ``SUM_RULES``
emptied); the rules stay, as they emit the fused ops in fewer plan ops.

The rule lists (``SUM_RULES``, ``PRODUCT_RULES``, ``HADAMARD_RULES``) are
plain module-level sequences: downstream code can append custom rules, which
receive ``(body, context)`` and return a plan register or ``None``.  Compiled
plans are cached on ``(expression, schema)`` only, so after mutating a rule
list call :func:`repro.matlang.compiler.clear_plan_cache` — expressions
compiled earlier would otherwise keep serving their pre-extension plans.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.matlang.ast import Add, ForLoop, MatMul, ScalarMul, SumLoop, Transpose, Var
from repro.matlang.normalize import (
    add_leaves,
    build_add_chain,
    build_matmul_chain,
    matmul_leaves,
    strip_hints,
)
from repro.matlang.schema import SCALAR_SYMBOL
from repro.matlang.typecheck import TypedExpression

__all__ = [
    "HADAMARD_RULES",
    "PRODUCT_RULES",
    "SUM_RULES",
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


def _is_selector(typed: TypedExpression, name: str) -> bool:
    """``v . v^T``"""
    stripped = strip_hints(typed)
    return (
        isinstance(stripped.expression, MatMul)
        and _is_iterator(stripped.children[0], name)
        and _is_iterator_t(stripped.children[1], name)
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


def _match_bilinear(
    typed: TypedExpression, first: str, second: str
) -> Optional[TypedExpression]:
    """Match ``x^T . e . y`` with ``{x, y} == {first, second}`` (either order,
    either association); return ``e`` when it is free of both, else ``None``."""
    stripped = strip_hints(typed)
    if not isinstance(stripped.expression, MatMul):
        return None
    left, right = stripped.children
    for row_name, col_name in ((first, second), (second, first)):
        if _is_iterator(right, col_name):
            inner = strip_hints(left)
            if isinstance(inner.expression, MatMul) and _is_iterator_t(
                inner.children[0], row_name
            ):
                matrix = inner.children[1]
                if not ({row_name, col_name} & matrix.free_names):
                    return matrix
        if _is_iterator_t(left, row_name):
            inner = strip_hints(right)
            if isinstance(inner.expression, MatMul) and _is_iterator(
                inner.children[1], col_name
            ):
                matrix = inner.children[0]
                if not ({row_name, col_name} & matrix.free_names):
                    return matrix
    return None


# ----------------------------------------------------------------------
# Sum-quantifier rules
# ----------------------------------------------------------------------
def _leaf_role(leaf: TypedExpression, name: str) -> Optional[str]:
    """Classify a chain factor: the iterator (``"v"``), its transpose
    (``"vT"``), an iterator-free factor (``"free"``) or ``None`` (contains
    the iterator in a shape the chain rule cannot move)."""
    if _is_iterator(leaf, name):
        return "v"
    if _is_iterator_t(leaf, name):
        return "vT"
    if name not in leaf.free_names:
        return "free"
    return None


def _rule_sum_chain(body: TypedExpression, ctx) -> Optional[int]:
    """Fuse ``Sigma_v`` over a flattened matmul chain of any association.

    The chain ``l_0 . l_1 ... l_k`` is multilinear in each factor, so the
    quantifier sum commutes with every iterator-free prefix and suffix
    (distributivity).  Depending on where the iterator occurs as a whole
    factor the loop collapses to a fused form:

    * ``v`` (or ``v^T``) occurring exactly once — the sum moves onto that
      factor: ``Sigma_v v = 1``-vector, giving ``row_sums`` at the end of
      the chain, ``col_sums`` at the start, and a materialised ones vector
      in the middle;
    * the adjacent pair ``v . v^T`` occurring once and the iterator nowhere
      else — ``Sigma_v (v.v^T) = I`` drops out of the chain entirely;
    * ``v^T`` first and ``v`` last — the bilinear form sums to ``trace``.

    This subsumes the binary row/col-sums, trace and selector rules *modulo
    associativity*: normalization guarantees a canonical left-deep chain,
    but the flattening here accepts any parenthesisation, so the rule also
    fires on hand-built (un-normalized) trees.
    """
    leaves = matmul_leaves(body)
    if len(leaves) < 2:
        return None
    roles = [_leaf_role(leaf, ctx.iterator) for leaf in leaves]
    if any(role is None for role in roles):
        return None
    occurrences = [index for index, role in enumerate(roles) if role != "free"]
    if not occurrences:
        return None  # handled by the nsum path before the rules run

    if len(occurrences) == 1:
        index = occurrences[0]
        rest = leaves[:index] + leaves[index + 1 :]
        if not rest:
            return None  # bare ``v`` / ``v^T``: the basis rule's case
        if roles[index] == "v" and index == len(leaves) - 1:
            return ctx.emit(
                "row_sums", (ctx.lower(build_matmul_chain(rest)),), type=body.type
            )
        if roles[index] == "vT" and index == 0:
            return ctx.emit(
                "col_sums", (ctx.lower(build_matmul_chain(rest)),), type=body.type
            )
        # The iterator sits mid-chain: replace it with the summed-out ones
        # vector of the same type and keep the factors around it.
        prefix = leaves[:index]
        suffix = leaves[index + 1 :]
        ones = ctx.emit("ones_type", (), type=leaves[index].type)
        register = ones
        if prefix:
            left = ctx.lower(build_matmul_chain(prefix))
            register = ctx.emit(
                "matmul", (left, register), type=(prefix[0].type[0], leaves[index].type[1])
            )
        if suffix:
            right = ctx.lower(build_matmul_chain(suffix))
            register = ctx.emit("matmul", (register, right), type=body.type)
        return register

    if len(occurrences) == 2:
        first, second = occurrences
        # Sigma_v ... (v . v^T) ... = ... I ... : the selector pair vanishes.
        if second == first + 1 and roles[first] == "v" and roles[second] == "vT":
            rest = leaves[:first] + leaves[second + 1 :]
            if not rest:
                return ctx.emit("identity_sym", (), symbol=ctx.symbol, type=body.type)
            return ctx.lower(build_matmul_chain(rest))
        # Sigma_v v^T . e ... e' . v = trace(e ... e').
        if (
            first == 0
            and second == len(leaves) - 1
            and roles[first] == "vT"
            and roles[second] == "v"
        ):
            middle = leaves[1:-1]
            if not middle:
                # Sigma_v v^T . v: every term is the semiring one, n terms.
                identity = ctx.emit(
                    "identity_sym", (), symbol=ctx.symbol,
                    type=(ctx.symbol, ctx.symbol),
                )
                return ctx.emit(
                    "trace", (identity,), type=(SCALAR_SYMBOL, SCALAR_SYMBOL)
                )
            return ctx.emit(
                "trace",
                (ctx.lower(build_matmul_chain(middle)),),
                type=(SCALAR_SYMBOL, SCALAR_SYMBOL),
            )
    return None


def _rule_sum_basis(body: TypedExpression, ctx) -> Optional[int]:
    """``Sigma_v v`` and ``Sigma_v v^T`` are the all-ones vector / row."""
    if _is_iterator(body, ctx.iterator):
        return ctx.emit("ones_type", (), type=(ctx.symbol, SCALAR_SYMBOL))
    if _is_iterator_t(body, ctx.iterator):
        return ctx.emit("ones_type", (), type=(SCALAR_SYMBOL, ctx.symbol))
    return None


def _rule_sum_scalar(body: TypedExpression, ctx) -> Optional[int]:
    if not isinstance(body.expression, ScalarMul):
        return None
    iterator = ctx.iterator
    factor, operand = body.children

    if _is_selector(operand, iterator):
        # Sigma_v (v^T.e.v) x (v.v^T): keep only the diagonal of e.
        quadratic = _match_quadratic(factor, iterator)
        if quadratic is not None:
            return ctx.emit("diag_of_diag", (ctx.lower(quadratic),), type=body.type)
        stripped = strip_hints(factor)
        if isinstance(stripped.expression, MatMul):
            inner_left, inner_right = stripped.children
            # Sigma_v (v^T . e) x (v.v^T) = diag(e) for a column vector e.
            if (
                _is_iterator_t(inner_left, iterator)
                and iterator not in inner_right.free_names
            ):
                return ctx.emit("diag", (ctx.lower(inner_right),), type=body.type)
            # Sigma_v (e . v) x (v.v^T) = diag(e^T) for a row vector e.
            if (
                _is_iterator(inner_right, iterator)
                and iterator not in inner_left.free_names
            ):
                row = ctx.lower(inner_left)
                column = ctx.emit("transpose", (row,))
                return ctx.emit("diag", (column,), type=body.type)
        # Sigma_v s x (v.v^T) = s x I when v is not free in s.
        if iterator not in factor.free_names:
            identity = ctx.emit(
                "identity_sym", (), symbol=ctx.symbol, type=operand.type
            )
            return ctx.emit(
                "scale", (ctx.lower(factor), identity), type=body.type
            )

    # Distributivity: pull the loop-invariant factor out of the sum.
    if iterator not in operand.free_names:
        inner = _fuse_sum(factor, ctx)
        if inner is not None:
            return ctx.emit("scale", (inner, ctx.lower(operand)), type=body.type)
    if iterator not in factor.free_names:
        inner = _fuse_sum(operand, ctx)
        if inner is not None:
            return ctx.emit("scale", (ctx.lower(factor), inner), type=body.type)
    return None


def _rule_sum_add(body: TypedExpression, ctx) -> Optional[int]:
    """``Sigma_v (a + b) = Sigma_v a + Sigma_v b`` when both summands fuse.

    Addition commutes with the quantifier sum over every semiring, so the
    split is always sound; it is only *taken* when each summand fuses on its
    own — splitting into two generic loops would double the loop count
    instead of eliminating it.  The left attempt is speculative (see the
    module docstring): on a right-side failure its ops go dead and the
    compiler prunes them.
    """
    if not isinstance(body.expression, Add):
        return None
    left, right = body.children
    left_register = _fuse_sum(left, ctx)
    if left_register is None:
        return None
    right_register = _fuse_sum(right, ctx)
    if right_register is None:
        return None
    return ctx.emit("add", (left_register, right_register), type=body.type)


def _rule_sum_nested_total(body: TypedExpression, ctx) -> Optional[int]:
    """``Sigma_u Sigma_w (u^T . e . w)``: the total sum of ``e``.

    The body is itself a sum quantifier (or the paper's for-loop desugaring
    of one) whose bilinear form pairs the outer iterator against the inner
    one; summing both out adds up every entry, i.e. the row sums of the
    column sums.  Either iterator may take the row side.
    """
    stripped = strip_hints(body)
    expression = stripped.expression
    if isinstance(expression, SumLoop):
        (inner_body,) = stripped.children
    elif isinstance(expression, ForLoop):
        inner_body = sum_quantifier_body(stripped)
        if inner_body is None:
            return None
    else:
        return None
    if expression.iterator == ctx.iterator:
        # The inner binder shadows the outer one; the body is then invariant
        # in the outer iterator and the nsum path has already claimed it.
        return None
    matrix = _match_bilinear(inner_body, ctx.iterator, expression.iterator)
    if matrix is None:
        return None
    columns = ctx.emit(
        "col_sums",
        (ctx.lower(matrix),),
        type=(SCALAR_SYMBOL, matrix.type[1]),
    )
    return ctx.emit("row_sums", (columns,), type=(SCALAR_SYMBOL, SCALAR_SYMBOL))


#: The historical binary matmul rule (row/col sums, trace, selector
#: collapse on two-factor bodies) is gone: ``_rule_sum_chain`` flattens
#: arbitrary associations and chain lengths, strictly subsuming it.
SUM_RULES: List[Callable[[TypedExpression, object], Optional[int]]] = [
    _rule_sum_basis,
    _rule_sum_chain,
    _rule_sum_scalar,
    _rule_sum_add,
    _rule_sum_nested_total,
]


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
def _fuse_sum(body: TypedExpression, ctx) -> Optional[int]:
    body = strip_hints(body)
    if ctx.iterator not in body.free_names:
        return ctx.emit("nsum", (ctx.lower(body),), symbol=ctx.symbol, type=body.type)
    for rule in SUM_RULES:
        register = rule(body, ctx)
        if register is not None:
            return register
    return None


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
    if kind == "sum":
        return _fuse_sum(body, ctx)
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
