"""Type inference and checking for MATLANG / for-MATLANG expressions.

The paper's typing relation (Section 2 and 3.1) assigns to every well-typed
expression a pair of size symbols.  The paper assumes that every variable —
including loop iterators and accumulators — is declared in the schema.  For
usability the reproduction generalises this to *type inference*: variables that
are not declared receive fresh type variables, and the typing rules are turned
into unification constraints over size symbols.  Declared symbols (and the
distinguished symbol ``"1"``) act as constants; unifying two distinct constants
is a type error.  The result is exactly the paper's typing on fully declared
schemas, and a most-general typing otherwise.

The entry points are :func:`infer_type` (the type of the whole expression) and
:func:`annotate`, which produces a :class:`TypedExpression` tree recording the
resolved type of every sub-expression; the evaluator and the circuit compiler
consume annotated trees so that loop bounds are known without re-inference.
Where the input shares a sub-expression object, the annotated tree shares its
typed node's children too (see :func:`_infer`), so typing takes time in the
number of node objects, not tree positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.exceptions import TypingError
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
from repro.matlang.schema import SCALAR_SYMBOL, MatrixType, Schema


class _SymbolUnifier:
    """Union-find over size symbols.

    Symbols starting with ``"?"`` are inference variables; every other symbol
    (schema symbols and ``"1"``) is a constant.  Each union-find class tracks
    the constant it has been bound to, if any.
    """

    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}
        self._constant: Dict[str, Optional[str]] = {}
        #: Fresh symbols drawn so far; it numbers the next one.
        self.drawn = 0

    # ------------------------------------------------------------------
    def fresh(self, hint: str = "t") -> str:
        self.drawn += 1
        name = f"?{hint}{self.drawn}"
        self._register(name)
        return name

    def _register(self, symbol: str) -> None:
        if symbol not in self._parent:
            self._parent[symbol] = symbol
            self._constant[symbol] = None if symbol.startswith("?") else symbol

    def find(self, symbol: str) -> str:
        self._register(symbol)
        root = symbol
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[symbol] != root:
            self._parent[symbol], symbol = root, self._parent[symbol]
        return root

    def constant_of(self, symbol: str) -> Optional[str]:
        return self._constant[self.find(symbol)]

    def unify(self, left: str, right: str, context: str) -> None:
        left_root = self.find(left)
        right_root = self.find(right)
        if left_root == right_root:
            return
        left_const = self._constant[left_root]
        right_const = self._constant[right_root]
        if left_const is not None and right_const is not None and left_const != right_const:
            raise TypingError(
                f"size symbol mismatch in {context}: {left_const!r} vs {right_const!r}"
            )
        # Merge the variable class into the (possibly constant) one.
        self._parent[right_root] = left_root
        self._constant[left_root] = left_const if left_const is not None else right_const

    def resolve(self, symbol: str) -> str:
        """The canonical name of ``symbol``: its constant if bound, else its root."""
        constant = self.constant_of(symbol)
        return constant if constant is not None else self.find(symbol)


@dataclass
class TypedExpression:
    """An expression annotated with its inferred type.

    ``iterator_symbol`` is set on loop nodes and records the (resolved) row
    symbol of the iterator variable; the evaluator uses it to look up the loop
    bound ``n`` in the instance, and the circuit compiler uses it to unroll.
    ``accumulator_type`` is set on :class:`ForLoop` nodes.  ``free_names`` is
    the set of matrix variables occurring free below this node; the evaluator
    uses it to decide which sub-results can safely be memoised across loop
    iterations.
    """

    expression: Expression
    type: MatrixType
    children: Tuple["TypedExpression", ...] = ()
    iterator_symbol: Optional[str] = None
    accumulator_type: Optional[MatrixType] = None
    free_names: FrozenSet[str] = frozenset()
    #: Signature of the schema the tree was annotated against, set by
    #: :func:`annotate` on the root node only.  The plan compiler keys its
    #: cache on this (never on a caller-supplied schema), so a tree annotated
    #: against one schema can never poison the cache entry of another.
    schema_signature: Optional[Tuple] = None

    def walk(self):
        """Yield this annotated node and all descendants in pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class _Context:
    """Inference context: schema lookups, the binding environment and the
    DAG memo (see :func:`_infer`)."""

    schema: Schema
    unifier: _SymbolUnifier
    #: Whether a node met again may reuse its first typing.
    reuse: bool = True
    #: Types of the loop-bound variables in scope.  A loop replaces the dict
    #: instead of updating it, so a memo entry keeps it as a snapshot.
    bindings: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: The symbols of those types.
    bound_symbols: FrozenSet[str] = frozenset()
    #: ``id(node) -> (node, bindings, typed, fresh symbols drawn, reusable)``
    #: for the first visit of every composite node.
    seen: Dict[int, Tuple] = field(default_factory=dict)
    #: Ids of the typed nodes :func:`_infer` returned more than once.
    shared: Set[int] = field(default_factory=set)
    #: ``id(node) -> (node, free variables)`` for the nodes met again and
    #: the nodes below them.
    free: Dict[int, Tuple[Expression, FrozenSet[str]]] = field(default_factory=dict)

    def bind(self, types: Dict[str, Tuple[str, str]]) -> Tuple:
        """Enter a loop's scope; returns the outer scope for :meth:`leave`."""
        outer = (self.bindings, self.bound_symbols)
        self.bindings = {**self.bindings, **types}
        self.bound_symbols = self.bound_symbols.union(*types.values())
        return outer

    def leave(self, outer: Tuple) -> None:
        self.bindings, self.bound_symbols = outer

    def type_of_variable(self, name: str, context: str) -> Tuple[str, str]:
        if name in self.bindings:
            return self.bindings[name]
        if self.schema.declares(name):
            row, col = self.schema.size(name)
            return (row, col)
        raise TypingError(
            f"variable {name!r} used in {context} is neither bound by a loop "
            "nor declared in the schema"
        )


def infer_type(expression: Expression, schema: Schema) -> MatrixType:
    """Infer the type of ``expression`` with respect to ``schema``.

    Raises :class:`~repro.exceptions.TypingError` when the expression is not
    well-typed.  Unresolved dimensions are reported as inference variables
    (names starting with ``"?"``).
    """
    return annotate(expression, schema).type


def annotate(expression: Expression, schema: Schema) -> TypedExpression:
    """Type-check ``expression`` and return the fully annotated tree.

    Dimensions that remain unconstrained after unification are defaulted to
    the schema's unique non-scalar size symbol when there is exactly one (the
    "square schema" setting of Sections 5 and 6); otherwise they stay as
    inference variables and the evaluator reports them when a concrete
    dimension is actually required.
    """
    non_scalar = [symbol for symbol in schema.symbols() if symbol != SCALAR_SYMBOL]
    default_symbol = non_scalar[0] if len(non_scalar) == 1 else None
    resolved, renamed = _annotate(expression, schema, default_symbol, reuse=True)
    if renamed:
        resolved, _ = _annotate(expression, schema, default_symbol, reuse=False)
    resolved.schema_signature = schema.signature()
    return resolved


def _annotate(
    expression: Expression, schema: Schema, default_symbol: Optional[str], reuse: bool
) -> Tuple[TypedExpression, bool]:
    """The resolved tree, and whether a reuse may have renamed a symbol in it.

    A reused node carries the inference variables of its first use.  That is
    invisible unless a variable stays unresolved and so keeps its name; the
    caller then types every use afresh, so names are those of a tree walk.
    """
    unifier = _SymbolUnifier()
    context = _Context(schema=schema, unifier=unifier, reuse=reuse)
    typed = _infer(expression, context)
    resolver = _Resolver(unifier, default_symbol, context.shared)
    resolved = resolver.resolve(typed)
    return resolved, resolver.unresolved and bool(context.shared)


# ----------------------------------------------------------------------
# Inference
# ----------------------------------------------------------------------
def _infer(expression: Expression, ctx: _Context) -> TypedExpression:
    """Type ``expression``, once per node object and context.

    Builders plug one sub-expression object into several places, so the
    input is a DAG.  A composite node met again reuses the typed node of
    its first visit when typing it afresh could not differ:

    * its free variables have the types they had then (the same loop
      binders, hence the same symbols, or the same schema declarations),
      so its constraints are already in the unifier; and
    * its type consisted, at the first visit, only of constants and symbols
      of the loop-bound variables in scope, so no symbol created inside it
      escapes.  A polymorphic node such as ``e_max = for v, X. v`` fails
      this and is typed at each use, as each use may fix another dimension.

    Reuse also skips the fresh symbols a new typing would draw, so every
    later symbol is named as in a tree walk.
    """
    if isinstance(expression, Var):
        row, col = ctx.type_of_variable(expression.name, f"variable {expression.name!r}")
        return TypedExpression(expression, (row, col))

    if isinstance(expression, Literal):
        return TypedExpression(expression, (SCALAR_SYMBOL, SCALAR_SYMBOL))

    if not ctx.reuse:
        return _infer_node(expression, ctx)
    seen = ctx.seen
    entry = seen.get(id(expression))
    if entry is not None:
        typed = _reuse(expression, entry, ctx)
        if typed is not None:
            return typed
    unifier = ctx.unifier
    drawn = unifier.drawn
    typed = _infer_node(expression, ctx)
    if entry is None:
        seen[id(expression)] = (
            expression,
            ctx.bindings,
            typed,
            unifier.drawn - drawn,
            _escapes_nothing(typed.type, ctx),
        )
    return typed


def _escapes_nothing(type: Tuple[str, str], ctx: _Context) -> bool:
    """Whether every symbol of ``type`` is a constant or in the class of a
    loop-bound variable's symbol."""
    bound = ctx.bound_symbols
    for symbol in type:
        if symbol[0] == "?" and symbol not in bound:
            unifier = ctx.unifier
            root = unifier.find(symbol)
            if unifier.constant_of(root) is None and root not in {unifier.find(part) for part in bound}:
                return False
    return True


def _reuse(expression: Expression, entry: Tuple, ctx: _Context) -> Optional[TypedExpression]:
    """The typed node of ``entry`` if it is valid here (see :func:`_infer`)."""
    _, bindings, typed, drawn, reusable = entry
    if not reusable:
        return None
    for name in _free_of(expression, ctx):
        if bindings.get(name) != ctx.bindings.get(name):
            return None
    ctx.unifier.drawn += drawn
    ctx.shared.add(id(typed))
    return typed


def _free_of(expression: Expression, ctx: _Context) -> FrozenSet[str]:
    """The free variables of ``expression``, memoised over the DAG."""
    entry = ctx.free.get(id(expression))
    if entry is not None:
        return entry[1]
    if isinstance(expression, Var):
        names = frozenset((expression.name,))
    else:
        names = frozenset()
        for child in expression.children():
            names |= _free_of(child, ctx)
        if isinstance(expression, ForLoop):
            names -= {expression.iterator, expression.accumulator}
            if expression.init is not None:
                names |= _free_of(expression.init, ctx)
        elif isinstance(expression, (SumLoop, HadamardLoop, ProductLoop)):
            names -= {expression.iterator}
    ctx.free[id(expression)] = (expression, names)
    return names


def _infer_node(expression: Expression, ctx: _Context) -> TypedExpression:
    unifier = ctx.unifier

    if isinstance(expression, Transpose):
        operand = _infer(expression.operand, ctx)
        row, col = operand.type
        return TypedExpression(expression, (col, row), (operand,))

    if isinstance(expression, OneVector):
        operand = _infer(expression.operand, ctx)
        row, _ = operand.type
        return TypedExpression(expression, (row, SCALAR_SYMBOL), (operand,))

    if isinstance(expression, Diag):
        operand = _infer(expression.operand, ctx)
        row, col = operand.type
        unifier.unify(col, SCALAR_SYMBOL, "diag(e): e must be a column vector")
        return TypedExpression(expression, (row, row), (operand,))

    if isinstance(expression, TypeHint):
        operand = _infer(expression.operand, ctx)
        row, col = operand.type
        if expression.row is not None:
            unifier.unify(row, expression.row, "type hint (rows)")
        if expression.col is not None:
            unifier.unify(col, expression.col, "type hint (columns)")
        return TypedExpression(expression, (row, col), (operand,))

    if isinstance(expression, MatMul):
        left = _infer(expression.left, ctx)
        right = _infer(expression.right, ctx)
        unifier.unify(left.type[1], right.type[0], "matrix multiplication e1 . e2")
        return TypedExpression(expression, (left.type[0], right.type[1]), (left, right))

    if isinstance(expression, Add):
        left = _infer(expression.left, ctx)
        right = _infer(expression.right, ctx)
        unifier.unify(left.type[0], right.type[0], "matrix addition e1 + e2 (rows)")
        unifier.unify(left.type[1], right.type[1], "matrix addition e1 + e2 (columns)")
        return TypedExpression(expression, left.type, (left, right))

    if isinstance(expression, ScalarMul):
        scalar = _infer(expression.scalar, ctx)
        operand = _infer(expression.operand, ctx)
        unifier.unify(scalar.type[0], SCALAR_SYMBOL, "scalar multiplication (rows of e1)")
        unifier.unify(scalar.type[1], SCALAR_SYMBOL, "scalar multiplication (columns of e1)")
        return TypedExpression(expression, operand.type, (scalar, operand))

    if isinstance(expression, Apply):
        if not expression.operands:
            raise TypingError(f"pointwise function {expression.function!r} needs arguments")
        operands = [_infer(op, ctx) for op in expression.operands]
        first = operands[0]
        for other in operands[1:]:
            unifier.unify(first.type[0], other.type[0], "pointwise application (rows)")
            unifier.unify(first.type[1], other.type[1], "pointwise application (columns)")
        return TypedExpression(expression, first.type, tuple(operands))

    if isinstance(expression, ForLoop):
        return _infer_for(expression, ctx)

    if isinstance(expression, (SumLoop, HadamardLoop, ProductLoop)):
        return _infer_quantifier(expression, ctx)

    raise TypingError(f"unknown expression node {type(expression).__name__}")


def _declared_or_fresh(ctx: _Context, name: str, default_row: str, default_col: str) -> Tuple[str, str]:
    """Type of a bound variable: schema declaration if present, else fresh symbols."""
    if ctx.schema.declares(name):
        return ctx.schema.size(name)
    return (default_row, default_col)


def _infer_for(expression: ForLoop, ctx: _Context) -> TypedExpression:
    unifier = ctx.unifier
    iterator_type = _declared_or_fresh(
        ctx, expression.iterator, unifier.fresh("it"), SCALAR_SYMBOL
    )
    unifier.unify(iterator_type[1], SCALAR_SYMBOL, "for-loop iterator must be a column vector")
    accumulator_type = _declared_or_fresh(
        ctx, expression.accumulator, unifier.fresh("accr"), unifier.fresh("accc")
    )

    init_typed: Optional[TypedExpression] = None
    if expression.init is not None:
        init_typed = _infer(expression.init, ctx)
        unifier.unify(accumulator_type[0], init_typed.type[0], "for-loop initialiser (rows)")
        unifier.unify(accumulator_type[1], init_typed.type[1], "for-loop initialiser (columns)")

    outer = ctx.bind(
        {expression.iterator: iterator_type, expression.accumulator: accumulator_type}
    )
    try:
        body = _infer(expression.body, ctx)
    finally:
        ctx.leave(outer)

    unifier.unify(accumulator_type[0], body.type[0], "for-loop body must match accumulator (rows)")
    unifier.unify(
        accumulator_type[1], body.type[1], "for-loop body must match accumulator (columns)"
    )

    children = (body,) if init_typed is None else (init_typed, body)
    return TypedExpression(
        expression,
        accumulator_type,
        children,
        iterator_symbol=iterator_type[0],
        accumulator_type=accumulator_type,
    )


def _infer_quantifier(expression, ctx: _Context) -> TypedExpression:
    unifier = ctx.unifier
    iterator_type = _declared_or_fresh(
        ctx, expression.iterator, unifier.fresh("it"), SCALAR_SYMBOL
    )
    unifier.unify(iterator_type[1], SCALAR_SYMBOL, "quantifier iterator must be a column vector")

    outer = ctx.bind({expression.iterator: iterator_type})
    try:
        body = _infer(expression.body, ctx)
    finally:
        ctx.leave(outer)

    if isinstance(expression, ProductLoop):
        unifier.unify(
            body.type[0], body.type[1], "matrix-product quantifier needs a square body"
        )

    return TypedExpression(
        expression,
        body.type,
        (body,),
        iterator_symbol=iterator_type[0],
        accumulator_type=body.type,
    )


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
class _Resolver:
    """Rewrite an inferred tree with every symbol resolved.

    A typed node :func:`_infer` returned more than once (its ``shared``
    ids) is resolved once, so the result keeps the input's sharing below
    it.  Each further use gets its own node over the same children, with
    its own type tuples: plan ops take their types from these nodes, and a
    plan holds the same tuple objects, down to the pickle of
    :func:`~repro.matlang.ir.serialize_plan`, as when every use was typed
    separately.
    """

    def __init__(
        self, unifier: _SymbolUnifier, default_symbol: Optional[str], shared: Set[int]
    ) -> None:
        self.unifier = unifier
        self.default_symbol = default_symbol
        self.shared = shared
        self.symbols: Dict[str, str] = {}
        self.memo: Dict[int, TypedExpression] = {}
        #: Whether some symbol resolved to an inference variable.
        self.unresolved = False

    def symbol(self, symbol: str) -> str:
        resolved = self.symbols.get(symbol)
        if resolved is None:
            resolved = self.unifier.resolve(symbol)
            if resolved.startswith("?"):
                if self.default_symbol is None:
                    self.unresolved = True
                else:
                    resolved = self.default_symbol
            self.symbols[symbol] = resolved
        return resolved

    def resolve(self, typed: TypedExpression) -> TypedExpression:
        shared = self.shared and id(typed) in self.shared
        if shared:
            done = self.memo.get(id(typed))
            if done is not None:
                return _another_use(done)
        symbol = self.symbol
        known = self.symbols
        row, col = typed.type
        children = tuple(self.resolve(child) for child in typed.children)
        iterator_symbol = (
            symbol(typed.iterator_symbol) if typed.iterator_symbol is not None else None
        )
        accumulator_type = None
        if typed.accumulator_type is not None:
            accumulator_type = (
                symbol(typed.accumulator_type[0]),
                symbol(typed.accumulator_type[1]),
            )
        resolved = TypedExpression(
            typed.expression,
            (known.get(row) or symbol(row), known.get(col) or symbol(col)),
            children,
            iterator_symbol=iterator_symbol,
            accumulator_type=accumulator_type,
            free_names=_free_names(typed.expression, children),
        )
        if shared:
            self.memo[id(typed)] = resolved
        return resolved


def _another_use(typed: TypedExpression) -> TypedExpression:
    """A copy of ``typed`` with new type tuples over the same children."""
    accumulator_type = typed.accumulator_type
    return TypedExpression(
        typed.expression,
        (typed.type[0], typed.type[1]),
        typed.children,
        iterator_symbol=typed.iterator_symbol,
        accumulator_type=None if accumulator_type is None else (accumulator_type[0], accumulator_type[1]),
        free_names=typed.free_names,
    )


def _free_names(
    expression: Expression, children: Tuple[TypedExpression, ...]
) -> FrozenSet[str]:
    """Free matrix variables of a node, computed from its resolved children."""
    if isinstance(expression, Var):
        return frozenset({expression.name})
    if isinstance(expression, ForLoop):
        bound = {expression.iterator, expression.accumulator}
        if expression.init is None:
            (body,) = children
            return body.free_names - bound
        init, body = children
        return init.free_names | (body.free_names - bound)
    if isinstance(expression, (SumLoop, HadamardLoop, ProductLoop)):
        (body,) = children
        return body.free_names - {expression.iterator}
    names: FrozenSet[str] = frozenset()
    for child in children:
        names |= child.free_names
    return names


def is_well_typed(expression: Expression, schema: Schema) -> bool:
    """Whether ``expression`` type-checks against ``schema``."""
    try:
        infer_type(expression, schema)
    except TypingError:
        return False
    return True
