"""``Sigma`` nests as semiring contractions, lowered by variable elimination.

Proposition 6.3 makes sum-MATLANG equal to RA+_K: a nest of ``Sigma``
quantifiers is a sum, over every binding of its iterators, of a product of
matrix entries.  Run as a loop (or as lanes, see :mod:`repro.matlang.ir`),
the nest enumerates all ``n^k`` bindings; variable elimination sums one
iterator out at a time instead, each step one kernel call over matrices.
The compiler tries this lowering when no rule of
:mod:`repro.matlang.rewrites` fuses a ``sum`` loop, and keeps the loop when
the nest is outside the fragment below.

The nest is the maximal run of directly nested ``Sigma`` quantifiers (seen
through type hints, and including the paper's ``for v, X. X + e``
desugaring).  Its body must be a product (``scale``, or ``matmul`` of
``1 x 1`` values) of

* ``1 x 1`` *factors* over at most two nest iterators: ``x^T . M . y``
  where ``x`` and ``y`` are nest iterators or nest-free vectors and ``M`` is
  nest-free, ``x^T . y``, nest-free scalars such as constants, and ``+``,
  products and ``apply`` of factors;
* at most one *output selector*: ``u``, ``w^T`` or ``u . w^T`` for nest
  iterators ``u`` and ``w``, optionally between nest-free matrices
  (``L . u . w^T . R``), or a nest-free matrix.

Each factor becomes the matrix whose entry it is: ``x^T M y`` is ``M``
(transposed when ``y`` is the outer iterator), ``x^T y`` is ``I``, a scalar
``c`` is ``c . J``; a factor over one iterator is a vector (``x^T M x`` is
the diagonal of ``M``), and ``+``, products and ``apply`` become ``add``,
``hadamard`` and an entrywise ``apply`` over the union of their iterators.
The iterators that no selector keeps are then eliminated in the min-fill
order :func:`repro.matlang.cost.elimination_order` picks from the factor
graph: summing ``v`` out of the factors that mention it is a matrix-vector
or matrix-matrix product (a dot product for the last one).  A step whose
factors would span three iterators becomes a ``sum`` loop over one of them
instead (a *lane loop*), whose body is the rest of the elimination with that
iterator fixed.  What is left is multiplied into the selector's shape:
``T[u, w]``, a column, a row, ``diag`` of a vector for ``u . u^T``, or a
scalar scaling a nest-free matrix.

The lowering emits only existing opcodes (``matmul``, ``hadamard``,
``add``, ``scale``, ``transpose``, ``diag``, ``ones_type``,
``identity_sym``, ``apply`` and a ``sum`` loop), so every backend runs the
result unchanged and int64 overflow still raises in the kernels.  Every op
lands in the outermost plan frame its inputs allow, so matrices built from
loop-invariant parts are computed once.  Only distributivity and
commutativity are used: exact semirings agree bitwise with the tree-walk
whenever nothing leaves int64, and REAL within rounding.  Each lowered nest
adds one line to ``Plan.notes``: its iterators and output indices, the
lanes and elimination order, and the symbolic shape of the largest
intermediate.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.matlang.ast import Add, Apply, ForLoop, MatMul, ScalarMul, SumLoop, Transpose, Var
from repro.matlang.cost import elimination_order
from repro.matlang.ir import Plan
from repro.matlang.normalize import add_leaves, build_matmul_chain, matmul_leaves, strip_hints
from repro.matlang.rewrites import sum_quantifier_body
from repro.matlang.schema import SCALAR_SYMBOL
from repro.matlang.typecheck import TypedExpression

__all__ = ["lower_sum_nest"]

SCALAR = (SCALAR_SYMBOL, SCALAR_SYMBOL)


class _Decline(Exception):
    """The nest is outside the contraction fragment; the loop stays."""


# ----------------------------------------------------------------------
# The fragment: factors and the output selector
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Entry:
    """``x^T . M . y``: entry ``(x, y)`` of ``M``.

    ``row`` / ``col`` name the nest iterators ``x`` / ``y``, or are ``None``
    when that side is nest-free (and then part of ``matrix``); ``matrix`` is
    ``None`` for ``x^T . y``.
    """

    row: Optional[str]
    matrix: Optional[TypedExpression]
    col: Optional[str]

    @property
    def iterators(self) -> frozenset:
        return frozenset(name for name in (self.row, self.col) if name is not None)


@dataclass(frozen=True)
class _Const:
    """A nest-free ``1 x 1`` value."""

    value: TypedExpression
    iterators = frozenset()


@dataclass(frozen=True)
class _Combine:
    """``add``, ``hadamard`` (a product) or ``apply`` of factors."""

    opcode: str
    operands: Tuple[Any, ...]
    name: Optional[str] = None

    @property
    def iterators(self) -> frozenset:
        return frozenset().union(*(operand.iterators for operand in self.operands))


@dataclass
class _Output:
    """What the factors' product multiplies: ``left . T . right``.

    ``row`` / ``col`` are the nest iterators of the selector (``T`` has one
    row when ``row`` is ``None`` and one column when ``col`` is); ``left``
    and ``right`` are nest-free chains around it.  ``free`` is a nest-free
    matrix the scalar ``T`` scales instead.
    """

    row: Optional[str] = None
    col: Optional[str] = None
    left: Tuple[TypedExpression, ...] = ()
    right: Tuple[TypedExpression, ...] = ()
    free: Optional[TypedExpression] = None


def _iterator(typed: TypedExpression, names, transposed: bool = False) -> Optional[str]:
    """The nest iterator ``typed`` is (``v``, or ``v^T`` when ``transposed``)."""
    node = strip_hints(typed)
    if transposed:
        if not isinstance(node.expression, Transpose):
            return None
        node = strip_hints(node.children[0])
    if isinstance(node.expression, Var) and node.expression.name in names:
        return node.expression.name
    return None


def _segments(leaves: Sequence[TypedExpression]) -> List[List[TypedExpression]]:
    """Split a matmul chain wherever a ``1`` dimension joins two factors.

    Inside a chain of type ``r x c`` the first segment is ``r x 1``, the
    last ``1 x c`` and every other one ``1 x 1``: the chain is the product
    of the inner segments (scalars) and the outer product of the outer two.
    """
    segments = [[leaves[0]]]
    for previous, leaf in zip(leaves, leaves[1:]):
        if previous.type[1] == SCALAR_SYMBOL and leaf.type[0] == SCALAR_SYMBOL:
            segments.append([leaf])
        else:
            segments[-1].append(leaf)
    return segments


def _nest_free(leaves: Sequence[TypedExpression], names) -> bool:
    return not any(leaf.free_names & names for leaf in leaves)


def _parse_segment(leaves: List[TypedExpression], names):
    """A ``1 x 1`` chain segment as a factor."""
    if len(leaves) == 1:
        return _parse_factor(leaves[0], names)
    row = _iterator(leaves[0], names, transposed=True)
    col = _iterator(leaves[-1], names)
    middle = leaves[(row is not None) : len(leaves) - (col is not None)]
    if not _nest_free(middle, names):
        raise _Decline
    matrix = build_matmul_chain(middle) if middle else None
    if row is None and col is None:
        return _Const(matrix)
    return _Entry(row, matrix, col)


def _parse_factor(typed: TypedExpression, names):
    """A ``1 x 1`` expression as a factor (see the module docstring)."""
    node = strip_hints(typed)
    if not (node.free_names & names):
        return _Const(node)
    expression = node.expression
    if isinstance(expression, MatMul):
        parts = [_parse_segment(segment, names) for segment in _segments(matmul_leaves(node))]
        return parts[0] if len(parts) == 1 else _Combine("hadamard", tuple(parts))
    if isinstance(expression, ScalarMul):
        return _Combine("hadamard", tuple(_parse_factor(child, names) for child in node.children))
    if isinstance(expression, Add):
        return _Combine("add", tuple(_parse_factor(leaf, names) for leaf in add_leaves(node)))
    if isinstance(expression, Apply):
        if any(child.type != SCALAR for child in node.children):
            raise _Decline
        operands = tuple(_parse_factor(child, names) for child in node.children)
        return _Combine("apply", operands, expression.function)
    if isinstance(expression, Transpose):
        return _parse_factor(node.children[0], names)
    raise _Decline


def _products(factor) -> list:
    """The factors of a product, flattened: each is one factor-graph node."""
    if isinstance(factor, _Combine) and factor.opcode == "hadamard":
        return [leaf for operand in factor.operands for leaf in _products(operand)]
    return [factor]


def _parse_body(body: TypedExpression, names) -> Tuple[list, _Output]:
    """The body's factors (flattened products) and its output selector."""
    factors = []
    node = strip_hints(body)
    while isinstance(node.expression, ScalarMul):
        factor, operand = node.children
        factors.append(_parse_factor(factor, names))
        node = strip_hints(operand)
    if not (node.free_names & names):
        return factors, _Output(free=node)
    rows, cols = node.type
    if (rows, cols) == SCALAR:
        factors.append(_parse_factor(node, names))
        return factors, _Output()
    segments = _segments(matmul_leaves(node))
    if rows != SCALAR_SYMBOL and cols != SCALAR_SYMBOL and len(segments) < 2:
        raise _Decline
    output = _Output()
    if rows != SCALAR_SYMBOL:
        head = segments.pop(0)
        output.row = _iterator(head[-1], names)
        output.left = tuple(head[:-1] if output.row is not None else head)
    if cols != SCALAR_SYMBOL:
        tail = segments.pop()
        output.col = _iterator(tail[0], names, transposed=True)
        output.right = tuple(tail[1:] if output.col is not None else tail)
    if not _nest_free(output.left + output.right, names):
        raise _Decline
    factors.extend(_parse_segment(segment, names) for segment in segments)
    return factors, output


def _collect_nest(typed: TypedExpression, body: TypedExpression):
    """The nest's ``(iterator, symbol)`` pairs, outermost first, and its body."""
    iterators = [(typed.expression.iterator, typed.iterator_symbol)]
    while True:
        node = strip_hints(body)
        expression = node.expression
        if isinstance(expression, SumLoop):
            inner = node.children[0]
        elif isinstance(expression, ForLoop):
            inner = sum_quantifier_body(node)
            if inner is None:
                break
        else:
            break
        if any(expression.iterator == name for name, _ in iterators):
            raise _Decline  # a shadowed binder
        iterators.append((expression.iterator, node.iterator_symbol))
        body = inner
    if any(symbol is None or symbol == SCALAR_SYMBOL for _, symbol in iterators):
        raise _Decline
    return iterators, body


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------
#: A value of the contraction: a register of a compiler frame and its type.
_Value = namedtuple("_Value", "frame register type")
#: A factor-graph node: a value over ``scope``, the nest iterators indexing
#: its rows and columns (in nest order; a vector has one, a scalar none).
_Node = namedtuple("_Node", "value scope")


def _depth(frame) -> int:
    depth = 0
    while frame.parent is not None:
        frame, depth = frame.parent, depth + 1
    return depth


class _Emitter:
    """Emits the contraction's ops, each into the outermost frame it can.

    Values are resolved through ``capture`` ops to the frame that computes
    them, an op goes to the innermost frame among its inputs (the root for
    input-less ones), and inputs from outer frames are captured in.  Ops
    are hash-consed per frame, and ``transpose`` of a transpose is its
    operand.
    """

    def __init__(self, context, symbols: Dict[str, str]) -> None:
        self.base = context.frame
        self.context = context
        self.symbols = symbols
        self.root = self.base
        while self.root.parent is not None:
            self.root = self.root.parent
        #: Lane frames -> the symbol of their iterator.
        self.lanes: Dict[Any, str] = {}
        #: ``(lane symbols, type)`` of the largest value emitted so far.
        self.largest: Tuple[Tuple[str, ...], Tuple[str, str]] = ((), SCALAR)

    # -- values --------------------------------------------------------
    def resolve(self, value: _Value) -> _Value:
        frame, register = value.frame, value.register
        op = frame.ops[register]
        while op.opcode == "capture":
            frame, register = frame.parent, frame.captures[op.value]
            op = frame.ops[register]
        return _Value(frame, register, value.type)

    def into(self, value: _Value, frame) -> int:
        """``value``'s register in ``frame`` (which it must enclose)."""
        if value.frame is frame:
            return value.register
        return frame.capture(self.into(value, frame.parent), type=value.type)

    def lower(self, typed: TypedExpression) -> _Value:
        """A nest-free sub-expression, through the compiler's own lowering."""
        register = self.context.lower(typed)
        return self.resolve(_Value(self.base, register, typed.type))

    def emit(self, opcode: str, inputs: Sequence[_Value], type, frame=None, **params) -> _Value:
        inputs = [self.resolve(value) for value in inputs]
        if frame is None:
            frame = max((value.frame for value in inputs), key=_depth, default=self.root)
        registers = tuple(self.into(value, frame) for value in inputs)
        key = ("__contract__", opcode, registers, type, tuple(sorted(params.items())))
        register = frame.cse.get(key)
        if register is None:
            register = frame.emit(opcode, registers, type=type, **params)
            frame.cse[key] = register
        self._measure(frame, type)
        return _Value(frame, register, type)

    def _measure(self, frame, type) -> None:
        lanes = []
        while frame is not None:
            if frame in self.lanes:
                lanes.append(self.lanes[frame])
            frame = frame.parent
        shape = (tuple(reversed(lanes)), type)
        if _rank(shape) > _rank(self.largest):
            self.largest = shape

    # -- constructors ----------------------------------------------------
    def ones(self, rows: str, cols: str) -> _Value:
        return self.emit("ones_type", (), (rows, cols))

    def identity(self, name: str) -> _Value:
        symbol = self.symbols[name]
        return self.emit("identity_sym", (), (symbol, symbol), symbol=symbol)

    def transpose(self, value: _Value) -> _Value:
        value = self.resolve(value)
        op = value.frame.ops[value.register]
        flipped = (value.type[1], value.type[0])
        if op.opcode == "transpose":
            return _Value(value.frame, op.inputs[0], flipped)
        return self.emit("transpose", (value,), flipped)

    def matmul(self, left: _Value, right: _Value) -> _Value:
        return self.emit("matmul", (left, right), (left.type[0], right.type[1]))

    def fold(self, opcode: str, values: Sequence[_Value]) -> _Value:
        total = values[0]
        for value in values[1:]:
            total = self.emit(opcode, (total, value), total.type)
        return total

    def scale(self, factor: _Value, value: _Value) -> _Value:
        return self.emit("scale", (factor, value), value.type)

    # -- factor-graph nodes ----------------------------------------------
    def shape(self, scope: Tuple[str, ...]) -> Tuple[str, str]:
        if not scope:
            return SCALAR
        if len(scope) == 1:
            return (self.symbols[scope[0]], SCALAR_SYMBOL)
        return (self.symbols[scope[0]], self.symbols[scope[1]])

    def oriented(self, node: _Node, scope: Tuple[str, ...]) -> _Value:
        """``node``'s matrix indexed by ``scope`` (its own scope, maybe flipped)."""
        return node.value if node.scope == scope else self.transpose(node.value)

    def broadcast(self, node: _Node, scope: Tuple[str, ...]) -> _Value:
        """``node``'s value repeated over the iterators of ``scope`` it lacks."""
        if node.scope == scope:
            return node.value
        if not node.scope:
            return self.scale(node.value, self.ones(*self.shape(scope)))
        first, second = scope
        if node.scope == (first,):
            return self.matmul(node.value, self.ones(SCALAR_SYMBOL, self.symbols[second]))
        return self.matmul(self.ones(self.symbols[first], SCALAR_SYMBOL), self.transpose(node.value))


def _rank(shape) -> int:
    lanes, type = shape
    return len(lanes) + sum(symbol != SCALAR_SYMBOL for symbol in type)


def _describe(shape) -> str:
    lanes, type = shape
    symbols = list(lanes) + [symbol for symbol in type if symbol != SCALAR_SYMBOL]
    return " x ".join(symbols) if symbols else "1 x 1"


class _Contraction:
    """One nest being lowered: its order, factors and output."""

    def __init__(self, emitter: _Emitter, order: Dict[str, int]) -> None:
        self.emitter = emitter
        self.order = order

    def scope(self, names) -> Tuple[str, ...]:
        return tuple(sorted(names, key=self.order.__getitem__))

    # -- factors -----------------------------------------------------------
    def node(self, factor) -> _Node:
        """The matrix (vector, scalar) whose entries ``factor`` takes."""
        emit = self.emitter
        if isinstance(factor, _Const):
            return _Node(emit.lower(factor.value), ())
        if isinstance(factor, _Entry):
            row, col = factor.row, factor.col
            if row is not None and col is not None:
                if row == col:
                    if factor.matrix is None:
                        return _Node(emit.ones(*SCALAR), ())  # v^T v = 1
                    diagonal = emit.fold("hadamard", (emit.lower(factor.matrix), emit.identity(row)))
                    ones = emit.ones(emit.symbols[row], SCALAR_SYMBOL)
                    return _Node(emit.matmul(diagonal, ones), (row,))
                if factor.matrix is None:
                    value = emit.identity(row)
                else:
                    value = emit.lower(factor.matrix)
                if self.order[col] < self.order[row]:
                    return _Node(emit.transpose(value), (col, row))
                return _Node(value, (row, col))
            if row is not None:
                return _Node(emit.lower(factor.matrix), (row,))
            return _Node(emit.transpose(emit.lower(factor.matrix)), (col,))
        nodes = [self.node(operand) for operand in factor.operands]
        scope = self.scope(frozenset().union(*(node.scope for node in nodes)))
        if factor.opcode == "hadamard":
            # Scalars scale the product of the rest instead of being spread.
            scalars = [node.value for node in nodes if not node.scope]
            tensors = [emit.broadcast(node, scope) for node in nodes if node.scope]
            if not tensors:
                return _Node(emit.fold("hadamard", scalars), scope)
            value = emit.fold("hadamard", tensors)
            if scalars:
                value = emit.scale(emit.fold("hadamard", scalars), value)
            return _Node(value, scope)
        values = [emit.broadcast(node, scope) for node in nodes]
        if factor.opcode == "apply":
            return _Node(emit.emit("apply", values, values[0].type, name=factor.name), scope)
        return _Node(emit.fold("add", values), scope)

    def merge(self, nodes: List[_Node]) -> List[_Node]:
        """One node per scope: the product of the nodes that share it."""
        groups: Dict[Tuple[str, ...], List[_Value]] = {}
        for node in nodes:
            groups.setdefault(node.scope, []).append(node.value)
        return [_Node(self.emitter.fold("hadamard", values), scope) for scope, values in groups.items()]

    # -- elimination -------------------------------------------------------
    def eliminate(self, nodes: List[_Node], name: str) -> List[_Node]:
        """Sum ``name`` out of the nodes that mention it."""
        emit = self.emitter
        symbol = emit.symbols[name]
        gathered = [node for node in nodes if name in node.scope]
        rest = [node for node in nodes if name not in node.scope]
        scope = self.scope({other for node in gathered for other in node.scope} - {name})
        vectors = [node.value for node in gathered if node.scope == (name,)]
        if not scope:
            if len(vectors) == 1:
                value = emit.matmul(emit.ones(SCALAR_SYMBOL, symbol), vectors[0])
            else:
                value = emit.matmul(emit.transpose(emit.fold("hadamard", vectors[:-1])), vectors[-1])
            return rest + [_Node(value, ())]
        first = scope[0]
        left = emit.fold(
            "hadamard",
            [emit.oriented(node, (first, name)) for node in gathered if set(node.scope) == {first, name}],
        )
        if len(scope) == 1:
            vector = emit.fold("hadamard", vectors) if vectors else emit.ones(symbol, SCALAR_SYMBOL)
            return rest + [_Node(emit.matmul(left, vector), scope)]
        second = scope[1]
        right = emit.fold(
            "hadamard",
            [emit.oriented(node, (name, second)) for node in gathered if set(node.scope) == {name, second}],
        )
        if vectors:
            spread = emit.matmul(emit.fold("hadamard", vectors), emit.ones(SCALAR_SYMBOL, emit.symbols[second]))
            right = emit.fold("hadamard", (right, spread))
        return rest + [_Node(emit.matmul(left, right), scope)]

    def fix(self, nodes: List[_Node], name: str, iterator: _Value) -> List[_Node]:
        """The nodes with ``name`` bound to the lane loop's ``iterator``."""
        emit = self.emitter
        fixed = []
        for node in nodes:
            if name not in node.scope:
                fixed.append(node)
            elif node.scope == (name,):
                fixed.append(_Node(emit.matmul(emit.transpose(iterator), node.value), ()))
            else:
                (other,) = [each for each in node.scope if each != name]
                fixed.append(_Node(emit.matmul(emit.oriented(node, (other, name)), iterator), (other,)))
        return fixed

    # -- the output ----------------------------------------------------------
    def combine(self, nodes: List[_Node], output: _Output) -> Optional[_Value]:
        """``T``: the remaining nodes multiplied over the output iterators.

        ``None`` stands for all ones (no node left to multiply).
        """
        emit = self.emitter
        scalars = [node.value for node in nodes if not node.scope]
        kept = self.scope({name for name in (output.row, output.col) if name is not None})
        parts = []
        if len(kept) == 2:
            first, second = kept
            parts = [emit.oriented(node, kept) for node in nodes if len(node.scope) == 2]
            columns = [node.value for node in nodes if node.scope == (first,)]
            rows = [node.value for node in nodes if node.scope == (second,)]
            if columns or rows:
                column = emit.fold("hadamard", columns) if columns else emit.ones(*emit.shape((first,)))
                row = emit.fold("hadamard", rows) if rows else emit.ones(*emit.shape((second,)))
                parts.append(emit.matmul(column, emit.transpose(row)))
        elif kept:
            parts = [node.value for node in nodes if node.scope]
        total = emit.fold("hadamard", parts) if parts else None
        if scalars:
            scalar = emit.fold("hadamard", scalars)
            if total is None:
                total = scalar if not kept else emit.scale(scalar, emit.ones(*emit.shape(kept)))
            else:
                total = emit.scale(scalar, total)
        return total

    def finish(self, total: Optional[_Value], output: _Output) -> _Value:
        """``left . T . right`` in the selector's orientation."""
        emit = self.emitter
        row, col = output.row, output.col
        if output.free is not None:
            free = emit.lower(output.free)
            return free if total is None else emit.scale(total, free)
        if row is not None and row == col:
            if total is None:
                # Sum of the selectors u.u^T: the identity drops out.
                chain = [emit.lower(build_matmul_chain(list(side))) for side in (output.left, output.right) if side]
                if not chain:
                    return emit.identity(row)
                return chain[0] if len(chain) == 1 else emit.matmul(*chain)
            value = emit.emit("diag", (total,), (total.type[0], total.type[0]))
        else:
            rows = emit.symbols[row] if row is not None else SCALAR_SYMBOL
            cols = emit.symbols[col] if col is not None else SCALAR_SYMBOL
            if total is None:
                value = emit.ones(rows, cols)
            elif row is not None and col is not None:
                value = emit.oriented(_Node(total, self.scope({row, col})), (row, col))
            elif col is not None:
                value = emit.transpose(total)
            else:
                value = total
        if output.left:
            value = emit.matmul(emit.lower(build_matmul_chain(list(output.left))), value)
        if output.right:
            value = emit.matmul(value, emit.lower(build_matmul_chain(list(output.right))))
        return value


def lower_sum_nest(typed: TypedExpression, body: TypedExpression, context) -> Optional[int]:
    """Lower the ``Sigma`` nest rooted at ``typed`` as a contraction.

    ``body`` is the outermost quantifier's body and ``context`` the
    compiler's rule context (``frame``, ``lower``, ``child_frame``).
    Returns the result register in ``context.frame``, or ``None`` when the
    nest is outside the fragment (nothing is emitted then).
    """
    try:
        iterators, body = _collect_nest(typed, body)
        names = frozenset(name for name, _ in iterators)
        factors, output = _parse_body(body, names)
        factors = [leaf for factor in factors for leaf in _products(factor)]
        if any(len(factor.iterators) > 2 for factor in factors):
            raise _Decline
    except _Decline:
        return None

    symbols = dict(iterators)
    order = {name: index for index, (name, _) in enumerate(iterators)}
    kept = frozenset(name for name in (output.row, output.col) if name is not None)

    frame = context.frame
    emitter = _Emitter(context, symbols)
    contraction = _Contraction(emitter, order)
    nodes = contraction.merge([contraction.node(factor) for factor in factors])
    # An iterator no node is indexed by multiplies the sum by its dimension.
    indexed = kept.union(*(node.scope for node in nodes))
    nodes += [
        _Node(emitter.ones(symbols[name], SCALAR_SYMBOL), (name,))
        for name in order
        if name not in indexed
    ]
    steps = elimination_order(list(order), [frozenset(node.scope) for node in nodes], kept)

    lanes: List[Tuple[Any, str]] = []
    inner = frame
    for action, name in steps:
        if action == "eliminate":
            nodes = contraction.eliminate(nodes, name)
            continue
        inner = context.child_frame(inner, name)
        emitter.lanes[inner] = symbols[name]
        lanes.append((inner, name))
        iterator = emitter.emit("iterator", (), (symbols[name], SCALAR_SYMBOL), frame=inner)
        nodes = contraction.fix(nodes, name, iterator)

    total = contraction.combine(nodes, output)
    for child, name in reversed(lanes):
        result = emitter.into(emitter.resolve(total), child)
        loop = Plan(tuple(child.ops), result, pinned=tuple(child.pinned))
        register = child.parent.emit(
            "loop",
            (),
            kind="sum",
            symbol=symbols[name],
            body=loop,
            captures=tuple(child.captures),
            type=total.type,
        )
        total = _Value(child.parent, register, total.type)

    result = contraction.finish(total, output)
    register = emitter.into(emitter.resolve(result), frame)

    eliminated = [name for action, name in steps if action == "eliminate"]
    parts = [f"contract: Sigma over ({', '.join(order)}) -> ({', '.join(contraction.scope(kept))})"]
    if lanes:
        parts.append(f"lane loop over {', '.join(name for _, name in lanes)}")
    parts.append(f"eliminate {', '.join(eliminated) if eliminated else 'nothing'}")
    parts.append(f"largest intermediate {_describe(emitter.largest)}")
    frame.notes.append("; ".join(parts))
    return register
