"""Abstract syntax of MATLANG and for-MATLANG expressions.

The grammar follows Sections 2 and 3 of the paper:

``e ::= V | e^T | 1(e) | diag(e) | e1 . e2 | e1 + e2 | e1 x e2 |
        f(e1, ..., ek) | for v, X (= e0). e``

together with the three quantifier sugars of Section 6 which are kept as
first-class nodes so the fragment classifier can recognise sum-MATLANG,
FO-MATLANG and prod-MATLANG syntactically:

* ``Sigma v. e``          (:class:`SumLoop`)      -- ``for v, X. X + e``
* ``Pi-hadamard v. e``    (:class:`HadamardLoop`) -- ``for v, X = 1. X o e``
* ``Pi v. e``             (:class:`ProductLoop`)  -- ``for v, X = I. X . e``

Every node is an immutable dataclass with structural equality and hashing,
which the compilers to circuits and relational algebra rely on.  Builders plug
one sub-expression object into several places, so an expression is a DAG whose
tree can be far larger (Csanky's inverse is 469 node objects but a tree of
23,697 nodes); each node that can branch therefore computes its structural hash
once and keeps it (see :func:`_branching`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple


@dataclass(frozen=True)
class Expression:
    """Base class of all MATLANG / for-MATLANG expression nodes."""

    #: The structural hash once computed (see :func:`_branching`); not a field.
    _hash = None

    def __getstate__(self):
        # The fields only: string hashes are salted per process, so a copy
        # or an unpickled node computes its own hash.
        state = self.__dict__
        if "_hash" in state:
            state = {name: value for name, value in state.items() if name != "_hash"}
        return state

    def children(self) -> Tuple["Expression", ...]:
        """The immediate sub-expressions of this node."""
        return ()

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------
    def walk(self) -> Iterator["Expression"]:
        """Yield this node and all its descendants in pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def free_variables(self) -> Tuple[str, ...]:
        """Names of matrix variables that occur free in the expression.

        Loop iterators and accumulators are bound by their loop and do not
        count as free below it.
        """
        return tuple(sorted(self._free_variables(frozenset())))

    def bound_variables(self) -> Tuple[str, ...]:
        """Names of all iterator / accumulator variables bound anywhere."""
        bound = set()
        for node in self.walk():
            if isinstance(node, ForLoop):
                bound.add(node.iterator)
                bound.add(node.accumulator)
            elif isinstance(node, (SumLoop, HadamardLoop, ProductLoop)):
                bound.add(node.iterator)
        return tuple(sorted(bound))

    def _free_variables(self, bound: frozenset[str]) -> set[str]:
        names: set[str] = set()
        for child in self.children():
            names |= child._free_variables(bound)
        return names

    def size(self) -> int:
        """Number of AST nodes in the expression."""
        return sum(1 for _ in self.walk())

    def substitute(self, name: str, replacement: "Expression") -> "Expression":
        """Return a copy with free occurrences of variable ``name`` replaced.

        Substitution does not descend below a binder for ``name``; this is the
        operation written ``e(v, X / e0)`` in Section 3.2 of the paper.
        """
        return self._substitute(name, replacement, frozenset())

    def _substitute(
        self, name: str, replacement: "Expression", bound: frozenset[str]
    ) -> "Expression":
        raise NotImplementedError  # pragma: no cover - overridden by every node

    # ------------------------------------------------------------------
    # Builder-style operator sugar
    # ------------------------------------------------------------------
    def __add__(self, other: "Expression") -> "Expression":
        return Add(self, _as_expression(other))

    def __radd__(self, other: "Expression") -> "Expression":
        return Add(_as_expression(other), self)

    def __matmul__(self, other: "Expression") -> "Expression":
        return MatMul(self, _as_expression(other))

    def __rmatmul__(self, other: "Expression") -> "Expression":
        return MatMul(_as_expression(other), self)

    def __mul__(self, other: "Expression") -> "Expression":
        """``a * e`` builds a scalar multiplication (``a`` must be ``1 x 1``)."""
        return ScalarMul(self, _as_expression(other))

    def __rmul__(self, other) -> "Expression":
        return ScalarMul(_as_expression(other), self)

    @property
    def T(self) -> "Expression":
        """Transpose, mirroring the numpy attribute for readability."""
        return Transpose(self)

    def __str__(self) -> str:
        from repro.matlang.printer import to_text

        return to_text(self)


def _branching(cls):
    """Make ``cls``, a node that can have two children or more, a frozen
    dataclass whose structural hash is cached.

    The dataclass hash recurses into the children, so hashing a DAG without
    a cache walks its whole tree, and every sub-expression hashed again (as
    lowering's CSE does) walks its own.  Caching the hash at every node that
    can branch bounds each hash by a chain of single-child nodes, which
    hash their child's hash, down to a leaf or a cached node; nodes that
    cannot branch keep no cache and no extra int.  The cached value is the
    dataclass hash itself, kept in the ``_hash`` attribute, which is not a
    field: equality, ``repr``, ``dataclasses.replace``, copies and pickles
    see only the fields.
    """
    cls = dataclass(frozen=True)(cls)
    structural_hash = cls.__hash__

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = structural_hash(self)
            object.__setattr__(self, "_hash", value)
        return value

    cls.__hash__ = __hash__
    return cls


def _as_expression(value) -> Expression:
    """Coerce numbers to :class:`Literal` so builder arithmetic reads naturally."""
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float)):
        return Literal(float(value))
    raise TypeError(f"cannot interpret {value!r} as a MATLANG expression")


# ----------------------------------------------------------------------
# Leaves
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Var(Expression):
    """A matrix variable ``V``."""

    name: str

    def _free_variables(self, bound: frozenset[str]) -> set[str]:
        return set() if self.name in bound else {self.name}

    def _substitute(self, name, replacement, bound):
        if self.name == name and name not in bound:
            return replacement
        return self


@dataclass(frozen=True)
class Literal(Expression):
    """A ``1 x 1`` constant.

    The paper treats constants as nullary pointwise functions; a dedicated
    node keeps expressions readable.  The stored value is coerced into the
    evaluation semiring at run time.
    """

    value: float

    def _substitute(self, name, replacement, bound):
        return self


# ----------------------------------------------------------------------
# Unary operators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Transpose(Expression):
    """Matrix transposition ``e^T``."""

    operand: Expression

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,)

    def _substitute(self, name, replacement, bound):
        return Transpose(self.operand._substitute(name, replacement, bound))


@dataclass(frozen=True)
class OneVector(Expression):
    """The ones-vector operator ``1(e)``: an ``alpha x 1`` vector of ones."""

    operand: Expression

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,)

    def _substitute(self, name, replacement, bound):
        return OneVector(self.operand._substitute(name, replacement, bound))


@dataclass(frozen=True)
class Diag(Expression):
    """Diagonalisation ``diag(e)`` of a column vector ``e``."""

    operand: Expression

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,)

    def _substitute(self, name, replacement, bound):
        return Diag(self.operand._substitute(name, replacement, bound))


@dataclass(frozen=True)
class TypeHint(Expression):
    """A semantically transparent type annotation ``(e : row x col)``.

    The hint unifies the type of ``e`` with the given size symbols during type
    inference and is the identity during evaluation.  It is the library's
    counterpart of the paper's convention of fixing variable types in the
    schema, and is what anchors otherwise type-ambiguous expressions such as
    ``e_max = for v, X. v`` to a concrete dimension.
    """

    operand: Expression
    row: Optional[str] = None
    col: Optional[str] = None

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,)

    def _substitute(self, name, replacement, bound):
        return TypeHint(self.operand._substitute(name, replacement, bound), self.row, self.col)


# ----------------------------------------------------------------------
# Binary operators
# ----------------------------------------------------------------------
@_branching
class MatMul(Expression):
    """Matrix multiplication ``e1 . e2``."""

    left: Expression
    right: Expression

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def _substitute(self, name, replacement, bound):
        return MatMul(
            self.left._substitute(name, replacement, bound),
            self.right._substitute(name, replacement, bound),
        )


@_branching
class Add(Expression):
    """Entrywise matrix addition ``e1 + e2``."""

    left: Expression
    right: Expression

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def _substitute(self, name, replacement, bound):
        return Add(
            self.left._substitute(name, replacement, bound),
            self.right._substitute(name, replacement, bound),
        )


@_branching
class ScalarMul(Expression):
    """Scalar multiplication ``e1 x e2`` where ``e1`` has type ``(1, 1)``."""

    scalar: Expression
    operand: Expression

    def children(self) -> Tuple[Expression, ...]:
        return (self.scalar, self.operand)

    def _substitute(self, name, replacement, bound):
        return ScalarMul(
            self.scalar._substitute(name, replacement, bound),
            self.operand._substitute(name, replacement, bound),
        )


@_branching
class Apply(Expression):
    """Pointwise application ``f(e1, ..., ek)`` of a function from the library."""

    function: str
    operands: Tuple[Expression, ...]

    def __init__(self, function: str, operands) -> None:
        object.__setattr__(self, "function", function)
        object.__setattr__(self, "operands", tuple(operands))

    def children(self) -> Tuple[Expression, ...]:
        return self.operands

    def _substitute(self, name, replacement, bound):
        return Apply(
            self.function,
            tuple(op._substitute(name, replacement, bound) for op in self.operands),
        )


# ----------------------------------------------------------------------
# Loops and quantifiers
# ----------------------------------------------------------------------
@_branching
class ForLoop(Expression):
    """The canonical for-loop ``for v, X (= init). body``.

    The iterator ``v`` ranges over the canonical vectors ``b_1, ..., b_n`` of
    the dimension assigned to its row symbol; the accumulator ``X`` starts at
    the zero matrix (or at ``init`` when given) and is replaced by the value of
    ``body`` after every iteration.
    """

    iterator: str
    accumulator: str
    body: Expression
    init: Optional[Expression] = None

    def children(self) -> Tuple[Expression, ...]:
        if self.init is None:
            return (self.body,)
        return (self.init, self.body)

    def _free_variables(self, bound: frozenset[str]) -> set[str]:
        names: set[str] = set()
        if self.init is not None:
            names |= self.init._free_variables(bound)
        inner_bound = bound | {self.iterator, self.accumulator}
        names |= self.body._free_variables(inner_bound)
        return names

    def _substitute(self, name, replacement, bound):
        new_init = None
        if self.init is not None:
            new_init = self.init._substitute(name, replacement, bound)
        inner_bound = bound | {self.iterator, self.accumulator}
        new_body = self.body._substitute(name, replacement, inner_bound)
        return ForLoop(self.iterator, self.accumulator, new_body, new_init)


@dataclass(frozen=True)
class _Quantifier(Expression):
    """Shared behaviour of the Sigma / Hadamard-Pi / Pi quantifiers."""

    iterator: str
    body: Expression

    def children(self) -> Tuple[Expression, ...]:
        return (self.body,)

    def _free_variables(self, bound: frozenset[str]) -> set[str]:
        return self.body._free_variables(bound | {self.iterator})

    def _substitute(self, name, replacement, bound):
        new_body = self.body._substitute(name, replacement, bound | {self.iterator})
        return type(self)(self.iterator, new_body)


@dataclass(frozen=True)
class SumLoop(_Quantifier):
    """The Sigma quantifier ``Sigma v. e`` = ``for v, X. X + e`` (sum-MATLANG)."""


@dataclass(frozen=True)
class HadamardLoop(_Quantifier):
    """The Hadamard-product quantifier ``Pi-o v. e`` (FO-MATLANG).

    Equal to ``for v, X = 1. X o e`` where ``1`` is the all-ones matrix of the
    type of ``e`` and ``o`` is the entrywise (Hadamard) product.
    """


@dataclass(frozen=True)
class ProductLoop(_Quantifier):
    """The matrix-product quantifier ``Pi v. e`` (prod-MATLANG).

    Equal to ``for v, X = I. X . e`` where ``I`` is the identity matrix; the
    body must therefore be square (or ``1 x 1``).
    """
