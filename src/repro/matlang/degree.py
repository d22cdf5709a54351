"""Degree analysis for for-MATLANG expressions.

Section 5.2 defines the *degree* of a for-MATLANG expression as the smallest
degree of an equivalent arithmetic-circuit family, and Proposition 5.5 shows
that deciding whether an expression has polynomial degree is undecidable.
Two complementary, decidable tools are therefore provided:

* :func:`analyse_degree` — a conservative syntactic analysis.  It tracks, for
  every loop, how the degree of the accumulator grows per iteration, as the
  largest of a few affine bounds in the degrees of every accumulator in
  scope: an inner loop passes on how it uses the enclosing accumulators, and
  a ``Pi`` / ``Pi-o`` quantifier multiplies its body's use of them by ``n``.
  When no loop multiplies its accumulator's degree (by a constant above 1 or
  by a factor that grows with ``n``) or feeds it through an unbounded
  pointwise function, the expression is certified to have polynomial degree;
  this criterion covers all of sum-MATLANG (Proposition 6.1), FO-MATLANG,
  prod-MATLANG and Csanky's algorithm (Section 4).  The analysis may report
  ``certified_polynomial = False`` for expressions that happen to be
  polynomial — that is the unavoidable price of Proposition 5.5.
* :func:`circuit_degree_for_dimension` — the exact degree for one concrete
  dimension ``n``, obtained by compiling the expression to an arithmetic
  circuit (Theorem 5.3) and reading off the circuit degree.  Evaluating it for
  a sweep of ``n`` values exposes growth behaviour empirically, e.g. the
  doubly-exponential ``e_exp = for v, X = A. X . X`` of Section 5.2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, Mapping, Optional, Tuple, Union

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

#: Pointwise functions through which degree analysis can track growth:
#: ``mul`` multiplies degrees, the others keep the maximum of their arguments.
_MULTIPLICATIVE_FUNCTIONS = frozenset({"mul", "square"})
_DEGREE_PRESERVING_FUNCTIONS = frozenset({"add", "sub", "neg", "min", "max", "abs"})


#: Coefficient standing for a multiple of the dimension ``n``: a loop whose
#: accumulator degree is multiplied by it grows super-polynomially.
GROWS_WITH_N = math.inf


@dataclass(frozen=True)
class LoopGrowth:
    """Per-iteration growth of a loop accumulator's degree.

    After one iteration the accumulator degree ``d`` becomes at most
    ``multiplier * d + increment``.  ``multiplier <= 1`` means the degree grows
    by at most an additive constant per iteration, hence stays polynomial in
    the dimension ``n``; :data:`GROWS_WITH_N` means the factor grows with
    ``n``.
    """

    iterator: str
    accumulator: Optional[str]
    multiplier: Union[int, float]
    increment: int

    @property
    def is_polynomial(self) -> bool:
        return self.multiplier <= 1


@dataclass(frozen=True)
class DegreeReport:
    """Result of the syntactic degree analysis."""

    certified_polynomial: bool
    loops: Tuple[LoopGrowth, ...]
    opaque_functions: Tuple[str, ...]
    base_degree: int

    def explain(self) -> str:
        """A human-readable summary of why the certificate holds or fails."""
        if self.certified_polynomial:
            return (
                "every loop grows its accumulator degree by at most an additive "
                f"constant per iteration (base degree {self.base_degree})"
            )
        reasons = []
        for loop in self.loops:
            if not loop.is_polynomial:
                factor = (
                    "a factor that grows with n"
                    if loop.multiplier == GROWS_WITH_N
                    else loop.multiplier
                )
                reasons.append(
                    f"loop over {loop.iterator!r} multiplies the degree of its "
                    f"accumulator by {factor} each iteration"
                )
        for function in self.opaque_functions:
            reasons.append(f"pointwise function {function!r} is not degree-tracked")
        return "; ".join(reasons) if reasons else "no certificate produced"


#: One affine bound ``constant + sum_X k_X * deg(X)``, keyed by its sorted
#: nonzero ``(X, k_X)`` pairs over the for-loop accumulators ``X`` in scope.
_Coefficients = Tuple[Tuple[str, Union[int, float]], ...]


def _combined(
    left: _Coefficients, right: _Coefficients, join: Callable[[Any, Any], Any]
) -> _Coefficients:
    merged = dict(left)
    for name, coefficient in right:
        merged[name] = join(merged.get(name, 0), coefficient)
    return tuple(sorted(merged.items()))


def _repeated(term: _Coefficients, dropped: Optional[str] = None) -> _Coefficients:
    """``term`` added up ``n`` times: each coefficient grows with ``n``.

    ``dropped`` (a loop's own accumulator, consumed by the loop) is removed.
    """
    return tuple((name, GROWS_WITH_N) for name, _ in term if name != dropped)


@dataclass(frozen=True)
class _Degree:
    """Symbolic degree: the largest of a few affine bounds (*terms*).

    ``terms`` maps each term's coefficients to its constant.  The terms of a
    sum stay apart, so ``for w, Y. Y + e`` (a sum in disguise) keeps ``e``'s
    degree instead of adding it ``n`` times; a coefficient may be
    :data:`GROWS_WITH_N`.
    """

    terms: Mapping[_Coefficients, int]

    @property
    def constant(self) -> int:
        return max(self.terms.values())

    def coefficient(self, accumulator: str) -> Union[int, float]:
        return max(dict(term).get(accumulator, 0) for term in self.terms)

    @property
    def reads_accumulator(self) -> bool:
        return any(self.terms)

    def combine_max(self, other: "_Degree") -> "_Degree":
        terms = dict(self.terms)
        for term, constant in other.terms.items():
            terms[term] = max(terms.get(term, constant), constant)
        return _Degree.of(terms)

    def combine_sum(self, other: "_Degree") -> "_Degree":
        # deg(e1 . e2) = deg(e1) + deg(e2); the cross term between two
        # accumulator occurrences is what makes X . X super-polynomial, which
        # we track by adding the coefficients.
        terms: dict = {}
        for left, left_constant in self.terms.items():
            for right, right_constant in other.terms.items():
                term = _combined(left, right, operator.add)
                constant = left_constant + right_constant
                terms[term] = max(terms.get(term, constant), constant)
        return _Degree.of(terms)

    def repeated(self) -> "_Degree":
        """``n`` chained copies, as the additive part of their degree."""
        return _Degree.of({_repeated(term): constant for term, constant in self.terms.items()})

    @staticmethod
    def of(terms: Mapping[_Coefficients, int]) -> "_Degree":
        """The degree of ``terms`` without the terms another one dominates."""

        def dominates(term: _Coefficients, other: _Coefficients) -> bool:
            return term != other and terms[term] >= terms[other] and (
                _combined(term, other, max) == term
            )

        return _Degree(
            {
                other: constant
                for other, constant in terms.items()
                if not any(dominates(term, other) for term in terms)
            }
        )


def _constant(value: int) -> _Degree:
    return _Degree({(): value})


def analyse_degree(expression: Expression) -> DegreeReport:
    """Run the conservative syntactic degree analysis on ``expression``."""
    loops: list[LoopGrowth] = []
    opaque: set[str] = set()
    degree = _analyse(expression, frozenset(), loops=loops, opaque=opaque)
    certified = not opaque and all(loop.is_polynomial for loop in loops)
    return DegreeReport(
        certified_polynomial=certified,
        loops=tuple(loops),
        opaque_functions=tuple(sorted(opaque)),
        base_degree=degree.constant,
    )


def is_certified_polynomial_degree(expression: Expression) -> bool:
    """Whether the syntactic analysis certifies polynomial degree."""
    return analyse_degree(expression).certified_polynomial


def _analyse(
    expression: Expression,
    accumulators: FrozenSet[str],
    loops: list,
    opaque: set,
) -> _Degree:
    if isinstance(expression, Var):
        if expression.name in accumulators:
            return _Degree({((expression.name, 1),): 0})
        return _constant(1)

    if isinstance(expression, Literal):
        return _constant(0)

    if isinstance(expression, (Transpose, OneVector, Diag, TypeHint)):
        child = expression.children()[0] if expression.children() else None
        if child is None:
            return _constant(0)
        inner = _analyse(child, accumulators, loops, opaque)
        if isinstance(expression, OneVector):
            return _constant(0)
        return inner

    if isinstance(expression, Add):
        left = _analyse(expression.left, accumulators, loops, opaque)
        right = _analyse(expression.right, accumulators, loops, opaque)
        return left.combine_max(right)

    if isinstance(expression, (MatMul, ScalarMul)):
        children = expression.children()
        left = _analyse(children[0], accumulators, loops, opaque)
        right = _analyse(children[1], accumulators, loops, opaque)
        return left.combine_sum(right)

    if isinstance(expression, Apply):
        operands = [_analyse(op, accumulators, loops, opaque) for op in expression.operands]
        if expression.function in _MULTIPLICATIVE_FUNCTIONS:
            total = _constant(0)
            for operand in operands:
                total = total.combine_sum(operand)
            if expression.function == "square":
                total = total.combine_sum(total)
            return total
        if expression.function in _DEGREE_PRESERVING_FUNCTIONS:
            total = _constant(0)
            for operand in operands:
                total = total.combine_max(operand)
            return total
        # Division and unknown functions are handled conservatively: they do
        # not break polynomiality of the *numerator/denominator degrees*
        # (Corollary 5.6), but we cannot bound composition through them, so we
        # record them as opaque unless the operands are accumulator-free.
        total = _constant(0)
        for operand in operands:
            total = total.combine_max(operand)
        if total.reads_accumulator:
            opaque.add(expression.function)
        return total

    # A loop's iterator shadows an accumulator of the same name in its body.
    if isinstance(expression, SumLoop):
        body = _analyse(expression.body, accumulators - {expression.iterator}, loops, opaque)
        loops.append(LoopGrowth(expression.iterator, None, 1, body.constant))
        return body

    if isinstance(expression, (HadamardLoop, ProductLoop)):
        body = _analyse(expression.body, accumulators - {expression.iterator}, loops, opaque)
        # The accumulator of the desugared loop is multiplied by the body once
        # per iteration; its own degree is not squared, so growth is linear in
        # n, i.e. polynomial degree.  The product of n bodies multiplies the
        # body's use of an enclosing accumulator by n.
        loops.append(LoopGrowth(expression.iterator, None, 1, body.constant))
        return body.repeated()

    if isinstance(expression, ForLoop):
        init_degree = _constant(0)
        if expression.init is not None:
            init_degree = _analyse(expression.init, accumulators, loops, opaque)
        accumulator = expression.accumulator
        inner = (accumulators - {expression.iterator}) | {accumulator}
        body = _analyse(expression.body, inner, loops, opaque)
        multiplier = body.coefficient(accumulator)
        loops.append(LoopGrowth(expression.iterator, accumulator, multiplier, body.constant))
        # Degree of the loop as seen from the outside, as its additive part:
        # a term that reads the loop's own accumulator adds itself up to n
        # times, which multiplies its use of enclosing accumulators by n
        # (and the initialiser's too, when multiplier > 1); a term that does
        # not is the last iteration's value.
        if multiplier > 1:
            init_degree = init_degree.repeated()
        terms = dict(init_degree.terms)
        for term, constant in body.terms.items():
            if dict(term).get(accumulator, 0):
                term = _repeated(term, accumulator)
            terms[term] = max(terms.get(term, constant), constant)
        return _Degree.of(terms)

    raise TypeError(f"cannot analyse unknown node {type(expression).__name__}")


def circuit_degree_for_dimension(
    expression: Expression,
    schema,
    dimension: int,
) -> int:
    """Exact degree of ``expression`` at concrete dimension ``n``.

    The expression is compiled to an arithmetic circuit over matrices
    (Theorem 5.3) for the given dimension and the circuit's degree is
    returned.  Imported lazily to avoid a circular dependency between the
    language and circuit packages.
    """
    from repro.circuits.from_matlang import compile_expression

    compiled = compile_expression(expression, schema, dimension)
    return compiled.circuit.degree()
