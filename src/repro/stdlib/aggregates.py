"""Aggregation expressions: traces, sums and the diagonal product.

These are small idiomatic expressions used throughout the paper: the trace is
the canonical sum-MATLANG aggregate, and the product of the diagonal entries
(Example 6.6) is the canonical FO-MATLANG expression that already escapes
sum-MATLANG because its value can be exponential in the dimension.
"""

from __future__ import annotations

from typing import Union

from repro.matlang.ast import Expression, Var
from repro.matlang.builder import had, ones, ssum, var

ExpressionLike = Union[Expression, str]


def _as_expr(value: ExpressionLike) -> Expression:
    if isinstance(value, Expression):
        return value
    return Var(value)


def trace(matrix: ExpressionLike, iterator: str = "_tv") -> Expression:
    """``tr(A) = Sigma v. v^T . A . v`` (sum-MATLANG).

    The plan compiler lowers the quantifier as a contraction
    (:mod:`repro.matlang.contract`), ``1^T . diagonal(A)``, so evaluation
    never unrolls the loop.
    """
    expr = _as_expr(matrix)
    v = var(iterator)
    return ssum(iterator, v.T @ expr @ v)


def diagonal_product(matrix: ExpressionLike, iterator: str = "_dv") -> Expression:
    """Example 6.6: the product of the diagonal entries (FO-MATLANG).

    ``Pi-o v. v^T . A . v`` multiplies the diagonal entries pointwise; on a
    ``1 x 1`` result the Hadamard product coincides with ordinary product.
    Compiles to the fused ``diag_product`` plan op.
    """
    expr = _as_expr(matrix)
    v = var(iterator)
    return had(iterator, v.T @ expr @ v)


def row_sums(matrix: ExpressionLike) -> Expression:
    """The column vector of row sums: ``A . 1(A^T)``."""
    expr = _as_expr(matrix)
    return expr @ ones(expr.T)


def column_sums(matrix: ExpressionLike) -> Expression:
    """The column vector of column sums: ``A^T . 1(A)``."""
    expr = _as_expr(matrix)
    return expr.T @ ones(expr)


def total_sum(matrix: ExpressionLike) -> Expression:
    """The sum of all entries: ``1(A)^T . A . 1(A^T)``."""
    expr = _as_expr(matrix)
    return ones(expr).T @ expr @ ones(expr.T)


def entry(matrix: ExpressionLike, row: Expression, col: Expression) -> Expression:
    """Positional access ``row^T . A . col`` for canonical vectors row, col."""
    return row.T @ _as_expr(matrix) @ col
