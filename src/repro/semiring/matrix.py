"""Matrix helpers that are generic over a semiring.

The MATLANG evaluator manipulates matrices as 2-d numpy arrays whose entries
are elements of some :class:`~repro.semiring.base.Semiring`.  This module
collects the constructors and predicates used throughout the code base:
canonical vectors, identity matrices, scalar wrapping and comparisons.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.exceptions import SemiringError
from repro.semiring.base import Semiring
from repro.semiring.kernels import storage_fit_error


def zeros(semiring: Semiring, rows: int, cols: int) -> np.ndarray:
    """A ``rows x cols`` zero matrix over ``semiring``."""
    return semiring.zeros(rows, cols)


def ones_matrix(semiring: Semiring, rows: int, cols: int) -> np.ndarray:
    """A ``rows x cols`` matrix filled with the semiring one."""
    return semiring.ones(rows, cols)


def identity(semiring: Semiring, size: int) -> np.ndarray:
    """The ``size x size`` identity matrix over ``semiring``."""
    return semiring.kernels.identity(size)


def diagonal(semiring: Semiring, column: np.ndarray) -> np.ndarray:
    """The square matrix with ``column`` (an ``n x 1`` array) on the diagonal."""
    kernels = semiring.kernels
    return kernels.diag(kernels.ensure_storage(column))


def canonical_vector(semiring: Semiring, size: int, index: int) -> np.ndarray:
    """The canonical column vector ``b_index`` of dimension ``size``.

    ``index`` is zero-based; the paper writes ``b_1, ..., b_n`` which
    correspond to indices ``0, ..., size - 1`` here.
    """
    if not 0 <= index < size:
        raise SemiringError(
            f"canonical vector index {index} out of range for dimension {size}"
        )
    vector = semiring.zeros(size, 1)
    vector[index, 0] = semiring.one
    return vector


def scalar(semiring: Semiring, value: Any) -> np.ndarray:
    """Wrap a scalar value as a ``1 x 1`` matrix over ``semiring``."""
    source = np.empty((1, 1), dtype=object)
    source[0, 0] = value
    # Route through the kernel coercion boundary so out-of-carrier values
    # (including ints that do not fit a primitive dtype) raise SemiringError
    # instead of leaking a raw OverflowError from an array assignment.
    return semiring.coerce_matrix(source)


def scalar_value(matrix: np.ndarray) -> Any:
    """Extract the single entry of a ``1 x 1`` matrix."""
    if matrix.shape != (1, 1):
        raise SemiringError(f"expected a 1x1 matrix, got shape {matrix.shape}")
    return matrix[0, 0]


def from_rows(semiring: Semiring, rows: Sequence[Sequence[Any]]) -> np.ndarray:
    """Build a matrix from nested Python sequences, coercing every entry."""
    if not rows:
        raise SemiringError("cannot build a matrix from an empty row list")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise SemiringError("all rows must have the same length")
    source = np.empty((len(rows), width), dtype=object)
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            source[i, j] = value
    return semiring.coerce_matrix(source)


def from_entries(
    semiring: Semiring,
    rows: int,
    cols: int,
    entries: Mapping[tuple[int, int], Any],
) -> np.ndarray:
    """Build a matrix from a sparse ``{(i, j): value}`` mapping.

    Unset positions hold the semiring zero.  Set values are coerced into the
    carrier, and out-of-storage entries (ints that do not fit a primitive
    dtype) raise :class:`~repro.exceptions.SemiringError` instead of leaking
    a numpy assignment error.  Work is proportional to ``len(entries)``: the
    zero background comes from the vectorized constructor and needs no
    per-cell validation.
    """
    matrix = semiring.zeros(rows, cols)
    for (i, j), value in entries.items():
        if not (0 <= i < rows and 0 <= j < cols):
            raise SemiringError(
                f"entry index ({i}, {j}) is outside a {rows} x {cols} matrix"
            )
        try:
            matrix[i, j] = semiring.coerce(value)
        except OverflowError as error:
            raise storage_fit_error(semiring, matrix.dtype, value) from error
    return matrix


def lift(semiring: Semiring, matrix: Any) -> np.ndarray:
    """Coerce an array-like (possibly 1-d) into a 2-d matrix over ``semiring``.

    One-dimensional inputs become column vectors, matching the paper's
    convention that vectors have type ``(alpha, 1)``.
    """
    # Keep the source dtype: the kernel backend's ``coerce_matrix`` below is
    # the carrier boundary, and pre-casting here would bypass its validation
    # (e.g. silently truncating 3.5 into an int64 natural).
    array = np.asarray(matrix, dtype=object) if semiring.dtype is object else np.asarray(matrix)
    if array.ndim == 0:
        return scalar(semiring, array.item())
    if array.ndim == 1:
        array = array.reshape(-1, 1)
    if array.ndim != 2:
        raise SemiringError(f"expected at most 2 dimensions, got {array.ndim}")
    return semiring.coerce_matrix(array)


def matrices_equal(
    semiring: Semiring,
    left: np.ndarray,
    right: np.ndarray,
    tolerance: float = 1e-9,
) -> bool:
    """Entrywise equality of two matrices over ``semiring``."""
    return semiring.matrices_equal(left, right, tolerance)
