"""Vectorized dense-kernel backends for semirings.

The scalar interface of :class:`~repro.semiring.base.Semiring` is the source
of truth for *what* a semiring computes; this module decides *how* whole
matrices over the semiring are stored and combined.  A kernel backend bundles

* a storage ``dtype`` for dense matrices (``object`` in the generic case,
  a primitive numpy dtype for semirings whose carrier embeds into one), and
* whole-array implementations of every matrix-level operation the evaluator
  and the matrix helpers need.

Kernel contract
---------------
A backend is any object implementing the :class:`KernelBackend` interface:

``dtype``
    The numpy dtype of every array the backend produces and consumes.
``zeros(rows, cols)`` / ``ones(rows, cols)`` / ``identity(size)``
    Constructors returning fresh, writable arrays of the backend dtype
    filled with the semiring zero / one / the identity pattern.
``diag(column)``
    The square matrix with ``column`` (an ``n x 1`` array) on the diagonal
    and the semiring zero elsewhere.
``matmul(left, right)`` / ``add_matrices(left, right)`` / ``hadamard(left, right)``
    The semiring matrix product, entrywise sum and entrywise product.
    Implementations must raise :class:`~repro.exceptions.SemiringError` on
    shape mismatches.
``scale(factor, matrix)``
    Entrywise ``times(factor, entry)`` for a carrier scalar ``factor``.
``coerce_matrix(matrix)``
    Validate an arbitrary array-like entrywise and convert it into an array
    of the backend dtype.  This is the carrier boundary: values outside the
    carrier (negative naturals, ``-inf`` over min-plus, ...) must be
    rejected here with :class:`~repro.exceptions.SemiringError`.
``matrices_equal(left, right, tolerance)``
    Entrywise equality with the same tolerance semantics as the scalar
    ``close_to``.
``sum(values)`` / ``product(values)``
    Fold the semiring addition / multiplication over an iterable or array
    of carrier values, returning a Python scalar.

Every operation must agree entrywise with the generic scalar fold over
:meth:`Semiring.plus` / :meth:`Semiring.times` — the property suite in
``tests/test_semiring_kernels.py`` checks exactly this for all registered
semirings.

Backend selection
-----------------
Backends are selected per semiring *name* through a small dispatcher (the
function-selection idiom of schedula-style libraries): :func:`register_kernels`
installs a factory, :func:`kernels_for` picks the registered factory and falls
back to :class:`ObjectFoldKernels` — the universal object-dtype scalar fold —
when no vectorized backend exists (e.g. the provenance polynomials).  Each
semiring caches its backend together with the registry version it was
resolved against (:attr:`Semiring.kernels`), so a warm lookup costs one
comparison and a registration reaches every cache on its next read.
Built-in registrations:

============  =====================  ==========================================
semiring      storage                implementation
============  =====================  ==========================================
``real``      ``float64``            BLAS ``@``, numpy ufuncs
``boolean``   ``bool``               ``|`` / ``&``, logical matmul
``natural``   ``int64``              integer arithmetic (non-negative carrier)
``integer``   ``int64``              integer arithmetic
``min_plus``  ``float64``            ``np.minimum`` + broadcasted outer-sum
``max_plus``  ``float64``            ``np.maximum`` + broadcasted outer-sum
(other)       ``object``             scalar fold over ``plus`` / ``times``
============  =====================  ==========================================

Batched operation
-----------------
Every backend additionally exposes *batched* variants operating on stacked
``(B, n, m)`` arrays — one instance per leading-axis slice — used by the
batched plan executor (:func:`repro.matlang.ir.execute_plan_batch`):

``batch_matmul(left, right)``
    The per-slice semiring matrix product of two equally batched stacks.
    Primitive backends dispatch the whole stack to a single numpy call
    (broadcasted ``@``, blocked outer sums for the tropical semirings); the
    generic default loops slice-by-slice over the 2-D kernel, so batching is
    *always* correct and merely faster where vectorized.
``batch_add`` / ``batch_hadamard``
    Entrywise stack combination.  The entrywise kernels are rank-generic
    (ufuncs and ``np.ndindex`` folds do not care about a leading batch
    axis), so these validate the batch shapes and delegate.
``batch_scale(factors, stack)``
    Multiplies each slice by its own carrier scalar from a ``(B, 1, 1)``
    factor stack, rejecting any other factor shape and a batch-size
    mismatch rather than broadcasting them.  The generic default is
    ``batch_hadamard`` against the factors broadcast to the stack's shape;
    the primitive backends apply their ufunc with numpy broadcasting instead,
    which skips building that view and gives the same bits.
``batch_sum(rows)`` / ``batch_product(rows)``
    Row-wise semiring reductions of a ``(B, k)`` array into a ``(B, 1, 1)``
    stack of scalars (used by the fused ``trace`` / ``diag_product`` ops).

Batched inputs may be broadcast views (stride-0 leading axis); no kernel
mutates its operands, so sharing one instance across a batch is free.  The
``int64`` batched operations bound the result magnitude from the extrema of
the *actual batch* first, falling back to the per-slice 2-D kernels (with
their per-row refinement and exact-fold safety net) only when the batch-wide
bound fails — so a single outlier instance cannot silently wrap, and only
degrades its own batch to the slice loop.  ``batch_scale`` bounds from the
factor and stack extrema and, when that fails, defers to ``batch_hadamard``
on the broadcast factors (entrywise refinement, then the exact fold).

Storage-boundary behavior of the primitive backends: the ``int64`` kernels
reject values that do not fit at the coercion boundary, and guard every
combining operation with an a-priori bound — a cheap global bound from the
operand extrema, refined by a per-row / per-operation bound when that fails
(see :class:`Int64Kernels`) — operations whose result could exceed
``2**63 - 1`` recompute on the exact scalar fold and raise
:class:`~repro.exceptions.SemiringError` if the true result does not fit,
so results never wrap silently.  Workloads that routinely exceed ``int64``
should register :class:`ObjectFoldKernels` for their semiring instead.  The
tropical backends rely on the carrier containing only the semiring's own
infinity, which :meth:`coerce_matrix` enforces — this is what makes the
broadcasted outer sum safe (no ``inf - inf`` NaNs can arise).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional

import numpy as np

from repro.exceptions import SemiringError
from repro.semiring import base as _base
from repro.semiring.base import Semiring

__all__ = [
    "BooleanKernels",
    "Float64FieldKernels",
    "Int64Kernels",
    "KernelBackend",
    "ObjectFoldKernels",
    "TropicalKernels",
    "kernels_for",
    "register_kernels",
    "unregister_kernels",
]


# ----------------------------------------------------------------------
# Shared shape guards
# ----------------------------------------------------------------------
def _check_same_shape(left: np.ndarray, right: np.ndarray, operation: str) -> None:
    if left.shape != right.shape:
        raise SemiringError(
            f"cannot {operation} matrices of shapes {left.shape} and {right.shape}"
        )


def _check_matmul_shapes(left: np.ndarray, right: np.ndarray) -> None:
    if left.shape[1] != right.shape[0]:
        raise SemiringError(
            f"cannot multiply matrices of shapes {left.shape} and {right.shape}"
        )


def _check_column(column: np.ndarray) -> None:
    if column.ndim != 2 or column.shape[1] != 1:
        raise SemiringError(f"diag expects a column vector, got shape {column.shape}")


def _check_batch_pair(left: np.ndarray, right: np.ndarray, operation: str) -> None:
    if left.ndim != 3 or right.ndim != 3:
        raise SemiringError(
            f"batched {operation} expects stacked (B, n, m) arrays, got shapes "
            f"{left.shape} and {right.shape}"
        )
    if left.shape[0] != right.shape[0]:
        raise SemiringError(
            f"cannot {operation} batches of sizes {left.shape[0]} and {right.shape[0]}"
        )


def _check_batch_matmul(left: np.ndarray, right: np.ndarray) -> None:
    _check_batch_pair(left, right, "multiply")
    if left.shape[2] != right.shape[1]:
        raise SemiringError(
            f"cannot multiply batched matrices of shapes {left.shape} and {right.shape}"
        )


def _check_batch_scale(factors: np.ndarray, stack: np.ndarray) -> None:
    _check_batch_pair(factors, stack, "scale")
    if factors.shape[1:] != (1, 1):
        raise SemiringError(
            f"batched scale expects (B, 1, 1) factors, got shape {factors.shape}"
        )


def storage_fit_error(semiring: Semiring, dtype: Any, value: Any) -> SemiringError:
    """The canonical error for a carrier value that exceeds a storage dtype."""
    return SemiringError(
        f"value {value!r} does not fit the {np.dtype(dtype).name} kernel storage "
        f"of semiring {semiring.name!r}; register ObjectFoldKernels for "
        "arbitrary-precision workloads"
    )


class KernelBackend:
    """Base class for dense kernel backends (see the module docstring).

    Subclasses set :attr:`dtype` and implement the whole-array operations;
    the constructor-style helpers below are shared because they only need
    ``dtype`` plus the semiring's identities.
    """

    dtype: Any = object

    def __init__(self, semiring: Semiring) -> None:
        self.semiring = semiring

    # -- constructors ---------------------------------------------------
    def _filled(self, rows: int, cols: int, value: Any) -> np.ndarray:
        matrix = np.empty((rows, cols), dtype=self.dtype)
        matrix[...] = value
        return matrix

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return self._filled(rows, cols, self.semiring.zero)

    def ones(self, rows: int, cols: int) -> np.ndarray:
        return self._filled(rows, cols, self.semiring.one)

    def identity(self, size: int) -> np.ndarray:
        matrix = self.zeros(size, size)
        np.fill_diagonal(matrix, self.semiring.one)
        return matrix

    def diag(self, column: np.ndarray) -> np.ndarray:
        _check_column(column)
        size = column.shape[0]
        matrix = self.zeros(size, size)
        indices = np.arange(size)
        matrix[indices, indices] = column[:, 0]
        return matrix

    def ensure_storage(self, matrix: Any) -> np.ndarray:
        """Normalize ``matrix`` to a validated array of the storage dtype.

        Arrays already in the storage dtype pass through after carrier
        validation (backends whose dtype admits out-of-carrier values
        override :meth:`_validate_storage`); anything else goes through
        :meth:`coerce_matrix`.  The combining operations below may therefore
        assume their operands are validated storage arrays — e.g. an int32
        array fed to the int64 backend would otherwise accumulate (and
        silently wrap) in int32, and a ``-inf`` smuggled into a float64
        min-plus array would poison the outer sums with NaN.
        """
        matrix = np.asarray(matrix)
        if matrix.dtype == self.dtype:
            self._validate_storage(matrix)
            return matrix
        return self.coerce_matrix(matrix)

    def _validate_storage(self, matrix: np.ndarray) -> None:
        """Carrier check for an array already in the storage dtype.

        No-op by default: for most backends the storage dtype only contains
        carrier values.
        """

    # -- combining operations (backend specific) ------------------------
    # Operands must be storage-dtype arrays: the public Semiring methods
    # normalize through ensure_storage before dispatching here.
    def matmul(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def add_matrices(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hadamard(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def scale(self, factor: Any, matrix: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def coerce_matrix(self, matrix: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def matrices_equal(
        self, left: np.ndarray, right: np.ndarray, tolerance: float = 1e-9
    ) -> bool:
        raise NotImplementedError

    # -- aggregations ---------------------------------------------------
    def sum(self, values: Iterable[Any]) -> Any:
        if not isinstance(values, np.ndarray):
            values = list(values)
        array = self._reduction_array(values)
        if array is None:
            return _fold(self.semiring.plus, self.semiring.zero, values)
        if array.size == 0:
            return self.semiring.zero
        return self._sum_array(array)

    def product(self, values: Iterable[Any]) -> Any:
        if not isinstance(values, np.ndarray):
            values = list(values)
        array = self._reduction_array(values)
        if array is None:
            return _fold(self.semiring.times, self.semiring.one, values)
        if array.size == 0:
            return self.semiring.one
        return self._product_array(array)

    def _reduction_array(self, values: Iterable[Any]) -> Optional[np.ndarray]:
        """Try to view ``values`` as an array of the backend dtype.

        Returns ``None`` when the values cannot be represented, in which
        case the caller falls back to the scalar fold.  The dtype cast
        mirrors the conversions the scalar ``plus`` / ``times`` perform
        (``float()`` / ``int()`` / truthiness), so both paths agree.
        """
        if self.dtype is object:
            return None
        if isinstance(values, np.ndarray) and values.dtype == self.dtype:
            return values
        try:
            return np.asarray(values, dtype=self.dtype)
        except (TypeError, ValueError, OverflowError):
            return None

    def _sum_array(self, array: np.ndarray) -> Any:
        raise NotImplementedError

    def _product_array(self, array: np.ndarray) -> Any:
        raise NotImplementedError

    # -- batched operations (leading batch axis) ------------------------
    # Operands are stacked (B, n, m) storage arrays; see the module
    # docstring.  The defaults loop slice-by-slice over the 2-D kernels,
    # which is correct for every backend (object fold included); the
    # primitive backends override batch_matmul and the reductions with
    # whole-stack numpy implementations.
    def batch_matmul(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_batch_matmul(left, right)
        batch, rows = left.shape[0], left.shape[1]
        cols = right.shape[2]
        result = np.empty((batch, rows, cols), dtype=self.dtype)
        for index in range(batch):
            result[index] = self.matmul(left[index], right[index])
        return result

    def batch_add(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_batch_pair(left, right, "add")
        # The entrywise kernels are rank-generic; the batch axis rides along.
        return self.add_matrices(left, right)

    def batch_hadamard(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_batch_pair(left, right, "take Hadamard product of")
        return self.hadamard(left, right)

    def batch_scale(self, factors: np.ndarray, stack: np.ndarray) -> np.ndarray:
        """Scale each ``(n, m)`` slice of ``stack`` by its ``(B, 1, 1)`` factor.

        Scaling is the entrywise product against the broadcast factor, so the
        default is the batched Hadamard product, overflow discipline
        included; the primitive backends broadcast inside their ufunc.
        """
        _check_batch_scale(factors, stack)
        return self.batch_hadamard(np.broadcast_to(factors, stack.shape), stack)

    def batch_sum(self, rows: np.ndarray) -> np.ndarray:
        """Semiring sum along the last axis of ``(B, k)`` into ``(B, 1, 1)``."""
        result = np.empty((rows.shape[0], 1, 1), dtype=self.dtype)
        for index in range(rows.shape[0]):
            result[index, 0, 0] = self.sum(rows[index])
        return result

    def batch_product(self, rows: np.ndarray) -> np.ndarray:
        """Semiring product along the last axis of ``(B, k)`` into ``(B, 1, 1)``."""
        result = np.empty((rows.shape[0], 1, 1), dtype=self.dtype)
        for index in range(rows.shape[0]):
            result[index, 0, 0] = self.product(rows[index])
        return result

    # -- object-array coercion shared by the primitive backends ---------
    def _coerce_elementwise(self, source: np.ndarray) -> np.ndarray:
        result = np.empty(source.shape, dtype=self.dtype)
        coerce = self.semiring.coerce
        for index in np.ndindex(source.shape):
            try:
                result[index] = coerce(source[index])
            except OverflowError as error:
                raise storage_fit_error(self.semiring, self.dtype, source[index]) from error
        return result


def _fold(operation: Callable[[Any, Any], Any], start: Any, values: Iterable[Any]) -> Any:
    result = start
    for value in values:
        result = operation(result, value)
    return result


# ----------------------------------------------------------------------
# Generic fallback: the object-dtype scalar fold
# ----------------------------------------------------------------------
class ObjectFoldKernels(KernelBackend):
    """The universal backend: scalar folds over ``plus`` / ``times``.

    Works for every semiring (it only uses the scalar interface) and is the
    reference implementation the vectorized backends are tested against.
    By default it stores matrices as ``object`` arrays, so registering it
    directly (``register_kernels(name, ObjectFoldKernels, overwrite=True)``)
    restores arbitrary-precision behavior for a primitive-dtype semiring.
    The automatic fallback in :func:`kernels_for` passes the semiring's
    declared ``dtype`` instead, honoring custom semirings that advertise one.
    """

    def __init__(self, semiring: Semiring, dtype: Any = object) -> None:
        super().__init__(semiring)
        self.dtype = dtype

    def matmul(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_matmul_shapes(left, right)
        semiring = self.semiring
        rows, inner = left.shape
        cols = right.shape[1]
        result = self.zeros(rows, cols)
        for i in range(rows):
            for j in range(cols):
                accumulator = semiring.zero
                for k in range(inner):
                    accumulator = semiring.plus(
                        accumulator, semiring.times(left[i, k], right[k, j])
                    )
                result[i, j] = accumulator
        return result

    def add_matrices(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_same_shape(left, right, "add")
        result = np.empty(left.shape, dtype=self.dtype)
        for index in np.ndindex(left.shape):
            result[index] = self.semiring.plus(left[index], right[index])
        return result

    def hadamard(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_same_shape(left, right, "take Hadamard product of")
        result = np.empty(left.shape, dtype=self.dtype)
        for index in np.ndindex(left.shape):
            result[index] = self.semiring.times(left[index], right[index])
        return result

    def scale(self, factor: Any, matrix: np.ndarray) -> np.ndarray:
        result = np.empty(matrix.shape, dtype=self.dtype)
        for index in np.ndindex(matrix.shape):
            result[index] = self.semiring.times(factor, matrix[index])
        return result

    def coerce_matrix(self, matrix: np.ndarray) -> np.ndarray:
        source = np.asarray(matrix)
        return self._coerce_elementwise(source)

    def matrices_equal(
        self, left: np.ndarray, right: np.ndarray, tolerance: float = 1e-9
    ) -> bool:
        if left.shape != right.shape:
            return False
        return all(
            self.semiring.close_to(left[index], right[index], tolerance)
            for index in np.ndindex(left.shape)
        )

    def _reduction_array(self, values: Iterable[Any]) -> Optional[np.ndarray]:
        return None


# ----------------------------------------------------------------------
# Primitive-dtype backends
# ----------------------------------------------------------------------
class Float64FieldKernels(KernelBackend):
    """``float64`` arrays with BLAS matmul — the real field fast path."""

    dtype = np.float64

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.float64)

    def ones(self, rows: int, cols: int) -> np.ndarray:
        return np.ones((rows, cols), dtype=np.float64)

    def matmul(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_matmul_shapes(left, right)
        return left @ right

    def add_matrices(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_same_shape(left, right, "add")
        return left + right

    def hadamard(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_same_shape(left, right, "take Hadamard product of")
        return left * right

    def scale(self, factor: Any, matrix: np.ndarray) -> np.ndarray:
        return float(factor) * matrix

    def coerce_matrix(self, matrix: np.ndarray) -> np.ndarray:
        source = np.asarray(matrix)
        if source.dtype.kind in "biuf":
            # astype always copies, so the result never aliases the caller's
            # array (mutating the input must not corrupt e.g. an Instance).
            return source.astype(np.float64)
        return self._coerce_elementwise(source)

    def matrices_equal(
        self, left: np.ndarray, right: np.ndarray, tolerance: float = 1e-9
    ) -> bool:
        if left.shape != right.shape:
            return False
        return bool(np.allclose(left, right, rtol=tolerance, atol=tolerance))

    def _sum_array(self, array: np.ndarray) -> float:
        return float(array.sum())

    def _product_array(self, array: np.ndarray) -> float:
        return float(array.prod())

    def batch_matmul(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_batch_matmul(left, right)
        # numpy's stacked matmul runs the same BLAS gemm per slice, so the
        # result is bitwise-equal to the per-instance loop.
        return left @ right

    def batch_scale(self, factors: np.ndarray, stack: np.ndarray) -> np.ndarray:
        _check_batch_scale(factors, stack)
        return factors * stack

    def batch_sum(self, rows: np.ndarray) -> np.ndarray:
        return rows.sum(axis=1).reshape(-1, 1, 1)

    def batch_product(self, rows: np.ndarray) -> np.ndarray:
        return rows.prod(axis=1).reshape(-1, 1, 1)


class BooleanKernels(KernelBackend):
    """``bool`` arrays: ``|`` / ``&`` ufuncs and logical matrix product."""

    dtype = np.bool_

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.bool_)

    def ones(self, rows: int, cols: int) -> np.ndarray:
        return np.ones((rows, cols), dtype=np.bool_)

    def matmul(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_matmul_shapes(left, right)
        # numpy's boolean matmul accumulates with logical or/and, which is
        # exactly the boolean semiring product (no overflow to worry about).
        return left @ right

    def add_matrices(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_same_shape(left, right, "add")
        return left | right

    def hadamard(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_same_shape(left, right, "take Hadamard product of")
        return left & right

    def scale(self, factor: Any, matrix: np.ndarray) -> np.ndarray:
        return np.logical_and(matrix, bool(factor))

    def coerce_matrix(self, matrix: np.ndarray) -> np.ndarray:
        source = np.asarray(matrix)
        if source.dtype == np.bool_:
            return source.copy()  # never alias the caller's array
        if source.dtype.kind in "iuf":
            return source != 0
        return self._coerce_elementwise(source)

    def matrices_equal(
        self, left: np.ndarray, right: np.ndarray, tolerance: float = 1e-9
    ) -> bool:
        del tolerance
        return bool(np.array_equal(left, right))

    def _sum_array(self, array: np.ndarray) -> bool:
        return bool(array.any())

    def _product_array(self, array: np.ndarray) -> bool:
        return bool(array.all())

    def batch_matmul(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_batch_matmul(left, right)
        # Stacked boolean matmul keeps the logical or/and accumulation.
        return left @ right

    def batch_scale(self, factors: np.ndarray, stack: np.ndarray) -> np.ndarray:
        _check_batch_scale(factors, stack)
        return factors & stack

    def batch_sum(self, rows: np.ndarray) -> np.ndarray:
        return rows.any(axis=1).reshape(-1, 1, 1)

    def batch_product(self, rows: np.ndarray) -> np.ndarray:
        return rows.all(axis=1).reshape(-1, 1, 1)


class Int64Kernels(KernelBackend):
    """``int64`` arrays for the naturals and the integer ring.

    The coercion boundary validates carrier membership (integrality, and
    non-negativity for the naturals) and that values fit ``int64``.  Every
    combining operation guards against wrap-around with a two-level a-priori
    bound on the result magnitude:

    1. a cheap global bound from the operand extrema (exact Python-int
       arithmetic, e.g. ``inner * max|L| * max|R|`` for matmul) — when it
       fits ``int64`` the vectorized numpy path is provably wrap-free;
    2. when the global bound fails, a tighter per-row / per-operation bound
       (row-wise absolute sums for matmul, entrywise ``|l| op |r|`` extrema
       for add / Hadamard) computed in ``float64`` with a conservative
       safety margin — big-value workloads whose *actual* rows stay in
       range keep the fast path even though the worst-case product of the
       extrema would not.

    Only when both bounds fail does the operation fall back to the exact
    scalar fold and re-enter the coercion boundary, so a result that
    genuinely does not fit raises :class:`~repro.exceptions.SemiringError`
    instead of silently wrapping.
    """

    dtype = np.int64

    _INT64_MAX = 2**63 - 1
    #: Margin applied to float64-computed bounds: relative rounding error of
    #: a sum of n float64 terms is below n * 2**-53, so 1e-6 is conservative
    #: for any array with fewer than ~10**9 summands per row.
    _FLOAT_BOUND_LIMIT = (2**63 - 1) * (1.0 - 1e-6)

    def __init__(self, semiring: Semiring, allow_negative: bool = True) -> None:
        super().__init__(semiring)
        self.allow_negative = allow_negative

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.int64)

    def ones(self, rows: int, cols: int) -> np.ndarray:
        return np.ones((rows, cols), dtype=np.int64)

    @staticmethod
    def _max_abs(matrix: np.ndarray) -> int:
        """Largest absolute entry, computed exactly in Python ints."""
        if matrix.size == 0:
            return 0
        # abs() on the int64 minimum would itself wrap; go through Python.
        return max(abs(int(matrix.min())), abs(int(matrix.max())))

    def _exact_fallback(self, operation: str, *operands: np.ndarray) -> np.ndarray:
        """Recompute with the exact object fold and re-check the storage fit."""
        fold = ObjectFoldKernels(self.semiring, dtype=object)
        exact = getattr(fold, operation)(*operands)
        return self.coerce_matrix(exact)

    @staticmethod
    def _float_abs(matrix: np.ndarray) -> np.ndarray:
        # Convert before abs: np.abs wraps on the int64 minimum, while the
        # float conversion merely rounds (the margin absorbs that error).
        return np.abs(matrix.astype(np.float64))

    def matmul(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_matmul_shapes(left, right)
        inner = left.shape[1]
        max_left = self._max_abs(left)
        max_right = self._max_abs(right)
        if inner * max_left * max_right <= self._INT64_MAX:
            return left @ right
        # Per-row refinement: |(LR)[i,j]| <= sum_k |L[i,k]| * max|R| (and
        # symmetrically per column), which keeps e.g. diagonal or sparse
        # big-value matrices vectorized where the global bound gives up.
        if left.size and right.size:
            row_bound = float(self._float_abs(left).sum(axis=1).max()) * max_right
            col_bound = max_left * float(self._float_abs(right).sum(axis=0).max())
            if min(row_bound, col_bound) <= self._FLOAT_BOUND_LIMIT:
                return left @ right
        return self._exact_fallback("matmul", left, right)

    def add_matrices(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_same_shape(left, right, "add")
        if self._max_abs(left) + self._max_abs(right) <= self._INT64_MAX:
            return left + right
        # Entrywise refinement: the extrema may live in different cells.
        if left.size:
            bound = float((self._float_abs(left) + self._float_abs(right)).max())
            if bound <= self._FLOAT_BOUND_LIMIT:
                return left + right
        return self._exact_fallback("add_matrices", left, right)

    def hadamard(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_same_shape(left, right, "take Hadamard product of")
        if self._max_abs(left) * self._max_abs(right) <= self._INT64_MAX:
            return left * right
        if left.size:
            bound = float((self._float_abs(left) * self._float_abs(right)).max())
            if bound <= self._FLOAT_BOUND_LIMIT:
                return left * right
        return self._exact_fallback("hadamard", left, right)

    def scale(self, factor: Any, matrix: np.ndarray) -> np.ndarray:
        # Coerce the factor: int() would silently truncate 2.5, and a
        # negative factor must be rejected by the naturals, not baked into a
        # supposedly-natural result matrix.
        factor = self.semiring.coerce(factor)
        if abs(factor) * self._max_abs(matrix) <= self._INT64_MAX:
            return matrix * factor
        return self._exact_fallback("scale", factor, matrix)

    def coerce_matrix(self, matrix: np.ndarray) -> np.ndarray:
        source = np.asarray(matrix)
        if source.dtype.kind == "b":
            converted = source.astype(np.int64)
        elif source.dtype.kind in "iu":
            self._check_fits_int64(source)
            converted = source.astype(np.int64)
        elif source.dtype.kind == "f":
            if not np.all(np.isfinite(source)) or np.any(source != np.trunc(source)):
                raise SemiringError(
                    f"cannot coerce non-integral values into semiring "
                    f"{self.semiring.name!r}"
                )
            self._check_fits_int64(source)
            converted = source.astype(np.int64)
        else:
            return self._coerce_elementwise(source)
        if not self.allow_negative and converted.size and converted.min() < 0:
            raise SemiringError(
                f"matrix contains negative entries, which are outside the "
                f"carrier of semiring {self.semiring.name!r}"
            )
        return converted

    def _validate_storage(self, matrix: np.ndarray) -> None:
        # int64 storage admits negatives, which the naturals exclude.
        if not self.allow_negative and matrix.size and matrix.min() < 0:
            raise SemiringError(
                f"matrix contains negative entries, which are outside the "
                f"carrier of semiring {self.semiring.name!r}"
            )

    def _check_fits_int64(self, source: np.ndarray) -> None:
        # astype(int64) wraps silently; the coercion boundary must reject
        # instead.
        if source.size == 0 or source.dtype == np.int64:
            return
        if source.dtype.kind == "u":
            # Exact integer comparison: uint64 -> float would be lossy here.
            fits = int(source.max()) <= np.iinfo(np.int64).max
        elif source.dtype.kind == "i":
            fits = True  # every signed numpy integer dtype embeds into int64
        else:
            # Integral float64 values: 2.0**63 is exactly representable, so
            # the boundary comparison is precise.
            fits = not (np.any(source < -(2.0**63)) or np.any(source >= 2.0**63))
        if not fits:
            raise SemiringError(
                f"matrix contains values that do not fit the int64 kernel "
                f"storage of semiring {self.semiring.name!r}; register "
                "ObjectFoldKernels for arbitrary-precision workloads"
            )

    def matrices_equal(
        self, left: np.ndarray, right: np.ndarray, tolerance: float = 1e-9
    ) -> bool:
        del tolerance
        return bool(np.array_equal(left, right))

    def _reduction_array(self, values: Iterable[Any]) -> Optional[np.ndarray]:
        # Aggregations stay on the exact Python-int scalar fold: a numpy
        # int64 reduction would wrap on overflow even when every input fits,
        # breaking the agree-with-the-fold kernel contract.
        return None

    def batch_matmul(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_batch_matmul(left, right)
        inner = left.shape[2]
        # Batch-wide a-priori bound from the stacks' actual extrema: when it
        # holds, every slice of the stacked numpy matmul is provably
        # wrap-free.  When it fails, each slice re-enters the 2-D kernel,
        # which refines per row and falls back to the exact fold — so one
        # outlier instance degrades only its own slice, never the batch's
        # correctness.  (batch_sum / batch_product stay on the inherited
        # exact-fold defaults for the same reason as _reduction_array.)
        if inner * self._max_abs(left) * self._max_abs(right) <= self._INT64_MAX:
            return left @ right
        batch, rows = left.shape[0], left.shape[1]
        cols = right.shape[2]
        result = np.empty((batch, rows, cols), dtype=np.int64)
        for index in range(batch):
            result[index] = self.matmul(left[index], right[index])
        return result

    def batch_scale(self, factors: np.ndarray, stack: np.ndarray) -> np.ndarray:
        _check_batch_scale(factors, stack)
        if self._max_abs(factors) * self._max_abs(stack) <= self._INT64_MAX:
            return factors * stack
        # The generic path: the batched Hadamard product against the
        # broadcast factors refines the bound entrywise, then takes the
        # exact fold, as for any other entrywise product.
        return super().batch_scale(factors, stack)


class TropicalKernels(KernelBackend):
    """``float64`` arrays for min-plus / max-plus.

    Addition is ``np.minimum`` / ``np.maximum`` (picked from the semiring's
    zero: ``+inf`` means min-plus), multiplication is ``+``.  The matrix
    product is a broadcasted outer sum reduced along the inner axis, blocked
    over rows so the temporary stays bounded.  Because ``coerce_matrix``
    rejects the out-of-carrier infinity, ``inf - inf`` NaNs cannot arise and
    the semiring zero annihilates automatically (``zero + x == zero``).
    """

    dtype = np.float64

    #: Upper bound on the number of float64 entries in the broadcast
    #: temporary of one matmul block (32 MiB).
    _BLOCK_ENTRIES = 1 << 22

    def __init__(self, semiring: Semiring) -> None:
        super().__init__(semiring)
        self._zero = float(semiring.zero)
        if self._zero == np.inf:
            self._add = np.minimum
            self._reduce = np.min
        elif self._zero == -np.inf:
            self._add = np.maximum
            self._reduce = np.max
        else:  # pragma: no cover - defensive
            raise SemiringError(
                f"semiring {semiring.name!r} is not tropical: its zero is "
                f"{semiring.zero!r}, expected an infinity"
            )

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.full((rows, cols), self._zero, dtype=np.float64)

    def ones(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.float64)

    def matmul(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_matmul_shapes(left, right)
        rows, inner = left.shape
        cols = right.shape[1]
        if inner == 0:
            # An empty sum is the semiring zero; np.min/np.max would raise.
            return self.zeros(rows, cols)
        result = np.empty((rows, cols), dtype=np.float64)
        block = max(1, self._BLOCK_ENTRIES // max(1, inner * cols))
        for start in range(0, rows, block):
            stop = min(rows, start + block)
            outer = left[start:stop, :, None] + right[None, :, :]
            result[start:stop] = self._reduce(outer, axis=1)
        return result

    def add_matrices(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_same_shape(left, right, "add")
        return self._add(left, right)

    def hadamard(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_same_shape(left, right, "take Hadamard product of")
        return left + right

    def scale(self, factor: Any, matrix: np.ndarray) -> np.ndarray:
        # Coerce the factor: an out-of-carrier infinity would otherwise meet
        # a zero entry as `(-inf) + inf = NaN` and silently poison the result.
        return float(self.semiring.coerce(factor)) + matrix

    def coerce_matrix(self, matrix: np.ndarray) -> np.ndarray:
        source = np.asarray(matrix)
        if source.dtype.kind == "b":
            one = float(self.semiring.one)
            return np.where(source, one, self._zero)
        if source.dtype.kind in "iu":
            return source.astype(np.float64)
        if source.dtype.kind == "f":
            converted = source.astype(np.float64)
            self._check_carrier(converted)
            return converted
        converted = self._coerce_elementwise(source)
        self._check_carrier(converted)
        return converted

    def _validate_storage(self, matrix: np.ndarray) -> None:
        # float64 storage admits NaN and the out-of-carrier infinity.
        self._check_carrier(matrix)

    def _reduction_array(self, values: Iterable[Any]) -> Optional[np.ndarray]:
        array = super()._reduction_array(values)
        if array is not None:
            self._check_carrier(array)
        return array

    def _check_carrier(self, array: np.ndarray) -> None:
        if np.isnan(array).any():
            raise SemiringError(
                f"NaN is not an element of semiring {self.semiring.name!r}"
            )
        out_of_carrier = np.isinf(array) & (array != self._zero)
        if out_of_carrier.any():
            raise SemiringError(
                f"{-self._zero!r} is outside the carrier of semiring "
                f"{self.semiring.name!r} (only {self._zero!r} is adjoined)"
            )

    def matrices_equal(
        self, left: np.ndarray, right: np.ndarray, tolerance: float = 1e-9
    ) -> bool:
        if left.shape != right.shape:
            return False
        exact = left == right
        finite = np.isfinite(left) & np.isfinite(right)
        with np.errstate(invalid="ignore"):
            close = np.abs(left - right) <= tolerance * (
                1.0 + np.maximum(np.abs(left), np.abs(right))
            )
        return bool(np.all(exact | (finite & close)))

    def _sum_array(self, array: np.ndarray) -> float:
        return float(self._reduce(array))

    def _product_array(self, array: np.ndarray) -> float:
        return float(array.sum())

    def batch_matmul(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        _check_batch_matmul(left, right)
        batch, rows, inner = left.shape
        cols = right.shape[2]
        if inner == 0:
            return np.full((batch, rows, cols), self._zero, dtype=np.float64)
        per_instance = rows * inner * cols
        if per_instance > self._BLOCK_ENTRIES:
            # Instances so large the 2-D kernel must block its rows anyway:
            # batching buys nothing, run the slices through it directly.
            result = np.empty((batch, rows, cols), dtype=np.float64)
            for index in range(batch):
                result[index] = self.matmul(left[index], right[index])
            return result
        result = np.empty((batch, rows, cols), dtype=np.float64)
        block = max(1, self._BLOCK_ENTRIES // per_instance)
        for start in range(0, batch, block):
            stop = min(batch, start + block)
            outer = left[start:stop, :, :, None] + right[start:stop, None, :, :]
            result[start:stop] = self._reduce(outer, axis=2)
        return result

    def batch_scale(self, factors: np.ndarray, stack: np.ndarray) -> np.ndarray:
        _check_batch_scale(factors, stack)
        return factors + stack

    def batch_sum(self, rows: np.ndarray) -> np.ndarray:
        if rows.shape[1] == 0:
            return np.full((rows.shape[0], 1, 1), self._zero, dtype=np.float64)
        return self._reduce(rows, axis=1).reshape(-1, 1, 1)

    def batch_product(self, rows: np.ndarray) -> np.ndarray:
        # An empty product is the semiring one (0.0) — numpy's empty-axis
        # sum already returns exactly that.
        return rows.sum(axis=1).reshape(-1, 1, 1)


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
KernelFactory = Callable[[Semiring], KernelBackend]

_KERNEL_FACTORIES: Dict[str, KernelFactory] = {}


def register_kernels(name: str, factory: KernelFactory, overwrite: bool = False) -> None:
    """Install ``factory`` as the kernel backend for semirings named ``name``.

    Every (re-)registration bumps :data:`repro.semiring.base.kernel_registry_version`,
    the one version cell every ``Semiring.kernels`` read compares its cached
    backend against.  So re-registering with ``overwrite=True`` takes effect
    on the next read, even for semirings, execution backends and evaluators
    that already cached a backend.
    """
    if name in _KERNEL_FACTORIES and not overwrite:
        raise SemiringError(f"kernels for semiring {name!r} are already registered")
    _KERNEL_FACTORIES[name] = factory
    _base.kernel_registry_version += 1


def unregister_kernels(name: str) -> None:
    """Remove the kernel factory for ``name``, reverting to the generic fold.

    A no-op when no factory is registered under ``name``.
    """
    if _KERNEL_FACTORIES.pop(name, None) is not None:
        _base.kernel_registry_version += 1


def kernels_for(semiring: Semiring) -> KernelBackend:
    """Select the kernel backend for ``semiring``.

    Dispatches on the semiring's name; unknown semirings fall back to the
    generic :class:`ObjectFoldKernels`, which is always correct.
    """
    factory = _KERNEL_FACTORIES.get(semiring.name)
    if factory is not None:
        return factory(semiring)
    # Honor a dtype the subclass declares as a plain class attribute
    # (shadowing the derived Semiring.dtype property).  The instance
    # property itself must not be consulted — it is derived from the
    # backend this function is about to pick.
    declared = getattr(type(semiring), "dtype", None)
    if declared is not None and not isinstance(declared, property):
        return ObjectFoldKernels(semiring, dtype=declared)
    return ObjectFoldKernels(semiring)


register_kernels("real", Float64FieldKernels)
register_kernels("boolean", BooleanKernels)
register_kernels("natural", lambda semiring: Int64Kernels(semiring, allow_negative=False))
register_kernels("integer", Int64Kernels)
register_kernels("min_plus", TropicalKernels)
register_kernels("max_plus", TropicalKernels)
