"""Pluggable execution backends for compiled MATLANG plans.

The dense kernel layer (:mod:`repro.semiring.kernels`) decides how one matrix
operation is computed; an *execution backend* decides how matrix **values**
are represented while a compiled plan (:mod:`repro.matlang.ir`) runs.  The
plan executor is written against the small protocol below, so the same plan
can run on

* :class:`DenseExecutionBackend` — values are plain numpy arrays in the
  semiring's kernel storage dtype; every operation delegates to the kernel
  backend.  This is the default and works for every semiring (including the
  object-dtype ones).
* :class:`SparseBooleanBackend` — values are ``scipy.sparse`` CSR matrices
  over the boolean semiring.  Reachability / transitive-closure workloads on
  sparse graphs stay sparse through matmul chains and the fused
  ``power`` op, which beats the dense kernels by orders of magnitude when
  the closure itself is sparse.  Requires :mod:`scipy`; constructing the
  backend without it raises :class:`~repro.exceptions.SemiringError`.
* :class:`SparseTropicalBackend` — CSR min-plus / max-plus: stored entries
  are finite path costs, the implicit entry is the semiring zero (``±inf``).
  Sparse shortest-path workloads keep the quadratic ``inf`` sea implicit;
  matmul is a fully vectorized expand-and-reduce (the classic spgemm
  expansion with a ``minimum.reduceat`` in place of the sum).  Also
  scipy-gated.  Both sparse backends are reachable through the single
  ``"sparse"`` backend name, which dispatches on the semiring.
* :class:`BatchedDenseBackend` — values are stacked ``(B, rows, cols)``
  arrays holding one matrix per instance of a batch.  Every protocol
  operation runs the whole stack through the batched kernel layer in one
  call, which is what lets :func:`repro.matlang.ir.execute_plan_batch`
  amortize the plan's Python dispatch over ``B`` instances.  Constructed
  directly with the batch size (it is not in the name registry: a batch
  size is part of its identity).

Backend protocol
----------------
A backend is any object with the attributes / methods of
:class:`ExecutionBackend`.  Values are opaque to the executor, which runs
single instances and batches alike (:func:`repro.matlang.ir.execute_plan`
and :func:`~repro.matlang.ir.execute_plan_batch` share one interpreter): it
reads a value's per-instance ``(rows, cols)`` through ``batch_shape`` and
imports the instance matrices of a variable through
``stack_instance_matrices``.  :class:`ExecutionBackend` supplies the
single-instance defaults of both (the value's ``.shape``, and the one
matrix through ``from_dense``), so a custom backend subclasses it or
defines both.  ``from_dense`` / ``to_dense`` convert at the boundary: plan
inputs (instance matrices, pointwise-function operands) enter through
``from_dense`` and results leave through ``to_dense``, so equivalence with
the interpreted tree-walk holds entrywise regardless of the representation.

The whole-array operations (``diagonal``, ``diag_product``, ``power``,
``hadamard_power``) mirror plan ops of the same names.  Their generic
implementations are expressed through the rest of the protocol, so they are
correct over any commutative semiring; backends override them where a
direct form is cheaper.

Backends are selected by name through :func:`backend_for`;
:func:`register_backend` installs custom representations (the same
function-selection idiom as :func:`repro.semiring.kernels.register_kernels`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.exceptions import SemiringError
from repro.semiring.base import Semiring
from repro.semiring.matrix import scalar

try:  # scipy is an optional dependency: only the sparse backend needs it.
    import scipy.sparse as _sparse
except ImportError:  # pragma: no cover - exercised only on scipy-less installs
    _sparse = None

__all__ = [
    "AUTO_SPARSE_MIN_DIMENSION",
    "BatchedDenseBackend",
    "BatchedSparseBooleanBackend",
    "BatchedSparseTropicalBackend",
    "DenseExecutionBackend",
    "ExecutionBackend",
    "InstanceStatistics",
    "PhysicalPlan",
    "SparseBooleanBackend",
    "SparseTropicalBackend",
    "available_backends",
    "backend_for",
    "batched_backends_for",
    "batched_sparse_backend",
    "instance_statistics",
    "plan_physical",
    "register_backend",
    "resolve_backend",
]


def _one_per_instance(matrices, batch_size: int) -> list:
    """``matrices`` as a list, which must hold one matrix per instance."""
    matrices = list(matrices)
    if len(matrices) != batch_size:
        raise SemiringError(
            f"expected {batch_size} matrices to stack, got {len(matrices)}"
        )
    return matrices


class ExecutionBackend:
    """Base class spelling out the value protocol of the plan executor.

    Concrete backends override the representation hooks and the combining
    operations; the derived helpers (``constant``, ``diagonal``, ``power``,
    ``hadamard_power``) have generic implementations in terms of the rest.
    """

    #: Short name used by :func:`backend_for` diagnostics.
    name: str = "abstract"

    def __init__(self, semiring: Semiring) -> None:
        self.semiring = semiring
        #: Identity matrices keyed by dimension; loop iterations bind the
        #: iterator to (read-only) columns of these, exactly like the
        #: interpreter's basis cache.
        self._basis_cache: Dict[int, Any] = {}

    # -- representation boundary ----------------------------------------
    def from_dense(self, matrix: np.ndarray) -> Any:
        """Convert a dense storage-dtype array into a backend value."""
        raise NotImplementedError

    def to_dense(self, value: Any) -> np.ndarray:
        """Convert a backend value into a dense storage-dtype array.

        May return a view / shared array; callers that hand the result to
        user code must copy.
        """
        raise NotImplementedError

    def stack_instance_matrices(self, matrices) -> Any:
        """Import one carrier-validated matrix per instance as one value.

        A single-instance backend takes exactly one matrix; the batched
        backends take ``batch_size`` of them.
        """
        (matrix,) = _one_per_instance(matrices, 1)
        return self.from_dense(matrix)

    def batch_shape(self, value: Any) -> Tuple[int, int]:
        """Per-instance ``(rows, cols)`` of one value: its shape here."""
        return value.shape

    # -- constructors ----------------------------------------------------
    def zeros(self, rows: int, cols: int) -> Any:
        raise NotImplementedError

    def ones(self, rows: int, cols: int) -> Any:
        raise NotImplementedError

    def identity(self, size: int) -> Any:
        raise NotImplementedError

    def basis_column(self, size: int, index: int) -> Any:
        """The canonical vector ``b_index`` as a (never mutated) value."""
        raise NotImplementedError

    def constant(self, value: Any) -> Any:
        """A ``1 x 1`` value holding ``value`` coerced into the carrier."""
        return self.from_dense(scalar(self.semiring, value))

    # -- kernel mirror ---------------------------------------------------
    def matmul(self, left: Any, right: Any) -> Any:
        raise NotImplementedError

    def add(self, left: Any, right: Any) -> Any:
        raise NotImplementedError

    def hadamard(self, left: Any, right: Any) -> Any:
        raise NotImplementedError

    def scale(self, factor: Any, operand: Any) -> Any:
        """Scalar multiplication; ``factor`` is a ``1 x 1`` backend value."""
        raise NotImplementedError

    def transpose(self, value: Any) -> Any:
        raise NotImplementedError

    def diag(self, column: Any) -> Any:
        raise NotImplementedError

    # -- whole-array operations ------------------------------------------
    def diagonal(self, value: Any) -> Any:
        """The diagonal of a square value, as a column: ``(e o I) . 1``."""
        size = self.batch_shape(value)[0]
        return self.matmul(self.hadamard(value, self.identity(size)), self.ones(size, 1))

    def diag_product(self, value: Any) -> Any:
        """``Pi-o_v (v^T . e . v)``: the semiring product of the diagonal."""
        raise NotImplementedError

    def _iterated(self, value: Any, count: int, combine: Callable[[Any, Any], Any]) -> Any:
        """``value`` combined with itself ``count`` times, by squaring.

        Associativity of the semiring operation is all this needs; powers of
        a fixed matrix commute, so the re-association is exact.
        """
        if count < 1:
            raise SemiringError("iterated products need a positive count")
        result: Optional[Any] = None
        base = value
        remaining = count
        while remaining:
            if remaining & 1:
                result = base if result is None else combine(result, base)
            remaining >>= 1
            if remaining:
                base = combine(base, base)
        return result

    def power(self, value: Any, count: int) -> Any:
        """``Pi_v e`` with ``v`` not free in ``e``: the matrix power ``e^count``."""
        return self._iterated(value, count, self.matmul)

    def hadamard_power(self, value: Any, count: int) -> Any:
        """``Pi-o_v e`` with ``v`` not free in ``e``: the entrywise power."""
        return self._iterated(value, count, self.hadamard)


class DenseExecutionBackend(ExecutionBackend):
    """The default backend: dense arrays through the semiring's kernels.

    Works for every registered semiring because it only uses the kernel
    contract (the object-dtype fold included); primitive-dtype semirings get
    the vectorized kernels automatically.
    """

    name = "dense"

    @property
    def kernels(self):
        # Read through the semiring's version-checked cache on every op: a
        # warm read is one comparison, and re-registering a kernel factory
        # still reaches backends and evaluators that already exist.
        return self.semiring.kernels

    # -- representation --------------------------------------------------
    def from_dense(self, matrix: np.ndarray) -> np.ndarray:
        return self.kernels.ensure_storage(matrix)

    def to_dense(self, value: np.ndarray) -> np.ndarray:
        return value

    def stack_instance_matrices(self, matrices) -> np.ndarray:
        # Instance matrices are carrier-validated at construction; skip the
        # per-load re-validation exactly like the interpreted tree-walk does.
        (matrix,) = _one_per_instance(matrices, 1)
        return matrix

    # -- constructors ----------------------------------------------------
    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return self.kernels.zeros(rows, cols)

    def ones(self, rows: int, cols: int) -> np.ndarray:
        return self.kernels.ones(rows, cols)

    def identity(self, size: int) -> np.ndarray:
        return self.kernels.identity(size)

    def basis_column(self, size: int, index: int) -> np.ndarray:
        basis = self._basis_cache.get(size)
        if basis is None:
            basis = self.kernels.identity(size)
            self._basis_cache[size] = basis
        return basis[:, index : index + 1]

    # -- kernel mirror ---------------------------------------------------
    def matmul(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return self.kernels.matmul(left, right)

    def add(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return self.kernels.add_matrices(left, right)

    def hadamard(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return self.kernels.hadamard(left, right)

    def scale(self, factor: np.ndarray, operand: np.ndarray) -> np.ndarray:
        return self.kernels.scale(factor[0, 0], operand)

    def transpose(self, value: np.ndarray) -> np.ndarray:
        return value.T

    def diag(self, column: np.ndarray) -> np.ndarray:
        return self.kernels.diag(np.ascontiguousarray(column))

    # -- whole-array operations ------------------------------------------
    def diagonal(self, value: np.ndarray) -> np.ndarray:
        return value.diagonal().copy().reshape(-1, 1)

    def diag_product(self, value: np.ndarray) -> np.ndarray:
        total = self.kernels.product(value.diagonal().copy())
        return self.from_dense(scalar(self.semiring, total))


class BatchedDenseBackend(ExecutionBackend):
    """Dense execution over a whole batch: values are ``(B, rows, cols)`` stacks.

    The backend is bound to a fixed ``batch_size`` at construction; every
    value it produces or consumes carries that leading axis.  Batch-invariant
    values (constructors, constants, loop iterators, matrices shared by all
    instances) are stride-0 broadcast views, so sharing one matrix across the
    batch costs nothing — the kernels never mutate their operands.

    All operations delegate to the batched kernel layer
    (:meth:`~repro.semiring.kernels.KernelBackend.batch_matmul` and friends),
    whose generic fallback is a per-slice loop over the 2-D kernels: the
    backend is therefore correct for every registered semiring (object-dtype
    folds included) and fast exactly where the kernels vectorize.
    """

    name = "batched"

    def __init__(self, semiring: Semiring, batch_size: int) -> None:
        super().__init__(semiring)
        if batch_size < 1:
            raise SemiringError(
                f"batch size must be a positive integer, got {batch_size!r}"
            )
        self.batch_size = int(batch_size)

    @property
    def kernels(self):
        return self.semiring.kernels

    def _broadcast(self, matrix: np.ndarray) -> np.ndarray:
        return np.broadcast_to(matrix, (self.batch_size,) + matrix.shape)

    # -- representation --------------------------------------------------
    def from_dense(self, matrix: np.ndarray) -> np.ndarray:
        array = np.asarray(matrix)
        if array.ndim == 2:
            return self._broadcast(self.kernels.ensure_storage(array))
        if array.ndim == 3 and array.shape[0] == self.batch_size:
            return self.kernels.ensure_storage(array)
        raise SemiringError(
            f"batched backend of size {self.batch_size} cannot lift an array "
            f"of shape {array.shape}; expected (rows, cols) or "
            f"({self.batch_size}, rows, cols)"
        )

    def to_dense(self, value: np.ndarray) -> np.ndarray:
        return value

    def stack_instance_matrices(self, matrices) -> np.ndarray:
        """Stack one carrier-validated matrix per batch instance.

        ``np.stack`` rejects shape mismatches, which is the correct error for
        a batch whose instances were bucketed inconsistently.
        """
        return np.stack(_one_per_instance(matrices, self.batch_size))

    def batch_shape(self, value: np.ndarray) -> Tuple[int, int]:
        """Per-instance ``(rows, cols)`` of one batched value."""
        return value.shape[1], value.shape[2]

    # -- constructors ----------------------------------------------------
    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return self._broadcast(self.kernels.zeros(rows, cols))

    def ones(self, rows: int, cols: int) -> np.ndarray:
        return self._broadcast(self.kernels.ones(rows, cols))

    def identity(self, size: int) -> np.ndarray:
        return self._broadcast(self.kernels.identity(size))

    def basis_column(self, size: int, index: int) -> np.ndarray:
        basis = self._basis_cache.get(size)
        if basis is None:
            basis = self.kernels.identity(size)
            self._basis_cache[size] = basis
        return self._broadcast(basis[:, index : index + 1])

    # -- kernel mirror ---------------------------------------------------
    def matmul(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return self.kernels.batch_matmul(left, right)

    def add(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return self.kernels.batch_add(left, right)

    def hadamard(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return self.kernels.batch_hadamard(left, right)

    def scale(self, factor: np.ndarray, operand: np.ndarray) -> np.ndarray:
        # Per-instance scalar factors (B, 1, 1), a shape batch_scale checks.
        # The primitive kernels broadcast them inside one ufunc call instead
        # of building a broadcast view for the batched Hadamard product.
        return self.kernels.batch_scale(factor, operand)

    def transpose(self, value: np.ndarray) -> np.ndarray:
        return value.swapaxes(1, 2)

    def diag(self, column: np.ndarray) -> np.ndarray:
        if column.ndim != 3 or column.shape[2] != 1:
            raise SemiringError(
                f"batched diag expects a (B, n, 1) column stack, got shape {column.shape}"
            )
        size = column.shape[1]
        matrix = np.empty((self.batch_size, size, size), dtype=self.kernels.dtype)
        matrix[...] = self.semiring.zero
        indices = np.arange(size)
        matrix[:, indices, indices] = column[:, :, 0]
        return matrix

    # -- whole-array operations ------------------------------------------
    def _diagonals(self, value: np.ndarray) -> np.ndarray:
        # (B, n) copy: np.diagonal returns a read-only view and the int64 /
        # object reductions index into it per entry.
        return value.diagonal(axis1=1, axis2=2).copy()

    def diagonal(self, value: np.ndarray) -> np.ndarray:
        return self._diagonals(value)[:, :, None]

    def diag_product(self, value: np.ndarray) -> np.ndarray:
        return self.kernels.batch_product(self._diagonals(value))


class _SparseCSRBackend(ExecutionBackend):
    """Shared plumbing of the CSR backends: scipy gate and the lift cache."""

    def __init__(self, semiring: Semiring) -> None:
        if _sparse is None:
            raise SemiringError(
                "the sparse execution backend requires scipy, which is not "
                "installed; use the dense backend instead"
            )
        super().__init__(semiring)
        #: Instance matrices converted to CSR, keyed by array identity so a
        #: reused Evaluator converts each input once.  The array itself is
        #: kept alongside so the id can never be recycled while cached.
        #: Bounded FIFO: a long-lived backend sweeping many instances (the
        #: CompiledWorkload pattern) must not pin every matrix it ever saw.
        self._lift_cache: "OrderedDict[int, Any]" = OrderedDict()

    _LIFT_CACHE_CAPACITY = 64

    def stack_instance_matrices(self, matrices) -> Any:
        (matrix,) = _one_per_instance(matrices, 1)
        cached = self._lift_cache.get(id(matrix))
        if cached is not None and cached[0] is matrix:
            self._lift_cache.move_to_end(id(matrix))
            return cached[1]
        lifted = self.from_dense(matrix)
        self._lift_cache[id(matrix)] = (matrix, lifted)
        while len(self._lift_cache) > self._LIFT_CACHE_CAPACITY:
            self._lift_cache.popitem(last=False)
        return lifted

    def _check_shapes(self, left: Any, right: Any, operation: str) -> None:
        if operation == "multiply":
            if left.shape[1] != right.shape[0]:
                raise SemiringError(
                    f"cannot multiply matrices of shapes {left.shape} and {right.shape}"
                )
        elif left.shape != right.shape:
            raise SemiringError(
                f"cannot {operation} matrices of shapes {left.shape} and {right.shape}"
            )

    @staticmethod
    def _empty(rows: int, cols: int) -> Any:
        """An all-implicit CSR value of *raw* (stored) shape.

        Internal result paths must build empties through this rather than
        ``self.zeros``: the batched subclasses redefine ``zeros`` to take
        per-block shapes, but the inherited kernels already hold the full
        (block-diagonal) shape of their result.
        """
        return _sparse.csr_matrix((rows, cols), dtype=np.float64)


class SparseBooleanBackend(_SparseCSRBackend):
    """CSR-matrix values for the boolean semiring (reachability workloads).

    Matrices are ``scipy.sparse.csr_matrix`` instances with ``float64`` data
    canonicalised to ``1.0`` after every operation: sums of positive products
    can never cancel, so "stored entry" is exactly "semiring one", and no
    counting overflow can flip an entry back to zero.  Dense conversions at
    the boundary return ``bool`` arrays matching the dense kernel storage.
    """

    name = "sparse"

    def __init__(self, semiring: Semiring) -> None:
        if semiring.name != "boolean":
            raise SemiringError(
                f"the sparse boolean CSR backend only supports the boolean "
                f"semiring, not {semiring.name!r}"
            )
        super().__init__(semiring)

    @staticmethod
    def _canonical(matrix):
        if matrix.nnz:
            matrix.data.fill(1.0)
        return matrix

    # -- representation --------------------------------------------------
    def from_dense(self, matrix: np.ndarray) -> Any:
        dense = self.semiring.kernels.ensure_storage(np.asarray(matrix))
        return self._canonical(_sparse.csr_matrix(dense.astype(np.float64)))

    def to_dense(self, value: Any) -> np.ndarray:
        return value.toarray() != 0

    # -- constructors ----------------------------------------------------
    def zeros(self, rows: int, cols: int) -> Any:
        return _sparse.csr_matrix((rows, cols), dtype=np.float64)

    def ones(self, rows: int, cols: int) -> Any:
        return _sparse.csr_matrix(np.ones((rows, cols), dtype=np.float64))

    def identity(self, size: int) -> Any:
        return _sparse.identity(size, dtype=np.float64, format="csr")

    def basis_column(self, size: int, index: int) -> Any:
        basis = self._basis_cache.get(size)
        if basis is None:
            basis = _sparse.identity(size, dtype=np.float64, format="csc")
            self._basis_cache[size] = basis
        return basis[:, index : index + 1].tocsr()

    # -- kernel mirror ---------------------------------------------------
    def matmul(self, left: Any, right: Any) -> Any:
        self._check_shapes(left, right, "multiply")
        return self._canonical(left @ right)

    def add(self, left: Any, right: Any) -> Any:
        self._check_shapes(left, right, "add")
        return self._canonical((left + right).tocsr())

    def hadamard(self, left: Any, right: Any) -> Any:
        self._check_shapes(left, right, "take Hadamard product of")
        return self._canonical(left.multiply(right).tocsr())

    def scale(self, factor: Any, operand: Any) -> Any:
        if bool(factor.toarray()[0, 0]):
            return operand.copy()
        return self._empty(*operand.shape)

    def transpose(self, value: Any) -> Any:
        return value.transpose().tocsr()

    def diag(self, column: Any) -> Any:
        entries = column.toarray().ravel() != 0
        return self._canonical(
            _sparse.diags(entries.astype(np.float64), format="csr")
        )

    # -- whole-array operations ------------------------------------------
    def diag_product(self, value: Any) -> Any:
        return self.constant(bool(np.all(value.diagonal() != 0)))

    def hadamard_power(self, value: Any, count: int) -> Any:
        if count < 1:
            raise SemiringError("iterated products need a positive count")
        return value.copy()


class SparseTropicalBackend(_SparseCSRBackend):
    """CSR-matrix values for min-plus / max-plus (sparse shortest paths).

    Stored entries are finite carrier values; the implicit entry is the
    semiring zero (``+inf`` for min-plus, ``-inf`` for max-plus), so the
    quadratic sea of "no path" entries never materialises.  This flips the
    usual sparse convention — the implicit value is an annihilator, not a
    numeric ``0`` — so none of scipy's arithmetic applies directly; the
    operations below work on the index structure instead:

    * ``matmul`` is the spgemm expansion: every stored ``(i, k)`` of the left
      operand meets every stored ``(k, j)`` row of the right through one
      vectorized gather, and duplicates reduce through
      ``minimum.reduceat`` (the semiring sum) instead of addition;
    * ``add`` is a union with ``min``/``max`` on collisions, ``hadamard`` is
      an intersection with ``+`` (``x + inf = inf`` kills entries missing
      from either side — exactly the stored-pattern intersection).

    Entries are pruned back to implicit whenever an operation can introduce
    the semiring zero, so ``nnz`` always counts genuinely reachable pairs.
    """

    name = "sparse"

    def __init__(self, semiring: Semiring) -> None:
        super().__init__(semiring)
        try:
            zero = float(semiring.zero)
        except (TypeError, ValueError):
            zero = None
        if zero == np.inf:
            self._minimum = np.minimum
        elif zero == -np.inf:
            self._minimum = np.maximum
        else:
            raise SemiringError(
                f"the sparse CSR backends support the boolean and tropical "
                f"(min-plus / max-plus) semirings, not {semiring.name!r}"
            )
        self._zero = zero

    # -- representation --------------------------------------------------
    def from_dense(self, matrix: np.ndarray) -> Any:
        dense = self.semiring.kernels.ensure_storage(np.asarray(matrix))
        mask = dense != self._zero
        rows, cols = np.nonzero(mask)
        data = np.asarray(dense[rows, cols], dtype=np.float64)
        return _sparse.csr_matrix((data, (rows, cols)), shape=dense.shape)

    def to_dense(self, value: Any) -> np.ndarray:
        dense = np.full(value.shape, self._zero, dtype=np.float64)
        coo = value.tocoo()
        dense[coo.row, coo.col] = coo.data
        return dense

    # -- COO reduction helpers -------------------------------------------
    def _from_coo_reduced(self, rows, cols, data, shape, reducer) -> Any:
        """Build a CSR matrix, combining duplicate cells with ``reducer``."""
        if len(data) == 0:
            return self._empty(*shape)
        keys = rows.astype(np.int64) * shape[1] + cols
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        data = np.asarray(data, dtype=np.float64)[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        reduced = reducer.reduceat(data, starts)
        unique = keys[starts]
        return _sparse.csr_matrix(
            (reduced, (unique // shape[1], unique % shape[1])), shape=shape
        )

    @staticmethod
    def _entry_keys(matrix) -> np.ndarray:
        """Row-major cell keys of a canonical CSR matrix."""
        rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
        return rows * np.int64(matrix.shape[1]) + matrix.indices

    # -- constructors ----------------------------------------------------
    def zeros(self, rows: int, cols: int) -> Any:
        return _sparse.csr_matrix((rows, cols), dtype=np.float64)

    def ones(self, rows: int, cols: int) -> Any:
        # The semiring one is 0.0, which must be *stored*: an implicit entry
        # means the zero (infinity), so the ones matrix is fully explicit.
        return _sparse.csr_matrix(
            (
                np.zeros(rows * cols, dtype=np.float64),
                np.tile(np.arange(cols), rows),
                np.arange(0, rows * cols + 1, cols),
            ),
            shape=(rows, cols),
        )

    def identity(self, size: int) -> Any:
        indices = np.arange(size)
        return _sparse.csr_matrix(
            (np.zeros(size, dtype=np.float64), (indices, indices)), shape=(size, size)
        )

    def basis_column(self, size: int, index: int) -> Any:
        return _sparse.csr_matrix(
            (np.zeros(1, dtype=np.float64), ([index], [0])), shape=(size, 1)
        )

    # -- kernel mirror ---------------------------------------------------
    def matmul(self, left: Any, right: Any) -> Any:
        self._check_shapes(left, right, "multiply")
        shape = (left.shape[0], right.shape[1])
        left = left.tocsr()
        right = right.tocsr()
        if left.nnz == 0 or right.nnz == 0:
            return self._empty(*shape)
        # spgemm expansion: pair every stored (i, k) with the stored row k of
        # the right operand through one flat gather.
        left_rows = np.repeat(np.arange(shape[0]), np.diff(left.indptr))
        starts = right.indptr[left.indices]
        counts = right.indptr[left.indices + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return self._empty(*shape)
        exclusive = np.cumsum(counts) - counts
        gather = np.arange(total) - np.repeat(exclusive, counts) + np.repeat(starts, counts)
        rows = np.repeat(left_rows, counts)
        cols = right.indices[gather]
        data = np.repeat(left.data, counts) + right.data[gather]
        return self._from_coo_reduced(rows, cols, data, shape, self._minimum)

    def add(self, left: Any, right: Any) -> Any:
        self._check_shapes(left, right, "add")
        left = left.tocoo()
        right = right.tocoo()
        return self._from_coo_reduced(
            np.concatenate([left.row, right.row]),
            np.concatenate([left.col, right.col]),
            np.concatenate([left.data, right.data]),
            left.shape,
            self._minimum,
        )

    def _canonical_csr(self, matrix) -> Any:
        """CSR with one stored entry per cell, without mutating the input.

        Everything this backend builds is canonical already (the COO
        reducers deduplicate before construction), so this is a cheap flag
        check; a non-canonical stray combines duplicates with the *semiring*
        sum — scipy's own ``sum_duplicates`` would add them numerically,
        which is wrong here.
        """
        matrix = matrix.tocsr()
        if not matrix.has_canonical_format:
            coo = matrix.tocoo()
            matrix = self._from_coo_reduced(
                coo.row, coo.col, coo.data, matrix.shape, self._minimum
            )
        return matrix

    def hadamard(self, left: Any, right: Any) -> Any:
        self._check_shapes(left, right, "take Hadamard product of")
        left = self._canonical_csr(left)
        right = self._canonical_csr(right)
        common, left_at, right_at = np.intersect1d(
            self._entry_keys(left),
            self._entry_keys(right),
            assume_unique=True,
            return_indices=True,
        )
        if len(common) == 0:
            return self._empty(*left.shape)
        data = left.data[left_at] + right.data[right_at]
        cols_count = left.shape[1]
        return _sparse.csr_matrix(
            (data, (common // cols_count, common % cols_count)), shape=left.shape
        )

    def scale(self, factor: Any, operand: Any) -> Any:
        value = float(self.to_dense(factor)[0, 0])
        if value == self._zero:
            return self._empty(*operand.shape)
        result = operand.tocsr(copy=True)
        result.data = result.data + value
        return result

    def transpose(self, value: Any) -> Any:
        return value.transpose().tocsr()

    def diag(self, column: Any) -> Any:
        entries = self.to_dense(column).ravel()
        stored = np.flatnonzero(entries != self._zero)
        size = column.shape[0]
        return _sparse.csr_matrix(
            (entries[stored], (stored, stored)), shape=(size, size)
        )

    # -- whole-array operations ------------------------------------------
    def _diagonal(self, value: Any) -> np.ndarray:
        # scipy's .diagonal() fills missing cells with numeric 0 — wrong
        # here, where missing means the semiring zero (infinity).
        diagonal = np.full(min(value.shape), self._zero, dtype=np.float64)
        coo = value.tocoo()
        hits = coo.row == coo.col
        diagonal[coo.row[hits]] = coo.data[hits]
        return diagonal

    def diag_product(self, value: Any) -> Any:
        # One implicit (infinite) diagonal entry annihilates the product —
        # float summation delivers exactly that.
        return self.constant(float(self._diagonal(value).sum()))


def _sparse_backend(semiring: Semiring) -> ExecutionBackend:
    """The ``"sparse"`` name: CSR representation picked by semiring."""
    if semiring.name == "boolean":
        return SparseBooleanBackend(semiring)
    return SparseTropicalBackend(semiring)


class _BatchedSparseCSRBackend(_SparseCSRBackend):
    """Block-diagonal CSR batching over the single-instance sparse kernels.

    A batch of ``B`` sparse ``(rows, cols)`` instances is one
    ``(B*rows, B*cols)`` block-diagonal CSR matrix: instance ``b`` occupies
    rows ``[b*rows, (b+1)*rows)`` and columns ``[b*cols, (b+1)*cols)``.
    Block-diagonal structure is closed under every combining operation the
    plan executor uses — matmul and the repeated-squaring power ladder
    (blocks compose pairwise, cross-block products never meet), add and
    hadamard (entrywise), transpose — so the inherited single-matrix
    spgemm / union-min / intersection-plus kernels run verbatim on the big
    operand and one kernel call covers the whole batch.  Only the
    constructors (which take per-block shapes), the reductions (which must
    stay block-local), scalar broadcasting, and the dense conversions need
    the block-aware overrides below.

    Scalar results are ``(B, B)`` diagonal matrices — the block-diagonal
    embedding of B per-instance ``1 x 1`` values — so a ``1^T . diagonal``
    feeding ``scale`` composes exactly like it does per instance.
    """

    name = "sparse-batched"

    def __init__(self, semiring: Semiring, batch_size: int) -> None:
        if batch_size < 1:
            raise SemiringError(
                f"batch size must be a positive integer, got {batch_size!r}"
            )
        super().__init__(semiring)
        self.batch_size = int(batch_size)

    # -- block bookkeeping ------------------------------------------------
    def batch_shape(self, value: Any) -> Tuple[int, int]:
        """Per-instance ``(rows, cols)`` of one block-diagonal value."""
        rows, cols = value.shape
        return rows // self.batch_size, cols // self.batch_size

    def _scalar_diagonal(self, values: np.ndarray) -> Any:
        """The batch of per-instance scalars as a ``(B, B)`` diagonal CSR."""
        values = np.asarray(values, dtype=np.float64)
        stored = np.flatnonzero(values != self.semiring.zero)
        return _sparse.csr_matrix(
            (values[stored], (stored, stored)),
            shape=(self.batch_size, self.batch_size),
        )

    # -- representation --------------------------------------------------
    def from_dense(self, matrix: np.ndarray) -> Any:
        array = np.asarray(matrix)
        if array.ndim == 2:
            # One matrix shared by the whole batch: replicate along the
            # diagonal (the sparse analogue of the dense stride-0 broadcast).
            block = super().from_dense(array)
            return _sparse.block_diag([block] * self.batch_size, format="csr")
        if array.ndim != 3 or array.shape[0] != self.batch_size:
            raise SemiringError(
                f"batched sparse backend of size {self.batch_size} cannot lift "
                f"an array of shape {array.shape}; expected (rows, cols) or "
                f"({self.batch_size}, rows, cols)"
            )
        stack = self.semiring.kernels.ensure_storage(array)
        batch, rows, cols = stack.shape
        b, i, j = np.nonzero(stack != self.semiring.zero)
        data = np.asarray(stack[b, i, j], dtype=np.float64)
        return _sparse.csr_matrix(
            (data, (b * rows + i, b * cols + j)),
            shape=(batch * rows, batch * cols),
        )

    def to_dense(self, value: Any) -> np.ndarray:
        rows, cols = self.batch_shape(value)
        stack = np.full(
            (self.batch_size, rows, cols),
            self.semiring.zero,
            dtype=self.semiring.kernels.dtype,
        )
        coo = value.tocoo()
        if coo.nnz:
            b = coo.row // rows
            stack[b, coo.row - b * rows, coo.col - b * cols] = coo.data
        return stack

    def stack_instance_matrices(self, matrices) -> Any:
        """Assemble one carrier-validated matrix per instance block-diagonally.

        ``np.stack`` rejects shape mismatches, which is the correct error for
        a batch whose instances were bucketed inconsistently.
        """
        return self.from_dense(np.stack(_one_per_instance(matrices, self.batch_size)))

    # -- constructors (per-block shapes in, block-diagonal values out) ----
    def zeros(self, rows: int, cols: int) -> Any:
        return self._empty(rows * self.batch_size, cols * self.batch_size)

    def ones(self, rows: int, cols: int) -> Any:
        block = super().ones(rows, cols)
        return _sparse.block_diag([block] * self.batch_size, format="csr")

    def identity(self, size: int) -> Any:
        # The big identity *is* the block-diagonal stack of B identities.
        return super().identity(size * self.batch_size)

    def basis_column(self, size: int, index: int) -> Any:
        column = super().basis_column(size, index)
        return _sparse.block_diag([column] * self.batch_size, format="csr")

    # -- block-local reductions ------------------------------------------
    def diag(self, column: Any) -> Any:
        # ``column`` is a (B*rows, B) block-diagonal column stack: entry
        # (i, i // rows).  Placing each stored entry at (i, i) is exactly
        # the per-block diag, and implicit cells stay implicit.
        size = column.shape[0]
        coo = column.tocoo()
        return _sparse.csr_matrix(
            (coo.data, (coo.row, coo.row)), shape=(size, size)
        )


class BatchedSparseBooleanBackend(_BatchedSparseCSRBackend, SparseBooleanBackend):
    """Block-diagonal CSR batching for the boolean semiring."""

    name = "sparse-batched"

    def scale(self, factor: Any, operand: Any) -> Any:
        rows, _ = self.batch_shape(operand)
        keep_block = np.zeros(self.batch_size, dtype=bool)
        fcoo = factor.tocoo()
        keep_block[fcoo.row] = fcoo.data != 0
        coo = operand.tocoo()
        keep = keep_block[coo.row // max(rows, 1)]
        return _sparse.csr_matrix(
            (coo.data[keep], (coo.row[keep], coo.col[keep])),
            shape=operand.shape,
        )

    def diag_product(self, value: Any) -> Any:
        rows, _ = self.batch_shape(value)
        per_block = (value.diagonal() != 0).reshape(self.batch_size, rows)
        return self._scalar_diagonal(np.all(per_block, axis=1).astype(np.float64))


class BatchedSparseTropicalBackend(_BatchedSparseCSRBackend, SparseTropicalBackend):
    """Block-diagonal CSR batching for min-plus / max-plus."""

    name = "sparse-batched"

    def scale(self, factor: Any, operand: Any) -> Any:
        rows, _ = self.batch_shape(operand)
        scalars = np.full(self.batch_size, self._zero, dtype=np.float64)
        fcoo = factor.tocoo()
        scalars[fcoo.row] = fcoo.data
        coo = operand.tocoo()
        block = scalars[coo.row // max(rows, 1)]
        keep = block != self._zero
        return _sparse.csr_matrix(
            (coo.data[keep] + block[keep], (coo.row[keep], coo.col[keep])),
            shape=operand.shape,
        )

    def diag_product(self, value: Any) -> Any:
        rows, _ = self.batch_shape(value)
        per_block = self._diagonal(value).reshape(self.batch_size, rows)
        # One implicit (infinite) diagonal entry annihilates its block's
        # product — float summation delivers exactly that per row.
        return self._scalar_diagonal(per_block.sum(axis=1))


def batched_sparse_backend(semiring: Semiring, batch_size: int) -> ExecutionBackend:
    """Block-diagonal CSR batch backend, representation picked by semiring."""
    if semiring.name == "boolean":
        return BatchedSparseBooleanBackend(semiring, batch_size)
    return BatchedSparseTropicalBackend(semiring, batch_size)


def batched_backends_for(
    semiring: Semiring, batch_size: int, tags=("dense",)
) -> Dict[str, "ExecutionBackend"]:
    """Batched backend instances for the physical tags ``tags``.

    The mapping feeds :func:`repro.matlang.ir.execute_plan_batch`: untagged
    ops run on the first tag's backend, conversion ops cross between them.
    """
    mapping: Dict[str, ExecutionBackend] = {}
    for tag in tags:
        if tag == "dense":
            mapping[tag] = BatchedDenseBackend(semiring, batch_size)
        elif tag == "sparse":
            mapping[tag] = batched_sparse_backend(semiring, batch_size)
        else:
            raise SemiringError(
                f"no batched execution backend for tag {tag!r}"
            )
    return mapping


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
BackendFactory = Callable[[Semiring], ExecutionBackend]

_BACKEND_FACTORIES: Dict[str, BackendFactory] = {
    "dense": DenseExecutionBackend,
    "sparse": _sparse_backend,
}

#: Guards the factory registry: backend selection runs on every thread the
#: service engine serves, and an unsynchronized check-then-insert in
#: :func:`register_backend` (or a registration racing a lookup) could lose
#: an installation or observe a half-updated registry.
_BACKEND_REGISTRY_LOCK = threading.RLock()


def register_backend(name: str, factory: BackendFactory, overwrite: bool = False) -> None:
    """Install ``factory`` as the execution backend named ``name``."""
    with _BACKEND_REGISTRY_LOCK:
        if name in _BACKEND_FACTORIES and not overwrite:
            raise SemiringError(f"execution backend {name!r} is already registered")
        _BACKEND_FACTORIES[name] = factory


def available_backends() -> tuple:
    """Names of all registered execution backends, sorted."""
    with _BACKEND_REGISTRY_LOCK:
        return tuple(sorted(_BACKEND_FACTORIES))


def backend_for(semiring: Semiring, name: str = "dense") -> ExecutionBackend:
    """Instantiate the execution backend called ``name`` for ``semiring``."""
    with _BACKEND_REGISTRY_LOCK:
        try:
            factory = _BACKEND_FACTORIES[name]
        except KeyError:
            known = ", ".join(sorted(_BACKEND_FACTORIES))
            raise SemiringError(
                f"unknown execution backend {name!r}; known backends: {known}"
            ) from None
    return factory(semiring)


# ----------------------------------------------------------------------
# Physical planning: adaptive per-plan backend selection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InstanceStatistics:
    """What the physical planner knows about one instance.

    ``density`` is the fraction of entries that differ from the semiring
    zero across all matrices with more than one entry (for the boolean
    semiring that is the edge density; for the tropical semirings the
    fraction of finite entries).  It is ``None`` for semirings whose carrier
    the planner does not profile (no sparse representation exists for them).
    """

    semiring: str
    dtype: str
    max_dimension: int
    entries: int
    density: Optional[float]
    #: Per-matrix stored-entry fractions (same profiling pass), so the
    #: per-op planner can tell a sparse adjacency matrix from a dense
    #: feature matrix inside one instance.  ``None`` for unprofiled
    #: semirings and for statistics built by older callers.
    densities: Optional[Dict[str, float]] = None


#: Semirings with a CSR execution backend (see ``_sparse_backend``).
SPARSE_CAPABLE_SEMIRINGS = frozenset({"boolean", "min_plus", "max_plus"})

#: Below this largest dimension the dense kernels win on constant factors
#: regardless of density, so adaptive selection never goes sparse.
AUTO_SPARSE_MIN_DIMENSION = 64

#: Plan opcodes whose cost scales with the matrix product — the workloads a
#: sparse representation can actually accelerate.
_MULTIPLICATIVE_OPCODES = frozenset({"matmul", "power", "loop", "hadamard_power"})


def instance_statistics(instance) -> InstanceStatistics:
    """Profile an instance for the physical planner.

    One full pass over the instance matrices (cached by callers that select
    repeatedly — see ``Evaluator`` and ``CompiledWorkload``).
    """
    semiring = instance.semiring
    max_dimension = max(
        (size for size in instance.dimensions.values()), default=1
    )
    entries = 0
    stored = 0
    profiled = semiring.name in SPARSE_CAPABLE_SEMIRINGS
    per_matrix: Dict[str, float] = {}
    if profiled:
        zero = semiring.zero
        for name in instance.matrices:
            matrix = instance.matrix(name)
            if matrix.size <= 1:
                continue
            count = int(np.count_nonzero(matrix != zero))
            entries += matrix.size
            stored += count
            per_matrix[name] = count / matrix.size
    density = (stored / entries) if (profiled and entries) else None
    return InstanceStatistics(
        semiring=semiring.name,
        dtype=str(np.dtype(semiring.dtype)),
        max_dimension=int(max_dimension),
        entries=int(entries),
        density=density,
        densities=per_matrix if profiled else None,
    )


def resolve_backend(semiring: Semiring, backend) -> ExecutionBackend:
    """Normalise a backend argument against ``semiring``.

    ``backend`` may be ``None`` (the dense default), a registered backend
    name, or an :class:`ExecutionBackend` instance — which must be bound to
    ``semiring``: silently running one semiring's plan on another semiring's
    backend would compute the wrong algebra without any error.  This is the
    single resolution policy shared by the evaluator and the experiment
    harness.
    """
    if backend is None:
        return backend_for(semiring, "dense")
    if isinstance(backend, str):
        return backend_for(semiring, backend)
    if backend.semiring != semiring:
        raise SemiringError(
            f"execution backend is bound to semiring "
            f"{backend.semiring.name!r}, but the instance uses "
            f"{semiring.name!r}"
        )
    return backend


# ----------------------------------------------------------------------
# Per-op physical planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhysicalPlan:
    """The outcome of per-op physical planning.

    ``plan`` is the executable plan: the caller's plan object itself when
    every op landed on one backend (so identity-keyed caches and batch
    grouping keep working), or a rewritten copy with per-op ``backend``
    tags and inserted ``to_dense`` / ``to_sparse`` conversion ops when the
    assignment is mixed.  ``backends`` maps the tags the plan uses to live
    backend instances; ``default_tag`` names the backend untagged ops run
    on (and the only backend of a uniform plan).
    """

    plan: Any
    backends: Dict[str, ExecutionBackend]
    default_tag: str
    notes: Tuple[str, ...]

    @property
    def backend(self) -> ExecutionBackend:
        """The default backend (the single backend of a uniform plan)."""
        return self.backends[self.default_tag]

    @property
    def mixed(self) -> bool:
        """Whether ops are split across more than one backend."""
        return len(self.backends) > 1

    @property
    def batch_mode(self) -> Optional[str]:
        """How this plan can join a batched execution.

        ``"dense"`` — stacked ``(B, rows, cols)`` arrays; ``"sparse"`` —
        one block-diagonal CSR per operand; ``"mixed"`` — both, with the
        spliced conversion ops crossing representations on the whole
        batch; ``None`` — a custom registered backend is involved, so the
        plan must run per instance.
        """
        tags = set(self.backends)
        sparse = self.backends.get("sparse")
        if sparse is not None and not isinstance(sparse, _SparseCSRBackend):
            return None
        if tags == {"dense"}:
            return "dense"
        if tags == {"sparse"}:
            return "sparse"
        if tags == {"dense", "sparse"}:
            return "mixed"
        return None

    def batched_backends(self, batch_size: int) -> Dict[str, ExecutionBackend]:
        """Live batched backends for every tag this plan's ops use."""
        if self.batch_mode is None:
            raise SemiringError(
                "the plan uses a backend with no batched counterpart"
            )
        return batched_backends_for(
            self.backend.semiring, batch_size, tuple(self.backends)
        )

    @property
    def result_backend(self) -> ExecutionBackend:
        """The backend hosting the result value (for the final ``to_dense``)."""
        op = self.plan.ops[self.plan.result]
        tag = op.backend or self.default_tag
        return self.backends[tag]


#: Opcodes costed as one pass over the stored entries of their operands.
_ELEMENTWISE_OPCODES = frozenset(
    {
        "add",
        "hadamard",
        "scale",
        "transpose",
        "diag",
        "diagonal",
        "diag_product",
        "apply",
    }
)


class _PlanCoster:
    """Per-op cost and density estimation over one (sub-)plan.

    Densities are representation-independent estimates of the value
    structure, propagated with saturating rules chosen to keep the proven
    whole-plan decisions: ``matmul`` grows density as ``min(1, dl*dr*k)``
    (the expected fill of one product — deliberately *not* the
    independence estimate ``1-(1-dl*dr)^k``, which saturates structured
    closures to dense and would push reachability workloads off the sparse
    backend), and ``power`` is costed as its ``log2`` squaring ladder with
    the density *evolving per step* — each squaring's fill feeds the next
    step's work term.  The per-step fill rule discounts a one-entry-per-row
    *backbone* (``1/k``) before squaring: ``b' = min(1, b^2 * k)`` with
    ``b = d - min(d, 1/k)``, because a permutation or reflexive-diagonal
    skeleton composes to more skeleton, not to quadratic fill.  The
    evolving ladder therefore keeps structured iteration cheap (a
    permutation stays at its fixed point, and a reflexive closure such as
    ``(cycles + I)^n`` keeps its extra diagonal without blowing up) while
    anything meaningfully above one off-structure entry per row saturates
    dense within a step or two, so long sparse prefixes no longer hide a
    dense intermediate blowup from the coster.
    """

    def __init__(self, model, matrix_density, weight) -> None:
        self.model = model
        self.matrix_density = matrix_density
        self.weight = weight

    def shape(self, op) -> Tuple[int, int]:
        weight = self.weight
        if op.type is None:
            return weight(None), weight(None)
        return weight(op.type[0]), weight(op.type[1])

    def inner_weight(self, ops, op) -> int:
        left = ops[op.inputs[0]]
        if left.type is None:
            return self.weight(None)
        return self.weight(left.type[1])

    @staticmethod
    def fill_ladder(density, inner, steps):
        """Per-step output densities of a repeated-squaring ladder.

        Quadratic fill applies only to the density in excess of a
        one-entry-per-row backbone (``1/inner``): permutation and diagonal
        structure composes to more of the same, never to fill.
        """
        backbone = min(density, 1.0 / max(float(inner), 1.0))
        excess = density - backbone
        ladder = []
        for _ in range(steps):
            excess = min(1.0, excess * excess * inner)
            density = min(1.0, backbone + excess)
            ladder.append(density)
        return ladder

    def densities(self, plan, captures=(), iterator_density=1.0):
        """Estimated result density per register of ``plan``."""
        ops = plan.ops
        out: list = []
        for op in ops:
            opcode = op.opcode
            rows, cols = self.shape(op)
            if opcode == "load":
                d = self.matrix_density(op.name)
            elif opcode in ("const", "ones", "ones_type", "apply"):
                d = 1.0
            elif opcode in ("identity_of", "identity_sym"):
                d = 1.0 / max(rows, 1)
            elif opcode == "iterator":
                d = iterator_density
            elif opcode in ("accumulator", "loop"):
                d = 1.0
            elif opcode == "capture":
                d = captures[op.value] if op.value < len(captures) else 1.0
            elif opcode == "matmul":
                inner = self.inner_weight(ops, op)
                d = min(
                    1.0, out[op.inputs[0]] * out[op.inputs[1]] * inner
                )
            elif opcode == "add":
                d = min(1.0, out[op.inputs[0]] + out[op.inputs[1]])
            elif opcode == "hadamard":
                d = out[op.inputs[0]] * out[op.inputs[1]]
            elif opcode == "scale":
                d = out[op.inputs[1]]
            elif opcode == "power":
                # Density after the squaring ladder: iterate the
                # backbone-discounted fill rule once per squaring.
                inner = self.inner_weight(ops, op)
                steps = max(1, int(self.weight(op.symbol)).bit_length())
                d = self.fill_ladder(out[op.inputs[0]], inner, steps)[-1]
            elif opcode == "diag":
                d = out[op.inputs[0]] / max(rows, 1)
            elif opcode == "diag_product":
                d = 1.0
            elif op.inputs:
                d = out[op.inputs[0]]
            else:
                d = 1.0
            out.append(max(0.0, min(1.0, d)))
        return out

    def op_cost(self, ops, op, densities, tag: str) -> float:
        """Estimated cost of one op on the backend named ``tag``."""
        unit = self.model.unit
        opcode = op.opcode
        rows, cols = self.shape(op)
        entries = rows * cols
        sparse = tag == "sparse"

        def stored(fraction: float) -> float:
            return max(1.0, entries * (fraction if sparse else 1.0))

        if opcode == "load":
            if not sparse:
                return 0.0  # dense loads reuse the validated instance array
            return stored(self.matrix_density(op.name)) * unit("sparse.construct")
        if opcode in ("const", "ones", "ones_type", "identity_of", "identity_sym"):
            fraction = 1.0 / max(rows, 1) if "identity" in opcode else 1.0
            return stored(fraction) * unit(f"{tag}.construct")
        if opcode in ("iterator", "accumulator", "capture"):
            return 0.0
        if opcode == "matmul":
            inner = self.inner_weight(ops, op)
            work = float(rows * inner * cols)
            if sparse:
                work *= densities[op.inputs[0]] * densities[op.inputs[1]]
            return max(1.0, work) * unit(f"{tag}.matmul")
        if opcode == "power":
            inner = self.inner_weight(ops, op)
            count = self.weight(op.symbol)
            steps = max(1, int(count).bit_length())
            base = float(rows * inner * cols)
            if not sparse:
                return max(1.0, base * steps) * unit(f"{tag}.matmul")
            # Per-step squaring ladder at the *evolving* density: each
            # squaring pays for its operands' current fill, and its output
            # fill becomes the next step's density.  Costing every step at
            # the input density would let a long sparse prefix hide the
            # dense intermediates a moderately dense closure produces
            # after one or two squarings.
            density = densities[op.inputs[0]]
            work = 0.0
            for next_density in self.fill_ladder(density, inner, steps):
                work += base * density * density
                density = next_density
            return max(1.0, work) * unit(f"{tag}.matmul")
        if opcode == "hadamard_power":
            steps = max(1, int(self.weight(op.symbol)).bit_length())
            return stored(densities[op.inputs[0]]) * steps * unit(f"{tag}.elementwise")
        if opcode == "loop":
            count = self.weight(op.symbol)
            body_captures = [densities[register] for register in op.captures]
            body_cost, _ = self.plan_cost(
                op.body, tag, body_captures, 1.0 / max(count, 1)
            )
            return count * body_cost
        if opcode in _ELEMENTWISE_OPCODES:
            fraction = 1.0
            if sparse:
                fraction = 0.0
                for register in op.inputs:
                    fraction = max(fraction, densities[register])
                fraction = max(fraction, 1e-3)
            return stored(fraction) * unit(f"{tag}.elementwise")
        return float(max(1.0, entries)) * unit(f"{tag}.elementwise")

    def plan_cost(self, plan, tag, captures=(), iterator_density=1.0):
        """Total estimated cost of running a whole (sub-)plan on ``tag``."""
        densities = self.densities(plan, captures, iterator_density)
        total = 0.0
        for op in plan.ops:
            total += self.op_cost(plan.ops, op, densities, tag)
        return total, densities[plan.result]


def plan_physical(
    plan,
    instance,
    requested=None,
    statistics: Optional[InstanceStatistics] = None,
    profile=None,
    batch_size: int = 1,
) -> PhysicalPlan:
    """Assign an execution backend to every op of ``plan`` for ``instance``.

    This is the physical-planning stage of the staged optimizer.  A
    concrete ``requested`` backend (name or instance) is honoured verbatim
    through :func:`resolve_backend`.  Otherwise gates decide whether sparse
    execution is on the table at all (semiring capability, scipy
    availability, profile-calibrated size and density thresholds, a
    multiplication-shaped op to accelerate), and each top-level op is
    costed on both representations under the active
    :class:`~repro.profile.model.CostProfile` — with per-register density
    propagation seeded from the instance's per-matrix densities — and
    assigned the cheaper backend, with explicit conversion ops inserted
    (and charged for) wherever a value crosses representations.  A sparse
    reachability prefix can therefore feed a dense epilogue inside one
    plan.

    Uniform outcomes return the caller's plan object untouched, so plan
    identity (caches, batch grouping) is preserved exactly as before.

    ``batch_size`` costs the plan as one member of a batched execution of
    that width: fixed per-kernel-call overheads (conversion dispatch above
    all) are paid once per batch, so their per-instance share shrinks as
    ``1/B`` and borderline plans flip to the representation the batch
    amortizes — a group of sparse instances keeps its sparse (or mixed)
    assignment where per-instance costing would have rounded it to dense.
    """
    semiring = instance.semiring
    if requested is not None and requested != "auto":
        backend = resolve_backend(semiring, requested)
        label = requested if isinstance(requested, str) else backend.name
        return PhysicalPlan(
            plan,
            {backend.name: backend},
            backend.name,
            (f"backend {label!r} pinned by the caller",),
        )

    if profile is None:
        from repro.profile import active_profile

        profile = active_profile()

    def dense(reason: str) -> PhysicalPlan:
        return PhysicalPlan(
            plan,
            {"dense": backend_for(semiring, "dense")},
            "dense",
            (f"auto-selected dense: {reason}",),
        )

    # The gates that need only the semiring and the dimensions come first,
    # so a plan that cannot go sparse never pays the density profile.
    min_dimension = int(profile.sparse_min_dimension)
    if semiring.name not in SPARSE_CAPABLE_SEMIRINGS:
        return dense(f"no sparse representation for semiring {semiring.name!r}")
    if _sparse is None:
        return dense("scipy is not installed")
    max_dimension = max(instance.dimensions.values(), default=1)
    if max_dimension < min_dimension:
        return dense(
            f"largest dimension {max_dimension} is below the sparse "
            f"threshold {min_dimension}"
        )
    if statistics is None:
        statistics = instance_statistics(instance)
    max_density = float(profile.sparse_max_density)
    if statistics.density is None:
        return dense(
            f"instance density unknown exceeds the sparse ceiling {max_density}"
        )
    per_matrix = statistics.densities
    if per_matrix is None:
        per_matrix = {}
    sparsest = min(per_matrix.values(), default=statistics.density)
    if sparsest > max_density:
        return dense(
            f"instance density {statistics.density:.3f} exceeds the sparse "
            f"ceiling {max_density}"
        )
    multiplicative = sum(plan.count_ops(opcode) for opcode in _MULTIPLICATIVE_OPCODES)
    if not multiplicative:
        return dense("the plan has no multiplication-shaped ops to accelerate")

    from repro.matlang.cost import CostModel

    model = CostModel(profile)
    overall = statistics.density

    def matrix_density(name: Optional[str]) -> float:
        if name is None or not per_matrix:
            return overall
        return per_matrix.get(name, 1.0)

    def symbol_weight(symbol: Optional[str]) -> int:
        # Prefer the instance's actual dimension over the profile's believed
        # size: the density estimates come from this instance's matrices, and
        # mixing measured densities with believed sizes breaks the fill
        # arithmetic (a one-entry-per-row matrix has ``d * n == 1`` only when
        # ``n`` is the real dimension).
        if symbol is not None:
            size = instance.dimensions.get(symbol)
            if size is not None:
                return max(1, int(size))
        return model.symbol_weight(symbol)

    coster = _PlanCoster(model, matrix_density, symbol_weight)
    densities = coster.densities(plan)
    ops = plan.ops
    costs = []
    for op in ops:
        costs.append(
            {
                "dense": coster.op_cost(ops, op, densities, "dense"),
                "sparse": coster.op_cost(ops, op, densities, "sparse"),
            }
        )

    convert_unit = model.unit("convert")
    overhead = model.amortized_overhead(batch_size)
    conversion_cost = [
        max(1.0, coster.shape(op)[0] * coster.shape(op)[1]) * convert_unit + overhead
        for op in ops
    ]

    def forced_dense(op) -> bool:
        # Pointwise functions round-trip through dense arrays regardless of
        # representation; hosting them dense avoids a pointless rebuild.
        return op.opcode == "apply"

    tags = [
        "dense"
        if forced_dense(op) or costs[index]["dense"] <= costs[index]["sparse"]
        else "sparse"
        for index, op in enumerate(ops)
    ]

    def total(assignment) -> float:
        cost = sum(costs[index][assignment[index]] for index in range(len(ops)))
        boundaries = set()
        for index, op in enumerate(ops):
            for register in (*op.inputs, *op.captures):
                if assignment[register] != assignment[index]:
                    boundaries.add((register, assignment[index]))
        return cost + sum(conversion_cost[register] for register, _ in boundaries)

    best_total = total(tags)
    for _ in range(4):  # coordinate descent over per-op flips
        improved = False
        for index, op in enumerate(ops):
            if forced_dense(op):
                continue
            flipped = list(tags)
            flipped[index] = "sparse" if tags[index] == "dense" else "dense"
            candidate = total(flipped)
            if candidate < best_total:
                tags = flipped
                best_total = candidate
                improved = True
        if not improved:
            break

    distinct = set(tags)
    if distinct == {"dense"}:
        return dense("per-op cost model kept every op dense")
    if distinct == {"sparse"}:
        return PhysicalPlan(
            plan,
            {"sparse": backend_for(semiring, "sparse")},
            "sparse",
            (
                f"auto-selected sparse: semiring {statistics.semiring!r}, "
                f"density {statistics.density:.3f}, largest dimension "
                f"{statistics.max_dimension} >= {min_dimension}, "
                f"{multiplicative} multiplication-shaped op(s)",
            ),
        )

    physical_plan, conversions = _tagged_plan(plan, tuple(tags))
    counts = {tag: tags.count(tag) for tag in ("sparse", "dense")}
    notes = (
        f"per-op physical planning (profile v{profile.version}, "
        f"{profile.source}): {counts['sparse']} op(s) sparse, "
        f"{counts['dense']} dense",
        f"inserted {conversions} backend conversion(s) at "
        "representation boundaries",
    )
    return PhysicalPlan(
        physical_plan,
        {
            "dense": backend_for(semiring, "dense"),
            "sparse": backend_for(semiring, "sparse"),
        },
        "dense",
        notes,
    )


#: Mixed assignments kept per base plan (first in, first out).
TAGGED_PLAN_CAPACITY = 4


def _tagged_plan(plan, tags: Tuple[str, ...]):
    """``plan`` with its ops tagged by ``tags`` and conversions inserted at
    the boundaries; returns ``(tagged plan, conversions inserted)``.

    Memoised on ``plan``, so every dispatch of one mixed assignment runs one
    plan object, and what the executor caches on a plan (``affine_body``,
    ``value_types``, the frame classification) is computed once.
    """
    memo = plan._tagged_plans
    entry = memo.get(tags)
    if entry is None:
        entry = memo[tags] = _tag_plan(plan, tags)
        for stale in list(memo)[:-TAGGED_PLAN_CAPACITY]:
            memo.pop(stale, None)
    return entry


def _tag_plan(plan, tags: Tuple[str, ...]):
    """The uncached :func:`_tagged_plan`."""
    from dataclasses import replace as _replace

    from repro.matlang.ir import Plan, PlanOp

    ops = plan.ops
    out_ops: list = []
    remap: Dict[int, int] = {}
    conversions: Dict[Tuple[int, str], int] = {}

    def routed(register: int, target: str) -> int:
        if tags[register] == target:
            return remap[register]
        key = (register, target)
        existing = conversions.get(key)
        if existing is not None:
            return existing
        opcode = "to_dense" if target == "dense" else "to_sparse"
        out_ops.append(
            PlanOp(
                opcode,
                (remap[register],),
                type=ops[register].type,
                name=tags[register],
                backend=target,
            )
        )
        conversions[key] = len(out_ops) - 1
        return conversions[key]

    for index, op in enumerate(ops):
        tag = tags[index]
        inputs = tuple(routed(register, tag) for register in op.inputs)
        captures = tuple(routed(register, tag) for register in op.captures)
        out_ops.append(
            _replace(op, inputs=inputs, captures=captures, backend=tag)
        )
        remap[index] = len(out_ops) - 1

    physical_plan = Plan(
        tuple(out_ops),
        remap[plan.result],
        tuple(sorted({remap[register] for register in plan.pinned})),
        notes=plan.notes,
    )
    return physical_plan, len(conversions)
