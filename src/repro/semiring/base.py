"""The commutative semiring abstraction.

A semiring ``(K, plus, times, zero, one)`` consists of a carrier set together
with two associative binary operations such that ``plus`` is commutative with
identity ``zero``, ``times`` is commutative (the paper restricts to commutative
semirings) with identity ``one``, ``times`` distributes over ``plus`` and
``zero`` annihilates the carrier.

Concrete semirings subclass :class:`Semiring` and provide the scalar
operations; the matrix layer in :mod:`repro.semiring.matrix` and the MATLANG
evaluator build on top of those.  All matrix-level operations dispatch to a
dense kernel backend (:mod:`repro.semiring.kernels`): numeric-representable
semirings get vectorized whole-array kernels over a primitive dtype, every
other semiring falls back to the generic object-dtype scalar fold.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Iterable, Optional, Tuple

import numpy as np

from repro.exceptions import SemiringError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.semiring.kernels import KernelBackend

#: Version of the kernel-factory table of :mod:`repro.semiring.kernels`:
#: :func:`~repro.semiring.kernels.register_kernels` and
#: :func:`~repro.semiring.kernels.unregister_kernels` bump it, and a
#: semiring's cached backend is current while its recorded version equals it.
kernel_registry_version = 0


class Semiring(ABC):
    """Abstract commutative semiring over scalar values.

    Subclasses define the carrier through :meth:`coerce` and the four scalar
    operations.  Values are plain Python / numpy objects; matrices over a
    semiring are numpy arrays whose dtype is declared by :attr:`dtype` and
    whose whole-array operations are provided by the kernel backend selected
    through :func:`repro.semiring.kernels.kernels_for`.
    """

    #: Human readable, unique name used by the registry.
    name: str = "abstract"

    #: ``(kernel_registry_version, backend)`` of the last resolution (see
    #: the :attr:`kernels` property).  One attribute holds both, so a
    #: concurrent re-registration can never pair an old backend with a new
    #: version; ``-1`` matches no version, so the first read resolves.
    _kernel_cache: Tuple[int, Optional["KernelBackend"]] = (-1, None)

    @property
    def dtype(self) -> Any:
        """numpy dtype used for dense matrices over this semiring.

        Derived from the kernel backend (the single owner of the storage
        decision), so switching backends via
        :func:`repro.semiring.kernels.register_kernels` keeps the two in sync.
        """
        return self.kernels.dtype

    # ------------------------------------------------------------------
    # Scalar interface
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def zero(self) -> Any:
        """The additive identity of the semiring."""

    @property
    @abstractmethod
    def one(self) -> Any:
        """The multiplicative identity of the semiring."""

    @abstractmethod
    def plus(self, left: Any, right: Any) -> Any:
        """Return ``left + right`` in the semiring."""

    @abstractmethod
    def times(self, left: Any, right: Any) -> Any:
        """Return ``left * right`` in the semiring."""

    @abstractmethod
    def coerce(self, value: Any) -> Any:
        """Convert ``value`` into a carrier element.

        Raises :class:`~repro.exceptions.SemiringError` when the value cannot
        be interpreted as an element of the semiring.
        """

    # ------------------------------------------------------------------
    # Optional structure
    # ------------------------------------------------------------------
    @property
    def is_field(self) -> bool:
        """Whether the semiring supports division by non-zero elements."""
        return False

    @property
    def is_ring(self) -> bool:
        """Whether additive inverses exist (needed for subtraction)."""
        return False

    def negate(self, value: Any) -> Any:
        """Return the additive inverse of ``value`` if the semiring is a ring."""
        raise SemiringError(f"semiring {self.name!r} has no additive inverses")

    def divide(self, left: Any, right: Any) -> Any:
        """Return ``left / right`` if the semiring is a field."""
        raise SemiringError(f"semiring {self.name!r} does not support division")

    def is_zero(self, value: Any) -> bool:
        """Whether ``value`` equals the additive identity."""
        return self.equal(value, self.zero)

    def equal(self, left: Any, right: Any) -> bool:
        """Whether two carrier elements are equal."""
        return bool(left == right)

    def close_to(self, left: Any, right: Any, tolerance: float = 1e-9) -> bool:
        """Equality up to a numerical tolerance; exact by default."""
        del tolerance
        return self.equal(left, right)

    def from_int(self, value: int) -> Any:
        """Embed a non-negative integer as ``1 + 1 + ... + 1`` (value times).

        Every semiring admits this canonical embedding of the naturals; most
        concrete semirings override it with a direct conversion.
        """
        if value < 0:
            raise SemiringError(
                f"cannot embed negative integer {value} into semiring {self.name!r}"
            )
        result = self.zero
        for _ in range(value):
            result = self.plus(result, self.one)
        return result

    # ------------------------------------------------------------------
    # Aggregations
    # ------------------------------------------------------------------
    def sum(self, values: Iterable[Any]) -> Any:
        """Fold ``plus`` over ``values`` starting from ``zero``."""
        return self.kernels.sum(values)

    def product(self, values: Iterable[Any]) -> Any:
        """Fold ``times`` over ``values`` starting from ``one``."""
        return self.kernels.product(values)

    # ------------------------------------------------------------------
    # Dense matrix helpers (dispatch to the kernel backend)
    # ------------------------------------------------------------------
    @property
    def kernels(self) -> "KernelBackend":
        """The dense kernel backend for matrices over this semiring.

        Selected through :func:`repro.semiring.kernels.kernels_for` and
        cached with the registry version it was resolved against.  A warm
        read is one attribute load and one comparison, with no import and no
        further call; :func:`repro.semiring.kernels.register_kernels` bumps
        the version, so re-registering a backend reaches every semiring (and
        every execution backend reading it) on its next read.
        """
        cache = self._kernel_cache
        if cache[0] == kernel_registry_version:
            return cache[1]
        # Read the version before resolving: a registration racing with
        # kernels_for leaves an old version behind, which the next read
        # re-resolves.
        version = kernel_registry_version
        from repro.semiring.kernels import kernels_for

        kernels = kernels_for(self)
        self._kernel_cache = (version, kernels)
        return kernels

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        """A ``rows x cols`` matrix filled with the additive identity."""
        return self.kernels.zeros(rows, cols)

    def ones(self, rows: int, cols: int) -> np.ndarray:
        """A ``rows x cols`` matrix filled with the multiplicative identity."""
        return self.kernels.ones(rows, cols)

    def add_matrices(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Entrywise semiring addition of two equally shaped matrices."""
        kernels = self.kernels
        return kernels.add_matrices(
            kernels.ensure_storage(left), kernels.ensure_storage(right)
        )

    def hadamard(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Entrywise semiring multiplication (Hadamard product)."""
        kernels = self.kernels
        return kernels.hadamard(
            kernels.ensure_storage(left), kernels.ensure_storage(right)
        )

    def matmul(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Semiring matrix multiplication."""
        kernels = self.kernels
        return kernels.matmul(
            kernels.ensure_storage(left), kernels.ensure_storage(right)
        )

    def scale(self, factor: Any, matrix: np.ndarray) -> np.ndarray:
        """Multiply every entry of ``matrix`` by the scalar ``factor``."""
        kernels = self.kernels
        return kernels.scale(factor, kernels.ensure_storage(matrix))

    def coerce_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Coerce every entry of ``matrix`` into the semiring carrier."""
        return self.kernels.coerce_matrix(matrix)

    def matrices_equal(
        self, left: np.ndarray, right: np.ndarray, tolerance: float = 1e-9
    ) -> bool:
        """Whether two matrices agree entrywise (up to ``tolerance``).

        Inputs are never coerced: out-of-carrier numeric values and legacy
        object-dtype arrays are compared entrywise with ``close_to`` rather
        than rejected.  (Entries the scalar comparison itself cannot
        interpret — e.g. strings over the reals — propagate ``close_to``'s
        error, as they always have.)
        """
        kernels = self.kernels
        left = np.asarray(left)
        right = np.asarray(right)
        if left.shape != right.shape:
            return False
        if left.dtype == kernels.dtype and right.dtype == kernels.dtype:
            return kernels.matrices_equal(left, right, tolerance)
        return all(
            self.close_to(left[index], right[index], tolerance)
            for index in np.ndindex(left.shape)
        )

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Semiring) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)
