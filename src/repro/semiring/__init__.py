"""Commutative semirings and K-matrices.

Section 6 of the paper generalises the semantics of MATLANG from the reals to
an arbitrary commutative semiring ``(K, +, *, 0, 1)``.  This subpackage
provides the semiring abstraction, a collection of concrete semirings (the
real field, the natural numbers, the booleans, tropical min-plus / max-plus,
and the polynomial provenance semiring ``N[X]``), and matrix helpers that work
uniformly over any of them.
"""

from repro.semiring.base import Semiring
from repro.semiring.kernels import (
    KernelBackend,
    ObjectFoldKernels,
    kernels_for,
    register_kernels,
    unregister_kernels,
)
from repro.semiring.backends import (
    DenseExecutionBackend,
    ExecutionBackend,
    InstanceStatistics,
    PhysicalPlan,
    SparseBooleanBackend,
    available_backends,
    backend_for,
    instance_statistics,
    plan_physical,
    register_backend,
)
from repro.semiring.matrix import (
    canonical_vector,
    diagonal,
    from_entries,
    from_rows,
    identity,
    lift,
    matrices_equal,
    ones_matrix,
    scalar,
    scalar_value,
    zeros,
)
from repro.semiring.provenance import Monomial, Polynomial, ProvenanceSemiring
from repro.semiring.registry import available_semirings, get_semiring, register_semiring
from repro.semiring.standard import (
    BOOLEAN,
    INTEGER,
    NATURAL,
    REAL,
    BooleanSemiring,
    IntegerRing,
    NaturalSemiring,
    RealField,
)
from repro.semiring.tropical import MAX_PLUS, MIN_PLUS, MaxPlusSemiring, MinPlusSemiring

__all__ = [
    "BOOLEAN",
    "BooleanSemiring",
    "DenseExecutionBackend",
    "ExecutionBackend",
    "INTEGER",
    "IntegerRing",
    "KernelBackend",
    "PhysicalPlan",
    "SparseBooleanBackend",
    "available_backends",
    "backend_for",
    "register_backend",
    "MAX_PLUS",
    "MIN_PLUS",
    "MaxPlusSemiring",
    "MinPlusSemiring",
    "Monomial",
    "NATURAL",
    "NaturalSemiring",
    "ObjectFoldKernels",
    "Polynomial",
    "ProvenanceSemiring",
    "REAL",
    "RealField",
    "Semiring",
    "available_semirings",
    "canonical_vector",
    "diagonal",
    "from_entries",
    "from_rows",
    "get_semiring",
    "identity",
    "kernels_for",
    "lift",
    "matrices_equal",
    "ones_matrix",
    "plan_physical",
    "register_kernels",
    "register_semiring",
    "scalar",
    "scalar_value",
    "unregister_kernels",
    "zeros",
]
