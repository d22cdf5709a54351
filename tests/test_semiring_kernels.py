"""Property tests for the vectorized kernel backends.

Every registered semiring's kernel backend must agree entrywise with the
generic object-dtype scalar fold (:class:`ObjectFoldKernels`) on random
carrier matrices — that equivalence is the kernel contract of
:mod:`repro.semiring.kernels`.
"""

import builtins
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SemiringError
from repro.matlang.builder import var
from repro.matlang.evaluator import Evaluator, evaluate, evaluate_batch
from repro.matlang.instance import Instance
from repro.semiring import (
    BOOLEAN,
    INTEGER,
    MAX_PLUS,
    MIN_PLUS,
    NATURAL,
    REAL,
    ObjectFoldKernels,
    Semiring,
    available_semirings,
    kernels_for,
)
from repro.semiring.backends import BatchedDenseBackend, DenseExecutionBackend
from repro.semiring.kernels import (
    BooleanKernels,
    Float64FieldKernels,
    Int64Kernels,
    TropicalKernels,
)
from repro.semiring.provenance import PROVENANCE
from repro.semiring.registry import get_semiring
from repro.stdlib.linalg import csanky_inverse, plu_upper

SEMIRING_ELEMENTS = {
    "real": st.floats(min_value=-10, max_value=10, allow_nan=False),
    "integer": st.integers(min_value=-50, max_value=50),
    "natural": st.integers(min_value=0, max_value=50),
    "boolean": st.booleans(),
    "min_plus": st.one_of(
        st.just(math.inf), st.floats(min_value=-10, max_value=10, allow_nan=False)
    ),
    "max_plus": st.one_of(
        st.just(-math.inf), st.floats(min_value=-10, max_value=10, allow_nan=False)
    ),
    "provenance": st.sampled_from(["p", "q", "r", 0, 1, 2]),
}


def _matrix_strategy(name, rows, cols):
    elements = SEMIRING_ELEMENTS[name]
    return st.lists(
        st.lists(elements, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


def _object_matrix(semiring, rows):
    matrix = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            matrix[i, j] = semiring.coerce(value)
    return matrix


def _assert_matrices_agree(semiring, vectorized, reference, context):
    assert vectorized.shape == reference.shape, context
    for index in np.ndindex(reference.shape):
        assert semiring.close_to(vectorized[index], reference[index], 1e-6), (
            f"{context}: entry {index} differs: "
            f"{vectorized[index]!r} != {reference[index]!r}"
        )


def _check_all_operations(semiring, left_rows, right_rows):
    fold = ObjectFoldKernels(semiring, dtype=object)
    kernels = semiring.kernels

    left_obj = _object_matrix(semiring, left_rows)
    right_obj = _object_matrix(semiring, right_rows)
    left_vec = kernels.coerce_matrix(left_obj)
    right_vec = kernels.coerce_matrix(right_obj)

    _assert_matrices_agree(semiring, left_vec, left_obj, "coerce_matrix")

    _assert_matrices_agree(
        semiring,
        kernels.matmul(left_vec, right_vec),
        fold.matmul(left_obj, right_obj),
        "matmul",
    )
    _assert_matrices_agree(
        semiring,
        kernels.add_matrices(left_vec, left_vec),
        fold.add_matrices(left_obj, left_obj),
        "add_matrices",
    )
    _assert_matrices_agree(
        semiring,
        kernels.hadamard(left_vec, left_vec),
        fold.hadamard(left_obj, left_obj),
        "hadamard",
    )

    factor = left_obj[0, 0]
    _assert_matrices_agree(
        semiring,
        kernels.scale(factor, right_vec),
        fold.scale(factor, right_obj),
        "scale",
    )

    column_obj = left_obj[:, :1]
    column_vec = left_vec[:, :1]
    _assert_matrices_agree(
        semiring, kernels.diag(column_vec), fold.diag(column_obj), "diag"
    )
    _assert_matrices_agree(
        semiring, kernels.identity(3), fold.identity(3), "identity"
    )
    _assert_matrices_agree(semiring, kernels.zeros(2, 3), fold.zeros(2, 3), "zeros")
    _assert_matrices_agree(semiring, kernels.ones(2, 3), fold.ones(2, 3), "ones")

    values = [left_obj[index] for index in np.ndindex(left_obj.shape)]
    assert semiring.close_to(kernels.sum(values), fold.sum(values), 1e-6)
    assert semiring.close_to(kernels.product(values), fold.product(values), 1e-6)

    assert kernels.matrices_equal(left_vec, kernels.coerce_matrix(left_obj))


@pytest.mark.parametrize(
    "name", ["real", "integer", "natural", "boolean", "min_plus", "max_plus", "provenance"]
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_kernels_agree_with_object_fold(name, data):
    semiring = get_semiring(name)
    left = data.draw(_matrix_strategy(name, 3, 4))
    right = data.draw(_matrix_strategy(name, 4, 3))
    _check_all_operations(semiring, left, right)


def test_every_registered_semiring_is_covered():
    """The property test above must not silently skip a registered semiring."""
    # Throwaway semirings registered by other test modules are exempt.
    registered = {name for name in available_semirings() if not name.startswith("test_")}
    assert registered <= set(SEMIRING_ELEMENTS), (
        "a newly registered semiring needs an element strategy in "
        "SEMIRING_ELEMENTS so the kernel equivalence property covers it"
    )


class TestBackendSelection:
    def test_builtin_backends(self):
        assert isinstance(REAL.kernels, Float64FieldKernels)
        assert isinstance(BOOLEAN.kernels, BooleanKernels)
        assert isinstance(NATURAL.kernels, Int64Kernels)
        assert isinstance(INTEGER.kernels, Int64Kernels)
        assert isinstance(MIN_PLUS.kernels, TropicalKernels)
        assert isinstance(MAX_PLUS.kernels, TropicalKernels)
        assert isinstance(PROVENANCE.kernels, ObjectFoldKernels)

    def test_storage_dtypes_match_declared_dtype(self):
        for name in available_semirings():
            semiring = get_semiring(name)
            assert semiring.kernels.dtype == semiring.dtype, name
            assert semiring.zeros(2, 2).dtype == semiring.dtype, name

    def test_unknown_semiring_falls_back_to_object_fold(self):
        class OddSemiring(Semiring):
            name = "test_kernels_fallback"

            @property
            def zero(self):
                return 0.0

            @property
            def one(self):
                return 1.0

            def plus(self, left, right):
                return max(left, right)

            def times(self, left, right):
                return min(left, right)

            def coerce(self, value):
                return float(value)

        backend = kernels_for(OddSemiring())
        assert isinstance(backend, ObjectFoldKernels)
        assert backend.dtype is object

    def test_fallback_honors_a_subclass_declared_dtype(self):
        # A custom semiring may shadow the derived dtype property with a
        # plain class attribute; the object-fold fallback must respect it.
        class DeclaredDtype(Semiring):
            name = "test_kernels_declared_dtype"
            dtype = np.float64

            @property
            def zero(self):
                return 0.0

            @property
            def one(self):
                return 1.0

            def plus(self, left, right):
                return max(left, right)

            def times(self, left, right):
                return min(left, right)

            def coerce(self, value):
                return float(value)

        semiring = DeclaredDtype()
        assert isinstance(semiring.kernels, ObjectFoldKernels)
        assert semiring.kernels.dtype == np.float64
        assert semiring.zeros(2, 2).dtype == np.float64

    def test_overwriting_a_semiring_drops_the_stale_kernel_factory(self):
        from repro.semiring import register_semiring

        def make(name):
            class Custom(Semiring):
                @property
                def zero(self):
                    return 0

                @property
                def one(self):
                    return 1

                def plus(self, left, right):
                    return int(left) + int(right)

                def times(self, left, right):
                    return int(left) * int(right)

                def coerce(self, value):
                    return int(value)

            Custom.name = name
            return Custom()

        first = make("test_kernels_overwrite")
        register_semiring(first, kernels=Int64Kernels)
        assert isinstance(first.kernels, Int64Kernels)
        # Re-registering without a kernels factory must not silently inherit
        # the old vectorized backend.
        second = make("test_kernels_overwrite")
        register_semiring(second, overwrite=True)
        assert isinstance(second.kernels, ObjectFoldKernels)

    def test_int64_scale_coerces_the_factor(self):
        # Regression: int(factor) silently truncated 2.5, and NATURAL.scale
        # accepted a negative factor, emitting an out-of-carrier matrix.
        matrix = NATURAL.coerce_matrix(np.array([[2, 3]]))
        with pytest.raises(SemiringError):
            NATURAL.scale(2.5, matrix)
        with pytest.raises(SemiringError):
            NATURAL.scale(-1, matrix)
        assert INTEGER.scale(-1, matrix).tolist() == [[-2, -3]]

    def test_tropical_scale_rejects_out_of_carrier_factor(self):
        # Regression: scale(-inf, M) over min-plus produced NaN wherever M
        # held the tropical zero (+inf), instead of rejecting the factor.
        matrix = MIN_PLUS.coerce_matrix(np.array([[2.0, math.inf]]))
        with pytest.raises(SemiringError):
            MIN_PLUS.scale(-math.inf, matrix)
        scaled = MIN_PLUS.scale(math.inf, matrix)  # the zero annihilates
        assert np.all(scaled == math.inf)

    def test_register_kernels_then_semiring_overwrite_keeps_kernels(self):
        # Regression: the defensive order register_kernels(...) followed by
        # register_semiring(..., overwrite=True) used to drop the factory.
        from repro.semiring import register_semiring
        from repro.semiring.kernels import register_kernels

        class Custom(Semiring):
            name = "test_kernels_preinstalled"

            @property
            def zero(self):
                return 0.0

            @property
            def one(self):
                return 1.0

            def plus(self, left, right):
                return left + right

            def times(self, left, right):
                return left * right

            def coerce(self, value):
                return float(value)

        register_kernels("test_kernels_preinstalled", Float64FieldKernels)
        semiring = Custom()
        register_semiring(semiring, overwrite=True)
        assert isinstance(semiring.kernels, Float64FieldKernels)

    def test_reregistering_the_same_semiring_keeps_its_kernels(self):
        # An idempotent "ensure registered" refresh of a builtin must not
        # silently degrade it to the object fold.
        from repro.semiring import register_semiring

        register_semiring(REAL, overwrite=True)
        assert isinstance(REAL.kernels, Float64FieldKernels)
        assert REAL.dtype == np.float64

    def test_kernel_backend_is_cached_per_semiring(self):
        assert REAL.kernels is REAL.kernels

    def test_reregistering_kernels_takes_effect_immediately(self):
        # Regression: the error message advertises ObjectFoldKernels as the
        # arbitrary-precision escape hatch; following that advice must
        # actually work, including for singletons with a cached backend.
        from repro.semiring.kernels import register_kernels

        assert isinstance(INTEGER.kernels, Int64Kernels)  # prime the cache
        register_kernels("integer", ObjectFoldKernels, overwrite=True)
        try:
            coerced = INTEGER.coerce_matrix(np.array([[2**70]], dtype=object))
            assert coerced.dtype == object
            assert coerced[0, 0] == 2**70
            # Semiring.dtype is derived from the backend, so it follows.
            assert INTEGER.dtype is object
        finally:
            register_kernels("integer", Int64Kernels, overwrite=True)
        assert isinstance(INTEGER.kernels, Int64Kernels)
        assert INTEGER.dtype == np.int64

    def test_register_semiring_is_atomic_when_kernels_clash(self):
        # Regression: a failing kernels registration used to leave the
        # semiring half-registered.
        from repro.exceptions import SemiringError as SRError
        from repro.semiring import register_semiring
        from repro.semiring.kernels import register_kernels

        class Clashing(Semiring):
            name = "test_kernels_clash"

            @property
            def zero(self):
                return 0.0

            @property
            def one(self):
                return 1.0

            def plus(self, left, right):
                return left + right

            def times(self, left, right):
                return left * right

            def coerce(self, value):
                return float(value)

        register_kernels("test_kernels_clash", ObjectFoldKernels)
        with pytest.raises(SRError):
            register_semiring(Clashing(), kernels=ObjectFoldKernels)
        assert "test_kernels_clash" not in available_semirings()


class TestShapeValidation:
    @pytest.mark.parametrize("name", ["real", "boolean", "natural", "min_plus"])
    def test_matmul_shape_mismatch(self, name):
        semiring = get_semiring(name)
        with pytest.raises(SemiringError):
            semiring.matmul(semiring.zeros(2, 3), semiring.zeros(2, 3))

    @pytest.mark.parametrize("name", ["real", "boolean", "natural", "min_plus"])
    def test_add_shape_mismatch(self, name):
        semiring = get_semiring(name)
        with pytest.raises(SemiringError):
            semiring.add_matrices(semiring.zeros(2, 3), semiring.zeros(3, 2))

    @pytest.mark.parametrize("name", ["real", "boolean", "natural", "min_plus"])
    def test_hadamard_shape_mismatch(self, name):
        semiring = get_semiring(name)
        with pytest.raises(SemiringError):
            semiring.hadamard(semiring.zeros(2, 3), semiring.zeros(3, 2))

    def test_matrices_equal_shape_mismatch_is_false(self):
        assert not MIN_PLUS.matrices_equal(MIN_PLUS.zeros(2, 2), MIN_PLUS.zeros(3, 3))


class TestCarrierBoundaries:
    def test_natural_rejects_negative_matrix_entries(self):
        with pytest.raises(SemiringError):
            NATURAL.coerce_matrix(np.array([[1, -2], [3, 4]]))

    def test_natural_rejects_non_integral_floats(self):
        with pytest.raises(SemiringError):
            NATURAL.coerce_matrix(np.array([[1.5, 2.0]]))

    def test_int64_rejects_values_that_do_not_fit(self):
        with pytest.raises(SemiringError):
            INTEGER.coerce_matrix(np.array([[2**70]], dtype=object))

    def test_int64_rejects_oversized_floats_instead_of_wrapping(self):
        # Regression: 1e19 passed the integrality check and then astype
        # silently wrapped it to a negative int64.
        with pytest.raises(SemiringError):
            INTEGER.coerce_matrix(np.array([[1e19]]))

    def test_int64_rejects_oversized_uint64(self):
        with pytest.raises(SemiringError):
            INTEGER.coerce_matrix(np.array([[2**63]], dtype=np.uint64))
        # int64 max itself still fits.
        fits = INTEGER.coerce_matrix(np.array([[2**63 - 1]], dtype=np.uint64))
        assert fits[0, 0] == 2**63 - 1

    def test_from_rows_and_scalar_raise_semiring_error_for_big_ints(self):
        from repro.semiring import from_rows, scalar

        with pytest.raises(SemiringError):
            from_rows(INTEGER, [[2**70]])
        with pytest.raises(SemiringError):
            scalar(NATURAL, 2**70)

    def test_from_entries_sparse_construction(self):
        from repro.semiring import from_entries

        matrix = from_entries(MIN_PLUS, 2, 3, {(0, 1): 4.0, (1, 2): 0.5})
        assert matrix.dtype == np.float64
        assert matrix[0, 1] == 4.0 and matrix[1, 2] == 0.5
        assert matrix[0, 0] == math.inf  # zero background
        with pytest.raises(SemiringError):
            from_entries(MIN_PLUS, 2, 2, {(0, 0): -math.inf})
        with pytest.raises(SemiringError):
            from_entries(NATURAL, 2, 2, {(1, 1): 2**70})

    def test_from_entries_validates_indices(self):
        from repro.semiring import from_entries

        # Negative indices must not wrap to the other end of the matrix.
        with pytest.raises(SemiringError):
            from_entries(REAL, 3, 3, {(-1, 0): 5.0})
        with pytest.raises(SemiringError):
            from_entries(REAL, 3, 3, {(7, 0): 5.0})

    def test_matrices_equal_accepts_object_dtype_input(self):
        # Regression: object-dtype was the tropical storage before the
        # kernel backends; comparisons on caller-held legacy arrays crashed
        # on np.isfinite over object arrays.
        legacy = np.array([[1.0, math.inf]], dtype=object)
        assert MIN_PLUS.matrices_equal(legacy, np.array([[1.0, math.inf]]))
        assert not MIN_PLUS.matrices_equal(legacy, np.array([[2.0, math.inf]]))

    def test_diagonal_helper(self):
        from repro.semiring import diagonal

        matrix = diagonal(MIN_PLUS, np.array([[1.0], [2.0]]))
        assert matrix[0, 0] == 1.0 and matrix[1, 1] == 2.0
        assert matrix[0, 1] == math.inf
        with pytest.raises(SemiringError):
            diagonal(MIN_PLUS, MIN_PLUS.zeros(2, 2))

    def test_storage_dtype_inputs_are_still_carrier_checked(self):
        # Regression: float64 min-plus arrays holding -inf (or NaN) used to
        # skip validation because the dtype already matched, and int64
        # arrays with negatives slipped past the naturals.
        with pytest.raises(SemiringError):
            MIN_PLUS.matmul(
                np.array([[-np.inf, 1.0]]), np.array([[np.inf], [2.0]])
            )
        with pytest.raises(SemiringError):
            NATURAL.matmul(
                np.array([[-2]], dtype=np.int64), np.array([[3]], dtype=np.int64)
            )
        with pytest.raises(SemiringError):
            MIN_PLUS.sum([math.nan, 1.0])

    def test_matrices_equal_is_total_on_out_of_carrier_input(self):
        # The equality predicate compares without coercing, so invalid
        # inputs yield False/True rather than an exception.
        assert not NATURAL.matrices_equal(
            np.array([[-1]], dtype=np.int32), np.array([[1]])
        )
        assert NATURAL.matrices_equal(
            np.array([[-1]], dtype=np.int32), np.array([[-1]], dtype=np.int32)
        )

    def test_public_ops_normalize_non_storage_input_arrays(self):
        # Regression: an int32 array fed to Semiring.matmul used to
        # accumulate (and silently wrap) in int32, and raw int arrays fed to
        # boolean addition produced bitwise garbage.
        small = np.array([[2**20]], dtype=np.int32)
        assert INTEGER.matmul(small, small)[0, 0] == 2**40
        assert BOOLEAN.add_matrices(np.array([[1]]), np.array([[2]])).tolist() == [[True]]
        assert MIN_PLUS.add_matrices(np.array([[3]]), np.array([[1]]))[0, 0] == 1.0

    def test_coerce_matrix_never_aliases_the_input(self):
        for semiring, source in [
            (BOOLEAN, np.array([[True, False]])),
            (REAL, np.array([[1.0, 2.0]])),
            (NATURAL, np.array([[1, 2]], dtype=np.int64)),
            (MIN_PLUS, np.array([[1.0, 2.0]])),
        ]:
            coerced = semiring.coerce_matrix(source)
            assert coerced is not source, semiring.name
            assert not np.shares_memory(coerced, source), semiring.name

    def test_tropical_matmul_with_empty_inner_dimension_is_the_zero_matrix(self):
        # Regression: np.min over the empty inner axis raised ValueError where
        # the generic fold returned the all-zero (all-inf) matrix.
        result = MIN_PLUS.matmul(
            np.full((2, 0), math.inf), np.full((0, 3), math.inf)
        )
        assert result.shape == (2, 3)
        assert np.all(result == math.inf)

    def test_boolean_coerces_counts_to_presence(self):
        coerced = BOOLEAN.coerce_matrix(np.array([[0, 2], [7, 0]]))
        assert coerced.dtype == np.bool_
        assert coerced.tolist() == [[False, True], [True, False]]

    def test_tropical_bool_input_uses_semiring_embedding(self):
        # True -> one (0.0), False -> zero (inf): the boolean embedding, not
        # numpy's float cast of True/False to 1.0/0.0.
        coerced = MIN_PLUS.coerce_matrix(np.array([[True, False]]))
        assert coerced[0, 0] == 0.0
        assert coerced[0, 1] == math.inf

    def test_min_plus_matrix_rejects_out_of_carrier_infinity(self):
        with pytest.raises(SemiringError):
            MIN_PLUS.coerce_matrix(np.array([[1.0, -math.inf]]))

    def test_max_plus_matrix_rejects_out_of_carrier_infinity(self):
        with pytest.raises(SemiringError):
            MAX_PLUS.coerce_matrix(np.array([[1.0, math.inf]]))

    def test_tropical_matrix_rejects_nan(self):
        with pytest.raises(SemiringError):
            MIN_PLUS.coerce_matrix(np.array([[1.0, math.nan]]))


class TestAggregations:
    def test_int64_operations_never_wrap_silently(self):
        # Regression: matmul/add/hadamard/scale used to wrap past 2**63 - 1.
        # A result that truly does not fit must raise SemiringError...
        big = INTEGER.coerce_matrix(np.array([[2**40]]))
        with pytest.raises(SemiringError):
            INTEGER.matmul(big, big)
        with pytest.raises(SemiringError):
            INTEGER.scale(2**40, big)
        with pytest.raises(SemiringError):
            INTEGER.hadamard(big, big)
        near_max = INTEGER.coerce_matrix(np.array([[2**62]]))
        with pytest.raises(SemiringError):
            INTEGER.add_matrices(near_max, near_max)

    def test_int64_exact_fallback_when_bound_overestimates(self):
        # ...but when the naive bound overflows while the true result fits,
        # the exact fold fallback still returns the right int64 answer.
        left = INTEGER.coerce_matrix(np.array([[2**40, -(2**40)]]))
        right = INTEGER.coerce_matrix(np.array([[2**40], [2**40]]))
        assert INTEGER.matmul(left, right)[0, 0] == 0
        near_max = INTEGER.coerce_matrix(np.array([[2**62]]))
        almost = INTEGER.coerce_matrix(np.array([[2**62 - 1]]))
        assert INTEGER.add_matrices(near_max, almost)[0, 0] == 2**63 - 1

    def test_int64_aggregations_are_exact_beyond_int64_range(self):
        # Regression: numpy int64 reductions wrap; sum/product must keep the
        # exact Python-int fold even though matrices are stored as int64.
        assert NATURAL.sum([2**62] * 4) == 2**64
        assert INTEGER.product([2**40, 2**40]) == 2**80

    def test_sum_and_product_return_python_scalars(self):
        assert NATURAL.sum([1, 2, 3]) == 6
        assert isinstance(NATURAL.sum([1, 2, 3]), int)
        assert BOOLEAN.sum([False, True]) is True
        assert BOOLEAN.product([True, False]) is False
        assert MIN_PLUS.sum([3.0, 1.0, math.inf]) == 1.0
        assert MIN_PLUS.product([3.0, 1.0]) == 4.0
        assert REAL.sum([0.5, 0.25]) == 0.75

    def test_empty_aggregations_are_identities(self):
        assert NATURAL.sum([]) == 0
        assert NATURAL.product([]) == 1
        assert MIN_PLUS.sum([]) == math.inf
        assert BOOLEAN.sum([]) is False

    def test_generator_inputs_are_folded_once(self):
        assert NATURAL.sum(value for value in (1, 2, 3)) == 6
        assert PROVENANCE.sum(PROVENANCE.coerce(token) for token in ("p", "q")) is not None


class TestTropicalMatmulBlocking:
    def test_blocked_matmul_matches_unblocked(self):
        rng = np.random.default_rng(7)
        left = MIN_PLUS.coerce_matrix(rng.uniform(-5, 5, size=(17, 9)))
        right = MIN_PLUS.coerce_matrix(rng.uniform(-5, 5, size=(9, 13)))
        kernels = TropicalKernels(MIN_PLUS)
        blocked = TropicalKernels(MIN_PLUS)
        blocked._BLOCK_ENTRIES = 8  # force many row blocks
        assert MIN_PLUS.matrices_equal(
            kernels.matmul(left, right), blocked.matmul(left, right)
        )


class TestInt64PerRowBound:
    """The tightened (per-row / per-operation) int64 overflow guard."""

    def _no_fallback(self, monkeypatch):
        def boom(self, operation, *operands):
            raise AssertionError("expected the vectorized fast path, got the exact fallback")

        from repro.semiring.kernels import Int64Kernels

        monkeypatch.setattr(Int64Kernels, "_exact_fallback", boom)

    def test_matmul_stays_vectorized_when_rows_fit(self, monkeypatch):
        # Global bound: 4 * 2**31 * 2**31 = 2**64 overflows, but each row
        # holds a single large entry, so the per-row bound (2**62) fits.
        self._no_fallback(monkeypatch)
        big = np.diag([2**31] * 4).astype(np.int64)
        result = INTEGER.matmul(big, big)
        assert result[0, 0] == 2**62
        assert np.all(np.asarray(result)[~np.eye(4, dtype=bool)] == 0)

    def test_hadamard_stays_vectorized_when_entries_fit(self, monkeypatch):
        # max|L| * max|R| = 2**62 * 4 overflows, but the extrema live in
        # different cells, so the entrywise bound fits.
        self._no_fallback(monkeypatch)
        left = np.array([[2**62, 2], [3, 4]], dtype=np.int64)
        right = np.array([[1, 4], [4, 4]], dtype=np.int64)
        result = INTEGER.hadamard(left, right)
        assert result[0, 0] == 2**62 and result[1, 1] == 16

    def test_add_stays_vectorized_when_entries_fit(self, monkeypatch):
        self._no_fallback(monkeypatch)
        left = np.array([[2**62, 0], [0, 2**62]], dtype=np.int64)
        right = np.array([[0, 2**62], [2**62, 0]], dtype=np.int64)
        result = INTEGER.add_matrices(left, right)
        assert np.all(np.asarray(result) == 2**62)

    def test_true_overflow_still_raises(self):
        big = np.diag([2**62] * 2).astype(np.int64)
        with pytest.raises(SemiringError):
            INTEGER.matmul(big, big)
        with pytest.raises(SemiringError):
            INTEGER.add_matrices(big, big)
        with pytest.raises(SemiringError):
            INTEGER.hadamard(big, big)

    def test_per_row_results_match_exact_fold(self):
        # The refined bound must never change values, only the code path:
        # one big entry per matrix defeats the global extrema bound while
        # every actual row product still fits int64.
        rng = np.random.default_rng(23)
        left = rng.integers(-100, 100, size=(5, 5)).astype(np.int64)
        right = rng.integers(-100, 100, size=(5, 5)).astype(np.int64)
        left[0, 0] = 2**31
        right[0, 0] = 2**31
        fold = ObjectFoldKernels(INTEGER, dtype=object)
        expected = fold.matmul(left.astype(object), right.astype(object))
        assert np.array_equal(
            np.asarray(INTEGER.matmul(left, right), dtype=object), expected
        )


class TestKernelCache:
    """The per-semiring backend cache: O(1) warm reads, live re-registration."""

    def test_warm_read_makes_no_import_and_no_call(self, monkeypatch):
        REAL.kernels  # warm the cache
        imports = []
        real_import = builtins.__import__

        def counting_import(*args, **kwargs):
            imports.append(args[0])
            return real_import(*args, **kwargs)

        getter = Semiring.kernels.fget.__code__
        getter_calls = []
        other_calls = []

        def profiler(frame, event, arg):
            if event == "call":
                if frame.f_code is getter:
                    getter_calls.append(1)
                else:
                    other_calls.append(frame.f_code.co_qualname)

        monkeypatch.setattr(builtins, "__import__", counting_import)
        sys.setprofile(profiler)
        try:
            for _ in range(1000):
                REAL.kernels
        finally:
            sys.setprofile(None)
        monkeypatch.undo()
        assert len(getter_calls) == 1000  # the profiler saw every read
        assert other_calls == []
        assert imports == []

    @pytest.mark.parametrize("builder", [plu_upper, csanky_inverse])
    def test_warm_ops_never_resolve_kernels(self, builder, monkeypatch):
        import repro.semiring.kernels as kernels_module

        rng = np.random.default_rng(8)
        instances = [
            Instance.from_matrices(
                {"A": rng.integers(-3, 4, (8, 8)).astype(float) + 8 * np.eye(8)},
                semiring=REAL,
            )
            for _ in range(2)
        ]
        expression = builder()
        expected = [evaluate(expression, instance) for instance in instances]
        expected_batch = evaluate_batch(expression, instances)

        def refuse(semiring):
            raise AssertionError(f"a warm op resolved kernels for {semiring.name!r}")

        monkeypatch.setattr(kernels_module, "kernels_for", refuse)
        for instance, want in zip(instances, expected):
            got = evaluate(expression, instance)
            assert got.tobytes() == want.tobytes()
        for got, want in zip(evaluate_batch(expression, instances), expected_batch):
            assert got.tobytes() == want.tobytes()

    def test_reregistration_reaches_existing_backends_and_evaluators(self):
        from repro.semiring.kernels import register_kernels

        matrix = np.array([[1, 2], [3, 4]])
        instance = Instance.from_matrices({"A": matrix}, semiring=INTEGER)
        expression = var("A") @ var("A")
        dense = DenseExecutionBackend(INTEGER)
        batched = BatchedDenseBackend(INTEGER, 2)
        evaluator = Evaluator(instance, backend="dense")
        stack = np.stack([matrix, matrix]).astype(np.int64)

        def run_all():
            return (
                dense.matmul(matrix.astype(np.int64), matrix.astype(np.int64)),
                batched.matmul(stack, stack),
                evaluator.run(expression),
            )

        assert all(result.dtype == np.int64 for result in run_all())
        register_kernels("integer", ObjectFoldKernels, overwrite=True)
        try:
            results = run_all()
            assert all(result.dtype == object for result in results)
            square = [[7, 10], [15, 22]]
            assert all(
                np.array_equal(result, np.broadcast_to(square, result.shape))
                for result in results
            )
        finally:
            register_kernels("integer", Int64Kernels, overwrite=True)
        assert all(result.dtype == np.int64 for result in run_all())


#: Carrier values per semiring for the batch_scale checks: the zero, the
#: one, a third factor (neither, where the carrier has one) and the entries
#: of the scaled stack.
SCALE_VALUES = {
    "real": (0.0, 1.0, 3.25, [-2.5, 0.0, 1.0, 3.25, 1e-3, 7.0]),
    "boolean": (False, True, True, [False, True, True, False, True, True]),
    "natural": (0, 1, 9, [0, 1, 2, 9, 4, 3]),
    "integer": (0, 1, -7, [-7, 0, 1, 5, 12, -3]),
    "min_plus": (math.inf, 0.0, -1.5, [math.inf, 0.0, -1.5, 2.0, 3.0, math.inf]),
    "max_plus": (-math.inf, 0.0, 2.0, [-math.inf, 0.0, -1.5, 2.0, 3.0, -math.inf]),
    "provenance": (0, 1, "p", ["p", "q", 0, 1, 2, "r"]),
}


def _scale_stack(semiring, values, batch=3):
    row = np.array(values, dtype=object)
    slices = [np.roll(row, index).reshape(2, 3) for index in range(batch)]
    return np.stack([semiring.kernels.coerce_matrix(piece) for piece in slices])


def _scale_factors(semiring, factors):
    column = np.array(factors, dtype=object).reshape(-1, 1, 1)
    return semiring.kernels.coerce_matrix(column)


def _assert_identical(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    if got.dtype == object:
        assert all(got[index] == want[index] for index in np.ndindex(got.shape))
    else:
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestBatchScale:
    @pytest.mark.parametrize("factor_kind", ["zero", "one", "mixed"])
    @pytest.mark.parametrize("name", sorted(SCALE_VALUES))
    def test_matches_hadamard_against_broadcast_factors(self, name, factor_kind):
        semiring = get_semiring(name)
        zero, one, other, values = SCALE_VALUES[name]
        factors = {"zero": [zero] * 3, "one": [one] * 3, "mixed": [zero, one, other]}
        stack = _scale_stack(semiring, values)
        factor_stack = _scale_factors(semiring, factors[factor_kind])
        kernels = semiring.kernels
        got = kernels.batch_scale(factor_stack, stack)
        want = kernels.batch_hadamard(np.broadcast_to(factor_stack, stack.shape), stack)
        _assert_identical(got, want)
        # And per slice, the 2-D scale of each instance by its own factor.
        for index in range(stack.shape[0]):
            single = kernels.scale(factor_stack[index, 0, 0], stack[index])
            assert semiring.matrices_equal(got[index], single)

    def test_batched_backend_scale_uses_batch_scale(self, monkeypatch):
        calls = []
        original = Float64FieldKernels.batch_scale

        def spy(self, factors, stack):
            calls.append(factors.shape)
            return original(self, factors, stack)

        monkeypatch.setattr(Float64FieldKernels, "batch_scale", spy)
        backend = BatchedDenseBackend(REAL, 2)
        factors = np.array([2.0, -1.0]).reshape(2, 1, 1)
        stack = np.arange(12.0).reshape(2, 2, 3)
        result = backend.scale(factors, stack)
        assert calls == [(2, 1, 1)]
        assert np.array_equal(result, factors * stack)

    def test_int64_beyond_the_global_bound_is_exact_where_it_fits(self):
        # max|f| * max|S| = 2**80 fails the global bound, but no entry's
        # product exceeds 2**41: the entrywise refinement keeps it exact.
        factors = np.array([2**40, 1], dtype=np.int64).reshape(2, 1, 1)
        stack = np.array([[[1, 2]], [[2**40, 3]]], dtype=np.int64)
        kernels = INTEGER.kernels
        got = kernels.batch_scale(factors, stack)
        assert got.tolist() == [[[2**40, 2**41]], [[2**40, 3]]]
        broadcast = np.broadcast_to(factors, stack.shape)
        _assert_identical(got, kernels.batch_hadamard(broadcast, stack))
        # A product inside the float bound's margin takes the exact fold.
        edge = (2**63 - 1) // 3
        factors = np.array([3, 1], dtype=np.int64).reshape(2, 1, 1)
        stack = np.array([[[edge]], [[5]]], dtype=np.int64)
        assert kernels.batch_scale(factors, stack).tolist() == [[[3 * edge]], [[5]]]

    @pytest.mark.parametrize("name", ["integer", "natural"])
    def test_int64_overflow_raises_like_hadamard(self, name):
        kernels = get_semiring(name).kernels
        factors = np.array([2**32, 1], dtype=np.int64).reshape(2, 1, 1)
        stack = np.array([[[2**32, 1]], [[1, 1]]], dtype=np.int64)
        with pytest.raises(SemiringError):
            kernels.batch_hadamard(np.broadcast_to(factors, stack.shape), stack)
        with pytest.raises(SemiringError):
            kernels.batch_scale(factors, stack)

    @pytest.mark.parametrize("name", sorted(SCALE_VALUES))
    def test_rejects_non_scalar_factors_and_batch_mismatch(self, name):
        semiring = get_semiring(name)
        _, one, _, values = SCALE_VALUES[name]
        kernels = semiring.kernels
        stack = _scale_stack(semiring, values)  # (3, 2, 3)
        column_factors = _scale_factors(semiring, [one] * 6).reshape(3, 2, 1)
        with pytest.raises(SemiringError, match="factors"):
            kernels.batch_scale(column_factors, stack)
        for count in (1, 2):
            with pytest.raises(SemiringError, match="batches of sizes"):
                kernels.batch_scale(_scale_factors(semiring, [one] * count), stack)
        with pytest.raises(SemiringError):
            kernels.batch_scale(_scale_factors(semiring, [one]).reshape(1, 1), stack)
