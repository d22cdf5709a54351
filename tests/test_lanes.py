"""Differential tests for lane execution of Sigma and Pi-o loops.

Unfused ``sum`` / ``hadamard`` loops run their body once over all of their
iterations, stacked as lanes of a batched backend (see "Lane execution" in
:mod:`repro.matlang.ir`).  Generated programs nest these quantifiers with
iterator-dependent bodies, inside ``for`` and ``Pi`` loops, through
pointwise functions and over vectors, scalars and size-1 dimensions, and
run through

* the compiled single-instance path (``evaluate``),
* ``run_batch`` over several instances at once, and
* both again with the lane budget shrunk, so iteration ranges split into
  uneven chunks.

Every result must equal the tree-walk interpreter
(``Evaluator(compile=False)``): bitwise on the exact semirings, within a
tolerance scaled by the program's magnitude bound on REAL.  The compiled
paths must also agree with each other bitwise on every semiring: lanes fold
in iteration order, so no result depends on chunking or batch size.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SemiringError
from repro.experiments.harness import CompiledWorkload
from repro.matlang import ir
from repro.matlang.builder import apply, forloop, had, lit, prod, ssum, var
from repro.matlang.compiler import compile_expression
from repro.matlang.evaluator import Evaluator, evaluate
from repro.matlang.instance import Instance
from repro.matlang.schema import Schema
from repro.semiring import BOOLEAN, INTEGER, MAX_PLUS, MIN_PLUS, NATURAL, REAL
from repro.semiring.backends import BatchedDenseBackend, backend_for
from repro.semiring.provenance import PROVENANCE, Polynomial

try:
    import scipy.sparse  # noqa: F401

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised on scipy-less installs
    HAVE_SCIPY = False

SCHEMA = Schema(
    {
        "A": ("alpha", "alpha"),
        "B": ("alpha", "alpha"),
        "u": ("alpha", "1"),
        "s": ("1", "1"),
    }
)
SHAPES = {"A": "M", "B": "M", "u": "V", "s": "S"}

#: Largest dimension the generated instances use; magnitude bounds assume it.
MAX_DIMENSION = 3
#: Programs whose magnitude bound exceeds this are pruned while generated,
#: so int64 never overflows and float64 keeps integer-valued tropical
#: entries exact.
MAGNITUDE_CAP = 2.0**40

EXACT = [BOOLEAN, NATURAL, INTEGER, MIN_PLUS, MAX_PLUS]


@st.composite
def programs(draw, depth=4):
    """``(expression, magnitude bound)`` of a generated matrix program.

    Types are ``M`` (alpha x alpha), ``V`` (alpha x 1) and ``S`` (1 x 1);
    quantifier bodies always read their iterator.  The bound assumes
    entries of magnitude <= 1 and dimensions <= :data:`MAX_DIMENSION`.
    """
    fresh = (f"_l{index}" for index in itertools.count())
    n = MAX_DIMENSION

    def leaf(kind, scope):
        iterators = scope["V"]
        pick = (lambda: draw(st.sampled_from(iterators))) if iterators else None
        if kind == "M":
            name = draw(st.sampled_from(["A", "B", *scope["M"], *(["outer"] if pick else [])]))
            if name == "outer":
                return var(pick()) @ var(pick()).T, 1.0
            return var(name), 1.0
        if kind == "V":
            # The innermost iterator twice: bodies mostly read it.
            return var(draw(st.sampled_from(["u", *iterators, *iterators[-1:]]))), 1.0
        name = draw(st.sampled_from(["s", "1", *(["entry"] if pick else [])]))
        if name == "entry":
            return var(pick()).T @ var("A") @ var(pick()), 1.0
        return (lit(1) if name == "1" else var(name)), 1.0

    def tie(kind, body, bound, iterator):
        """Make ``body`` read ``iterator`` (an alpha x 1 or 1 x 1 vector)."""
        if iterator in body.free_variables():
            return body, bound
        return (var(iterator).T @ var("u")) * body, bound

    def build(kind, level, scope):
        if level == 0:
            return leaf(kind, scope)
        # Quantifiers are listed twice: they are what this suite exercises.
        options = {
            "M": ["leaf", "add", "matmul", "transpose", "scale", "apply", "outer",
                  "sum", "had", "for", "prod", "sum", "had"],
            "V": ["leaf", "add", "matvec", "scale", "apply", "sum", "had", "sum", "had"],
            "S": ["leaf", "add", "dot", "quad", "mul", "sum", "had", "sum1", "sum", "had"],
        }[kind]
        choice = draw(st.sampled_from(options))
        if choice == "leaf":
            return leaf(kind, scope)
        if choice == "add":
            (left, lb), (right, rb) = build(kind, level - 1, scope), build(kind, level - 1, scope)
            node = (left + right, lb + rb)
        elif choice in ("matmul", "mul"):
            (left, lb), (right, rb) = build(kind, level - 1, scope), build(kind, level - 1, scope)
            node = (left @ right, n * lb * rb)
        elif choice == "transpose":
            operand, bound = build("M", level - 1, scope)
            node = (operand.T, bound)
        elif choice == "scale":
            (factor, fb), (operand, ob) = build("S", level - 1, scope), build(kind, level - 1, scope)
            node = (factor * operand, fb * ob)
        elif choice == "apply":
            function = draw(st.sampled_from(["mul", "add", "square"]))
            (left, lb), (right, rb) = build(kind, level - 1, scope), build(kind, level - 1, scope)
            if function == "square":
                node = (apply("square", left), lb * lb)
            elif function == "mul":
                node = (apply("mul", left, right), lb * rb)
            else:
                node = (apply("add", left, right), lb + rb)
        elif choice == "outer":
            (left, lb), (right, rb) = build("V", level - 1, scope), build("V", level - 1, scope)
            node = (left @ right.T, lb * rb)
        elif choice == "matvec":
            (left, lb), (right, rb) = build("M", level - 1, scope), build("V", level - 1, scope)
            node = (left @ right, n * lb * rb)
        elif choice == "dot":
            (left, lb), (right, rb) = build("V", level - 1, scope), build("V", level - 1, scope)
            node = (left.T @ right, n * lb * rb)
        elif choice == "quad":
            (left, lb), (middle, mb) = build("V", level - 1, scope), build("M", level - 1, scope)
            (right, rb) = build("V", level - 1, scope)
            node = (left.T @ middle @ right, n * n * lb * mb * rb)
        elif choice in ("sum", "had"):
            iterator = next(fresh)
            inner = dict(scope, V=scope["V"] + (iterator,))
            body, bound = tie(kind, *build(kind, level - 1, inner), iterator)
            if choice == "sum":
                node = (ssum(iterator, body), n * bound)
            else:
                node = (had(iterator, body), bound**n)
        elif choice == "sum1":
            # An iterator over the size-1 dimension: s @ w forces w : 1 x 1.
            iterator = next(fresh)
            body, bound = build("S", level - 1, scope)
            node = (ssum(iterator, (var("s") @ var(iterator)) * body), bound)
        elif choice == "for":
            iterator, accumulator = next(fresh), next(fresh)
            init, ib = build("M", level - 1, scope)
            inner = dict(scope, V=scope["V"] + (iterator,))
            step, sb = tie("M", *build("M", level - 1, inner), iterator)
            node = (forloop(iterator, accumulator, var(accumulator) + step, init=init),
                    ib + n * sb)
        else:  # prod
            iterator = next(fresh)
            inner = dict(scope, V=scope["V"] + (iterator,))
            body, bound = tie("M", *build("M", level - 1, inner), iterator)
            node = (prod(iterator, body), n ** (n - 1) * bound**n)
        if node[1] > MAGNITUDE_CAP:
            return leaf(kind, scope)
        return node

    kind = draw(st.sampled_from(["M", "V", "S"]))
    return build(kind, depth, {"M": (), "V": ()})


def _matrix(semiring, rng, rows, cols):
    shape = (rows, cols)
    if semiring is BOOLEAN:
        return rng.random(shape) < 0.5
    if semiring is NATURAL:
        return rng.integers(0, 2, shape)
    if semiring is INTEGER:
        return rng.integers(-1, 2, shape)
    if semiring in (MIN_PLUS, MAX_PLUS):
        zero = float(semiring.zero)
        return rng.choice([0.0, 1.0, zero], size=shape)
    return rng.uniform(-1.0, 1.0, shape)


def _shape(kind, n):
    return {"M": (n, n), "V": (n, 1), "S": (1, 1)}[kind]


def _instance(semiring, n, seed):
    rng = np.random.default_rng(seed)
    matrices = {name: _matrix(semiring, rng, *_shape(kind, n)) for name, kind in SHAPES.items()}
    return Instance.from_matrices(matrices, semiring=semiring, schema=SCHEMA)


def _agree(semiring, result, reference, bound):
    if semiring is REAL:
        return result.shape == reference.shape and np.allclose(
            result, reference, rtol=1e-9, atol=1e-9 * bound
        )
    return result.shape == reference.shape and np.array_equal(result, reference)


def _tree_walk(expression, instance):
    return Evaluator(instance, compile=False).run(expression)


def _check_all_paths(semiring, program, n, seed, budget):
    expression, bound = program
    instances = [_instance(semiring, n, seed + index) for index in range(3)]
    references = [_tree_walk(expression, instance) for instance in instances]
    workload = CompiledWorkload(expression, SCHEMA)
    # Every compiled path folds in iteration order, so on every semiring
    # (float64 included) it is bitwise-equal to plain ``evaluate``.
    compiled = evaluate(expression, instances[0])
    saved = ir.LANE_ENTRY_BUDGET
    try:
        for lane_budget in (saved, budget):
            ir.LANE_ENTRY_BUDGET = lane_budget
            single = evaluate(expression, instances[0])
            assert _agree(semiring, single, references[0], bound), (lane_budget, expression)
            assert np.array_equal(single, compiled), (lane_budget, expression)
            batched = workload.run_batch(instances)
            for result, reference in zip(batched, references):
                assert _agree(semiring, result, reference, bound), (lane_budget, expression)
            assert np.array_equal(batched[0], compiled), (lane_budget, expression)
    finally:
        ir.LANE_ENTRY_BUDGET = saved
    if semiring in (BOOLEAN, MIN_PLUS, MAX_PLUS) and HAVE_SCIPY:
        # Loops on a sparse backend keep iterating in order.
        sparse = Evaluator(instances[0], backend="sparse").run(expression)
        assert _agree(semiring, sparse, references[0], bound), expression


@pytest.mark.parametrize("semiring", EXACT + [REAL], ids=lambda s: s.name)
@settings(max_examples=40, deadline=None)
@given(
    program=programs(),
    n=st.integers(1, MAX_DIMENSION),
    seed=st.integers(0, 2**16),
    budget=st.integers(1, 96),
)
def test_lanes_agree_with_the_tree_walk(semiring, program, n, seed, budget):
    _check_all_paths(semiring, program, n, seed, budget)


@settings(max_examples=15, deadline=None)
@given(program=programs(depth=2), n=st.integers(1, 2))
def test_provenance_loops_agree_with_the_tree_walk(program, n):
    # Object-dtype carriers keep the sequential loop.
    assert not ir._lane_capable(backend_for(PROVENANCE, "dense"))
    expression, _ = program
    matrices = {}
    for name, kind in SHAPES.items():
        rows, cols = _shape(kind, n)
        matrix = np.empty((rows, cols), dtype=object)
        for i in range(rows):
            for j in range(cols):
                matrix[i, j] = Polynomial.variable(f"{name}{i}{j}")
        matrices[name] = matrix
    instance = Instance.from_matrices(matrices, semiring=PROVENANCE, schema=SCHEMA)
    result = evaluate(expression, instance)
    reference = _tree_walk(expression, instance)
    assert result.shape == reference.shape
    assert all(result[index] == reference[index] for index in np.ndindex(result.shape))


def test_lanes_run_on_dense_backends_only():
    assert ir._lane_capable(backend_for(INTEGER, "dense"))
    assert ir._lane_capable(BatchedDenseBackend(REAL, 4))
    if HAVE_SCIPY:
        assert not ir._lane_capable(backend_for(BOOLEAN, "sparse"))


def test_chunk_widths_depend_on_dimensions_only(monkeypatch):
    # Two instances of one size: same widths, whatever their values.
    expression = ssum("v", ssum("w", (var("v").T @ var("A") @ var("w")) * (var("v") @ var("w").T)))
    widths = []
    original = ir._lane_width

    def spy(body, runtime, batch, count):
        widths.append(original(body, runtime, batch, count))
        return widths[-1]

    monkeypatch.setattr(ir, "_lane_width", spy)
    monkeypatch.setattr(ir, "LANE_ENTRY_BUDGET", 40)
    for seed in (1, 2):
        instance = _instance(INTEGER, 3, seed)
        assert np.array_equal(evaluate(expression, instance), _tree_walk(expression, instance))
    assert widths[: len(widths) // 2] == widths[len(widths) // 2 :]
    assert min(widths) < 3  # the budget split the range


@pytest.mark.parametrize("budget", [ir.LANE_ENTRY_BUDGET, 8192])
def test_real_results_do_not_depend_on_the_batch(monkeypatch, budget):
    # n = 16 with n x n body values: alone, an instance runs all 16
    # iterations as one chunk; in a batch of 32 the range splits into
    # chunks of 8 (or of 1, which iterates in order on the batch).  The
    # float64 sums must come out bitwise-equal either way.
    n, batch = 16, 32
    v = var("v")
    expression = ssum("v", (v.T @ var("A") @ v) * (var("A") @ v @ v.T @ var("B")))
    assert compile_expression(expression, SCHEMA).count_ops("loop") == 1
    widths = []
    original = ir._lane_width

    def spy(body, runtime, batch_size, count):
        widths.append(original(body, runtime, batch_size, count))
        return widths[-1]

    monkeypatch.setattr(ir, "_lane_width", spy)
    monkeypatch.setattr(ir, "LANE_ENTRY_BUDGET", budget)
    instances = [_instance(REAL, n, seed) for seed in range(batch)]
    singles = [evaluate(expression, instance) for instance in instances]
    batched = CompiledWorkload(expression, SCHEMA).run_batch(instances)
    assert widths[0] == n and min(widths[batch:]) < n
    for single, result in zip(singles, batched):
        assert np.array_equal(single, result)


def test_integer_lane_fold_follows_iteration_order():
    # Summed in iteration order the lanes 2^62, -2^62, 2^62, -2^62 never
    # leave int64 (as in the tree-walk); any regrouping would overflow.
    schema = Schema({"u": ("alpha", "1"), "w": ("alpha", "1")})
    v = var("v")
    expression = ssum("v", (var("u").T @ v) * (v.T @ var("w")))
    instance = Instance.from_matrices(
        {
            "u": np.array([[2**62], [-(2**62)], [2**62], [-(2**62)]]),
            "w": np.ones((4, 1), dtype=np.int64),
        },
        semiring=INTEGER,
        schema=schema,
    )
    assert np.array_equal(_tree_walk(expression, instance), [[0]])
    saved = ir.LANE_ENTRY_BUDGET
    try:
        for budget in (saved, 2, 3):
            ir.LANE_ENTRY_BUDGET = budget
            assert np.array_equal(evaluate(expression, instance), [[0]])
            for result in CompiledWorkload(expression, schema).run_batch([instance] * 3):
                assert np.array_equal(result, [[0]])
    finally:
        ir.LANE_ENTRY_BUDGET = saved


@pytest.mark.parametrize("quantifier", [ssum, had], ids=["sum", "hadamard"])
def test_integer_lane_fold_overflow_raises(quantifier):
    # Every lane fits int64 on its own; their fold does not.
    schema = Schema({"u": ("alpha", "1"), "w": ("alpha", "1")})
    v = var("v")
    expression = quantifier("v", (var("u").T @ v) * (v.T @ var("w")))
    assert compile_expression(expression, schema).count_ops("loop") == 1
    instance = Instance.from_matrices(
        {"u": np.full((4, 1), 2**62), "w": np.ones((4, 1), dtype=np.int64)},
        semiring=INTEGER,
        schema=schema,
    )
    with pytest.raises(SemiringError):
        evaluate(expression, instance)
    with pytest.raises(SemiringError):
        CompiledWorkload(expression, schema).run_batch([instance, instance])
    with pytest.raises(SemiringError):
        _tree_walk(expression, instance)
