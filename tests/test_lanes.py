"""Differential tests for lane execution of Sigma / Pi-o and affine for loops.

Unfused ``sum`` / ``hadamard`` loops run their body once over all of their
iterations, stacked as lanes of a batched backend (see "Lane execution" in
:mod:`repro.matlang.ir`), and so do ``for`` loops whose body is affine in a
vector or scalar accumulator (see "Affine ``for`` loops").  Generated
programs nest these quantifiers with iterator-dependent bodies, inside
``for`` and ``Pi`` loops, through pointwise functions and over vectors,
scalars and size-1 dimensions; generated ``for`` loops over column-vector,
scalar and row-vector accumulators mix ``X``-free terms with terms linear
in ``X``, and some add a term that keeps the loop in order.  Each program
runs through

* the compiled single-instance path (``evaluate``),
* ``run_batch`` over several instances at once, and
* both again with the lane budget shrunk, so iteration ranges split into
  uneven chunks.

Every result must equal the tree-walk interpreter
(``Evaluator(compile=False)``): bitwise on the exact semirings, within a
tolerance scaled by the program's magnitude bound on REAL.  The compiled
paths must also agree with each other bitwise on every semiring: lanes fold
and affine maps apply in iteration order, so no result depends on chunking
or batch size.  (A budget that moves an affine loop into or out of lanes
re-associates its REAL sums, so on REAL affine programs are compared
bitwise across paths at one budget.)
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.exceptions import SemiringError
from repro.experiments.harness import CompiledWorkload
from repro.matlang import ir
from repro.matlang.builder import apply, diag, forloop, had, hint, lit, ones, prod, ssum, var
from repro.matlang.compiler import compile_expression
from repro.matlang.evaluator import Evaluator, evaluate
from repro.matlang.functions import default_registry
from repro.matlang.instance import Instance
from repro.matlang.schema import Schema
from repro.semiring import BOOLEAN, INTEGER, MAX_PLUS, MIN_PLUS, NATURAL, REAL
from repro.semiring.backends import BatchedDenseBackend, backend_for, batched_sparse_backend
from repro.semiring.provenance import PROVENANCE, Polynomial
from repro.service import Engine
from repro.stdlib.linalg import plu_upper

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

    def dimension_only(kind, level, scope):
        """A term whose value depends on the dimensions alone: an order
        predicate's ``for`` loop over canonical vectors, ``ones`` or
        ``diag(ones(.))`` of a body value, or a constant."""
        w, y = next(fresh), next(fresh)
        e_max = hint(forloop(w, y, var(w)), "alpha", "1")
        shape = draw(st.sampled_from({
            "M": ["last", "identity loop", "shift loop", "identity of"],
            "V": ["e_max", "ones loop", "ones of"],
            "S": ["is_max", "count", "two"],
        }[kind]))
        if shape in ("identity of", "ones of", "count"):
            operand, _ = build(draw(st.sampled_from(["M", "V"])), level - 1, scope)
            if shape == "identity of":
                return diag(ones(operand)), 1.0
            if shape == "ones of":
                return ones(operand), 1.0
            return ones(operand).T @ ones(operand), float(n)
        if shape == "two":
            return lit(2), 2.0
        if shape == "e_max":
            return e_max, 1.0
        if shape == "ones loop":
            return hint(forloop(w, y, var(y) + var(w)), "alpha", "1"), 1.0
        if shape == "is_max":
            return var(draw(st.sampled_from(["u", *scope["V"]]))).T @ e_max, 1.0
        if shape == "last":
            return e_max @ e_max.T, 1.0
        outer = var(w) @ var(w).T
        step = var(y) + outer if shape == "identity loop" else var(y) @ outer + outer
        return hint(forloop(w, y, step), "alpha", "alpha"), 1.0

    def build(kind, level, scope):
        if level == 0:
            return leaf(kind, scope)
        # Quantifiers are listed twice: they are what this suite exercises.
        options = {
            "M": ["leaf", "add", "matmul", "transpose", "scale", "apply", "outer",
                  "sum", "had", "for", "prod", "sum", "had", "frame"],
            "V": ["leaf", "add", "matvec", "scale", "apply", "sum", "had", "sum", "had", "frame"],
            "S": ["leaf", "add", "dot", "quad", "mul", "sum", "had", "sum1", "sum", "had",
                  "frame"],
        }[kind]
        choice = draw(st.sampled_from(options))
        if choice == "leaf":
            return leaf(kind, scope)
        if choice == "frame":
            return dimension_only(kind, level, scope)
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


def _check_all_paths(semiring, program, n, seed, budget, across_budgets=True):
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
            if across_budgets:
                assert np.array_equal(single, compiled), (lane_budget, expression)
            batched = workload.run_batch(instances)
            for result, reference in zip(batched, references):
                assert _agree(semiring, result, reference, bound), (lane_budget, expression)
            assert np.array_equal(batched[0], single), (lane_budget, expression)
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


# ----------------------------------------------------------------------
# Dimension frames
# ----------------------------------------------------------------------
#: ``(n, seed offset)`` of the runs of one plan: it alternates between two
#: sizes, and each size meets a second instance on a filled frame.
FRAME_RUNS = ((2, 0), (3, 0), (2, 1), (3, 1), (2, 0))


@pytest.fixture(scope="module")
def engine():
    with Engine() as engine:
        yield engine


def _block_diagonal(expression, instances):
    backend = batched_sparse_backend(instances[0].semiring, len(instances))
    plan = compile_expression(expression, SCHEMA)
    value = ir.execute_plan_batch(plan, backend, instances, default_registry())
    return list(backend.to_dense(value))


@pytest.mark.parametrize("semiring", EXACT + [REAL], ids=lambda s: s.name)
@settings(max_examples=20, deadline=None)
@given(program=programs(), seed=st.integers(0, 2**16))
def test_frames_agree_across_sizes_and_instances(engine, semiring, program, seed):
    # Frame values are computed once per plan and key, and the plans come
    # from the plan cache, so every run after a size's first one reads a
    # filled frame: a frame reused at the wrong size, or one that holds an
    # instance's matrix, shows up as a disagreement here.
    expression, bound = program
    workload = CompiledWorkload(expression, SCHEMA)
    for n, offset in FRAME_RUNS:
        instances = [_instance(semiring, n, seed + offset + index) for index in range(3)]
        singles = [evaluate(expression, instance) for instance in instances]
        reference = _tree_walk(expression, instances[0])
        assert _agree(semiring, singles[0], reference, bound), (n, expression)
        paths = {
            "run_batch B=1": [workload.run_batch([instance])[0] for instance in instances],
            "run_batch B=3": workload.run_batch(instances),
            "engine": [
                future.result(30)
                for future in [engine.submit(expression, instance) for instance in instances]
            ],
        }
        if HAVE_SCIPY and semiring in (BOOLEAN, MIN_PLUS, MAX_PLUS):
            paths["sparse"] = [
                Evaluator(instance, backend="sparse").run(expression) for instance in instances
            ]
            paths["block-diagonal"] = _block_diagonal(expression, instances)
        for path, results in paths.items():
            for result, single in zip(results, singles):
                assert result.shape == single.shape, (path, n, expression)
                assert np.array_equal(result, single), (path, n, expression)


def test_stored_real_lane_program_agrees_bitwise_at_batch_size_one():
    # Drawn by the test above: run_batch at B=1 differed from evaluate by
    # one ulp on this lane program while a lane capture kept the layout of
    # the transposed A.
    u = var("u")
    expression = ssum("_l0", (u + var("_l0")).T @ var("A").T @ u) + var("s")
    instance = _instance(REAL, 2, 2)
    batched = CompiledWorkload(expression, SCHEMA).run_batch([instance])[0]
    assert np.array_equal(batched, evaluate(expression, instance))


@settings(max_examples=15, deadline=None)
@given(program=programs(depth=2), n=st.integers(1, 2))
def test_provenance_loops_agree_with_the_tree_walk(program, n):
    # Object-dtype carriers keep the sequential loop.
    assert not ir._lane_capable(backend_for(PROVENANCE, "dense"))
    _check_provenance(program, n)


def _check_provenance(program, n):
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
    # Two instances of one size: same widths, whatever their values.  The
    # apply of a matrix keeps both Sigmas out of the contraction fragment.
    v, w = var("v"), var("w")
    expression = ssum("v", ssum("w", (v.T @ var("A") @ w) * apply("mul", v @ w.T, var("B"))))
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


#: A Sigma loop with n x n body values (an apply of a matrix keeps it out
#: of the contraction fragment), and an affine for loop over a vector with
#: n x 1 body values: ``X <- (v^T u) X + (u^T X)(v^T u) u + v s``.
BATCH_LOOPS = {
    "sum": ssum(
        "v",
        (var("v").T @ var("A") @ var("v"))
        * apply("mul", var("A") @ var("v") @ var("v").T @ var("B"), var("A")),
    ),
    "affine": forloop(
        "v",
        "X",
        (var("v").T @ var("u")) * var("X")
        + ((var("u").T @ var("X")) @ (var("v").T @ var("u"))) * var("u")
        + var("v") @ var("s"),
        init=var("u"),
    ),
}


@pytest.mark.parametrize("loop", sorted(BATCH_LOOPS))
@pytest.mark.parametrize("budget", [ir.LANE_ENTRY_BUDGET, 8192])
def test_real_results_do_not_depend_on_the_batch(monkeypatch, budget, loop):
    # n = 16: alone, an instance runs all 16 iterations as one chunk; in a
    # batch of 32 the range splits into chunks of 8 (sum) or 7 (affine), or
    # at the smaller budget of 1 (the sum then iterates in order on the
    # batch; the affine loop keeps lanes, as the choice is per instance).
    # The float64 results must come out bitwise-equal either way.
    n, batch = 16, 32
    expression = BATCH_LOOPS[loop]
    assert compile_expression(expression, SCHEMA).count_ops("loop") == 1
    widths = []
    original = ir._loop_mode

    def spy(op, runtime, backend, count):
        mode = original(op, runtime, backend, count)
        widths.append(mode.width)
        return mode

    monkeypatch.setattr(ir, "_loop_mode", spy)
    monkeypatch.setattr(ir, "LANE_ENTRY_BUDGET", budget)
    instances = [_instance(REAL, n, seed) for seed in range(batch)]
    singles = [evaluate(expression, instance) for instance in instances]
    batched = CompiledWorkload(expression, SCHEMA).run_batch(instances)
    assert widths[0] == n and min(widths[batch:]) < n
    if loop == "affine":
        assert min(widths[batch:]) >= 1
    for single, result in zip(singles, batched):
        assert np.array_equal(single, result)


#: ``(u^T v) . Pi_p (v^T w)``: the Pi inside keeps a Sigma over this body out
#: of the contraction fragment, and fuses to a power (``w`` is all ones, so
#: every lane is ``u_v``).
LANE_BODY = (var("u").T @ var("v")) * prod("p", var("v").T @ var("w"))


def test_integer_lane_fold_follows_iteration_order():
    # Summed in iteration order the lanes 2^62, -2^62, 2^62, -2^62 never
    # leave int64 (as in the tree-walk); any regrouping would overflow.
    schema = Schema({"u": ("alpha", "1"), "w": ("alpha", "1")})
    expression = ssum("v", LANE_BODY)
    assert compile_expression(expression, schema).count_ops("loop") == 1
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
    expression = quantifier("v", LANE_BODY)
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


# ----------------------------------------------------------------------
# Affine for loops
# ----------------------------------------------------------------------
#: Accumulator kinds of the affine generator: column vector, scalar, row.
ACCUMULATORS = ("V", "S", "R")


@st.composite
def affine_programs(draw):
    """``(expression, magnitude bound)`` of a ``for`` loop over a vector.

    The accumulator ``X`` is ``alpha x 1`` (V), ``1 x 1`` (S) or
    ``1 x alpha`` (R).  Each step sums, in a drawn order, ``X``-free terms
    that read the iterator and terms linear in ``X`` (``M.X``, ``X.M``,
    ``(1^T X).c``, ``X.s``, ``s.X``), and sometimes ``X`` itself or one term
    that keeps the loop in order (``apply`` of ``X``, ``X.X^T.u``, a Sigma
    that reads ``X``).  The bound iterates the step's magnitude ``n`` times
    and assumes entries of magnitude <= 1.
    """
    n = MAX_DIMENSION
    kind = draw(st.sampled_from(ACCUMULATORS))
    v, x, w = var("_av"), var("_aX"), var("_aw")
    a, b, u, s = var("A"), var("B"), var("u"), var("s")

    def scalar():
        return draw(st.sampled_from([s, lit(1), v.T @ a @ v, v.T @ u]))

    def free():
        """An ``X``-free term of ``X``'s type that reads the iterator."""
        return draw(
            st.sampled_from(
                {
                    "V": [v, a @ v, (v.T @ u) * u, s * v],
                    "S": [v.T @ a @ v, v.T @ u, (v.T @ u) @ s],
                    "R": [v.T, v.T @ a, (v.T @ u) * u.T],
                }[kind]
            )
        )

    def linear():
        """A term linear in ``X`` and its gain on ``|X|``."""
        matrix = draw(st.sampled_from([a, b, v @ v.T, a @ v @ v.T]))
        shapes = {
            "V": ["M.X", "(1^T X).c", "X.s", "s.X"],
            "S": ["M.X", "(1^T X).c", "X.s", "s.X"],
            "R": ["X.M", "(X 1).c", "s.X"],
        }[kind]
        shape = draw(st.sampled_from(shapes))
        if shape == "M.X":
            return (matrix @ x, n) if kind == "V" else (scalar() @ x, 1)
        if shape == "X.M":
            return x @ matrix, n
        if shape == "(1^T X).c":
            return (ones(x).T @ x) * free(), n
        if shape == "(X 1).c":
            return (x @ ones(x.T)) * free(), n
        if shape == "X.s":
            return x @ scalar(), 1
        return scalar() * x, 1

    def in_order():
        """A term that keeps the loop in order and its bound on ``|X|``."""
        shape = draw(st.sampled_from(["apply", "outer", "sum"]))
        if shape == "apply":
            function = draw(st.sampled_from(["mul", "add"]))
            term = apply(function, x, free())
            return term, (lambda m: m) if function == "mul" else (lambda m: m + 1)
        if shape == "outer":
            tail = {"V": u, "S": s, "R": u.T}[kind]
            return x @ x.T @ tail, lambda m: n * m * m
        body = {
            "V": (w.T @ x) * (a @ w),
            "S": (w.T @ u) * x @ (w.T @ a @ w),
            "R": (x @ w) * (v.T @ a @ w) * w.T,
        }[kind]
        return ssum("_aw", body), lambda m: n * m

    terms = [linear() for _ in range(draw(st.integers(1, 2)))]
    terms += [(free(), 0) for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        terms.append((x, 1))
    extra = in_order() if draw(st.integers(0, 2)) == 0 else None
    order = draw(st.permutations(range(len(terms) + (extra is not None))))
    summands = [extra[0] if index == len(terms) else terms[index][0] for index in order]
    step = summands[0]
    for summand in summands[1:]:
        step = step + summand

    init = draw(st.sampled_from([None, {"V": u, "S": s, "R": u.T}[kind]]))
    gain = sum(g * n for _, g in terms)
    constant = sum(n for _, g in terms if g == 0)
    bound = 1.0
    for _ in range(n):
        bound = gain * bound + constant + (extra[1](bound) if extra else 0)
    assume(bound <= MAGNITUDE_CAP)
    return forloop("_av", "_aX", step, init=init), bound


@pytest.mark.parametrize("semiring", EXACT + [REAL], ids=lambda s: s.name)
@settings(max_examples=40, deadline=None)
@given(
    program=affine_programs(),
    n=st.integers(1, MAX_DIMENSION),
    seed=st.integers(0, 2**16),
    budget=st.integers(1, 120),
)
def test_affine_loops_agree_with_the_tree_walk(semiring, program, n, seed, budget):
    _check_all_paths(semiring, program, n, seed, budget, across_budgets=semiring is not REAL)


@settings(max_examples=15, deadline=None)
@given(program=affine_programs(), n=st.integers(1, 2))
def test_provenance_affine_loops_agree_with_the_tree_walk(program, n):
    _check_provenance(program, n)


#: One program per linear shape and accumulator kind, and one per shape that
#: keeps the loop in order.
_v, _x, _u = var("_av"), var("_aX"), var("u")
CLASSIFIED = {
    "M.X": (_u, var("A") @ _x + _v, "affine lanes, m=3,"),
    "(1^T X).c": (None, (ones(_x).T @ _x) * _v + _x, "affine lanes, m=3,"),
    "X.s": (_u, _x @ (_v.T @ _u) + _u, "affine lanes, m=3,"),
    "s.X": (_u, (_v.T @ var("A") @ _v) * _x + _v, "affine lanes, m=3,"),
    "scalar X.s": (var("s"), _x @ (_v.T @ _u) + var("s"), "affine lanes, m=1,"),
    "row X.M": (_u.T, _x @ var("A") + _v.T, "affine lanes, m=3,"),
    "row (X 1).c": (_u.T, (_x @ ones(_x.T)) * _v.T + _x, "affine lanes, m=3,"),
    "apply of X": (_u, apply("mul", _x, _v) + _u, "in order (body not affine)"),
    "X.X^T.u": (_u, _x @ _x.T @ _u + _v, "in order (body not affine)"),
    "Sigma reads X": (
        _u,
        ssum("_aw", (var("_aw").T @ _x) * apply("mul", var("A") @ var("_aw"), var("_aw"))) + _v,
        "in order (body not affine)",
    ),
    "matrix accumulator": (var("A"), _x @ var("A") + _v @ _v.T, "in order (accumulator not a vector)"),
}


@pytest.mark.parametrize("name", sorted(CLASSIFIED))
def test_loop_modes_are_explained(name):
    init, step, mode = CLASSIFIED[name]
    expression = forloop("_av", "_aX", step, init=init)
    instance = _instance(INTEGER, 3, 0)
    report = compile_expression(expression, SCHEMA).explain(instance=instance)
    line = next(line for line in report.splitlines() if " for over " in line)
    assert mode in line, report
    assert np.array_equal(evaluate(expression, instance), _tree_walk(expression, instance))


def _plu_instance(n):
    rng = np.random.default_rng(n)
    schema = Schema({"A": ("alpha", "alpha")})
    return Instance.from_matrices({"A": rng.integers(-3, 4, (n, n)).astype(float)}, semiring=REAL, schema=schema)


@pytest.mark.parametrize(
    "n, scan", [(16, "affine lanes, m=16, chunk width 16"), (64, "in order (over the lane budget)")]
)
def test_plu_pivot_scan_mode(n, scan):
    instance = _plu_instance(n)
    plan = compile_expression(plu_upper(), instance.schema)
    report = plan.explain(instance=instance)
    # The section opens with the top-level frame, then one line per loop.
    loops = report[report.index("loop execution"):].splitlines()[2:]
    # Four top-level for loops; the elimination loop (r10) holds the pivot
    # scan (r14), the only for loop affine in a vector.  Its two column
    # Sigmas are contracted (see test_contract.py).
    assert len(loops) == 5, report
    assert loops[4].startswith(f"    r14 for over alpha: {scan}; "), report
    assert sum("affine lanes" in line for line in loops) == (n == 16)


def test_explain_reports_the_modes_that_run(monkeypatch):
    # explain and the executor ask the same function, so the modes the
    # executor runs are the ones the report lists.  A loop that is a frame
    # value runs on a key's first execution only, so the plan is a fresh
    # copy (its frames empty) and runs twice.
    instance = _plu_instance(8)
    plan = dataclasses.replace(compile_expression(plu_upper(), instance.schema))
    report = plan.explain(instance=instance).split("loop execution")[1]
    lines = [line.split(": ", 1)[1] for line in report.splitlines()[2:]]
    reported = [line.split("; ")[0] for line in lines]
    warm = [line.split("; ")[0] for line in lines if not line.endswith("; frame value")]
    ran = []
    original = ir._loop_mode

    def spy(op, runtime, backend, count):
        mode = original(op, runtime, backend, count)
        ran.append(mode.describe())
        return mode

    monkeypatch.setattr(ir, "_loop_mode", spy)
    backend = backend_for(REAL, "dense")
    expected = evaluate(plu_upper(), instance)
    for modes in (reported, warm):
        ran.clear()
        result = ir.execute_plan(plan, backend, instance, default_registry())
        assert np.array_equal(result, expected)
        assert set(ran) == set(modes)
    assert "affine lanes, m=8, chunk width 8" in ran
    assert set(warm) < set(reported)


def test_integer_affine_overflow_raises():
    # Every entry fits int64; M_v X does not: row v of M_v X is
    # x_v + sum(X) = 5 * 2^61 at n = 4.
    schema = Schema({"u": ("alpha", "1")})
    x = var("X")
    expression = forloop("v", "X", (ones(x).T @ x) * var("v") + x, init=var("u"))
    instance = Instance.from_matrices({"u": np.full((4, 1), 2**61)}, semiring=INTEGER, schema=schema)
    report = compile_expression(expression, schema).explain(instance=instance)
    assert "affine lanes, m=4" in report
    with pytest.raises(SemiringError):
        evaluate(expression, instance)
    with pytest.raises(SemiringError):
        CompiledWorkload(expression, schema).run_batch([instance, instance])
    with pytest.raises(SemiringError):
        _tree_walk(expression, instance)
