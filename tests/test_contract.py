"""Differential tests for ``Sigma`` nests lowered as semiring contractions.

When no rule of :mod:`repro.matlang.rewrites` fuses a ``sum`` loop, the
compiler lowers the maximal ``Sigma`` nest around it by variable
elimination (:mod:`repro.matlang.contract`).  Generated nests of depth 1-4
multiply entry factors ``x^T M y`` (over ``A``, ``B``, ``A^T``, ``A.B``, a
rectangular ``C``, or the accumulator of an enclosing ``for``),
``x^T y``, distinctness factors ``1 + (-1) x^T y``, constants, ``s`` and
``apply`` / ``+`` of factors, and end in an optional output selector
``u``, ``w^T``, ``u.w^T`` or ``L.u.w^T.R``.  Some sit inside a ``for`` loop
whose iterator and accumulator appear in a factor, as Floyd-Warshall's
does; some carry a factor the lowering must decline (one spanning three
iterators, or a ``Pi`` inside).

Each program's plan must show whether it lowered (its count of ``sum``
loops), and each runs through ``evaluate``, ``run_batch`` over three
instances, the sparse backends (BOOLEAN and tropical) and PROVENANCE.  Results must equal
the tree-walk interpreter bitwise on the exact semirings (integer-valued
tropical inputs, magnitudes capped so nothing leaves int64) and within
tolerance on REAL; the compiled paths must agree bitwise with each other;
and loop-free programs whose only pointwise function is ``mul`` must also
equal :func:`repro.kalgebra.matlang_to_ra.evaluate_via_relational`, the
independent RA+_K evaluation of Proposition 6.3.
"""

import itertools
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.exceptions import SemiringError
from repro.experiments.harness import CompiledWorkload
from repro.kalgebra.matlang_to_ra import evaluate_via_relational
from repro.matlang import ir
from repro.matlang.builder import apply, forloop, hint, lit, prod, ssum, var
from repro.matlang.compiler import compile_expression
from repro.matlang.cost import elimination_order
from repro.matlang.evaluator import Evaluator, evaluate
from repro.matlang.instance import Instance
from repro.matlang.schema import Schema
from repro.semiring import BOOLEAN, INTEGER, MAX_PLUS, MIN_PLUS, NATURAL, REAL
from repro.semiring.provenance import PROVENANCE, Polynomial
from repro.service import Engine
from repro.stdlib.graphs import four_clique_count, transitive_closure_floyd_warshall, triangle_count
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
        "C": ("alpha", "beta"),
        "u": ("alpha", "1"),
        "t": ("beta", "1"),
        "s": ("1", "1"),
    }
)

#: Largest dimension the generated instances use; magnitude bounds assume it.
MAX_DIMENSION = 3
#: Programs whose magnitude bound exceeds this are rejected while generated.
MAGNITUDE_CAP = 2.0**40

EXACT = [BOOLEAN, NATURAL, INTEGER, MIN_PLUS, MAX_PLUS]

_N = MAX_DIMENSION
#: Nest-free matrices by (row, column) dimension: (name, gain on entries).
MATRICES = {
    ("alpha", "alpha"): [("A", 1), ("B", 1), ("A^T", 1), ("A.B", _N)],
    ("alpha", "beta"): [("C", 1), ("A.C", _N)],
    ("beta", "alpha"): [("C^T", 1)],
    ("beta", "beta"): [("C^T.C", _N)],
}
_MATRIX_EXPRESSIONS = {
    "A": lambda: var("A"),
    "B": lambda: var("B"),
    "A^T": lambda: var("A").T,
    "A.B": lambda: var("A") @ var("B"),
    "C": lambda: var("C"),
    "A.C": lambda: var("A") @ var("C"),
    "C^T": lambda: var("C").T,
    "C^T.C": lambda: var("C").T @ var("C"),
    "X": lambda: var("_X"),
}
#: Nest-free column vectors by dimension (``_k`` only inside the ``for``).
VECTORS = {"alpha": ["u"], "beta": ["t"]}

#: A generated program and what the lowering must do with it.
Program = namedtuple("Program", "expression bound lowered sum_loops relational")
#: A generated factor: expression, nest iterators it reads, magnitude bound
#: as a function of the accumulator's bound, pointwise functions used.
Factor = namedtuple("Factor", "expression scope bound functions")


@st.composite
def nests(draw):
    """A :class:`Program` holding one generated ``Sigma`` nest."""
    depth = draw(st.integers(1, 4))
    names = [f"_s{index}" for index in range(depth)]
    dims = {name: draw(st.sampled_from(["alpha", "alpha", "beta"])) for name in names}
    in_for = draw(st.integers(0, 2)) == 0
    vectors = {"alpha": VECTORS["alpha"] + (["_k"] if in_for else []), "beta": VECTORS["beta"]}

    def dim(endpoint):
        if endpoint in dims:
            return dims[endpoint]
        return "alpha" if endpoint in ("u", "_k") else "beta"

    def ref(name):
        """An iterator pinned to its dimension, or a nest-free vector."""
        if name not in dims:
            return var(name)
        return hint(var(name), dims[name], "1")

    def matrix(rows, cols):
        options = list(MATRICES[(rows, cols)])
        if in_for and (rows, cols) == ("alpha", "alpha"):
            options.append(("X", None))
        name, gain = draw(st.sampled_from(options))
        return _MATRIX_EXPRESSIONS[name](), (lambda xb: xb) if gain is None else (lambda xb, g=gain: g)

    def entry(x, y, forced_matrix=None):
        if forced_matrix is None:
            expression, gain = matrix(dim(x), dim(y))
        else:
            expression, gain = forced_matrix
        spread = (1 if x in dims else _N) * (1 if y in dims else _N)
        scope = frozenset(name for name in (x, y) if name in dims)
        return Factor(ref(x).T @ expression @ ref(y), scope, lambda xb: gain(xb) * spread, frozenset())

    def atom():
        kind = draw(st.sampled_from(["entry", "entry", "entry", "dot", "distinct", "const", "s"]))
        if kind in ("dot", "distinct"):
            x = draw(st.sampled_from(names))
            pool = [name for name in names if dims[name] == dims[x]]
            if kind == "dot":
                pool += vectors[dims[x]]
            y = draw(st.sampled_from(pool))
            scope = frozenset(name for name in (x, y) if name in dims)
            dot = ref(x).T @ ref(y)
            if kind == "dot":
                return Factor(dot, scope, lambda xb: 1, frozenset())
            return Factor(lit(1) + lit(-1) * dot, scope, lambda xb: 2, frozenset())
        if kind == "const":
            value = draw(st.sampled_from([2, -1]))
            return Factor(lit(value), frozenset(), lambda xb: 2, frozenset())
        if kind == "s":
            return Factor(var("s"), frozenset(), lambda xb: 1, frozenset())
        endpoints = names + vectors["alpha"] + vectors["beta"]
        return entry(draw(st.sampled_from(endpoints)), draw(st.sampled_from(endpoints)))

    def factor(level):
        if level == 0 or draw(st.integers(0, 2)):
            return atom()
        first, second = factor(level - 1), factor(level - 1)
        if len(first.scope | second.scope) > 2:
            return first
        scope = first.scope | second.scope
        functions = first.functions | second.functions
        choice = draw(st.sampled_from(["mul", "add", "square", "+"]))
        if choice == "square":
            return Factor(apply("square", first.expression), first.scope,
                          lambda xb: first.bound(xb) ** 2, first.functions | {"square"})
        if choice == "mul":
            return Factor(apply("mul", first.expression, second.expression), scope,
                          lambda xb: first.bound(xb) * second.bound(xb), functions | {"mul"})
        if choice == "add":
            return Factor(apply("add", first.expression, second.expression), scope,
                          lambda xb: first.bound(xb) + second.bound(xb), functions | {"add"})
        return Factor(first.expression + second.expression, scope,
                      lambda xb: first.bound(xb) + second.bound(xb), functions)

    factors = []
    if in_for:
        # The for loop's iterator and accumulator appear in a factor, as in
        # Floyd-Warshall's weight v_i^T X v_k.
        alpha = [name for name in names if dims[name] == "alpha"]
        row = draw(st.sampled_from(alpha)) if alpha else "_k"
        factors.append(entry(row, "_k", forced_matrix=(var("_X"), lambda xb: xb)))
    factors += [factor(2) for _ in range(draw(st.integers(0, 3)))]
    if depth == 4 and draw(st.booleans()):
        # A factor on every pair, as in the four-clique count: no iterator
        # can be summed out with two neighbours, so one becomes a lane loop.
        for x, y in itertools.combinations(names, 2):
            if dims[x] == dims[y] and draw(st.booleans()):
                factors.append(Factor(lit(1) + lit(-1) * (ref(x).T @ ref(y)), frozenset({x, y}),
                                      lambda xb: 2, frozenset()))
            else:
                factors.append(entry(x, y))

    declined = draw(st.integers(0, 4)) == 0
    if declined:
        if depth >= 3 and draw(st.booleans()):
            x, y, z = draw(st.permutations(names))[:3]
            first, second = entry(x, y), entry(y, z)
            factors.append(Factor(first.expression + second.expression, frozenset({x, y, z}),
                                  lambda xb, f=first, g=second: f.bound(xb) + g.bound(xb), frozenset()))
        else:
            x = draw(st.sampled_from(names))
            middle = var("A") if dims[x] == "alpha" else var("C").T
            body = ref(x).T @ middle @ var("_p")
            factors.append(Factor(prod("_p", body), frozenset({x}), lambda xb: _N, frozenset({"prod"})))
    order = draw(st.permutations(range(len(factors))))
    factors = [factors[index] for index in order]

    # The output selector.
    selectors = ["uwT", "LuwTR"] if in_for else ["none", "u", "wT", "uwT", "LuwTR"]
    selector = draw(st.sampled_from(selectors))
    x, w = draw(st.sampled_from(names)), draw(st.sampled_from(names))
    if selector == "uwT" and in_for and (dims[x], dims[w]) != ("alpha", "alpha"):
        selector = "LuwTR"
    kept = frozenset()
    selector_gain = 1
    if selector == "none":
        output = None
    elif selector == "u":
        output, kept = ref(x), frozenset({x})
    elif selector == "wT":
        output, kept = ref(w).T, frozenset({w})
    else:
        output, kept = ref(x) @ ref(w).T, frozenset({x, w})
        if selector == "LuwTR":
            (left_name, lg), (right_name, rg) = (
                draw(st.sampled_from(MATRICES[("alpha", dims[x])])),
                draw(st.sampled_from(MATRICES[(dims[w], "alpha")])),
            )
            output = _MATRIX_EXPRESSIONS[left_name]() @ output @ _MATRIX_EXPRESSIONS[right_name]()
            selector_gain = lg * rg

    # An iterator nothing reads still gets its dimension: v^T v is 1.
    read = set().union(*(item.expression.free_variables() for item in factors))
    if output is not None:
        read.update(output.free_variables())
    factors += [
        Factor(ref(name).T @ ref(name), frozenset({name}), lambda xb: 1, frozenset())
        for name in names
        if name not in read
    ]
    product = None
    for item in factors:
        if product is None:
            product = item.expression
        elif draw(st.booleans()):
            product = product @ item.expression
        else:
            product = product * item.expression
    if output is None:
        body = product if product is not None else var("s")
    else:
        body = output if product is None else product * output
    expression = body
    for name in reversed(names):
        expression = ssum(name, expression)

    def nest_bound(xb):
        total = float(_N**depth * selector_gain)
        for item in factors:
            total *= item.bound(xb)
        return total

    if in_for:
        expression = forloop("_k", "_X", var("_X") + expression, init=var("A"))
        bound = 1.0
        for _ in range(_N):
            bound += nest_bound(bound)
    else:
        bound = nest_bound(1.0)
    assume(bound <= MAGNITUDE_CAP)

    steps = elimination_order(names, [item.scope for item in factors], kept)
    lanes = sum(1 for action, _ in steps if action == "lane")
    functions = frozenset().union(*(item.functions for item in factors))
    relational = not in_for and functions <= {"mul"}
    return Program(expression, bound, not declined, lanes, relational)


# ----------------------------------------------------------------------
# Instances and comparisons
# ----------------------------------------------------------------------
def _matrix(semiring, rng, rows, cols):
    shape = (rows, cols)
    if semiring is BOOLEAN:
        return rng.random(shape) < 0.5
    if semiring is NATURAL:
        return rng.integers(0, 2, shape)
    if semiring is INTEGER:
        return rng.integers(-1, 2, shape)
    if semiring in (MIN_PLUS, MAX_PLUS):
        return rng.choice([0.0, 1.0, float(semiring.zero)], size=shape)
    return rng.uniform(-1.0, 1.0, shape)


def _sizes(n, m):
    return {"alpha": n, "beta": m, "1": 1}


def _instance(semiring, n, m, seed):
    rng = np.random.default_rng(seed)
    sizes = _sizes(n, m)
    matrices = {
        name: _matrix(semiring, rng, sizes[rows], sizes[cols])
        for name, (rows, cols) in ((name, SCHEMA.size(name)) for name in SCHEMA.variables())
    }
    return Instance(SCHEMA, {"alpha": n, "beta": m}, matrices, semiring)


def _outcome(run):
    """``("value", result)`` or ``("error", exception type)``."""
    try:
        return ("value", run())
    except Exception as error:
        return ("error", type(error))


def _agree(semiring, result, reference, bound):
    if semiring is REAL:
        return result.shape == reference.shape and np.allclose(
            result, reference, rtol=1e-9, atol=1e-9 * bound
        )
    return result.shape == reference.shape and np.array_equal(result, reference)


def _tree_walk(expression, instance):
    return Evaluator(instance, compile=False).run(expression)


def _sum_loops(plan):
    return sum(1 for op in plan.walk_ops() if op.opcode == "loop" and op.kind == "sum")


def _check(semiring, program, n, m, seed):
    expression = program.expression
    plan = compile_expression(expression, SCHEMA)
    if program.lowered:
        assert _sum_loops(plan) == program.sum_loops, plan.describe()
    else:
        assert _sum_loops(plan) >= 1, plan.describe()

    instances = [_instance(semiring, n, m, seed + index) for index in range(3)]
    references = [_outcome(lambda i=i: _tree_walk(expression, i)) for i in instances]
    single = _outcome(lambda: evaluate(expression, instances[0]))
    batched = _outcome(lambda: CompiledWorkload(expression, SCHEMA).run_batch(instances))
    failures = [kind for status, kind in references if status == "error"]
    if failures:
        # A literal outside the carrier raises on every path alike.
        if references[0][0] == "error":
            assert single == references[0], expression
        assert batched[0] == "error" and batched[1] in failures, expression
        return
    assert single[0] == "value", (expression, single)
    assert batched[0] == "value", (expression, batched)
    assert _agree(semiring, single[1], references[0][1], program.bound), expression
    for result, (_, reference) in zip(batched[1], references):
        assert _agree(semiring, result, reference, program.bound), expression
    assert np.array_equal(batched[1][0], single[1]), expression
    if semiring in (BOOLEAN, MIN_PLUS, MAX_PLUS) and HAVE_SCIPY:
        sparse = Evaluator(instances[0], backend="sparse").run(expression)
        assert np.array_equal(sparse, single[1]), expression
    if program.relational:
        relational = evaluate_via_relational(expression, instances[0])
        assert _agree(semiring, relational, references[0][1], program.bound), expression


@pytest.mark.parametrize("semiring", EXACT + [REAL], ids=lambda s: s.name)
@settings(max_examples=30, deadline=None)
@given(
    program=nests(),
    n=st.integers(1, MAX_DIMENSION),
    m=st.integers(1, MAX_DIMENSION),
    seed=st.integers(0, 2**16),
)
def test_contractions_agree_with_the_tree_walk(semiring, program, n, m, seed):
    _check(semiring, program, n, m, seed)


def _stored_real_nest():
    """A four-deep nest on which REAL ``run_batch`` and ``evaluate`` differed
    by one ulp at ``n = m = 2``, seed 0 (drawn by the test above), while lane
    captures kept the layout of a transposed value."""
    s0, s1 = hint(var("_s0"), "alpha", "1"), hint(var("_s1"), "alpha", "1")
    s2, s3 = hint(var("_s2"), "beta", "1"), hint(var("_s3"), "beta", "1")
    A, C = var("A"), var("C")
    diagonal = s0.T @ A @ s0
    body = (
        apply("mul", diagonal, diagonal)
        * (lit(1) + lit(-1) * (s0.T @ s1))
        * (s0.T @ C @ s2)
        * (s0.T @ C @ s3)
        * (s1.T @ C @ s2)
        * (s1.T @ (A @ C) @ s3)
        * (s2.T @ (C.T @ C) @ s3)
    )
    expression = ssum("_s0", ssum("_s1", ssum("_s2", ssum("_s3", body))))
    return Program(expression, bound=1458.0, lowered=True, sum_loops=1, relational=True)


def test_stored_real_nest_agrees_bitwise_across_paths():
    _check(REAL, _stored_real_nest(), 2, 2, 0)


@settings(max_examples=15, deadline=None)
@given(program=nests(), n=st.integers(1, 2), m=st.integers(1, 2))
def test_provenance_contractions_agree_with_the_tree_walk(program, n, m):
    sizes = _sizes(n, m)
    matrices = {}
    for name in SCHEMA.variables():
        rows, cols = (sizes[symbol] for symbol in SCHEMA.size(name))
        matrix = np.empty((rows, cols), dtype=object)
        for i, j in itertools.product(range(rows), range(cols)):
            matrix[i, j] = Polynomial.variable(f"{name}{i}{j}")
        matrices[name] = matrix
    instance = Instance(SCHEMA, {"alpha": n, "beta": m}, matrices, PROVENANCE)
    result = _outcome(lambda: evaluate(program.expression, instance))
    reference = _outcome(lambda: _tree_walk(program.expression, instance))
    assert result[0] == reference[0], (program.expression, result, reference)
    if result[0] == "error":
        assert result == reference
        return
    assert result[1].shape == reference[1].shape
    assert all(result[1][index] == reference[1][index] for index in np.ndindex(result[1].shape))


# ----------------------------------------------------------------------
# The paper's nests
# ----------------------------------------------------------------------
GRAPH = Schema({"A": ("alpha", "alpha")})


def _graph(semiring, n, seed=0, density=0.5):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density, 1)
    adjacency = (upper | upper.T).astype(int)
    return Instance.from_matrices({"A": adjacency}, semiring=semiring, schema=GRAPH)


def _loops(plan):
    return [op for op in plan.walk_ops() if op.opcode == "loop"]


class _OpCounter:
    """The ``execute_plan`` profiler hook, counting executed ops."""

    def __init__(self):
        self.ops = 0

    def record(self, op, backend_name, values, seconds):
        self.ops += 1

    def observe_instance(self, instance):
        pass


def _ops_executed(expression, instance):
    counter = _OpCounter()
    Evaluator(instance, profiler=counter).run(expression)
    return counter.ops


def test_floyd_warshall_keeps_one_in_order_for_loop():
    instance = _graph(BOOLEAN, 6)
    plan = compile_expression(transitive_closure_floyd_warshall(), GRAPH)
    (loop,) = _loops(plan)
    assert loop.kind == "for"
    assert "r1 for over alpha: in order (accumulator not a vector)" in plan.explain(instance=instance)
    assert (
        "contract: Sigma over (_fwi, _fwj) -> (_fwi, _fwj); eliminate nothing; "
        "largest intermediate alpha x alpha"
    ) in plan.notes
    expression = transitive_closure_floyd_warshall()
    assert np.array_equal(evaluate(expression, instance), _tree_walk(expression, instance))


def test_triangle_count_is_loop_free():
    plan = compile_expression(triangle_count(), GRAPH)
    assert not _loops(plan)
    assert (
        "contract: Sigma over (_cq0, _cq1, _cq2) -> (); eliminate _cq0, _cq1, _cq2; "
        "largest intermediate alpha x alpha"
    ) in plan.notes


def test_four_clique_count_runs_one_lane_loop_with_a_loop_free_body():
    plan = compile_expression(four_clique_count(), GRAPH)
    (loop,) = _loops(plan)
    assert loop.kind == "sum" and not _loops(loop.body)
    assert (
        "contract: Sigma over (_cq0, _cq1, _cq2, _cq3) -> (); lane loop over _cq0; "
        "eliminate _cq1, _cq2, _cq3; largest intermediate alpha x alpha x alpha"
    ) in plan.notes


def test_declined_nests_add_no_note():
    v, w = var("v"), var("w")
    expression = ssum("v", ssum("w", (v.T @ var("A") @ w) * apply("mul", v @ w.T, var("A"))))
    plan = compile_expression(expression, GRAPH)
    assert len(_loops(plan)) == 2
    assert not any(note.startswith("contract") for note in plan.notes)


def test_plu_runs_no_sigma_inside_the_elimination_loop():
    plan = compile_expression(plu_upper(), GRAPH)
    assert all(op.kind == "for" for op in _loops(plan))
    assert sum(note.startswith("contract") for note in plan.notes) == 2


def _closure(adjacency):
    """Irreflexive transitive closure: paths of length 1 to n."""
    n = len(adjacency)
    step = adjacency.astype(bool)
    reach, power = step.copy(), step.copy()
    for _ in range(n - 1):
        power = (power.astype(int) @ step.astype(int)) > 0
        reach |= power
    return reach


def _ordered_four_cliques(adjacency):
    count = sum(
        all(adjacency[a, b] for a, b in itertools.combinations(quad, 2))
        for quad in itertools.combinations(range(len(adjacency)), 4)
    )
    return np.array([[24 * count]])


@pytest.mark.parametrize(
    "expression, semiring, n, ops, reference",
    [
        # 64 in-order steps of X + (X v_k)(v_k^T X): 7 ops each, plus the
        # load and the loop.  As lanes they ran 117,570 ops.
        (transitive_closure_floyd_warshall(), BOOLEAN, 64, 450, _closure),
        # 12 ops before the lane loop over _cq0, and its 13-op body once for
        # all 16 lanes.  As lanes they ran 9,545 ops.
        (four_clique_count(), INTEGER, 16, 25, _ordered_four_cliques),
    ],
    ids=["floyd-warshall", "four-clique"],
)
def test_contracted_op_counts(expression, semiring, n, ops, reference):
    instance = _graph(semiring, n, density=0.3)
    assert _ops_executed(expression, instance) == ops
    assert np.array_equal(evaluate(expression, instance), reference(instance.matrix("A")))


def test_paper_nests_agree_with_the_tree_walk():
    semirings = EXACT + [REAL]
    for semiring, expression, n in itertools.product(semirings, (triangle_count(), four_clique_count()), (1, 3, 5)):
        instance = _graph(semiring, n, seed=n)
        result = _outcome(lambda: evaluate(expression, instance))
        reference = _outcome(lambda: _tree_walk(expression, instance))
        if semiring is NATURAL:
            # The distinctness factors hold the literal -1, outside N.
            assert result == reference == ("error", SemiringError)
        else:
            assert _agree(semiring, result[1], reference[1], 1.0)


# ----------------------------------------------------------------------
# Programs the lane tests used to exercise (the contraction now takes them)
# ----------------------------------------------------------------------
LANE_SCHEMA = Schema({"A": ("alpha", "alpha"), "B": ("alpha", "alpha"), "u": ("alpha", "1"), "s": ("1", "1")})


def _lane_instance(semiring, n, seed):
    rng = np.random.default_rng(seed)
    matrices = {
        "A": _matrix(semiring, rng, n, n),
        "B": _matrix(semiring, rng, n, n),
        "u": _matrix(semiring, rng, n, 1),
        "s": _matrix(semiring, rng, 1, 1),
    }
    return Instance.from_matrices(matrices, semiring=semiring, schema=LANE_SCHEMA)


def test_selected_entries_of_a_matrix_sum_to_the_matrix():
    # Sum_v Sum_w (v^T A w)(v w^T) is A: loop-free, one op.
    expression = ssum("v", ssum("w", (var("v").T @ var("A") @ var("w")) * (var("v") @ var("w").T)))
    plan = compile_expression(expression, LANE_SCHEMA)
    assert not _loops(plan) and plan.ops[plan.result].opcode == "load"
    for seed in (1, 2):
        instance = _lane_instance(INTEGER, 3, seed)
        assert np.array_equal(evaluate(expression, instance), _tree_walk(expression, instance))


def test_real_results_of_a_contraction_do_not_depend_on_the_batch():
    # A . diag(diag(A)) . B: loop-free, and bitwise-equal alone or batched.
    expression = ssum("v", (var("v").T @ var("A") @ var("v")) * (var("A") @ var("v") @ var("v").T @ var("B")))
    assert not _loops(compile_expression(expression, LANE_SCHEMA))
    instances = [_lane_instance(REAL, 16, seed) for seed in range(32)]
    singles = [evaluate(expression, instance) for instance in instances]
    batched = CompiledWorkload(expression, LANE_SCHEMA).run_batch(instances)
    for single, result, instance in zip(singles, batched, instances):
        assert np.array_equal(single, result)
        assert np.allclose(single, _tree_walk(expression, instance))


DOT_SCHEMA = Schema({"u": ("alpha", "1"), "w": ("alpha", "1")})
#: Sum_v (u^T v)(v^T w): the dot product u^T w.
DOT = ssum("v", (var("u").T @ var("v")) * (var("v").T @ var("w")))


def _dot_instance(entries):
    matrices = {"u": np.array(entries).reshape(-1, 1), "w": np.ones((len(entries), 1), dtype=np.int64)}
    return Instance.from_matrices(matrices, semiring=INTEGER, schema=DOT_SCHEMA)


def test_integer_dot_product_that_fits_is_exact():
    instance = _dot_instance([2**62, -(2**62), 2**62, -(2**62)])
    assert not _loops(compile_expression(DOT, DOT_SCHEMA))
    assert np.array_equal(_tree_walk(DOT, instance), [[0]])
    assert np.array_equal(evaluate(DOT, instance), [[0]])
    for result in CompiledWorkload(DOT, DOT_SCHEMA).run_batch([instance] * 3):
        assert np.array_equal(result, [[0]])


def test_integer_total_that_fits_is_returned_where_the_tree_walk_overflows():
    # The tree-walk's partial sum 2^62 + 2^62 leaves int64; the total is 0.
    instance = _dot_instance([2**62, 2**62, -(2**62), -(2**62)])
    with pytest.raises(SemiringError):
        _tree_walk(DOT, instance)
    assert np.array_equal(evaluate(DOT, instance), [[0]])
    for result in CompiledWorkload(DOT, DOT_SCHEMA).run_batch([instance] * 2):
        assert np.array_equal(result, [[0]])


def test_integer_total_that_does_not_fit_raises():
    instance = _dot_instance([2**62] * 4)
    with pytest.raises(SemiringError):
        evaluate(DOT, instance)
    with pytest.raises(SemiringError):
        CompiledWorkload(DOT, DOT_SCHEMA).run_batch([instance, instance])
    with pytest.raises(SemiringError):
        _tree_walk(DOT, instance)


def test_sigma_reading_the_accumulator_leaves_an_affine_loop():
    # Sum_w (w^T X)(A w) is A . X, so the for loop becomes affine in X.
    x, v, w = var("_aX"), var("_av"), var("_aw")
    expression = forloop("_av", "_aX", ssum("_aw", (w.T @ x) * (var("A") @ w)) + v, init=var("u"))
    instance = _lane_instance(INTEGER, 3, 0)
    report = compile_expression(expression, LANE_SCHEMA).explain(instance=instance)
    line = next(line for line in report.splitlines() if " for over " in line)
    assert "affine lanes, m=3," in line, report
    assert np.array_equal(evaluate(expression, instance), _tree_walk(expression, instance))


# ----------------------------------------------------------------------
# Every execution path, including the serving engine and its pool
# ----------------------------------------------------------------------
def test_engines_agree_bitwise_and_raise_alike():
    graphs = [_graph(INTEGER, n, seed=n) for n in (5, 6, 7)]
    requests = [(expression, graph) for graph in graphs for expression in (triangle_count(), four_clique_count())]
    requests += [(transitive_closure_floyd_warshall(), _graph(BOOLEAN, 9, seed=3))]
    expected = [evaluate(expression, instance) for expression, instance in requests]
    overflow = _dot_instance([2**62] * 4)
    for engine in (Engine(), Engine(workers=2)):
        with engine:
            futures = [engine.submit(expression, instance) for expression, instance in requests]
            for future, reference in zip(futures, expected):
                assert np.array_equal(future.result(60), reference)
            assert isinstance(engine.submit(DOT, overflow).exception(60), SemiringError)


# ----------------------------------------------------------------------
# The sum rules the contraction replaced
# ----------------------------------------------------------------------
_v, _u, _A, _B, _s = var("v"), var("u"), var("A"), var("B"), var("s")
#: One body per ``Sigma_v`` shape a rewrite rule used to fuse (named after
#: the rule or the fused opcode it emitted), and the ops a warm
#: ``evaluate`` of its contraction runs at ``n = 16``.
RULE_ROWS = {
    "nsum": (_A, 2),
    # The inner quantifier rebinds v: the nest stops there.
    "nsum of a shadowing Sigma": (ssum("v", _v.T @ _A @ _v), 4),
    "basis v": (_v, 0),
    "basis v^T": (_v.T, 0),
    "selector v.v^T": (_v @ _v.T, 0),
    "(v.v^T).e": (_v @ _v.T @ _A, 1),
    "(e.v).v^T": (_A @ _v @ _v.T, 1),
    "row_sums e.v": (_A @ _v, 2),
    "col_sums v^T.e": (_v.T @ _A, 2),
    "trace v^T.e.v": (_v.T @ _A @ _v, 3),
    "diag_of_diag": ((_v.T @ _A @ _v) * (_v @ _v.T), 3),
    "diag of a column": ((_v.T @ _u) * (_v @ _v.T), 2),
    "diag of a row": ((_u.T @ _v) * (_v @ _v.T), 2),
    "s x (v.v^T)": (_s * (_v @ _v.T), 3),
    "(Sigma s) x m": ((_v.T @ _A @ _v) * _B, 5),
    "s x (Sigma m)": (_s * (_A @ _v), 4),
    "a + b": (_A @ _v + _B @ _v, 5),
    "nested total": (ssum("w", _v.T @ _A @ var("w")), 4),
}


@pytest.mark.parametrize("row", sorted(RULE_ROWS))
def test_contraction_matches_each_sum_rule(row):
    body, warm_ops = RULE_ROWS[row]
    expression = ssum("v", body)
    assert not _loops(compile_expression(expression, LANE_SCHEMA))
    workload = CompiledWorkload(expression, LANE_SCHEMA)
    for semiring in (INTEGER, BOOLEAN, MIN_PLUS, REAL):
        # Three instances of one size, then a ragged 15/16/17 batch, which
        # a padded REAL batch may round differently.
        for instances in (
            [_lane_instance(semiring, 4, seed) for seed in range(3)],
            [_lane_instance(semiring, n, n) for n in (15, 16, 17)],
        ):
            ragged = instances[0].dimension("alpha") != instances[1].dimension("alpha")
            singles = [evaluate(expression, instance) for instance in instances]
            for single, result, instance in zip(singles, workload.run_batch(instances), instances):
                reference = _tree_walk(expression, instance)
                assert _agree(semiring, single, reference, 17.0**2), (row, semiring.name)
                assert _agree(semiring, result, reference, 17.0**2), (row, semiring.name)
                assert ragged or np.array_equal(result, single), (row, semiring.name)
                if semiring in (BOOLEAN, MIN_PLUS) and HAVE_SCIPY:
                    sparse = Evaluator(instance, backend="sparse").run(expression)
                    assert np.array_equal(sparse, single), (row, semiring.name)
    counter = _OpCounter()
    instance = _lane_instance(INTEGER, 16, 0)
    for _ in range(2):  # the first run fills the dimension frame
        counter.ops = 0
        Evaluator(instance, profiler=counter).run(expression)
    assert counter.ops <= warm_ops, (row, counter.ops)


def test_lane_budget_does_not_change_a_contraction():
    # The lowering's choices depend on the plan only; the lane loop of the
    # four-clique count folds in order at any chunk width.
    instance = _graph(INTEGER, 7, seed=1)
    expected = evaluate(four_clique_count(), instance)
    saved = ir.LANE_ENTRY_BUDGET
    try:
        for budget in (7, 50, 200):
            ir.LANE_ENTRY_BUDGET = budget
            assert np.array_equal(evaluate(four_clique_count(), instance), expected)
            batch = CompiledWorkload(four_clique_count(), GRAPH).run_batch([instance] * 3)
            assert all(np.array_equal(result, expected) for result in batch)
    finally:
        ir.LANE_ENTRY_BUDGET = saved
