"""The compile front end over expression DAGs.

Builders plug one sub-expression object into several places, so an
expression is a DAG whose tree can be far larger than its object count.
Each node caches its structural hash, and ``annotate`` and ``normalize``
memoise over the DAG (see :func:`repro.matlang.typecheck._infer`).  These
tests pin that the shared front end is sound, that it compiles every
expression to the plan an unshared copy compiles to, and that its work
follows the DAG, not the tree.

An unshared copy (:func:`unshared`) rebuilds every tree position as its own
object, so no memo ever hits on it: it is the tree walk, with no switch.
"""

import copy
import dataclasses
import importlib.util
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from repro import stdlib
from repro.circuits import compile_expression as compile_circuit
from repro.exceptions import TypingError
from repro.experiments.workloads import random_sum_matlang_expression
from repro.matlang.ast import Apply, Expression, ForLoop, MatMul, OneVector, ScalarMul, Transpose, Var
from repro.matlang.builder import var
from repro.matlang.compiler import compile_expression, lower
from repro.matlang.ir import serialize_plan
from repro.matlang.schema import Schema
from repro.matlang.typecheck import annotate
from test_contract import SCHEMA as NEST_SCHEMA
from test_contract import nests
from test_lanes import SCHEMA as LANE_SCHEMA
from test_lanes import programs

ROOT = Path(__file__).resolve().parent.parent
SQUARE = Schema.of(A=("alpha", "alpha"), B=("alpha", "alpha"), v=("alpha", "1"))


def unshared(expression: Expression) -> Expression:
    """A copy of ``expression`` in which no node object occurs twice."""
    if isinstance(expression, Apply):
        return Apply(expression.function, [unshared(operand) for operand in expression.operands])
    children = {
        field.name: unshared(value)
        for field in dataclasses.fields(expression)
        if isinstance(value := getattr(expression, field.name), Expression)
    }
    return dataclasses.replace(expression, **children)


def distinct(root, children) -> int:
    """Distinct objects reachable from ``root``."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(children(node))
    return len(seen)


def _stdlib_expressions():
    e_min, e_max, v = stdlib.e_min(), stdlib.e_max(), var("v")
    return {
        "column_sums": stdlib.column_sums("A"),
        "diagonal_product": stdlib.diagonal_product("A"),
        "row_sums": stdlib.row_sums("A"),
        "total_sum": stdlib.total_sum("A"),
        "trace": stdlib.trace("A"),
        "entry": stdlib.entry("A", e_min, e_max),
        "ones_like": stdlib.ones_like("A"),
        "identity_like": stdlib.identity_like("A"),
        "ones_matrix_like": stdlib.ones_matrix_like("A"),
        "ones_via_for": stdlib.ones_via_for(),
        "diag_via_for": stdlib.diag_via_for(v),
        "scalar_entry": stdlib.scalar_entry("A", e_min, e_max),
        "four_clique_count": stdlib.four_clique_count(),
        "has_four_clique": stdlib.has_four_clique(),
        "k_clique_count": stdlib.k_clique_count("A", 3),
        "reachability_from": stdlib.reachability_from(e_min),
        "shortest_path_matrix": stdlib.shortest_path_matrix(),
        "transitive_closure_floyd_warshall": stdlib.transitive_closure_floyd_warshall(),
        "transitive_closure_indicator": stdlib.transitive_closure_indicator(),
        "transitive_closure_product": stdlib.transitive_closure_product(),
        "triangle_count": stdlib.triangle_count(),
        "characteristic_coefficients": stdlib.characteristic_coefficients(),
        "csanky_determinant": stdlib.csanky_determinant(),
        "csanky_inverse": stdlib.csanky_inverse(),
        "lower_triangular_inverse": stdlib.lower_triangular_inverse("A"),
        "lu_lower": stdlib.lu_lower(),
        "lu_lower_inverse": stdlib.lu_lower_inverse(),
        "lu_upper": stdlib.lu_upper(),
        "matrix_power": stdlib.matrix_power("A", e_max),
        "matrix_power_fixed": stdlib.matrix_power_fixed("A", 3),
        "plu_transform": stdlib.plu_transform(),
        "plu_upper": stdlib.plu_upper(),
        "power_sum": stdlib.power_sum("A"),
        "power_trace_vector": stdlib.power_trace_vector("A"),
        "solve_lower_triangular": stdlib.solve_lower_triangular("A", v),
        "upper_triangular_inverse": stdlib.upper_triangular_inverse("A"),
        "e_max": e_max,
        "e_min": e_min,
        "get_next_matrix": stdlib.get_next_matrix(e_max),
        "get_prev_matrix": stdlib.get_prev_matrix(e_max),
        "is_max": stdlib.is_max(v),
        "is_min": stdlib.is_min(v),
        "next_matrix": stdlib.next_matrix(),
        "next_vector": stdlib.next_vector(v),
        "prev_matrix": stdlib.prev_matrix(),
        "prev_vector": stdlib.prev_vector(v),
        "s_less": stdlib.s_less(),
        "s_less_equal": stdlib.s_less_equal(),
        "succ": stdlib.succ(e_min, e_max),
        "succ_strict": stdlib.succ_strict(e_min, e_max),
    }


STDLIB = _stdlib_expressions()


def _perfbench_expressions():
    """The fixed expressions of the three ``perfbench`` workloads."""
    spec = importlib.util.spec_from_file_location("perfbench_streams", ROOT / "perfbench" / "streams.py")
    streams = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(streams)
    schema = streams.square_schema()
    return [
        pytest.param(expression, schema, id=f"{workload}-{name}")
        for workload, build in (
            ("paper-loops", streams.build_paper_expressions),
            ("serve-mixed", streams.build_serve_expressions),
            ("pool-hotset", streams.build_hot_expressions),
        )
        for name, expression in build().items()
    ]


def assert_same_compile(expression: Expression, schema: Schema) -> None:
    """The DAG and its unshared copy compile to one plan, byte for byte."""
    shared = lower(annotate(expression, schema))
    tree = lower(annotate(unshared(expression), schema))
    assert shared == tree
    assert shared.describe() == tree.describe()
    assert shared.notes == tree.notes
    assert serialize_plan(shared) == serialize_plan(tree)


# ----------------------------------------------------------------------
# Soundness
# ----------------------------------------------------------------------
def test_a_polymorphic_shared_subterm_is_typed_at_each_use():
    A = Var("A")
    e_max = ForLoop("v", "X", Var("v"))
    expression = MatMul(MatMul(A, e_max), Transpose(MatMul(Transpose(A), e_max)))
    typed = annotate(expression, Schema.of(A=("n", "m")))
    assert typed.type == ("n", "m")
    assert typed.children[0].children[1].type == ("m", "1")
    assert typed.children[1].children[0].children[1].type == ("n", "1")


def test_unresolved_symbols_are_named_as_in_a_tree_walk():
    # Nothing fixes e_max's dimension and the schema has two symbols, so the
    # inference variables stay in the result, named by the order of typing.
    ones = OneVector(ForLoop("v", "X", Var("v")))
    scalar = MatMul(Transpose(ones), ones)
    expression = ScalarMul(scalar, ScalarMul(scalar, Var("A")) + Var("A"))
    schema = Schema.of(A=("n", "m"))

    def types(typed):
        return [(node.type, node.iterator_symbol, node.accumulator_type) for node in typed.walk()]

    assert types(annotate(expression, schema)) == types(annotate(unshared(expression), schema))


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda A, e: MatMul(A, e) + MatMul(Transpose(A), e),
            "size symbol mismatch in matrix addition e1 + e2 (rows): 'n' vs 'm'",
        ),
        (lambda A, e: (lambda s: s + s)(MatMul(A, A)), "size symbol mismatch in matrix multiplication e1 . e2: 'm' vs 'n'"),
        (
            lambda A, e: (lambda t: MatMul(t + t, A))(MatMul(Transpose(A), A)),
            "size symbol mismatch in matrix multiplication e1 . e2: 'm' vs 'n'",
        ),
    ],
    ids=["polymorphic", "ill-typed-shared", "shared-in-ill-typed-context"],
)
def test_an_ill_typed_shared_subterm_raises_the_tree_walks_error(build, message):
    expression = build(Var("A"), ForLoop("v", "X", Var("v")))
    schema = Schema.of(A=("n", "m"))
    for candidate in (expression, unshared(expression)):
        with pytest.raises(TypingError) as raised:
            annotate(candidate, schema)
        assert str(raised.value) == message


_RECEIVER = """
import json, pickle, sys
from repro.matlang.compiler import compile_expression, plan_cache_info
from repro.stdlib import plu_upper
from repro.matlang.schema import Schema
received = pickle.loads(sys.stdin.buffer.read())
fresh = plu_upper()
schema = Schema.of(A=("alpha", "alpha"))
plan = compile_expression(fresh, schema)
hits = plan_cache_info().hits
print(json.dumps({
    "salt": hash("alpha"),
    "hash": hash(received) == hash(fresh),
    "equal": received == fresh,
    "hit": compile_expression(received, schema) is plan and plan_cache_info().hits == hits + 1,
}))
"""


def test_an_unpickled_expression_hashes_by_its_fields_in_another_process():
    expression = stdlib.plu_upper()
    hash(expression)
    compile_expression(expression, Schema.of(A=("alpha", "alpha")))
    # As the server ships a request.
    payload = pickle.dumps(expression, protocol=pickle.HIGHEST_PROTOCOL)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for salt in ("11", "12"):
        env["PYTHONHASHSEED"] = salt
        done = subprocess.run(
            [sys.executable, "-c", _RECEIVER], input=payload, env=env, capture_output=True, check=True
        )
        result = json.loads(done.stdout)
        if result.pop("salt") != hash("alpha"):
            break
    else:  # pragma: no cover - both salts matched this process's
        pytest.fail("no subprocess hashed strings differently from this one")
    assert result == {"hash": True, "equal": True, "hit": True}


def test_copies_hash_by_their_own_fields():
    expression = MatMul(Var("A"), Transpose(Var("B")))
    hash(expression)
    copied = copy.copy(expression)
    assert set(copied.__reduce_ex__(4)[2]) == {"left", "right"}
    assert set(expression.__reduce_ex__(4)[2]) == {"left", "right"}
    assert hash(copied) == hash(MatMul(Var("A"), Transpose(Var("B"))))
    replaced = dataclasses.replace(expression, right=Var("C"))
    assert hash(replaced) == hash(MatMul(Var("A"), Var("C")))
    assert hash(replaced) != hash(expression)
    assert pickle.loads(pickle.dumps(expression)) == expression


# ----------------------------------------------------------------------
# One plan, DAG or tree
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(STDLIB))
def test_stdlib_expressions_compile_as_their_unshared_copies(name):
    assert_same_compile(STDLIB[name], SQUARE)


@pytest.mark.parametrize("expression, schema", _perfbench_expressions())
def test_perfbench_expressions_compile_as_their_unshared_copies(expression, schema):
    assert_same_compile(expression, schema)


def test_random_queries_compile_as_their_unshared_copies():
    schema = Schema.of(A=("alpha", "alpha"), B=("alpha", "alpha"))
    for seed in range(200):
        assert_same_compile(random_sum_matlang_expression(seed), schema)


@settings(max_examples=60, deadline=None)
@given(program=programs())
def test_lane_programs_compile_as_their_unshared_copies(program):
    assert_same_compile(program[0], LANE_SCHEMA)


@settings(max_examples=60, deadline=None)
@given(program=nests())
def test_sigma_nests_compile_as_their_unshared_copies(program):
    assert_same_compile(program.expression, NEST_SCHEMA)


# ----------------------------------------------------------------------
# Work follows the DAG
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["csanky_inverse", "plu_upper"])
def test_annotate_types_each_node_object_about_once(name):
    expression = STDLIB[name]
    objects = distinct(expression, lambda node: node.children())
    typed = distinct(annotate(expression, SQUARE), lambda node: node.children)
    assert typed <= 2 * objects
    # The tree is over 30 times larger: typing it would fail the bound.
    assert expression.size() > 30 * objects


@pytest.mark.parametrize("name", ["csanky_determinant", "lu_lower", "upper_triangular_inverse"])
def test_circuits_of_the_dag_match_those_of_the_tree(name, rng):
    expression = STDLIB[name]
    schema = Schema.of(A=("alpha", "alpha"))
    dag = compile_circuit(expression, schema, 3)
    tree = compile_circuit(unshared(expression), schema, 3)
    assert dag.circuit.num_gates() <= tree.circuit.num_gates()
    assert dag.circuit.depth() == tree.circuit.depth()
    for _ in range(3):
        matrix = np.eye(3) + rng.uniform(-0.5, 0.5, (3, 3))
        assert np.array_equal(dag.evaluate({"A": matrix}), tree.evaluate({"A": matrix}))
