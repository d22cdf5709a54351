"""Unit tests for degree analysis (Propositions 5.5 / 6.1)."""

import pytest

from repro.matlang.builder import apply, forloop, had, lit, prod, ssum, var
from repro.matlang.degree import (
    analyse_degree,
    circuit_degree_for_dimension,
    is_certified_polynomial_degree,
)
from repro.matlang.schema import Schema
from repro.stdlib import diagonal_product, four_clique_count, trace, transitive_closure_floyd_warshall
from repro.stdlib.linalg import csanky_inverse, lu_upper, plu_upper
from repro.stdlib.order import prev_matrix, s_less

SCHEMA = Schema({"A": ("alpha", "alpha")})


class TestSyntacticAnalysis:
    def test_matlang_core_is_polynomial(self):
        assert is_certified_polynomial_degree(var("A") @ var("A") + var("A"))

    def test_sum_matlang_is_polynomial_proposition_61(self):
        for expression in (trace("A"), four_clique_count("A")):
            report = analyse_degree(expression)
            assert report.certified_polynomial, report.explain()

    def test_fo_and_prod_quantifiers_are_polynomial(self):
        assert is_certified_polynomial_degree(diagonal_product("A"))
        assert is_certified_polynomial_degree(prod("v", var("A")))

    def test_linear_accumulator_loops_are_polynomial(self):
        loop = forloop("v", "X", var("X") @ var("A") + var("A"), init=var("A"))
        assert is_certified_polynomial_degree(loop)

    def test_floyd_warshall_is_not_certified(self):
        """The analysis is conservative: the Floyd-Warshall body multiplies the
        accumulator with itself, so its certificate is (correctly) withheld even
        though the reachability information it encodes is simple."""
        report = analyse_degree(transitive_closure_floyd_warshall("A"))
        assert not report.certified_polynomial

    def test_exp_example_is_flagged(self):
        """Section 5.2: e_exp = for v, X = A. X . X computes a^(2^n)."""
        e_exp = forloop("v", "X", var("X") @ var("X"), init=var("A"))
        report = analyse_degree(e_exp)
        assert not report.certified_polynomial
        assert any(not loop.is_polynomial for loop in report.loops)
        assert "multiplies the degree" in report.explain()

    def test_division_of_accumulator_is_opaque(self):
        loop = forloop("v", "X", apply("div", var("X"), var("A")))
        report = analyse_degree(loop)
        assert not report.certified_polynomial
        assert "div" in report.opaque_functions

    def test_division_of_inputs_only_is_fine(self):
        expression = ssum("v", apply("div", var("v").T @ var("A") @ var("v"), lit(2)))
        assert is_certified_polynomial_degree(expression)

    def test_explain_mentions_base_degree_when_polynomial(self):
        assert "degree" in analyse_degree(trace("A")).explain()


#: Loops that nest their accumulator super-polynomially, with their exact
#: degrees at n = 1, 2, 3 (SCHEMA).
SUPER_POLYNOMIAL = {
    "inner loop squares X": (
        forloop("v", "X", forloop("w", "Y", var("X") @ var("X")), init=var("A")),
        [2, 16, 72],
    ),
    "inner loop multiplies by X n times": (
        forloop("v", "X", forloop("w", "Y", var("Y") @ var("X"), init=var("X")), init=var("A")),
        [2, 36, 576],
    ),
    "Pi of X": (forloop("v", "X", prod("w", var("X")), init=var("A")), [1, 16, 243]),
    "Pi-o of X": (forloop("v", "X", had("w", var("X")), init=var("A")), [1, 16, 243]),
}


class TestNestedAccumulators:
    @pytest.mark.parametrize("name", sorted(SUPER_POLYNOMIAL))
    def test_super_polynomial_nests_are_not_certified(self, name):
        expression, degrees = SUPER_POLYNOMIAL[name]
        assert [circuit_degree_for_dimension(expression, SCHEMA, n) for n in (1, 2, 3)] == degrees
        report = analyse_degree(expression)
        assert not report.certified_polynomial
        assert "multiplies the degree" in report.explain()

    def test_inner_sum_in_disguise_over_an_enclosing_accumulator_is_polynomial(self):
        # for w, Y. Y + X.w.w^T adds n terms of X's degree: no growth.
        inner = forloop("w", "Y", var("Y") + var("X") @ var("w") @ var("w").T)
        expression = forloop("v", "X", inner, init=var("A"))
        assert [circuit_degree_for_dimension(expression, SCHEMA, n) for n in (1, 2, 3)] == [1, 4, 9]
        assert is_certified_polynomial_degree(expression)

    def test_stdlib_verdicts(self):
        for expression in (csanky_inverse(), four_clique_count("A"), s_less(), prev_matrix()):
            assert is_certified_polynomial_degree(expression)
        for expression in (plu_upper(), lu_upper(), transitive_closure_floyd_warshall("A")):
            assert not is_certified_polynomial_degree(expression)


class TestExactDegreeViaCircuits:
    def test_trace_has_degree_one(self):
        assert circuit_degree_for_dimension(trace("A"), SCHEMA, 3) == 1

    def test_quadratic_expression(self):
        expression = ssum("v", var("v").T @ var("A") @ var("A") @ var("v"))
        assert circuit_degree_for_dimension(expression, SCHEMA, 3) == 2

    def test_diagonal_product_degree_grows_linearly(self):
        degrees = [
            circuit_degree_for_dimension(diagonal_product("A"), SCHEMA, n) for n in (2, 3, 4)
        ]
        assert degrees == [2, 3, 4]

    def test_exp_example_degree_grows_exponentially(self):
        e_exp = forloop("v", "X", var("X") @ var("X"), init=var("A"))
        schema = Schema({"A": ("1", "1"), "v": ("alpha", "1")})
        degrees = [circuit_degree_for_dimension(e_exp, schema, n) for n in (1, 2, 3, 4)]
        assert degrees == [2, 4, 8, 16]

    def test_matrix_output_degree_sums_over_outputs(self):
        # A . A at dimension 2: each of the 4 output entries has degree 2.
        degree = circuit_degree_for_dimension(var("A") @ var("A"), SCHEMA, 2)
        assert degree == 8
