"""From arithmetic circuits to for-MATLANG expressions (Theorem 5.1 direction).

Theorem 5.1 states that a uniform, logarithmic-depth circuit family
``{Phi_n}`` can be simulated by a *single* for-MATLANG expression that
receives the ``n`` circuit inputs as an ``n x 1`` vector variable ``v``.
The paper's proof encodes a two-stack depth-first evaluation of ``Phi_n``
(Appendix D.2) inside an ``n x n`` matrix and drives it with a Turing-machine
simulation.  Executing that literal encoding is infeasible at any useful
dimension, so the reproduction splits the construction into the two
ingredients that make it true:

* :mod:`repro.circuits.stack_machine` implements the two-stack evaluation
  algorithm the encoding simulates, and
* this module translates the circuit ``Phi_n`` for each concrete ``n`` into a
  for-MATLANG expression ``e_n`` over the input vector variable, using
  canonical-vector indexing (``b_i^T . v``) for the inputs.  The family
  ``{e_n}`` is produced by one uniform procedure (this function), mirroring
  the uniformity of the circuit family.

The translation preserves values exactly: ``Phi_n(a_1, ..., a_n)`` equals the
evaluation of ``circuit_to_expression(Phi_n)`` on the instance that assigns
``[a_1, ..., a_n]^T`` to the input variable, which is what experiment E8
checks for every builder family.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.circuits.circuit import Circuit, Gate, GateKind
from repro.exceptions import CircuitError
from repro.matlang.ast import Expression, Literal, MatMul
from repro.matlang.builder import hint, lit, var
from repro.stdlib.order import e_min, next_matrix


def circuit_to_expression(
    circuit: Circuit,
    input_variable: str = "v",
    symbol: str = "alpha",
    output: Optional[int] = None,
) -> Expression:
    """Translate one (single-output) circuit into a for-MATLANG expression.

    The ``i``-th circuit input is accessed as ``b_i^T . v`` where the
    canonical vector ``b_i`` is built inside the language as
    ``Next^{i-1} . e_min`` (Appendix B.1); shared gates are translated once
    and shared as sub-expression objects.

    Parameters
    ----------
    circuit:
        The circuit ``Phi_n``; its input gates are mapped to vector positions
        in creation order.
    input_variable:
        Name of the ``(symbol, 1)`` vector variable holding the inputs.
    symbol:
        The size symbol of the input vector.
    output:
        Output gate to translate; defaults to the unique output gate.
    """
    if output is None:
        if len(circuit.outputs) != 1:
            raise CircuitError(
                "circuit_to_expression needs an explicit output gate for circuits "
                f"with {len(circuit.outputs)} outputs"
            )
        output = circuit.outputs[0]

    input_positions = {index: position for position, index in enumerate(circuit.input_indices)}
    vector = hint(var(input_variable), symbol, "1")

    # Canonical-vector selectors b_1, b_2, ... built incrementally so that
    # b_i shares the sub-expression for b_{i-1}.
    selectors: Dict[int, Expression] = {}
    shift = next_matrix(symbol)

    def selector(position: int) -> Expression:
        if position not in selectors:
            if position == 0:
                selectors[position] = e_min(symbol)
            else:
                selectors[position] = MatMul(shift, selector(position - 1))
        return selectors[position]

    translated: Dict[int, Expression] = {}

    def translate(gate_index: int) -> Expression:
        if gate_index in translated:
            return translated[gate_index]
        gate: Gate = circuit.gate(gate_index)
        expression: Expression
        if gate.kind == GateKind.INPUT:
            position = input_positions[gate_index]
            expression = selector(position).T @ vector
        elif gate.kind == GateKind.CONSTANT:
            expression = Literal(float(gate.value or 0.0))
        elif gate.kind == GateKind.SUM:
            if not gate.children:
                expression = lit(0)
            else:
                expression = translate(gate.children[0])
                for child in gate.children[1:]:
                    expression = expression + translate(child)
        elif gate.kind == GateKind.PRODUCT:
            if not gate.children:
                expression = lit(1)
            else:
                expression = translate(gate.children[0])
                for child in gate.children[1:]:
                    expression = expression @ translate(child)
        elif gate.kind == GateKind.DIVISION:
            from repro.matlang.builder import apply

            expression = apply(
                "div", translate(gate.children[0]), translate(gate.children[1])
            )
        else:  # pragma: no cover - exhaustive over GateKind
            raise CircuitError(f"unsupported gate kind {gate.kind}")
        translated[gate_index] = expression
        return expression

    return translate(output)
