"""Standard library of for-MATLANG expressions from the paper.

Every function in this subpackage *builds an expression*; nothing is evaluated
here.  The expressions mirror the constructions of Sections 3, 4 and 6 and the
appendices:

* :mod:`repro.stdlib.basic` — ones / diag / identity and their for-loop
  re-definitions (Examples 3.1 and 3.2);
* :mod:`repro.stdlib.order` — canonical-vector order: ``e_min``, ``e_max``,
  ``S_<``, ``S_<=``, ``succ``, ``Prev`` / ``Next`` (Section 3.2, Appendix B.1);
* :mod:`repro.stdlib.aggregates` — traces, row/column sums, diagonal product;
* :mod:`repro.stdlib.graphs` — transitive closure and clique detection
  (Examples 3.3 and 3.5, Section 6.3);
* :mod:`repro.stdlib.linalg` — LU / PLU decomposition, triangular inversion,
  Csanky's determinant and inverse (Section 4, Appendix C).

Where the appendix constructions contain typographical slips (the ``S_<=``
scratch-column construction and the missing accumulator in ``neq``) the
library uses equivalent corrected expressions; the deviations are documented
on the functions.
"""

from repro.stdlib.aggregates import (
    column_sums,
    diagonal_product,
    entry,
    row_sums,
    total_sum,
    trace,
)
from repro.stdlib.basic import (
    diag_via_for,
    identity_like,
    ones_like,
    ones_matrix_like,
    ones_via_for,
    scalar_entry,
)
from repro.stdlib.graphs import (
    four_clique_count,
    has_four_clique,
    k_clique_count,
    reachability_from,
    shortest_path_matrix,
    transitive_closure_floyd_warshall,
    transitive_closure_indicator,
    transitive_closure_product,
    triangle_count,
)
from repro.stdlib.linalg import (
    characteristic_coefficients,
    csanky_determinant,
    csanky_inverse,
    lower_triangular_inverse,
    lu_lower,
    lu_lower_inverse,
    lu_upper,
    matrix_power,
    matrix_power_fixed,
    plu_transform,
    plu_upper,
    power_sum,
    power_trace_vector,
    solve_lower_triangular,
    upper_triangular_inverse,
)
from repro.stdlib.order import (
    e_max,
    e_min,
    get_next_matrix,
    get_prev_matrix,
    is_max,
    is_min,
    next_matrix,
    next_vector,
    prev_matrix,
    prev_vector,
    s_less,
    s_less_equal,
    succ,
    succ_strict,
)

__all__ = [
    "characteristic_coefficients",
    "column_sums",
    "csanky_determinant",
    "csanky_inverse",
    "diag_via_for",
    "diagonal_product",
    "e_max",
    "e_min",
    "entry",
    "four_clique_count",
    "get_next_matrix",
    "get_prev_matrix",
    "has_four_clique",
    "identity_like",
    "is_max",
    "is_min",
    "k_clique_count",
    "lower_triangular_inverse",
    "lu_lower",
    "lu_lower_inverse",
    "lu_upper",
    "matrix_power",
    "matrix_power_fixed",
    "next_matrix",
    "next_vector",
    "ones_like",
    "ones_matrix_like",
    "ones_via_for",
    "plu_transform",
    "plu_upper",
    "power_sum",
    "power_trace_vector",
    "prev_matrix",
    "prev_vector",
    "reachability_from",
    "row_sums",
    "s_less",
    "s_less_equal",
    "scalar_entry",
    "solve_lower_triangular",
    "shortest_path_matrix",
    "succ",
    "succ_strict",
    "total_sum",
    "trace",
    "transitive_closure_floyd_warshall",
    "transitive_closure_indicator",
    "transitive_closure_product",
    "triangle_count",
    "upper_triangular_inverse",
]
