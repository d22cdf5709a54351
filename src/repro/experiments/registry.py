"""The experiment registry: one entry per reproduced claim of the paper.

The registry is the experiment index; the benchmark modules reference it so
identifiers, descriptions and bench targets stay in sync.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.exceptions import ReproError


@dataclass(frozen=True)
class ExperimentInfo:
    """Metadata about one experiment."""

    identifier: str
    claim: str
    description: str
    modules: Tuple[str, ...]
    bench_target: str


_EXPERIMENTS: Tuple[ExperimentInfo, ...] = (
    ExperimentInfo(
        "E1",
        "Examples 3.1 / 3.2",
        "The ones-vector and diag operators are redundant in for-MATLANG",
        ("repro.stdlib.basic", "repro.matlang.evaluator"),
        "benchmarks/bench_e01_redundancy.py",
    ),
    ExperimentInfo(
        "E2",
        "Example 3.3 / Corollary 6.2",
        "4-clique is expressible in sum-MATLANG (and detects planted cliques)",
        ("repro.stdlib.graphs", "repro.matlang.fragments"),
        "benchmarks/bench_e02_fourclique.py",
    ),
    ExperimentInfo(
        "E3",
        "Example 3.5",
        "The Floyd-Warshall expression computes the transitive closure",
        ("repro.stdlib.graphs",),
        "benchmarks/bench_e03_transitive_closure.py",
    ),
    ExperimentInfo(
        "E4",
        "Section 3.2 / Appendix B.1",
        "Order predicates on canonical vectors are definable in for-MATLANG",
        ("repro.stdlib.order",),
        "benchmarks/bench_e04_order.py",
    ),
    ExperimentInfo(
        "E5",
        "Proposition 4.1",
        "LU decomposition is expressible in for-MATLANG[f_/]",
        ("repro.stdlib.linalg",),
        "benchmarks/bench_e05_lu.py",
    ),
    ExperimentInfo(
        "E6",
        "Proposition 4.2",
        "LU with pivoting (PLU) is expressible in for-MATLANG[f_/, f_>0]",
        ("repro.stdlib.linalg",),
        "benchmarks/bench_e06_plu.py",
    ),
    ExperimentInfo(
        "E7",
        "Proposition 4.3",
        "Determinant and inverse via Csanky's algorithm in for-MATLANG[f_/]",
        ("repro.stdlib.linalg",),
        "benchmarks/bench_e07_det_inverse.py",
    ),
    ExperimentInfo(
        "E8",
        "Theorem 5.1 / Corollary 5.2",
        "Uniform circuit families are simulated by for-MATLANG expressions",
        ("repro.circuits.to_matlang", "repro.circuits.families", "repro.circuits.stack_machine"),
        "benchmarks/bench_e08_circuit_to_matlang.py",
    ),
    ExperimentInfo(
        "E9",
        "Theorem 5.3 / Corollary 5.4",
        "for-MATLANG expressions compile to uniform circuit families",
        ("repro.circuits.from_matlang", "repro.circuits.analysis"),
        "benchmarks/bench_e09_matlang_to_circuit.py",
    ),
    ExperimentInfo(
        "E10",
        "Propositions 5.5 / 6.1",
        "Degree analysis: sum-MATLANG is polynomial, e_exp is not",
        ("repro.matlang.degree",),
        "benchmarks/bench_e10_degree.py",
    ),
    ExperimentInfo(
        "E11",
        "Proposition 6.3",
        "sum-MATLANG translates to RA+_K (annotation-preserving)",
        ("repro.kalgebra.matlang_to_ra",),
        "benchmarks/bench_e11_sum_to_ra.py",
    ),
    ExperimentInfo(
        "E12",
        "Proposition 6.4 / Corollary 6.5",
        "RA+_K over binary schemas translates to sum-MATLANG",
        ("repro.kalgebra.ra_to_matlang",),
        "benchmarks/bench_e12_ra_to_sum.py",
    ),
    ExperimentInfo(
        "E13",
        "Proposition 6.7",
        "FO-MATLANG and weighted logics are equally expressive",
        ("repro.wlogic",),
        "benchmarks/bench_e13_weighted_logic.py",
    ),
    ExperimentInfo(
        "E14",
        "Section 6.3 / Proposition 6.8",
        "prod-MATLANG computes transitive closure; with order, Csanky's inversion",
        ("repro.stdlib.graphs", "repro.stdlib.linalg", "repro.matlang.fragments"),
        "benchmarks/bench_e14_prod_fragment.py",
    ),
    ExperimentInfo(
        "F1",
        "Figure 1",
        "The fragment hierarchy with the placement of 4-Clique, DP, Inv, Det, PLU",
        ("repro.experiments.figure1",),
        "benchmarks/bench_f01_hierarchy.py",
    ),
    ExperimentInfo(
        "P1",
        "Reproduction-specific",
        "Interpreter cost of MATLANG evaluation versus direct numpy baselines",
        ("repro.matlang.evaluator", "repro.stdlib"),
        "benchmarks/bench_p01_interpreter_cost.py",
    ),
    ExperimentInfo(
        "P2",
        "Reproduction-specific",
        "Vectorized semiring kernel backends versus the object-dtype scalar fold",
        ("repro.semiring.kernels",),
        "benchmarks/bench_p02_semiring_kernels.py",
    ),
    ExperimentInfo(
        "P3",
        "Reproduction-specific",
        "Compile-then-execute pipeline: loop fusion, plan caching and the sparse backend",
        ("repro.matlang.compiler", "repro.matlang.rewrites", "repro.semiring.backends"),
        "benchmarks/bench_p03_compile_pipeline.py",
    ),
    ExperimentInfo(
        "P4",
        "Reproduction-specific",
        "Batched plan execution: one plan over stacked instance sweeps per kernel call",
        ("repro.matlang.ir", "repro.semiring.backends", "repro.experiments.harness"),
        "benchmarks/bench_p04_batched_execution.py",
    ),
    ExperimentInfo(
        "P5",
        "Reproduction-specific",
        "Staged optimizer: normalization, cost-based matmul ordering, adaptive backends",
        (
            "repro.matlang.normalize",
            "repro.matlang.cost",
            "repro.matlang.compiler",
            "repro.semiring.backends",
        ),
        "benchmarks/bench_p05_optimizer.py",
    ),
    ExperimentInfo(
        "P6",
        "Reproduction-specific",
        "Concurrent query service: micro-batched serving versus sequential evaluation",
        (
            "repro.service.engine",
            "repro.service.batching",
            "repro.service.stats",
            "repro.experiments.harness",
        ),
        "benchmarks/bench_p06_service.py",
    ),
    ExperimentInfo(
        "P7",
        "Reproduction-specific",
        "Per-op physical planning: mixed sparse/dense plans with measured-cost feedback",
        (
            "repro.semiring.backends",
            "repro.matlang.ir",
            "repro.matlang.cost",
            "repro.profile",
        ),
        "benchmarks/bench_p07_physical_planning.py",
    ),
    ExperimentInfo(
        "P8",
        "Reproduction-specific",
        "Sharded multi-process serving: worker pool and result memo",
        (
            "repro.service.pool",
            "repro.service.router",
            "repro.service.memo",
            "repro.service.server",
        ),
        "benchmarks/bench_p08_multiprocess.py",
    ),
)

EXPERIMENTS: Dict[str, ExperimentInfo] = {info.identifier: info for info in _EXPERIMENTS}


def experiment_info(identifier: str) -> ExperimentInfo:
    """Look up an experiment by identifier (raises on unknown ids)."""
    try:
        return EXPERIMENTS[identifier]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ReproError(f"unknown experiment {identifier!r}; known experiments: {known}") from None
