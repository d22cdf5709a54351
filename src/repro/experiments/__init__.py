"""Experiment harness: workloads, tables and the Figure 1 reproduction.

The paper is a theory paper, so its "evaluation" is a collection of claims
(examples, propositions, theorems and the Figure 1 hierarchy).  This package
provides

* seeded workload generators (:mod:`repro.experiments.workloads`) — random
  matrices, graphs, K-relations, weighted structures, and random expressions /
  queries for property-style equivalence testing;
* a small table / experiment-record harness (:mod:`repro.experiments.harness`)
  used by the benchmarks to print the rows of each reproduced claim;
* the experiment registry (:mod:`repro.experiments.registry`) mapping
  experiment identifiers (E1 .. E14, F1, P1) to descriptions and bench
  targets;
* the Figure 1 reproduction (:mod:`repro.experiments.figure1`), which places
  each stdlib query in its minimal fragment and verifies the claimed
  fragment equivalences on random instances.
"""

from repro.experiments.harness import (
    CompiledWorkload,
    ExperimentRecord,
    ServedWorkload,
    Table,
)
from repro.experiments.registry import EXPERIMENTS, ExperimentInfo, experiment_info
from repro.experiments.figure1 import build_figure1, render_figure1

__all__ = [
    "CompiledWorkload",
    "EXPERIMENTS",
    "ExperimentInfo",
    "ExperimentRecord",
    "ServedWorkload",
    "Table",
    "build_figure1",
    "experiment_info",
    "render_figure1",
]
