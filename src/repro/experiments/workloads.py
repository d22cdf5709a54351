"""Seeded workload generators for tests, benchmarks and experiments.

Every generator takes an explicit ``numpy.random.Generator`` (or a seed) so
that every table the benchmarks print is reproducible.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple, Union

import numpy as np

from repro.kalgebra.query import Join, Project, Query, RelationRef, Rename, Select, Union as QueryUnion
from repro.kalgebra.relations import KRelation, RelationalInstance, RelationalSchema
from repro.matlang.ast import Expression
from repro.matlang.builder import ssum, var
from repro.semiring import NATURAL, REAL, Semiring
from repro.wlogic.structures import WeightedStructure

SeedLike = Union[int, np.random.Generator]


def make_rng(seed: SeedLike = 0) -> np.random.Generator:
    """Normalise a seed or generator into a ``numpy.random.Generator``."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ----------------------------------------------------------------------
# Matrices
# ----------------------------------------------------------------------
def random_matrix(dimension: int, seed: SeedLike = 0, low: float = -2.0, high: float = 2.0) -> np.ndarray:
    """A dense random matrix with entries uniform in ``[low, high)``."""
    rng = make_rng(seed)
    return rng.uniform(low, high, size=(dimension, dimension))


def random_vector(dimension: int, seed: SeedLike = 0, low: float = -2.0, high: float = 2.0) -> np.ndarray:
    """A random column vector."""
    rng = make_rng(seed)
    return rng.uniform(low, high, size=(dimension, 1))


def random_integer_matrix(
    dimension: int, seed: SeedLike = 0, low: int = 0, high: int = 5
) -> np.ndarray:
    """A random small-integer matrix (useful over the natural semiring)."""
    rng = make_rng(seed)
    return rng.integers(low, high, size=(dimension, dimension)).astype(float)


def random_invertible_matrix(dimension: int, seed: SeedLike = 0) -> np.ndarray:
    """A well-conditioned invertible matrix (diagonally dominant perturbation)."""
    rng = make_rng(seed)
    matrix = rng.uniform(-1.0, 1.0, size=(dimension, dimension))
    return matrix + dimension * np.eye(dimension)


def random_lu_factorizable_matrix(dimension: int, seed: SeedLike = 0) -> np.ndarray:
    """A matrix whose leading principal minors are non-zero (LU without pivoting).

    Strict diagonal dominance guarantees LU-factorizability.
    """
    rng = make_rng(seed)
    matrix = rng.uniform(-1.0, 1.0, size=(dimension, dimension))
    dominance = np.abs(matrix).sum(axis=1) + 1.0
    np.fill_diagonal(matrix, dominance)
    return matrix


def random_pivot_requiring_matrix(dimension: int, seed: SeedLike = 0) -> np.ndarray:
    """An invertible matrix whose (1, 1) entry is zero, so plain LU fails at step one."""
    if dimension < 2:
        raise ValueError("pivoting workloads need dimension at least 2")
    matrix = random_invertible_matrix(dimension, seed)
    matrix[0, 0] = 0.0
    matrix[0, 1] = max(1.0, abs(matrix[0, 1]))
    matrix[1, 0] = max(1.0, abs(matrix[1, 0]))
    return matrix


def random_lower_triangular(dimension: int, seed: SeedLike = 0) -> np.ndarray:
    """A random invertible lower triangular matrix."""
    rng = make_rng(seed)
    matrix = np.tril(rng.uniform(-1.0, 1.0, size=(dimension, dimension)))
    np.fill_diagonal(matrix, rng.uniform(1.0, 2.0, size=dimension))
    return matrix


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------
def random_digraph(dimension: int, probability: float = 0.3, seed: SeedLike = 0) -> np.ndarray:
    """The adjacency matrix of a random directed graph without self-loops."""
    rng = make_rng(seed)
    adjacency = (rng.random((dimension, dimension)) < probability).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    return adjacency


def random_undirected_graph(
    dimension: int, probability: float = 0.3, seed: SeedLike = 0
) -> np.ndarray:
    """The adjacency matrix of a random undirected graph without self-loops."""
    adjacency = random_digraph(dimension, probability, seed)
    symmetric = np.maximum(adjacency, adjacency.T)
    np.fill_diagonal(symmetric, 0.0)
    return symmetric


def planted_clique_graph(
    dimension: int, clique_size: int, probability: float = 0.1, seed: SeedLike = 0
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """A sparse random graph with a planted clique; returns (adjacency, clique vertices)."""
    rng = make_rng(seed)
    adjacency = random_undirected_graph(dimension, probability, rng)
    vertices = tuple(sorted(rng.choice(dimension, size=clique_size, replace=False).tolist()))
    for i in vertices:
        for j in vertices:
            if i != j:
                adjacency[i, j] = 1.0
    return adjacency, vertices


def path_graph(dimension: int) -> np.ndarray:
    """The directed path ``1 -> 2 -> ... -> n``."""
    adjacency = np.zeros((dimension, dimension))
    for i in range(dimension - 1):
        adjacency[i, i + 1] = 1.0
    return adjacency


def cycle_graph(dimension: int) -> np.ndarray:
    """The directed cycle on ``n`` vertices."""
    adjacency = path_graph(dimension)
    adjacency[dimension - 1, 0] = 1.0
    return adjacency


def reachability_closure(adjacency: np.ndarray) -> np.ndarray:
    """Reference irreflexive transitive closure (0/1 matrix), computed directly."""
    size = adjacency.shape[0]
    closure = (adjacency != 0).astype(bool)
    for k in range(size):
        closure = closure | (closure[:, k : k + 1] & closure[k : k + 1, :])
    return closure.astype(float)


# ----------------------------------------------------------------------
# K-relations and weighted structures
# ----------------------------------------------------------------------
def random_krelation(
    attributes: Sequence[str],
    domain_size: int = 4,
    density: float = 0.5,
    seed: SeedLike = 0,
    semiring: Semiring = NATURAL,
    max_annotation: int = 4,
) -> KRelation:
    """A random K-relation over a small integer domain."""
    rng = make_rng(seed)
    relation = KRelation(attributes, semiring)
    domain = list(range(1, domain_size + 1))
    ordered = sorted(attributes)

    def tuples(depth: int, current: Dict[str, int]):
        if depth == len(ordered):
            yield dict(current)
            return
        for value in domain:
            current[ordered[depth]] = value
            yield from tuples(depth + 1, current)

    for values in tuples(0, {}):
        if rng.random() < density:
            relation.set(values, int(rng.integers(1, max_annotation + 1)))
    return relation


def random_relational_instance(
    domain_size: int = 4,
    seed: SeedLike = 0,
    semiring: Semiring = NATURAL,
) -> RelationalInstance:
    """A binary relational instance with one binary and one unary relation."""
    rng = make_rng(seed)
    schema = RelationalSchema({"R": ("a", "b"), "S": ("b", "c"), "P": ("a",)})
    relations = {
        "R": random_krelation(("a", "b"), domain_size, 0.5, rng, semiring),
        "S": random_krelation(("b", "c"), domain_size, 0.5, rng, semiring),
        "P": random_krelation(("a",), domain_size, 0.7, rng, semiring),
    }
    return RelationalInstance(schema, relations, semiring)


def random_weighted_structure(
    domain_size: int = 4,
    seed: SeedLike = 0,
    semiring: Semiring = REAL,
    max_weight: int = 3,
) -> WeightedStructure:
    """A weighted structure with one binary and one unary relation symbol."""
    rng = make_rng(seed)
    domain = tuple(range(1, domain_size + 1))
    structure = WeightedStructure(
        domain=domain, arities={"E": 2, "P": 1}, weights={}, semiring=semiring
    )
    for left in domain:
        for right in domain:
            if rng.random() < 0.5:
                structure.set_weight("E", (left, right), float(rng.integers(1, max_weight + 1)))
    for value in domain:
        if rng.random() < 0.7:
            structure.set_weight("P", (value,), float(rng.integers(1, max_weight + 1)))
    return structure


# ----------------------------------------------------------------------
# Random expressions and queries (property-style equivalence workloads)
# ----------------------------------------------------------------------
def random_sum_matlang_expression(
    seed: SeedLike = 0,
    depth: int = 3,
    matrix_variables: Sequence[str] = ("A", "B"),
) -> Expression:
    """A random sum-MATLANG expression over square matrix variables.

    Used by the equivalence experiments (E11/E13): the generated expressions
    contain additions, matrix products, transposes, Sigma quantifiers with
    positional accesses, and scalar sub-expressions.
    """
    rng = make_rng(seed)
    counter = [0]

    def fresh_iterator() -> str:
        counter[0] += 1
        return f"_w{counter[0]}"

    def build_matrix(level: int) -> Expression:
        choices = ["var", "add", "mul", "transpose", "sum_outer"]
        if level <= 0:
            choice = "var"
        else:
            choice = choices[int(rng.integers(0, len(choices)))]
        if choice == "var":
            name = matrix_variables[int(rng.integers(0, len(matrix_variables)))]
            return var(name)
        if choice == "add":
            return build_matrix(level - 1) + build_matrix(level - 1)
        if choice == "mul":
            return build_matrix(level - 1) @ build_matrix(level - 1)
        if choice == "transpose":
            return build_matrix(level - 1).T
        iterator = fresh_iterator()
        v = var(iterator)
        scalar = v.T @ build_matrix(level - 1) @ v
        return ssum(iterator, scalar * (v @ v.T))

    return build_matrix(depth)


def random_ra_query(
    schema: RelationalSchema,
    seed: SeedLike = 0,
    depth: int = 3,
) -> Query:
    """A random RA+_K query over a binary schema with output arity <= 2."""
    from repro.kalgebra.query import query_schema

    rng = make_rng(seed)
    names = list(schema.names())

    def build(level: int) -> Query:
        if level <= 0:
            return RelationRef(names[int(rng.integers(0, len(names)))])
        choice = int(rng.integers(0, 5))
        operand = build(level - 1)
        signature = sorted(query_schema(operand, schema))
        if choice == 0 and len(signature) >= 1:
            keep = sorted(
                str(attribute)
                for attribute in rng.choice(
                    signature, size=int(rng.integers(1, len(signature) + 1)), replace=False
                )
            )
            return Project(keep, operand)
        if choice == 1 and len(signature) >= 2:
            return Select(signature[:2], operand)
        if choice == 2:
            other = build(level - 1)
            other_signature = sorted(query_schema(other, schema))
            if other_signature == signature:
                return QueryUnion(operand, other)
            return Join(operand, other)
        if choice == 3:
            renamed = {f"x{i}": attribute for i, attribute in enumerate(signature)}
            return Rename(renamed, operand)
        return Join(operand, build(level - 1))

    query = build(depth)
    # Keep the output arity within the binary bound of Proposition 6.4.
    signature = sorted(str(attribute) for attribute in query_schema(query, schema))
    if len(signature) > 2:
        query = Project(signature[:2], query)
    return query
