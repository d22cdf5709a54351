"""Minimal table / experiment-record harness used by benchmarks and docs.

Experiments produce :class:`Table` objects whose ``render`` method prints
the rows the corresponding claim of the paper asserts, and
:class:`ExperimentRecord` couples a table with a pass/fail verdict so the
benchmark suite can both time the workload and assert the claim.

:class:`CompiledWorkload` is the harness's hook into the compile-then-execute
pipeline: it lowers a MATLANG expression to plan IR exactly once and then
evaluates the cached plan against many instances of the same schema, which
is how the benchmark suite measures per-instance evaluation cost without
re-paying type inference or lowering.  :meth:`CompiledWorkload.run_batch`
goes one step further for instance sweeps: it shards the sweep into buckets
that agree on semiring and dimensions (merging near-miss buckets by
zero-padding when the plan allows it), stacks each bucket and runs every
plan op once per chunk over the whole stack, amortizing the executor's
Python dispatch across the batch (the dominant cost at small sizes).

:class:`ServedWorkload` is the serving-side counterpart: it replays a
stream of independent ``(expression, instance)`` requests through the
concurrent query service (:mod:`repro.service`), whose scheduler coalesces
them back into the same stacked kernel calls — the harness hook the
serving benchmarks drive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence


@dataclass
class Table:
    """A simple column-aligned text table."""

    columns: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    title: str = ""

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values but the table has {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def add_dict_row(self, values: Dict[str, Any]) -> None:
        self.add_row(*(values.get(column, "") for column in self.columns))

    def column(self, name: str) -> List[Any]:
        index = list(self.columns).index(name)
        return [row[index] for row in self.rows]

    def render(self) -> str:
        """Render the table as aligned plain text."""
        headers = [str(column) for column in self.columns]
        formatted_rows = [[_format(value) for value in row] for row in self.rows]
        widths = [len(header) for header in headers]
        for row in formatted_rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

        parts = []
        if self.title:
            parts.append(self.title)
        parts.append(line(headers))
        parts.append(line(["-" * width for width in widths]))
        parts.extend(line(row) for row in formatted_rows)
        return "\n".join(parts)

    def __str__(self) -> str:
        return self.render()


def _format(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


class CompiledWorkload:
    """A MATLANG expression compiled once and run across many instances.

    The expression is annotated and lowered against ``schema`` at
    construction time; :meth:`run` then executes the cached plan on any
    instance of that schema.  Plans are symbolic in the dimensions, so the
    instances may differ in size as well as in data.

    Parameters
    ----------
    expression:
        The :class:`~repro.matlang.ast.Expression` to evaluate.
    schema:
        The :class:`~repro.matlang.schema.Schema` shared by all instances.
    functions:
        Optional pointwise-function registry (defaults to the paper's).
    backend:
        Execution-backend name or instance forwarded to the executor.
        ``None`` (or ``"auto"``) enables adaptive physical planning: each
        instance is profiled and
        :func:`repro.semiring.backends.plan_physical` assigns dense or
        sparse execution per plan op, inserting conversions at
        representation boundaries.  A concrete name (``"dense"``,
        ``"sparse"``) or backend instance pins the choice.
    options:
        Optional :class:`~repro.matlang.compiler.OptimizationOptions`
        controlling the logical optimizer stages for this workload's plan.
    """

    def __init__(self, expression, schema, functions=None, backend=None, options=None):
        # Imported lazily so importing the harness stays dependency-light
        # for table-only consumers.
        from repro.matlang.compiler import compile_expression
        from repro.matlang.functions import default_registry
        from repro.matlang.ir import StackCache

        self.expression = expression
        self.schema = schema
        self.functions = functions if functions is not None else default_registry()
        self.backend = backend
        self.plan = compile_expression(expression, schema, options)
        self._backends: Dict[Any, Any] = {}
        #: Adaptive per-instance selections, keyed by instance identity
        #: (bounded; the instance is pinned in the value so its id cannot be
        #: recycled while cached).
        self._selections: Dict[int, Any] = {}
        #: Stacked batch inputs carried across ``run_batch`` calls.
        self._stack_cache = StackCache()

    #: Sized for a typical sweep (bench_p04 uses 512 instances): the entries
    #: are small (an instance reference plus a selection), and a capacity
    #: below the sweep size would re-profile the whole sweep every call.
    _SELECTION_CACHE_CAPACITY = 1024

    @property
    def adaptive(self):
        """Whether backend selection is per-instance (no pinned backend)."""
        return self.backend is None or self.backend == "auto"

    def _backend_for(self, semiring):
        from repro.semiring.backends import resolve_backend

        # Keyed by object identity, not semiring name: two distinct semiring
        # objects sharing a name must not reuse a backend bound to the other
        # (the semiring is kept alongside so its id cannot be recycled).
        # resolve_backend carries the shared validation policy, including
        # rejecting a fixed backend bound to a different semiring.
        key = (id(semiring), self.backend if isinstance(self.backend, str) else None)
        cached = self._backends.get(key)
        if cached is None or cached[0] is not semiring:
            cached = (semiring, resolve_backend(semiring, self.backend))
            self._backends[key] = cached
        return cached[1]

    def physical(self, instance):
        """The physical plan for one instance (adaptive or pinned)."""
        from repro.profile import profile_generation
        from repro.semiring.backends import PhysicalPlan, plan_physical

        if not self.adaptive:
            backend = self._backend_for(instance.semiring)
            return PhysicalPlan(
                self.plan,
                {backend.name: backend},
                backend.name,
                (f"backend {backend.name!r} pinned by the workload",),
            )
        generation = profile_generation()
        cached = self._selections.get(id(instance))
        if cached is not None and cached[0] is instance and cached[2] == generation:
            return cached[1]
        physical = plan_physical(self.plan, instance, None)
        self._selections[id(instance)] = (instance, physical, generation)
        while len(self._selections) > self._SELECTION_CACHE_CAPACITY:
            self._selections.pop(next(iter(self._selections)))
        return physical

    def explain(self, instance=None):
        """The plan's :meth:`~repro.matlang.ir.Plan.explain` report."""
        return self.plan.explain(instance=instance, backend=self.backend)

    def run(self, instance):
        """Execute the pre-compiled plan against ``instance``.

        No re-annotation or re-lowering happens here; the instance must
        conform to the workload's schema.
        """
        from repro.matlang.ir import execute_plan

        physical = self.physical(instance)
        value = execute_plan(
            physical.plan,
            physical.backend,
            instance,
            self.functions,
            backends=physical.backends,
        )
        return physical.result_backend.to_dense(value).copy()

    def run_batch(self, instances, chunk_size=None, ragged=True):
        """Execute the pre-compiled plan over a whole sweep of instances.

        The sweep is sharded into buckets that agree on semiring and
        dimension assignment (it may freely mix sizes and semirings), each
        bucket is stacked into ``(B, rows, cols)`` arrays, and oversized
        buckets are chunked — at most ``chunk_size`` instances per kernel
        call, defaulting to a memory-bounded heuristic (see
        :func:`repro.matlang.evaluator.run_plan_batch`).  With ``ragged``
        (the default), near-miss dimension buckets additionally merge into
        one zero-padded batch when the plan tolerates padding — a 15/16/17
        node sweep runs as one kernel call instead of three; exact
        semirings stay bitwise-identical, float64 is tolerance-equal (see
        ``run_plan_batch``).  Results are returned in input order.  The
        stacked inputs are cached on the workload, so repeated sweeps over
        the same instance objects do not re-stack them.

        Adaptively assigned groups batch regardless of representation:
        sparse-selected buckets assemble into one block-diagonal CSR batch
        and mixed assignments cross representations on the whole batch
        (see ``run_plan_batch``'s lane selection).  Only workloads pinned
        to a non-dense backend by the caller fall back to the per-instance
        loop — a pinned backend instance is honoured verbatim, and the
        batched lanes only speak the built-in representations.
        """
        from repro.matlang.evaluator import run_plan_batch

        instances = list(instances)
        if self.backend not in (None, "auto", "dense"):
            return [self.run(instance) for instance in instances]
        return run_plan_batch(
            self.plan, instances, self.functions, chunk_size,
            stack_cache=self._stack_cache, ragged=ragged,
            backend=self.backend,
        )

    def stack_cache_info(self):
        """``(hits, misses, size)`` of the cross-call input-stacking cache."""
        info = self._stack_cache.info()
        return (info.hits, info.misses, info.size)


class ServedWorkload:
    """A workload stream replayed through the concurrent query service.

    Where :class:`CompiledWorkload` is "one expression, many instances, one
    caller", ``ServedWorkload`` is the serving-side counterpart: a stream of
    independent ``(expression, instance)`` requests pushed through an
    :class:`~repro.service.engine.Engine`, whose micro-batching scheduler
    coalesces requests that share a plan and a semiring, then runs them
    through the batch chunker ``run_batch`` uses (stacked kernel calls per
    dimension signature).  The benchmark suite uses it to measure
    serving throughput against the sequential ``evaluate()`` baseline, and
    the experiments can use it to replay any recorded request mix.

    Parameters mirror the engine's: a
    :class:`~repro.service.batching.CoalescingPolicy`, an optional
    pointwise-function registry and an optional pinned backend; any extra
    keyword (``workers=4``, ``memoize=True``, ...) passes straight through,
    so the same replay harness drives the single-process scheduler and the
    multi-process pool.  The workload owns its engine; use it as a context
    manager (or call :meth:`close`) to shut the scheduler down
    deterministically.
    """

    def __init__(self, policy=None, functions=None, backend=None, options=None, **engine_kwargs):
        # Imported lazily, like the other harness hooks.
        from repro.service import Engine

        self.engine = Engine(
            policy=policy,
            functions=functions,
            backend=backend,
            options=options,
            **engine_kwargs,
        )

    def replay(self, requests, timeout=None):
        """Submit every ``(expression, instance)`` pair; gather in order.

        The whole stream is enqueued before the first result is awaited —
        the serving shape the engine optimizes for — and the results come
        back in input order, entrywise identical to evaluating each request
        sequentially.  A request that fails re-raises its exception here.
        """
        futures = self.engine.submit_many(requests)
        return [future.result(timeout) for future in futures]

    def stats(self):
        """The engine's telemetry snapshot (see :class:`EngineStatsSnapshot`)."""
        return self.engine.stats()

    def close(self):
        self.engine.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()


@dataclass
class ExperimentRecord:
    """The outcome of one reproduced claim.

    ``identifier`` is the experiment id from :mod:`repro.experiments.registry`
    (E1 .. E14, F1, P1);
    ``passed`` states whether every row of the table satisfied the claim.
    """

    identifier: str
    description: str
    table: Table
    passed: bool
    notes: str = ""

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        header = f"[{self.identifier}] {self.description} ... {status}"
        body = self.table.render()
        if self.notes:
            body = f"{body}\n{self.notes}"
        return f"{header}\n{body}"

    def __str__(self) -> str:
        return self.render()
