"""Lightweight execution profiling: observed per-op timings -> cost profile.

:class:`ExecutionProfiler` is the measurement half of an explicit refit.
The plan executor (:func:`repro.matlang.ir.execute_plan`) calls
:meth:`record` around each op when a profiler is attached (for instance
``Evaluator(instance, profiler=ExecutionProfiler())``); samples land in
bounded per-``(op class, backend)`` reservoirs (the same recent-window idiom
as :class:`repro.service.stats.EngineStats`), and :meth:`fit` turns the
reservoirs into a fresh :class:`~repro.profile.model.CostProfile` —
per-unit costs from the medians, a derived dense/sparse crossover density,
and EWMA-tracked symbol sizes from :meth:`observe_instance`.  Installing
the fit with :func:`repro.profile.set_active_profile` bumps the profile
generation, so cached plans re-optimize against the measurements.

Only ops with a well-understood work model are sampled (matmul,
elementwise, construct, conversions); fused iteration ops (``power``,
``loop``) are skipped rather than fitted badly — the planner costs those
compositionally from the classes below.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.profile.model import DEFAULT_UNIT_COSTS, CostProfile

__all__ = ["ExecutionProfiler"]

#: Opcode -> work class for the op classes the profiler can model.
_OP_CLASSES: Dict[str, str] = {
    "matmul": "matmul",
    "add": "elementwise",
    "hadamard": "elementwise",
    "scale": "elementwise",
    "transpose": "elementwise",
    "diag": "elementwise",
    "diagonal": "elementwise",
    "diag_product": "elementwise",
    "apply": "elementwise",
    "load": "construct",
    "const": "construct",
    "ones": "construct",
    "ones_type": "construct",
    "identity_of": "construct",
    "identity_sym": "construct",
}


def _entries(value: Any) -> float:
    shape = getattr(value, "shape", None)
    if not shape:
        return 1.0
    total = 1.0
    for extent in shape:
        total *= max(1, int(extent))
    return total


def _density(value: Any) -> float:
    """Stored-entry fraction of a value (1.0 for dense representations)."""
    stored = getattr(value, "nnz", None)
    if stored is None:
        return 1.0
    entries = _entries(value)
    return min(1.0, max(float(stored), 1.0) / entries) if entries else 1.0


class ExecutionProfiler:
    """Thread-safe reservoirs of ``(work units, seconds)`` op samples."""

    #: Samples retained per ``(class, backend)`` key: recent-window bound on
    #: memory and on the fitting medians, like the EngineStats reservoir.
    RESERVOIR_SIZE = 2048

    #: Samples a key needs before :meth:`fit` trusts its median.
    MIN_SAMPLES = 8

    #: EWMA weight of the newest observation of a symbol's size.
    SYMBOL_ALPHA = 0.2

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._samples: Dict[str, Deque[Tuple[float, float]]] = {}
        self._symbol_sizes: Dict[str, float] = {}
        self._recorded = 0

    # -- sampling (called from the executor's hot loop) -------------------
    def record(self, op: Any, backend_name: str, values: List[Any], seconds: float) -> None:
        """Sample one executed op.

        The executor's hook contract (see :func:`repro.matlang.ir._run`):
        ``values`` is the register list up to the op, so ``values[-1]`` is
        its freshly appended result, ``len(values) - 1`` its register and
        ``values[i]`` the value of register ``i``.  Registers a dimension
        frame supplies are never recorded.
        """
        opcode = op.opcode
        if opcode in ("to_dense", "to_sparse"):
            key = "convert"
            work = _entries(values[-1])
        else:
            op_class = _OP_CLASSES.get(opcode)
            if op_class is None:
                return  # fused iteration ops: no single-sample work model
            key = f"{backend_name}.{op_class}"
            work = self._work_units(op, op_class, values)
        with self._lock:
            reservoir = self._samples.get(key)
            if reservoir is None:
                reservoir = self._samples[key] = deque(maxlen=self.RESERVOIR_SIZE)
            reservoir.append((work, max(seconds, 0.0)))
            self._recorded += 1

    @staticmethod
    def _work_units(op: Any, op_class: str, values: List[Any]) -> float:
        result = values[-1]
        if op_class == "matmul":
            left = values[op.inputs[0]]
            right = values[op.inputs[1]]
            # Batched operands are (B, rows, inner) @ (B, inner, cols) stacks.
            stacks = int(left.shape[0]) if len(left.shape) == 3 else 1
            rows = max(1, int(left.shape[-2]))
            inner = max(1, int(left.shape[-1]))
            cols = max(1, int(right.shape[-1]))
            return max(
                1.0, stacks * rows * inner * cols * _density(left) * _density(right)
            )
        if op_class == "elementwise":
            work = _entries(result) * _density(result)
            for register in op.inputs:
                operand = values[register]
                work = max(work, _entries(operand) * _density(operand))
            return max(1.0, work)
        return max(1.0, _entries(result) * _density(result))

    def observe_instance(self, instance: Any) -> None:
        """Fold one executed instance's dimension sizes into the EWMA."""
        alpha = self.SYMBOL_ALPHA
        with self._lock:
            for symbol, size in instance.dimensions.items():
                if symbol == "1":
                    continue
                previous = self._symbol_sizes.get(symbol)
                if previous is None:
                    self._symbol_sizes[symbol] = float(size)
                else:
                    self._symbol_sizes[symbol] = (
                        (1.0 - alpha) * previous + alpha * float(size)
                    )

    # -- inspection -------------------------------------------------------
    def sample_count(self) -> int:
        with self._lock:
            return self._recorded

    # -- fitting ----------------------------------------------------------
    def fit(self, base: Optional[CostProfile] = None) -> CostProfile:
        """Fit a fresh profile from the reservoirs, layered over ``base``.

        Keys with enough samples get their median seconds-per-work-unit;
        the remaining keys are rescaled defaults anchored on the best-fitted
        dense key, so every entry of the result is expressed in one unit
        system and the planner's cross-backend comparisons stay meaningful.
        The dense/sparse matmul crossover density is re-derived from the
        fitted units (``sparse_cost(d) = dense_cost`` at ``d* = sqrt(ratio)``).
        The per-op overhead is taken the way
        :func:`~repro.profile.calibration.run_calibration` measures it: the
        median seconds of the one-unit constructs (a 1x1 value costs little
        beyond its dispatch), in the fitted units; without any it stays
        ``base.op_overhead``.
        """
        if base is None:
            base = CostProfile()
        with self._lock:
            snapshots = {
                key: list(reservoir) for key, reservoir in self._samples.items()
            }
            symbol_sizes = dict(self._symbol_sizes)

        fitted: Dict[str, float] = {}
        overheads: List[float] = []
        for key, samples in snapshots.items():
            if key.endswith(".construct"):
                overheads.extend(seconds for work, seconds in samples if work <= 1.0)
            if len(samples) < self.MIN_SAMPLES:
                continue
            ratios = sorted(seconds / work for work, seconds in samples)
            fitted[key] = max(ratios[len(ratios) // 2], 1e-12)

        if not fitted:
            merged_symbols = dict(base.symbol_sizes)
            merged_symbols.update(symbol_sizes)
            if merged_symbols == dict(base.symbol_sizes):
                return base
            return base.bumped(source="fitted", symbol_sizes=merged_symbols)

        # Anchor scale on a fitted key so default-filled entries share units.
        anchor_key = "dense.matmul" if "dense.matmul" in fitted else next(iter(fitted))
        scale = fitted[anchor_key] / DEFAULT_UNIT_COSTS.get(anchor_key, 1.0)
        unit_costs = {
            key: fitted.get(key, default * scale)
            for key, default in DEFAULT_UNIT_COSTS.items()
        }
        unit_costs.update(fitted)

        op_overhead = base.op_overhead
        if overheads:
            overheads.sort()
            op_overhead = max(1.0, overheads[len(overheads) // 2] / scale)

        sparse_max_density = base.sparse_max_density
        if "dense.matmul" in fitted and "sparse.matmul" in fitted:
            ratio = fitted["dense.matmul"] / fitted["sparse.matmul"]
            sparse_max_density = min(0.6, max(0.02, math.sqrt(max(ratio, 0.0))))

        merged_symbols = dict(base.symbol_sizes)
        merged_symbols.update(symbol_sizes)
        return base.bumped(
            source="fitted",
            unit_costs=unit_costs,
            op_overhead=op_overhead,
            symbol_sizes=merged_symbols,
            sparse_max_density=sparse_max_density,
        )
