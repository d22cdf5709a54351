"""Micro-calibration: measure this install's backend costs, fit a profile.

``python -m repro.calibrate`` runs a short deterministic sweep — dense and
CSR boolean matmul / add over a grid of sizes and densities, plus the
dense <-> CSR conversion — and fits the medians into a
:class:`~repro.profile.model.CostProfile`: seconds-per-work-unit for every
op class, the per-op dispatch overhead, the density at which sparse matmul
stops beating dense (the planner's ``sparse_max_density``), and the
dimension floor below which sparse never won (``sparse_min_dimension``).
The profile is written as JSON (default:
:func:`~repro.profile.model.default_profile_path`) and auto-loads on the
next import of :mod:`repro.profile`.

The sweep is sized to finish in a few seconds; it measures *ratios* on one
machine in one run, which is all the planner consumes.
"""

from __future__ import annotations

import argparse
import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.profile.model import CostProfile, default_profile_path

__all__ = ["main", "run_calibration"]

_DEFAULT_SIZES = (64, 128, 192)
_DEFAULT_DENSITIES = (0.02, 0.05, 0.1, 0.2, 0.4)
_QUICK_SIZES = (64, 128)
_QUICK_DENSITIES = (0.05, 0.2)


def _timed(action, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - started)
    return best


def _random_boolean(rng: np.random.Generator, size: int, density: float) -> np.ndarray:
    return rng.random((size, size)) < density


def run_calibration(
    sizes: Sequence[int] = _DEFAULT_SIZES,
    densities: Sequence[float] = _DEFAULT_DENSITIES,
    repeats: int = 3,
    base: Optional[CostProfile] = None,
    seed: int = 20210627,
) -> CostProfile:
    """Run the sweep and return the fitted profile (not yet saved)."""
    from repro.semiring import BOOLEAN
    from repro.semiring.backends import backend_for

    if base is None:
        base = CostProfile()
    rng = np.random.default_rng(seed)
    dense = backend_for(BOOLEAN, "dense")
    try:
        sparse = backend_for(BOOLEAN, "sparse")
    except Exception:
        sparse = None  # scipy-less install: calibrate the dense side only

    unit_samples: Dict[str, List[float]] = {}

    def sample(key: str, seconds: float, work: float) -> None:
        unit_samples.setdefault(key, []).append(seconds / max(work, 1.0))

    #: (size, density) -> (dense matmul seconds, sparse matmul seconds)
    matmul_times: Dict[Tuple[int, float], Tuple[float, float]] = {}

    for size in sizes:
        for density in densities:
            matrix = _random_boolean(rng, size, density)
            other = _random_boolean(rng, size, density)
            lifted = dense.from_dense(matrix)
            lifted_other = dense.from_dense(other)
            dense_mm = _timed(lambda: dense.matmul(lifted, lifted_other), repeats)
            sample("dense.matmul", dense_mm, size**3)
            sample(
                "dense.elementwise",
                _timed(lambda: dense.add(lifted, lifted_other), repeats),
                size**2,
            )
            sample(
                "dense.construct",
                _timed(lambda: dense.ones(size, size), repeats),
                size**2,
            )
            sparse_mm = math.inf
            if sparse is not None:
                csr = sparse.from_dense(matrix)
                csr_other = sparse.from_dense(other)
                stored = max(1, csr.nnz) + max(1, csr_other.nnz)
                true_density = max(csr.nnz, 1) / (size * size)
                sparse_mm = _timed(lambda: sparse.matmul(csr, csr_other), repeats)
                sample("sparse.matmul", sparse_mm, size**3 * true_density**2)
                sample(
                    "sparse.elementwise",
                    _timed(lambda: sparse.add(csr, csr_other), repeats),
                    stored,
                )
                sample(
                    "sparse.construct",
                    _timed(lambda: sparse.zeros(size, size), repeats),
                    1,
                )
                sample(
                    "convert",
                    _timed(lambda: sparse.from_dense(sparse.to_dense(csr)), repeats),
                    size**2,
                )
            matmul_times[(size, density)] = (dense_mm, sparse_mm)

    unit_costs = {
        key: max(1e-12, sorted(samples)[len(samples) // 2])
        for key, samples in unit_samples.items()
    }
    # Fill op classes the sweep did not measure, rescaled to the same units.
    from repro.profile.model import DEFAULT_UNIT_COSTS

    scale = unit_costs.get("dense.matmul", 1.0) / DEFAULT_UNIT_COSTS["dense.matmul"]
    for key, default in DEFAULT_UNIT_COSTS.items():
        unit_costs.setdefault(key, default * scale)

    # Crossover density per size: the largest measured density where sparse
    # matmul still beat dense; the profile threshold is the median of those.
    crossovers: List[float] = []
    sparse_won_at: List[int] = []
    for size in sizes:
        winning = [
            density
            for density in densities
            if matmul_times[(size, density)][1] < matmul_times[(size, density)][0]
        ]
        if winning:
            sparse_won_at.append(size)
            crossovers.append(max(winning))
    sparse_max_density = base.sparse_max_density
    if crossovers:
        crossovers.sort()
        sparse_max_density = min(0.6, max(0.02, crossovers[len(crossovers) // 2]))
    sparse_min_dimension = base.sparse_min_dimension
    if sparse is not None:
        if sparse_won_at:
            sparse_min_dimension = max(16, min(sparse_won_at) // 2)
        else:
            sparse_min_dimension = max(base.sparse_min_dimension, max(sizes) + 1)

    # Per-op overhead: timed no-op-sized work (1x1 constant construction).
    overhead_seconds = _timed(lambda: dense.constant(True), max(repeats, 5))
    op_overhead = max(1.0, overhead_seconds / max(scale, 1e-12))

    return base.bumped(
        source="calibrated",
        unit_costs=unit_costs,
        op_overhead=op_overhead,
        sparse_max_density=sparse_max_density,
        sparse_min_dimension=sparse_min_dimension,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.calibrate", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--output",
        type=str,
        default=None,
        help="profile JSON path (default: the auto-load location, "
        f"{default_profile_path()})",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller sweep (CI smoke runs)"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per cell (best-of)"
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the fitted profile without writing it",
    )
    arguments = parser.parse_args(argv)

    sizes = _QUICK_SIZES if arguments.quick else _DEFAULT_SIZES
    densities = _QUICK_DENSITIES if arguments.quick else _DEFAULT_DENSITIES
    profile = run_calibration(
        sizes=sizes, densities=densities, repeats=max(1, arguments.repeats)
    )

    print(f"calibrated cost profile (version {profile.version}):")
    for key in sorted(profile.unit_costs):
        print(f"  {key:<20} {profile.unit_costs[key]:.3e} s/unit")
    print(f"  {'op_overhead':<20} {profile.op_overhead:.1f} units")
    print(f"  {'sparse_max_density':<20} {profile.sparse_max_density:.3f}")
    print(f"  {'sparse_min_dimension':<20} {profile.sparse_min_dimension}")

    if arguments.dry_run:
        print("dry run: profile not written")
        return 0
    target = profile.save(arguments.output)
    print(f"written to {target}")

    from repro.profile import set_active_profile

    set_active_profile(profile)
    return 0
