"""Shared helpers for the benchmark suite.

Every benchmark module reproduces one experiment of the index in
``repro.experiments.registry``: it times the workload with pytest-benchmark
and asserts the qualitative claim ("who wins / what shape the result has"),
printing the reproduced table, so ``pytest benchmarks/ --benchmark-only``
regenerates the rows of every reproduced claim.

Perf trajectory artifacts
-------------------------
The performance benchmarks (P2 ..) additionally record machine-readable
measurements through the :func:`bench_artifact` fixture.  At session end
each recorded experiment is written to ``BENCH_<id>.json`` — a list of
``{"op", "size", "backend", "seconds", "speedup", ...}`` entries — in the
directory named by ``$BENCH_ARTIFACT_DIR`` (default: this directory).  CI
uploads the files, so the perf history across PRs stays diffable without
scraping test logs.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np
import pytest

from repro.experiments import ExperimentRecord, Table, experiment_info

_BENCHMARK_DIR = pathlib.Path(__file__).parent.resolve()

#: Measurements accumulated by the bench_artifact fixture, keyed by bench id
#: (e.g. "p04"); flushed to BENCH_<id>.json at session end.
_BENCH_ARTIFACTS: dict = {}


def _artifact_dir() -> pathlib.Path:
    configured = os.environ.get("BENCH_ARTIFACT_DIR")
    return pathlib.Path(configured) if configured else _BENCHMARK_DIR


def pytest_collection_modifyitems(items):
    """Mark every test collected from this directory with ``bench``.

    Together with the ``addopts = -m 'not bench'`` filter in pyproject.toml
    this keeps benchmarks out of the default (tier-1) run while making them
    selectable with ``pytest -m bench``.
    """
    for item in items:
        try:
            path = pathlib.Path(str(item.fspath)).resolve()
        except OSError:  # pragma: no cover - defensive
            continue
        if _BENCHMARK_DIR in path.parents:
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session", autouse=True)
def _pinned_cost_profile():
    """Pin the built-in cost profile so measurements are install-independent.

    Benchmarks that exercise calibrated profiles install them explicitly
    (and restore afterwards); a stray per-install profile must not skew the
    recorded baselines.
    """
    from repro.profile import DEFAULT_PROFILE, set_active_profile

    set_active_profile(DEFAULT_PROFILE)
    yield


@pytest.fixture
def bench_artifact():
    """Record one perf measurement into the session's ``BENCH_<id>.json``.

    Usage: ``bench_artifact("p04", op="sweep", size=16, backend="batched",
    seconds=0.0017, speedup=6.6)``.  ``seconds`` is the best observed wall
    time for the operation; ``speedup`` (optional) is relative to the
    baseline named in the entry.  Extra keyword fields pass through to the
    JSON verbatim.
    """

    def _record(bench_id: str, *, op: str, size, backend: str, seconds: float,
                speedup=None, **extra) -> None:
        entry = {
            "op": op,
            "size": size,
            "backend": backend,
            "seconds": round(float(seconds), 9),
        }
        if speedup is not None:
            entry["speedup"] = round(float(speedup), 3)
        entry.update(extra)
        _BENCH_ARTIFACTS.setdefault(bench_id, []).append(entry)

    return _record


def pytest_sessionfinish(session):
    """Flush the recorded measurements, one JSON file per experiment."""
    del session
    if not _BENCH_ARTIFACTS:
        return
    directory = _artifact_dir()
    directory.mkdir(parents=True, exist_ok=True)
    for bench_id, entries in sorted(_BENCH_ARTIFACTS.items()):
        path = directory / f"BENCH_{bench_id}.json"
        path.write_text(json.dumps({"bench": bench_id, "entries": entries}, indent=2) + "\n")


@pytest.fixture
def record_experiment(capsys):
    """Print an experiment record so it appears in the benchmark log."""

    def _record(identifier: str, table: Table, passed: bool, notes: str = "") -> None:
        info = experiment_info(identifier)
        record = ExperimentRecord(identifier, info.description, table, passed, notes)
        with capsys.disabled():
            print()
            print(record.render())
        assert passed, f"experiment {identifier} claim check failed"

    return _record


def as_float(matrix) -> np.ndarray:
    """Convenience conversion used by several benchmark modules."""
    return np.asarray(matrix, dtype=np.float64)


def best_of(callable_, repetitions=3) -> float:
    """Best wall-clock time of ``callable_`` over ``repetitions`` runs."""
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def assert_speedup(slow_call, fast_call, floor, label, ladder=(3, 10, 30)):
    """Assert ``fast_call`` beats ``slow_call`` by at least ``floor``x.

    The shared measurement policy of the performance benchmarks: retry with
    more repetitions (the ``ladder``) before declaring a failure, so a
    single CI scheduler preemption cannot fail an unrelated push.  Returns
    the measured ``(slow_time, fast_time, speedup)`` for artifact recording.
    """
    speedup = 0.0
    for repetitions in ladder:
        slow_time = best_of(slow_call, repetitions=2)
        fast_time = best_of(fast_call, repetitions=repetitions)
        speedup = slow_time / fast_time
        if speedup >= floor:
            return slow_time, fast_time, speedup
    raise AssertionError(
        f"{label} speedup {speedup:.1f}x is below the {floor:.0f}x floor"
    )
