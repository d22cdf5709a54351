"""Deterministic fault injection for the serving tier.

Robustness behaviour — crash rescue, watchdog kills, deadline shedding,
circuit breaking, transport fallbacks — is only trustworthy if it can be
*exercised on demand*.  Real crashes are rare and non-reproducible; this
module threads seedable, programmatically-armed injection points through
the serving tier (:mod:`repro.service.pool`, :mod:`repro.service.engine`,
:mod:`repro.service.server`) so the chaos
suite can drive a request stream through a *scheduled* storm of worker
crashes, slow ops, transport failures and dropped sockets — and assert
the tier's invariants hold.

Zero cost when disarmed
-----------------------
The injector is off by default and the call sites guard with a single
module-global ``is None`` check::

    from repro.service import faults
    ...
    if faults.ACTIVE is not None:
        faults.ACTIVE.fire("worker.task", worker=index)

so production paths pay one global load per site.  Nothing in this module
imports the rest of the service package — it can be armed before an
:class:`~repro.service.engine.Engine` is built, and forked workers inherit
the armed injector through ``fork`` (each process then advances its own
hit counters, keeping per-process schedules deterministic).

Sites and actions
-----------------
A :class:`FaultSpec` arms one *site* (a string name) with one *action*:

``"crash"``
    ``os._exit(13)`` — a worker segfault/OOM-kill stand-in.
``"raise"``
    Raise ``spec.error`` (default :class:`InjectedFault`).
``"sleep"``
    ``time.sleep(spec.seconds)`` — a stuck kernel / GC stall stand-in.
``"deny"``
    No side effect; the *call site* checks :meth:`FaultInjector.deny` and
    takes its degraded path (a silent heartbeat, a dropped socket).

Whether a spec fires on a given hit is deterministic given the seed:
``every=k`` fires every k-th hit of the site, ``on_hits={…}`` fires on an
explicit set of 1-based hit numbers, ``probability=p`` draws from the
injector's seeded :class:`random.Random`, and ``limit`` caps the total
number of fires.  ``match`` restricts a spec to call sites whose keyword
context (worker index, task id, …) matches every given key.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from random import Random
from typing import Any, Dict, List, Optional, Set

__all__ = [
    "ACTIVE",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "arm",
    "disarm",
    "injected_faults",
]


class InjectedFault(RuntimeError):
    """The default exception raised by a ``"raise"`` fault action."""


_ACTIONS = ("crash", "raise", "sleep", "deny")


@dataclass
class FaultSpec:
    """One armed injection point: when a site's hits fire, and what happens."""

    site: str
    action: str = "raise"
    #: Fire every k-th hit of the site (1 = every hit).
    every: Optional[int] = None
    #: Fire on these explicit 1-based hit numbers.
    on_hits: Optional[Set[int]] = None
    #: Fire each hit with this probability (seeded; deterministic per arm order).
    probability: Optional[float] = None
    #: Stop firing after this many fires (``None`` = unlimited).
    limit: Optional[int] = None
    #: Seconds slept by the ``"sleep"`` action.
    seconds: float = 0.05
    #: Exception raised by the ``"raise"`` action.
    error: Optional[BaseException] = None
    #: Context keys the call site must match (e.g. ``{"worker": 0}``).
    match: Optional[Dict[str, Any]] = None
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.every is None and self.on_hits is None and self.probability is None:
            self.every = 1  # default: fire on every hit

    def should_fire(self, hit: int, rng: Random, context: Dict[str, Any]) -> bool:
        if self.limit is not None and self.fired >= self.limit:
            return False
        if self.match is not None:
            for key, expected in self.match.items():
                if context.get(key) != expected:
                    return False
        if self.on_hits is not None and hit in self.on_hits:
            return True
        if self.every is not None and hit % self.every == 0:
            return True
        if self.probability is not None and rng.random() < self.probability:
            return True
        return False


class FaultInjector:
    """A seeded registry of armed :class:`FaultSpec` entries.

    Thread-safe: serving threads hit sites concurrently, and the per-site
    hit counters / RNG draws are advanced under one lock so a given seed
    and request schedule produce one fault schedule.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = Random(seed)
        self._lock = threading.Lock()
        self._specs: Dict[str, List[FaultSpec]] = {}
        self._hits: Dict[str, int] = {}
        #: Fires per site, for post-run assertions ("the schedule did run").
        self.fired: Dict[str, int] = {}

    # -- arming --------------------------------------------------------
    def arm(self, site: str, action: str = "raise", **options: Any) -> FaultSpec:
        """Arm one spec at ``site``; returns it (for later inspection)."""
        spec = FaultSpec(site=site, action=action, **options)
        with self._lock:
            self._specs.setdefault(site, []).append(spec)
        return spec

    def reset(self, site: Optional[str] = None) -> None:
        """Drop the armed specs (and counters) of one site, or all of them."""
        with self._lock:
            if site is None:
                self._specs.clear()
                self._hits.clear()
                self.fired.clear()
            else:
                self._specs.pop(site, None)
                self._hits.pop(site, None)
                self.fired.pop(site, None)

    # -- firing (call sites) -------------------------------------------
    def _select(self, site: str, context: Dict[str, Any]) -> Optional[FaultSpec]:
        with self._lock:
            specs = self._specs.get(site)
            if not specs:
                return None
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
            for spec in specs:
                if spec.should_fire(hit, self._rng, context):
                    spec.fired += 1
                    self.fired[site] = self.fired.get(site, 0) + 1
                    return spec
        return None

    def fire(self, site: str, **context: Any) -> None:
        """Run the site's armed action, if any spec elects to fire.

        ``"deny"`` specs are ignored here — sites with a degraded path use
        :meth:`deny` instead, so one site name can't both raise and deny.
        """
        spec = self._select(site, context)
        if spec is None or spec.action == "deny":
            return
        if spec.action == "crash":
            os._exit(13)
        if spec.action == "sleep":
            time.sleep(spec.seconds)
            return
        error = spec.error if spec.error is not None else InjectedFault(
            f"injected fault at {site!r}"
        )
        raise error

    def deny(self, site: str, **context: Any) -> bool:
        """Whether the call site should take its degraded path this hit."""
        spec = self._select(site, context)
        return spec is not None and spec.action == "deny"


#: The armed injector, or ``None`` (the production state).  Call sites must
#: guard every use with ``faults.ACTIVE is not None``.
ACTIVE: Optional[FaultInjector] = None


def arm(injector: Optional[FaultInjector] = None, seed: int = 0) -> FaultInjector:
    """Install (and return) the process-wide injector.

    Workers forked *after* arming inherit it; arming in a parent does not
    reach into already-running workers.
    """
    global ACTIVE
    ACTIVE = injector if injector is not None else FaultInjector(seed)
    return ACTIVE


def disarm() -> None:
    """Return the process to the zero-cost production state."""
    global ACTIVE
    ACTIVE = None


class injected_faults:
    """Context manager: arm an injector for a block, disarm on exit.

    ::

        with faults.injected_faults(seed=7) as injector:
            injector.arm("worker.task", "crash", every=10)
            ...  # build the engine, drive the stream
    """

    def __init__(self, seed: int = 0) -> None:
        self.injector = FaultInjector(seed)

    def __enter__(self) -> FaultInjector:
        arm(self.injector)
        return self.injector

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        disarm()
