"""Self-healing primitives of the serving tier.

Three small, independently testable pieces the pooled engine composes:

* :class:`CircuitBreaker` — the plan-quarantine state machine.  A plan
  whose in-flight tasks repeatedly coincide with worker deaths accumulates
  *strikes* (within a sliding window, so a long-lived pool does not trip on
  rare coincidences); at ``strikes`` the breaker **opens** and requests for
  that plan stop reaching the pool — they run on the router's sandboxed
  single-instance path instead of crash-looping the workers (a request
  whose sandbox dies too resolves with
  :class:`~repro.exceptions.PlanQuarantinedError`).  After ``reset_after``
  seconds the breaker goes **half-open**: exactly one probe request is let
  through; success closes the breaker, another death re-opens it, and a
  probe that never reaches a worker hands its slot back.  Breaker state is
  keyed by the wire plan id and resets wholesale on a profile-generation
  bump (a replan invalidates the evidence along with every other
  plan-keyed cache).

* :class:`Watchdog` — a daemon thread running a ``scan`` callback on a
  fixed cadence, swallowing scan exceptions (a monitoring bug must never
  take down the tier it monitors).  The pool's scan inspects heartbeat
  ages and task deadlines and force-kills hung workers; killing feeds the
  *existing* crash-rescue machinery (the kill surfaces as pipe EOF), so
  hung and dead workers heal through one code path.

* :func:`backoff_delays` — the bounded exponential backoff schedule used
  by pooled dispatch retries.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, Optional

__all__ = ["CircuitBreaker", "Watchdog", "backoff_delays"]


CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


def backoff_delays(
    attempts: int, base: float = 0.01, factor: float = 2.0, cap: float = 0.5
) -> Iterator[float]:
    """Bounded exponential backoff: ``base * factor**i`` capped at ``cap``."""
    for attempt in range(max(0, attempts)):
        yield min(cap, base * factor**attempt)


class _PlanBreaker:
    """Per-plan breaker state (guarded by the owning breaker's lock)."""

    __slots__ = ("strikes", "state", "opened_at", "probing")

    def __init__(self) -> None:
        #: Timestamps of recent strikes (pruned to the window).
        self.strikes: Deque[float] = deque()
        self.state = CLOSED
        self.opened_at = 0.0
        #: Whether a half-open probe is currently in flight.
        self.probing = False


class CircuitBreaker:
    """Strike-counting quarantine breaker over plan keys.

    Parameters
    ----------
    strikes:
        Worker-death coincidences (within ``window`` seconds) that open the
        breaker for a plan.
    reset_after:
        Seconds an open breaker waits before allowing a half-open probe.
    window:
        Sliding window over which strikes are counted.
    """

    def __init__(
        self, strikes: int = 3, reset_after: float = 30.0, window: float = 60.0
    ) -> None:
        if strikes < 1:
            raise ValueError(f"strikes must be >= 1, got {strikes!r}")
        self.strikes = strikes
        self.reset_after = reset_after
        self.window = window
        self._lock = threading.Lock()
        self._plans: Dict[Any, _PlanBreaker] = {}
        self._generation: Optional[int] = None
        #: Total closed -> open transitions (including probe-failure reopens).
        self.trips = 0

    # ------------------------------------------------------------------
    def _entry(self, key: Any) -> _PlanBreaker:
        entry = self._plans.get(key)
        if entry is None:
            entry = self._plans[key] = _PlanBreaker()
        return entry

    def _check_generation(self) -> None:
        """Reset all evidence when the cost-profile generation bumped."""
        from repro.profile import profile_generation

        generation = profile_generation()
        if self._generation != generation:
            self._generation = generation
            self._plans.clear()

    # ------------------------------------------------------------------
    def admit(self, key: Any) -> str:
        """Route decision for one request: ``closed`` / ``open`` / ``probe``.

        ``probe`` is returned at most once per reset window — the caller
        dispatches that request to the pool normally and reports the
        outcome via :meth:`record_success` / :meth:`strike`, or via
        :meth:`release_probe` if the probe never reached a worker.
        """
        now = time.monotonic()
        with self._lock:
            self._check_generation()
            entry = self._plans.get(key)
            if entry is None or entry.state == CLOSED:
                return CLOSED
            if entry.state == OPEN and now - entry.opened_at >= self.reset_after:
                entry.state = HALF_OPEN
            if entry.state == HALF_OPEN and not entry.probing:
                entry.probing = True
                return "probe"
            return OPEN

    def strike(self, key: Any) -> bool:
        """One worker death coincided with this plan; ``True`` if it tripped."""
        now = time.monotonic()
        with self._lock:
            self._check_generation()
            entry = self._entry(key)
            if entry.state == HALF_OPEN:
                # The probe died: straight back to open, fresh reset window.
                entry.state = OPEN
                entry.opened_at = now
                entry.probing = False
                self.trips += 1
                return True
            entry.strikes.append(now)
            while entry.strikes and now - entry.strikes[0] > self.window:
                entry.strikes.popleft()
            if entry.state == CLOSED and len(entry.strikes) >= self.strikes:
                entry.state = OPEN
                entry.opened_at = now
                self.trips += 1
                return True
            return False

    def record_success(self, key: Any) -> None:
        """A dispatched request for this plan completed without a death."""
        with self._lock:
            entry = self._plans.get(key)
            if entry is None:
                return
            if entry.state == HALF_OPEN:
                # The probe survived: close and forget the evidence.
                self._plans.pop(key, None)
            elif entry.state == CLOSED and not entry.strikes:
                self._plans.pop(key, None)

    def release_probe(self, key: Any) -> None:
        """The half-open probe resolved without reaching a worker.

        It proved nothing either way, so the plan stays half-open and its
        next admission probes again.
        """
        with self._lock:
            entry = self._plans.get(key)
            if entry is not None and entry.state == HALF_OPEN:
                entry.probing = False

    # ------------------------------------------------------------------
    def is_open(self, key: Any) -> bool:
        """Whether the plan is currently quarantined (open or half-open).

        A pure query: unlike :meth:`admit` it never consumes the half-open
        probe slot, so bookkeeping paths can check state without routing
        consequences.
        """
        with self._lock:
            entry = self._plans.get(key)
            return entry is not None and entry.state != CLOSED

    def open_count(self) -> int:
        with self._lock:
            return sum(
                1 for entry in self._plans.values() if entry.state != CLOSED
            )


class Watchdog:
    """A daemon thread running ``scan()`` every ``interval`` seconds.

    ``scan`` exceptions are swallowed: the watchdog exists to heal the
    tier, and a bug in it must degrade to "no healing", never to a crash.
    """

    def __init__(
        self, scan: Callable[[], None], interval: float, name: str = "repro-watchdog"
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval!r}")
        self._scan = scan
        self.interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)

    def start(self) -> "Watchdog":
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self._scan()
            except Exception:  # pragma: no cover - monitoring must not crash
                pass

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=2.0)
