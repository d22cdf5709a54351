"""Exception hierarchy shared by every subsystem of the reproduction.

All library errors derive from :class:`ReproError` so that callers can catch a
single exception type at API boundaries while tests can still assert on the
precise failure mode.
"""


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class SemiringError(ReproError):
    """An operation is not supported by the semiring it was attempted on.

    Typical examples are requesting division in a semiring that is not a
    field, or mixing values from two different semirings.
    """


class SchemaError(ReproError):
    """A MATLANG schema or instance is inconsistent.

    Raised when a matrix variable is missing from a schema, when an instance
    assigns a matrix whose dimensions contradict the schema size symbols, or
    when a relational / logical schema is malformed.
    """


class TypingError(ReproError):
    """A MATLANG expression is not well-typed with respect to a schema."""


class EvaluationError(ReproError):
    """Evaluation of a well-typed expression failed at runtime.

    This covers undefined pointwise functions (for example division by the
    semiring zero) and internal invariant violations.
    """


class ParseError(ReproError):
    """The surface-syntax parser rejected its input."""

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class FragmentError(ReproError):
    """An expression does not belong to the fragment required by an operation."""


class CircuitError(ReproError):
    """An arithmetic circuit is malformed or an operation on it failed."""


class ServiceError(ReproError):
    """Base class of the serving tier's request-level failure modes.

    Every typed error the :mod:`repro.service` engine can resolve a future
    with derives from this class, so callers can catch one type at the
    serving boundary while tests (and retry policies) can still distinguish
    a shed request from a crashed worker.
    """


class DeadlineExceededError(ServiceError):
    """A request's deadline expired before its result could be produced.

    The engine sheds expired requests as early and as cheaply as possible —
    at submission, at dequeue, at batch formation, and (in a pooled tier)
    again on the worker — so the error usually means the request was never
    executed at all.
    """


class EngineOverloadedError(ServiceError):
    """Admission control rejected a request instead of queueing it.

    Raised through the future when the engine's backlog is past the
    policy's ``max_queue_depth`` or ``max_pending_cost`` threshold.  The
    caller should back off and retry; unlike backpressure (which blocks the
    submitting thread), overload shedding answers immediately.
    """


class PlanQuarantinedError(ServiceError):
    """The request's plan is quarantined by the crash circuit breaker.

    A plan whose tasks repeatedly coincide with worker deaths is isolated
    after ``quarantine_strikes`` strikes; its requests run on the router's
    sandboxed single-instance path, and one whose sandbox dies too resolves
    with this error, until the breaker's reset window elapses and a probe
    succeeds.
    """


class EngineDiedError(ServiceError):
    """The engine's scheduler thread died with an unexpected exception.

    All pending and in-flight futures resolve with this error (instead of
    hanging their waiters forever), and every later submission is rejected
    with it; the original scheduler exception is the ``__cause__``.
    """


class WorkerCrashError(ServiceError, RuntimeError):
    """A pooled request's worker died and its rescue attempts are exhausted.

    Subclasses :class:`RuntimeError` for compatibility with pre-robustness
    callers that caught the pool's original exception type.
    """
