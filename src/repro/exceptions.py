"""Exception hierarchy for the SensorSafe reproduction.

Every error raised by this package derives from :class:`SensorSafeError`, so
callers can catch one base class at API boundaries.  Service-layer errors
carry an HTTP-like status code so the in-process transport
(:mod:`repro.net`) can map them onto responses without string matching.
"""

from __future__ import annotations


class SensorSafeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SensorSafeError):
    """Malformed input: bad rule JSON, inconsistent wave segment, etc."""


class SchemaError(ValidationError):
    """A JSON document does not match the expected schema."""


class TimeRangeError(ValidationError):
    """An interval has end < start, or a repeated-time spec is malformed."""


class GeoError(ValidationError):
    """A geographic region or coordinate is malformed."""


class StorageError(SensorSafeError):
    """The embedded database failed (duplicate key, missing table, I/O)."""


class CorruptRecordError(StorageError):
    """A persisted record failed its integrity check (checksum, JSON, chain).

    Raised when durable state cannot be trusted; recovery routes the bad
    bytes to quarantine instead of silently dropping them, and fails
    closed for privacy rules (see :mod:`repro.storage.recovery`).
    """


class SimulatedCrashError(SensorSafeError):
    """A storage fault plan hit an armed crash point.

    The disk-side sibling of fault-injected network drops: the process is
    assumed to have died *at this exact point* — whatever bytes reached
    the file so far are what recovery will find.  Tests catch this, throw
    the in-memory service away, and restart from disk.
    """

    def __init__(self, point: str, hit: int = 0):
        super().__init__(f"simulated crash at storage point {point!r} (hit {hit})")
        self.point = point
        self.hit = hit


class DuplicateKeyError(StorageError):
    """Insert attempted with a primary key that already exists."""


class MissingRecordError(StorageError):
    """A lookup by primary key found nothing."""


class QueryError(SensorSafeError):
    """A data query is malformed or references unknown channels."""


class RuleError(SensorSafeError):
    """A privacy rule is malformed or references unknown options."""


class UnknownContextError(RuleError):
    """A rule references a context label missing from the registry."""


class UnknownChannelError(RuleError):
    """A rule or query references a sensor channel missing from the registry."""


class ServiceError(SensorSafeError):
    """Base for errors surfaced through the service/API layer."""

    #: HTTP-like status code attached to the response.
    status = 500

    def __init__(self, message: str = "", *, status: int | None = None):
        super().__init__(message or self.__class__.__doc__)
        if status is not None:
            self.status = status

    def body_fields(self) -> dict:
        """Extra JSON fields the transport adds to the error response body.

        Subclasses override to carry structured hints across the wire
        (e.g. :class:`OverloadedError`'s ``RetryAfterMs``); keys must not
        collide with ``Error``/``ErrorKind``.
        """
        return {}


class AuthenticationError(ServiceError):
    """Missing or invalid API key / login credentials."""

    status = 401


class AuthorizationError(ServiceError):
    """Authenticated principal lacks permission for the operation."""

    status = 403


class NotFoundError(ServiceError):
    """The requested resource does not exist."""

    status = 404


class ConflictError(ServiceError):
    """The request conflicts with existing state (duplicate registration)."""

    status = 409


class BadRequestError(ServiceError):
    """The request body or parameters are malformed."""

    status = 400


class TransportError(SensorSafeError):
    """The simulated network failed to deliver a request."""


class InsecureTransportError(TransportError):
    """An API key was sent over a channel without TLS enabled.

    The paper mandates that API keys travel only in HTTPS POST bodies
    (Section 5.4); the simulated transport enforces the same invariant.
    """


class NetworkUnavailableError(TransportError):
    """A request was dropped in transit (fault injection, partition, outage).

    The retryable transport failure: the request never reached the target
    host, so resending it is always safe.
    """


class CircuitOpenError(NetworkUnavailableError):
    """A circuit breaker is open for the target host; the call was not sent.

    Raised client-side by :class:`~repro.net.resilience.CircuitBreaker` to
    shed load from a host that keeps failing, until the reset timeout
    elapses and a half-open probe is allowed through.
    """


class DeadlineExceededError(TransportError):
    """A request's total time budget ran out before an attempt succeeded.

    Raised client-side by :class:`~repro.net.client.HttpClient` when
    ``deadline_ms`` elapses on the simulated clock across retry attempts
    (backoff included).  Deliberately *not* a
    :class:`NetworkUnavailableError`: an enclosing retry loop must not
    resurrect a call whose budget is spent.
    """


class OverloadedError(ServiceError):
    """The host shed this request to protect itself (admission control).

    The *fail-closed* overload outcome: an explicit, typed 503 emitted by
    :class:`~repro.net.overload.AdmissionController` before any rule
    evaluation ran — a loaded store degrades by refusing work cleanly,
    never by hurrying or truncating a release.  Carries a ``Retry-After``
    hint (``retry_after_ms``) that rides the response body as
    ``RetryAfterMs`` and is honored by the client's retry backoff and the
    phone's offline-queue drain.

    Deliberately distinct from a generic 500/503 for the circuit breaker:
    backpressure from a *live* host must not trip the breaker (the host
    answered; it is busy, not broken).
    """

    status = 503

    def __init__(self, message: str = "", *, status: int | None = None,
                 retry_after_ms: int = 0):
        super().__init__(message, status=status)
        self.retry_after_ms = max(0, int(retry_after_ms))

    def body_fields(self) -> dict:
        """The ``RetryAfterMs`` hint carried in the 503 body."""
        return {"RetryAfterMs": self.retry_after_ms}


class DeadlineExpiredError(ServiceError):
    """The request's propagated deadline expired before it could be served.

    The server-side sibling of :class:`DeadlineExceededError`: admission
    control read the ``X-Deadline-Ms`` header (remaining budget stamped by
    :class:`~repro.net.client.HttpClient`) and found the caller's budget
    smaller than the current queue wait — the caller would have given up
    before the answer arrived, so no capacity is burned on rule
    evaluation.  A typed 504: retrying cannot help (the budget only
    shrinks), so the client surfaces it without further attempts.
    """

    status = 504


class ReplicationError(ServiceError):
    """A replicated write could not be acknowledged by a replica.

    Raised on the primary when no replica acknowledged the shipped WAL
    frames: the write is rejected rather than acknowledged un-replicated,
    which is the trade that makes committed-write loss zero across a
    failover.  The write may still have been applied at the primary (and
    its rule change pushed to the broker), so a refused write counts as
    *possibly applied*.
    """

    status = 503


class NotPrimaryError(ConflictError):
    """The store is a replica (or a fenced ex-primary) and refused the call.

    Writes and consumer reads are only served by the current primary of a
    replica set; a 409 (never retried blindly) tells the client to
    re-resolve the contributor's routing entry at the broker.
    """


class StaleEpochError(ConflictError):
    """A replication or write request carried an out-of-date store epoch.

    The fencing mechanism: after a failover the broker bumps the replica
    set's epoch, so a demoted primary that never heard the news has its
    WAL ships and writes rejected instead of silently forking history.
    """
