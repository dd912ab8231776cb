"""HTTP-like request/response model and a path router.

Routes are registered as ``"POST /api/query"``, a method and a literal
path; handlers receive the request.  Service-layer exceptions
(:class:`~repro.exceptions.ServiceError`) are mapped to their status codes
by :meth:`Router.dispatch`, so handlers raise instead of hand-building
error responses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.exceptions import SensorSafeError, ServiceError

_METHODS = ("GET", "POST", "PUT", "DELETE")


@dataclass
class Request:
    """One request as delivered to a handler."""

    method: str
    host: str
    path: str
    body: dict = field(default_factory=dict)
    secure: bool = True  # https vs http
    client: str = "anonymous"  # network name of the caller, for metrics
    headers: dict = field(default_factory=dict)  # transport metadata (trace context)

    @property
    def api_key(self) -> Optional[str]:
        """The API key carried in the body (paper Section 5.4), if any."""
        key = self.body.get("ApiKey")
        return str(key) if key is not None else None


@dataclass
class Response:
    """One response; ``body`` must be JSON plus ``bytes`` leaves
    (what :func:`repro.net.wire.encode` takes)."""

    status: int = 200
    body: dict = field(default_factory=dict)
    content_type: str = "application/json"
    #: ``wire.size(body)`` when the handler already knows it;
    #: the transport counts this instead of encoding ``body`` again.
    #: ``None`` (every route but a consumer release) means "measure me".
    wire_bytes: Optional[int] = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


def json_response(body: dict, status: int = 200) -> Response:
    return Response(status=status, body=body)


def html_response(html: str, status: int = 200) -> Response:
    return Response(status=status, body={"Html": html}, content_type="text/html")


class Router:
    """Maps ``"METHOD /path"`` to handler callables, one dict entry each."""

    def __init__(self) -> None:
        self._routes: dict[str, Callable] = {}
        #: Admission gate (see :mod:`repro.net.overload`): called with the
        #: request before the handler runs; may raise a
        #: :class:`~repro.exceptions.ServiceError` to shed the request
        #: (mapped to its status like any handler error).  Returns an
        #: opaque ticket handed to ``gate_done`` with the final response.
        self.gate: Optional[Callable[[Request], object]] = None
        self.gate_done: Optional[Callable[[object, "Response"], None]] = None

    def add(self, method: str, pattern: str, handler: Callable) -> None:
        """Mount ``handler`` at ``METHOD pattern`` (a literal path)."""
        if method not in _METHODS:
            raise ValueError(f"unsupported HTTP method: {method!r}")
        self._routes[f"{method} {pattern}"] = handler

    def dispatch(self, request: Request) -> Response:
        """Route and invoke; translate errors into status codes."""
        handler = self._routes.get(f"{request.method} {request.path}")
        if handler is None:
            return json_response(
                {"Error": f"no route for {request.method} {request.path}"}, status=404
            )
        ticket = None
        try:
            if self.gate is not None:
                # Admission control runs before the handler: a shed (or a
                # deadline reject) costs no rule evaluation.  A shed raise
                # leaves ticket None, so gate_done never fires for it.
                ticket = self.gate(request)
            result = handler(request)
        except ServiceError as exc:
            # ErrorKind lets clients react to the *specific* failure — a
            # NotPrimaryError must trigger re-resolution at the broker,
            # which a status code alone (409) cannot express.  body_fields
            # carries structured hints (OverloadedError's RetryAfterMs).
            response = json_response(
                {"Error": str(exc), "ErrorKind": type(exc).__name__,
                 **exc.body_fields()},
                status=exc.status,
            )
            self._finish(ticket, response)
            return response
        except SensorSafeError as exc:
            # Domain errors raised below the service layer are bad requests.
            response = json_response({"Error": str(exc)}, status=400)
            self._finish(ticket, response)
            return response
        if isinstance(result, Response):
            response = result
        elif isinstance(result, dict):
            response = json_response(result)
        else:
            raise TypeError(
                f"handler returned {type(result).__name__}, expected Response or dict"
            )
        self._finish(ticket, response)
        return response

    def _finish(self, ticket, response: Response) -> None:
        if ticket is not None and self.gate_done is not None:
            self.gate_done(ticket, response)
