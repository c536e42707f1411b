"""Structured JSON logging and per-request correlation ids.

Every served request gets a ``request_id`` at the HTTP front-end (or
honors the client's ``X-Request-Id``).  Correlation across layers uses
two carriers:

* **this thread** — :func:`bind_request_id` installs the id in a
  thread-local for the duration of the request handler;
* **other threads** — the id is annotated onto the request's root span,
  and :class:`~repro.telemetry.spans.Tracer` propagates the
  ``request_id`` annotation to child spans, including spans activated
  from a captured :meth:`~repro.telemetry.spans.Tracer.context` on
  engine workers and spans folded in with
  :meth:`~repro.telemetry.spans.Tracer.record`.

:func:`current_request_id` checks both carriers, so one log line
emitted anywhere along a request's execution — the access log, the
serving layer, an engine worker, the comparison stage — resolves the
same id.  :class:`RequestIdFilter` stamps it onto every log record and
:class:`JsonFormatter` renders records as one JSON object per line;
:func:`configure_structured_logging` wires both into the root logger.
"""

from __future__ import annotations

import json
import logging
import sys
import threading
import uuid

from repro.telemetry.spans import get_tracer

__all__ = [
    "new_request_id",
    "bind_request_id",
    "current_request_id",
    "RequestIdFilter",
    "JsonFormatter",
    "configure_structured_logging",
]

_local = threading.local()


def new_request_id() -> str:
    """A fresh 16-hex-digit correlation id."""
    return uuid.uuid4().hex[:16]


class _BoundRequestId:
    """Context manager scoping one request id to the current thread."""

    __slots__ = ("_request_id", "_previous")

    def __init__(self, request_id: str) -> None:
        self._request_id = request_id
        self._previous = None

    def __enter__(self) -> str:
        self._previous = getattr(_local, "request_id", None)
        _local.request_id = self._request_id
        return self._request_id

    def __exit__(self, *exc_info: object) -> None:
        _local.request_id = self._previous


def bind_request_id(request_id: str) -> _BoundRequestId:
    """Bind ``request_id`` to this thread for the ``with`` block."""
    return _BoundRequestId(request_id)


def current_request_id() -> str | None:
    """The correlation id of the request this thread is working for.

    Checks the thread-local binding first (the request's own handler
    thread), then the innermost open span's ``request_id`` annotation
    (engine workers executing under an activated context).  ``None``
    outside any request.
    """
    request_id = getattr(_local, "request_id", None)
    if request_id is not None:
        return request_id
    current = get_tracer().current()
    if current is not None:
        annotated = current.annotations.get("request_id")
        if annotated is not None:
            return str(annotated)
    return None


class RequestIdFilter(logging.Filter):
    """Stamp ``record.request_id`` onto every record passing through."""

    def filter(self, record: logging.LogRecord) -> bool:
        if getattr(record, "request_id", None) is None:
            record.request_id = current_request_id()
        return True


class JsonFormatter(logging.Formatter):
    """One JSON object per log line: ts, level, logger, message, request_id."""

    def format(self, record: logging.LogRecord) -> str:
        document: dict[str, object] = {
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        request_id = getattr(record, "request_id", None)
        if request_id is None:
            request_id = current_request_id()
        if request_id is not None:
            document["request_id"] = request_id
        if record.exc_info:
            document["exc_info"] = self.formatException(record.exc_info)
        return json.dumps(document, default=str)


def configure_structured_logging(
    level: int = logging.INFO, stream=None
) -> logging.Handler:
    """Install a JSON handler (with request-id stamping) on the root logger.

    Replaces existing root handlers (``logging.basicConfig(force=True)``
    semantics) so repeated CLI invocations in one process re-bind to the
    current stream.  Returns the installed handler.
    """
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonFormatter())
    handler.addFilter(RequestIdFilter())
    root = logging.getLogger()
    for existing in list(root.handlers):
        root.removeHandler(existing)
        existing.close()
    root.addHandler(handler)
    root.setLevel(level)
    return handler
