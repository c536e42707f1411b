"""Low-overhead span tracing for pipeline and serving observability.

A *span* is one named, timed unit of work — a pipeline stage, an engine
job, a comparison block — with free-form annotations (record counts,
cache hits) and child spans.  :class:`Tracer` maintains a thread-local
span stack, so nesting falls out of lexical structure::

    with tracer.span("pipeline.run", records=len(dataset)):
        with tracer.span("pipeline.prepare"):
            ...

Crossing execution boundaries needs *explicit* context propagation,
because a thread-local stack does not follow the work:

* **thread pools** — capture :meth:`Tracer.context` on the submitting
  thread, then wrap the worker-side execution in
  :meth:`Tracer.activate`; the engine's job runner does exactly this,
  so job spans hang off the span that submitted them;
* **other processes** — work timed where the parent's span tree is
  out of reach is folded back in with :meth:`Tracer.record`, one
  completed child span per measurement.

Tracing is **disabled by default** and must stay near-free that way:
the pipeline's hot paths call :func:`span` unconditionally, so a
disabled tracer answers with a shared no-op context manager after a
single attribute check — no allocation, no locking, no clock reads.
"""

from __future__ import annotations

import itertools
import threading
import time

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "get_tracer",
    "span",
    "annotate",
    "trace",
]

_ids = itertools.count(1)


class Span:
    """One named, timed unit of work in a trace tree."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "started_at",
        "seconds",
        "annotations",
        "children",
        "_start",
    )

    def __init__(self, name: str, parent_id: int | None, annotations: dict) -> None:
        self.name = name
        self.span_id = next(_ids)
        self.parent_id = parent_id
        self.started_at = time.time()
        self._start = time.perf_counter()
        self.seconds: float | None = None
        self.annotations = annotations
        self.children: list[Span] = []

    def annotate(self, **annotations: object) -> None:
        """Attach key/value annotations to this span."""
        self.annotations.update(annotations)

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable flat row (children are separate rows)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "started_at": self.started_at,
            "seconds": self.seconds,
            "annotations": dict(self.annotations),
        }

    def walk(self):
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return f"Span({self.name!r}, seconds={self.seconds})"


class _NullSpan:
    """The no-op span handed out while tracing is disabled.

    One shared instance: entering, exiting, and annotating all cost a
    single dynamic dispatch, which is what keeps disabled-mode overhead
    under the noise floor of any benchmark.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def annotate(self, **annotations: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager pushing one real span on the tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", name: str, annotations: dict) -> None:
        self._tracer = tracer
        self._span = tracer._open(name, annotations)

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._span.annotations.setdefault("error", exc_type.__name__)
        self._tracer._close(self._span)


class _ActivatedContext:
    """Context manager installing a captured span as this thread's parent."""

    __slots__ = ("_tracer", "_span", "_previous")

    def __init__(self, tracer: "Tracer", captured: Span) -> None:
        self._tracer = tracer
        self._span = captured
        self._previous = None

    def __enter__(self) -> Span:
        stack = self._tracer._stack()
        self._previous = list(stack)
        stack.append(self._span)
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._local.stack = self._previous


class SpanContext:
    """A capture of the current span, portable across threads."""

    __slots__ = ("span",)

    def __init__(self, span: Span | None) -> None:
        self.span = span


class Tracer:
    """A thread-aware span tracer with an on/off switch.

    Completed root spans accumulate in :meth:`roots` until
    :meth:`reset`; exporters read them from there.  All tree mutations
    are lock-guarded because context propagation means several threads
    may append children to one shared parent.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots: list[Span] = []

    # -- switches ---------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop completed roots (any thread's open spans keep running)."""
        with self._lock:
            self._roots = []

    # -- span creation ----------------------------------------------------------

    def span(self, name: str, **annotations: object):
        """A context manager timing one unit of work.

        Returns the shared no-op span when tracing is disabled — the
        hot-path cost of an un-traced call is this one check.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, name, annotations)

    def trace(self, name: str | None = None):
        """Decorator form of :meth:`span` (span named after the function)."""

        def decorate(function):
            import functools

            span_name = name or function.__qualname__

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                with self.span(span_name):
                    return function(*args, **kwargs)

            return wrapper

        return decorate

    def record(
        self, name: str, seconds: float, **annotations: object
    ) -> Span | None:
        """Fold externally-timed work in as one completed child span.

        For work that ran where this tracer could not see it — another
        process, a remote call — but whose duration the caller knows.  No-op while disabled.
        """
        if not self.enabled:
            return None
        span = Span(name, None, dict(annotations))
        span.seconds = seconds
        span.started_at = time.time() - seconds
        parent = self.current()
        if parent is not None and "request_id" not in span.annotations:
            inherited = parent.annotations.get("request_id")
            if inherited is not None:
                span.annotations["request_id"] = inherited
        with self._lock:
            if parent is not None:
                span.parent_id = parent.span_id
                parent.children.append(span)
            else:
                self._roots.append(span)
        return span

    def annotate(self, **annotations: object) -> None:
        """Annotate the innermost open span (no-op without one)."""
        if not self.enabled:
            return
        current = self.current()
        if current is not None:
            current.annotate(**annotations)

    # -- context propagation ----------------------------------------------------

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def context(self) -> SpanContext:
        """Capture the current span for another thread to adopt."""
        return SpanContext(self.current())

    def activate(self, context: SpanContext | None):
        """Install a captured context as this thread's span parent.

        Spans opened inside the ``with`` become children of the
        captured span even though they run on a different thread.
        ``None`` (or an empty capture, or a disabled tracer) is a
        no-op, so callers can thread contexts through unconditionally.
        """
        if not self.enabled or context is None or context.span is None:
            return _NULL_SPAN
        return _ActivatedContext(self, context.span)

    # -- results ----------------------------------------------------------------

    def roots(self) -> list[Span]:
        """Completed root spans, oldest first."""
        with self._lock:
            return list(self._roots)

    # -- internals --------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _open(self, name: str, annotations: dict) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        # Correlation ids flow down the tree: a child span inherits the
        # parent's request_id unless it carries its own, so every span
        # of one served request — including spans opened on engine
        # workers under an activated context — shares the id.
        if parent is not None and "request_id" not in annotations:
            inherited = parent.annotations.get("request_id")
            if inherited is not None:
                annotations["request_id"] = inherited
        span = Span(name, parent.span_id if parent else None, annotations)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.seconds = time.perf_counter() - span._start
        stack = self._stack()
        # Tolerate exotic unwind orders (generators finalized late):
        # remove the span wherever it sits instead of corrupting peers.
        if span in stack:
            stack.remove(span)
        parent = stack[-1] if stack else None
        with self._lock:
            if parent is not None:
                parent.children.append(span)
            else:
                self._roots.append(span)


_DEFAULT_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide default tracer (disabled until enabled)."""
    return _DEFAULT_TRACER


def span(name: str, **annotations: object):
    """Open a span on the default tracer (no-op while disabled)."""
    return _DEFAULT_TRACER.span(name, **annotations)


def annotate(**annotations: object) -> None:
    """Annotate the default tracer's innermost open span."""
    _DEFAULT_TRACER.annotate(**annotations)


def trace(name: str | None = None):
    """Decorator tracing a function on the default tracer."""
    return _DEFAULT_TRACER.trace(name)
