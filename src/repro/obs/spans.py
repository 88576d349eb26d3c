"""Hierarchical span tracing with per-request correlation IDs.

A :class:`Tracer` mints one *correlation ID* per request (``req-%06d``)
at the root span and threads it through every child span opened while
that request is in flight.  The in-flight trace — its open span, its
spans so far and so its next span id — lives in a context variable
written once per request, at the root, so deep layers — the callout
registry, the combined evaluator, the resilience wrappers — open
children and attach events through the module-level :func:`span` /
:func:`event` helpers without growing a parameter on any signature.
Threads inherit nothing: a fresh thread starts with no trace, so
concurrent requests can never leak spans into each other's trees.

Timestamps come from the simulated clock.  A scenario run twice
produces byte-identical exports — which is what lets the trace tests
assert golden output instead of shapes.

Finished traces (whole trees, keyed by correlation ID) are retained
in a bounded deque; overflow is counted on :attr:`Tracer.dropped` and
mirrored into the registry when one is attached, never silent.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import deque
from contextvars import ContextVar
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.sim.clock import Clock


class SpanEvent:
    """A point-in-time annotation on a span (retry, breaker flip...).

    A span keeps its events as ``(name, at, detail)`` tuples, which cost
    less to make than an object and which the collector stops tracking;
    :attr:`Span.events` presents them as :class:`SpanEvent` objects.
    """

    __slots__ = ("name", "at", "detail")

    def __init__(self, name: str, at: float, detail: str = "") -> None:
        self.name = name
        self.at = at
        self.detail = detail

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name, "at": self.at}
        if self.detail:
            data["detail"] = self.detail
        return data

    def __repr__(self) -> str:
        return f"SpanEvent({self.name!r} @{self.at})"


#: An event as a span keeps it: ``(name, at, detail)``.
_EventTuple = Tuple[str, float, str]

#: Shared empties for spans that never get events/attrs (most don't).
_NO_EVENTS: Tuple[_EventTuple, ...] = ()
_NO_ATTRS: Dict[str, str] = {}


class Span:
    """One timed operation inside a trace.

    A span doubles as its own context manager: entering takes the next
    span id of the in-flight trace (or opens a new trace as its root)
    and makes it the trace's current span; exiting stamps the end time
    and hands the current slot back to the parent.  Only a root writes
    the context variable, so a request pays for one context switch
    however many spans it opens.
    """

    __slots__ = (
        "tracer",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "status",
        "_events",
        "attrs",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        # ``start`` is stamped by ``__enter__``.
        self.end: Optional[float] = None
        self.status = "ok"
        # Most spans carry no events and some carry no attrs: both are
        # shared empties until first written, to keep allocation (and
        # so GC pressure) per span down on the request hot path.
        self._events: Any = _NO_EVENTS
        self.attrs: Dict[str, str] = attrs if attrs is not None else _NO_ATTRS

    def __enter__(self) -> "Span":
        tracer = self.tracer
        trace = _current_trace.get()
        if trace is None or trace.tracer is not tracer:
            # A root: a trace of another tracer stays where it is and
            # resumes when this one finishes.  The trace state is
            # filled here rather than by a Python ``__init__``.
            trace = _new_trace(_Trace)
            trace.tracer = tracer
            trace.trace_id = "req-%06d" % next(tracer._trace_counter)
            trace.spans = [self]
            trace.current = self
            trace.token = _current_trace.set(trace)
            self.span_id = 1
            self.parent_id = None
        else:
            spans = trace.spans
            spans.append(self)
            self.span_id = len(spans)
            self.parent_id = trace.current.span_id
            trace.current = self
        self.trace_id = trace.trace_id
        attrs = self.attrs
        if attrs is not _NO_ATTRS:
            # The kwargs dict is fresh and ours: stringify in place.
            for key, value in attrs.items():
                if type(value) is not str:
                    attrs[key] = str(value)
        clock = tracer.clock
        self.start = clock.now if clock is not None else 0.0
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.status = f"error:{exc_type.__name__}"
        tracer = self.tracer
        clock = tracer.clock
        self.end = clock.now if clock is not None else 0.0
        trace = _current_trace.get()
        parent_id = self.parent_id
        if parent_id is not None:
            # Span ids are positions in ``trace.spans``, counted from 1.
            trace.current = trace.spans[parent_id - 1]
        else:
            _current_trace.reset(trace.token)
            spans = tuple(trace.spans)
            # acquire/release beats the ``with`` protocol, and nothing
            # between them can raise.
            lock = tracer._lock
            lock.acquire()
            traces = tracer._traces
            traces.append((trace.trace_id, spans))
            evicted = len(traces) > tracer.limit
            if evicted:
                traces.popleft()
                tracer.dropped += 1
            lock.release()
            if evicted:
                tracer._count_dropped()
            for callback in tracer.on_trace:
                callback(spans)
        callbacks = tracer.on_finish
        if callbacks:
            for callback in callbacks:
                callback(self)
        return False

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def events(self) -> List[SpanEvent]:
        """The span's events, oldest first."""
        return [SpanEvent(*item) for item in self._events]

    def event(self, name: str, detail: str = "") -> None:
        clock = self.tracer.clock
        item = (name, clock.now if clock is not None else 0.0, detail)
        if self._events is _NO_EVENTS:
            self._events = [item]
        else:
            self._events.append(item)

    def set_attr(self, name: str, value: Any) -> None:
        if self.attrs is _NO_ATTRS:
            self.attrs = {}
        self.attrs[name] = str(value)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "status": self.status,
        }
        if self.attrs:
            data["attrs"] = dict(sorted(self.attrs.items()))
        if self._events:
            data["events"] = [event.to_dict() for event in self.events]
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def __repr__(self) -> str:
        return (
            f"Span({self.trace_id}#{self.span_id} {self.name!r} "
            f"{self.duration:.3f}s)"
        )


class _Trace:
    """The in-flight state of one request's trace.

    The context variable holds this object from the root's enter to
    its exit.  Retained traces keep only their spans; nothing refers
    back here once the root finished.  The root's ``__enter__`` fills
    every slot:

    * ``tracer`` and ``trace_id``, the correlation ID;
    * ``spans``: every span opened so far, in id order (the root first);
    * ``current``: the innermost open span, the parent of the next one;
    * ``token``: restores the context variable when the root finishes.
    """

    __slots__ = ("tracer", "trace_id", "spans", "current", "token")


_new_trace = object.__new__


_current_trace: ContextVar[Optional[_Trace]] = ContextVar(
    "repro_obs_trace", default=None
)


def current_span() -> Optional[Span]:
    """The innermost open span of the in-flight request, if any."""
    trace = _current_trace.get()
    return trace.current if trace is not None else None


class _NullSpanContext:
    """Context manager yielded when no trace is active: pure no-op."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


def span(name: str, **attrs: Any):
    """Open a child of the current span; no-op when tracing is off.

    This is the deep-layer entry point: callout registries and policy
    evaluators call it unconditionally.  Without an active trace the
    cost is one context-variable read.
    """
    trace = _current_trace.get()
    if trace is None:
        return _NULL_SPAN_CONTEXT
    return Span(trace.tracer, name, attrs or None)


def event(name: str, detail: str = "") -> None:
    """Attach an event to the current span; no-op when tracing is off.

    What :meth:`Span.event` does, without the method call.
    """
    trace = _current_trace.get()
    if trace is not None:
        current = trace.current
        clock = trace.tracer.clock
        item = (name, clock.now if clock is not None else 0.0, detail)
        events = current._events
        if events is _NO_EVENTS:
            current._events = [item]
        else:
            events.append(item)


class Tracer:
    """Mints correlation IDs, opens spans, retains finished traces.

    Two hooks see finished work: each callback in :attr:`on_finish`
    gets every finished span, and each callback in :attr:`on_trace`
    gets every finished trace once, as its spans in id order, when
    its root finishes.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        limit: int = 1000,
        registry: Any = None,
    ) -> None:
        self.clock = clock
        self.limit = limit
        self.dropped = 0
        self.registry = registry
        self.on_finish: List[Callable[[Span], None]] = []
        self.on_trace: List[Callable[[Tuple[Span, ...]], None]] = []
        self._traces: Deque[Tuple[str, Tuple[Span, ...]]] = deque()
        # ``itertools.count`` advances atomically under the GIL, so
        # correlation IDs need no lock.
        self._trace_counter = itertools.count(1)
        self._lock = threading.Lock()

    @property
    def registry(self) -> Any:
        """Where evictions are counted, as ``obs_traces_dropped_total``."""
        return self._registry

    @registry.setter
    def registry(self, registry: Any) -> None:
        self._registry = registry
        # Called on every eviction: binds the series at the first one
        # (so the family exists only once a trace was dropped), then
        # is the series' own ``inc``.
        self._count_dropped: Callable[[], None] = self._bind_dropped

    def _bind_dropped(self) -> None:
        registry = self._registry
        if registry is None:
            return
        count = registry.counter(
            "obs_traces_dropped_total",
            help="Finished traces evicted by retention",
        ).labels().inc
        self._count_dropped = count
        count()

    def now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    # -- span lifecycle -----------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span: child of the active one, else a new root."""
        return Span(self, name, attrs or None)

    # -- views --------------------------------------------------------------

    @property
    def traces(self) -> Tuple[Tuple[str, Tuple[Span, ...]], ...]:
        with self._lock:
            return tuple(self._traces)

    def trace_ids(self) -> Tuple[str, ...]:
        return tuple(trace_id for trace_id, _ in self.traces)

    def find(self, trace_id: str) -> Tuple[Span, ...]:
        for existing, spans in self.traces:
            if existing == trace_id:
                return spans
        return ()

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    # -- export -------------------------------------------------------------

    def to_jsonl(self) -> str:
        lines = []
        for _, spans in self.traces:
            for item in spans:
                lines.append(item.to_json())
        return "\n".join(lines)

    def export(self, path: str) -> int:
        """Write finished traces as JSON lines; returns spans written."""
        count = 0
        with open(path, "w", encoding="utf-8") as handle:
            for _, spans in self.traces:
                for item in spans:
                    handle.write(item.to_json() + "\n")
                    count += 1
        return count
