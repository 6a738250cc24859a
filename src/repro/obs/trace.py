"""Span tracing with ContextVar-ambient collection.

A :class:`Tracer` collects *spans* (named, nested, monotonic-clock
timed intervals), *events* (instant annotations, e.g. one fixpoint
round's delta size), and a :class:`~repro.obs.metrics.Metrics`
registry — one object per observed evaluation.

The engines reach the tracer the same way they reach an
:class:`~repro.runtime.guard.EvaluationGuard`: through a
:mod:`contextvars` slot, so algebra and engine signatures stay
unchanged.  ``with tracer:`` *activates* it; the instrumented hot
paths call :func:`active_tracer` / :func:`span` and do nothing when no
tracer is active.  The no-observer cost of an instrumented operation
is a single context-variable read — benchmarked by E14
(``benchmarks/bench_e14_trace_overhead.py``) next to E13's guard gate.

Guard integration: when an :class:`EvaluationGuard` deactivates inside
an active tracer, its per-site counters are merged into the tracer's
metrics under the ``guard.`` prefix (see ``EvaluationGuard.__exit__``),
so budget checkpoints and trace metrics share one collection surface.
Kernel-cache integration works the same way: the outermost activation
snapshots the process-wide counters from :mod:`repro.perf` and the
outermost exit merges their growth under the ``kernel.`` prefix.

Usage::

    tracer = Tracer()
    with tracer:
        result = evaluate(formula, db)
    print(tracer.metrics.counter("relation.join.calls"))
    for record in tracer.spans:
        print(record.name, record.duration)

Inside instrumented code::

    with span("qe.eliminate", vars=k):
        ...                      # no-op when no tracer is active
"""

from __future__ import annotations

import time
import uuid
from contextvars import ContextVar
from typing import Any, Callable, Dict, List, Optional

from repro.obs.flightrec import record as _flight_record
from repro.obs.metrics import Metrics
from repro.obs.sink import Sink, level_number
from repro.perf.cache import kernel_counters

__all__ = [
    "LOG_SCHEMA",
    "SpanRecord",
    "Tracer",
    "active_tracer",
    "span",
    "event",
]

#: schema identifier stamped on every structured log record the tracer
#: emits (the canonical definition; :mod:`repro.obs.log` re-exports it)
LOG_SCHEMA = "repro.log/1"

_ACTIVE: ContextVar[Optional["Tracer"]] = ContextVar(
    "repro_active_tracer", default=None
)


def active_tracer() -> Optional["Tracer"]:
    """The innermost tracer activated on this context, or ``None``."""
    return _ACTIVE.get()


class SpanRecord:
    """One named, timed interval.  ``start``/``end`` are seconds on the
    tracer's monotonic clock, relative to the tracer's epoch; ``end`` is
    ``None`` while the span is open.  ``attrs`` may be extended until
    the span closes (engines attach delta sizes computed mid-round)."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "attrs")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        attrs: Dict[str, Any],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def __repr__(self) -> str:
        state = f"{self.duration * 1000:.3f}ms" if self.end is not None else "open"
        return f"<span {self.name!r} #{self.span_id} {state}>"


class _SpanContext:
    """Context manager closing one span (returned by :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record

    def __enter__(self) -> SpanRecord:
        return self.record

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.record.attrs.setdefault("error", exc_type.__name__)
        self._tracer._close(self.record)


class _NullSpan:
    """The disabled-path span: enters to ``None``, exits silently."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans, events and metrics for one observed evaluation.

    ``clock`` is injectable (default ``time.perf_counter``) so tests
    can drive timings deterministically.  ``max_spans`` bounds memory:
    past it, new spans are counted (``dropped_spans``) but not stored —
    tracing must never be the thing that blows the evaluation up.
    """

    __slots__ = (
        "clock",
        "epoch",
        "metrics",
        "spans",
        "events",
        "max_spans",
        "dropped_spans",
        "trace_id",
        "sinks",
        "memory",
        "_stack",
        "_next_id",
        "_tokens",
        "_kernel_baseline",
        "_mem_frames",
    )

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.perf_counter,
        max_spans: int = 100_000,
        trace_id: Optional[str] = None,
    ) -> None:
        self.clock = clock
        self.epoch = clock()
        self.metrics = Metrics()
        self.spans: List[SpanRecord] = []
        self.events: List[dict] = []
        self.max_spans = max_spans
        self.dropped_spans = 0
        self.trace_id = trace_id if trace_id is not None else uuid.uuid4().hex[:12]
        self.sinks: List[Sink] = []
        self.memory = None  # a MemoryProfiler when --memory is on
        self._stack: List[SpanRecord] = []
        self._next_id = 0
        self._tokens: list = []
        self._kernel_baseline: Optional[Dict[str, int]] = None
        self._mem_frames: Dict[int, list] = {}

    # ------------------------------------------------------------ activation

    def __enter__(self) -> "Tracer":
        if not self._tokens:
            # snapshot the process-wide kernel-cache counters so the
            # outermost exit can attribute their growth to this tracer
            self._kernel_baseline = kernel_counters()
            if self.memory is not None:
                self.memory.start()
        self._tokens.append(_ACTIVE.set(self))
        return self

    def __exit__(self, *exc_info) -> None:
        outermost = len(self._tokens) == 1
        _ACTIVE.reset(self._tokens.pop())
        if outermost and self._kernel_baseline is not None:
            baseline, self._kernel_baseline = self._kernel_baseline, None
            for name, value in kernel_counters().items():
                grew = value - baseline.get(name, 0)
                if grew:
                    self.metrics.count(f"kernel.{name}", grew)
        if outermost:
            if self.memory is not None:
                self.memory.stop()
                self._mem_frames.clear()
            for sink in self.sinks:
                sink.flush()

    # -------------------------------------------------------------- recording

    def now(self) -> float:
        """Seconds since the tracer's epoch (monotonic)."""
        return self.clock() - self.epoch

    def span(self, name: str, **attrs: Any) -> "_SpanContext | _NullSpan":
        """Open a span; close it by exiting the returned context manager."""
        if len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
            return _NULL_SPAN
        parent = self._stack[-1].span_id if self._stack else None
        self._next_id += 1
        record = SpanRecord(self._next_id, parent, name, self.now(), attrs)
        self.spans.append(record)
        self._stack.append(record)
        if self.memory is not None:
            self._mem_frames[record.span_id] = self.memory.push()
        return _SpanContext(self, record)

    def _close(self, record: SpanRecord) -> None:
        if self.memory is not None:
            frame = self._mem_frames.pop(record.span_id, None)
            if frame is not None:
                record.attrs.update(self.memory.pop(frame))
        record.end = self.now()
        # pop to (and including) the record; tolerates a missed close below it
        while self._stack:
            top = self._stack.pop()
            if top is record:
                break
        attrs = dict(record.attrs)
        attrs["duration"] = record.duration
        self._emit("span", "debug", record.name, record.span_id, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record one instant event under the currently open span."""
        if len(self.events) >= self.max_spans:
            self.dropped_spans += 1
            return
        parent = self._stack[-1].span_id if self._stack else None
        self.events.append(
            {"name": name, "time": self.now(), "parent": parent, "attrs": attrs}
        )
        self._emit("event", "debug", name, parent, attrs)

    # --------------------------------------------------------- structured log

    def add_sink(self, sink: Sink) -> Sink:
        """Attach a :class:`~repro.obs.sink.Sink`; returns it (chains)."""
        self.sinks.append(sink)
        return sink

    def log(self, name: str, level: str = "info", **attrs: Any) -> None:
        """Emit one structured log record (``repro.log/1``) to the
        attached sinks and the flight-recorder ring, correlated with
        this tracer's id and the innermost open span."""
        parent = self._stack[-1].span_id if self._stack else None
        self._emit("log", level, name, parent, attrs)

    def _emit(
        self,
        kind: str,
        level: str,
        name: str,
        span_id: Optional[int],
        attrs: Dict[str, Any],
    ) -> None:
        record = {
            "schema": LOG_SCHEMA,
            "ts": self.now(),
            "level": level,
            "kind": kind,
            "name": name,
            "trace": self.trace_id,
            "span": span_id,
            "attrs": attrs,
        }
        _flight_record(record)
        if self.sinks:
            severity = level_number(level)
            for sink in self.sinks:
                if severity >= level_number(sink.min_level):
                    sink.emit(record)

    # ------------------------------------------------------------- inspection

    def root_spans(self) -> List[SpanRecord]:
        return [s for s in self.spans if s.parent_id is None]

    def children(self, record: SpanRecord) -> List[SpanRecord]:
        return [s for s in self.spans if s.parent_id == record.span_id]

    def total_seconds(self) -> float:
        """Wall time covered by the root spans (sum of their durations)."""
        return sum(s.duration for s in self.root_spans())

    def __repr__(self) -> str:
        return (
            f"<Tracer {len(self.spans)} span(s), {len(self.events)} event(s), "
            f"{len(self.metrics.counters)} counter(s)>"
        )


# ------------------------------------------------------- ambient conveniences


def span(name: str, **attrs: Any):
    """An ambient span: no-op context manager when no tracer is active."""
    tracer = _ACTIVE.get()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    """An ambient instant event (dropped when no tracer is active)."""
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.event(name, **attrs)
