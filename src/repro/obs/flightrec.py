"""Always-on flight recorder and ``repro.postmortem/1`` documents.

An aborted evaluation is exactly the one whose telemetry matters most,
and exactly the one that never reaches ``write_trace``.  The flight
recorder closes that gap: a process-wide bounded ring receives every
structured log record any tracer emits (span closes, instant events,
engine round logs — see :mod:`repro.obs.log`), and when an evaluation
dies inside an :class:`~repro.runtime.guard.EvaluationGuard` — a
budget error, an injected fault, any uncaught exception — the guard's
outermost ``__exit__`` asks the recorder to capture a *post-mortem
document*:

::

    {
      "schema": "repro.postmortem/1",
      "reason": "guard" | "fault" | "manual",
      "error": {"type", "message", "diagnostics"} | null,
      "trace": {"id", "active_spans", "metrics"} | null,
      "guard": EvaluationGuard.stats() | null,
      "parallel": ExecutionContext.stats() + last_batch | null,
      "kernel": repro.perf.kernel_stats(),
      "events": [last ring records, oldest first],
      "events_dropped": 0,
      "created_unix": 1699...
    }

The document is always kept in memory (:func:`last_postmortem`) so the
CLI can surface partial guard counters after a budget abort; when a
dump directory is configured (:func:`configure_flight_recorder`, or
``--postmortem-dir`` on the CLI) it is also written to
``postmortem-<seq>.json`` there.  Recording one ring entry is a dict
append — the recorder never makes the failure worse; building the
document only happens on the failure path.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Optional

from repro.files import read_json
from repro.obs.sink import RingBufferSink

__all__ = [
    "POSTMORTEM_SCHEMA",
    "FlightRecorder",
    "flight_recorder",
    "configure_flight_recorder",
    "record",
    "last_postmortem",
    "load_postmortem",
    "validate_postmortem",
]

#: schema identifier stamped on every post-mortem document
POSTMORTEM_SCHEMA = "repro.postmortem/1"

#: default ring capacity (last N telemetry records kept for post-mortems)
DEFAULT_CAPACITY = 256


class FlightRecorder:
    """One bounded ring of recent telemetry plus the dump machinery.

    The module-level instance (:func:`flight_recorder`) is the one the
    tracers and the guard talk to; tests may build private instances.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.ring = RingBufferSink(capacity)
        self.enabled = True
        self.dump_dir: Optional[str] = None
        self.last_document: Optional[dict] = None
        self.last_path: Optional[str] = None
        self.dumps = 0
        self._last_error: Optional[BaseException] = None

    # -------------------------------------------------------------- recording

    def record(self, entry: dict) -> None:
        """Append one telemetry record to the ring (cheap, bounded)."""
        if self.enabled:
            self.ring.emit(entry)

    def configure(
        self,
        *,
        capacity: Optional[int] = None,
        dump_dir: Optional[str] = None,
        enabled: Optional[bool] = None,
    ) -> "FlightRecorder":
        """Reconfigure in place; ``capacity`` resets the ring."""
        if capacity is not None and capacity != self.ring.capacity:
            self.ring = RingBufferSink(capacity)
        if dump_dir is not None:
            self.dump_dir = dump_dir or None
        if enabled is not None:
            self.enabled = enabled
        return self

    def reset(self) -> None:
        """Clear the ring, the remembered post-mortem, and the dump
        sequence (tests)."""
        self.ring.clear()
        self.last_document = None
        self.last_path = None
        self.dumps = 0
        self._last_error = None

    # ---------------------------------------------------------------- dumping

    def postmortem(
        self,
        *,
        error: Optional[BaseException] = None,
        guard=None,
        tracer=None,
        reason: str = "manual",
    ) -> dict:
        """Build (but do not store or write) a post-mortem document."""
        from repro.perf import kernel_stats

        error_doc: Optional[dict] = None
        if error is not None:
            error_doc = {
                "type": type(error).__name__,
                "message": str(error),
                "diagnostics": (
                    error.diagnostics() if hasattr(error, "diagnostics") else None
                ),
            }
        # resilience accounting: when a parallel context is active at
        # capture time, its recovery counters (retries, quarantines,
        # pool restarts, dropped shards) explain *how* the evaluation
        # got where it died — optional section, absent on serial runs
        parallel_doc: Optional[dict] = None
        try:
            from repro.parallel.context import active_execution_context

            ctx = active_execution_context()
            if ctx is not None:
                parallel_doc = ctx.stats()
                if ctx.last_report is not None:
                    parallel_doc["last_batch"] = ctx.last_report.as_dict()
        except Exception:
            parallel_doc = None  # never make the failure path worse
        trace_doc: Optional[dict] = None
        if tracer is not None:
            trace_doc = {
                "id": tracer.trace_id,
                "active_spans": [
                    {"id": s.span_id, "name": s.name, "start": s.start,
                     "attrs": {k: _scalar(v) for k, v in s.attrs.items()}}
                    for s in tracer.spans
                    if s.end is None
                ],
                "metrics": tracer.metrics.snapshot(),
                "dropped_spans": tracer.dropped_spans,
            }
        return {
            "schema": POSTMORTEM_SCHEMA,
            "reason": reason,
            "error": error_doc,
            "trace": trace_doc,
            "guard": guard.stats() if guard is not None else None,
            "parallel": parallel_doc,
            "kernel": kernel_stats(),
            "events": [dict(entry) for entry in self.ring.snapshot()],
            "events_dropped": self.ring.dropped,
            "created_unix": time.time(),
        }

    def dump(
        self,
        *,
        error: Optional[BaseException] = None,
        guard=None,
        tracer=None,
        reason: str = "manual",
    ) -> Optional[str]:
        """Capture a post-mortem: remember it, write it when a dump
        directory is configured, and return the path written (if any).

        The same error object is captured at most once — a fault that
        raises inside a guard would otherwise be dumped by both hooks.
        (The recorder keeps a reference, not an ``id()``: a collected
        error's address can be reused by the very next exception.)
        """
        if not self.enabled:
            return None
        if error is not None and error is self._last_error:
            return self.last_path
        document = self.postmortem(
            error=error, guard=guard, tracer=tracer, reason=reason
        )
        self.last_document = document
        self.last_path = None
        if error is not None:
            self._last_error = error
        if self.dump_dir:
            os.makedirs(self.dump_dir, exist_ok=True)
            self.dumps += 1
            path = os.path.join(
                self.dump_dir, f"postmortem-{self.dumps:04d}.json"
            )
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True, default=str)
                handle.write("\n")
            self.last_path = path
        return self.last_path

    # ------------------------------------------------------------ guard hooks

    def on_guard_exception(self, guard, error: BaseException, tracer) -> None:
        """Called by the guard's outermost ``__exit__`` on exception."""
        self.dump(error=error, guard=guard, tracer=tracer, reason="guard")

    def on_fault(self, site: str, error: BaseException) -> None:
        """Called by :class:`~repro.runtime.faults.FaultRegistry` when
        an armed fault raises."""
        from repro.obs.trace import active_tracer

        self.record(
            {
                "schema": "repro.log/1",
                "ts": time.time(),
                "level": "error",
                "kind": "log",
                "name": "fault.fired",
                "trace": None,
                "span": None,
                "attrs": {"site": site, "error": type(error).__name__},
            }
        )
        self.dump(error=error, tracer=active_tracer(), reason="fault")


def _scalar(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


_RECORDER = FlightRecorder()


def flight_recorder() -> FlightRecorder:
    """The process-wide flight recorder."""
    return _RECORDER


def configure_flight_recorder(
    *,
    capacity: Optional[int] = None,
    dump_dir: Optional[str] = None,
    enabled: Optional[bool] = None,
) -> FlightRecorder:
    """Reconfigure the process-wide recorder (the ``--postmortem-dir``
    CLI surface); returns it."""
    return _RECORDER.configure(
        capacity=capacity, dump_dir=dump_dir, enabled=enabled
    )


def record(entry: dict) -> None:
    """Append one record to the process-wide ring (called by the
    tracer's emit path)."""
    _RECORDER.record(entry)


def last_postmortem() -> Optional[dict]:
    """The most recently captured post-mortem document, if any."""
    return _RECORDER.last_document


# ------------------------------------------------------------- serialization


def _fail(message: str) -> None:
    from repro.errors import EncodingError

    raise EncodingError(f"invalid postmortem document: {message}")


def validate_postmortem(document: Any) -> dict:
    """Check the ``repro.postmortem/1`` invariants; returns the doc."""
    if not isinstance(document, dict):
        _fail("not an object")
    if document.get("schema") != POSTMORTEM_SCHEMA:
        _fail(
            f"schema is {document.get('schema')!r}, "
            f"expected {POSTMORTEM_SCHEMA!r}"
        )
    for key in ("reason", "error", "trace", "guard", "kernel", "events",
                "events_dropped", "created_unix"):
        if key not in document:
            _fail(f"missing key {key!r}")
    if not isinstance(document["events"], list):
        _fail("events must be an array")
    for entry in document["events"]:
        if not isinstance(entry, dict) or "name" not in entry:
            _fail("event record missing name")
    error = document["error"]
    if error is not None and (
        not isinstance(error, dict) or "type" not in error
    ):
        _fail("error must be null or carry a type")
    guard = document["guard"]
    if guard is not None and not isinstance(guard, dict):
        _fail("guard must be null or an object")
    if not isinstance(document["events_dropped"], int):
        _fail("events_dropped must be an integer")
    return document


def load_postmortem(path: str) -> dict:
    """Read and validate a post-mortem document from disk."""
    return validate_postmortem(read_json(path, "postmortem file"))
