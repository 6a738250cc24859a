"""Opt-in per-span memory attribution.

Giusti–Heintz–Kuijpers (PAPERS.md) observe that constraint-query cost
is dominated by intermediate-representation *size*, and the
Grohe–Schwandtner fragment bounds are ultimately space bounds — so the
trace layer should attribute memory per operator the same way it
attributes wall time.  A :class:`MemoryProfiler` hangs off the ambient
:class:`~repro.obs.trace.Tracer` (``tracer.memory``, enabled by the
``--memory`` CLI flag): every span then closes with memory attrs,
which :func:`memory_summary` aggregates per span name (the ``memory
attribution`` table of ``repro explain --memory``).

Two backends, because exactness and overhead pull in opposite
directions (tracemalloc costs ~3× wall time on the E14 workload —
measured, not guessed — which no "< 5%" gate survives):

* ``rss`` (default) — near-free process-level measures: ``mem_peak_bytes``
  is the growth of ``ru_maxrss`` (the OS's high-water RSS mark) while
  the span was open — the right semantics for "which operator drove
  peak memory", since the mark only moves when a new process-wide peak
  is set — and ``mem_alloc_blocks`` is the net
  ``sys.getallocatedblocks()`` delta (CPython allocator blocks; a
  count, not bytes, so it is *named* as blocks).  This is the backend
  E21 gates: it prints a 5% target and asserts that the worst
  workload stays below 1.25x of its unprofiled traced run.

* ``tracemalloc`` — exact traced bytes: ``mem_alloc_bytes`` (net bytes
  allocated during the span) and ``mem_peak_bytes`` (traced peak above
  the span's baseline), plus ``mem_alloc_blocks``.  Costs what
  tracemalloc costs; E21 reports that honestly instead of gating it.

Peak attribution under nesting: ``ru_maxrss`` is monotone, so a
span's growth already includes its children's — no bookkeeping
needed.  Traced peak is not (``tracemalloc.reset_peak`` is global), so
the profiler keeps a frame stack: every push/pop *folds* the global
peak into all open frames before resetting it, preserving each open
span's own high-water mark.
"""

from __future__ import annotations

import sys
import tracemalloc
from resource import RUSAGE_SELF, getrusage
from typing import Dict, List

__all__ = ["BACKENDS", "DEFAULT_BACKEND", "MemoryProfiler", "memory_summary"]

#: recognized profiler backends (see module docstring)
BACKENDS = ("rss", "tracemalloc")
DEFAULT_BACKEND = "rss"

#: ``ru_maxrss`` is kilobytes on Linux, bytes on macOS
_RU_MAXRSS_UNIT = 1 if sys.platform == "darwin" else 1024


def _peak_rss_bytes() -> int:
    return getrusage(RUSAGE_SELF).ru_maxrss * _RU_MAXRSS_UNIT


class MemoryProfiler:
    """Per-span memory attribution with a pluggable backend.

    Usage is strictly bracketed: :meth:`push` at span open returns a
    frame token; :meth:`pop` with that token at span close returns the
    attr dict to merge into the span (``mem_alloc_blocks`` and
    ``mem_peak_bytes`` always; ``mem_alloc_bytes`` under the
    ``tracemalloc`` backend).  Frames nest with spans; a pop of a
    non-top frame (a span closed out of order) discards the frames
    above it rather than corrupting the stack.
    """

    __slots__ = ("backend", "_frames", "_started_tracing")

    def __init__(self, backend: str = DEFAULT_BACKEND) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown memory backend {backend!r}; expected one of "
                f"{', '.join(BACKENDS)}"
            )
        self.backend = backend
        # frame = [blocks_at_push, rss_or_traced_at_push, peak_seen]
        self._frames: List[list] = []
        self._started_tracing = False

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Arm the backend (idempotent).  Under ``tracemalloc`` this
        starts tracing unless something else already did."""
        if self.backend == "tracemalloc" and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracing = True

    def stop(self) -> None:
        """Disarm; only stops tracemalloc if :meth:`start` started it."""
        if self._started_tracing and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._started_tracing = False
        self._frames.clear()

    # ------------------------------------------------------------- recording

    def _fold_traced(self) -> int:
        """Fold the global traced peak into every open frame, reset it,
        and return the traced current (tracemalloc backend only)."""
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._frames:
            if peak > frame[2]:
                frame[2] = peak
        tracemalloc.reset_peak()
        return current

    def push(self) -> list:
        """Open a frame; returns the token :meth:`pop` needs."""
        if self.backend == "tracemalloc":
            current = self._fold_traced()
            frame = [sys.getallocatedblocks(), current, current]
        else:
            # ru_maxrss is monotone: no fold needed, growth nests for free
            frame = [sys.getallocatedblocks(), _peak_rss_bytes(), 0]
        self._frames.append(frame)
        return frame

    def pop(self, frame: list) -> Dict[str, int]:
        """Close a frame; returns the span attrs it measured."""
        if self.backend == "tracemalloc":
            current = self._fold_traced()
        frames = self._frames
        # LIFO in the common case; tolerate an out-of-order close
        while frames:
            top = frames.pop()
            if top is frame:
                break
        else:
            return {}
        blocks = max(sys.getallocatedblocks() - frame[0], 0)
        if self.backend == "tracemalloc":
            return {
                "mem_alloc_blocks": blocks,
                "mem_alloc_bytes": max(current - frame[1], 0),
                "mem_peak_bytes": max(frame[2] - frame[1], 0),
            }
        return {
            "mem_alloc_blocks": blocks,
            "mem_peak_bytes": max(_peak_rss_bytes() - frame[1], 0),
        }


def memory_summary(document: dict, *, top: int = 10) -> List[dict]:
    """Per-span-name memory aggregates from a ``repro.trace/1``
    document whose spans carry memory attrs — one row per name that
    attributed anything, sorted by peak bytes then alloc blocks.

    Rows: ``name``, ``calls`` (spans carrying memory attrs),
    ``alloc_blocks``, ``alloc_bytes`` (0 unless traced with the
    ``tracemalloc`` backend), ``peak_bytes`` (max single-span peak).
    """
    rows: Dict[str, dict] = {}
    for span in document.get("spans", ()):
        attrs = span.get("attrs") or {}
        if "mem_alloc_blocks" not in attrs and "mem_peak_bytes" not in attrs:
            continue
        row = rows.get(span["name"])
        if row is None:
            row = rows[span["name"]] = {
                "name": span["name"], "calls": 0, "alloc_blocks": 0,
                "alloc_bytes": 0, "peak_bytes": 0,
            }
        row["calls"] += 1
        row["alloc_blocks"] += int(attrs.get("mem_alloc_blocks", 0))
        row["alloc_bytes"] += int(attrs.get("mem_alloc_bytes", 0))
        row["peak_bytes"] = max(
            row["peak_bytes"], int(attrs.get("mem_peak_bytes", 0))
        )
    ordered = sorted(
        rows.values(),
        key=lambda r: (-r["peak_bytes"], -r["alloc_blocks"], r["name"]),
    )
    return ordered[:top]
