"""Flame-graph export: collapsed stacks and speedscope documents.

Turns a ``repro.trace/1`` document into the two interchange formats
the flame-graph ecosystem reads:

* :func:`collapsed_stacks` — Brendan Gregg's collapsed-stack text, one
  ``root;child;leaf <weight>`` line per distinct span path, weights in
  integer microseconds of *self* time (``flamegraph.pl``, ``inferno``,
  and speedscope itself all ingest this);

* :func:`speedscope_document` — a speedscope file
  (https://www.speedscope.app/file-format-schema.json) using the
  ``sampled`` profile type: shared frame table + one sample (a stack
  of frame indices) per span with its self time as the weight.

``sampled`` rather than ``evented`` is deliberate: stitched parallel
traces contain *overlapping sibling* spans (several workers running at
once under one dispatch span), which cannot be serialized as a
well-nested open/close event stream, but are perfectly representable
as weighted stacks.  Both exports share one self-time computation —
span duration minus summed child durations, clamped at zero — so the
text and JSON views of a trace always agree.

:func:`validate_speedscope` structurally checks a document against the
parts of the speedscope schema that matter (frame-index bounds, weight
arity, profile bounds) so tests and the CLI can assert exports are
loadable without shipping a JSON-schema engine.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.errors import EncodingError
from repro.obs.analyze import span_self_seconds

__all__ = [
    "SPEEDSCOPE_SCHEMA",
    "collapsed_stacks",
    "speedscope_document",
    "validate_speedscope",
    "write_flame",
]

#: the schema URL stamped on every exported speedscope document
SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def _span_stacks(document: dict) -> List[Tuple[Tuple[str, ...], float]]:
    """One ``(name path from root, self seconds)`` entry per closed
    span, in document order.  Open spans contribute nothing (no
    duration); a span whose parent never closed roots its own stack."""
    spans = [s for s in document.get("spans", ()) if s.get("end") is not None]
    by_id = {s["id"]: s for s in spans}
    self_seconds = span_self_seconds(spans)
    paths: Dict[int, Tuple[str, ...]] = {}

    def path_of(span: dict) -> Tuple[str, ...]:
        cached = paths.get(span["id"])
        if cached is not None:
            return cached
        parent = by_id.get(span["parent"])
        path = (path_of(parent) if parent is not None else ()) + (span["name"],)
        paths[span["id"]] = path
        return path

    return [(path_of(s), self_seconds[s["id"]]) for s in spans]


def collapsed_stacks(document: dict) -> str:
    """The trace in collapsed-stack text: ``a;b;c <microseconds>``
    lines, weights summed over spans sharing a path, zero-weight paths
    dropped, sorted for deterministic output."""
    weights: Dict[Tuple[str, ...], int] = {}
    for path, seconds in _span_stacks(document):
        micros = int(round(seconds * 1e6))
        if micros <= 0:
            continue
        weights[path] = weights.get(path, 0) + micros
    return "\n".join(
        f"{';'.join(path)} {weights[path]}" for path in sorted(weights)
    )


def speedscope_document(document: dict, *, name: str = "repro trace") -> dict:
    """The trace as a speedscope ``sampled`` profile.

    Every closed span becomes one sample — its root-to-span name path
    as frame indices — weighted by its self time in seconds.  The
    profile's ``endValue`` is the total weight, so speedscope's
    percentages read as shares of traced wall time.
    """
    frames: List[dict] = []
    frame_index: Dict[str, int] = {}
    samples: List[List[int]] = []
    weights: List[float] = []
    for path, seconds in _span_stacks(document):
        if seconds <= 0.0:
            continue
        stack = []
        for frame_name in path:
            index = frame_index.get(frame_name)
            if index is None:
                index = frame_index[frame_name] = len(frames)
                frames.append({"name": frame_name})
            stack.append(index)
        samples.append(stack)
        weights.append(seconds)
    total = sum(weights)
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "exporter": "repro.obs.flame",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "seconds",
                "startValue": 0.0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        ],
        "activeProfileIndex": 0,
    }


def _fail(reason: str) -> None:
    raise EncodingError(f"invalid speedscope document: {reason}")


def validate_speedscope(document: dict) -> dict:
    """Structurally validate a speedscope document; returns it.

    Checks the invariants a speedscope loader relies on: the schema
    stamp, a shared frame table of named frames, and for each sampled
    profile that every sample is a stack of in-bounds frame indices
    with exactly one weight per sample.  Raises
    :class:`~repro.errors.EncodingError` on violation.
    """
    if not isinstance(document, dict):
        _fail("not an object")
    if document.get("$schema") != SPEEDSCOPE_SCHEMA:
        _fail(f"bad $schema {document.get('$schema')!r}")
    shared = document.get("shared")
    if not isinstance(shared, dict) or not isinstance(
        shared.get("frames"), list
    ):
        _fail("missing shared.frames")
    frames = shared["frames"]
    for i, frame in enumerate(frames):
        if not isinstance(frame, dict) or not isinstance(
            frame.get("name"), str
        ):
            _fail(f"frame {i} has no name")
    profiles = document.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        _fail("no profiles")
    for p, profile in enumerate(profiles):
        kind = profile.get("type")
        if kind != "sampled":
            _fail(f"profile {p} has unsupported type {kind!r}")
        if not isinstance(profile.get("unit"), str):
            _fail(f"profile {p} has no unit")
        samples = profile.get("samples")
        weights = profile.get("weights")
        if not isinstance(samples, list) or not isinstance(weights, list):
            _fail(f"profile {p} missing samples/weights")
        if len(samples) != len(weights):
            _fail(
                f"profile {p} has {len(samples)} sample(s) but "
                f"{len(weights)} weight(s)"
            )
        for s, stack in enumerate(samples):
            if not isinstance(stack, list) or not stack:
                _fail(f"profile {p} sample {s} is not a non-empty stack")
            for index in stack:
                if not isinstance(index, int) or not (0 <= index < len(frames)):
                    _fail(
                        f"profile {p} sample {s} frame index {index!r} "
                        f"out of bounds (table has {len(frames)})"
                    )
        for w, weight in enumerate(weights):
            if not isinstance(weight, (int, float)) or weight < 0:
                _fail(f"profile {p} weight {w} is {weight!r}")
        total = sum(weights)
        end = profile.get("endValue")
        if not isinstance(end, (int, float)) or end + 1e-9 < total:
            _fail(
                f"profile {p} endValue {end!r} below total weight {total!r}"
            )
    return document


def write_flame(
    path: str, document: dict, *, fmt: str = "speedscope",
    name: str = "repro trace",
) -> str:
    """Write a trace's flame export to ``path`` (the ``repro trace
    flame -o`` surface); ``fmt`` is ``"speedscope"`` (validated JSON)
    or ``"collapsed"`` (text).  Returns the path for chaining."""
    if fmt == "speedscope":
        payload = json.dumps(
            validate_speedscope(speedscope_document(document, name=name)),
            indent=2,
            sort_keys=True,
        )
    elif fmt == "collapsed":
        payload = collapsed_stacks(document)
    else:
        raise EncodingError(f"unknown flame format {fmt!r}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.write("\n")
    return path
