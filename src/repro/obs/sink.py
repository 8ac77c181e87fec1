"""Trace sinks and exporters: in-memory, JSONL, Chrome trace format.

A *sink* receives every :class:`~repro.obs.trace.TraceEvent` a tracer
emits.  Two are provided:

- :class:`MemorySink` — an unbounded list; the tracer's default.
- :class:`JsonlSink` — streams events to a file as one JSON object per
  line; :func:`read_jsonl` round-trips them back.

:func:`chrome_trace` converts an event list into the Chrome trace-event
JSON format, loadable in ``chrome://tracing`` and Perfetto: spans become
complete ("X") events on one virtual thread per function, instants
become "i" events, and thread-name metadata labels each function lane.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence


class MemorySink:
    """Unbounded in-memory sink."""

    def __init__(self) -> None:
        self.events: list = []

    def emit(self, event) -> None:
        self.events.append(event)


class JsonlSink:
    """Streams events to ``path`` as JSON Lines.

    Usable as a context manager; exit flushes and closes, so every
    emitted event is durably on disk when the ``with`` block ends —
    a crashed reader mid-run sees complete lines, never a torn tail.
    ``close`` is idempotent (the tracer's ``finish`` also calls it).
    """

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path, "w")

    def emit(self, event) -> None:
        json.dump(event.as_dict(), self._handle, default=str)
        self._handle.write("\n")

    def flush(self) -> None:
        if not self._handle.closed:
            self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_jsonl(path: str) -> list:
    """Load a JSONL trace file back into :class:`TraceEvent` records."""
    from repro.obs.trace import TraceEvent

    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_dict(json.loads(line)))
    return events


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------


def chrome_trace(events: Sequence, meta: Optional[dict] = None) -> dict:
    """Convert events to the Chrome trace-event JSON object.

    Each distinct ``attrs["function"]`` becomes one virtual thread so
    Perfetto renders per-function phase lanes; events without a function
    attribute land on a shared "run" lane.  Every event is on pid 0.
    Timestamps and durations are microseconds, as the format requires.
    """
    tids: dict[str, int] = {}
    trace_events: list[dict] = []
    for event in events:
        lane = str(event.attrs.get("function") or "run")
        tid = tids.get(lane)
        if tid is None:
            tid = tids[lane] = len(tids) + 1
        record = {
            "name": event.name,
            "pid": 0,
            "tid": tid,
            "ts": round(event.ts * 1e6, 3),
            "args": {
                key: value
                for key, value in event.attrs.items()
                if key != "function"
            },
        }
        if event.dur is not None:
            record["ph"] = "X"
            record["dur"] = round(event.dur * 1e6, 3)
        else:
            record["ph"] = "i"
            record["s"] = "t"
        trace_events.append(record)

    for lane, tid in tids.items():
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": lane},
            }
        )
    document = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    if meta:
        document["otherData"] = meta
    return document


def write_chrome_trace(
    events: Sequence, path: str, meta: Optional[dict] = None
) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(events, meta=meta), handle, default=str)
        handle.write("\n")
