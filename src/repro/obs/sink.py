"""Trace exporters: JSON Lines and Chrome trace format.

A finished trace is a list of :class:`~repro.obs.trace.TraceEvent`;
these write it to a file once formation ends:

- :func:`write_jsonl` — one JSON object (``TraceEvent.as_dict``) per
  line, in the tracer's order;
- :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON format, loadable in ``chrome://tracing`` and
  Perfetto: spans become complete ("X") events on one virtual thread
  per function, instants become "i" events, and thread-name metadata
  labels each function lane.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence


def write_jsonl(events: Sequence, path: str) -> None:
    """Write ``events`` to ``path`` as JSON Lines, one event a line."""
    with open(path, "w") as handle:
        for event in events:
            json.dump(event.as_dict(), handle, default=str)
            handle.write("\n")


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
