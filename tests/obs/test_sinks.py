"""Sinks and exporters: JSONL round-trip, ring bounds, Chrome format."""

from __future__ import annotations

import json

import pytest

from repro.obs.sink import (
    JsonlSink,
    MemorySink,
    RingSink,
    chrome_trace,
    read_jsonl,
    write_chrome_trace,
)
from repro.obs.trace import TraceEvent, Tracer


def _sample_events() -> list[TraceEvent]:
    return [
        TraceEvent(
            name="trial", ts=0.001, span_id=1, dur=0.0005,
            attrs={"function": "f", "hb": "a", "target": "b"},
        ),
        TraceEvent(
            name="reject", ts=0.0012, span_id=2, parent_id=1,
            attrs={
                "function": "f", "hb": "a", "target": "b",
                "reason": "constraint", "constraints": ["instructions"],
            },
        ),
        TraceEvent(name="offer", ts=0.002, span_id=3,
                   attrs={"hb": "c", "target": "d"}),
    ]


def test_memory_sink_collects_everything():
    sink = MemorySink()
    events = _sample_events()
    for event in events:
        sink.emit(event)
    assert sink.events == events
    assert sink.dropped == 0


def test_ring_sink_rejects_bad_capacity():
    with pytest.raises(ValueError):
        RingSink(capacity=0)


def test_jsonl_roundtrip(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    sink = JsonlSink(path)
    events = _sample_events()
    for event in events:
        sink.emit(event)
    sink.close()
    # Every line is standalone JSON.
    with open(path) as handle:
        lines = [line for line in handle if line.strip()]
    assert len(lines) == len(events)
    for line in lines:
        json.loads(line)
    assert read_jsonl(path) == events


def test_tracer_finish_closes_jsonl_sink(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    tracer = Tracer(sinks=(MemorySink(), JsonlSink(path)))
    tracer.event("offer", hb="a", target="b")
    trace = tracer.finish()
    assert len(trace) == 1
    assert len(read_jsonl(path)) == 1


def test_chrome_trace_structure():
    document = chrome_trace(_sample_events(), meta={"workload": "mcf"})
    assert document["displayTimeUnit"] == "ms"
    assert document["otherData"] == {"workload": "mcf"}
    events = document["traceEvents"]

    spans = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    metadata = [e for e in events if e["ph"] == "M"]
    thread_meta = [e for e in metadata if e["name"] == "thread_name"]
    assert len(spans) == 1 and len(instants) == 2
    assert thread_meta == metadata
    # One process: every record is on pid 0.
    assert {e["pid"] for e in events} == {0}

    (span,) = spans
    assert span["name"] == "trial"
    assert span["ts"] == 1000.0  # seconds -> microseconds
    assert span["dur"] == 500.0
    assert "function" not in span["args"]  # lifted into the lane

    # One virtual thread per function, each named; events without a
    # function share the "run" lane.
    lanes = {e["args"]["name"]: e["tid"] for e in thread_meta}
    assert set(lanes) == {"f", "run"}
    assert span["tid"] == lanes["f"]
    (offer,) = [e for e in instants if e["name"] == "offer"]
    assert offer["tid"] == lanes["run"]
    assert offer["args"] == {"hb": "c", "target": "d"}

    # The whole document is JSON-serializable.
    json.dumps(document)


def test_write_chrome_trace(tmp_path):
    path = str(tmp_path / "trace.json")
    write_chrome_trace(_sample_events(), path)
    with open(path) as handle:
        document = json.load(handle)
    assert document["traceEvents"]


def test_jsonl_sink_context_manager_flushes_and_closes(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    events = _sample_events()
    with JsonlSink(path) as sink:
        for event in events:
            sink.emit(event)
        # flush() makes what is emitted so far durable mid-run.
        sink.flush()
        with open(path) as handle:
            assert len(handle.readlines()) == len(events)
    assert sink._handle.closed
    sink.close()  # idempotent: finish() may close it again
    assert read_jsonl(path) == events
