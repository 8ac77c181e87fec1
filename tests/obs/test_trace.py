"""The trace layer: events, spans and trace queries."""

from __future__ import annotations

import json

import pytest

from repro.obs.trace import FormationTrace, TraceEvent, Tracer


def test_event_roundtrips_through_dict():
    """``as_dict`` is the JSON form the exporters write: every set field
    survives a JSON round trip, and unset ones are left out."""
    event = TraceEvent(
        name="reject", ts=1.25, span_id=7, parent_id=3, dur=0.5,
        attrs={"reason": "constraint", "constraints": ["instructions"]},
    )
    assert json.loads(json.dumps(event.as_dict())) == {
        "name": "reject", "ts": 1.25, "id": 7, "parent": 3, "dur": 0.5,
        "attrs": {"reason": "constraint", "constraints": ["instructions"]},
    }
    instant = TraceEvent(name="offer", ts=0.0, span_id=1)
    assert json.loads(json.dumps(instant.as_dict())) == {
        "name": "offer", "ts": 0.0, "id": 1,
    }


def test_spans_nest_through_parent_ids():
    tracer = Tracer()
    with tracer.span("module") as module_span:
        with tracer.span("function", function="f") as func_span:
            tracer.event("offer", hb="a", target="b")
    events = {e.name: e for e in tracer.events}
    assert events["module"].parent_id is None
    assert events["function"].parent_id == module_span.span_id
    assert events["offer"].parent_id == func_span.span_id
    assert events["module"].dur >= events["function"].dur >= 0.0


def test_span_set_and_error_attrs():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("trial") as span:
            span.set(committed=False)
            raise ValueError("boom")
    (event,) = tracer.events
    assert event.attrs == {"committed": False, "error": "ValueError"}


def test_formation_trace_queries():
    tracer = Tracer()
    with tracer.span("function", function="f"):
        with tracer.span("expand", function="f", seed="hb"):
            tracer.event("offer", function="f", hb="hb", target="b1")
            with tracer.span(
                "trial", function="f", hb="hb", target="b1"
            ) as trial:
                trial.set(committed=True)
                tracer.event(
                    "accept", function="f", hb="hb", target="b1",
                    kind="merge", removed="b1",
                )
            tracer.event("offer", function="f", hb="hb", target="b2")
            tracer.event(
                "reject", function="f", hb="hb", target="b2",
                reason="policy",
            )
    trace = tracer.finish()

    assert trace.event_counts() == {
        "accept": 1, "expand": 1, "function": 1, "offer": 2,
        "reject": 1, "trial": 1,
    }
    (root,) = trace.roots()
    assert root.name == "function"
    assert [e.name for e in trace.subtree(root)] == [
        "function", "expand", "offer", "trial", "accept", "offer", "reject",
    ]

    path = trace.decision_path("hb", "b1")
    assert [e.name for e in path] == ["offer", "trial", "accept"]
    path2 = trace.decision_path("hb", "b2")
    assert [e.name for e in path2] == ["offer", "reject"]
    assert trace.decision_path("hb", "nope") == []

    accept = trace.last_accept()
    assert accept is not None and accept.attrs["target"] == "b1"
    assert trace.last_accept(function="g") is None


def test_empty_trace_is_queryable():
    trace = FormationTrace([])
    assert len(trace) == 0
    assert trace.roots() == []
    assert trace.event_counts() == {}
    assert trace.last_accept() is None
