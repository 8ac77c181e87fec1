"""The trace layer: events, spans, the installed tracer, absorption."""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import MemorySink, RingSink
from repro.obs.trace import (
    PHASE_HISTOGRAM,
    FormationTrace,
    TraceEvent,
    Tracer,
    active_tracer,
    clear,
    install,
    tracing,
)


def test_event_roundtrips_through_dict():
    event = TraceEvent(
        name="reject", ts=1.25, span_id=7, parent_id=3,
        attrs={"reason": "constraint", "constraints": ["instructions"]},
    )
    assert TraceEvent.from_dict(event.as_dict()) == event
    instant = TraceEvent(name="offer", ts=0.0, span_id=1)
    assert TraceEvent.from_dict(instant.as_dict()) == instant


def test_spans_nest_through_parent_ids():
    tracer = Tracer()
    with tracer.span("module") as module_span:
        with tracer.span("function", function="f") as func_span:
            tracer.event("offer", hb="a", target="b")
    events = {e.name: e for e in tracer.collected_events()}
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
    (event,) = tracer.collected_events()
    assert event.attrs == {"committed": False, "error": "ValueError"}


def test_phase_spans_feed_the_histogram():
    registry = MetricsRegistry()
    tracer = Tracer(metrics=registry)
    with tracer.phase("estimate", function="f"):
        pass
    with tracer.phase("not_a_phase"):
        pass
    snapshot = registry.snapshot()
    (entry,) = snapshot[PHASE_HISTOGRAM]
    assert entry["labels"] == {"phase": "estimate"}
    assert entry["count"] == 1


def test_install_clear_and_tracing_context():
    assert active_tracer() is None
    tracer = Tracer()
    install(tracer)
    try:
        assert active_tracer() is tracer
    finally:
        clear()
    assert active_tracer() is None
    with tracing() as inner:
        assert active_tracer() is inner
        with tracing(tracer):
            assert active_tracer() is tracer
        assert active_tracer() is inner  # previous tracer restored
    assert active_tracer() is None


def test_ring_sink_bounds_the_trace_and_counts_drops():
    tracer = Tracer(sinks=(RingSink(capacity=3),))
    for i in range(5):
        tracer.event("offer", seq=i)
    trace = tracer.finish()
    assert len(trace) == 3
    assert trace.dropped == 2
    assert [e.attrs["seq"] for e in trace.events] == [2, 3, 4]


def test_formation_trace_queries():
    tracer = Tracer(sinks=(MemorySink(),))
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
