"""Structured decision tracing for the formation engine.

The paper's central claim is that unroll/peel/tail-duplicate decisions
"fall out of the merge order" of convergent formation — which makes the
*decision record* the primary debugging artifact.  This module provides
that record:

- :class:`TraceEvent` — one typed record: an *instant* (``dur is None``)
  or a completed *span* (``dur`` in seconds).  Events form a tree through
  ``parent_id``, so a merge trial's optimize/estimate/commit/oracle
  phases nest under their trial, trials nest under their hyperblock
  expansion, expansions under their function.
- :class:`Tracer` — the per-run emitter.  Instrumented code asks for the
  installed tracer (:func:`active_tracer`) and emits through it; when no
  tracer is installed (the default) the instrumentation reduces to one
  attribute load and an ``is None`` test per trial, which is how the
  subsystem keeps its disabled overhead under the 2% budget.
- :class:`FormationTrace` — the finished, queryable trace: event counts,
  span trees and per-decision paths (``decision_path``).

Like :mod:`repro.robustness.faultinject`, the active tracer is a process
global (:func:`install` / :func:`clear` / :func:`tracing`): it must reach
code deep inside the merge loop without threading a parameter through
every call site.  The ``obs`` package imports nothing from the rest of
``repro`` so every layer (core, robustness, harness) can import it
without cycles.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import MemorySink, RingSink

#: Span names that double as formation *phases*: their durations feed the
#: ``formation_phase_seconds`` histogram (labelled by phase) so per-phase
#: time shares can be reported without re-walking the trace.
PHASE_SPANS = frozenset(
    {"optimize", "estimate", "commit", "oracle", "liveness"}
)

#: Histogram fed by phase spans (see :class:`Tracer.phase`).
PHASE_HISTOGRAM = "formation_phase_seconds"


@dataclass(slots=True)
class TraceEvent:
    """One structured record of a formation run.

    ``ts`` is seconds since the owning tracer's epoch (monotonic clock);
    ``dur`` is ``None`` for instant events and the span length in seconds
    for completed spans.  ``attrs`` carries only JSON-safe values so an
    event serializes losslessly to JSONL and Chrome trace format.
    """

    name: str
    ts: float
    span_id: int
    parent_id: Optional[int] = None
    dur: Optional[float] = None
    attrs: dict = field(default_factory=dict)

    @property
    def is_span(self) -> bool:
        return self.dur is not None

    def as_dict(self) -> dict:
        record = {"name": self.name, "ts": self.ts, "id": self.span_id}
        if self.parent_id is not None:
            record["parent"] = self.parent_id
        if self.dur is not None:
            record["dur"] = self.dur
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "TraceEvent":
        return cls(
            name=record["name"],
            ts=record["ts"],
            span_id=record["id"],
            parent_id=record.get("parent"),
            dur=record.get("dur"),
            attrs=record.get("attrs", {}),
        )


class _Span:
    """Context manager recording one span; returned by :meth:`Tracer.span`.

    ``set(**attrs)`` adds attributes any time before exit (e.g. the trial
    verdict, known only at the end).
    """

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = tracer._next_id()
        self.parent_id: Optional[int] = None
        self._t0 = 0.0

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        stack = tracer._stack
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self._t0 = tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self.tracer
        t1 = tracer.clock()
        stack = tracer._stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        dur = t1 - self._t0
        tracer._emit(
            TraceEvent(
                name=self.name,
                ts=self._t0 - tracer.epoch,
                span_id=self.span_id,
                parent_id=self.parent_id,
                dur=dur,
                attrs=self.attrs,
            )
        )
        if self.name in PHASE_SPANS and tracer.metrics is not None:
            tracer.metrics.observe(PHASE_HISTOGRAM, dur, phase=self.name)


class Tracer:
    """Per-run trace emitter: spans and instants.

    ``sinks`` receive every event as it completes (spans are emitted at
    *exit*, so a parent span follows its children in sink order — readers
    that need tree order sort by ``ts``).  ``metrics`` (optional) receives
    phase-span durations as histogram observations.
    """

    def __init__(
        self,
        sinks: Sequence = (),
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.sinks = tuple(sinks) if sinks else (MemorySink(),)
        self.metrics = metrics
        self.clock = clock
        self.epoch = clock()
        self._stack: list[int] = []
        self._ids = 0

    def _next_id(self) -> int:
        self._ids += 1
        return self._ids

    def _emit(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    # -- emission --------------------------------------------------------

    def event(self, name: str, **attrs) -> TraceEvent:
        """Record an instant event under the current span."""
        event = TraceEvent(
            name=name,
            ts=self.clock() - self.epoch,
            span_id=self._next_id(),
            parent_id=self._stack[-1] if self._stack else None,
            attrs=attrs,
        )
        self._emit(event)
        return event

    def span(self, name: str, **attrs) -> _Span:
        """Open a span (``with tracer.span("trial", hb=..., target=...)``)."""
        return _Span(self, name, attrs)

    #: Phase spans are ordinary spans whose names are in
    #: :data:`PHASE_SPANS`; kept as an alias so call sites read as intent.
    phase = span

    # -- finishing -------------------------------------------------------

    def collected_events(self) -> list[TraceEvent]:
        """Events retained by the first in-memory sink (empty if none)."""
        for sink in self.sinks:
            if isinstance(sink, (MemorySink, RingSink)):
                return list(sink.events)
        return []

    def dropped_events(self) -> int:
        return sum(getattr(sink, "dropped", 0) for sink in self.sinks)

    def finish(self) -> "FormationTrace":
        """Close sinks and return the queryable :class:`FormationTrace`."""
        trace = FormationTrace(
            self.collected_events(), dropped=self.dropped_events()
        )
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()
        return trace


class FormationTrace:
    """A finished formation trace: the event list plus query helpers."""

    def __init__(self, events: Sequence[TraceEvent], dropped: int = 0):
        self.events = list(events)
        self.dropped = dropped
        self._children: Optional[dict] = None

    def __len__(self) -> int:
        return len(self.events)

    # -- indexing --------------------------------------------------------

    def _child_index(self) -> dict:
        if self._children is None:
            children: dict = {}
            for event in self.events:
                children.setdefault(event.parent_id, []).append(event)
            for bucket in children.values():
                bucket.sort(key=lambda e: e.ts)
            self._children = children
        return self._children

    def children(self, span_id: Optional[int]) -> list[TraceEvent]:
        return self._child_index().get(span_id, [])

    def roots(self) -> list[TraceEvent]:
        ids = {e.span_id for e in self.events}
        return sorted(
            (e for e in self.events if e.parent_id not in ids),
            key=lambda e: e.ts,
        )

    def subtree(self, event: TraceEvent) -> list[TraceEvent]:
        """``event`` plus its transitive children, in timestamp order."""
        out = [event]
        frontier = [event.span_id]
        index = self._child_index()
        while frontier:
            span_id = frontier.pop()
            for child in index.get(span_id, ()):
                out.append(child)
                frontier.append(child.span_id)
        out.sort(key=lambda e: (e.ts, e.span_id))
        return out

    # -- queries ---------------------------------------------------------

    def named(self, name: str) -> list[TraceEvent]:
        return [e for e in self.events if e.name == name]

    def spans(self, name: Optional[str] = None) -> list[TraceEvent]:
        return [
            e
            for e in self.events
            if e.is_span and (name is None or e.name == name)
        ]

    def event_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.name] = counts.get(event.name, 0) + 1
        return dict(sorted(counts.items()))

    def decision_path(self, hb: str, target: str) -> list[TraceEvent]:
        """Every event explaining the ``(hb, target)`` decision.

        Returns, in timestamp order, the offers of ``target`` to ``hb``
        and the full subtree of every trial span for the pair (phases,
        verdict events, guard events) — the paper's "why did this merge
        happen / get rejected" question answered from the record.
        """
        out: list[TraceEvent] = []
        seen: set[int] = set()
        for event in self.events:
            attrs = event.attrs
            if attrs.get("hb") != hb or attrs.get("target") != target:
                continue
            if event.name == "trial":
                for node in self.subtree(event):
                    if node.span_id not in seen:
                        seen.add(node.span_id)
                        out.append(node)
            elif event.span_id not in seen:
                seen.add(event.span_id)
                out.append(event)
        out.sort(key=lambda e: (e.ts, e.span_id))
        return out

    def last_accept(self, function: Optional[str] = None) -> Optional[TraceEvent]:
        """The most recent ``accept`` event (optionally for one function)."""
        last = None
        for event in self.events:
            if event.name != "accept":
                continue
            if function is not None and event.attrs.get("function") != function:
                continue
            if last is None or event.ts >= last.ts:
                last = event
        return last


# ---------------------------------------------------------------------------
# The installed tracer (process-global, like the fault plane)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def install(tracer: Tracer) -> None:
    global _ACTIVE
    _ACTIVE = tracer


def clear() -> None:
    global _ACTIVE
    _ACTIVE = None


def active_tracer() -> Optional[Tracer]:
    return _ACTIVE


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Install ``tracer`` (or a fresh memory-sink one) for a ``with`` block."""
    if tracer is None:
        tracer = Tracer()
    previous = _ACTIVE
    install(tracer)
    try:
        yield tracer
    finally:
        if previous is None:
            clear()
        else:
            install(previous)
