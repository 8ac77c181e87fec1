"""Structured decision tracing for the formation engine.

The paper's central claim is that unroll/peel/tail-duplicate decisions
"fall out of the merge order" of convergent formation — which makes the
*decision record* the primary debugging artifact.  This module provides
that record:

- :class:`TraceEvent` — one typed record: an *instant* (``dur is None``)
  or a completed *span* (``dur`` in seconds).  Events form a tree through
  ``parent_id``, so a merge trial's optimize/estimate/commit phases
  nest under their trial, trials nest under their hyperblock
  expansion, expansions under their function.
- :class:`Tracer` — the per-run emitter, which keeps its events in a
  plain list (``tracer.events``).  A run takes it as an argument
  (``form_module(..., tracer=tracer)``) and keeps it on its
  ``FormationContext``.
- :func:`span` — the one way the engine opens a span:
  ``with span(tracer, "trial", hb=...)`` records under a tracer and,
  with no tracer (the default), hands out a shared span that records
  nothing.  A disabled traced region therefore costs one call and a
  no-op ``with``, and events cost one ``is not None`` test each, which
  keeps the subsystem's disabled overhead under the 2% budget.
- :class:`FormationTrace` — the finished, queryable trace: event counts,
  span trees and per-decision paths (``decision_path``).

The ``obs`` package imports nothing from the rest of ``repro`` so every
layer (core, robustness, harness) can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional, Sequence

#: Span names that double as formation *phases*: ``stats`` charges their
#: self time per function (``repro.harness.tracecmd.phase_table``).
PHASE_SPANS = frozenset(
    {"optimize", "estimate", "commit", "oracle", "liveness"}
)


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
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self.tracer
        t1 = perf_counter()
        stack = tracer._stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        tracer.events.append(
            TraceEvent(
                name=self.name,
                ts=self._t0 - tracer.epoch,
                span_id=self.span_id,
                parent_id=self.parent_id,
                dur=t1 - self._t0,
                attrs=self.attrs,
            )
        )


class _NullSpan:
    """The span :func:`span` hands out without a tracer: records nothing.

    ``__enter__`` and ``__exit__`` are static so that a ``with`` binds no
    method object, which takes about a quarter off a disabled region.
    """

    __slots__ = ()

    def set(self, **attrs) -> None:
        pass

    @staticmethod
    def __enter__() -> "_NullSpan":
        return _NULL_SPAN

    @staticmethod
    def __exit__(exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


def span(tracer: Optional["Tracer"], name: str, **attrs):
    """Open a span on ``tracer``, or a span that records nothing when
    ``tracer`` is ``None``: ``with span(ctx.tracer, "estimate"): ...``
    writes a traced region once for both cases."""
    if tracer is None:
        return _NULL_SPAN
    return _Span(tracer, name, attrs)


class Tracer:
    """Per-run trace emitter: spans and instants.

    ``events`` holds every event in completion order (spans are recorded
    at *exit*, so a parent span follows its children — readers that need
    tree order sort by ``ts``).
    """

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self.epoch = perf_counter()
        self._stack: list[int] = []
        self._ids = 0

    def _next_id(self) -> int:
        self._ids += 1
        return self._ids

    # -- emission --------------------------------------------------------

    def event(self, name: str, **attrs) -> TraceEvent:
        """Record an instant event under the current span."""
        event = TraceEvent(
            name=name,
            ts=perf_counter() - self.epoch,
            span_id=self._next_id(),
            parent_id=self._stack[-1] if self._stack else None,
            attrs=attrs,
        )
        self.events.append(event)
        return event

    def span(self, name: str, **attrs) -> _Span:
        """Open a span (``with tracer.span("trial", hb=..., target=...)``)."""
        return _Span(self, name, attrs)

    def finish(self) -> "FormationTrace":
        """The queryable :class:`FormationTrace` of the events so far."""
        return FormationTrace(self.events)


class FormationTrace:
    """A finished formation trace: the event list plus query helpers."""

    def __init__(self, events: Sequence[TraceEvent]):
        self.events = list(events)
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

