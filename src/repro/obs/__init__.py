"""Zero-dependency observability for the formation engine.

The modules (see ``docs/OBSERVABILITY.md``):

- :mod:`repro.obs.trace` — structured events and spans, the per-run
  :class:`Tracer`, and the queryable :class:`FormationTrace`;
- :mod:`repro.obs.sink` — in-memory and JSONL sinks and the Chrome-trace
  (Perfetto) exporter;
- :mod:`repro.obs.replay` — the decision flight recorder: per-function
  decision logs, their validation, and first-divergence bisection.

Telemetry is opt-in: nothing is recorded unless a run is given a
:class:`Tracer` (``form_module(module, tracer=tracer)``), and without one
the instrumentation in the formation engine costs one ``is None`` test
per trial.
"""

from repro.obs.sink import (
    JsonlSink,
    MemorySink,
    chrome_trace,
    read_jsonl,
    write_chrome_trace,
)
from repro.obs.trace import PHASE_SPANS, FormationTrace, TraceEvent, Tracer

__all__ = [
    "JsonlSink",
    "MemorySink",
    "chrome_trace",
    "read_jsonl",
    "write_chrome_trace",
    "PHASE_SPANS",
    "FormationTrace",
    "TraceEvent",
    "Tracer",
]
