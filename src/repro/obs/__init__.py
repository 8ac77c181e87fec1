"""Zero-dependency observability for the formation engine.

The modules (see ``docs/OBSERVABILITY.md``):

- :mod:`repro.obs.trace` — structured events and spans, the per-run
  :class:`Tracer`, and the queryable :class:`FormationTrace`;
- :mod:`repro.obs.sink` — the JSON Lines and Chrome-trace (Perfetto)
  exporters of a finished trace;
- :mod:`repro.obs.replay` — the decision flight recorder: per-function
  decision logs, their validation, and first-divergence bisection.

Telemetry is opt-in: nothing is recorded unless a run is given a
:class:`Tracer` (``form_module(module, tracer=tracer)``).  Without one,
each traced region of the formation engine costs one
:func:`repro.obs.trace.span` call that records nothing, and each event
one ``is not None`` test.
"""

from repro.obs.sink import chrome_trace, write_chrome_trace, write_jsonl
from repro.obs.trace import PHASE_SPANS, FormationTrace, TraceEvent, Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "PHASE_SPANS",
    "FormationTrace",
    "TraceEvent",
    "Tracer",
]
