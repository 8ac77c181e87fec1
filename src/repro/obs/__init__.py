"""Zero-dependency observability for the formation engine.

The modules (see ``docs/OBSERVABILITY.md``):

- :mod:`repro.obs.trace` — structured events and spans, the installed
  tracer, and the queryable :class:`FormationTrace`;
- :mod:`repro.obs.metrics` — per-run labelled histograms (phase times)
  with a ``snapshot()`` API;
- :mod:`repro.obs.sink` — JSONL / bounded-ring / in-memory sinks and the
  Chrome-trace (Perfetto) exporter;
- :mod:`repro.obs.ledger` — persistent, content-addressed run records
  and the decision logs they reference;
- :mod:`repro.obs.replay` — the decision flight recorder: per-function
  decision logs, check-mode replay and bisection.

Telemetry is opt-in: nothing is recorded until a :class:`Tracer` is
installed (``with tracing(tracer): ...``), and with no tracer installed
the instrumentation in the formation engine costs one ``is None`` test
per trial.
"""

from repro.obs.ledger import (
    DEFAULT_LEDGER_DIR,
    RECORD_SCHEMA_VERSION,
    Ledger,
    LedgerError,
    run_hash,
    validate_record,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.sink import (
    DEFAULT_RING_CAPACITY,
    JsonlSink,
    MemorySink,
    RingSink,
    chrome_trace,
    read_jsonl,
    write_chrome_trace,
)
from repro.obs.trace import (
    PHASE_HISTOGRAM,
    PHASE_SPANS,
    FormationTrace,
    TraceEvent,
    Tracer,
    active_tracer,
    clear,
    install,
    tracing,
)
__all__ = [
    "DEFAULT_LEDGER_DIR",
    "RECORD_SCHEMA_VERSION",
    "Ledger",
    "LedgerError",
    "run_hash",
    "validate_record",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_RING_CAPACITY",
    "JsonlSink",
    "MemorySink",
    "RingSink",
    "chrome_trace",
    "read_jsonl",
    "write_chrome_trace",
    "PHASE_HISTOGRAM",
    "PHASE_SPANS",
    "FormationTrace",
    "TraceEvent",
    "Tracer",
    "active_tracer",
    "clear",
    "install",
    "tracing",
]
