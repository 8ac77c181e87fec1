"""Per-phase allocation attribution via ``tracemalloc``.

:class:`PhaseMemoryProfiler` rides the tracer's phase spans (optimize /
estimate / commit / liveness / oracle): the tracer calls
:meth:`enter_phase` / :meth:`exit_phase` as each phase span opens and
closes, and the profiler charges allocation deltas to the phase that was
active.  Two numbers per phase, mirroring the wall-clock phase table's
self-time convention:

- ``net_bytes`` — allocations minus frees while the phase (and anything
  nested in it) ran, summed over all entries;
- ``self_net_bytes`` — the same with nested phases' net subtracted, so
  ``commit`` is charged its own allocations and ``liveness`` (which runs
  inside commit) its own;
- ``peak_delta_bytes`` — the worst single-entry excursion above the
  phase's starting watermark, from ``tracemalloc``'s traced peak, which
  the profiler resets at every phase boundary so each phase owns its own
  peak window.

Self-net bytes additionally feed a ``formation_phase_alloc_bytes``
histogram when a metrics registry is attached, giving exposition a
per-phase allocation distribution next to the existing
``formation_phase_seconds`` one.

``tracemalloc`` instruments *every* Python allocation, so this is a
diagnosis tool, not an always-on series: ``bench --mem-profile`` runs it
on dedicated untimed passes, exactly like the sampling profiler.
"""

from __future__ import annotations

import tracemalloc
from typing import Optional

#: Histogram fed with per-phase self-net allocation bytes.
ALLOC_HISTOGRAM = "formation_phase_alloc_bytes"

#: Byte-scale buckets (powers of four, 1 KiB .. 256 MiB) — allocation
#: sizes span many more decades than phase durations, so the half-decade
#: time buckets would waste resolution.
ALLOC_BUCKETS = tuple(1024.0 * 4.0 ** exp for exp in range(10))


class _Frame:
    __slots__ = ("name", "start", "peak", "child_net")

    def __init__(self, name: str, start: int):
        self.name = name
        self.start = start
        self.peak = 0
        self.child_net = 0


class PhaseMemoryProfiler:
    """Charge tracemalloc deltas to the tracer's active formation phase.

    Attach to a tracer (``tracer.memprof = profiler``) between
    :meth:`start` and :meth:`stop`.  Phases nest (liveness inside
    commit); the profiler keeps a frame stack mirroring the tracer's
    span stack and folds the traced peak into every open frame at each
    boundary, so a spike inside liveness is visible from commit's frame
    too, while net bytes are de-duplicated into self-net.
    """

    def __init__(self, metrics=None, histogram: str = ALLOC_HISTOGRAM):
        self.metrics = metrics
        self.histogram = histogram
        self.phases: dict[str, dict] = {}
        self.baseline = 0
        self.total_net = 0
        self.total_peak = 0
        self._stack: list[_Frame] = []
        self._owns_tracemalloc = False
        self._running = False

    # -- lifecycle ---------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True
        tracemalloc.reset_peak()
        self.baseline = tracemalloc.get_traced_memory()[0]
        self._running = True

    def stop(self) -> None:
        if not self._running:
            return
        current, peak = tracemalloc.get_traced_memory()
        self._fold_peak(peak)
        while self._stack:  # unbalanced exits: close what remains
            self._close_frame(current)
        self.total_net = current - self.baseline
        self.total_peak = max(self.total_peak, peak - self.baseline)
        self._running = False
        if self._owns_tracemalloc:
            tracemalloc.stop()
            self._owns_tracemalloc = False

    # -- tracer hooks ------------------------------------------------

    def enter_phase(self, name: str) -> None:
        if not self._running:
            return
        current, peak = tracemalloc.get_traced_memory()
        self._fold_peak(peak)
        tracemalloc.reset_peak()
        self._stack.append(_Frame(name, current))

    def exit_phase(self, name: str) -> None:
        if not self._running or not self._stack:
            return
        if self._stack[-1].name != name:
            return  # unbalanced; charge nothing rather than mis-attribute
        current, peak = tracemalloc.get_traced_memory()
        self._fold_peak(peak)
        self._close_frame(current)
        tracemalloc.reset_peak()

    # -- internals ---------------------------------------------------

    def _fold_peak(self, peak: int) -> None:
        self.total_peak = max(self.total_peak, peak - self.baseline)
        for frame in self._stack:
            frame.peak = max(frame.peak, peak - frame.start)

    def _close_frame(self, current: int) -> None:
        frame = self._stack.pop()
        net = current - frame.start
        self_net = net - frame.child_net
        if self._stack:
            self._stack[-1].child_net += net
        row = self.phases.setdefault(
            frame.name,
            {"count": 0, "net_bytes": 0, "self_net_bytes": 0,
             "peak_delta_bytes": 0},
        )
        row["count"] += 1
        row["net_bytes"] += net
        row["self_net_bytes"] += self_net
        row["peak_delta_bytes"] = max(row["peak_delta_bytes"], frame.peak)
        if self.metrics is not None:
            self.metrics.histogram(
                self.histogram, buckets=ALLOC_BUCKETS, phase=frame.name
            )
            self.metrics.observe(
                self.histogram, max(self_net, 0), phase=frame.name
            )

    # -- reporting ---------------------------------------------------

    def report(self) -> dict:
        """JSON-safe summary: per-phase rows plus run-wide totals."""
        out = {
            "phases": {
                name: dict(row) for name, row in sorted(self.phases.items())
            },
            "total_net_bytes": self.total_net,
            "total_peak_bytes": self.total_peak,
        }
        attributed = sum(r["self_net_bytes"] for r in self.phases.values())
        out["unattributed_net_bytes"] = self.total_net - attributed
        return out


def format_bytes(value: Optional[float]) -> str:
    """Human rendering (``-``, ``512 B``, ``3.4 KiB``, ``1.2 MiB``)."""
    if value is None:
        return "-"
    magnitude = abs(value)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if magnitude < 1024.0 or unit == "GiB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {unit}"
        value /= 1024.0
        magnitude /= 1024.0
    return f"{value:.1f} GiB"
