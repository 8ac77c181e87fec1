"""Per-run metrics registry: labelled histograms with a snapshot.

A tracer given a registry feeds every phase span's duration into the
``formation_phase_seconds`` histogram, labelled by phase (see
:class:`repro.obs.trace.Tracer`); ``stats`` renders the result through
:meth:`MetricsRegistry.snapshot`, which serializes directly to JSON.

Everything is plain-Python and allocation-light.  When telemetry is
disabled no registry exists at all — the instrumented code guards on the
active tracer, so the disabled cost of this module is zero.
"""

from __future__ import annotations

import math

#: Default histogram buckets for second-scale timings: half-decade log
#: steps from 1 microsecond to 10 seconds (phase timings in this repo
#: span ~1e-6 .. 1e0 s).
DEFAULT_TIME_BUCKETS = tuple(
    10.0 ** (exp / 2.0) for exp in range(-12, 3)
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max.

    ``buckets`` are upper bounds (le); observations above the last bound
    land in the implicit overflow bucket.
    """

    __slots__ = ("labels", "buckets", "counts", "count", "sum", "min", "max")
    kind = "histogram"

    def __init__(self, labels: dict, buckets: tuple = DEFAULT_TIME_BUCKETS):
        self.labels = labels
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        out = {
            "labels": self.labels,
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            # Bucket bounds and per-bucket counts ride along (additively —
            # older consumers read only the scalar keys) so a consumer can
            # reconstruct the full distribution.
            "buckets": list(self.buckets),
            "bucket_counts": list(self.counts),
        }
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
        return out


class MetricsRegistry:
    """Named, labelled histograms with a serializable snapshot."""

    def __init__(self) -> None:
        self._instruments: dict[tuple, Histogram] = {}

    def histogram(
        self, name: str, buckets: tuple = DEFAULT_TIME_BUCKETS, **labels
    ) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = Histogram(labels, buckets=buckets)
            self._instruments[key] = instrument
        return instrument

    def observe(self, name: str, value: float, **labels) -> None:
        self.histogram(name, **labels).observe(value)

    # -- reading ---------------------------------------------------------

    def snapshot(self) -> dict:
        """``{name: [{"labels": ..., ...instrument stats}, ...]}``.

        Values are plain dicts (JSON-ready); instruments appear in
        name-then-label order so snapshots diff stably.
        """
        out: dict[str, list] = {}
        for (name, _), instrument in sorted(
            self._instruments.items(), key=lambda item: item[0]
        ):
            record = instrument.as_dict()
            record["type"] = instrument.kind
            out.setdefault(name, []).append(record)
        return out
