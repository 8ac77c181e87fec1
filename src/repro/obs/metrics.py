"""Process-local metrics registry: counters, gauges, histograms.

The formation engine's perf counters used to be scattered across ad-hoc
dataclasses (``FormationCacheStats``) and proxy mixins; this registry
gives them one home with label support and a :meth:`MetricsRegistry.
snapshot` API the CLI layer and run records can serialize directly.

Everything is plain-Python and allocation-light: an instrument is looked
up once (``registry.counter("trials", outcome="rejected")``) and then
bumped with attribute calls; the convenience forms (:meth:`inc`,
:meth:`observe`, :meth:`set`) do the lookup per call and are meant for
cold paths.  When telemetry is disabled no registry exists at all — the
instrumented code guards on the active tracer, so the disabled cost of
this module is zero.
"""

from __future__ import annotations

import math
from typing import Optional

#: Default histogram buckets for second-scale timings: half-decade log
#: steps from 1 microsecond to 10 seconds (phase timings in this repo
#: span ~1e-6 .. 1e0 s).
DEFAULT_TIME_BUCKETS = tuple(
    10.0 ** (exp / 2.0) for exp in range(-12, 3)
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("labels", "value")
    kind = "counter"

    def __init__(self, labels: dict):
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def as_dict(self) -> dict:
        return {"labels": self.labels, "value": self.value}


class Gauge:
    """Last-written value."""

    __slots__ = ("labels", "value")
    kind = "gauge"

    def __init__(self, labels: dict):
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def as_dict(self) -> dict:
        return {"labels": self.labels, "value": self.value}


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
    """Named, labelled instruments with a serializable snapshot."""

    def __init__(self) -> None:
        self._instruments: dict[tuple, object] = {}

    def _get(self, factory, name: str, labels: dict, **kwargs):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory(labels, **kwargs)
            self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: tuple = DEFAULT_TIME_BUCKETS, **labels
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    # -- convenience (cold paths) ---------------------------------------

    def inc(self, name: str, amount: int = 1, **labels) -> None:
        self.counter(name, **labels).inc(amount)

    def set(self, name: str, value: float, **labels) -> None:
        self.gauge(name, **labels).set(value)

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

    def totals(self, name: str) -> dict:
        """Aggregate every labelling of ``name`` (histograms: sum/count)."""
        total_count = 0
        total_sum = 0.0
        value = 0
        for (metric_name, _), instrument in self._instruments.items():
            if metric_name != name:
                continue
            if instrument.kind == "histogram":
                total_count += instrument.count
                total_sum += instrument.sum
            else:
                value += instrument.value
        return {"count": total_count, "sum": total_sum, "value": value}


#: Default process-wide registry, for callers that do not thread their
#: own (the CLI verbs create private registries per run).
_DEFAULT: Optional[MetricsRegistry] = None


def get_registry() -> MetricsRegistry:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = MetricsRegistry()
    return _DEFAULT


def set_registry(registry: Optional[MetricsRegistry]) -> None:
    global _DEFAULT
    _DEFAULT = registry
