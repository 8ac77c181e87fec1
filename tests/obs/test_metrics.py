"""The metrics registry: histograms, labels, snapshots."""

from __future__ import annotations

import json

from repro.obs.metrics import MetricsRegistry


def test_histogram_stats_and_buckets():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        hist.observe(value)
    assert hist.count == 3
    assert hist.sum == 5.55
    assert hist.min == 0.05 and hist.max == 5.0
    assert hist.counts == [1, 1, 1]  # one per bucket + overflow
    assert abs(hist.mean - 1.85) < 1e-9


def test_snapshot_is_json_shaped_and_stable():
    registry = MetricsRegistry()
    registry.observe("trial", 0.5, outcome="rejected")
    registry.observe("trial", 0.125, outcome="committed")
    registry.observe("phase", 0.25, phase="estimate")
    snapshot = registry.snapshot()
    assert sorted(snapshot) == ["phase", "trial"]
    labels = [entry["labels"]["outcome"] for entry in snapshot["trial"]]
    assert labels == sorted(labels)  # label order is deterministic
    (phase_entry,) = snapshot["phase"]
    assert phase_entry["type"] == "histogram"
    assert phase_entry["count"] == 1 and phase_entry["sum"] == 0.25
    assert json.loads(json.dumps(snapshot)) == snapshot
