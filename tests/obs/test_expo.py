"""Exposition: Prometheus text rendering, parsing, and the HTTP server."""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.obs.expo import (
    BUILD_INFO_GAUGE,
    PROMETHEUS_CONTENT_TYPE,
    MetricsServer,
    expose_registry,
    parse_prometheus,
    publish_build_info,
    render_prometheus,
)
from repro.obs.metrics import MetricsRegistry


def _registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.inc("fleet_jobs_total", 3, outcome="ok")
    registry.inc("fleet_jobs_total", 1, outcome="failed")
    registry.set("fleet_worker_lease_state", 1.0, worker="w0")
    registry.observe(
        "formation_phase_seconds", 0.004, phase="optimize"
    )
    registry.observe(
        "formation_phase_seconds", 0.2, phase="optimize"
    )
    return registry


def test_render_parses_with_own_parser():
    text = render_prometheus(_registry().snapshot())
    samples = parse_prometheus(text)
    assert samples["fleet_jobs_total"] == [
        ({"outcome": "failed"}, 1.0),
        ({"outcome": "ok"}, 3.0),
    ] or samples["fleet_jobs_total"] == [
        ({"outcome": "ok"}, 3.0),
        ({"outcome": "failed"}, 1.0),
    ]
    assert ({"worker": "w0"}, 1.0) in samples["fleet_worker_lease_state"]
    # Histograms expand into _bucket/_sum/_count.
    assert "formation_phase_seconds_sum" in samples
    assert "formation_phase_seconds_count" in samples
    buckets = samples["formation_phase_seconds_bucket"]
    # Cumulative and monotone, ending at +Inf == count.
    values = [value for _, value in buckets]
    assert values == sorted(values)
    inf_bucket = [
        value for labels, value in buckets if labels.get("le") == "+Inf"
    ]
    assert inf_bucket == [2.0]


def test_render_escapes_label_values():
    registry = MetricsRegistry()
    registry.inc("odd_total", 1, reason='quote " and \\ slash')
    text = render_prometheus(registry.snapshot())
    samples = parse_prometheus(text)
    (entry,) = samples["odd_total"]
    labels, value = entry
    assert value == 1.0
    assert "reason" in labels


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_prometheus("valid_metric 1\nbroken line without value x\n")
    with pytest.raises(ValueError):
        parse_prometheus('metric{unquoted=value} 1\n')


def test_type_headers_present():
    text = render_prometheus(_registry().snapshot())
    assert "# TYPE fleet_jobs_total counter" in text
    assert "# TYPE fleet_worker_lease_state gauge" in text
    assert "# TYPE formation_phase_seconds histogram" in text


def test_http_server_routes():
    registry = _registry()
    with expose_registry(registry, port=0) as server:
        base = server.url
        with urllib.request.urlopen(base + "/metrics") as response:
            assert response.headers["Content-Type"] == (
                PROMETHEUS_CONTENT_TYPE
            )
            body = response.read().decode()
        samples = parse_prometheus(body)
        assert "fleet_jobs_total" in samples

        with urllib.request.urlopen(base + "/healthz") as response:
            health = json.loads(response.read().decode())
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0

        with urllib.request.urlopen(base + "/snapshot.json") as response:
            snapshot = json.loads(response.read().decode())
        assert "fleet_jobs_total" in snapshot

        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(base + "/nope")
        assert err.value.code == 404


def test_http_server_scrape_sees_live_updates():
    registry = MetricsRegistry()
    with expose_registry(registry, port=0) as server:
        registry.inc("formation_merges_total", 5)
        with urllib.request.urlopen(server.url + "/metrics") as response:
            body = response.read().decode()
        assert "formation_merges_total 5" in body


def test_build_info_gauge_carries_identity_labels():
    registry = MetricsRegistry()
    publish_build_info(
        registry, record_schema=3, decision_log_schema=1, python="3.12.1",
    )
    samples = parse_prometheus(render_prometheus(registry.snapshot()))
    ((labels, value),) = samples[BUILD_INFO_GAUGE]
    assert value == 1
    assert labels["record_schema"] == "3"
    # Non-string label values are stringified for the exposition.
    assert labels["decision_log_schema"] == "1"
    assert labels["python"] == "3.12.1"


def test_snapshot_failure_yields_empty_scrape_not_error():
    def explode():
        raise RuntimeError("registry mid-mutation")

    with MetricsServer(explode, port=0) as server:
        with urllib.request.urlopen(server.url + "/metrics") as response:
            assert response.status == 200
            assert response.read() == b""
