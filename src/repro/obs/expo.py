"""Metrics exposition: Prometheus text format over stdlib ``http.server``.

The ROADMAP's "formation-as-a-service" north star needs the one thing
every serving stack assumes: an endpoint a collector can scrape mid-run.
This module provides it with zero dependencies — a daemon-threaded
:class:`http.server.ThreadingHTTPServer` serving three routes:

- ``/metrics`` — the registry snapshot rendered as Prometheus text
  exposition format (version 0.0.4): ``# TYPE`` headers, labelled
  samples, cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``
  for histograms;
- ``/healthz`` — liveness: ``200 ok`` while the server (hence the run)
  is up, plus uptime seconds;
- ``/snapshot.json`` — the raw :meth:`~repro.obs.metrics.
  MetricsRegistry.snapshot` as JSON, which is what
  ``python -m repro.harness top`` polls (no Prometheus parser needed).

Opt-in via ``--expose PORT`` on the ``fleet``, ``bench`` and
``selfcheck`` verbs.  The server holds a *callable* returning the
snapshot, not the registry itself, so a verb can swap registries between
phases (bench exposes its telemetry pass's registry) without restarting
the endpoint.  Reads are GIL-safe for the same reason the live stream's
publisher is: plain-dict snapshots of plain-int instruments, where a
torn mid-update read costs one transiently odd sample, never corruption.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from repro.obs.metrics import MetricsRegistry

#: Content type mandated by the Prometheus text exposition spec.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: The build-info gauge name (value always 1; identity in the labels,
#: the Prometheus ``*_build_info`` convention).
BUILD_INFO_GAUGE = "formation_build_info"


def publish_build_info(registry: MetricsRegistry, **labels) -> None:
    """Set the ``formation_build_info`` gauge to 1 with identity labels.

    Callers supply the labels (schema versions, python version, ...) —
    this module, like the rest of ``repro.obs``, cannot
    import the IR layer to discover them itself.  Scrapes join on the
    labels to correlate any series with the build that produced it.
    """
    registry.set(
        BUILD_INFO_GAUGE,
        1,
        **{key: str(value) for key, value in labels.items()},
    )

_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _escape_label(value: object) -> str:
    out = str(value)
    for char, escape in _LABEL_ESCAPES.items():
        out = out.replace(char, escape)
    return out


def _format_value(value: float) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if math.isnan(value):
            return "NaN"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _label_string(labels: dict, extra: Optional[dict] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(value)}"'
        for key, value in sorted(merged.items())
    )
    return "{" + inner + "}"


def _sanitize_name(name: str) -> str:
    """Metric names must match ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""
    out = [
        char if (char.isalnum() or char in "_:") else "_" for char in name
    ]
    if out and out[0].isdigit():
        out.insert(0, "_")
    return "".join(out) or "_"


def render_prometheus(snapshot: dict) -> str:
    """Render a registry snapshot as Prometheus text exposition.

    Counters keep their names as-is (the registry's ``*_total`` naming
    convention already matches Prometheus'); histograms expand into
    cumulative ``_bucket`` series with the spec's ``+Inf`` bucket,
    ``_sum`` and ``_count``.  Gauge min/max are not emitted — Prometheus
    derives them from the time series.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        entries = snapshot[name]
        if not entries:
            continue
        metric = _sanitize_name(name)
        kind = entries[0].get("type", "gauge")
        prom_type = {"counter": "counter", "histogram": "histogram"}.get(
            kind, "gauge"
        )
        lines.append(f"# TYPE {metric} {prom_type}")
        for entry in entries:
            labels = entry.get("labels", {})
            if kind == "histogram":
                buckets = entry.get("buckets", [])
                counts = entry.get("bucket_counts", [])
                cumulative = 0
                for bound, count in zip(buckets, counts):
                    cumulative += count
                    lines.append(
                        f"{metric}_bucket"
                        f"{_label_string(labels, {'le': _format_value(float(bound))})}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{metric}_bucket{_label_string(labels, {'le': '+Inf'})}"
                    f" {entry.get('count', 0)}"
                )
                lines.append(
                    f"{metric}_sum{_label_string(labels)} "
                    f"{_format_value(float(entry.get('sum', 0.0)))}"
                )
                lines.append(
                    f"{metric}_count{_label_string(labels)} "
                    f"{entry.get('count', 0)}"
                )
            else:
                lines.append(
                    f"{metric}{_label_string(labels)} "
                    f"{_format_value(entry.get('value', 0))}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus(text: str) -> dict[str, list]:
    """Minimal exposition-format parser: ``{sample_name: [(labels, value)]}``.

    Exists for the CI validity check and the tests — it rejects lines
    that do not parse as ``name[{labels}] value`` and returns the sample
    table so assertions can check series presence.  Not a full
    Prometheus parser (no timestamps, no exemplars — we emit neither).
    """
    samples: dict[str, list] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"line {lineno}: no value separator: {raw!r}")
        value_text = value_part.strip()
        if value_text in ("+Inf", "-Inf", "NaN"):
            value = float(value_text.replace("Inf", "inf"))
        else:
            value = float(value_text)  # raises on malformed values
        name_part = name_part.strip()
        labels: dict[str, str] = {}
        if name_part.endswith("}"):
            brace = name_part.index("{")
            label_blob = name_part[brace + 1 : -1]
            name = name_part[:brace]
            for item in filter(None, _split_labels(label_blob)):
                key, _, val = item.partition("=")
                if not (val.startswith('"') and val.endswith('"')):
                    raise ValueError(
                        f"line {lineno}: unquoted label value: {raw!r}"
                    )
                labels[key] = val[1:-1]
        else:
            name = name_part
        if not name or not all(c.isalnum() or c in "_:" for c in name):
            raise ValueError(f"line {lineno}: bad metric name: {raw!r}")
        samples.setdefault(name, []).append((labels, value))
    return samples


def _split_labels(blob: str) -> list[str]:
    """Split ``k1="v1",k2="v2"`` respecting quotes and escapes."""
    parts: list[str] = []
    current: list[str] = []
    in_quote = False
    escaped = False
    for char in blob:
        if escaped:
            current.append(char)
            escaped = False
        elif char == "\\":
            current.append(char)
            escaped = True
        elif char == '"':
            current.append(char)
            in_quote = not in_quote
        elif char == "," and not in_quote:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    if current:
        parts.append("".join(current))
    return parts


class MetricsServer:
    """The exposition endpoint: ``/metrics``, ``/healthz``, ``/snapshot.json``.

    ``snapshot_fn`` is called per request — pass
    ``registry.snapshot`` (bound method) or any callable returning the
    snapshot shape.  The server runs on a daemon thread: it dies with
    the process and never blocks shutdown, which is the right lifecycle
    for run-scoped observability.
    """

    def __init__(
        self,
        snapshot_fn: Callable[[], dict],
        port: int = 0,
        host: str = "127.0.0.1",
    ):
        self.snapshot_fn = snapshot_fn
        self.started = time.monotonic()
        server = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (http.server API)
                try:
                    server._handle(self)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # scraper went away mid-response

            def log_message(self, *args):  # silence per-request stderr
                pass

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "MetricsServer":
        if not self._thread.is_alive():
            try:
                self._thread.start()
            except RuntimeError:
                pass  # already started and since finished: nothing to do
        return self

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request handling ------------------------------------------------

    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        path = request.path.split("?", 1)[0]
        if path == "/metrics":
            body = render_prometheus(self._snapshot()).encode()
            self._respond(request, 200, PROMETHEUS_CONTENT_TYPE, body)
        elif path == "/healthz":
            payload = {
                "status": "ok",
                "uptime_s": round(time.monotonic() - self.started, 3),
            }
            self._respond(
                request, 200, "application/json",
                json.dumps(payload).encode(),
            )
        elif path in ("/snapshot.json", "/snapshot"):
            body = json.dumps(self._snapshot(), sort_keys=True).encode()
            self._respond(request, 200, "application/json", body)
        else:
            self._respond(
                request, 404, "text/plain; charset=utf-8",
                b"not found; routes: /metrics /healthz /snapshot.json\n",
            )

    def _snapshot(self) -> dict:
        try:
            return self.snapshot_fn() or {}
        except Exception:
            # A half-updated registry must never take the endpoint down;
            # an empty scrape is visible, a dead endpoint is not.
            return {}

    @staticmethod
    def _respond(request, status: int, content_type: str, body: bytes):
        request.send_response(status)
        request.send_header("Content-Type", content_type)
        request.send_header("Content-Length", str(len(body)))
        request.end_headers()
        request.wfile.write(body)


def expose_registry(
    registry: MetricsRegistry, port: int, host: str = "127.0.0.1"
) -> MetricsServer:
    """Start (and return) an exposition server over ``registry``.

    ``port=0`` binds an ephemeral port — read it back from
    :attr:`MetricsServer.port` (the tests and the CI step do).
    """
    return MetricsServer(registry.snapshot, port=port, host=host).start()
