"""Per-phase allocation attribution (repro.obs.memprof)."""

from __future__ import annotations

from repro.core.convergent import form_module
from repro.obs.memprof import (
    ALLOC_HISTOGRAM,
    PhaseMemoryProfiler,
    format_bytes,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import MemorySink
from repro.obs.trace import Tracer, tracing
from repro.profiles import collect_profile
from repro.workloads.spec import SPEC_BENCHMARKS


def test_nested_phases_split_net_into_self_net():
    profiler = PhaseMemoryProfiler()
    profiler.start()
    profiler.enter_phase("commit")
    outer = [bytearray(4096) for _ in range(64)]
    profiler.enter_phase("liveness")
    inner = [bytearray(4096) for _ in range(128)]
    profiler.exit_phase("liveness")
    profiler.exit_phase("commit")
    profiler.stop()

    commit = profiler.phases["commit"]
    liveness = profiler.phases["liveness"]
    assert liveness["net_bytes"] > 128 * 4096
    # Commit's net includes the nested liveness allocations; its
    # self-net excludes them.
    assert commit["net_bytes"] >= liveness["net_bytes"]
    assert (
        commit["self_net_bytes"]
        == commit["net_bytes"] - liveness["net_bytes"]
    )
    assert commit["self_net_bytes"] < liveness["net_bytes"]
    del outer, inner


def test_freed_allocations_show_negative_net_but_positive_peak():
    profiler = PhaseMemoryProfiler()
    profiler.start()
    ballast = [bytearray(4096) for _ in range(256)]
    profiler.enter_phase("optimize")
    del ballast
    profiler.exit_phase("optimize")
    profiler.stop()
    row = profiler.phases["optimize"]
    assert row["net_bytes"] < 0
    assert row["peak_delta_bytes"] >= 0


def test_peak_window_resets_per_phase():
    profiler = PhaseMemoryProfiler()
    profiler.start()
    profiler.enter_phase("estimate")
    spike = [bytearray(4096) for _ in range(512)]
    del spike
    profiler.exit_phase("estimate")
    profiler.enter_phase("commit")
    profiler.exit_phase("commit")
    profiler.stop()
    # The estimate spike must not bleed into commit's peak window.
    assert (
        profiler.phases["estimate"]["peak_delta_bytes"]
        > profiler.phases["commit"]["peak_delta_bytes"]
    )
    assert profiler.total_peak >= profiler.phases["estimate"][
        "peak_delta_bytes"
    ]


def test_unbalanced_exits_are_ignored_not_misattributed():
    profiler = PhaseMemoryProfiler()
    profiler.start()
    profiler.enter_phase("optimize")
    profiler.exit_phase("commit")  # mismatched: dropped
    profiler.exit_phase("optimize")
    profiler.stop()
    assert set(profiler.phases) == {"optimize"}
    assert profiler.phases["optimize"]["count"] == 1


def test_histogram_feeds_self_net_per_phase():
    registry = MetricsRegistry()
    profiler = PhaseMemoryProfiler(metrics=registry)
    profiler.start()
    profiler.enter_phase("optimize")
    keep = [bytearray(4096) for _ in range(64)]
    profiler.exit_phase("optimize")
    profiler.stop()
    snapshot = registry.snapshot()
    (entry,) = [
        e for e in snapshot[ALLOC_HISTOGRAM]
        if e["labels"] == {"phase": "optimize"}
    ]
    assert entry["count"] == 1
    assert entry["sum"] > 0
    del keep


def test_report_totals_and_sections():
    profiler = PhaseMemoryProfiler()
    profiler.start()
    profiler.enter_phase("optimize")
    profiler.exit_phase("optimize")
    profiler.stop()
    report = profiler.report()
    attributed = sum(
        row["self_net_bytes"] for row in report["phases"].values()
    )
    assert (
        report["total_net_bytes"]
        == attributed + report["unattributed_net_bytes"]
    )


def test_tracer_drives_profiler_through_real_formation():
    workload = SPEC_BENCHMARKS["mcf"]
    module = workload.module()
    profile = collect_profile(
        module, args=workload.args, preload=workload.preload
    )
    profiler = PhaseMemoryProfiler()
    tracer = Tracer(sinks=(MemorySink(),))
    tracer.memprof = profiler
    profiler.start()
    with tracing(tracer):
        form_module(module, profile=profile, record_events=False)
    profiler.stop()
    # Every formation phase that ran wall-clock also got byte rows.
    assert {"optimize", "estimate", "commit"} <= set(profiler.phases)
    for row in profiler.phases.values():
        assert row["count"] > 0


def test_stop_closes_dangling_frames():
    profiler = PhaseMemoryProfiler()
    profiler.start()
    profiler.enter_phase("optimize")
    profiler.enter_phase("estimate")
    profiler.stop()  # no exits: both frames must still be accounted
    assert set(profiler.phases) == {"optimize", "estimate"}
    assert not profiler._stack


def test_format_bytes_renders_all_scales():
    assert format_bytes(None) == "-"
    assert format_bytes(512) == "512 B"
    assert format_bytes(4 * 1024) == "4.0 KiB"
    assert format_bytes(3 * 1024 * 1024) == "3.0 MiB"
    assert format_bytes(-2048) == "-2.0 KiB"
