"""End-to-end telemetry: traced SPEC formation, the trace/stats CLI
verbs, exports, and the MergeStats compatibility view."""

from __future__ import annotations

import json

from repro.core.convergent import form_module
from repro.core.merge import MergeStats
from repro.harness.cli import run as cli_run
from repro.harness.tracecmd import (
    phase_table,
    record_formation_trace,
    rejection_breakdown,
    slowest_trials,
)
from repro.obs.trace import Tracer, tracing
from repro.profiles import collect_profile
from repro.workloads.spec import SPEC_BENCHMARKS


def _form_traced(name: str):
    workload = SPEC_BENCHMARKS[name]
    module = workload.module()
    profile = collect_profile(
        module, args=workload.args, preload=workload.preload
    )
    with tracing(Tracer()) as tracer:
        report = form_module(module, profile=profile)
    return tracer.finish(), report


def test_traced_spec_formation_is_consistent():
    trace, report = _form_traced("mcf")
    counts = trace.event_counts()
    # Every accepted merge is an accept event; every trial a trial span.
    assert counts["accept"] == report.stats.merges
    assert counts["trial"] == report.stats.attempts
    assert counts["commit"] == report.stats.merges
    assert counts.get("module") == 1
    # Offers >= trials: some offers are turned away before the trial.
    assert counts["offer"] >= counts["trial"]
    # The span tree is rooted at the module span.
    (root,) = trace.roots()
    assert root.name == "module"


def test_decision_path_explains_a_real_merge():
    trace, report = _form_traced("mcf")
    accept = trace.last_accept()
    assert accept is not None
    path = trace.decision_path(accept.attrs["hb"], accept.attrs["target"])
    names = [e.name for e in path]
    assert "offer" in names and "trial" in names and "accept" in names
    # The trial's phases are part of the explanation.
    assert "estimate" in names


def test_tracing_does_not_change_formation():
    workload = SPEC_BENCHMARKS["mcf"]
    plain = workload.module()
    profile = collect_profile(
        plain, args=workload.args, preload=workload.preload
    )
    plain_report = form_module(plain, profile=profile)
    trace, traced_report = _form_traced("mcf")
    assert traced_report.summary() == plain_report.summary()


def test_phase_table_shares_sum_to_one():
    trace, _ = _form_traced("mcf")
    table = phase_table(trace)
    assert "main" in table
    # Self-time accounting: commit excludes nested liveness, so summing
    # every cell never double-counts and the shares total ~100%.
    total = sum(sum(row.values()) for row in table.values())
    assert total > 0
    commit_total = sum(
        e.dur for e in trace.spans("commit")
    )
    liveness_total = sum(e.dur for e in trace.spans("liveness"))
    table_commit = sum(row.get("commit", 0.0) for row in table.values())
    assert abs(table_commit - (commit_total - liveness_total)) < 1e-9


def test_stats_helpers_on_a_real_trace():
    trace, report = _form_traced("mcf")
    top = slowest_trials(trace, 3)
    assert len(top) == 3
    assert top[0].dur >= top[1].dur >= top[2].dur
    breakdown = rejection_breakdown(trace)
    assert sum(
        count for reason, count in breakdown.items() if ":" not in reason
    ) == len(trace.named("reject"))


def test_record_formation_trace_writes_jsonl(tmp_path):
    path = str(tmp_path / "t.jsonl")
    trace, report, registry, module = record_formation_trace("mcf", jsonl=path)
    assert module is not None
    assert len(trace) > 0
    with open(path) as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    assert len(lines) == len(trace)
    hist = registry.snapshot().get("formation_phase_seconds")
    assert hist, "phase spans must feed the histogram"


def test_cli_trace_verb(tmp_path):
    chrome = tmp_path / "t.json"
    out = cli_run(["trace", "mcf", "--chrome", str(chrome)])
    assert "trace: mcf" in out
    assert "accept=" in out
    document = json.loads(chrome.read_text())
    assert document["traceEvents"], "chrome trace must be non-empty"
    phases = {e["ph"] for e in document["traceEvents"]}
    assert "X" in phases and "M" in phases


def test_cli_trace_why(tmp_path):
    trace, _ = _form_traced("mcf")
    accept = trace.last_accept()
    pair = f"{accept.attrs['hb']},{accept.attrs['target']}"
    out = cli_run(["trace", "mcf", "--why", pair])
    assert f"decision path for {accept.attrs['hb']}" in out
    assert "=>" in out  # the one-line verdict


def test_cli_stats_verb():
    out = cli_run(["stats", "mcf", "--top", "3"])
    assert "slowest trials" in out
    assert "phase table" in out
    assert "100.0%" in out  # one function -> it owns all phase time


def test_merge_stats_events_capacity_counts_overflow():
    from repro.core.merge import MergeKind

    stats = MergeStats(events_capacity=2)
    for i in range(4):
        stats.record(MergeKind.SIMPLE, "hb", f"b{i}")
    assert len(stats.events) == 2
    assert stats.trace_dropped_events == 2
    assert stats.merges == 4  # counters never drop

    total = MergeStats(events_capacity=3)
    total.add(stats)
    assert len(total.events) == 2
    other = MergeStats(events_capacity=2)
    other.record(MergeKind.SIMPLE, "hb", "x")
    other.record(MergeKind.SIMPLE, "hb", "y")
    total.add(other)
    assert len(total.events) == 3  # room for one more
    assert total.trace_dropped_events == 2 + 1  # propagated + overflow
