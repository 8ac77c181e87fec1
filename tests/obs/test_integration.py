"""End-to-end telemetry: traced SPEC formation, the trace/stats CLI
verbs and exports."""

from __future__ import annotations

import json

from repro.core.convergent import form_module
from repro.harness import tracecmd
from repro.harness.cli import run as cli_run
from repro.harness.tracecmd import (
    phase_table,
    rejection_breakdown,
    slowest_trials,
)
from repro.obs.trace import Tracer
from repro.profiles import collect_profile
from repro.workloads.spec import SPEC_BENCHMARKS


def _form_traced(name: str):
    workload = SPEC_BENCHMARKS[name]
    module = workload.module()
    profile = collect_profile(
        module, args=workload.args, preload=workload.preload
    )
    tracer = Tracer()
    report = form_module(module, profile=profile, tracer=tracer)
    return tracer.finish(), report


def test_traced_spec_formation_is_consistent():
    trace, report = _form_traced("mcf")
    counts = trace.event_counts()
    # Every accepted merge is an accept event; every trial a trial span.
    assert counts["accept"] == report.merges
    assert counts["trial"] == report.attempts
    assert counts["commit"] == report.merges
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


def test_trace_jsonl_holds_every_event_in_order(tmp_path, monkeypatch):
    """``trace --jsonl`` writes the finished trace: one ``as_dict`` per
    event, in the tracer's order, nothing dropped or added."""
    real = tracecmd.record_workload
    runs = []

    def record_workload(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(tracecmd, "record_workload", record_workload)
    path = tmp_path / "t.jsonl"
    out = cli_run(["trace", "mcf", "--jsonl", str(path)])
    ((_, _, trace, _),) = runs
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines == json.loads(
        json.dumps([event.as_dict() for event in trace.events], default=str)
    )
    assert out.startswith(f"trace: mcf: {len(lines)} events")


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

